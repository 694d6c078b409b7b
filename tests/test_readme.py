"""The file-format examples in README.md load as documented."""

import json
import os

import abstrakt as ab

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def json_block_after(heading):
    """The first fenced JSON block under a README heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```json\n", text.index(heading)) + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


def test_model_and_cluster_examples_validate():
    scm = ab.validate_scm(json_block_after("### Model JSON"))
    assert scm.variable_names() == ("Z", "X")
    cm = ab.validate_clusters(scm, json_block_after("### Cluster map JSON"))
    assert cm.by_name["XH"].fiber("xC") == (("x1",), ("x2",))
    assert cm.excluded == ("Z",)
