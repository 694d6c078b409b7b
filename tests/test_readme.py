"""The file-format examples and the CLI session in README.md work as
documented."""

import json
import os
import shlex

import abstrakt as ab
from abstrakt.cli import run

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
README = os.path.join(ROOT, "README.md")


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


def cli_session():
    """(argv, shown output) for each command of the README's typical CLI
    session, with continuation lines joined."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```\n", text.index("A typical session")) + 4
    steps = []
    for chunk in text[start:text.index("```", start)].split("$ ")[1:]:
        lines = chunk.split("\n")
        n = 1
        while lines[n - 1].endswith("\\"):
            n += 1
        argv = shlex.split(" ".join(l.rstrip("\\") for l in lines[:n]))
        assert argv[0] == "abstrakt"
        steps.append((argv[1:], "\n".join(lines[n:]).strip()))
    return steps


def test_cli_session(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the session writes high.json
    monkeypatch.delenv("ABSTRAKT_BUDGET", raising=False)
    payloads = []
    for argv, shown in cli_session():
        argv = [os.path.join(ROOT, a) if a.startswith("tests/") else a
                for a in argv]
        r = run(argv)
        assert r.exit_code == 0, r.payload
        if shown.startswith("{"):
            assert r.payload == json.loads(shown)
        payloads.append(r.payload)
    assert [p.get("rational") for p in payloads] == \
        ["9/10", None, "37/50", None, None]
    assert payloads[1]["violators"] == ["XH"]
    assert payloads[4]["checked"] == 5184
    assert payloads[4]["passed"] is True
