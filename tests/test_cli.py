"""Command-line surface: payloads, exit codes, and the JSON output mode."""

import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem

import pytest

import abstrakt as ab
from abstrakt import projection
from abstrakt.cli import _build_parser, parse_query, run
from conftest import (context_after_target_docs, fixture_path,
                      noiseless_mediator_docs, one_field_edits)

INS = fixture_path("insurance.json")
INS_CM = fixture_path("insurance_clusters.json")
HOSP = fixture_path("hospital.json")
HOSP_CM = fixture_path("hospital_clusters.json")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class TestQueryParsing:
    def test_plain_term(self):
        q = parse_query("P(Y=1)")
        assert len(q.terms) == 1
        assert q.terms[0].variable == "Y"
        assert q.terms[0].value == "1"
        assert q.terms[0].interventions == ()

    def test_interventions(self):
        q = parse_query("P(Y[X=x1; Z=z2]=1)")
        assert q.terms[0].interventions == (("X", "x1", False),
                                            ("Z", "z2", False))

    def test_stochastic_marker(self):
        q = parse_query("P(Y[~XH=xC]=1)")
        assert q.terms[0].interventions == (("XH", "xC", True),)

    def test_conditioning(self):
        q = parse_query("P(Y=1 | Z=z1, X=x2)")
        assert len(q.conditioning) == 2

    def test_syntax_error_position(self):
        with pytest.raises(ab.QuerySyntaxError):
            parse_query("P(Y[=1)")
        with pytest.raises(ab.QuerySyntaxError):
            parse_query("Y=1")
        with pytest.raises(ab.QuerySyntaxError):
            parse_query("P(Y=1")


class TestValidate:
    def test_model_summary(self):
        r = run(["validate", "--scm", INS])
        assert r.exit_code == 0
        assert r.payload["support"] == 144
        assert [v["name"] for v in r.payload["variables"]] == ["Z", "X", "Y"]

    def test_with_clusters(self):
        r = run(["validate", "--scm", INS, "--clusters", INS_CM])
        assert [c["name"] for c in r.payload["clusters"]] == ["Z", "XH", "Y"]

    def test_missing_file(self):
        r = run(["validate", "--scm", "no-such-file.json"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("argv, doc", [
        (["validate", "--scm"], {"endogenous": [1], "mechanisms": []}),
        (["validate", "--scm"],
         {"endogenous": [{"name": "X", "domain": 3}], "mechanisms": []}),
        (["validate", "--scm", INS, "--clusters"], {"clusters": [1]}),
        (["sample", "--value", "X=1", "--high"],
         {"endogenous": [], "mechanisms": [], "delta": {"splits": [1]}}),
    ])
    def test_entries_of_the_wrong_type(self, tmp_path, argv, doc):
        """A document entry that is not an object, or a list field that is
        not an array, is bad input (exit 2)."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        r = run(argv + [str(path)])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"

    @pytest.mark.parametrize("doc, field", [
        ("scm", ("endogenous", 0, "name")),
        ("scm", ("endogenous", 0, "domain", 0)),
        ("scm", ("blocks", 0, "name")),
        ("scm", ("mechanisms", 0, "variable")),
        ("scm", ("mechanisms", 0, "exo_parents", 0, "block")),
        ("clusters", ("clusters", 0, "name")),
        ("clusters", ("clusters", 0, "members", 0)),
        ("clusters", ("clusters", 0, "values", 0, "label")),
        ("high", ("delta", "splits", 0, "cluster")),
    ])
    def test_names_that_are_arrays(self, tmp_path, doc, field):
        """A name, member, label or domain value that is an array is bad
        input (exit 2), not a failure to hash it."""
        paths = {"scm": INS, "clusters": INS_CM,
                 "high": str(tmp_path / "high.json")}
        assert run(["abstract", "--scm", INS, "--clusters", INS_CM,
                    "-o", paths["high"]]).exit_code == 0
        with open(paths[doc]) as fh:
            target = root = json.load(fh)
        for step in field[:-1]:
            target = target[step]
        target[field[-1]] = [target[field[-1]]]
        paths[doc] = str(tmp_path / "bad.json")
        with open(paths[doc], "w") as fh:
            json.dump(root, fh)
        r = run({"scm": ["validate", "--scm", paths["scm"]],
                 "clusters": ["validate", "--scm", INS,
                              "--clusters", paths["clusters"]],
                 "high": ["sample", "--high", paths["high"],
                          "--value", "XH=xC"]}[doc])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"


class TestEval:
    def test_hard_intervention(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y[X=x1]=1)"])
        assert r.exit_code == 0
        assert r.payload["rational"] == "9/10"

    def test_cluster_union_outcome(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(XH=xC)"])
        assert r.payload["rational"] == "1/2"

    def test_marker_resolution(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[~XH=xC]=1|Z=z1)"])
        assert r.payload["rational"] == "37/50"

    def test_marker_policy_flag(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--policy", "agnostic",
                 "--query", "P(Y[~XH=xC]=1|Z=z1)"])
        assert r.payload["rational"] == "149/250"

    def test_marker_context_declared_after_target(self, tmp_path):
        model, clusters = context_after_target_docs()
        paths = []
        for name, doc in (("m.json", model), ("c.json", clusters)):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        r = run(["eval", "--scm", paths[0], "--clusters", paths[1],
                 "--query", "P(YC[~C=same]=y0)", "--policy", "general"])
        assert r.exit_code == 0
        assert r.payload["rational"] == "1"

    def test_marker_needs_tilde(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xC]=1)"])
        assert r.exit_code == 3
        assert r.payload["error"]["kind"] == "NotClusterUnion"
        assert "~XH=xC" in r.payload["error"]["message"]

    def test_cluster_and_variable_names_mix(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[X=x1]=1)"])
        assert r.exit_code == 0
        assert r.payload["rational"] == "9/10"

    @pytest.mark.parametrize("clusters", [[], ["--clusters", INS_CM]])
    def test_tilde_on_plain_variable(self, clusters):
        r = run(["eval", "--scm", INS, *clusters,
                 "--query", "P(Y[~X=x1]=1)"])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"

    def test_singleton_label_is_hard(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xE]=1)"])
        assert r.payload["rational"] == "9/10"

    def test_budget_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y=1)", "--budget", "5"])
        assert r.exit_code == 4
        assert r.payload["error"]["kind"] == "SizeExceeded"

    def test_negative_budget_exit(self, monkeypatch):
        """A negative budget is bad input (exit 2), from the flag or from
        ABSTRAKT_BUDGET; a budget of 0 is a limit no state fits (exit 4)."""
        r = run(["eval", "--scm", INS, "--query", "P(Y=1)", "--budget", "-5"])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"
        assert "-5" in r.payload["error"]["message"]
        monkeypatch.setenv("ABSTRAKT_BUDGET", "-5")
        r = run(["eval", "--scm", INS, "--query", "P(Y=1)"])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"
        monkeypatch.setenv("ABSTRAKT_BUDGET", "0")
        r = run(["eval", "--scm", INS, "--query", "P(Y=1)"])
        assert r.exit_code == 4
        assert r.payload["error"]["details"]["budget"] == 0

    def test_syntax_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y[=1)"])
        assert r.exit_code == 2

    def test_unknown_variable_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(W=1)"])
        assert r.exit_code == 2


def put(path, value):
    """A document edit that sets the entry at ``path`` to ``value``."""
    def edit(doc):
        reduce(getitem, path[:-1], doc)[path[-1]] = value
        return doc
    return edit


def add(path, entry):
    """A document edit that appends ``entry`` to the list at ``path``."""
    def edit(doc):
        reduce(getitem, path, doc).append(entry)
        return doc
    return edit


class TestRefusals:
    """One edit of a model, cluster map or graph document per refusal of
    the loaders, each exit 2 with its error kind and message."""

    GRAPH = {"nodes": ["X", "Y"], "directed": [["X", "Y"]],
             "bidirected": []}

    @pytest.mark.parametrize("doc, edit, kind, message", [
        ("scm", lambda doc: [doc], "DomainMismatch", "JSON object"),
        ("scm", put(("endogenous", 2, "domain"), []), "DomainMismatch",
         "empty domain"),
        ("scm", put(("endogenous", 2, "domain"), [0, 1, 1]),
         "DomainMismatch", "repeats a domain value"),
        ("scm", add(("endogenous",), {"name": "Z", "domain": ["z1"]}),
         "DomainMismatch", "declared twice"),
        ("scm", add(("blocks",), {"name": "UZ"}), "DomainMismatch",
         "declared twice"),
        ("scm", put(("blocks", 0, "members", 0, "domain"), []),
         "DomainMismatch", "bad domain"),
        ("scm", add(("blocks", 0, "members"),
                    {"name": "UZ", "domain": ["z1"]}),
         "DomainMismatch", "repeated in block"),
        ("scm", put(("blocks", 0, "table", 0, "values"), ["z1", "z1"]),
         "DomainMismatch", "2 values for 1 members"),
        ("scm", put(("blocks", 0, "table", 0, "values"), ["z9"]),
         "DomainMismatch", "outside the domain of member"),
        ("scm", add(("blocks", 0, "table"), {"values": ["z1"], "p": "0"}),
         "NonNormalizedBlock", "lists row"),
        ("scm", put(("blocks", 0, "table"), [{"values": ["z1"], "p": "1"}]),
         "NonNormalizedBlock", "covers 1 of 2"),
        ("scm", put(("blocks", 0, "table", 0, "p"), True), "DomainMismatch",
         "got a bool"),
        ("scm", put(("blocks", 0, "table", 0, "p"), "seven tenths"),
         "DomainMismatch", "cannot parse probability 'seven tenths'"),
        ("scm", put(("blocks", 0, "table", 0, "p"), {"num": 7}),
         "DomainMismatch", "probability of type dict"),
        ("scm", put(("mechanisms", 0, "variable"), "W"), "DomainMismatch",
         "undeclared variable"),
        ("scm", add(("mechanisms",), {"variable": "Z"}), "DomainMismatch",
         "two mechanisms"),
        ("scm", put(("mechanisms", 1, "endo_parents"), ["Z", "Z"]),
         "DomainMismatch", "repeats a parent"),
        ("scm", put(("mechanisms", 0, "exo_parents", 0, "member"), "V"),
         "DomainMismatch", "unknown exogenous member"),
        ("scm", add(("mechanisms", 0, "exo_parents"),
                    {"block": "UZ", "member": "UZ"}),
         "DomainMismatch", "repeats exogenous member"),
        ("scm", put(("mechanisms", 0, "table", 0, "parents"), ["z1", "z1"]),
         "PartialMechanism", "2 parent values, expected 1"),
        ("scm", put(("mechanisms", 0, "table", 0, "parents"), ["z9"]),
         "DomainMismatch", "parent value 'z9' outside its domain"),
        ("scm", add(("mechanisms", 0, "table"),
                    {"parents": ["z1"], "out": "z1"}),
         "PartialMechanism", "lists parents"),
        ("scm", add(("endogenous",), {"name": "W", "domain": [0]}),
         "PartialMechanism", "no mechanism for W"),
        ("clusters", add(("clusters",), {"name": "Z"}), "NotPartition",
         "declared twice"),
        ("clusters", put(("clusters", 0, "members"), []), "NotPartition",
         "no members"),
        ("clusters", put(("clusters", 0, "members"), ["W"]),
         "UnknownVariable", "unknown variable 'W'"),
        ("clusters", put(("clusters", 1, "values", 1, "label"), "xC"),
         "IncompleteValuePartition", "labels 'xC' twice"),
        ("clusters", put(("clusters", 1, "values", 1, "tuples"),
                         [["x3", "x3"]]),
         "DomainMismatch", "2 entries for 1 members"),
        ("clusters", put(("clusters", 1, "values", 1, "tuples"), [["x9"]]),
         "DomainMismatch", "outside the joint domain"),
        ("clusters", add(("clusters", 1, "values"),
                         {"label": "xN", "tuples": []}),
         "IncompleteValuePartition", "empty preimage"),
        ("graph", add(("nodes",), "X"), "DomainMismatch", "declared twice"),
        ("graph", put(("violators",), ["W"]), "UnknownVariable",
         "violator 'W'"),
        ("graph", lambda doc: {"directed": []}, "DomainMismatch",
         "'nodes' list"),
        ("graph", put(("directed",), "X -> Y"), "DomainMismatch",
         "'directed' must be a list"),
    ])
    def test_edit_exits_2(self, tmp_path, doc, edit, kind, message):
        if doc == "graph":
            original = json.loads(json.dumps(self.GRAPH))
        else:
            with open({"scm": INS, "clusters": INS_CM}[doc]) as fh:
                original = json.load(fh)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(edit(original), fh)
        r = run({"scm": ["validate", "--scm", path],
                 "clusters": ["validate", "--scm", INS, "--clusters", path],
                 "graph": ["identify", "--graph", path,
                           "--query", "P(Y[X=1]=1)"]}[doc])
        assert r.exit_code == 2, r.payload
        assert r.payload["error"]["kind"] == kind
        assert message in r.payload["error"]["message"]


class TestRequestRefusals:
    """One request per refusal of the CLI's own reading of its arguments
    and input files, each exit 2 with its error kind and message."""

    NOT_JSON = ("Expecting property name enclosed in double quotes: line 1 "
                "column 2 (char 1)")

    @pytest.mark.parametrize("argv, kind, message", [
        (["eval", "--scm", INS, "--query", "P(Y=1) extra"], "SyntaxError",
         "unexpected trailing text"),
        (["sample", "--high", "HIGH", "--value", "XH"], "DomainMismatch",
         "--value must look like CLUSTER=label"),
        (["sample", "--high", "HIGH", "--value", "XH=xC", "--context", "{"],
         "DomainMismatch", "--context is not valid JSON: " + NOT_JSON),
        (["validate", "--scm", "BRACE"], "error",
         "input is not valid JSON: " + NOT_JSON),
    ], ids=["trailing-text", "value-without-label", "context-not-json",
            "file-not-json"])
    def test_refused(self, tmp_path, argv, kind, message):
        paths = {"HIGH": str(tmp_path / "high.json"),
                 "BRACE": str(tmp_path / "brace.json")}
        low = ab.load_scm(INS)
        ab.save_high(ab.construct_projected_abstraction(
            low, ab.load_clusters(low, INS_CM)), paths["HIGH"])
        with open(paths["BRACE"], "w") as fh:
            fh.write("{")
        r = run([paths.get(a, a) for a in argv])
        assert r.exit_code == 2, r.payload
        assert r.payload["error"]["kind"] == kind
        assert r.payload["error"]["message"] == message


class TestAicCheck:
    def test_violators(self):
        r = run(["aic-check", "--scm", INS, "--clusters", INS_CM])
        assert r.exit_code == 0
        assert r.payload["violators"] == ["XH"]
        w = r.payload["witnesses"]["XH"]
        assert w["child"] == "Y"
        assert sorted([w["left"], w["right"]]) == [["x1"], ["x2"]]


class TestExplicitBudget:
    """With variables outside every cluster, the model is projected under
    the caller's --budget, which wins over ABSTRAKT_BUDGET."""

    @pytest.mark.parametrize("command, extra", [
        ("aic-check", []),
        ("cdag", ["--project"]),
        ("abstract", ["-o", "high.json"]),
        ("identify", ["--query", "P(YC[XH=xE]=1)"]),
        ("estimate", ["--query", "P(YC[XH=xE]=1)"]),
    ])
    def test_excluded_variable(self, tmp_path, monkeypatch, command, extra):
        monkeypatch.chdir(tmp_path)
        with open("no_z.json", "w") as fh:
            json.dump({"clusters": [
                {"name": "XH", "members": ["X"], "values": [
                    {"label": "xC", "tuples": [["x1"], ["x2"]]},
                    {"label": "xE", "tuples": [["x3"]]}]},
                {"name": "YC", "members": ["Y"], "values": [
                    {"label": 0, "tuples": [[0]]},
                    {"label": 1, "tuples": [[1]]}]}]}, fh)
        monkeypatch.setenv("ABSTRAKT_BUDGET", "2")
        r = run([command, "--scm", INS, "--clusters", "no_z.json",
                 "--budget", "10000000", *extra])
        assert "error" not in r.payload, r.payload


class TestAbstractAndDownstream:
    @pytest.fixture()
    def high_path(self, tmp_path):
        out = str(tmp_path / "high.json")
        r = run(["abstract", "--scm", INS, "--clusters", INS_CM,
                 "-o", out])
        assert r.exit_code == 0
        assert r.payload["violators"] == ["XH"]
        assert r.payload["support"] == 576
        return out

    def test_eval_on_written_model(self, high_path):
        r = run(["eval", "--scm", high_path, "--query", "P(Y[XH=xC]=1)"])
        assert r.exit_code == 0
        assert r.payload["rational"] == "149/250"

    @pytest.mark.parametrize("text, want", [
        ("P(Y[~XH=xC]=1)", "149/250"),
        ("P(Y[~XH=xC]=1 | Z=z1)", "37/50"),
    ])
    def test_eval_tilde_on_written_model(self, high_path, text, want):
        """On a projected document ~XH=xC draws from the document's own
        sigma tables, and answers as the low model with the cluster map
        does."""
        low = run(["eval", "--scm", INS, "--clusters", INS_CM,
                   "--query", text])
        high = run(["eval", "--scm", high_path, "--query", text])
        assert low.exit_code == high.exit_code == 0
        assert low.payload == high.payload
        assert high.payload["rational"] == want

    def test_eval_tilde_needs_a_projected_document(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y[~X=x1]=1)"])
        assert r.exit_code == 2
        assert "plain variable" in r.payload["error"]["message"]

    def test_verify(self, high_path):
        r = run(["verify", "--scm", INS, "--high", high_path])
        assert r.exit_code == 0
        assert r.payload["checked"] == 5184
        assert r.payload["passed"] is True

    def test_verify_detects_tampering(self, high_path, tmp_path):
        with open(high_path) as fh:
            doc = json.load(fh)
        for mech in doc["mechanisms"]:
            if mech["variable"] == "Y":
                for row in mech["table"]:
                    row["out"] = 1 - row["out"]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        r = run(["verify", "--scm", INS, "--high", bad])
        assert r.exit_code == 3
        assert r.payload["passed"] is False
        assert r.payload["mismatches"]

    def test_verify_counts_mismatches(self, high_path, tmp_path):
        with open(high_path) as fh:
            doc = json.load(fh)
        for mech in doc["mechanisms"]:
            if mech["variable"] == "Y":
                for row in mech["table"]:
                    row["out"] = 1 - row["out"]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        r = run(["verify", "--scm", INS, "--high", bad])
        assert list(r.payload) == ["checked", "passed", "mismatch_count",
                                   "mismatches"]
        assert r.payload["mismatch_count"] == 1728
        assert len(r.payload["mismatches"]) == 10
        assert all(isinstance(m, dict) for m in r.payload["mismatches"])
        r = run(["verify", "--scm", INS, "--high", high_path])
        assert r.payload["mismatch_count"] == 0
        assert r.payload["mismatches"] == []

    @pytest.mark.parametrize("edit", [
        "drop Z split", "rename block", "array block", "drop cell member",
        "unknown cell member", "cell domain", "violator text",
        "extra split"])
    def test_delta_that_misfits_its_model_exits_2(self, high_path, tmp_path,
                                                  edit):
        """A document whose delta does not fit the model it ships with is
        refused on load, before the replay reads it."""
        with open(high_path) as fh:
            doc = json.load(fh)
        splits = doc["delta"]["splits"]
        xh = next(e for e in splits if e["cluster"] == "XH")
        context = xh["cells"][0]["contexts"][0]
        if edit == "drop Z split":
            splits.remove(next(e for e in splits if e["cluster"] == "Z"))
        elif edit == "rename block":
            xh["block"] = "XH__v"
        elif edit == "array block":
            xh["block"] = [xh["block"]]
        elif edit == "drop cell member":
            del context["member"]
        elif edit == "unknown cell member":
            context["member"] = "XH__u__nowhere"
        elif edit == "cell domain":
            # xC gains a third member tuple, so its cells need a domain of 3
            xh["values"][0]["tuples"].append(["x9"])
        elif edit == "violator text":
            xh["violator"] = "yes"
        else:
            splits.append(dict(xh, cluster="W"))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        r = run(["verify", "--scm", INS, "--high", bad])
        assert r.exit_code == 2, r.payload
        assert r.payload["error"]["kind"] == "DomainMismatch"

    @pytest.mark.parametrize("edit", ["rename", "domain"])
    def test_low_model_the_high_model_cannot_read_exits_2(
            self, high_path, tmp_path, edit):
        """verify refuses a low model that lacks a noise member the high
        model reads outside its cells, or gives it another domain."""
        with open(INS) as fh:
            doc = json.load(fh)
        block = next(b for b in doc["blocks"] if b["name"] == "UZ")
        z = next(m for m in doc["mechanisms"] if m["variable"] == "Z")
        if edit == "rename":
            block["name"] = "UZ2"
            z["exo_parents"][0]["block"] = "UZ2"
        else:
            block["members"][0]["domain"] = ["z1", "z3"]
            block["table"][1]["values"] = ["z3"]
            z["table"][1]["parents"] = ["z3"]
        low = str(tmp_path / "low.json")
        with open(low, "w") as fh:
            json.dump(doc, fh)
        r = run(["verify", "--scm", low, "--high", high_path])
        assert r.exit_code == 2, r.payload
        assert r.payload["error"]["kind"] == (
            "UnknownVariable" if edit == "rename" else "DomainMismatch")
        assert "UZ.UZ" in r.payload["error"]["message"]

    def test_noise_the_high_model_copies_must_match_exits_2(
            self, high_path, tmp_path):
        """verify compares each block the high model reads outside its
        cells with the low model's. With UZ's two probabilities swapped in
        the written document, P(Y=1) on it is 163/250 against 187/250 on the
        low model, and verify used to pass all 5184 cases."""
        with open(high_path) as fh:
            doc = json.load(fh)
        rows = next(b for b in doc["blocks"] if b["name"] == "UZ")["table"]
        rows[0]["p"], rows[1]["p"] = rows[1]["p"], rows[0]["p"]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        assert run(["eval", "--scm", INS, "--query", "P(Y=1)"]).payload[
            "rational"] == "187/250"
        assert run(["eval", "--scm", bad, "--query", "P(Y=1)"]).payload[
            "rational"] == "163/250"
        r = run(["verify", "--scm", INS, "--high", bad])
        assert r.exit_code == 2, r.payload
        assert r.payload["error"]["kind"] == "DomainMismatch"
        assert "'UZ'" in r.payload["error"]["message"]

    def test_cell_block_table_must_be_the_sigma_product_exits_2(
            self, high_path, tmp_path):
        """A flagged split's cell block holds the product of its cells'
        sigma tables. With rows [0, 1] and [1, 0] of XH__u swapped, the
        document used to load: verify passed, and P(Y[XH=xC]=1) on it was
        101/250 against 149/250."""

        def edit(doc):
            rows = {tuple(row["values"]): row for row in next(
                b for b in doc["blocks"] if b["name"] == "XH__u")["table"]}
            rows[0, 1]["p"], rows[1, 0]["p"] = rows[1, 0]["p"], rows[0, 1]["p"]

        self._refused_on_load(high_path, tmp_path, edit, "DomainMismatch")

    def test_sample(self, high_path):
        args = ["sample", "--high", high_path, "--value", "XH=xC",
                "--context", '{"parents": {"Z": "z1"}}',
                "--seed", "7", "--n", "400"]
        r1 = run(args)
        r2 = run(args)
        assert r1.exit_code == 0
        assert r1.payload["draws"] == r2.payload["draws"]
        assert set(r1.payload["counts"]) <= {"('x1',)", "('x2',)"}

    @pytest.mark.parametrize("context", ['[1, 2, 3]', '{"parents": ["Z"]}'])
    def test_sample_malformed_context(self, high_path, context):
        r = run(["sample", "--high", high_path, "--value", "XH=xC",
                 "--context", context])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"

    def test_sample_negative_n(self, high_path):
        args = ["sample", "--high", high_path, "--value", "XH=xC",
                "--context", '{"parents": {"Z": "z1"}}', "--n"]
        r = run(args + ["-3"])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"
        assert "-3" in r.payload["error"]["message"]
        r = run(args + ["0"])
        assert r.exit_code == 0
        assert r.payload["n"] == 0 and r.payload["draws"] == []

    def test_sample_unknown_label(self, high_path):
        r = run(["sample", "--high", high_path, "--value", "XH=bogus"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("field", ["policy", "fallback"])
    def test_unknown_delta_setting_exits_2(self, high_path, tmp_path, field):
        with open(high_path) as fh:
            doc = json.load(fh)
        doc["delta"][field] = "bogus"
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        for argv in (["sample", "--high", bad, "--value", "XH=xC",
                      "--context", '{"parents": {"Z": "z1"}}'],
                     ["verify", "--scm", INS, "--high", bad],
                     ["eval", "--scm", bad, "--query", "P(Y[XH=xC]=1)"]):
            r = run(argv)
            assert r.exit_code == 2
            assert r.payload["error"]["kind"] == "DomainMismatch"

    @pytest.fixture()
    def hospital_path(self, tmp_path):
        """The projected hospital document, where XH reads the noise UZ it
        shares with Z (general policy)."""
        out = str(tmp_path / "hospital_high.json")
        r = run(["abstract", "--scm", HOSP, "--clusters", HOSP_CM, "-o", out])
        assert r.exit_code == 0
        return out

    def _refused_on_load(self, high_path, tmp_path, edit, kind, low=INS,
                         context='{"parents": {"Z": "z1"}}'):
        """sample, verify against ``low`` and eval (which reads it as
        --scm) exit 2 with ``kind`` on the document ``edit`` makes of the
        one at ``high_path``."""
        with open(high_path) as fh:
            doc = json.load(fh)
        edit(doc)
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        for argv in (["sample", "--high", bad, "--value", "XH=xC",
                      "--context", context],
                     ["verify", "--scm", low, "--high", bad],
                     ["eval", "--scm", bad, "--query", "P(Y[XH=xC]=1)"]):
            r = run(argv)
            assert r.exit_code == 2, r.payload
            assert r.payload["error"]["kind"] == kind

    @pytest.mark.parametrize("delta", [[], "x", 3],
                             ids=["array", "string", "number"])
    def test_non_object_delta_exits_2(self, high_path, tmp_path, delta):
        self._refused_on_load(high_path, tmp_path,
                              lambda doc: doc.update(delta=delta),
                              "DomainMismatch")

    @pytest.mark.parametrize("label, probs, kind", [
        ("xC", ["1/2"], "DomainMismatch"),
        ("xC", ["1/2", "1/3"], "DomainMismatch"),
        ("xE", ["1/2", "1/2"], "DomainMismatch"),
        ("bogus", ["1/2", "1/2"], "UnknownHighValue"),
    ], ids=["too few", "sum", "other label", "unknown label"])
    def test_misfit_sigma_table_exits_2(self, high_path, tmp_path, label,
                                        probs, kind):
        """A sigma table must belong to a label of its split and give one
        probability per member tuple of that label, summing to 1."""

        def edit(doc):
            xh = next(e for e in doc["delta"]["splits"]
                      if e["cluster"] == "XH")
            xh["sigma"][0]["label"] = label
            xh["sigma"][0]["contexts"][0]["probs"] = probs

        self._refused_on_load(high_path, tmp_path, edit, kind)

    @pytest.mark.parametrize("parents", [["Q"], ["Z", "Z"], ["XH"]],
                             ids=["unknown", "repeated", "itself"])
    def test_misfit_split_parents_exit_2(self, high_path, tmp_path, parents):
        """A split's parents must be distinct other clusters of the model;
        an unknown one used to reach verify as a bare KeyError."""

        def edit(doc):
            next(e for e in doc["delta"]["splits"]
                 if e["cluster"] == "XH")["parents"] = parents

        self._refused_on_load(high_path, tmp_path, edit, "DomainMismatch")

    @pytest.mark.parametrize("where, context", [
        ("sigma", {"parents": ["zz"]}),
        ("sigma", {"parents": ["z1", "z2"]}),
        ("sigma", {"parents": [], "class": None}),
        ("sigma", {"class": 0}),
        ("cells", {"parents": ["zz"]}),
    ], ids=["unknown label", "two labels", "no label", "unknown class",
            "cell label"])
    def test_misfit_context_exits_2(self, high_path, tmp_path, where,
                                    context):
        """Each loaded context gives one known label per parent, in order,
        and a class of the split's shared noise (none here); an unknown
        label used to load, and verify passed."""

        def edit(doc):
            xh = next(e for e in doc["delta"]["splits"]
                      if e["cluster"] == "XH")
            xh[where][0]["contexts"][0].update(context)

        self._refused_on_load(high_path, tmp_path, edit, "DomainMismatch")

    def test_sigma_and_cell_contexts_differ_exits_2(self, high_path,
                                                    tmp_path):
        """A flagged split's cells have the contexts of its sigma tables.
        With the z2 table dropped, sample in context z2 used to exit 3,
        blaming the model, while verify passed."""

        def edit(doc):
            xh = next(e for e in doc["delta"]["splits"]
                      if e["cluster"] == "XH")
            contexts = xh["sigma"][0]["contexts"]
            contexts.remove(next(c for c in contexts
                                 if c["parents"] == ["z2"]))

        self._refused_on_load(high_path, tmp_path, edit, "DomainMismatch")
        with open(high_path) as fh:
            doc = json.load(fh)
        edit(doc)
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        r = run(["sample", "--high", bad, "--value", "XH=xC",
                 "--context", '{"parents": {"Z": "z2"}}'])
        assert r.exit_code == 2, r.payload

    @pytest.mark.parametrize("edit", [
        "label", "label order", "violator without block",
        "block without violator"])
    def test_misfit_labels_and_violator_exit_2(self, high_path, tmp_path,
                                               edit):
        """A split's labels are its model variable's domain, in order, and
        it is a violator exactly when it has a block. With XH's label xE
        renamed x, verify used to raise a bare KeyError while sample and
        eval exited 0."""

        def change(doc):
            splits = {e["cluster"]: e for e in doc["delta"]["splits"]}
            if edit == "label":
                splits["XH"]["values"][1]["label"] = "x"
            elif edit == "label order":
                splits["Z"]["values"].reverse()
            elif edit == "violator without block":
                splits["Z"]["violator"] = True
            else:
                splits["XH"]["violator"] = False

        self._refused_on_load(high_path, tmp_path, change, "DomainMismatch")

    @pytest.mark.parametrize("edit", [
        "short member", "unknown block", "wide values", "text class"])
    def test_misfit_shared_noise_exits_2(self, hospital_path, tmp_path,
                                         edit):
        """Each shared noise member is a (block, member) pair of the model,
        and the response classes give each joint value of their domains one
        integer class. The first three edits used to raise ValueError,
        TypeError or KeyError in verify or sample; class 0 renamed 'a'
        wherever it appears used to load."""

        def change(doc):
            xh = next(e for e in doc["delta"]["splits"]
                      if e["cluster"] == "XH")
            if edit == "short member":
                xh["rho_members"] = [["UZ"]]
            elif edit == "unknown block":
                xh["rho_members"] = [["UQ", "UZ"]]
            elif edit == "wide values":
                xh["rho_classes"][0]["values"] = ["z1", "z2"]
            else:
                for c in [*xh["rho_classes"], *(
                        c for item in xh["sigma"] + xh["cells"]
                        for c in item["contexts"])]:
                    if c["class"] == 0:
                        c["class"] = "a"

        self._refused_on_load(hospital_path, tmp_path, change,
                              "DomainMismatch", low=HOSP,
                              context='{"shared": {"UZ": "z1"}}')

    @pytest.mark.parametrize("edit", ["rename cells", "reorder block"])
    def test_cells_not_rebuilt_from_sigma_exit_2(self, high_path, tmp_path,
                                                 edit):
        """The cells and block of a flagged split are the ones its sigma
        tables give, named and ordered as the construction names and orders
        them. Renaming every cell member, or reordering the block's members,
        consistently across the block, the cells and the mechanisms used to
        load."""

        def change(doc):
            block = next(b for b in doc["blocks"] if b["name"] == "XH__u")
            if edit == "reorder block":
                block["members"].reverse()
                for row in block["table"]:
                    row["values"].reverse()
                return
            rename = {m["name"]: m["name"] + "x" for m in block["members"]}
            for m in block["members"]:
                m["name"] = rename[m["name"]]
            for mech in doc["mechanisms"]:
                for k in mech["exo_parents"]:
                    if k["block"] == "XH__u":
                        k["member"] = rename[k["member"]]
            for item in next(e for e in doc["delta"]["splits"]
                             if e["cluster"] == "XH")["cells"]:
                for c in item["contexts"]:
                    c["member"] = rename[c["member"]]

        self._refused_on_load(high_path, tmp_path, change, "DomainMismatch")


class TestProjectedDocumentEdits:
    """Every one-field edit of the delta that abstract writes is answered or
    refused: verify, sample and eval raise nothing and exit 0, 2, 3, 4 or
    5. The edits reach every key, and the first two items of each array."""

    @pytest.mark.parametrize("low, clusters, context", [
        (INS, INS_CM, '{"parents": {"Z": "z1"}}'),
        (HOSP, HOSP_CM, '{"shared": {"UZ": "z1"}}'),
    ], ids=["insurance", "hospital"])
    def test_edits_are_answered_or_refused(self, tmp_path, low, clusters,
                                           context):
        high = str(tmp_path / "high.json")
        assert run(["abstract", "--scm", low, "--clusters", clusters,
                    "-o", high]).exit_code == 0
        with open(high) as fh:
            text = fh.read()
        bad = str(tmp_path / "bad.json")
        failures = []
        for path, edit, doc in one_field_edits(text, ("delta",)):
            with open(bad, "w") as fh:
                # json.dumps runs the C encoder, json.dump the Python one
                fh.write(json.dumps(doc))
            for argv in (["verify", "--scm", low, "--high", bad],
                         ["sample", "--high", bad, "--value", "XH=xC",
                          "--context", context],
                         ["eval", "--scm", bad, "--query", "P(Y[XH=xC]=1)"]):
                try:
                    code = run(argv).exit_code
                except Exception as exc:  # reported below, edit by edit
                    code = repr(exc)
                if code not in (0, 2, 3, 4, 5):
                    failures.append((path, edit, argv[0], code))
        assert not failures, failures

    @pytest.mark.parametrize("label, tuple_", [
        ("xC", ["x1", "x9"]), ("xE", []), ("xE", ["x1"])],
        ids=["long", "empty", "two-labels"])
    def test_misshapen_member_tuples_are_refused(self, tmp_path, label,
                                                 tuple_):
        """A member tuple of XH's split (members ["X"]) with the wrong
        number of entries, or listed under two labels, is refused by every
        command that loads the document, not only by verify."""
        high = str(tmp_path / "high.json")
        assert run(["abstract", "--scm", INS, "--clusters", INS_CM,
                    "-o", high]).exit_code == 0
        with open(high) as fh:
            doc = json.load(fh)
        split, = [s for s in doc["delta"]["splits"] if s["cluster"] == "XH"]
        value, = [v for v in split["values"] if v["label"] == label]
        value["tuples"][0] = tuple_
        with open(high, "w") as fh:
            json.dump(doc, fh)
        for argv in (["verify", "--scm", INS, "--high", high],
                     ["sample", "--high", high, "--value", "XH=xC",
                      "--context", '{"parents": {"Z": "z1"}}'],
                     ["eval", "--scm", high, "--query", "P(Y[~XH=xC]=1)"]):
            r = run(argv)
            assert r.exit_code == 2
            assert r.payload["error"]["kind"] == "DomainMismatch"
            assert "member tuple of split 'XH'" in \
                r.payload["error"]["message"]


class TestCdag:
    def test_plain(self):
        r = run(["cdag", "--scm", INS, "--clusters", INS_CM])
        assert r.exit_code == 0
        assert ["Z", "XH"] in r.payload["directed"]
        assert ["Z", "Y"] not in r.payload["directed"]
        assert "digraph" in r.payload["dot"]

    def test_projected(self):
        r = run(["cdag", "--scm", INS, "--clusters", INS_CM, "--project"])
        assert ["Z", "Y"] in r.payload["directed"]
        assert r.payload["violators"] == ["XH"]


class TestIdentify:
    def test_from_model_and_clusters(self):
        r = run(["identify", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xC]=1)"])
        assert r.exit_code == 0
        assert r.payload["identifiable"] is True
        assert r.payload["estimand"] == \
            "sum_z[ P(Z=z) * P(Y=1|Z=z,XH=xC) ]"

    def test_from_graph_file(self, tmp_path):
        path = str(tmp_path / "bow.json")
        ab.save_graph(ab.make_graph(("X", "Y"), (("X", "Y"),),
                                    (("X", "Y"),)), path)
        r = run(["identify", "--graph", path, "--query", "P(Y[X=1]=1)"])
        assert r.exit_code == 5
        assert r.payload["identifiable"] is False
        assert r.payload["witness"]

    @pytest.fixture()
    def chain_path(self, tmp_path):
        path = str(tmp_path / "chain.json")
        ab.save_graph(ab.make_graph(
            ("V1", "V2", "V3", "V4"),
            (("V1", "V2"), ("V2", "V3"), ("V3", "V4")), ()), path)
        return path

    @pytest.mark.parametrize("query", [
        "P(V4[V1=1]=1)", "P(V4[V1=1]=1 | V2[V1=1]=1)", "P(V4[~V1=1]=1)"])
    def test_graph_identifiable(self, chain_path, query):
        r = run(["identify", "--graph", chain_path, "--query", query])
        assert r.exit_code == 0
        assert r.payload["identifiable"] is True

    @pytest.mark.parametrize("query, code, kind", [
        ("P(V4[V1=1]=1, V4[V1=0]=0)", 3, "UnsupportedData"),
        ("P(V4[V1=1]=1 | V2[V1=0]=1)", 3, "UnsupportedData"),
        ("P(V4[V1=1]=1 | V2=1)", 3, "UnsupportedData"),
        ("P(V9[V1=1]=1)", 2, "UnknownVariable"),
        ("P(V4[V9=1]=1)", 2, "UnknownVariable"),
    ])
    def test_graph_rejections(self, chain_path, query, code, kind):
        r = run(["identify", "--graph", chain_path, "--query", query])
        assert r.exit_code == code
        assert r.payload["error"]["kind"] == kind

    @pytest.mark.parametrize("doc", [
        {"nodes": ["X", "Y"], "directed": [["X"]]},
        {"nodes": [["X"]]},
        {"nodes": [{"name": "X"}]},
    ])
    def test_malformed_graph_rejections(self, tmp_path, doc):
        """An edge that is not a pair, or a node that is an array or an
        object, is bad input (exit 2)."""
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        r = run(["identify", "--graph", str(path), "--query", "P(Y[X=1]=1)"])
        assert r.exit_code == 2
        assert r.payload["error"]["kind"] == "DomainMismatch"

    def test_needs_inputs(self):
        r = run(["identify", "--query", "P(Y[X=1]=1)"])
        assert r.exit_code == 2


class TestEstimate:
    def test_end_to_end(self):
        r = run(["estimate", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xC]=1)"])
        assert r.exit_code == 0
        assert r.payload["rational"] == "149/250"
        assert r.payload["estimand"] == \
            "sum_z[ P(Z=z) * P(Y=1|Z=z,XH=xC) ]"

    def test_non_identifiable_exit(self):
        r = run(["estimate",
                 "--scm", fixture_path("hospital.json"),
                 "--clusters", fixture_path("hospital_clusters.json"),
                 "--query", "P(Y[XH=xC]=1)"])
        assert r.exit_code == 5
        assert r.payload["identifiable"] is False

    @pytest.mark.parametrize("option", [["--policy", "general"],
                                        ["--sigma-fallback", "uniform"]])
    def test_takes_no_reference_options(self, option):
        """estimate reads the observational table only, never a reference
        table, so it takes no policy or fallback."""
        r = run(["estimate", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xC]=1)"] + option)
        assert r.exit_code == 2


class TestProjectedGraphAgreement:
    """identify, estimate and cdag --project read one cluster diagram: the
    one of the model with the unclustered variables projected away."""

    @pytest.fixture()
    def paths(self, tmp_path):
        model, clusters = noiseless_mediator_docs()
        out = []
        for name, doc in (("model.json", model), ("clusters.json", clusters)):
            out.append(str(tmp_path / name))
            with open(out[-1], "w") as fh:
                json.dump(doc, fh)
        return out

    def test_identify_matches_estimate(self, paths):
        scm_path, cm_path = paths
        args = ["--scm", scm_path, "--clusters", cm_path,
                "--query", "P(Y[X=1]=1)"]
        ident = run(["identify", *args])
        est = run(["estimate", *args])
        value = run(["eval", *args])
        assert ident.exit_code == est.exit_code == 0
        assert ident.payload["estimand"] == est.payload["estimand"]
        assert est.payload["rational"] == value.payload["rational"] == "1/2"

    @pytest.mark.parametrize("flags", [[], ["--project"]],
                             ids=["plain", "project"])
    def test_cdag_has_no_spurious_confounding(self, paths, flags):
        scm_path, cm_path = paths
        r = run(["cdag", *flags, "--scm", scm_path, "--clusters", cm_path])
        assert r.exit_code == 0
        assert r.payload["bidirected"] == []


class TestParserReuse:
    CALLS = [
        ["eval", "--scm", INS, "--query", "P(Y[X=x1]=1)"],
        ["eval", "--scm", INS],
        ["cdag", "--project", "--scm", INS, "--clusters", INS_CM],
        ["eval", "--scm", INS, "--query", "P(Y[X=x2]=1)", "--budget", "5"],
        ["validate", "--scm", INS],
        ["eval", "--scm", INS, "--query", "P(Y[X=x1]=1)"],
    ]

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_reference_choices_come_from_projection(self):
        sub = next(a for a in _build_parser()._actions
                   if a.dest == "command")
        for name in ("eval", "abstract"):
            choices = {a.dest: a.choices for a in sub.choices[name]._actions}
            assert choices["policy"] is projection.POLICIES
            assert choices["sigma_fallback"] is projection.FALLBACKS

    def test_cached_parser_keeps_no_state(self):
        cached = [run(list(argv)) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            _build_parser.cache_clear()
            fresh.append(run(list(argv)))
        assert [r.exit_code for r in cached] == [0, 2, 0, 4, 0, 0]
        assert [(r.exit_code, r.payload) for r in cached] == \
            [(r.exit_code, r.payload) for r in fresh]


class TestEntryPoint:
    @pytest.fixture(autouse=True)
    def src_on_path(self, monkeypatch):
        """``python -m abstrakt.cli`` runs in a fresh interpreter, which the
        pytest ``pythonpath`` setting does not reach."""
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    def test_json_output_and_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abstrakt.cli", "eval",
             "--scm", INS, "--query", "P(Y[X=x2]=1)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["rational"] == "1/10"

    def test_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abstrakt.cli", "eval",
             "--scm", INS, "--query", "P(Y[=1)"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_closed_stdout(self):
        """A reader that goes away early gets no traceback on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "abstrakt.cli", "estimate",
                 "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xC]=1)"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""
