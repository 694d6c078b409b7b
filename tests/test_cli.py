"""Command-line surface: payloads, exit codes, and the JSON output mode."""

import json
import subprocess
import sys

import pytest

import abstrakt as ab
from abstrakt.cli import parse_query, run
from conftest import context_after_target_docs, fixture_path

INS = fixture_path("insurance.json")
INS_CM = fixture_path("insurance_clusters.json")


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

    def test_singleton_label_is_hard(self):
        r = run(["eval", "--scm", INS, "--clusters", INS_CM,
                 "--query", "P(Y[XH=xE]=1)"])
        assert r.payload["rational"] == "9/10"

    def test_budget_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y=1)", "--budget", "5"])
        assert r.exit_code == 4
        assert r.payload["error"]["kind"] == "SizeExceeded"

    def test_syntax_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(Y[=1)"])
        assert r.exit_code == 2

    def test_unknown_variable_exit(self):
        r = run(["eval", "--scm", INS, "--query", "P(W=1)"])
        assert r.exit_code == 2


class TestAicCheck:
    def test_violators(self):
        r = run(["aic-check", "--scm", INS, "--clusters", INS_CM])
        assert r.exit_code == 0
        assert r.payload["violators"] == ["XH"]
        w = r.payload["witnesses"]["XH"]
        assert w["child"] == "Y"
        assert sorted([w["left"], w["right"]]) == [["x1"], ["x2"]]


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
        assert r.payload["rational"] == "149/250"

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

    def test_sample_unknown_label(self, high_path):
        r = run(["sample", "--high", high_path, "--value", "XH=bogus"])
        assert r.exit_code == 2


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


class TestEntryPoint:
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
