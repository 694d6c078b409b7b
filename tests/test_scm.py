"""Model documents: parsing, validation, round trips, unit evaluation."""

import copy
import dataclasses
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem

import pytest

import abstrakt as ab
from abstrakt.cli import run
from abstrakt.projection import FALLBACKS, POLICIES
from conftest import (build_lossy_chain, fixture_path, one_field_edits,
                      pixel_docs, reference_validate_clusters,
                      reference_validate_scm)


def insurance_doc():
    with open(fixture_path("insurance.json")) as fh:
        return json.load(fh)


class TestProbabilityParsing:
    def test_fraction_strings(self):
        assert ab.parse_probability("7/10") == Fraction(7, 10)
        assert ab.parse_probability("0") == 0
        assert ab.parse_probability("1") == 1

    def test_decimal_strings_stay_exact(self):
        assert ab.parse_probability("0.7") == Fraction(7, 10)
        assert ab.parse_probability("0.125") == Fraction(1, 8)

    def test_floats_are_rejected(self):
        with pytest.raises(ab.DomainMismatch):
            ab.parse_probability(0.7)

    def test_negative_rejected(self):
        with pytest.raises(ab.NonNormalizedBlock):
            ab.parse_probability("-1/2")

    @pytest.mark.parametrize("raw", [
        "7/10", "0", "00/01", "3/2", "1/0", "0/0", "7/", "/3", " 7/10",
        "1 / 2", "+1/2", "1_0/20", "1e-2", "\u0663/\u0664", "\uff11/\uff12",
        "\u00b2", "1/\u00b2", "1" * 5000, "1/" + "1" * 5000])
    def test_strings_parse_as_fraction_does(self, raw):
        """Digits over digits skip Fraction's pattern match, and every
        string still reads as Fraction(raw) or is refused with exit 2."""
        try:
            want = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ab.DomainMismatch,
                               match="cannot parse probability"):
                ab.parse_probability(raw)
        else:
            assert ab.parse_probability(raw) == want


class TestValidation:
    def test_loads_insurance(self, insurance):
        assert [v.name for v in insurance.endogenous] == ["Z", "X", "Y"]
        assert insurance.domain("X") == ("x1", "x2", "x3")
        assert [b.name for b in insurance.blocks] == [
            "UZ", "UX1", "UX2", "UY1", "UY2", "UY3"]
        assert insurance.exogenous_support_size() == 144

    def test_block_must_normalize(self):
        doc = insurance_doc()
        doc["blocks"][0]["table"][0]["p"] = "6/10"
        with pytest.raises(ab.NonNormalizedBlock):
            ab.validate_scm(doc)

    def test_mechanism_must_be_total(self):
        doc = insurance_doc()
        del doc["mechanisms"][0]["table"][0]
        with pytest.raises(ab.PartialMechanism):
            ab.validate_scm(doc)

    def test_mechanism_output_must_be_in_domain(self):
        doc = insurance_doc()
        doc["mechanisms"][0]["table"][0]["out"] = "z9"
        with pytest.raises(ab.DomainMismatch):
            ab.validate_scm(doc)

    def test_unknown_parent(self):
        doc = insurance_doc()
        doc["mechanisms"][1]["endo_parents"] = ["W"]
        with pytest.raises(ab.DomainMismatch):
            ab.validate_scm(doc)

    def test_cycle_detected(self):
        doc = insurance_doc()
        # X depends on Z; make Z depend on X as well
        doc["mechanisms"][0]["endo_parents"] = ["X"]
        rows = []
        for x in ("x1", "x2", "x3"):
            for uz in ("z1", "z2"):
                rows.append({"parents": [x, uz], "out": uz})
        doc["mechanisms"][0]["table"] = rows
        with pytest.raises(ab.CyclicDependencies):
            ab.validate_scm(doc)


class TestDiagram:
    def test_insurance_edges(self, insurance):
        d = ab.induce_diagram(insurance)
        assert set(d.directed) == {("Z", "X"), ("X", "Y")}
        assert d.bidirected == ()

    def test_shared_block_becomes_bidirected(self, hospital):
        d = ab.induce_diagram(hospital)
        assert set(d.directed) == {("X", "Y")}
        assert set(d.bidirected) == {("Z", "X")}

    def test_topological_order(self, insurance):
        assert ab.topological_order(ab.induce_diagram(insurance)) == [
            "Z", "X", "Y"]


class TestRoundTrip:
    def test_doc_round_trip_preserves_semantics(self, insurance):
        doc = ab.scm_to_doc(insurance)
        again = ab.validate_scm(copy.deepcopy(doc))
        q = ab.CounterfactualQuery(terms=(ab.QueryTerm(
            outcomes=(ab.OutcomeAtom(("Y",), frozenset({(1,)})),)),))
        assert ab.prob_query(again, q) == ab.prob_query(insurance, q)
        assert again.exogenous_support_size() == 144

    def test_save_and_load(self, insurance, tmp_path):
        path = str(tmp_path / "model.json")
        ab.save_scm(insurance, path)
        again = ab.load_scm(path)
        assert [v.name for v in again.endogenous] == ["Z", "X", "Y"]


FIXTURES = ["insurance", "cholesterol", "hospital"]


def fixture_model(name):
    low = ab.load_scm(fixture_path(name + ".json"))
    return low, ab.load_clusters(low, fixture_path(name + "_clusters.json"))


class TestSavedFiles:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_bytes_match_compact_dump(self, name, tmp_path):
        """Each saver writes one line: its document dumped with no spaces
        after the separators, and a final newline."""
        low, cm = fixture_model(name)
        high = ab.construct_projected_abstraction(low, cm)
        cdag = ab.build_cdag(ab.induce_diagram(low), cm)
        for save, obj, doc in (
                (ab.save_scm, low, ab.scm_to_doc(low)),
                (ab.save_high, high, ab.high_to_doc(high)),
                (ab.save_graph, cdag, ab.graph_to_doc(cdag))):
            path = tmp_path / (save.__name__ + ".json")
            save(obj, str(path))
            assert path.read_text(encoding="utf-8") == json.dumps(
                doc, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("name", FIXTURES)
    def test_saving_a_loaded_file_again_keeps_its_bytes(self, name,
                                                        tmp_path):
        low, cm = fixture_model(name)
        report = ab.check_aic(low, cm)
        cdag = ab.build_cdag(ab.induce_diagram(report.scm), cm)
        saved = [(ab.save_scm, ab.load_scm, low),
                 (ab.save_graph, ab.load_graph, cdag),
                 (ab.save_graph, ab.load_graph,
                  ab.build_projected_cdag(cdag, report.violators))]
        saved += [(ab.save_high, ab.load_high,
                   ab.construct_projected_abstraction(
                       low, cm, policy=policy, fallback=fallback))
                  for policy in POLICIES for fallback in (None, *FALLBACKS)]
        for i, (save, load, obj) in enumerate(saved):
            first = tmp_path / ("%d.json" % i)
            again = tmp_path / ("%d_again.json" % i)
            save(obj, str(first))
            save(load(str(first)), str(again))
            assert again.read_bytes() == first.read_bytes(), save.__name__

    @pytest.mark.parametrize("name", FIXTURES)
    def test_mechanism_rows_in_parent_domain_order(self, name, tmp_path):
        """Rows come in the product order of the parents' domains, also
        where a domain is not declared in sorted order, so a model whose
        tables were filled in reverse saves the same bytes."""
        low, cm = fixture_model(name)
        doc = ab.scm_to_doc(low)
        for v in doc["endogenous"]:
            v["domain"].reverse()
        for model in (low, ab.construct_projected_abstraction(low, cm).scm,
                      ab.validate_scm(doc)):
            for entry in ab.scm_to_doc(model)["mechanisms"]:
                mech = model.mechanisms[entry["variable"]]
                assert [tuple(row["parents"]) for row in entry["table"]] == \
                    list(product(
                        *(model.domain(p) for p in mech.endo_parents),
                        *(model.member_index[k].domain
                          for k in mech.exo_parents)))
            backwards = ab.DiscreteScm(model.endogenous, model.blocks, {
                var: dataclasses.replace(
                    mech, table=dict(reversed(mech.table.items())))
                for var, mech in model.mechanisms.items()})
            ab.save_scm(model, str(tmp_path / "model.json"))
            ab.save_scm(backwards, str(tmp_path / "backwards.json"))
            assert (tmp_path / "backwards.json").read_bytes() == \
                (tmp_path / "model.json").read_bytes()


def cluster_doc(cm):
    return {"clusters": [
        {"name": c.name, "members": list(c.members),
         "values": [{"label": cv.label, "tuples": [list(t) for t in cv.tuples]}
                    for cv in c.values]}
        for c in cm.clusters]}


def reader_documents():
    """(name, model document, cluster document) of the three fixtures, a
    plain and a confounded lossy chain and two pixel models."""
    docs = []
    for name in FIXTURES:
        with open(fixture_path(name + ".json")) as fh:
            model = json.load(fh)
        with open(fixture_path(name + "_clusters.json")) as fh:
            docs.append((name, model, json.load(fh)))
    for confounded in (False, True):
        low, cm = build_lossy_chain(random.Random(0), confounded=confounded)
        docs.append(("chain%d" % confounded, ab.scm_to_doc(low),
                     cluster_doc(cm)))
    for variant in ("copy", "majority"):
        docs.append((variant, *pixel_docs(2, 3, variant)))
    return docs


# the fixtures and the plain chain come first
READER_DOCUMENTS = reader_documents()


def read(reader, *args):
    """What a reader gives: its result, or the class, message and details
    of the error it raises."""
    try:
        return reader(*args)
    except ab.AbstraktError as exc:
        return type(exc), str(exc), exc.details


class TestReaderParity:
    """The library's readers against the references in conftest, which
    check one condition at a time in document order."""

    @pytest.mark.parametrize("name, model, clusters", READER_DOCUMENTS,
                             ids=[d[0] for d in READER_DOCUMENTS])
    def test_documents_read_alike(self, name, model, clusters):
        low = ab.validate_scm(copy.deepcopy(model))
        assert low == reference_validate_scm(copy.deepcopy(model))
        assert ab.validate_clusters(low, clusters) == \
            reference_validate_clusters(low, clusters)
        for policy in POLICIES:
            doc = ab.high_to_doc(ab.construct_projected_abstraction(
                low, ab.validate_clusters(low, clusters), policy=policy))
            del doc["delta"]
            assert ab.validate_scm(doc) == reference_validate_scm(doc)

    # (document, key path of a table, {index: new row}) on insurance; an
    # index one past the end appends a row
    ROW_EDITS = {
        "bool entries equal to 0 and 1": (
            "model", ("mechanisms", 2, "table"),
            {1: {"parents": ["x1", False, False, True], "out": False}}),
        "float entry equal to 1": (
            "model", ("blocks", 3, "table"), {0: {"values": [1.0],
                                                  "p": "9/10"}}),
        "tuple entries": (
            "model", ("blocks", 3, "table"), {0: {"values": (1,),
                                                  "p": "9/10"}}),
        "string entries": (
            "model", ("mechanisms", 0, "table"), {0: {"parents": "z",
                                                      "out": "z1"}}),
        "object entries whose keys fit": (
            "model", ("blocks", 0, "table"), {0: {"values": {"z1": 0},
                                                  "p": "7/10"}}),
        "array output": (
            "model", ("mechanisms", 1, "table"),
            {0: {"parents": ["z1", "x1", "x1"], "out": []}}),
        "unhashable output after a bad entry": (
            "model", ("mechanisms", 1, "table"),
            {0: {"parents": ["z9", "x1", "x1"], "out": {}}}),
        "unhashable entry in a short key": (
            "model", ("mechanisms", 1, "table"), {0: {"parents": [[]],
                                                      "out": "x1"}}),
        "missing p in a repeated row": (
            "model", ("blocks", 1, "table"), {1: {"values": ["x1"]}}),
        "missing out in a short key": (
            "model", ("mechanisms", 1, "table"), {1: {"parents": ["z1"]}}),
        "repeated row": (
            "model", ("mechanisms", 0, "table"), {1: {"parents": ["z1"],
                                                      "out": "z2"}}),
        "repeated row with an output outside the domain": (
            "model", ("mechanisms", 0, "table"), {1: {"parents": ["z1"],
                                                      "out": "z9"}}),
        "integer p": (
            "model", ("blocks", 0, "table"), {0: {"values": ["z1"], "p": 1}}),
        "float p": (
            "model", ("blocks", 0, "table"), {0: {"values": ["z1"],
                                                  "p": 0.5}}),
        "integer p, then an equal bool": (
            "model", ("blocks", 0, "table"),
            {0: {"values": ["z1"], "p": 1}, 1: {"values": ["z2"], "p": True}}),
        "integer p, then an equal float": (
            "model", ("blocks", 0, "table"),
            {0: {"values": ["z1"], "p": 0}, 1: {"values": ["z2"], "p": 0.0}}),
        "decimal p that sums to 1": (
            "model", ("blocks", 0, "table"), {0: {"values": ["z1"],
                                                  "p": "0.70"}}),
        "p that sums past 1": (
            "model", ("blocks", 0, "table"), {0: {"values": ["z1"],
                                                  "p": "4/5"}}),
        "bool tuple entry equal to 0": (
            "clusters", ("clusters", 2, "values", 0, "tuples"), {0: [False]}),
        "tuple as an object whose keys fit": (
            "clusters", ("clusters", 1, "values", 1, "tuples"), {0: {"x3": 0}}),
        "tuple listed twice under one label": (
            "clusters", ("clusters", 1, "values", 1, "tuples"), {1: ["x3"]}),
        "tuple listed under two labels": (
            "clusters", ("clusters", 1, "values", 1, "tuples"), {1: ["x1"]}),
    }

    @pytest.mark.parametrize("edit", ROW_EDITS, ids=list(ROW_EDITS))
    def test_row_edits_read_alike(self, insurance, edit):
        """Rows that a one-test check could misjudge: entries equal to a
        domain value without being one, arrays that are not lists, rows
        with several faults, repeated rows and probabilities that are not
        fraction strings."""
        kind, path, rows = self.ROW_EDITS[edit]
        with open(fixture_path("insurance%s.json" % (
                "" if kind == "model" else "_clusters"))) as fh:
            doc = json.load(fh)
        table = reduce(getitem, path, doc)
        for i, row in rows.items():
            table[i:i + 1] = [row]
        if kind == "model":
            assert read(ab.validate_scm, doc) == \
                read(reference_validate_scm, doc)
        else:
            assert read(ab.validate_clusters, insurance, doc) == \
                read(reference_validate_clusters, insurance, doc)

    def test_names_with_percent_signs(self):
        """Error text is formatted only on a refusal, and a name that holds
        a format directive stays a name there: a model, a cluster map and
        a projected document whose names hold % read as before, and a
        refusal names them."""
        text = json.dumps(insurance_doc()).replace('"Z"', '"Z%s"').replace(
            '"UZ"', '"U%d"')
        with open(fixture_path("insurance_clusters.json")) as fh:
            clusters = json.loads(fh.read().replace('"Z"', '"Z%s"'))
        low = ab.validate_scm(json.loads(text))
        assert low == reference_validate_scm(json.loads(text))
        cm = ab.validate_clusters(low, clusters)
        assert cm == reference_validate_clusters(low, clusters)
        high = ab.construct_projected_abstraction(low, cm)
        again = ab.high_from_doc(json.loads(json.dumps(ab.high_to_doc(high))))
        assert again.scm == high.scm and again.splits == high.splits
        for path, key in ((("blocks", 0, "members", 0), "domain"),
                          (("mechanisms", 0, "table", 0), "out"),
                          (("endogenous", 0), "domain")):
            doc = json.loads(text)
            del reduce(getitem, path, doc)[key]
            got = read(ab.validate_scm, doc)
            assert got == read(reference_validate_scm, doc)
            assert "'U%d'" in got[1] or "'Z%s'" in got[1]
        doc = ab.high_to_doc(high)
        del doc["delta"]["splits"][0]["members"]
        with pytest.raises(ab.DomainMismatch,
                           match="missing 'members' in split 'Z%s'"):
            ab.high_from_doc(doc)

    @pytest.mark.parametrize("name, model, clusters", READER_DOCUMENTS[:4],
                             ids=[d[0] for d in READER_DOCUMENTS[:4]])
    def test_one_field_edits_read_alike(self, name, model, clusters,
                                        tmp_path):
        """Every one-field edit of the model or cluster document of a
        fixture or the plain lossy chain is accepted by both readers, into
        equal models, or refused by both with the same error; validate
        answers each edit and exits 2 on a refusal."""
        low = ab.validate_scm(copy.deepcopy(model))
        paths = {"model": str(tmp_path / "model.json"),
                 "clusters": str(tmp_path / "clusters.json")}
        for kind, doc in (("model", model), ("clusters", clusters)):
            with open(paths[kind], "w") as fh:
                json.dump(doc, fh)
        bad = str(tmp_path / "bad.json")
        failures = []
        for kind, doc in (("model", model), ("clusters", clusters)):
            readers = (
                (ab.validate_scm, reference_validate_scm) if kind == "model"
                else (lambda d: ab.validate_clusters(low, d),
                      lambda d: reference_validate_clusters(low, d)))
            text = json.dumps(doc)
            for path, edit, edited in one_field_edits(text):
                got, want = (read(reader, copy.deepcopy(edited))
                             for reader in readers)
                if got != want:
                    failures.append((kind, path, edit, got, want))
                with open(bad, "w") as fh:
                    json.dump(edited, fh)
                argv = ["validate", "--scm", paths["model"],
                        "--clusters", paths["clusters"]]
                argv[argv.index(paths[kind])] = bad
                try:
                    code = run(argv).exit_code
                except Exception as exc:  # reported below, edit by edit
                    code = repr(exc)
                # an edited model may no longer fit the cluster map
                allowed = ((2,) if isinstance(want, tuple) else
                           (0,) if kind == "clusters" else (0, 2))
                if code not in allowed:
                    failures.append((kind, path, edit, "validate", code))
        assert not failures, failures[:10]


class TestUnitEvaluation:
    UNIT = {("UZ", "UZ"): "z1", ("UX1", "UX1"): "x2", ("UX2", "UX2"): "x3",
            ("UY1", "UY1"): 1, ("UY2", "UY2"): 0, ("UY3", "UY3"): 1}

    def test_plain_world(self, insurance):
        world = ab.evaluate_unit(insurance, dict(self.UNIT))
        assert world == {"Z": "z1", "X": "x2", "Y": 0}

    def test_intervened_world(self, insurance):
        world = ab.evaluate_unit(insurance, dict(self.UNIT),
                                 hard={"X": "x3"})
        assert world == {"Z": "z1", "X": "x3", "Y": 1}

    def test_bare_member_names_accepted(self, insurance):
        unit = {"%s" % k[1]: v for k, v in self.UNIT.items()}
        assert ab.evaluate_unit(insurance, unit)["Y"] == 0

    def test_incomplete_unit_rejected(self, insurance):
        unit = dict(self.UNIT)
        del unit[("UY2", "UY2")]
        with pytest.raises(ab.IncompleteAssignment):
            ab.evaluate_unit(insurance, unit)

    def test_out_of_domain_value_rejected(self, insurance):
        unit = dict(self.UNIT)
        unit[("UZ", "UZ")] = "z9"
        with pytest.raises(ab.DomainMismatch):
            ab.evaluate_unit(insurance, unit)
