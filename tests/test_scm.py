"""Model documents: parsing, validation, round trips, unit evaluation."""

import copy
import dataclasses
import json
from fractions import Fraction
from itertools import product

import pytest

import abstrakt as ab
from abstrakt.projection import FALLBACKS, POLICIES
from conftest import fixture_path


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
