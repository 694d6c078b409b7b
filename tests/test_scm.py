"""Model documents: parsing, validation, round trips, unit evaluation."""

import copy
import io
import json
from fractions import Fraction

import pytest

import abstrakt as ab
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


class TestSavedFiles:
    @pytest.mark.parametrize("name", ["insurance", "cholesterol", "hospital"])
    def test_bytes_match_streamed_dump(self, name, tmp_path):
        """Each saver writes exactly what json.dump with indent 2 and a
        trailing newline streams."""
        low = ab.load_scm(fixture_path(name + ".json"))
        cm = ab.load_clusters(low, fixture_path(name + "_clusters.json"))
        high = ab.construct_projected_abstraction(low, cm)
        cdag = ab.build_cdag(ab.induce_diagram(low), cm)
        for save, obj, doc in (
                (ab.save_scm, low, ab.scm_to_doc(low)),
                (ab.save_high, high, ab.high_to_doc(high)),
                (ab.save_graph, cdag, ab.graph_to_doc(cdag))):
            path = tmp_path / (save.__name__ + ".json")
            save(obj, str(path))
            streamed = io.StringIO()
            json.dump(doc, streamed, indent=2)
            streamed.write("\n")
            assert path.read_text(encoding="utf-8") == streamed.getvalue()


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
