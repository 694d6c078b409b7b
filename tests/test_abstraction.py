"""Cluster maps, the invariance check, and query translation."""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import abstrakt as ab
from abstrakt import valuation
from abstrakt.scm import DiscreteScm
from conftest import (atom, binary_block, build_lossy_chain,
                      build_pixel_model, cluster_map_cases,
                      constant_soft_intervention, fixture_path,
                      identity_clusters, reference_check_aic, term, query)


def insurance_cluster_doc():
    with open(fixture_path("insurance_clusters.json")) as fh:
        return json.load(fh)


class TestClusterValidation:
    def test_loads(self, insurance_cm):
        assert [c.name for c in insurance_cm.clusters] == ["Z", "XH", "Y"]
        xh = insurance_cm.cluster("XH")
        assert xh.members == ("X",)
        assert [cv.label for cv in xh.values] == ["xC", "xE"]
        assert xh.fiber("xC") == (("x1",), ("x2",))

    def test_member_in_two_clusters(self, insurance):
        doc = insurance_cluster_doc()
        doc["clusters"][1]["members"] = ["X", "Z"]
        with pytest.raises(ab.AbstraktError):
            ab.validate_clusters(insurance, doc)

    def test_value_partition_must_cover(self, insurance):
        doc = insurance_cluster_doc()
        doc["clusters"][1]["values"][0]["tuples"] = [["x1"]]  # drops x2
        with pytest.raises(ab.IncompleteValuePartition):
            ab.validate_clusters(insurance, doc)

    def test_value_partition_must_not_overlap(self, insurance):
        doc = insurance_cluster_doc()
        doc["clusters"][1]["values"][1]["tuples"] = [["x3"], ["x1"]]
        with pytest.raises(ab.AbstraktError):
            ab.validate_clusters(insurance, doc)

    def test_cyclic_contraction_rejected(self, insurance):
        doc = {"clusters": [
            {"name": "ZY", "members": ["Z", "Y"], "values": [
                {"label": t, "tuples": [list(t)]}
                for t in [("z1", 0), ("z1", 1), ("z2", 0), ("z2", 1)]]},
            {"name": "X", "members": ["X"], "values": [
                {"label": x, "tuples": [[x]]} for x in ("x1", "x2", "x3")]},
        ]}
        with pytest.raises(ab.InadmissibleClustering):
            ab.validate_clusters(insurance, doc)

    def test_unlisted_variables_are_excluded(self, insurance):
        doc = {"clusters": [insurance_cluster_doc()["clusters"][1],
                            insurance_cluster_doc()["clusters"][2]]}
        cm = ab.validate_clusters(insurance, doc)
        assert cm.excluded == ("Z",)


def assert_witnesses_replay(scm, cm):
    """Every witness of the consistency check re-solves to its outputs:
    the child cluster, solved on the witness's full unit with the other
    parents' members fixed and the parent's members set to ``left`` (or
    ``right``), shows the two different labels the witness reports."""
    rep = ab.check_aic(scm, cm)
    assert set(rep.witnesses) == set(rep.violators)
    for name, w in rep.witnesses.items():
        parent, child = cm.cluster(name), cm.cluster(w.child)
        assert {w.left, w.right} <= set(parent.fiber(w.label))
        assert valuation.normalize_unit(rep.scm, w.unit) == w.unit
        outputs = []
        for raw in (w.left, w.right):
            env = rep.scm.solve(w.unit, {**w.others,
                                         **dict(zip(parent.members, raw))})
            outputs.append(child.label_of(tuple(env[m] for m in
                                                child.members)))
        assert tuple(outputs) == w.outputs
        assert outputs[0] != outputs[1]
    return rep


def unordered_blocks_model():
    """A -> C, where C reads UC2 before UC1 though UC1 is declared first.
    A's values 0 and 1 share the label lo, and C shows A=1 only when its
    two noise bits differ."""
    model = ab.validate_scm({
        "endogenous": [{"name": "A", "domain": [0, 1, 2]},
                       {"name": "C", "domain": [0, 1]}],
        "blocks": [
            {"name": "UA", "members": [{"name": "u", "domain": [0, 1, 2]}],
             "table": [{"values": [a], "p": "1/3"} for a in (0, 1, 2)]},
            binary_block("UC1", Fraction(1, 2)),
            binary_block("UC2", Fraction(1, 2)),
        ],
        "mechanisms": [
            {"variable": "A", "endo_parents": [],
             "exo_parents": [{"block": "UA", "member": "u"}],
             "table": [{"parents": [a], "out": a} for a in (0, 1, 2)]},
            {"variable": "C", "endo_parents": ["A"],
             "exo_parents": [{"block": "UC2", "member": "u"},
                             {"block": "UC1", "member": "u"}],
             "table": [{"parents": [a, u2, u1],
                        "out": int(a == 1 and u1 != u2)}
                       for a in (0, 1, 2) for u2 in (0, 1)
                       for u1 in (0, 1)]},
        ],
    })
    cm = ab.validate_clusters(model, {"clusters": [
        {"name": "AH", "members": ["A"], "values": [
            {"label": "lo", "tuples": [[0], [1]]},
            {"label": "hi", "tuples": [[2]]}]},
        {"name": "C", "members": ["C"], "values": [
            {"label": 0, "tuples": [[0]]},
            {"label": 1, "tuples": [[1]]}]},
    ]})
    return model, cm


class TestWitnessesReplay:
    @pytest.mark.parametrize("name", ["insurance", "cholesterol", "hospital"])
    def test_fixtures(self, name):
        model = ab.load_scm(fixture_path(name + ".json"))
        assert_witnesses_replay(model, ab.load_clusters(
            model, fixture_path(name + "_clusters.json")))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), confounded=st.booleans(),
           p_a=st.sampled_from([None, 0, 1]))
    def test_lossy_chains(self, seed, confounded, p_a):
        assert_witnesses_replay(*build_lossy_chain(random.Random(seed),
                                                   confounded, p_a))

    def test_blocks_read_out_of_declaration_order(self):
        """The walk goes over the child's blocks in declaration order, so
        the first witness has UC1 at its first row and UC2 at its second."""
        rep = assert_witnesses_replay(*unordered_blocks_model())
        assert rep.violators == ("AH",)
        w = rep.witnesses["AH"]
        assert (w.left, w.right, w.outputs) == ((0,), (1,), (0, 1))
        assert w.unit == {("UA", "u"): 0, ("UC1", "u"): 0, ("UC2", "u"): 1}


class TestInvarianceCheck:
    def test_insurance_violator(self, insurance, insurance_cm):
        rep = ab.check_aic(insurance, insurance_cm)
        assert rep.violators == ("XH",)
        w = rep.witnesses["XH"]
        assert w.child == "Y"
        assert w.label == "xC"
        assert {w.left, w.right} == {("x1",), ("x2",)}

    def test_insurance_witness_replays(self, insurance, insurance_cm):
        w = ab.check_aic(insurance, insurance_cm).witnesses["XH"]
        cluster = insurance_cm.cluster("XH")
        worlds = []
        for raw in (w.left, w.right):
            hard = dict(zip(cluster.members, raw))
            for other, vals in w.others.items():
                members = insurance_cm.cluster(other).members
                hard.update(zip(members, vals))
            world = ab.evaluate_unit(insurance, dict(w.unit), hard=hard)
            worlds.append(world)
        child = insurance_cm.cluster("Y")
        labels = tuple(
            child.label_of(tuple(world[m] for m in child.members))
            for world in worlds)
        assert labels == w.outputs
        assert labels[0] != labels[1]

    def test_cholesterol_violator(self, cholesterol, cholesterol_cm):
        rep = ab.check_aic(cholesterol, cholesterol_cm)
        assert rep.violators == ("TC",)
        w = rep.witnesses["TC"]
        assert w.child == "Y"
        assert w.label == "tc1"
        assert {w.left, w.right} == {(0, 1), (1, 0)}
        assert w.unit[("UY", "UY")] == 0
        assert set(w.outputs) == {0, 1}

    def test_identity_clusters_have_no_violators(self, insurance,
                                                 cholesterol):
        for scm in (insurance, cholesterol):
            rep = ab.check_aic(scm, identity_clusters(scm))
            assert rep.violators == ()

    def test_violator_survives_exclusion(self, insurance):
        doc = {"clusters": [
            {"name": "XH", "members": ["X"], "values": [
                {"label": "xC", "tuples": [["x1"], ["x2"]]},
                {"label": "xE", "tuples": [["x3"]]}]},
            {"name": "Y", "members": ["Y"], "values": [
                {"label": 0, "tuples": [[0]]},
                {"label": 1, "tuples": [[1]]}]},
        ]}
        cm = ab.validate_clusters(insurance, doc)
        assert cm.excluded == ("Z",)
        rep = ab.check_aic(insurance, cm)
        assert rep.violators == ("XH",)


def assert_check_agrees(scm, cm, budget=None):
    """check_aic reports the violators and witnesses of the pair-by-pair
    check; returns the report."""
    rep = ab.check_aic(scm, cm, budget)
    want = reference_check_aic(scm, cm, budget)
    assert rep.violators == want.violators
    assert {name: vars(w) for name, w in rep.witnesses.items()} == \
        {name: vars(w) for name, w in want.witnesses.items()}
    return rep


class TestSignatureCheck:
    """The check by member-tuple signatures against the pair-by-pair
    check it replaced (tests/conftest.py:reference_check_aic)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cluster_map_cases())
    def test_agrees_with_the_pair_check(self, case):
        assert_check_agrees(*case)

    @pytest.mark.parametrize("name", ["insurance", "cholesterol", "hospital"])
    def test_fixtures(self, name):
        model = ab.load_scm(fixture_path(name + ".json"))
        assert_check_agrees(model, ab.load_clusters(
            model, fixture_path(name + "_clusters.json")))

    @pytest.mark.parametrize("variant, violators", [
        ("majority", ()), ("copy", ("C0", "C1"))])
    def test_pixel_models(self, variant, violators):
        rep = assert_check_agrees(*build_pixel_model(3, 3, variant))
        assert rep.violators == violators

    def test_one_solve_per_tuple_per_point(self, monkeypatch):
        """On majority 3x5 each concept's 32 member tuples are solved once
        at each of the 32 states of the next concept's noise: 2048 solves
        for the two parent-child pairs, which the budget counts, where the
        pair check made 2 * 2 * 240 * 32 = 30720."""
        scm, cm = build_pixel_model(3, 5, "majority")
        solves = []
        solve = DiscreteScm.solve

        def counted(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteScm, "solve", counted)
        assert ab.check_aic(scm, cm).violators == ()
        assert len(solves) <= 2 * 32 * 32
        with pytest.raises(ab.SizeExceeded) as err:
            ab.check_aic(scm, cm, budget=2 * 32 * 32 - 1)
        assert err.value.details["required"] == 2 * 32 * 32

    def test_violator_stops_at_its_first_pair(self, monkeypatch):
        """On copy 3x7 each flagged concept's 'lo' label has 64 member
        tuples. The walk solves all of them at each point and stops at the
        first point where the first two differ: at most 1920 solves for C0
        and C1 together, where walking the label to its end would make
        2 * 64 * 128 = 16384."""
        scm, cm = build_pixel_model(3, 7, "copy")
        solves = []
        solve = DiscreteScm.solve

        def counted(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteScm, "solve", counted)
        rep = ab.check_aic(scm, cm)
        assert rep.violators == ("C0", "C1")
        assert [(w.left, w.right) for w in rep.witnesses.values()] == [
            ((0,) * 7, (0,) * 6 + (1,))] * 2
        assert len(solves) <= 1920


class TestQueryTranslation:
    def test_translate_fiber_union(self, insurance_cm):
        t = ab.QueryTerm(outcomes=(
            ab.OutcomeAtom(("Y",), frozenset({(1,)})),
            ab.OutcomeAtom(("X",), frozenset({("x1",), ("x2",)}))))
        high = ab.translate_query(insurance_cm, query([t]))
        outs = high.terms[0].outcomes
        assert any(o.variables == ("XH",) and o.accepted == {("xC",)}
                   for o in outs)

    def test_translate_rejects_partial_union(self, insurance_cm):
        t = ab.QueryTerm(outcomes=(
            ab.OutcomeAtom(("X",), frozenset({("x1",), ("x3",)})),))
        with pytest.raises(ab.NotClusterUnion):
            ab.translate_query(insurance_cm, query([t]))

    @pytest.mark.parametrize("name", ["insurance", "cholesterol", "hospital"])
    def test_translate_undoes_lower_and_resolve(self, name):
        """translate_query(cm, resolve_sigma(low, cm, lower_query(cm, q)))
        gives q back, with a setting of a label of several member tuples,
        tilde or hard, as a SigmaMarker and any other as a hard setting."""
        low = ab.load_scm(fixture_path(name + ".json"))
        cm = ab.load_clusters(low, fixture_path(name + "_clusters.json"))
        for o, i in permutations(cm.clusters, 2):
            given = ab.QueryTerm(outcomes=(atom(i.name, i.labels()[0]),))
            for ol, cv, tilde in product(o.labels(), i.values, (True, False)):
                setting = ab.HardIntervention(i.name, cv.label)
                marker = ab.SigmaMarker(i.name, cv.label)
                lossy = len(cv.tuples) > 1
                q = query([ab.QueryTerm(
                    outcomes=(atom(o.name, ol),),
                    hard=() if tilde else (setting,),
                    soft=(marker,) if tilde else ())], [given])
                back = ab.translate_query(cm, ab.resolve_sigma(
                    low, cm, ab.lower_query(cm, q)))
                t, g = back.terms[0], back.conditioning[0]
                assert (t.hard, t.soft) == (((), (marker,)) if lossy
                                            else ((setting,), ()))
                assert [(oc.variables, oc.accepted) for oc in t.outcomes] \
                    == [((o.name,), {(ol,)})]
                assert (g.hard, g.soft) == ((), ())
                assert g.outcomes[0].accepted == {(i.labels()[0],)}

    def test_translated_tilde_keeps_its_fresh_draw(self, insurance,
                                                  insurance_cm,
                                                  insurance_high):
        """P(Y[~XH=xC]=1, Y=1) is 2503/5000 on the low model, and on the
        projected one after translate_query: the tilde world draws a member
        afresh instead of pinning XH to xC."""
        q = query([ab.QueryTerm(outcomes=(atom("Y", 1),),
                                soft=(ab.SigmaMarker("XH", "xC"),)),
                   ab.QueryTerm(outcomes=(atom("Y", 1),))])
        low_q = ab.resolve_sigma(insurance, insurance_cm,
                                 ab.lower_query(insurance_cm, q))
        assert ab.prob_query(insurance, low_q) == Fraction(2503, 5000)
        high_q = ab.translate_query(insurance_cm, low_q)
        assert ab.prob_query(insurance_high.scm, ab.resolve_sigma_high(
            insurance_high, high_q)) == Fraction(2503, 5000)

    def test_translate_rejects_unaligned_interventions(self, cholesterol,
                                                       cholesterol_cm):
        """A hard setting of part of a cluster or of no cluster's member, a
        stochastic intervention whose candidates are no cluster value, and
        anything else are refused."""
        y1 = (atom("Y", 1),)
        for hard, soft in (
                ((ab.HardIntervention("HDL", 0),), ()),
                ((ab.HardIntervention("W", 0),), ()),
                ((), (constant_soft_intervention(
                    ("HDL", "LDL"), [(0, 0), (1, 1)], [Fraction(1, 2)] * 2,
                    share_key="half"),)),
                ((), ("X=1",))):
            with pytest.raises(ab.NotClusterUnion):
                ab.translate_query(cholesterol_cm, query([ab.QueryTerm(
                    outcomes=y1, hard=hard, soft=soft)]))

    def test_translate_rejects_one_tuple_of_a_lossy_label(self,
                                                           insurance_cm):
        """A hard setting of one member tuple of a label that covers
        several (insurance X=x1 under XH=xC) has no cluster-level setting;
        the tuple of a one-tuple label lifts to that label."""
        with pytest.raises(ab.NotClusterUnion):
            ab.translate_query(insurance_cm, query([term([("Y", 1)],
                                                         [("X", "x1")])]))
        lifted = ab.translate_query(insurance_cm, query([term(
            [("Y", 1)], [("X", "x3")])]))
        assert lifted.terms[0].hard == (ab.HardIntervention("XH", "xE"),)

    def test_lower_singleton_label_is_hard(self, insurance_cm):
        high = query([term([("Y", 1)], [("XH", "xE")])])
        low = ab.lower_query(insurance_cm, high)
        assert low.terms[0].hard == (ab.HardIntervention("X", "x3"),)
        assert low.terms[0].soft == ()

    def test_lower_lossy_label_is_marker(self, insurance_cm):
        high = query([term([("Y", 1)], [("XH", "xC")])])
        low = ab.lower_query(insurance_cm, high)
        assert low.terms[0].hard == ()
        assert low.terms[0].soft == (ab.SigmaMarker("XH", "xC"),)

    def test_lower_passes_other_names_through(self, insurance_cm):
        high = query([term([("X", "x1")], [("XH", "xE"), ("W", 0)])])
        low = ab.lower_query(insurance_cm, high)
        assert low.terms[0].hard == (ab.HardIntervention("X", "x3"),
                                     ab.HardIntervention("W", 0))
        assert low.terms[0].outcomes == high.terms[0].outcomes

    def test_lower_outcome_becomes_preimage(self, insurance_cm):
        high = query([term([("XH", "xC")])])
        low = ab.lower_query(insurance_cm, high)
        oc = low.terms[0].outcomes[0]
        assert oc.variables == ("X",)
        assert oc.accepted == {("x1",), ("x2",)}
