"""Projected abstractions: mechanism inlining, context-sensitive
interventions, the constructed high-level model, and its replay check."""

import random
from fractions import Fraction

import pytest

import abstrakt as ab
from conftest import (atom, build_lossy_chain, context_after_target_docs,
                      term, query)


def sigma_marker_query(outcome_pairs, cluster, label, conditioning=()):
    t = ab.QueryTerm(outcomes=tuple(atom(v, val) for v, val in outcome_pairs),
                     soft=(ab.SigmaMarker(cluster, label),))
    return query([t], conditioning)


class TestFullProjection:
    def test_inlines_excluded_ancestors(self, insurance):
        small = ab.project_full(insurance, ("X", "Y"))
        assert [v.name for v in small.endogenous] == ["X", "Y"]
        mech = small.mechanisms["X"]
        assert mech.endo_parents == ()
        assert ("UZ", "UZ") in mech.exo_parents

    def test_preserves_marginals(self, insurance):
        small = ab.project_full(insurance, ("X", "Y"))
        for x, p in (("x1", Fraction(31, 100)), ("x2", Fraction(19, 100)),
                     ("x3", Fraction(1, 2))):
            assert ab.prob_query(small, query([term([("X", x)])])) == p
        assert ab.prob_query(small, query([term([("Y", 1)])])) == \
            Fraction(187, 250)

    def test_preserves_interventions(self, insurance):
        small = ab.project_full(insurance, ("X", "Y"))
        got = ab.prob_query(small, query([term([("Y", 1)], [("X", "x2")])]))
        assert got == Fraction(1, 10)

    def test_keeps_all_blocks(self, insurance):
        small = ab.project_full(insurance, ("X", "Y"))
        assert [b.name for b in small.blocks] == \
            [b.name for b in insurance.blocks]


class TestSigmaDistribution:
    def test_context_sensitive(self, insurance, insurance_cm):
        d1 = ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                   context={"parents": {"Z": "z1"}})
        d2 = ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                   context={"parents": {"Z": "z2"}})
        assert d1 == {("x1",): Fraction(4, 5), ("x2",): Fraction(1, 5)}
        assert d2 == {("x1",): Fraction(1, 5), ("x2",): Fraction(4, 5)}

    def test_agnostic_policy_ignores_context(self, insurance, insurance_cm):
        d = ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                  policy="agnostic")
        # P(x1 | X in {x1,x2}) = .31 / .5
        assert d == {("x1",): Fraction(31, 50), ("x2",): Fraction(19, 50)}

    def test_singleton_label(self, insurance, insurance_cm):
        d = ab.sigma_distribution(insurance, insurance_cm, "XH", "xE",
                                  context={"parents": {"Z": "z1"}})
        assert d == {("x3",): Fraction(1)}

    def test_response_class_context(self, hospital, hospital_cm):
        d1 = ab.sigma_distribution(hospital, hospital_cm, "XH", "xC",
                                   context={"shared": {"UZ": "z1"}})
        d2 = ab.sigma_distribution(hospital, hospital_cm, "XH", "xC",
                                   context={"shared": {"UZ": "z2"}})
        assert d1 == {("x1",): Fraction(4, 5), ("x2",): Fraction(1, 5)}
        assert d2 == {("x1",): Fraction(1, 5), ("x2",): Fraction(4, 5)}

    def test_impossible_context(self):
        doc = {
            "endogenous": [{"name": "Z", "domain": ["z1", "z2"]},
                           {"name": "X", "domain": [0, 1, 2]}],
            "blocks": [
                {"name": "UZ", "members": [{"name": "u",
                                            "domain": ["z1", "z2"]}],
                 "table": [{"values": ["z1"], "p": "1"},
                           {"values": ["z2"], "p": "0"}]},
                {"name": "UX", "members": [{"name": "u",
                                            "domain": [0, 1, 2]}],
                 "table": [{"values": [0], "p": "1/2"},
                           {"values": [1], "p": "1/4"},
                           {"values": [2], "p": "1/4"}]},
            ],
            "mechanisms": [
                {"variable": "Z", "endo_parents": [],
                 "exo_parents": [{"block": "UZ", "member": "u"}],
                 "table": [{"parents": ["z1"], "out": "z1"},
                           {"parents": ["z2"], "out": "z2"}]},
                {"variable": "X", "endo_parents": ["Z"],
                 "exo_parents": [{"block": "UX", "member": "u"}],
                 "table": [{"parents": [z, u], "out": u}
                           for z in ("z1", "z2") for u in (0, 1, 2)]},
            ],
        }
        scm = ab.validate_scm(doc)
        cm = ab.validate_clusters(scm, {"clusters": [
            {"name": "Z", "members": ["Z"], "values": [
                {"label": "z1", "tuples": [["z1"]]},
                {"label": "z2", "tuples": [["z2"]]}]},
            {"name": "XH", "members": ["X"], "values": [
                {"label": "lo", "tuples": [[0], [1]]},
                {"label": "hi", "tuples": [[2]]}]},
        ]})
        with pytest.raises(ab.ImpossibleContext):
            ab.sigma_distribution(scm, cm, "XH", "lo",
                                  context={"parents": {"Z": "z2"}})
        d = ab.sigma_distribution(scm, cm, "XH", "lo",
                                  context={"parents": {"Z": "z2"}},
                                  fallback="uniform")
        assert d == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_bad_policy(self, insurance, insurance_cm):
        with pytest.raises(ab.ValidationError):
            ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                  policy="optimistic")


class TestMarkerResolution:
    def test_resolved_conditionals(self, insurance, insurance_cm):
        for z, want in (("z1", Fraction(37, 50)), ("z2", Fraction(13, 50))):
            q = sigma_marker_query([("Y", 1)], "XH", "xC",
                                   [term([("Z", z)])])
            resolved = ab.resolve_sigma(insurance, insurance_cm, q)
            assert ab.prob_query(insurance, resolved) == want

    def test_unconditional_mixture(self, insurance, insurance_cm):
        q = sigma_marker_query([("Y", 1)], "XH", "xC")
        resolved = ab.resolve_sigma(insurance, insurance_cm, q)
        # .7 * .74 + .3 * .26
        assert ab.prob_query(insurance, resolved) == Fraction(149, 250)

    def test_policies_agree_without_sharing(self, insurance, insurance_cm):
        # no block is read by both X and any outside mechanism, so the
        # markovian and general contexts coincide here
        q = sigma_marker_query([("Y", 1)], "XH", "xC", [term([("Z", "z1")])])
        vals = {}
        for policy in ("markovian", "general"):
            resolved = ab.resolve_sigma(insurance, insurance_cm, q,
                                        policy=policy)
            vals[policy] = ab.prob_query(insurance, resolved)
        assert vals["markovian"] == vals["general"] == Fraction(37, 50)

    def test_agnostic_policy_flattens(self, insurance, insurance_cm):
        q = sigma_marker_query([("Y", 1)], "XH", "xC", [term([("Z", "z1")])])
        resolved = ab.resolve_sigma(insurance, insurance_cm, q,
                                    policy="agnostic")
        # context-free mixture .62 * .9 + .38 * .1, independent of Z
        assert ab.prob_query(insurance, resolved) == Fraction(149, 250)

    @pytest.mark.parametrize("policy", ["markovian", "general"])
    def test_context_declared_after_target(self, policy):
        # C's member A precedes its context member P in declaration order;
        # the draw must still wait for P.
        model, clusters = context_after_target_docs()
        scm = ab.validate_scm(model)
        cm = ab.validate_clusters(scm, clusters)
        q = sigma_marker_query([("YC", "y0")], "C", "same")
        resolved = ab.resolve_sigma(scm, cm, ab.lower_query(cm, q),
                                    policy=policy)
        assert ab.prob_query(scm, resolved) == 1


class TestConstruction:
    def test_shape(self, insurance_high):
        scm = insurance_high.scm
        assert [v.name for v in scm.endogenous] == ["Z", "XH", "Y"]
        assert scm.domain("XH") == ("xC", "xE")
        assert "XH__u" in [b.name for b in scm.blocks]
        block = next(b for b in scm.blocks if b.name == "XH__u")
        # one independent fiber-index draw per observed context of the
        # flagged value, so cross-world couplings match the low model
        assert [m.name for m in block.members] == ["XH__u__xC__c0",
                                                   "XH__u__xC__c1"]
        assert all(m.domain == (0, 1) for m in block.members)
        assert scm.exogenous_support_size() == 576

    def test_split_record(self, insurance_high):
        split = insurance_high.splits["XH"]
        assert split.violator
        assert split.parents == ("Z",)
        assert split.breaks["xC"] == (Fraction(0), Fraction(1, 5),
                                      Fraction(4, 5), Fraction(1))
        assert split.cell_map["xC"][(("z1",), None)] == (0, 0, 1)
        assert split.cell_map["xC"][(("z2",), None)] == (0, 1, 1)
        assert not insurance_high.splits["Z"].violator
        assert not insurance_high.splits["Y"].violator

    def test_interventional_match(self, insurance, insurance_cm,
                                  insurance_high):
        got = ab.prob_query(insurance_high.scm,
                            query([term([("Y", 1)], [("XH", "xC")])]))
        assert got == Fraction(149, 250)
        for z, want in (("z1", Fraction(37, 50)), ("z2", Fraction(13, 50))):
            got = ab.prob_query(
                insurance_high.scm,
                query([term([("Y", 1)], [("XH", "xC")])],
                      [term([("Z", z)])]))
            assert got == want

    def test_observational_pushforward_match(self, insurance, insurance_cm,
                                             insurance_high):
        pushed = ab.marginal_pushforward(
            ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
        high_table = ab.joint_distribution(insurance_high.scm,
                                           ("Z", "XH", "Y"))
        assert pushed.probs == high_table.probs

    def test_diagram_alignment(self, insurance, insurance_cm,
                               insurance_high):
        rep = ab.check_aic(insurance, insurance_cm)
        cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        projected = ab.build_projected_cdag(cdag, rep.violators)
        high_d = ab.induce_diagram(insurance_high.scm)
        assert set(high_d.directed) == set(projected.directed)
        assert set(high_d.bidirected) == set(projected.bidirected)

    def test_confounded_diagram_alignment(self, hospital, hospital_cm):
        high = ab.construct_projected_abstraction(hospital, hospital_cm)
        rep = ab.check_aic(hospital, hospital_cm)
        cdag = ab.build_cdag(ab.induce_diagram(hospital), hospital_cm)
        projected = ab.build_projected_cdag(cdag, rep.violators)
        high_d = ab.induce_diagram(high.scm)
        assert set(high_d.directed) == set(projected.directed)
        assert set(high_d.bidirected) == set(projected.bidirected)
        assert set(projected.bidirected) == {("Z", "XH"), ("Z", "Y"),
                                             ("XH", "Y")}


class TestReplayVerification:
    def test_fixture_models_replay(self, insurance, insurance_high,
                                   cholesterol, cholesterol_cm,
                                   hospital, hospital_cm):
        res = ab.verify_partial_projection(insurance, insurance_high)
        assert res.passed and res.checked == 5184
        chol_high = ab.construct_projected_abstraction(cholesterol,
                                                       cholesterol_cm)
        res = ab.verify_partial_projection(cholesterol, chol_high)
        assert res.passed and res.checked == 720
        hosp_high = ab.construct_projected_abstraction(hospital, hospital_cm)
        res = ab.verify_partial_projection(hospital, hosp_high)
        assert res.passed and res.checked == 5184

    def test_tampered_model_fails(self, insurance, insurance_cm):
        high = ab.construct_projected_abstraction(insurance, insurance_cm)
        mech = high.scm.mechanisms["Y"]
        flipped = {k: (1 - v) for k, v in mech.table.items()}
        mech.table.clear()
        mech.table.update(flipped)
        res = ab.verify_partial_projection(insurance, high)
        assert not res.passed
        assert res.mismatches

    def test_random_chains_replay(self):
        for seed in range(6):
            scm, cm = build_lossy_chain(random.Random(100 + seed))
            high = ab.construct_projected_abstraction(scm, cm)
            res = ab.verify_partial_projection(scm, high)
            assert res.passed, "seed %d: %s" % (seed, res.mismatches[:2])

    def test_random_confounded_chains_replay(self):
        for seed in range(4):
            scm, cm = build_lossy_chain(random.Random(200 + seed),
                                        confounded=True)
            high = ab.construct_projected_abstraction(scm, cm)
            res = ab.verify_partial_projection(scm, high)
            assert res.passed, "seed %d: %s" % (seed, res.mismatches[:2])

    def test_random_chains_query_agreement(self):
        for seed in (301, 302, 303):
            scm, cm = build_lossy_chain(random.Random(seed))
            high = ab.construct_projected_abstraction(scm, cm)
            for c_val in (0, 1):
                hq = query([term([("C", c_val)], [("BH", "lo")])])
                low = ab.resolve_sigma(scm, cm, ab.lower_query(cm, hq))
                assert ab.prob_query(high.scm, hq) == \
                    ab.prob_query(scm, low)


class TestBounds:
    def test_interval(self, insurance, insurance_cm):
        lo, hi = ab.disambiguation_bounds(insurance, insurance_cm,
                                          "XH", "xC", {"Y": 1})
        assert (lo, hi) == (Fraction(9, 100), Fraction(91, 100))

    def test_policies_inside_interval(self, insurance, insurance_cm):
        lo, hi = ab.disambiguation_bounds(insurance, insurance_cm,
                                          "XH", "xC", {"Y": 1})
        for policy in ("agnostic", "markovian", "general"):
            q = sigma_marker_query([("Y", 1)], "XH", "xC")
            resolved = ab.resolve_sigma(insurance, insurance_cm, q,
                                        policy=policy)
            val = ab.prob_query(insurance, resolved)
            assert lo <= val <= hi

    def test_singleton_collapse(self, insurance, insurance_cm):
        lo, hi = ab.disambiguation_bounds(insurance, insurance_cm,
                                          "XH", "xE", {"Y": 1})
        assert lo == hi == Fraction(9, 10)


class TestResponseProfiles:
    def test_pinned_profile(self, hospital):
        prof = ab.canonical_response_profile(hospital, "X",
                                             {("UZ", "UZ"): "z1"})
        by_out = {r.outputs: p for r, p in prof.items()}
        assert by_out == {("x1",): Fraction(2, 5), ("x2",): Fraction(1, 10),
                          ("x3",): Fraction(1, 2)}

    def test_profile_is_a_distribution(self, insurance):
        prof = ab.canonical_response_profile(insurance, "X", {})
        assert sum(prof.values()) == 1
        # X has an endogenous parent, so responses are functions of Z
        assert all(r.inputs == ("Z",) for r in prof)


class TestSampling:
    def test_reproducible(self, insurance_high):
        a = ab.projected_sample(insurance_high, "XH", "xC",
                                context={"parents": {"Z": "z1"}},
                                seed=42, n=500)
        b = ab.projected_sample(insurance_high, "XH", "xC",
                                context={"parents": {"Z": "z1"}},
                                seed=42, n=500)
        assert a == b
        assert set(a) <= {("x1",), ("x2",)}

    def test_context_shifts_frequencies(self, insurance_high):
        n = 4000
        counts = {}
        for z in ("z1", "z2"):
            draws = ab.projected_sample(insurance_high, "XH", "xC",
                                        context={"parents": {"Z": z}},
                                        seed=9, n=n)
            counts[z] = sum(1 for d in draws if d == ("x1",)) / n
        assert counts["z1"] > 0.7
        assert counts["z2"] < 0.3

    def test_singleton_label(self, insurance_high):
        draws = ab.projected_sample(insurance_high, "XH", "xE", seed=0, n=20)
        assert draws == [("x3",)] * 20


class TestSerialization:
    def test_round_trip(self, insurance, insurance_high, tmp_path):
        path = str(tmp_path / "high.json")
        ab.save_high(insurance_high, path)
        again = ab.load_high(path)
        assert again.policy == insurance_high.policy
        split = again.splits["XH"]
        assert split.breaks == insurance_high.splits["XH"].breaks
        assert split.cell_map == insurance_high.splits["XH"].cell_map
        got = ab.prob_query(again.scm,
                            query([term([("Y", 1)], [("XH", "xC")])]))
        assert got == Fraction(149, 250)
        res = ab.verify_partial_projection(insurance, again)
        assert res.passed
