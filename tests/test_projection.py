"""Projected abstractions: mechanism inlining, context-sensitive
interventions, the constructed high-level model, and its replay check."""

import copy
import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import abstrakt as ab
from abstrakt import projection
from abstrakt.cli import run
from conftest import (atom, binary_block, build_dag_model, build_lossy_chain,
                      build_pixel_model, cluster_map_cases,
                      context_after_target_docs, fixture_path, fresh,
                      identity_clusters, reference_construct,
                      reference_verify, term, query)

POLICIES = ("agnostic", "markovian", "general")


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


@st.composite
def projection_cases(draw):
    """A binary DAG model in which two variables read one shared noise
    block and a third reads no noise, and at least two variables to keep."""
    n = draw(st.integers(3, 5))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    roles = draw(st.permutations(nodes))
    model = build_dag_model(nodes, edges,
                            random.Random(draw(st.integers(0, 2 ** 32))),
                            shared=tuple(roles[:2]), quiet=(roles[2],))
    keep = draw(st.lists(st.sampled_from(nodes), min_size=2, unique=True))
    return model, keep


def projected_rows(scm, keep):
    """Per variable, the rows of its projected table: two per kept
    endogenous input and per noise member it reads, itself or through the
    dropped variables above it."""
    reach = {}  # var -> (kept inputs, noise members)
    for v in scm.topological_order_names():
        mech = scm.mechanisms[v]
        endo, exo = set(), set(mech.exo_parents)
        for p in mech.endo_parents:
            if p in keep:
                endo.add(p)
            else:
                endo |= reach[p][0]
                exo |= reach[p][1]
        reach[v] = (endo, exo)
    return {v: 2 ** (len(e) + len(x)) for v, (e, x) in reach.items()}


class TestProjectionProperties:
    @settings(max_examples=30, deadline=None)
    @given(projection_cases())
    def test_kept_distributions_match(self, case):
        model, keep = case
        small = ab.project_full(model, keep)
        for v in [None] + keep:
            for val in (0, 1):
                ivs = () if v is None else (ab.HardIntervention(v, val),)
                assert ab.joint_distribution(small, keep, ivs).probs == \
                    ab.joint_distribution(model, keep, ivs).probs
        y, x = keep[0], keep[1]
        for y0, y1, x1 in product((0, 1), repeat=3):
            q = query([term([(y, y0)]), term([(y, y1)], [(x, x1)])])
            assert ab.prob_query(small, q) == ab.prob_query(model, q)

    @settings(max_examples=40, deadline=None)
    @given(projection_cases(), st.integers(1, 32))
    def test_budget_names_first_oversized_table(self, case, budget):
        model, keep = case
        rows = projected_rows(model, set(keep))
        over = [v for v in model.topological_order_names()
                if rows[v] > budget]
        if not over:
            ab.project_full(model, keep, budget)
            return
        with pytest.raises(ab.SizeExceeded) as err:
            ab.project_full(model, keep, budget)
        assert err.value.details == {"variable": over[0],
                                     "required": rows[over[0]],
                                     "budget": budget}


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

    def test_response_classes_ignore_row_order(self):
        """The response classes of shared noise read each consumer's
        mechanism in the product order of its inputs, so the order its
        table rows were filled in does not change them."""
        for seed in range(6):
            low, cm = build_lossy_chain(random.Random(seed), confounded=True)
            refilled, _cm = build_lossy_chain(random.Random(seed),
                                              confounded=True)
            for mech in refilled.mechanisms.values():
                rows = list(mech.table.items())
                random.Random(seed).shuffle(rows)
                mech.table = dict(rows)
            want, got = (projection.sigma_machinery(m, cm, "BH", "general")
                         for m in (low, refilled))
            assert got.rho_members and got.rho_classes == want.rho_classes

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

    def test_bad_fallback(self, insurance, insurance_cm):
        """A fallback other than None or 'uniform' is refused wherever a
        fallback is accepted, as an unknown policy is."""
        z1 = {"parents": {"Z": "z1"}}
        marker = sigma_marker_query([("Y", 1)], "XH", "xC")
        for call in (
                lambda: ab.sigma_distribution(insurance, insurance_cm, "XH",
                                              "xC", context=z1,
                                              fallback="bogus"),
                lambda: ab.resolve_sigma(insurance, insurance_cm, marker,
                                         fallback="bogus"),
                lambda: ab.construct_projected_abstraction(
                    insurance, insurance_cm, fallback="bogus")):
            with pytest.raises(ab.DomainMismatch):
                call()

    def test_unknown_label_raises_before_the_tables(self, insurance,
                                                    insurance_cm,
                                                    monkeypatch):
        """A label the cluster does not have is an UnknownHighValue, from
        sigma_distribution and resolve_sigma alike, raised before any
        reference table is computed."""
        def no_tables(*args, **kwargs):
            raise AssertionError("reference tables computed")

        monkeypatch.setattr(projection, "sigma_machinery", no_tables)
        with pytest.raises(ab.UnknownHighValue):
            ab.sigma_distribution(insurance, insurance_cm, "XH", "bogus",
                                  context={"parents": {"Z": "z1"}})
        with pytest.raises(ab.UnknownHighValue):
            ab.resolve_sigma(insurance, insurance_cm, sigma_marker_query(
                [("Y", 1)], "XH", "bogus"))


    def test_unknown_parent_label(self, insurance, insurance_cm,
                                  insurance_high):
        """sigma_distribution and projected_sample read a context's parent
        labels alike, and as the CLI does: an unknown one is a
        DomainMismatch, with or without the uniform fallback."""
        bogus = {"parents": {"Z": "bogus"}}
        uniform = ab.construct_projected_abstraction(
            insurance, insurance_cm, fallback="uniform")
        for fallback in (None, "uniform"):
            with pytest.raises(ab.DomainMismatch):
                ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                      context=bogus, fallback=fallback)
        for high in (insurance_high, uniform):
            with pytest.raises(ab.DomainMismatch):
                ab.projected_sample(high, "XH", "xC", context=bogus)

    def test_context_entries_are_checked(self, insurance, insurance_cm,
                                         insurance_high):
        """sigma_distribution and projected_sample refuse every entry that
        `sample --context` refuses, even where the entry is not needed:
        an unknown cluster, a shared name that is no shared noise member of
        the cluster, or any bad entry given with a one-tuple label."""
        for context, error in (
                ({"parents": {"Z": "z1", "Nope": "q"}}, ab.UnknownVariable),
                ({"parents": {"Z": "z1"}, "shared": {"bogus": 3}},
                 ab.UnknownVariable),
                ({"parents": {"Z": "z1", "Y": "bogus"}}, ab.DomainMismatch),
                (5, ab.DomainMismatch)):
            with pytest.raises(error):
                ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                                      context=context)
            for label in ("xC", "xE"):
                with pytest.raises(error):
                    ab.projected_sample(insurance_high, "XH", label,
                                        context=context)

    def test_shared_member_names(self, tmp_path):
        """A shared noise member is named by its (block, member) pair, as
        'block.member' or by a bare name no other shared member of the
        cluster has; a bare name that several have is refused, by the
        library and the CLI alike, and a value must lie in the member's
        domain. Labels and values also match by their text."""
        model_doc, cluster_doc = twin_shared_docs()
        low = ab.validate_scm(model_doc)
        cm = ab.validate_clusters(low, cluster_doc)
        high = ab.construct_projected_abstraction(low, cm)
        assert high.splits["XH"].rho_members == (("S1", "u"), ("S2", "u"))
        want = ab.sigma_distribution(low, cm, "XH", "lo", context={
            "shared": {("S1", "u"): 0, ("S2", "u"): 0}})
        assert want == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        for shared in ({"S1.u": 0, "S2.u": 0}, {"S1.u": "0", "S2.u": "0"}):
            assert ab.sigma_distribution(
                low, cm, "XH", "lo", context={"shared": shared}) == want
            assert ab.projected_sample(high, "XH", "lo", ({}, shared), 3, 8) \
                == ab.projected_sample(high, "XH", "lo", ({}, {
                    ("S1", "u"): 0, ("S2", "u"): 0}), 3, 8)
        for shared, error in (({"u": 0}, ab.UnknownVariable),
                              ({"S1.u": 0, "S2.u": 2}, ab.DomainMismatch)):
            with pytest.raises(error):
                ab.sigma_distribution(low, cm, "XH", "lo",
                                      context={"shared": shared})
            with pytest.raises(error):
                ab.projected_sample(high, "XH", "lo",
                                    context={"shared": shared})
        path = str(tmp_path / "high.json")
        ab.save_high(high, path)
        r = run(["sample", "--high", path, "--value", "XH=lo",
                 "--context", '{"shared": {"u": 0}}'])
        assert r.exit_code == 2
        assert "ambiguous" in r.payload["error"]["message"]


def twin_shared_docs():
    """X is the sum of three binary noise members, each named u: its own
    (block UX), one of S1, which Y also reads, and one of S2, which W
    also reads. XH merges 0 and 1 into lo and 2 and 3 into hi; YH and WH
    are identities. Under the general policy XH's shared noise members
    are S1.u and S2.u, so the bare name u names both. Returns the model
    and cluster documents."""
    def block(name):
        return {"name": name, "members": [{"name": "u", "domain": [0, 1]}],
                "table": [{"values": [v], "p": "1/2"} for v in (0, 1)]}

    def identity(name, member):
        return {"name": name, "members": [member], "values": [
            {"label": v, "tuples": [[v]]} for v in (0, 1)]}

    model = {
        "endogenous": [{"name": "X", "domain": [0, 1, 2, 3]},
                       {"name": "Y", "domain": [0, 1]},
                       {"name": "W", "domain": [0, 1]}],
        "blocks": [block("UX"), block("S1"), block("S2")],
        "mechanisms": [
            {"variable": "X", "endo_parents": [],
             "exo_parents": [{"block": b, "member": "u"}
                             for b in ("UX", "S1", "S2")],
             "table": [{"parents": list(us), "out": sum(us)}
                       for us in product((0, 1), repeat=3)]},
            {"variable": "Y", "endo_parents": ["X"],
             "exo_parents": [{"block": "S1", "member": "u"}],
             "table": [{"parents": [x, s], "out": s ^ int(x >= 2)}
                       for x in range(4) for s in (0, 1)]},
            {"variable": "W", "endo_parents": [],
             "exo_parents": [{"block": "S2", "member": "u"}],
             "table": [{"parents": [s], "out": s} for s in (0, 1)]},
        ],
    }
    return model, {"clusters": [
        {"name": "XH", "members": ["X"], "values": [
            {"label": "lo", "tuples": [[0], [1]]},
            {"label": "hi", "tuples": [[2], [3]]}]},
        identity("YH", "Y"), identity("WH", "W")]}


def excluded_mediator_docs():
    """A -> M -> X -> Y and A -> Y, with M = A and M outside every cluster.
    X is x3 when its noise (1/4) fires and otherwise x1 or x2 as M is 0 or
    1; Y = 1 when its noise (3/4) fires and X is the x that A selects.
    Clusters: AH = {A}, XH = {X} with xC = {x1, x2} and x3, YH = {Y}."""
    bits = [0, 1]
    xs = ["x1", "x2", "x3"]

    def noise(name):
        return [{"block": name, "member": "u"}]

    model = {
        "endogenous": [{"name": "A", "domain": bits},
                       {"name": "M", "domain": bits},
                       {"name": "X", "domain": xs},
                       {"name": "Y", "domain": bits}],
        "blocks": [binary_block("UA", Fraction(1, 2)),
                   binary_block("UX", Fraction(1, 4)),
                   binary_block("UY", Fraction(3, 4))],
        "mechanisms": [
            {"variable": "A", "endo_parents": [], "exo_parents": noise("UA"),
             "table": [{"parents": [u], "out": u} for u in bits]},
            {"variable": "M", "endo_parents": ["A"], "exo_parents": [],
             "table": [{"parents": [a], "out": a} for a in bits]},
            {"variable": "X", "endo_parents": ["M"], "exo_parents": noise("UX"),
             "table": [{"parents": [m, u], "out": "x3" if u else xs[m]}
                       for m in bits for u in bits]},
            {"variable": "Y", "endo_parents": ["A", "X"],
             "exo_parents": noise("UY"),
             "table": [{"parents": [a, x, u], "out": int(u and x == xs[a])}
                       for a in bits for x in xs for u in bits]},
        ],
    }
    clusters = {"clusters": [
        {"name": "AH", "members": ["A"],
         "values": [{"label": "a0", "tuples": [[0]]},
                    {"label": "a1", "tuples": [[1]]}]},
        {"name": "XH", "members": ["X"],
         "values": [{"label": "xC", "tuples": [["x1"], ["x2"]]},
                    {"label": "x3", "tuples": [["x3"]]}]},
        {"name": "YH", "members": ["Y"],
         "values": [{"label": y, "tuples": [[y]]} for y in bits]},
    ]}
    return model, clusters


class TestExcludedMediator:
    """Reference tables are built on the working model, where M is
    marginalized away and A becomes X's parent, both for the low-level
    route (resolve_sigma, sigma_distribution) and the projected model."""

    @pytest.mark.parametrize("policy,want", [
        ("agnostic", Fraction(3, 8)), ("markovian", Fraction(3, 4)),
        ("general", Fraction(3, 4))])
    def test_eval_matches_the_projected_model(self, tmp_path, policy, want):
        model, clusters = excluded_mediator_docs()
        paths = []
        for name, doc in (("model.json", model), ("clusters.json", clusters)):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        r = run(["eval", "--scm", paths[0], "--clusters", paths[1],
                 "--policy", policy, "--query", "P(YH[~XH=xC]=1)"])
        assert r.exit_code == 0
        assert r.payload["rational"] == str(want)
        low = ab.validate_scm(model)
        high = ab.construct_projected_abstraction(
            low, ab.validate_clusters(low, clusters), policy=policy)
        q = sigma_marker_query([("YH", 1)], "XH", "xC")
        assert ab.prob_query(high.scm, ab.resolve_sigma_high(high, q)) == want

    def test_markovian_tables_read_the_parent(self):
        model, clusters = excluded_mediator_docs()
        low = ab.validate_scm(model)
        cm = ab.validate_clusters(low, clusters)
        high = ab.construct_projected_abstraction(low, cm, policy="markovian")
        assert high.splits["XH"].parents == ("AH",)
        with pytest.raises(ab.DomainMismatch) as err:
            ab.sigma_distribution(low, cm, "XH", "xC", policy="markovian")
        assert err.value.details == {"cluster": "AH"}
        for a, x in (("a0", "x1"), ("a1", "x2")):
            got = ab.sigma_distribution(low, cm, "XH", "xC",
                                        policy="markovian",
                                        context={"parents": {"AH": a}})
            assert got == {(v,): Fraction(v == x) for v in ("x1", "x2")}


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
        breaks, cell_map = split.grid("xC")
        assert breaks == (Fraction(0), Fraction(1, 5), Fraction(4, 5),
                          Fraction(1))
        assert cell_map[(("z1",), None)] == (0, 0, 1)
        assert cell_map[(("z2",), None)] == (0, 1, 1)
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


def assert_built_as_row_by_row(scm, cm):
    """Under every policy and fallback, the construction writes the
    document of the row-by-row build (tests/conftest.py:
    reference_construct), byte for byte."""
    for policy, fallback in product(POLICIES, (None, "uniform")):
        got, want = (json.dumps(ab.high_to_doc(build(
            scm, cm, policy=policy, fallback=fallback)))
            for build in (ab.construct_projected_abstraction,
                          reference_construct))
        assert got == want, (policy, fallback)


class TestLiveInputTables:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cluster_map_cases())
    def test_agrees_with_the_row_by_row_build(self, case):
        assert_built_as_row_by_row(*case)

    @pytest.mark.parametrize("name", ["insurance", "cholesterol", "hospital"])
    def test_fixtures(self, name):
        model = ab.load_scm(fixture_path(name + ".json"))
        assert_built_as_row_by_row(model, ab.load_clusters(
            model, fixture_path(name + "_clusters.json")))

    @pytest.mark.parametrize("variant", ["majority", "copy"])
    def test_pixel_models(self, variant):
        assert_built_as_row_by_row(*build_pixel_model(3, 3, variant))

    def test_one_gate_over_every_table(self, insurance, insurance_cm,
                                       monkeypatch):
        """Insurance's projected model has 4 cell-block rows and 2, 18 and
        128 mechanism rows. The largest table fits in a budget of 151, but
        the 152 rows together do not, and the refusal comes before any
        table is built."""
        with monkeypatch.context() as patch:
            for table in ("ExogenousBlock", "Mechanism"):
                patch.setattr(projection, table, None)
            with pytest.raises(ab.SizeExceeded) as err:
                ab.construct_projected_abstraction(insurance, insurance_cm,
                                                   budget=151)
        assert err.value.details == {"required": 152, "budget": 151}
        assert "projected model needs 152 rows" in str(err.value)
        ab.construct_projected_abstraction(insurance, insurance_cm,
                                           budget=152)


def unreachable_context_model():
    """Z -> X -> Y with P(Z=z2) = 0, X uniform over {0, 1, 2} in either
    context and Y = [X == 1]; cluster XH lumps X in {0, 1} as 'lo'."""
    scm = ab.validate_scm({
        "endogenous": [{"name": "Z", "domain": ["z1", "z2"]},
                       {"name": "X", "domain": [0, 1, 2]},
                       {"name": "Y", "domain": [0, 1]}],
        "blocks": [
            {"name": "UZ", "members": [{"name": "u", "domain": ["z1", "z2"]}],
             "table": [{"values": ["z1"], "p": "1"},
                       {"values": ["z2"], "p": "0"}]},
            {"name": "UX", "members": [{"name": "u", "domain": [0, 1, 2]}],
             "table": [{"values": [u], "p": "1/3"} for u in (0, 1, 2)]},
        ],
        "mechanisms": [
            {"variable": "Z", "endo_parents": [],
             "exo_parents": [{"block": "UZ", "member": "u"}],
             "table": [{"parents": [z], "out": z} for z in ("z1", "z2")]},
            {"variable": "X", "endo_parents": ["Z"],
             "exo_parents": [{"block": "UX", "member": "u"}],
             "table": [{"parents": [z, u], "out": u}
                       for z in ("z1", "z2") for u in (0, 1, 2)]},
            {"variable": "Y", "endo_parents": ["X"], "exo_parents": [],
             "table": [{"parents": [x], "out": int(x == 1)}
                       for x in (0, 1, 2)]},
        ],
    })
    cm = ab.validate_clusters(scm, {"clusters": [
        {"name": "Z", "members": ["Z"], "values": [
            {"label": "z1", "tuples": [["z1"]]},
            {"label": "z2", "tuples": [["z2"]]}]},
        {"name": "XH", "members": ["X"], "values": [
            {"label": "lo", "tuples": [[0], [1]]},
            {"label": "hi", "tuples": [[2]]}]},
        {"name": "Y", "members": ["Y"], "values": [
            {"label": 0, "tuples": [[0]]},
            {"label": 1, "tuples": [[1]]}]},
    ]})
    return scm, cm


@st.composite
def edited_chains(draw):
    """A lossy chain (plain or confounded, A's noise drawn or fixed so that
    contexts of BH lose their mass), projected under a drawn policy and
    fallback, with up to three edits: a high mechanism row set to another
    label, or two contexts of a flagged label trading their cells."""
    low, cm = build_lossy_chain(
        random.Random(draw(st.integers(0, 2 ** 16))), draw(st.booleans()),
        draw(st.sampled_from((None, 0, 1))))
    high = ab.construct_projected_abstraction(
        low, cm, policy=draw(st.sampled_from(POLICIES)),
        fallback=draw(st.sampled_from((None, "uniform"))))
    for _ in range(draw(st.integers(0, 3))):
        swappable = [cells for split in high.splits.values()
                     for cells in split.component.values() if len(cells) > 1]
        if swappable and draw(st.booleans()):
            cells = draw(st.sampled_from(swappable))
            a, b = draw(st.permutations(sorted(cells, key=repr)))[:2]
            cells[a], cells[b] = cells[b], cells[a]
        else:
            name = draw(st.sampled_from(sorted(high.scm.mechanisms)))
            table = high.scm.mechanisms[name].table
            key = draw(st.sampled_from(sorted(table, key=repr)))
            table[key] = draw(st.sampled_from(
                [v for v in high.scm.domain(name) if v != table[key]]))
    return low, high


def assert_replay_agrees(low, high):
    """verify_partial_projection reports what the unit-by-unit replay does;
    returns the report."""
    res = ab.verify_partial_projection(low, high)
    assert (res.checked, res.mismatch_count, res.mismatches) == \
        reference_verify(low, high)
    return res


class TestReplayVerification:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edited_chains())
    def test_agrees_with_the_unit_replay(self, case):
        assert_replay_agrees(*case)

    def test_absent_context_agrees_with_the_unit_replay(self):
        scm, cm = unreachable_context_model()
        res = assert_replay_agrees(
            scm, ab.construct_projected_abstraction(scm, cm))
        assert res.mismatches[0]["note"] == \
            "context (('z2',), None) absent for XH=lo"

    def test_copy_edited_after_a_warm_call(self, insurance, insurance_cm):
        """A deep copy of a model that has passed, edited afterwards, is
        checked afresh: nothing the first call left on the model is
        trusted."""
        high = ab.construct_projected_abstraction(insurance, insurance_cm)
        assert ab.verify_partial_projection(insurance, high).passed
        edited = copy.deepcopy(high)
        table = edited.scm.mechanisms["Y"].table
        for key in sorted(table, key=repr)[::5]:
            table[key] = 1 - table[key]
        assert not assert_replay_agrees(insurance, edited).passed
        cells = edited.splits["XH"].component["xC"]
        a, b = sorted(cells, key=repr)[:2]
        cells[a], cells[b] = cells[b], cells[a]
        assert_replay_agrees(insurance, edited)
        assert ab.verify_partial_projection(insurance, high).passed

    def test_passing_model_solves_few_low_worlds(self, insurance,
                                                 insurance_high, monkeypatch):
        """A passing check still covers every case, but decides each
        intervention on the blocks its cases read: 480 low-model worlds on
        insurance instead of one per case."""
        solved = []
        solve = ab.DiscreteScm.solve

        def counting(scm, *args, **kwargs):
            if scm is not insurance_high.scm:
                solved.append(scm)
            return solve(scm, *args, **kwargs)

        monkeypatch.setattr(ab.DiscreteScm, "solve", counting)
        res = ab.verify_partial_projection(insurance, insurance_high)
        assert res.passed and res.checked == 5184
        assert len(solved) < 1000

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

    def test_mismatch_count(self, insurance, insurance_cm):
        """Every mismatch is counted; the first ten are shown in full."""
        high = ab.construct_projected_abstraction(insurance, insurance_cm)
        mech = high.scm.mechanisms["Y"]
        for k, v in list(mech.table.items()):
            mech.table[k] = 1 - v
        res = ab.verify_partial_projection(insurance, high)
        # every unit under the 12 settings that leave Y free
        assert res.mismatch_count == 144 * 12
        assert len(res.mismatches) == 10
        assert all(isinstance(m, dict) and m["clusters"] == ["Y"]
                   for m in res.mismatches)
        assert not res.passed
        res = ab.verify_partial_projection(
            insurance, ab.construct_projected_abstraction(insurance,
                                                          insurance_cm))
        assert res.passed and res.mismatch_count == 0 and \
            res.mismatches == []

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
            # BH's contexts carry a response class of the shared block
            assert high.splits["BH"].rho_members
            res = ab.verify_partial_projection(scm, high)
            assert res.passed, "seed %d: %s" % (seed, res.mismatches[:2])

    def test_absent_context_is_reported(self):
        """Z = z2 has no mass, so XH = lo has no reference table in the
        context Z = z2: every case that intervenes Z to z2 and leaves X in
        lo reconstructs X from an absent context."""
        scm, cm = unreachable_context_model()
        res = ab.verify_partial_projection(
            scm, ab.construct_projected_abstraction(scm, cm))
        assert (res.checked, res.mismatch_count) == (108, 24)
        assert {m["note"] for m in res.mismatches} == {
            "context (('z2',), None) absent for XH=lo"}
        res = ab.verify_partial_projection(
            scm, ab.construct_projected_abstraction(scm, cm,
                                                    fallback="uniform"))
        assert res.passed and res.checked == 108

    def test_budget_gate_precedes_the_interventions(self, tmp_path):
        """A 20-node binary chain with one cluster per node needs
        2**20 states times 3**20 whole-cluster interventions; the gate
        counts them without listing them, so the refusal is immediate."""
        nodes = ["V%d" % i for i in range(20)]
        low = build_dag_model(nodes, list(zip(nodes, nodes[1:])),
                              random.Random(20))
        high = ab.construct_projected_abstraction(low, identity_clusters(low))
        start = time.perf_counter()
        with pytest.raises(ab.SizeExceeded) as err:
            ab.verify_partial_projection(low, high)
        assert time.perf_counter() - start < 1.0
        assert err.value.details["required"] == 2 ** 20 * 3 ** 20
        scm_path, high_path = tmp_path / "low.json", tmp_path / "high.json"
        scm_path.write_text(json.dumps(ab.scm_to_doc(low)))
        ab.save_high(high, str(high_path))
        r = run(["verify", "--scm", str(scm_path), "--high", str(high_path),
                 "--budget", "1000"])
        assert r.exit_code == 4
        assert r.payload["error"]["details"] == {
            "required": 2 ** 20 * 3 ** 20, "budget": 1000}

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
        assert split.grid("xC") == insurance_high.splits["XH"].grid("xC")
        got = ab.prob_query(again.scm,
                            query([term([("Y", 1)], [("XH", "xC")])]))
        assert got == Fraction(149, 250)
        res = ab.verify_partial_projection(insurance, again)
        assert res.passed

    @pytest.mark.parametrize("field", ["policy", "fallback"])
    def test_unknown_delta_setting_is_refused(self, insurance_high, field):
        """A document whose reference policy or fallback is unknown does
        not load."""
        doc = json.loads(json.dumps(ab.high_to_doc(insurance_high)))
        doc["delta"][field] = "bogus"
        with pytest.raises(ab.DomainMismatch):
            ab.high_from_doc(doc)

    @pytest.mark.parametrize("fallback", [None, "uniform"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", ["insurance", "hospital", "cholesterol"])
    def test_fixture_documents_round_trip(self, name, policy, fallback):
        low = ab.load_scm(fixture_path(name + ".json"))
        cm = ab.load_clusters(low, fixture_path(name + "_clusters.json"))
        assert_document_round_trips(low, ab.construct_projected_abstraction(
            low, cm, policy=policy, fallback=fallback))

    @pytest.mark.parametrize("p_a,fallback", [
        (None, None), (None, "uniform"), (1, "uniform")])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_confounded_chain_documents_round_trip(self, seed, p_a, fallback):
        """Under the general policy the confounded chain's BH reads the
        shared block US, so its document lists the shared noise members,
        and no longer the shared blocks they restate. A document that still
        has that key loads into the same model, whatever it holds. With A's noise fixed at 1
        some contexts have no mass, which only the uniform fallback lets
        the replay pass."""
        low, cm = build_lossy_chain(random.Random(seed), confounded=True,
                                    p_a=p_a)
        high = ab.construct_projected_abstraction(low, cm, fallback=fallback)
        doc = assert_document_round_trips(low, high)
        split = next(e for e in doc["delta"]["splits"] if e["cluster"] == "BH")
        assert "shared_blocks" not in split
        assert split["rho_members"] == [["US", "s1"], ["US", "s2"]]
        for written in (["US"], "ignored"):
            split["shared_blocks"] = written
            again = ab.high_from_doc(doc)
            assert again.scm == high.scm and again.splits == high.splits


def assert_document_round_trips(low, high):
    """A projected model's document reads back into a model with the same
    document, and that model passes the replay check. Returns the
    document."""
    doc = json.loads(json.dumps(ab.high_to_doc(high)))
    again = ab.high_from_doc(doc)
    assert json.loads(json.dumps(ab.high_to_doc(again))) == doc
    assert ab.verify_partial_projection(low, again).passed
    return doc


def reference_case(name):
    """A fixture model, or a lossy chain (seed 3, unconfounded or
    confounded, A's noise drawn or fixed at 0 or 1 so that contexts of B
    have no mass), with its cluster map. Every one has a flagged
    cluster."""
    if not name.startswith("chain"):
        low = ab.load_scm(fixture_path(name + ".json"))
        return low, ab.load_clusters(low, fixture_path(name + "_clusters.json"))
    _chain, confounded, p_a = name.split("-")
    return build_lossy_chain(random.Random(3), confounded == "confounded",
                             None if p_a == "drawn" else Fraction(p_a))


REFERENCE_CASES = ["insurance", "hospital", "cholesterol"] + [
    "chain-%s-%s" % pair for pair in product(("plain", "confounded"),
                                             ("drawn", "0", "1"))]


class TestReferenceTables:
    """A cluster's sigma tables are its one reference record: the uniform
    fallback is applied to them, and both routes read the cell grid of a
    tilde setting off them."""

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_routes_share_the_cell_grid(self, name):
        low, cm = reference_case(name)
        checked = 0
        for policy, fallback in product(POLICIES, (None, "uniform")):
            high = ab.construct_projected_abstraction(
                low, cm, policy=policy, fallback=fallback)
            for split in high.splits.values():
                if not split.violator:
                    continue
                for label in split.lossy_labels():
                    q = query([ab.QueryTerm(
                        soft=(ab.SigmaMarker(split.name, label),))])
                    on_high = ab.resolve_sigma_high(high, q).terms[0].soft[0]
                    try:
                        on_low = ab.resolve_sigma(
                            low, cm, ab.lower_query(cm, q), policy=policy,
                            fallback=fallback).terms[0].soft[0]
                    except ab.ImpossibleContext:
                        assert fallback is None and not split.sigma[label]
                        continue
                    assert on_low.breaks == on_high.breaks
                    checked += 1
        assert checked

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_uniform_fallback_fills_the_tables(self, name):
        """With the uniform fallback every context of a cluster has a table
        for every label, uniform exactly where the model gives the context
        no mass."""
        low, cm = reference_case(name)
        for policy, c in product(POLICIES, cm.clusters):
            bare = projection.sigma_machinery(low, cm, c.name, policy)
            filled = projection.sigma_machinery(low, cm, c.name, policy,
                                                fallback="uniform")
            contexts = projection._all_contexts(cm.by_name, bare)
            assert filled.sigma.keys() == bare.sigma.keys()
            for label, tables in filled.sigma.items():
                k = len(c.fiber(label))
                assert tables == {
                    ctx: bare.sigma[label].get(ctx, (Fraction(1, k),) * k)
                    for ctx in contexts}


def outcome(call):
    """What ``call`` gives: its result, or the kind, message and details
    of the package error it raises."""
    try:
        return call()
    except ab.AbstraktError as err:
        return err.kind, err.message, err.details


def split_content(split):
    return split.parents, split.rho_members, split.rho_classes, split.sigma


def context_of(split, ctx):
    """A context mapping that selects ``ctx`` of the split's tables."""
    parents, cls = ctx
    shared = {}
    if split.rho_members:
        joint = next(j for j, c in split.rho_classes.items() if c == cls)
        shared = {"%s.%s" % k: v for k, v in zip(split.rho_members, joint)}
    return {"parents": dict(zip(split.parents, parents)), "shared": shared}


def assert_warm_answers_as_fresh(warm, low, cm):
    """Every cluster's reference tables, one context's sigma distribution
    per label and one tilde query per label give the same on ``warm`` as
    on a fresh copy of ``low``, under every policy and fallback."""
    last = cm.clusters[-1].members[-1]
    for policy, fallback, c in product(POLICIES, (None, "uniform"),
                                       cm.clusters):
        got, want = (projection.sigma_machinery(m, cm, c.name, policy,
                                                fallback=fallback)
                     for m in (warm, fresh(low)))
        assert split_content(got) == split_content(want)
        for label in c.labels():
            if want.sigma[label]:
                context = context_of(want, next(iter(want.sigma[label])))
                assert outcome(lambda m=warm: ab.sigma_distribution(
                    m, cm, c.name, label, policy, context,
                    fallback=fallback)) == outcome(
                        lambda: ab.sigma_distribution(
                            fresh(low), cm, c.name, label, policy, context,
                            fallback=fallback))
            q = ab.lower_query(cm, query([ab.QueryTerm(
                outcomes=(atom(cm.member_cluster[last], cm.by_name[
                    cm.member_cluster[last]].labels()[0]),),
                soft=(ab.SigmaMarker(c.name, label),))]))
            assert outcome(lambda m=warm: ab.prob_query(m, ab.resolve_sigma(
                m, cm, q, policy, fallback=fallback))) == outcome(
                    lambda m=fresh(low): ab.prob_query(m, ab.resolve_sigma(
                        m, cm, q, policy, fallback=fallback)))


class TestKeptReferenceTables:
    """sigma_machinery keeps each split it builds on the model it was
    given, per (cluster map content, cluster, policy, fallback). A kept
    split changes no answer, refusal or written byte."""

    def test_one_table_per_key(self, insurance, insurance_cm, monkeypatch):
        """The construction fills the memo, and no later tilde query or
        sigma distribution of the same key builds a table again; the kept
        split keeps every label, as the construction trims a copy."""
        model = fresh(insurance)
        built = []
        real = projection.counterfactual_table

        def counted(m, *args, **kwargs):
            if m is model:
                built.append(args)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(projection, "counterfactual_table", counted)
        high = ab.construct_projected_abstraction(model, insurance_cm)
        assert len(built) == 1
        q = sigma_marker_query([("Y", 1)], "XH", "xC")
        z1 = {"parents": {"Z": "z1"}}
        for _ in range(3):
            assert ab.prob_query(model, ab.resolve_sigma(
                model, insurance_cm, q)) == Fraction(149, 250)
            assert ab.sigma_distribution(model, insurance_cm, "XH", "xC",
                                         context=z1) == \
                ab.sigma_distribution(fresh(insurance), insurance_cm, "XH",
                                      "xC", context=z1)
        assert len(built) == 1
        (kept,) = [split for _states, split in model._sigma.values()]
        assert set(kept.sigma) == {"xC", "xE"}
        assert set(high.splits["XH"].sigma) == {"xC"}
        assert kept.block is None and not kept.component
        ab.resolve_sigma(model, insurance_cm, q, policy="agnostic")
        ab.resolve_sigma(model, insurance_cm, q, fallback="uniform")
        assert len(built) == len(model._sigma) == 3

    def test_maps_share_tables_only_when_equal(self, insurance):
        """Two maps share a model's tables exactly when their clusters'
        names, members, labels and tuples are equal, in order and type."""
        model = fresh(insurance)
        with open(fixture_path("insurance_clusters.json")) as fh:
            doc = json.load(fh)
        first, equal = (ab.validate_clusters(model, copy.deepcopy(doc))
                        for _ in range(2))
        kept = projection.sigma_machinery(model, first, "XH", "general")
        assert projection.sigma_machinery(model, equal, "XH", "general") \
            is kept
        relabeled = copy.deepcopy(doc)
        relabeled["clusters"][2]["values"][1]["label"] = True
        other = ab.validate_clusters(model, relabeled)
        assert other.key != first.key
        assert projection.sigma_machinery(model, other, "XH", "general") \
            is not kept
        assert len(model._sigma) == 2

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(cluster_map_cases())
    def test_warm_model_answers_as_fresh(self, case):
        """A model that has built its projected model and answered another
        map under other policies and fallbacks gives every split, sigma
        distribution and tilde answer a fresh one gives."""
        low, cm = case
        warm = fresh(low)
        ab.construct_projected_abstraction(warm, cm, "markovian",
                                           fallback="uniform")
        identity = identity_clusters(low)
        for policy, c in product(POLICIES, identity.clusters):
            projection.sigma_machinery(warm, identity, c.name, policy)
        assert_warm_answers_as_fresh(warm, low, cm)

    @pytest.mark.parametrize("name", ["insurance", "chain-confounded-drawn"])
    def test_warm_fixture_answers_as_fresh(self, name):
        low, cm = reference_case(name)
        warm = fresh(low)
        for policy, fallback in product(POLICIES, (None, "uniform")):
            ab.construct_projected_abstraction(warm, cm, policy,
                                               fallback=fallback)
        assert_warm_answers_as_fresh(warm, low, cm)

    @pytest.mark.parametrize("partial", [False, True])
    def test_warm_model_meets_every_gate(self, insurance, insurance_cm,
                                         partial):
        """At and just below each gate a fresh call meets, a warm model
        gives what a fresh one gives: the sigma computation's states, and
        with Z left out of the map first project_full's mechanism rows. The
        model keeps no split of a map that leaves a variable out."""
        model = fresh(insurance)
        cm, keep = insurance_cm, set(model.var_index)
        if partial:
            cm, keep = ab.validate_clusters(model, {"clusters": [
                {"name": "XH", "members": ["X"],
                 "values": [{"label": "xC", "tuples": [["x1"], ["x2"]]},
                            {"label": "xE", "tuples": [["x3"]]}]},
                {"name": "Y", "members": ["Y"],
                 "values": [{"label": 0, "tuples": [[0]]},
                            {"label": 1, "tuples": [[1]]}]}]}), {"X", "Y"}
        states = ab.project_full(model, keep).exogenous_support_size()
        gates = sorted({*projected_rows(model, keep).values(), states}
                       if partial else {states})
        for policy in POLICIES:
            projection.sigma_machinery(model, cm, "XH", policy)
        assert len(model._sigma) == (0 if partial else len(POLICIES))
        z = {"parents": {}, "shared": {}}
        q = sigma_marker_query([("Y", 1)], "XH", "xC")
        refused = set()
        for gate, policy in product(gates, POLICIES):
            for budget in (gate - 1, gate):
                got, want = ([
                    outcome(lambda: split_content(projection.sigma_machinery(
                        m, cm, "XH", policy, budget))),
                    outcome(lambda: ab.sigma_distribution(
                        m, cm, "XH", "xC", policy, z if policy == "agnostic"
                        else None, budget)),
                    outcome(lambda: ab.resolve_sigma(
                        m, cm, q, policy, budget).terms[0].soft[0].breaks)]
                    for m in (model, fresh(insurance)))
                assert got == want, (gate, budget, policy)
                refused.update(w[1] for w in want if isinstance(w, tuple)
                               and w[0] == "SizeExceeded")
        assert partial == any(m.startswith("projected mechanism")
                              for m in refused)
        assert any(m.startswith("sigma computation") for m in refused)

    def test_memo_stops_at_the_cache_limit(self, monkeypatch):
        monkeypatch.setattr(projection, "CACHE_LIMIT", 2)
        low, cm = reference_case("chain-confounded-drawn")
        model = fresh(low)
        label = cm.by_name["BH"].lossy_labels()[0]
        q = ab.lower_query(cm, sigma_marker_query([("C", 1)], "BH", label))
        for _ in range(2):
            for policy in POLICIES:
                assert ab.prob_query(model, ab.resolve_sigma(
                    model, cm, q, policy)) == ab.prob_query(
                        low, ab.resolve_sigma(fresh(low), cm, q, policy))
        assert len(model._sigma) == 2


LEGACY_DOCUMENT = fixture_path("unreachable_context_uniform_high.json")


class TestLegacyDocument:
    """A uniform-fallback document written before the sigma tables held
    the uniform fill lists only the tables with mass, plus cell breaks,
    fills and per-context cell maps that are no longer read. Loading it
    fills the same tables, so it answers as a fresh build does."""

    def test_answers_as_a_fresh_build(self):
        with open(LEGACY_DOCUMENT, encoding="utf-8") as fh:
            delta = json.load(fh)["delta"]
        split = next(e for e in delta["splits"] if e["cluster"] == "XH")
        assert delta["fallback"] == "uniform"
        assert "breaks" in split["cells"][0]
        assert len(split["sigma"][0]["contexts"]) == 1
        assert len(split["cells"][0]["contexts"]) == 2
        low, cm = unreachable_context_model()
        fresh = ab.construct_projected_abstraction(low, cm,
                                                   fallback="uniform")
        old = ab.load_high(LEGACY_DOCUMENT)
        assert old.splits["XH"].sigma == fresh.splits["XH"].sigma
        got, want = (ab.verify_partial_projection(low, h) for h in (old, fresh))
        assert got.passed and (got.checked, got.mismatch_count) == (
            want.checked, want.mismatch_count)
        for z in ("z1", "z2"):
            context = {"parents": {"Z": z}}
            assert ab.projected_sample(old, "XH", "lo", context=context,
                                       seed=5, n=40) == \
                ab.projected_sample(fresh, "XH", "lo", context=context,
                                    seed=5, n=40)
        for y, hard in product((0, 1), ((), ("z1",), ("z2",))):
            q = query([ab.QueryTerm(
                outcomes=(atom("Y", y),),
                hard=tuple(ab.HardIntervention("Z", z) for z in hard),
                soft=(ab.SigmaMarker("XH", "lo"),))])
            assert ab.prob_query(old.scm, ab.resolve_sigma_high(old, q)) == \
                ab.prob_query(fresh.scm, ab.resolve_sigma_high(fresh, q))


class TestRouteAgreement:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the cell block draws one independent member per context, so two "
        "worlds whose flagged cluster sits in different contexts lose the "
        "coupling the low model's shared noise gives them"))
    def test_worlds_in_different_contexts(self, cholesterol, cholesterol_cm):
        """Low and projected answers to queries whose worlds give a flagged
        cluster's parents different values: cholesterol (general policy)
        and an unconfounded lossy chain (markovian and general)."""
        cases = [(cholesterol, cholesterol_cm, "general", query(
            [term([("Y", 0)], [("X", 1)])], [term([("Y", 0)], [("X", 0)])]))]
        low, cm = build_lossy_chain(random.Random(0))
        for policy in ("markovian", "general"):
            cases.append((low, cm, policy, query(
                [ab.QueryTerm(outcomes=(atom("C", 1),),
                              soft=(ab.SigmaMarker("A", 1),))],
                [term([("C", 1)])])))
        got, want = [], []
        for low, cm, policy, q in cases:
            high = ab.construct_projected_abstraction(low, cm, policy=policy)
            want.append(ab.prob_query(low, ab.resolve_sigma(
                low, cm, ab.lower_query(cm, q), policy=policy)))
            got.append(ab.prob_query(high.scm, ab.resolve_sigma_high(high, q)))
        assert got == want
