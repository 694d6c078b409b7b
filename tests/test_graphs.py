"""Mixed graphs: construction, separation, components, the rewrite rules,
and the graph-vs-model consistency check."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings

import abstrakt as ab
from abstrakt import graphs
from abstrakt.cli import run
from abstrakt.projection import POLICIES
from conftest import (build_dag_model, build_lossy_chain, cluster_map_cases,
                      fixture_path, identity_clusters,
                      noiseless_mediator_docs, term, query)


class TestMakeGraph:
    def test_canonical_form(self):
        g = ab.make_graph(("C", "A", "B"),
                          (("A", "B"), ("A", "B"), ("A", "C")),
                          (("B", "A"),))
        assert g.nodes == ("C", "A", "B")
        assert g.directed == (("A", "C"), ("A", "B"))
        assert g.bidirected == (("A", "B"),)

    def test_bidirected_normalized_by_position(self):
        g = ab.make_graph(("A", "B"), (), (("B", "A"),))
        assert g.bidirected == (("A", "B"),)

    def test_self_loop_rejected(self):
        with pytest.raises(ab.ValidationError):
            ab.make_graph(("A",), (("A", "A"),), ())

    def test_unknown_node_rejected(self):
        with pytest.raises(ab.ValidationError):
            ab.make_graph(("A",), (("A", "B"),), ())

    def test_cycle_detected(self):
        g = ab.make_graph(("A", "B"), (("A", "B"), ("B", "A")), ())
        with pytest.raises(ab.CyclicDependencies):
            ab.topological_order(g)


class TestAncestry:
    def test_ancestors(self):
        g = ab.make_graph(("A", "B", "C", "D"),
                          (("A", "B"), ("B", "C")), (("C", "D"),))
        assert ab.ancestors(g, ("C",)) == {"A", "B", "C"}
        assert ab.ancestors(g, ("D",)) == {"D"}

    def test_c_components(self):
        g = ab.make_graph(("A", "B", "C", "D"),
                          (("A", "B"),), (("A", "C"), ("C", "D")))
        comps = ab.c_components(g)
        assert sorted(sorted(c) for c in comps) == [["A", "C", "D"], ["B"]]

    def test_c_components_subset(self):
        g = ab.make_graph(("A", "B", "C"), (), (("A", "B"), ("B", "C")))
        comps = ab.c_components(g, subset=("A", "C"))
        assert sorted(sorted(c) for c in comps) == [["A"], ["C"]]


class TestSeparation:
    def test_chain(self):
        g = ab.make_graph(("A", "B", "C"), (("A", "B"), ("B", "C")), ())
        assert not ab.d_separated(g, ("A",), ("C",), ())
        assert ab.d_separated(g, ("A",), ("C",), ("B",))

    def test_collider(self):
        g = ab.make_graph(("A", "B", "C"), (("A", "B"), ("C", "B")), ())
        assert ab.d_separated(g, ("A",), ("C",), ())
        assert not ab.d_separated(g, ("A",), ("C",), ("B",))

    def test_collider_descendant_opens(self):
        g = ab.make_graph(("A", "B", "C", "D"),
                          (("A", "B"), ("C", "B"), ("B", "D")), ())
        assert not ab.d_separated(g, ("A",), ("C",), ("D",))

    def test_deeper_descendant_opens(self):
        """A walk down B -> E -> D to the conditioned D and back opens the
        collider at B."""
        g = ab.make_graph(("A", "B", "C", "D", "E"),
                          (("A", "B"), ("C", "B"), ("B", "E"), ("E", "D")),
                          ())
        assert not ab.d_separated(g, ("A",), ("C",), ("D",))

    def test_descendant_opens_a_bidirected_collider(self):
        g = ab.make_graph(("A", "B", "C", "D"), (("C", "B"), ("B", "D")),
                          (("A", "B"),))
        assert ab.d_separated(g, ("A",), ("C",), ())
        assert not ab.d_separated(g, ("A",), ("C",), ("D",))

    def test_bidirected_connects(self):
        g = ab.make_graph(("A", "B"), (), (("A", "B"),))
        assert not ab.d_separated(g, ("A",), ("B",), ())

    def test_bidirected_chain_is_a_collider(self):
        g = ab.make_graph(("Z", "X", "Y"), (), (("Z", "X"), ("X", "Y")))
        assert ab.d_separated(g, ("Z",), ("Y",), ())
        assert not ab.d_separated(g, ("Z",), ("Y",), ("X",))

    def test_overlapping_sets_rejected(self):
        g = ab.make_graph(("A", "B"), (("A", "B"),), ())
        with pytest.raises(ab.ValidationError):
            ab.d_separated(g, ("A",), ("A",), ())

    def test_matches_networkx(self):
        """On random small mixed graphs, with every bidirected edge
        expanded into a latent common parent, separation agrees with
        networkx's d-separation for every pair of nodes under every
        conditioning set, and for random disjoint sets of several nodes."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for _trial in range(60):
            nodes = ["V%d" % i for i in range(rng.randint(2, 6))]
            pairs = list(combinations(nodes, 2))
            directed = [p for p in pairs if rng.random() < 0.4]
            bidirected = [p for p in pairs if rng.random() < 0.25]
            g = ab.make_graph(nodes, directed, bidirected)
            dag = nx.DiGraph()
            dag.add_nodes_from(nodes)
            dag.add_edges_from(directed)
            for a, b in bidirected:
                dag.add_edges_from([(("L", a, b), a), (("L", a, b), b)])
            for a, b in pairs:
                others = [v for v in nodes if v not in (a, b)]
                for k in range(len(others) + 1):
                    for zs in combinations(others, k):
                        assert ab.d_separated(g, (a,), (b,), zs) == \
                            nx.is_d_separator(dag, {a}, {b}, set(zs)), \
                            (directed, bidirected, a, b, zs)
            for _ in range(10):
                order = rng.sample(nodes, len(nodes))
                i = rng.randint(1, len(nodes) - 1)
                j = rng.randint(i + 1, len(nodes))
                xs, ys, zs = order[:i], order[i:j], order[j:]
                assert ab.d_separated(g, xs, ys, zs) == \
                    nx.is_d_separator(dag, set(xs), set(ys), set(zs)), \
                    (directed, bidirected, xs, ys, zs)

    def test_separation_implies_independence(self):
        # on fully observed random models, every m-separation must show up
        # as an exact conditional independence in the joint table
        rng = random.Random(77)
        for trial in range(3):
            nodes = ["V1", "V2", "V3", "V4"]
            slots = [(a, b) for i, a in enumerate(nodes)
                     for b in nodes[i + 1:]]
            edges = [e for e in slots if rng.random() < 0.5]
            scm = build_dag_model(nodes, edges, rng)
            g = ab.make_graph(tuple(nodes), tuple(edges), ())
            table = ab.joint_distribution(scm, tuple(nodes))
            checked = 0
            for a, b in combinations(nodes, 2):
                others = [n for n in nodes if n not in (a, b)]
                for k in range(len(others) + 1):
                    for zs in combinations(others, k):
                        if not ab.d_separated(g, (a,), (b,), zs):
                            continue
                        checked += 1
                        assert _independent(table, a, b, zs), \
                            (trial, a, b, zs)
            assert checked > 0


def _independent(table, a, b, zs):
    idx = {v: i for i, v in enumerate(table.variables)}
    for z_vals in product(*((0, 1) for _ in zs)):
        def mass(fix):
            total = Fraction(0)
            for values, p in table.probs.items():
                if all(values[idx[v]] == val for v, val in fix.items()):
                    total += p
            return total
        base = dict(zip(zs, z_vals))
        pz = mass(base)
        if pz == 0:
            continue
        for av in (0, 1):
            for bv in (0, 1):
                joint = mass({**base, a: av, b: bv})
                pa = mass({**base, a: av})
                pb = mass({**base, b: bv})
                if joint * pz != pa * pb:
                    return False
    return True


class TestClusterDiagram:
    def test_insurance_cdag(self, insurance, insurance_cm):
        g = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        assert g.nodes == ("Z", "XH", "Y")
        assert set(g.directed) == {("Z", "XH"), ("XH", "Y")}
        assert g.bidirected == ()

    def test_hospital_cdag(self, hospital, hospital_cm):
        g = ab.build_cdag(ab.induce_diagram(hospital), hospital_cm)
        assert set(g.directed) == {("XH", "Y")}
        assert set(g.bidirected) == {("Z", "XH")}

    def test_latent_projection_directed(self, insurance):
        doc = {"clusters": [
            {"name": "Z", "members": ["Z"], "values": [
                {"label": z, "tuples": [[z]]} for z in ("z1", "z2")]},
            {"name": "Y", "members": ["Y"], "values": [
                {"label": y, "tuples": [[y]]} for y in (0, 1)]},
        ]}
        cm = ab.validate_clusters(insurance, doc)
        small = ab.project_full(insurance, cm.covered_variables())
        g = ab.build_cdag(ab.induce_diagram(small), cm)
        # Z -> X -> Y with X dropped becomes Z -> Y
        assert g.directed == (("Z", "Y"),)
        assert g.bidirected == ()

    def test_latent_projection_confounder(self, hospital):
        # dropping X: Z <-> X -> Y leaves a Z <-> Y confounding trace
        doc = {"clusters": [
            {"name": "Z", "members": ["Z"], "values": [
                {"label": z, "tuples": [[z]]} for z in ("z1", "z2")]},
            {"name": "Y", "members": ["Y"], "values": [
                {"label": y, "tuples": [[y]]} for y in (0, 1)]},
        ]}
        cm = ab.validate_clusters(hospital, doc)
        small = ab.project_full(hospital, cm.covered_variables())
        g = ab.build_cdag(ab.induce_diagram(small), cm)
        assert g.directed == ()
        assert g.bidirected == (("Z", "Y"),)

    def test_unclustered_variable_is_projected_by_the_model(self, tmp_path):
        # W = Z reads no noise, so dropping it leaves Z -> X, Z -> Y and no
        # confounding; only the model knows that, so the diagram of the
        # full model is refused
        model, clusters = noiseless_mediator_docs()
        scm = ab.validate_scm(model)
        cm = ab.validate_clusters(scm, clusters)
        with pytest.raises(ab.NotClusterUnion, match="W") as err:
            ab.build_cdag(ab.induce_diagram(scm), cm)
        assert err.value.details == {"variables": ["W"]}
        small = ab.project_full(scm, cm.covered_variables())
        g = ab.build_cdag(ab.induce_diagram(small), cm)
        assert g.bidirected == ()
        paths = []
        for name, doc in (("model.json", model), ("clusters.json", clusters)):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        r = run(["cdag", "--scm", paths[0], "--clusters", paths[1]])
        assert r.exit_code == 0
        assert r.payload["directed"] == [list(e) for e in g.directed]
        assert r.payload["bidirected"] == []


class TestRewriteRules:
    def test_mediator_rule(self):
        left = ab.make_graph(("Z", "X", "Y"),
                             (("Z", "X"), ("X", "Y")), ())
        got = ab.build_projected_cdag(left, ("X",))
        assert set(got.directed) == {("Z", "X"), ("X", "Y"), ("Z", "Y")}
        assert got.bidirected == ()
        assert got.projected
        assert got.violators == ("X",)

    def test_confounder_rule(self):
        left = ab.make_graph(("Z", "X", "Y"),
                             (("X", "Y"),), (("Z", "X"),))
        got = ab.build_projected_cdag(left, ("X",))
        assert set(got.directed) == {("X", "Y")}
        assert set(got.bidirected) == {("Z", "X"), ("Z", "Y"), ("X", "Y")}

    def test_common_cause_rule(self):
        left = ab.make_graph(("Z", "X", "Y"),
                             (("X", "Z"), ("X", "Y")), ())
        got = ab.build_projected_cdag(left, ("X",))
        assert set(got.directed) == {("X", "Z"), ("X", "Y")}
        assert set(got.bidirected) == {("Z", "Y")}

    def test_empty_violators_is_noop(self):
        g = ab.make_graph(("Z", "X", "Y"),
                          (("Z", "X"), ("X", "Y")), (("Z", "Y"),))
        got = ab.build_projected_cdag(g, ())
        assert got.directed == g.directed
        assert got.bidirected == g.bidirected
        assert got.violators == ()

    def test_closure_is_stable(self):
        g = ab.make_graph(("A", "B", "C", "D"),
                          (("A", "B"), ("B", "C"), ("B", "D")),
                          (("A", "B"),))
        once = ab.build_projected_cdag(g, ("B",))
        twice = ab.build_projected_cdag(once, ("B",))
        assert set(once.directed) == set(twice.directed)
        assert set(once.bidirected) == set(twice.bidirected)

    def test_random_graphs_converge(self):
        rng = random.Random(5150)
        for _ in range(200):
            n = rng.randint(1, 6)
            nodes = tuple("N%d" % i for i in range(n))
            directed = tuple((nodes[i], nodes[j])
                             for i in range(n) for j in range(i + 1, n)
                             if rng.random() < 0.4)
            bidirected = tuple((nodes[i], nodes[j])
                               for i in range(n) for j in range(i + 1, n)
                               if rng.random() < 0.25)
            violators = tuple(v for v in nodes if rng.random() < 0.3)
            g = ab.make_graph(nodes, directed, bidirected)
            got = ab.build_projected_cdag(g, violators)
            again = ab.build_projected_cdag(got, violators)
            assert set(got.directed) == set(again.directed)
            assert set(got.bidirected) == set(again.bidirected)


    @pytest.mark.parametrize("fallback", [None, "uniform"])
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=cluster_map_cases())
    def test_projected_model_keeps_to_the_rules(self, policy, fallback,
                                                case):
        """Every edge of the projected model's own diagram is one the
        rewrite rules put in the cluster diagram. The rules may put in
        more: over the first 400 derandomized cases the two diagrams were
        equal in 400 under general, 290 under markovian and 254 under
        agnostic, with either fallback. A wider search found a general
        case too: violator K0 with children K1, K2 and K3, K3 also a parent
        of K1 and K2, where the rules confound every pair of the children
        and the model only K1 and K2."""
        scm, cm = case
        report = ab.check_aic(scm, cm)
        rules = ab.build_projected_cdag(
            ab.build_cdag(ab.induce_diagram(report.scm), cm),
            report.violators)
        own = ab.induce_diagram(ab.construct_projected_abstraction(
            scm, cm, policy=policy, fallback=fallback).scm)
        assert set(own.directed) <= set(rules.directed)
        assert set(map(frozenset, own.bidirected)) <= set(
            map(frozenset, rules.bidirected))


class TestModelConsistencyCheck:
    def test_true_graph_passes(self):
        rng = random.Random(31)
        for _ in range(3):
            nodes = ["V1", "V2", "V3"]
            slots = [(a, b) for i, a in enumerate(nodes)
                     for b in nodes[i + 1:]]
            edges = [e for e in slots if rng.random() < 0.5]
            scm = build_dag_model(nodes, edges, rng)
            cm = identity_clusters(scm)
            g = ab.build_cdag(ab.induce_diagram(scm), cm)
            rep = ab.ctfbn_check(g, scm)
            assert rep.passed, rep.violations[:2]

    def test_unprojected_graph_fails(self, insurance, insurance_cm,
                                     insurance_high):
        cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        rep = ab.ctfbn_check(cdag, insurance_high.scm)
        assert not rep.passed
        kinds = {v.kind for v in rep.violations}
        assert "exclusion" in kinds

    def test_projected_graph_passes(self, insurance, insurance_cm,
                                    insurance_high):
        cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        rep = ab.check_aic(insurance, insurance_cm)
        projected = ab.build_projected_cdag(cdag, rep.violators)
        out = ab.ctfbn_check(projected, insurance_high.scm)
        assert out.passed

    def test_tables_give_the_prob_query_report(self, insurance, insurance_cm,
                                               insurance_high, monkeypatch):
        """ctfbn_check reads each probability off one table per signature
        and keeps nothing in the model's world cache; answering every
        table entry with prob_query instead gives the same report."""
        cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        projected = ab.build_projected_cdag(
            cdag, ab.check_aic(insurance, insurance_cm).violators)
        added = sorted(set(projected.directed) - set(cdag.directed))
        pruned = ab.make_graph(
            projected.nodes, [e for e in projected.directed if e != added[0]],
            projected.bidirected, projected=True)
        high = insurance_high.scm

        def fresh():
            return ab.DiscreteScm(high.endogenous, high.blocks,
                                  high.mechanisms)

        reports = []
        for g in (cdag, projected, pruned):
            model = fresh()
            reports.append(ab.ctfbn_check(g, model, max_terms=3))
            assert model._world_cache == {}
        assert [r.passed for r in reports] == [False, True, False]

        def table_by_prob_query(scm, terms, budget=None):
            reads = [[v for oc in t.outcomes for v in oc.variables]
                     for t in terms]
            probs = {}
            for key in product(*(product(*map(scm.domain, r))
                                 for r in reads)):
                asked = [ab.QueryTerm(
                    outcomes=tuple(ab.OutcomeAtom((v,), frozenset({(x,)}))
                                   for v, x in zip(r, values)),
                    hard=t.hard) for t, r, values in zip(terms, reads, key)]
                probs[key] = ab.prob_query(scm, query(asked), budget)
            den = math.lcm(*(p.denominator for p in probs.values()))
            return den, {k: int(p * den) for k, p in probs.items() if p}

        monkeypatch.setattr(graphs, "counterfactual_table",
                            table_by_prob_query)
        assert [ab.ctfbn_check(g, fresh(), max_terms=3)
                for g in (cdag, projected, pruned)] == reports


def audited_models():
    """The projected models of the three fixtures and of a violator and a
    clean lossy chain, each with its projected, unprojected and pruned
    cluster diagrams (the projected one less one edge, for each edge)."""
    pairs = []
    for name in ("insurance", "hospital", "cholesterol"):
        low = ab.load_scm(fixture_path(name + ".json"))
        pairs.append((name, low, ab.load_clusters(
            low, fixture_path(name + "_clusters.json"))))
    kinds = {}
    rng = random.Random(5)
    while len(kinds) < 2:
        low, cm = build_lossy_chain(rng, rng.random() < 0.5)
        kind = bool(ab.check_aic(low, cm).violators)
        if kind not in kinds:
            kinds[kind] = ("chain.%s" % ("violator" if kind else "clean"),
                           low, cm)
    pairs += [kinds[True], kinds[False]]
    out = []
    for name, low, cm in pairs:
        cdag = ab.build_cdag(ab.induce_diagram(low), cm)
        proj = ab.build_projected_cdag(cdag, ab.check_aic(low, cm).violators)
        pruned = [ab.make_graph(proj.nodes,
                                [e for e in proj.directed if e != edge],
                                proj.bidirected, projected=True)
                  for edge in proj.directed]
        pruned += [ab.make_graph(proj.nodes, proj.directed,
                                 [e for e in proj.bidirected if e != edge],
                                 projected=True)
                   for edge in proj.bidirected]
        high = ab.construct_projected_abstraction(low, cm)
        out.append((name, high.scm, [proj, cdag] + pruned))
    return out


class TestKeptTables:
    """counterfactual_table keeps its tables on the model, so audits of
    several diagrams of one model share them: on one model that audits
    every diagram of it twice, in order and then in reverse, each report
    is a fresh model's."""

    def test_warm_reports_equal_fresh_ones(self):
        for name, high, diagrams in audited_models():
            def fresh():
                return ab.DiscreteScm(high.endogenous, high.blocks,
                                      high.mechanisms)
            warm = fresh()
            for g in diagrams + diagrams[::-1]:
                for max_terms in (2, 3):
                    got = ab.ctfbn_check(g, warm, max_terms=max_terms)
                    assert got == ab.ctfbn_check(g, fresh(),
                                                 max_terms=max_terms), name
            assert warm._tables and warm._world_cache == {}


class TestInducedDiagram:
    """A model's own diagram (``induce_diagram``) goes to ctfbn_check and
    identify_effect as it is: the report and the decisions are the ones
    its identity-cluster diagram gives."""

    @staticmethod
    def models():
        out = [ab.load_scm(fixture_path(name + ".json"))
               for name in ("insurance", "hospital", "cholesterol")]
        rng = random.Random(7)
        for shared in ((), ("V1", "V3"), ("V2", "V4")):
            nodes = ["V1", "V2", "V3", "V4"]
            slots = list(combinations(nodes, 2))
            edges = [e for e in slots if rng.random() < 0.5]
            out.append(build_dag_model(nodes, edges, rng, shared=shared))
        return out

    def test_same_as_identity_clusters(self):
        for scm in self.models():
            own = ab.induce_diagram(scm)
            via = ab.build_cdag(own, identity_clusters(scm))
            assert ab.ctfbn_check(own, scm) == ab.ctfbn_check(via, scm)
            for x, y in permutations(scm.variable_names(), 2):
                rest = [v for v in scm.variable_names() if v not in (x, y)]
                for given in ({}, {v: scm.domain(v)[0] for v in rest[:1]}):
                    q = ab.IdQuery(outcome={y: scm.domain(y)[-1]},
                                   do={x: scm.domain(x)[0]}, given=given)
                    assert ab.identify_effect(own, q) == \
                        ab.identify_effect(via, q)


class TestReportFormat:
    """The counts and the rendering of each family of checks, pinned on
    the insurance model's cluster diagram and its projection."""

    @pytest.fixture
    def diagrams(self, insurance, insurance_cm):
        cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
        projected = ab.build_projected_cdag(
            cdag, ab.check_aic(insurance, insurance_cm).violators)
        return cdag, projected

    def test_checked_counts(self, diagrams, insurance_high):
        cdag, projected = diagrams
        counts = [ab.ctfbn_check(g, insurance_high.scm, max_terms=k).checked
                  for g in (cdag, projected) for k in (2, 3)]
        assert counts == [88, 120, 124, 188]

    def test_factorization_and_exclusion_rendering(self, diagrams,
                                                   insurance_high):
        rep = ab.ctfbn_check(diagrams[0], insurance_high.scm)
        assert not rep.truncated
        assert graphs.CtfbnViolation(
            "factorization",
            "P(Z=z1, Y[XH=xC]=0) != P(Z=z1) * P(Y[XH=xC]=0)",
            Fraction(91, 500), Fraction(707, 2500)) in rep.violations
        assert graphs.CtfbnViolation(
            "exclusion", "P(Y[XH=xC;Z=z1]=0) != P(Y[XH=xC]=0)",
            Fraction(13, 50), Fraction(101, 250)) in rep.violations

    def test_consistency_rendering(self, diagrams, insurance_high,
                                   monkeypatch):
        """Composition holds in every SCM, so a consistency violation
        needs a faulty evaluator: this one halves every two-term table
        whose second term observes what the first term sets."""
        real = graphs.counterfactual_table

        def halving(scm, terms, budget=None):
            den, table = real(scm, terms, budget=budget)
            if len(terms) == 2 and {
                    v for oc in terms[1].outcomes for v in oc.variables} <= {
                    h.variable for h in terms[0].hard}:
                den *= 2
            return den, table

        monkeypatch.setattr(graphs, "counterfactual_table", halving)
        rep = ab.ctfbn_check(diagrams[1], insurance_high.scm)
        assert rep.checked == 124
        assert rep.truncated
        assert len(rep.violations) == 25
        assert rep.violations[0] == graphs.CtfbnViolation(
            "consistency", "P(XH=xC, Z=z1) != P(XH[Z=z1]=xC, Z=z1)",
            Fraction(7, 20), Fraction(7, 40))


class TestSerialization:
    def test_doc_round_trip(self):
        g = ab.make_graph(("Z", "X", "Y"), (("Z", "X"), ("X", "Y")),
                          (("Z", "Y"),), projected=True, violators=("X",))
        again = ab.graph_from_doc(ab.graph_to_doc(g))
        assert again == g

    def test_save_load(self, tmp_path):
        g = ab.make_graph(("A", "B"), (("A", "B"),), ())
        path = str(tmp_path / "g.json")
        ab.save_graph(g, path)
        assert ab.load_graph(path) == g

    def test_dot_output(self):
        g = ab.make_graph(("A", "B", "C"), (("A", "B"),), (("B", "C"),))
        dot = ab.to_dot(g)
        assert "A" in dot and "->" in dot
        assert "dir=both" in dot
