"""Mixed graphs: construction, separation, components, the rewrite rules,
and the graph-vs-model consistency check."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import abstrakt as ab
from conftest import (build_dag_model, identity_clusters, term, query)


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
        g = ab.build_cdag(ab.induce_diagram(insurance), cm)
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
        g = ab.build_cdag(ab.induce_diagram(hospital), cm)
        assert g.directed == ()
        assert g.bidirected == (("Z", "Y"),)


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
