"""Acceptance suite: one test per advertised guarantee of the package.

Run ``pytest tests/test_acceptance.py -v`` to get a single pass or fail
line per guarantee. Every probability assertion is an exact comparison
between Fractions. The only tolerance in this file belongs to the
sampling guarantee itself, whose contract is stated in frequencies.
"""

import itertools
import random
from fractions import Fraction

import abstrakt as ab
from abstrakt import graphs
from abstrakt.cli import run
from conftest import (all_dag_structures, atom, build_dag_model,
                      build_lossy_chain, fixture_path, identity_clusters,
                      term, query)


def marker_query(outcome_pairs, cluster, label, conditioning=()):
    t = ab.QueryTerm(outcomes=tuple(atom(v, val) for v, val in outcome_pairs),
                     soft=(ab.SigmaMarker(cluster, label),))
    return query([t], conditioning)


def projected_graph(scm, cm):
    rep = ab.check_aic(scm, cm)
    cdag = ab.build_cdag(ab.induce_diagram(rep.scm), cm)
    return ab.build_projected_cdag(cdag, rep.violators)


def test_01_exact_interventional_valuation(insurance):
    """Hard interventional probabilities are computed as exact rationals."""
    got1 = ab.prob_query(insurance, query([term([("Y", 1)], [("X", "x1")])]))
    got2 = ab.prob_query(insurance, query([term([("Y", 1)], [("X", "x2")])]))
    assert got1 == Fraction(9, 10)
    assert got2 == Fraction(1, 10)


def test_02_violator_detection_with_witnesses(insurance, insurance_cm,
                                              cholesterol, cholesterol_cm):
    """The invariance check names exactly the clusters whose merged values
    still matter downstream, and each witness replays on the low model."""
    rep = ab.check_aic(insurance, insurance_cm)
    assert rep.violators == ("XH",)
    chol_rep = ab.check_aic(cholesterol, cholesterol_cm)
    assert chol_rep.violators == ("TC",)

    for scm, cm, rep2 in ((insurance, insurance_cm, rep),
                          (cholesterol, cholesterol_cm, chol_rep)):
        for name in rep2.violators:
            w = rep2.witnesses[name]
            cluster = cm.cluster(name)
            labels = []
            for raw in (w.left, w.right):
                hard = dict(zip(cluster.members, raw))
                for other, vals in w.others.items():
                    hard.update(zip(cm.cluster(other).members, vals))
                world = ab.evaluate_unit(scm, dict(w.unit), hard=hard)
                child = cm.cluster(w.child)
                labels.append(child.label_of(
                    tuple(world[m] for m in child.members)))
            assert tuple(labels) == w.outputs
            assert labels[0] != labels[1]

    for scm in (insurance, cholesterol):
        assert ab.check_aic(scm, identity_clusters(scm)).violators == ()


def test_03_context_sensitive_reference_distributions(insurance,
                                                      insurance_cm):
    """The reference distribution over a merged value's members depends on
    the in-world context of the cluster's parents."""
    d1 = ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                               context={"parents": {"Z": "z1"}})
    d2 = ab.sigma_distribution(insurance, insurance_cm, "XH", "xC",
                               context={"parents": {"Z": "z2"}})
    assert d1 == {("x1",): Fraction(4, 5), ("x2",): Fraction(1, 5)}
    assert d2 == {("x1",): Fraction(1, 5), ("x2",): Fraction(4, 5)}


def _cluster_term(outcome_pairs, ivs):
    """A cluster-level term: setting the merged value xC is a
    stochastic-reference intervention, every other setting is hard."""
    hard = []
    soft = []
    for v, val in ivs:
        if (v, val) == ("XH", "xC"):
            soft.append(ab.SigmaMarker(v, val))
        else:
            hard.append(ab.HardIntervention(v, val))
    return ab.QueryTerm(
        outcomes=tuple(atom(v, val) for v, val in outcome_pairs),
        hard=tuple(hard), soft=tuple(soft))


def _cluster_level_terms():
    """All 54 single counterfactual terms over the cluster variables: one
    outcome atom, intervened by every assignment to any subset of the
    other two variables."""
    dom = {"Z": ("z1", "z2"), "XH": ("xC", "xE"), "Y": (0, 1)}
    names = list(dom)
    out = []
    for v in names:
        others = [o for o in names if o != v]
        assignments = [()]
        for k in (1, 2):
            for subset in itertools.combinations(others, k):
                for vals in itertools.product(*(dom[s] for s in subset)):
                    assignments.append(tuple(zip(subset, vals)))
        for val in dom[v]:
            for ivs in assignments:
                out.append(_cluster_term([(v, val)], ivs))
    return out


def test_04_constructed_model_answers_cluster_queries(insurance,
                                                      insurance_cm,
                                                      insurance_high):
    """The constructed high-level model gives the same exact answer as
    resolving the corresponding query on the low-level model, for every
    cluster-level query with at most two counterfactual terms."""
    for z, want in (("z1", Fraction(37, 50)), ("z2", Fraction(13, 50))):
        q = marker_query([("Y", 1)], "XH", "xC", [term([("Z", z)])])
        resolved = ab.resolve_sigma(insurance, insurance_cm, q)
        assert ab.prob_query(insurance, resolved) == want
        hq = ab.resolve_sigma_high(insurance_high, q)
        assert ab.prob_query(insurance_high.scm, hq) == want

    singles = _cluster_level_terms()
    assert len(singles) == 54
    queries = [query([t]) for t in singles]
    queries += [query([a, b]) for a, b in itertools.combinations(singles, 2)]
    assert len(queries) == 54 + 1431
    for q in queries:
        want = ab.prob_query(insurance_high.scm,
                             ab.resolve_sigma_high(insurance_high, q))
        resolved = ab.resolve_sigma(insurance, insurance_cm,
                                    ab.lower_query(insurance_cm, q))
        got = ab.prob_query(insurance, resolved)
        assert got == want, (q, got, want)


def test_05_projection_rewrite_rules():
    """Projecting around a violator adds exactly the edges of the three
    rewrite rules, and one rewrite pass in topological order reaches the
    fixpoint of iterating the rules on a thousand random mixed graphs."""
    mediator = ab.build_projected_cdag(
        ab.make_graph(("Z", "X", "Y"), (("Z", "X"), ("X", "Y")), ()), ("X",))
    assert set(mediator.directed) == {("Z", "X"), ("X", "Y"), ("Z", "Y")}
    assert mediator.bidirected == ()

    confounder = ab.build_projected_cdag(
        ab.make_graph(("Z", "X", "Y"), (("X", "Y"),), (("Z", "X"),)), ("X",))
    assert set(confounder.directed) == {("X", "Y")}
    assert set(confounder.bidirected) == {("Z", "X"), ("Z", "Y"), ("X", "Y")}

    common = ab.build_projected_cdag(
        ab.make_graph(("Z", "X", "Y"), (("X", "Z"), ("X", "Y")), ()), ("X",))
    assert set(common.directed) == {("X", "Z"), ("X", "Y")}
    assert set(common.bidirected) == {("Z", "Y")}

    untouched = ab.make_graph(("Z", "X", "Y"),
                              (("Z", "X"), ("X", "Y")), (("Z", "Y"),))
    noop = ab.build_projected_cdag(untouched, ())
    assert noop.directed == untouched.directed
    assert noop.bidirected == untouched.bidirected

    # the oracle: apply the rules for every violator, in any order, until
    # no rule adds an edge
    def fixpoint(g, violators):
        directed, bidirected = set(g.directed), set(g.bidirected)
        changed = True
        while changed:
            changed = False
            for x in violators:
                add_d, add_b = graphs._apply_rules(g._pos, directed,
                                                   bidirected, x)
                if add_d or add_b:
                    directed |= add_d
                    bidirected |= add_b
                    changed = True
        return directed, bidirected

    rng = random.Random(77)
    for _ in range(1000):
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
        assert (set(got.directed), set(got.bidirected)) == fixpoint(
            g, violators)


def test_06_constructed_model_diagram_matches_projected_graph(
        insurance, insurance_cm, insurance_high, cholesterol,
        cholesterol_cm):
    """The diagram induced by the constructed high-level model equals the
    projected cluster graph computed purely graphically."""
    proj = projected_graph(insurance, insurance_cm)
    high_d = ab.induce_diagram(insurance_high.scm)
    assert set(high_d.directed) == set(proj.directed)
    assert set(high_d.bidirected) == set(proj.bidirected)

    chol_high = ab.construct_projected_abstraction(cholesterol,
                                                   cholesterol_cm)
    proj = projected_graph(cholesterol, cholesterol_cm)
    high_d = ab.induce_diagram(chol_high.scm)
    assert set(high_d.directed) == set(proj.directed)
    assert set(high_d.bidirected) == set(proj.bidirected)


def test_07_estimation_pipeline_recovers_cluster_effect(insurance,
                                                        insurance_cm,
                                                        insurance_high):
    """Identification on the projected graph plus evaluation against the
    pushed-forward observational table reproduces the constructed
    model's interventional answer, in process and through the CLI."""
    g = projected_graph(insurance, insurance_cm)
    dec = ab.abstract_identify(g, query([term([("Y", 1)], [("XH", "xC")])]))
    assert dec.identifiable
    pushed = ab.marginal_pushforward(
        ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
    got = ab.evaluate_estimand(dec.estimand, pushed)
    want = ab.prob_query(insurance_high.scm,
                         query([term([("Y", 1)], [("XH", "xC")])]))
    assert got == want == Fraction(149, 250)

    r = run(["estimate", "--scm", fixture_path("insurance.json"),
             "--clusters", fixture_path("insurance_clusters.json"),
             "--query", "P(Y[XH=xC]=1)"])
    assert r.exit_code == 0
    assert r.payload["rational"] == "149/250"


def test_08_consistency_check_flags_unprojected_graph(insurance,
                                                      insurance_cm,
                                                      insurance_high):
    """The distributional consistency check rejects the unprojected
    cluster graph, accepts the projected one, and fails again when any
    edge added by the rewrite rules is removed."""
    cdag = ab.build_cdag(ab.induce_diagram(insurance), insurance_cm)
    rep = ab.ctfbn_check(cdag, insurance_high.scm)
    assert not rep.passed
    assert any(v.kind == "exclusion" and
               {v.lhs, v.rhs} == {Fraction(37, 50), Fraction(149, 250)}
               for v in rep.violations)

    proj = projected_graph(insurance, insurance_cm)
    assert ab.ctfbn_check(proj, insurance_high.scm).passed

    added_directed = set(proj.directed) - set(cdag.directed)
    added_bidirected = set(proj.bidirected) - set(cdag.bidirected)
    assert added_directed or added_bidirected
    for edge in added_directed:
        pruned = ab.make_graph(
            proj.nodes, tuple(e for e in proj.directed if e != edge),
            proj.bidirected, projected=True, violators=proj.violators)
        assert not ab.ctfbn_check(pruned, insurance_high.scm).passed
    for edge in added_bidirected:
        pruned = ab.make_graph(
            proj.nodes, proj.directed,
            tuple(e for e in proj.bidirected if e != edge),
            projected=True, violators=proj.violators)
        assert not ab.ctfbn_check(pruned, insurance_high.scm).passed


def _bow_model(correlated):
    block = {"name": "UC",
             "members": [{"name": "a", "domain": [0, 1]},
                         {"name": "b", "domain": [0, 1]}],
             "table": [{"values": [0, 0], "p": "1/2"},
                       {"values": [0, 1], "p": "0"},
                       {"values": [1, 0], "p": "0"},
                       {"values": [1, 1], "p": "1/2"}]}
    if correlated:
        y = {"variable": "Y", "endo_parents": [],
             "exo_parents": [{"block": "UC", "member": "b"}],
             "table": [{"parents": [b], "out": b} for b in (0, 1)]}
    else:
        y = {"variable": "Y", "endo_parents": ["X"],
             "exo_parents": [],
             "table": [{"parents": [x], "out": x} for x in (0, 1)]}
    doc = {"endogenous": [{"name": "X", "domain": [0, 1]},
                          {"name": "Y", "domain": [0, 1]}],
           "blocks": [block],
           "mechanisms": [
               {"variable": "X", "endo_parents": [],
                "exo_parents": [{"block": "UC", "member": "a"}],
                "table": [{"parents": [a], "out": a} for a in (0, 1)]},
               y]}
    return ab.validate_scm(doc)


def test_09_identification_agrees_with_enumeration():
    """On every fully observed DAG with up to four binary variables and
    fifty parameterizations each, the identified estimand evaluates to
    the same exact rational as brute-force enumeration; and on the bow
    graph two models sharing an observational joint but disagreeing on
    the effect certify the non-identifiability verdict."""
    structures = all_dag_structures(4)
    assert len(structures) == 75
    for index, (nodes, edges) in enumerate(structures):
        g = ab.make_graph(tuple(nodes), tuple(edges), ())
        for p in range(50):
            rng = random.Random(index * 1000 + p)
            scm = build_dag_model(nodes, edges, rng)
            table = ab.joint_distribution(scm, tuple(nodes))
            outcome = nodes[-1]
            if len(nodes) == 1:
                dos = [{}]
            else:
                dos = [{d: p % 2} for d in nodes[:-1]]
            for do in dos:
                dec = ab.identify_effect(
                    g, ab.IdQuery(outcome={outcome: 1}, do=do))
                assert dec.identifiable
                got = ab.evaluate_estimand(dec.estimand, table)
                want = ab.prob_query(
                    scm, query([term([(outcome, 1)], sorted(do.items()))]))
                assert got == want, (nodes, edges, p, do, got, want)

    bow = ab.make_graph(("X", "Y"), (("X", "Y"),), (("X", "Y"),))
    dec = ab.identify_effect(bow, ab.IdQuery(outcome={"Y": 1}, do={"X": 1}))
    assert not dec.identifiable
    twin_a = _bow_model(correlated=True)
    twin_b = _bow_model(correlated=False)
    joint_a = ab.joint_distribution(twin_a, ("X", "Y"))
    joint_b = ab.joint_distribution(twin_b, ("X", "Y"))
    assert joint_a.probs == joint_b.probs
    effect = query([term([("Y", 1)], [("X", 1)])])
    assert ab.prob_query(twin_a, effect) == Fraction(1, 2)
    assert ab.prob_query(twin_b, effect) == Fraction(1)


def test_10_reference_value_bounds(insurance, insurance_cm):
    """The disambiguation interval brackets every reference policy and
    collapses to a point on labels with a single member value."""
    lo, hi = ab.disambiguation_bounds(insurance, insurance_cm,
                                      "XH", "xC", {"Y": 1})
    assert (lo, hi) == (Fraction(9, 100), Fraction(91, 100))
    for policy in ("agnostic", "markovian", "general"):
        resolved = ab.resolve_sigma(insurance, insurance_cm,
                                    marker_query([("Y", 1)], "XH", "xC"),
                                    policy=policy)
        assert lo <= ab.prob_query(insurance, resolved) <= hi

    lo, hi = ab.disambiguation_bounds(insurance, insurance_cm,
                                      "XH", "xE", {"Y": 1})
    assert lo == hi == Fraction(9, 10)


def test_11_sampling_matches_reference_distribution(insurance_high):
    """A hundred thousand seeded draws land within total variation 0.02
    of the exact reference distribution, and rerunning the same seed
    reproduces the draw sequence exactly."""
    n = 100000
    draws = ab.projected_sample(insurance_high, "XH", "xC",
                                context={"parents": {"Z": "z1"}},
                                seed=7, n=n)
    assert len(draws) == n
    want = {("x1",): Fraction(4, 5), ("x2",): Fraction(1, 5)}
    tv = sum(abs(Fraction(sum(1 for d in draws if d == k), n) - p)
             for k, p in want.items()) / 2
    assert tv < Fraction(2, 100), float(tv)
    again = ab.projected_sample(insurance_high, "XH", "xC",
                                context={"parents": {"Z": "z1"}},
                                seed=7, n=n)
    assert draws == again


def test_12_pipeline_properties_on_composite_models(hospital, hospital_cm):
    """The full pipeline holds beyond the hand-built fixtures: random
    confounded multi-level models replay exactly, their cluster queries
    agree across levels, and their diagrams stay aligned."""
    high = ab.construct_projected_abstraction(hospital, hospital_cm)
    res = ab.verify_partial_projection(hospital, high)
    assert res.passed and res.checked == 5184

    for seed in (901, 902):
        scm, cm = build_lossy_chain(random.Random(seed), confounded=True)
        chain_high = ab.construct_projected_abstraction(scm, cm)
        res = ab.verify_partial_projection(scm, chain_high)
        assert res.passed
        for c_val in (0, 1):
            hq = query([term([("C", c_val)], [("BH", "lo")])])
            low = ab.resolve_sigma(scm, cm, ab.lower_query(cm, hq))
            assert ab.prob_query(chain_high.scm, hq) == \
                ab.prob_query(scm, low)
        proj = projected_graph(scm, cm)
        high_d = ab.induce_diagram(chain_high.scm)
        assert set(high_d.directed) == set(proj.directed)
        assert set(high_d.bidirected) == set(proj.bidirected)

    a = ab.projected_sample(high, "XH", "xC",
                            context={"shared": {"UZ": "z1"}}, seed=3, n=200)
    b = ab.projected_sample(high, "XH", "xC",
                            context={"shared": {"UZ": "z1"}}, seed=3, n=200)
    assert a == b
