"""The integer-weight exogenous support: its contract over any subset of
blocks, the budget gate in front of it, relevance pruning (a query
enumerates only the blocks its worlds read) and exact agreement with a
Fraction-product reference.

The reference below enumerates the full joint exogenous state with each
probability built as a product of block Fractions, solves every variable
of every world with its own loop, resolves stochastic interventions
itself and adds Fractions state by state. It shares no enumeration, world
solving or relevance pruning with the package. Every answer the package
computes from integer weights over the blocks a query reads must equal it
exactly.
"""

import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import abstrakt as ab
from abstrakt import abstraction, projection, scm as scm_module, valuation
from abstrakt.cli import run
from conftest import (atom, binary_block, build_dag_model,
                      build_lossy_chain, constant_soft_intervention,
                      fixture_path, fresh, identity_clusters, query,
                      reference_tabulate, term)

FIXTURES = ("insurance", "cholesterol", "hospital")
POLICIES = ("agnostic", "markovian", "general")


# ---------------------------------------------------------------------------
# the Fraction-product reference


_supports = {}


def support_of(model):
    """The model's Fraction-product support, listed once per model."""
    if id(model) not in _supports:
        _supports[id(model)] = (model, list(fraction_support(model)))
    return _supports[id(model)][1]


def fraction_support(model):
    """(index, assignment, probability) per joint exogenous state, the
    probability a product of block Fractions."""
    supports = [b.support() for b in model.blocks]
    for combo in itertools.product(*(range(len(s)) for s in supports)):
        unit = {}
        p = Fraction(1)
        for b, rows, ri in zip(model.blocks, supports, combo):
            values, rp = rows[ri]
            p *= rp
            unit.update(zip(((b.name, m) for m in b.member_names()), values))
        yield combo, unit, p


def distinct_atoms(terms):
    """The stochastic interventions of ``terms``, one per share key."""
    atoms = {}
    for t in terms:
        for a in t.soft:
            atoms.setdefault(a.share_key, a)
    return list(atoms.values())


def fraction_states(support, terms):
    """A Fraction-product support times every joint draw of the shared
    cells."""
    atoms = distinct_atoms(terms)
    widths = [[(i, w) for i, w in enumerate(a.cell_widths()) if w > 0]
              for a in atoms]
    for idx, unit, p in support:
        for cells in itertools.product(*widths):
            weight = p
            for _i, w in cells:
                weight *= w
            choice = {a.share_key: i for a, (i, _w) in zip(atoms, cells)}
            yield idx, unit, weight, choice


def reference_resolve(a, env, unit, cell):
    """Set atom ``a``'s targets in a world whose context members are
    solved, through the context's cell map (an atom resolved with
    ``fallback="uniform"`` carries a table for every context)."""
    ctx = (tuple(pc.value_of[tuple(env[m] for m in pc.members)]
                 for pc in a.parents),
           None if a.rho is None else
           a.rho.class_of[tuple(unit[k] for k in a.rho.member_keys)])
    mapping = a.cell_map.get(ctx)
    if mapping is None:
        raise ab.ImpossibleContext(
            "stochastic intervention %s hit context %r with zero "
            "probability under the reference distribution" %
            (a.label or a.share_key, ctx))
    env.update(zip(a.targets, a.candidates[mapping[cell]]))


def reference_world(model, t, unit, choice):
    """Every variable of term ``t``'s world for one exogenous state and cell
    draw. Variables are swept in declaration order until none is left: a
    hard setting is fixed up front, an atom sets its targets once its
    context members are known, and any other variable is read off its
    mechanism once its parents are known."""
    atoms = distinct_atoms([t])
    unit = dict(unit)
    for a in atoms:
        for key, mapping in a.exo_cells.items():
            unit[key] = mapping[choice[a.share_key]]
    env = {h.variable: h.value for h in t.hard}
    set_by_atom = {v for a in atoms for v in a.targets}
    while atoms or len(env) < len(model.endogenous):
        before = len(env)
        for a in list(atoms):
            if all(m in env for pc in a.parents for m in pc.members):
                reference_resolve(a, env, unit, choice[a.share_key])
                atoms.remove(a)
        for v in model.variable_names():
            mech = model.mechanisms[v]
            if v not in env and v not in set_by_atom and \
                    all(p in env for p in mech.endo_parents):
                env[v] = mech.table[tuple(env[p] for p in mech.endo_parents)
                                    + tuple(unit[k] for k in mech.exo_parents)]
        assert len(env) > before, "the term's world has a cycle"
    return env


def reference_holds(model, terms, unit, choice):
    """Whether every term meets its outcomes, over every term's world: the
    conjunction is false if any defined world fails its outcomes, and
    otherwise a world whose stochastic intervention hits a context with no
    reference mass raises its ImpossibleContext, whatever the order of the
    terms."""
    error = None
    for t in terms:
        try:
            env = reference_world(model, t, unit, choice)
        except ab.ImpossibleContext as err:
            error = error or err
            continue
        if not all(tuple(env[v] for v in oc.variables) in oc.accepted
                   for oc in t.outcomes):
            return False
    if error is not None:
        raise error
    return True


def reference_prob(model, q):
    terms = list(q.terms)
    cond = list(q.conditioning or ())
    num = Fraction(0)
    den = Fraction(0)
    for _idx, unit, w, choice in fraction_states(support_of(model),
                                                 terms + cond):
        if reference_holds(model, cond, unit, choice):
            den += w
            if reference_holds(model, terms, unit, choice):
                num += w
    if cond and den == 0:
        raise ab.ZeroConditioning("conditioning event has probability zero")
    return num / den


def reference_joint(model, variables, interventions=()):
    t = ab.QueryTerm(
        hard=tuple(i for i in interventions
                   if isinstance(i, ab.HardIntervention)),
        soft=tuple(i for i in interventions
                   if isinstance(i, ab.SoftIntervention)))
    probs = {}
    for _idx, unit, w, choice in fraction_states(support_of(model), [t]):
        env = reference_world(model, t, unit, choice)
        key = tuple(env[v] for v in variables)
        probs[key] = probs.get(key, Fraction(0)) + w
    return probs


def reference_sigma(model, cm, name, policy):
    """A cluster's parent clusters, shared-noise response classes and sigma
    tables, the record sigma_machinery returns, computed without
    counterfactual_table: the dict solver over every state of the working
    model's full support, with Fraction weights."""
    c = cm.cluster(name)
    working = abstraction._working_model(model, cm)
    parents = (abstraction._parent_clusters(working, cm, c)
               if policy != "agnostic" else ())
    rho_members, rho_classes = (
        projection._rho_shared_reads(working, c.members)
        if policy == "general" else ((), {}))
    totals = {}
    masses = {}
    for _idx, unit, p in fraction_support(working):
        env = working.solve(unit)
        joint = tuple(env[m] for m in c.members)
        ctx = (tuple(cm.by_name[pc].label_of(
                   tuple(env[m] for m in cm.by_name[pc].members))
                     for pc in parents),
               None if not rho_members else
               rho_classes[tuple(unit[k] for k in rho_members)])
        key = (c.label_of(joint), ctx)
        totals[key] = totals.get(key, Fraction(0)) + p
        masses[key + (joint,)] = masses.get(key + (joint,), Fraction(0)) + p
    sigma = {cv.label: {ctx: tuple(masses.get((label, ctx, t), Fraction(0))
                                   / tot for t in cv.tuples)
                        for (label, ctx), tot in totals.items()
                        if label == cv.label}
             for cv in c.values}
    return parents, rho_members, rho_classes, sigma


def reference_bounds(model, cm, cluster, label, outcome):
    """disambiguation_bounds computed without counterfactual_table: per
    state of the full support, the dict solver's world under every member
    tuple of the label."""
    c = cm.cluster(cluster)
    lo = Fraction(0)
    hi = Fraction(0)
    for _idx, unit, p in fraction_support(model):
        hits = [all(model.solve(unit, dict(zip(c.members, raw)))[v] == val
                    for v, val in outcome.items())
                for raw in c.fiber(label)]
        lo += p if all(hits) else 0
        hi += p if any(hits) else 0
    return lo, hi


# ---------------------------------------------------------------------------
# comparisons


def assert_prob_matches(model, q):
    """Equal answers, or the same error (a zero-probability conditioning
    event or an impossible reference context)."""
    try:
        want = reference_prob(model, q)
    except ab.AbstraktError as err:
        with pytest.raises(type(err)):
            ab.prob_query(model, q)
        return
    assert ab.prob_query(model, q) == want


def assert_cluster_query_matches(low, cm, high, q):
    """A cluster-level query, on the low model and on the projected one."""
    assert_prob_matches(low, ab.resolve_sigma(low, cm, ab.lower_query(cm, q)))
    assert_prob_matches(high.scm, ab.resolve_sigma_high(high, q))


def assert_sigma_matches(model, cm, name, policy):
    parents, rho_members, rho_classes, want = reference_sigma(
        model, cm, name, policy)
    machinery = projection.sigma_machinery(model, cm, name, policy)
    assert machinery.sigma == want
    assert machinery.parents == parents
    assert machinery.rho_members == rho_members
    assert machinery.rho_classes == rho_classes
    for label, ctxs in want.items():
        for (pa, cls), probs in ctxs.items():
            shared = {}
            if machinery.rho_members:
                joint = next(j for j, k in machinery.rho_classes.items()
                             if k == cls)
                shared = dict(zip(machinery.rho_members, joint))
            got = ab.sigma_distribution(
                model, cm, name, label, policy=policy,
                context=(dict(zip(machinery.parents, pa)), shared))
            assert got == dict(zip(cm.cluster(name).fiber(label), probs))


def cluster_atom(c, label):
    return ab.OutcomeAtom(variables=(c.name,), accepted=frozenset({(label,)}))


def cluster_queries(cm):
    """Single-term cluster queries: every outcome label of one cluster
    under a tilde (and, for one-tuple labels, a hard) setting of another,
    alone and conditioned on the first label of each remaining cluster."""
    out = []
    for o, i in itertools.permutations(cm.clusters, 2):
        rest = [c for c in cm.clusters if c.name not in (o.name, i.name)]
        for ol, cv in itertools.product(o.labels(), i.values):
            ivs = [ab.QueryTerm(outcomes=(cluster_atom(o, ol),),
                                soft=(ab.SigmaMarker(i.name, cv.label),))]
            if len(cv.tuples) == 1:
                ivs.append(ab.QueryTerm(
                    outcomes=(cluster_atom(o, ol),),
                    hard=(ab.HardIntervention(i.name, cv.label),)))
            for t in ivs:
                out.append(query([t]))
                out.extend(query([t], [ab.QueryTerm(
                    outcomes=(cluster_atom(c, c.labels()[0]),))])
                    for c in rest)
    return out


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=FIXTURES)
def fixture_model(request):
    low = ab.load_scm(fixture_path(request.param + ".json"))
    cm = ab.load_clusters(low, fixture_path(request.param + "_clusters.json"))
    return low, cm, ab.construct_projected_abstraction(low, cm)


class TestSupportContract:
    def test_weights_over_common_denominator(self, fixture_model):
        low, _cm, high = fixture_model
        for model in (low, high.scm):
            den = model.exogenous_denominator()
            got = [(idx, unit, Fraction(w, den))
                   for idx, unit, w in model.exogenous_support()]
            assert got == list(fraction_support(model))
            assert all(isinstance(w, int) and w > 0
                       for _i, _u, w in model.exogenous_support())
            assert sum(w for _i, _u, w in model.exogenous_support()) == den
            assert len(got) == model.exogenous_support_size()

    def test_interleaved_passes_agree(self, insurance):
        model = fresh(insurance)
        pairs = list(zip(model.exogenous_support(),
                         model.exogenous_support()))
        assert all(a == b for a, b in pairs)
        assert [a for a, _b in pairs] == list(model.exogenous_support())
        assert len(pairs) == 144


class TestBudgetGate:
    N_BLOCKS = 24

    @pytest.fixture(scope="class")
    def wide_doc(self):
        """24 independent binary variables, each with its own noise block:
        2**24 joint exogenous states."""
        names = ["V%d" % i for i in range(self.N_BLOCKS)]
        return {
            "endogenous": [{"name": n, "domain": [0, 1]} for n in names],
            "blocks": [binary_block("U" + n, Fraction(1, 3)) for n in names],
            "mechanisms": [
                {"variable": n, "endo_parents": [],
                 "exo_parents": [{"block": "U" + n, "member": "u"}],
                 "table": [{"parents": [u], "out": u} for u in (0, 1)]}
                for n in names],
        }

    def test_prob_query_refused_before_enumeration(self, wide_doc):
        model = ab.validate_scm(wide_doc)
        assert model.exogenous_support_size() == 2 ** self.N_BLOCKS
        start = time.perf_counter()
        with pytest.raises(ab.SizeExceeded) as err:
            ab.prob_query(model, query([term([("V0", 1)])]), budget=1000)
        assert time.perf_counter() - start < 1.0
        assert err.value.details["required"] == 2 ** self.N_BLOCKS
        assert err.value.details["budget"] == 1000

    def test_two_term_query_refused_before_enumeration(self, wide_doc,
                                                       monkeypatch):
        """Two terms that read disjoint halves of the blocks share no
        noise, so their table would be walked factored, over 2 * 2**12
        private states; the gate still counts the full support, and
        refuses before any state is enumerated."""
        half = self.N_BLOCKS // 2
        terms = [term([("V%d" % i, 1) for i in range(half)]),
                 term([("V%d" % i, 1) for i in range(half, self.N_BLOCKS)])]
        model = ab.validate_scm(wide_doc)

        def refused(self, blocks=None):
            raise AssertionError("states enumerated past the budget gate")
        monkeypatch.setattr(ab.DiscreteScm, "exogenous_states", refused)
        start = time.perf_counter()
        for ask in (lambda: ab.prob_query(model, query(terms), budget=1000),
                    lambda: ab.counterfactual_table(model, terms,
                                                    budget=1000)):
            with pytest.raises(ab.SizeExceeded) as err:
                ask()
            assert err.value.details["required"] == 2 ** self.N_BLOCKS
            assert err.value.details["budget"] == 1000
        assert time.perf_counter() - start < 1.0

    def test_eval_exits_4(self, wide_doc, tmp_path):
        path = str(tmp_path / "wide.json")
        with open(path, "w") as fh:
            json.dump(wide_doc, fh)
        r = run(["eval", "--scm", path, "--query", "P(V0=1)",
                 "--budget", "1000"])
        assert r.exit_code == 4
        assert r.payload["error"]["details"]["required"] == \
            2 ** self.N_BLOCKS


class TestFixturesMatchReference:
    def test_cluster_queries(self, fixture_model):
        low, cm, high = fixture_model
        for q in cluster_queries(cm):
            assert_cluster_query_matches(low, cm, high, q)

    def test_two_term_query(self, insurance, insurance_cm, insurance_high):
        q = query([ab.QueryTerm(outcomes=(cluster_atom(
                       insurance_cm.cluster("Y"), 1),),
                       soft=(ab.SigmaMarker("XH", "xC"),)),
                   ab.QueryTerm(outcomes=(cluster_atom(
                       insurance_cm.cluster("Y"), 0),),
                       hard=(ab.HardIntervention("XH", "xE"),))])
        assert_cluster_query_matches(insurance, insurance_cm,
                                     insurance_high, q)

    def test_joint_distribution(self, fixture_model):
        low, cm, _high = fixture_model
        names = low.variable_names()
        assert ab.joint_distribution(low, names).probs == \
            reference_joint(low, names)
        first = low.endogenous[0]
        hard = (ab.HardIntervention(first.name, first.domain[-1]),)
        assert ab.joint_distribution(low, names, hard).probs == \
            reference_joint(low, names, hard)
        for c in cm.clusters:
            for cv in c.values:
                if len(cv.tuples) > 1:
                    marked = ab.resolve_sigma(low, cm, query([ab.QueryTerm(
                        soft=(ab.SigmaMarker(c.name, cv.label),))]))
                    soft = marked.terms[0].soft
                    assert ab.joint_distribution(low, names, soft).probs == \
                        reference_joint(low, names, soft)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sigma_distribution(self, fixture_model, policy):
        low, cm, _high = fixture_model
        for c in cm.clusters:
            assert_sigma_matches(low, cm, c.name, policy)

    def test_disambiguation_bounds(self, fixture_model):
        low, cm, _high = fixture_model
        for c in cm.clusters:
            others = [v for v in low.variable_names() if v not in c.members]
            for label in c.labels():
                for v in others:
                    for val in low.domain(v):
                        assert ab.disambiguation_bounds(
                            low, cm, c.name, label, {v: val}) == \
                            reference_bounds(low, cm, c.name, label, {v: val})


# ---------------------------------------------------------------------------
# generated models

BITS = st.integers(0, 1)


@st.composite
def dag_models(draw):
    n = draw(st.integers(1, 4))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    return build_dag_model(nodes, edges,
                           random.Random(draw(st.integers(0, 2 ** 32))))


@st.composite
def dag_terms(draw, nodes, outcome=True):
    """A term over a binary DAG model: an outcome on one variable (unless
    ``outcome`` is False), hard settings of some others and at most one
    constant stochastic setting with a drawn rational weight."""
    target = draw(st.sampled_from(nodes)) if outcome else None
    free = [v for v in nodes if v != target]
    pinned = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    hard = tuple(ab.HardIntervention(v, draw(BITS)) for v in pinned)
    soft = ()
    loose = [v for v in free if v not in pinned]
    if loose and draw(st.booleans()):
        v = draw(st.sampled_from(loose))
        den = draw(st.integers(1, 12))
        p = Fraction(draw(st.integers(0, den)), den)
        soft = (constant_soft_intervention(
            (v,), [(0,), (1,)], (p, 1 - p), share_key=("soft", v, p)),)
    outcomes = () if target is None else (
        ab.OutcomeAtom(variables=(target,),
                       accepted=frozenset({(draw(BITS),)})),)
    return ab.QueryTerm(outcomes=outcomes, hard=hard, soft=soft)


@st.composite
def dag_cases(draw):
    model = draw(dag_models())
    nodes = list(model.variable_names())
    terms = draw(st.lists(dag_terms(nodes), min_size=1, max_size=2))
    cond = draw(st.lists(dag_terms(nodes), max_size=1))
    extra = draw(dag_terms(nodes, outcome=False))
    return model, query(terms, cond), extra


class TestGeneratedModelsMatchReference:
    @settings(max_examples=40, deadline=None)
    @given(dag_cases())
    def test_dag_models(self, case):
        model, q, extra = case
        assert_prob_matches(model, q)
        names = model.variable_names()
        ivs = extra.hard + extra.soft
        assert ab.joint_distribution(model, names, ivs).probs == \
            reference_joint(model, names, ivs)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), confounded=st.booleans(),
           policy=st.sampled_from(POLICIES), a=BITS, c=BITS)
    def test_lossy_chains(self, seed, confounded, policy, a, c):
        low, cm = build_lossy_chain(random.Random(seed), confounded)
        high = ab.construct_projected_abstraction(low, cm, policy=policy)
        marked = ab.QueryTerm(
            outcomes=(cluster_atom(cm.cluster("C"), c),),
            soft=(ab.SigmaMarker("BH", "lo"),))
        observed = ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("A"), a),))
        for q in (query([marked]), query([marked], [observed]),
                  query([marked, observed])):
            assert_prob_matches(
                low, ab.resolve_sigma(low, cm, ab.lower_query(cm, q),
                                      policy=policy))
            assert_prob_matches(high.scm, ab.resolve_sigma_high(high, q))
        assert_sigma_matches(low, cm, "BH", policy)
        assert ab.disambiguation_bounds(low, cm, "BH", "lo", {"C": c}) == \
            reference_bounds(low, cm, "BH", "lo", {"C": c})


@st.composite
def sigma_cases(draw):
    """A lossy chain (confounded or not, A's noise drawn or fixed at 0 or
    1) with its bundled clusters, or a DAG model with a shared block and
    identity clusters; and a policy."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        low, cm = build_lossy_chain(rng, draw(st.booleans()),
                                    draw(st.sampled_from([None, 0, 1])))
    else:
        n = draw(st.integers(2, 4))
        nodes = ["V%d" % (i + 1) for i in range(n)]
        slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        edges = [e for e in slots if draw(st.booleans())]
        shared = draw(st.lists(st.sampled_from(nodes), min_size=2,
                               unique=True))
        low = build_dag_model(nodes, edges, rng, shared=tuple(shared))
        cm = identity_clusters(low)
    return low, cm, draw(st.sampled_from(POLICIES))


class TestSigmaAndBoundsMatchTheLoops:
    @settings(max_examples=40, deadline=None)
    @given(sigma_cases())
    def test_every_cluster_label_and_outcome(self, case):
        """The sigma record of every cluster, and the bounds of every label
        for the empty outcome, every one-variable outcome (the cluster's
        own members included) and every pair of variables."""
        low, cm, policy = case
        names = low.variable_names()
        outcomes = [{}] + [{v: x} for v in names for x in low.domain(v)]
        outcomes += [{v: low.domain(v)[0], w: low.domain(w)[-1]}
                     for v, w in itertools.combinations(names, 2)]
        for c in cm.clusters:
            assert_sigma_matches(low, cm, c.name, policy)
            for label in c.labels():
                for oc in outcomes:
                    assert ab.disambiguation_bounds(
                        low, cm, c.name, label, oc) == \
                        reference_bounds(low, cm, c.name, label, oc)


@st.composite
def padded_cases(draw):
    """A DAG model with disconnected extra variables and extra blocks no
    mechanism reads, a query over all its variables and the variables of
    one joint table."""
    n = draw(st.integers(1, 3))
    extra = draw(st.integers(1, 2))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    loose = ["W%d" % (i + 1) for i in range(extra)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    model = build_dag_model(nodes + loose, edges,
                            random.Random(draw(st.integers(0, 2 ** 32))))
    doc = scm_module.scm_to_doc(model)
    for i in range(draw(st.integers(0, 2))):
        weights = draw(st.lists(st.integers(1, 9), min_size=2, max_size=3))
        doc["blocks"].append({
            "name": "N%d" % i,
            "members": [{"name": "n", "domain": list(range(len(weights)))}],
            "table": [{"values": [j], "p": str(Fraction(w, sum(weights)))}
                      for j, w in enumerate(weights)]})
    model = ab.validate_scm(doc)
    names = list(model.variable_names())
    terms = draw(st.lists(dag_terms(names), min_size=1, max_size=2))
    cond = draw(st.lists(dag_terms(names), max_size=1))
    table = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return model, query(terms, cond), table


def count_states(monkeypatch):
    """A list that gets one (index tuple, weight) entry per state of the
    blocks any enumeration of the exogenous states (exogenous_states, and
    with it exogenous_support) yields from now on: per call, one entry per
    distinct row-index tuple of its blocks, whatever cell draws the call
    walks with them (a call without blocks adds none)."""
    visited = []
    real = ab.DiscreteScm.exogenous_states

    def counted(self, blocks=None, draws=()):
        last = None
        for state in real(self, blocks, draws):
            idx = state[0][:len(state[0]) - len(draws)]
            if idx and idx != last:
                visited.append((idx, state[1]))
                last = idx
            yield state
    monkeypatch.setattr(ab.DiscreteScm, "exogenous_states", counted)
    return visited


def counted_programs(monkeypatch):
    """A list that gets one entry per world program valuation._compile
    builds from now on, counting the runs of that program."""
    runs = []
    real = valuation._compile

    def compile_(scm, setup, out):
        program = real(scm, setup, out)
        n = len(runs)
        runs.append(0)

        def counted(idx):
            runs[n] += 1
            return program(idx)
        return counted
    monkeypatch.setattr(valuation, "_compile", compile_)
    return runs


def unreachable_context_model():
    """Z -> X with Z never z2, and Y on its own noise. Clusters Z, XH (X's
    values 0 and 1 merged into 'lo') and YC."""
    doc = {
        "endogenous": [{"name": "Z", "domain": ["z1", "z2"]},
                       {"name": "X", "domain": [0, 1, 2]},
                       {"name": "Y", "domain": [0, 1]}],
        "blocks": [
            {"name": "UZ", "members": [{"name": "u", "domain": ["z1", "z2"]}],
             "table": [{"values": ["z1"], "p": "1"},
                       {"values": ["z2"], "p": "0"}]},
            {"name": "UX", "members": [{"name": "u", "domain": [0, 1, 2]}],
             "table": [{"values": [0], "p": "1/2"},
                       {"values": [1], "p": "1/4"},
                       {"values": [2], "p": "1/4"}]},
            binary_block("UY", Fraction(1, 3)),
        ],
        "mechanisms": [
            {"variable": "Z", "endo_parents": [],
             "exo_parents": [{"block": "UZ", "member": "u"}],
             "table": [{"parents": [z], "out": z} for z in ("z1", "z2")]},
            {"variable": "X", "endo_parents": ["Z"],
             "exo_parents": [{"block": "UX", "member": "u"}],
             "table": [{"parents": [z, u], "out": u}
                       for z in ("z1", "z2") for u in (0, 1, 2)]},
            {"variable": "Y", "endo_parents": [],
             "exo_parents": [{"block": "UY", "member": "u"}],
             "table": [{"parents": [u], "out": u} for u in (0, 1)]},
        ],
    }
    model = ab.validate_scm(doc)
    cm = ab.validate_clusters(model, {"clusters": [
        {"name": "Z", "members": ["Z"], "values": [
            {"label": "z1", "tuples": [["z1"]]},
            {"label": "z2", "tuples": [["z2"]]}]},
        {"name": "XH", "members": ["X"], "values": [
            {"label": "lo", "tuples": [[0], [1]]},
            {"label": "hi", "tuples": [[2]]}]},
        {"name": "YC", "members": ["Y"], "values": [
            {"label": 0, "tuples": [[0]]},
            {"label": 1, "tuples": [[1]]}]},
    ]})
    return model, cm


class TestRelevancePruning:
    def test_prob_query_visits_its_blocks_only(self, insurance, monkeypatch):
        """Y[X=x1] reads Y's three binary blocks, but under X=x1 its table
        varies with UY1 only: 2 of 144 states."""
        model = fresh(insurance)
        visited = count_states(monkeypatch)
        q = query([term([("Y", 1)], [("X", "x1")])])
        assert ab.prob_query(model, q) == Fraction(9, 10)
        assert len(visited) == 2
        assert all(len(idx) == 1 for idx, _w in visited)

    def test_redrawn_members_are_not_enumerated(self, insurance_cm,
                                                insurance_high, monkeypatch):
        """On the projected model, ~XH=xC redraws both members of XH's cell
        block from its own cell, so Y's world reads UZ and UY1-3 only: 16
        of 576 states. The hard setting XH=xC reads the cell block too,
        but Y's table no longer varies with one of UY1-3: 32 states."""
        model = fresh(insurance_high.scm)
        visited = count_states(monkeypatch)
        y1 = (cluster_atom(insurance_cm.cluster("Y"), 1),)
        tilde = query([ab.QueryTerm(outcomes=y1,
                                    soft=(ab.SigmaMarker("XH", "xC"),))])
        assert ab.prob_query(
            model, ab.resolve_sigma_high(insurance_high, tilde)) == \
            Fraction(149, 250)
        assert len(visited) == 16
        del visited[:]
        hard = query([ab.QueryTerm(outcomes=y1, hard=(
            ab.HardIntervention("XH", "xC"),))])
        assert ab.prob_query(model, hard) == reference_prob(model, hard)
        assert len(visited) == 32

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sigma_machinery_visits_its_blocks_only(
            self, insurance, insurance_cm, monkeypatch, policy):
        """XH and its parent cluster Z read UZ, UX1 and UX2: 18 states."""
        model = fresh(insurance)
        visited = count_states(monkeypatch)
        machinery = projection.sigma_machinery(model, insurance_cm, "XH",
                                               policy)
        assert len(visited) == 18
        assert machinery.sigma == reference_sigma(
            model, insurance_cm, "XH", policy)[-1]

    def test_joint_distribution_visits_its_blocks_only(self, insurance,
                                                       monkeypatch):
        model = fresh(insurance)
        visited = count_states(monkeypatch)
        assert ab.joint_distribution(model, ("X",)).probs == \
            reference_joint(model, ("X",))
        assert len(visited) == 18

    def test_budget_counts_full_support(self, insurance):
        q = query([term([("Y", 1)], [("X", "x1")])])
        with pytest.raises(ab.SizeExceeded) as err:
            ab.prob_query(fresh(insurance), q, budget=143)
        assert err.value.details["required"] == 144
        assert ab.prob_query(fresh(insurance), q, budget=144) == \
            Fraction(9, 10)

    def test_worlds_reused_across_block_unions(self, insurance):
        """A term's cached worlds are keyed by its own blocks, so they stay
        right when a later query enumerates a wider union."""
        model = fresh(insurance)
        alone = query([term([("Y", 1)], [("X", "x1")])])
        paired = query([term([("Y", 1)], [("X", "x1")]),
                        term([("Z", "z1"), ("X", "x2")])])
        given = query([term([("Y", 1)], [("X", "x1")])],
                      [term([("X", "x1")])])
        for q in (alone, paired, given, alone, paired):
            assert ab.prob_query(model, q) == ab.prob_query(fresh(model), q) \
                == reference_prob(model, q)

    def test_unread_atom_still_checks_its_context(self, monkeypatch):
        """~XH=lo under Z=z2 has no reference mass; Y reads neither X nor
        Z, yet the query still raises ImpossibleContext."""
        model, cm = unreachable_context_model()
        t = ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("YC"), 1),),
                         hard=(ab.HardIntervention("Z", "z2"),),
                         soft=(ab.SigmaMarker("XH", "lo"),))
        low = ab.lower_query(cm, query([t]))
        visited = count_states(monkeypatch)
        with pytest.raises(ab.ImpossibleContext):
            ab.prob_query(model, ab.resolve_sigma(model, cm, low,
                                                  policy="markovian"))
        uniform = ab.resolve_sigma(model, cm, low, policy="markovian",
                                   fallback="uniform")
        del visited[:]
        assert ab.prob_query(model, uniform) == Fraction(1, 3)
        assert len(visited) == 2  # UY only

    @settings(max_examples=40, deadline=None)
    @given(padded_cases())
    def test_padded_models(self, case):
        model, q, table = case
        assert_prob_matches(model, q)
        for t in q.terms:
            ivs = t.hard + t.soft
            assert ab.joint_distribution(model, table, ivs).probs == \
                reference_joint(model, table, ivs)


@st.composite
def gated_models(draw):
    """A binary DAG model with gated mechanisms: every variable has one or
    two private noise blocks, and at times a member of a block ``S`` shared
    with other variables, and at each joint parent value its mechanism adds
    a drawn subset of those members (possibly none) to a drawn base, mod 2.
    A hard setting of a variable's parents can so leave some of its
    members dead."""
    n = draw(st.integers(2, 4))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    parents = {v: [a for a in nodes[:i] if draw(st.booleans())]
               for i, v in enumerate(nodes)}
    shared = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3))
    blocks, mechanisms = [], []
    for v in nodes:
        exo = []
        for j in range(draw(st.integers(1, 2))):
            name = "U%s_%d" % (v, j)
            blocks.append(binary_block(name, Fraction(draw(st.integers(1, 9)),
                                                      10)))
            exo.append({"block": name, "member": "u"})
        if v in shared:
            exo.append({"block": "S", "member": "s%d" % shared.index(v)})
        rows = []
        for combo in itertools.product([0, 1], repeat=len(parents[v])):
            base = draw(BITS)
            gate = draw(st.lists(st.sampled_from(range(len(exo))),
                                 unique=True))
            for noise in itertools.product([0, 1], repeat=len(exo)):
                rows.append({"parents": list(combo) + list(noise),
                             "out": (base + sum(noise[i] for i in gate)) % 2})
        mechanisms.append({"variable": v, "endo_parents": parents[v],
                           "exo_parents": exo, "table": rows})
    if shared:
        joint = list(itertools.product([0, 1], repeat=len(shared)))
        weights = [draw(st.integers(1, 5)) for _ in joint]
        blocks.append({
            "name": "S",
            "members": [{"name": "s%d" % i, "domain": [0, 1]}
                        for i in range(len(shared))],
            "table": [{"values": list(vals),
                       "p": str(Fraction(w, sum(weights)))}
                      for vals, w in zip(joint, weights)]})
    return ab.validate_scm({
        "endogenous": [{"name": v, "domain": [0, 1]} for v in nodes],
        "blocks": blocks, "mechanisms": mechanisms})


@st.composite
def gating_terms(draw, model):
    """A term whose hard settings pin some parents of its outcome variable
    (all or at least one), so that the members the variable's table no
    longer varies with go unread, plus settings of other variables."""
    nodes = list(model.variable_names())
    # most parents first, which is also where hypothesis shrinks to
    target = draw(st.sampled_from(sorted(
        nodes, key=lambda v: -len(model.mechanisms[v].endo_parents))))
    pa = model.mechanisms[target].endo_parents
    others = [v for v in nodes if v != target and v not in pa]
    pinned = []
    if pa:
        pinned = draw(st.one_of(st.just(list(pa)), st.lists(
            st.sampled_from(pa), unique=True, min_size=1)))
    if others:
        pinned += draw(st.lists(st.sampled_from(others), unique=True))
    return ab.QueryTerm(
        outcomes=(ab.OutcomeAtom(variables=(target,),
                                 accepted=frozenset({(draw(BITS),)})),),
        hard=tuple(ab.HardIntervention(v, draw(BITS)) for v in pinned))


@st.composite
def gated_cases(draw):
    model = draw(gated_models())
    nodes = list(model.variable_names())
    mixed = st.one_of(gating_terms(model), dag_terms(nodes))
    terms = [draw(gating_terms(model))] + draw(st.lists(mixed, max_size=1))
    cond = draw(st.lists(mixed, max_size=1))
    return model, query(draw(st.permutations(terms)), cond)


def reference_table(model, terms):
    """Per-term tuples of each term's outcome variables, with their joint
    Fraction probability."""
    probs = {}
    for _idx, unit, w, choice in fraction_states(support_of(model), terms):
        key = tuple(tuple(reference_world(model, t, unit, choice)[v]
                          for oc in t.outcomes for v in oc.variables)
                    for t in terms)
        probs[key] = probs.get(key, Fraction(0)) + w
    return probs


class TestContextSpecificPruning:
    @settings(max_examples=60, deadline=None)
    @given(gated_cases())
    def test_gated_models_match_reference(self, case):
        model, q = case
        assert_prob_matches(fresh(model), q)
        assert_prob_matches(model, q)
        for terms in (q.terms, q.terms + q.conditioning):
            den, table = ab.counterfactual_table(fresh(model), list(terms))
            assert {k: Fraction(w, den) for k, w in table.items()} == \
                {k: p for k, p in reference_table(model, terms).items() if p}

    def test_dead_members_at_pinned_values(self, insurance, insurance_high):
        """Y under X=x1 varies with UY1 only, and under X=x3 with UY3 only;
        on the projected model Y under XH=xE reads none of XH's cell block,
        whatever Z is."""
        live = valuation._live_members
        y = [("UY1", "UY1"), ("UY2", "UY2"), ("UY3", "UY3")]
        model = fresh(insurance)
        assert live(model, "Y", (("X", "x1"),)) == (y[0],)
        assert live(model, "Y", (("X", "x3"),)) == (y[2],)
        assert model._live == {("Y", (("X", "x1"),)): (y[0],),
                               ("Y", (("X", "x3"),)): (y[2],)}
        high = fresh(insurance_high.scm)
        assert not {b for b, _m in live(high, "Y", (("XH", "xE"),))} & \
            {"XH__u"}

    def test_free_parents_keep_members_live(self):
        """Y = U when B = 1 and 0 when B = 0, whatever A is. Pinning A
        alone leaves U live (B is free), pinning B = 0 too leaves it dead:
        2 states, then 1."""
        doc = {
            "endogenous": [{"name": v, "domain": [0, 1]}
                           for v in ("A", "B", "Y")],
            "blocks": [binary_block("UA", Fraction(1, 2)),
                       binary_block("UB", Fraction(1, 3)),
                       binary_block("UY", Fraction(1, 5))],
            "mechanisms": [
                {"variable": v, "endo_parents": [],
                 "exo_parents": [{"block": "U" + v, "member": "u"}],
                 "table": [{"parents": [u], "out": u} for u in (0, 1)]}
                for v in ("A", "B")] + [
                {"variable": "Y", "endo_parents": ["A", "B"],
                 "exo_parents": [{"block": "UY", "member": "u"}],
                 "table": [{"parents": [a, b, u], "out": u * b}
                           for a in (0, 1) for b in (0, 1) for u in (0, 1)]}],
        }
        model = ab.validate_scm(doc)
        cases = ((term([("Y", 1)], [("A", 0)]), Fraction(1, 15), 4),
                 (term([("Y", 1)], [("A", 0), ("B", 1)]), Fraction(1, 5), 2),
                 (term([("Y", 1)], [("A", 0), ("B", 0)]), 0, 1))
        for t, want, states in cases:
            q = query([t])
            assert reference_prob(model, q) == want
            assert ab.prob_query(fresh(model), q) == want
            den, table = ab.counterfactual_table(fresh(model), [t])
            assert Fraction(table.get(((1,),), 0), den) == want
            assert fresh(model).exogenous_support_size(
                ab.valuation._term_setup(model, t).blocks) == states

    def test_live_sets_stop_at_the_cache_limit(self, insurance,
                                               monkeypatch):
        monkeypatch.setattr(valuation, "CACHE_LIMIT", 1)
        model = fresh(insurance)
        for x in ("x1", "x2", "x3"):
            q = query([term([("Y", 1)], [("X", x)])])
            assert ab.prob_query(model, q) == reference_prob(model, q)
        assert len(model._live) == 1


# ---------------------------------------------------------------------------
# compiled worlds


def assert_worlds_match(model, t):
    """Term ``t``'s compiled world equals the reference world in every
    exogenous state and cell draw, over the variables the term solves, and
    for a hard-only term also DiscreteScm.solve's world. Where the
    reference hits a context with no mass, the program raises the same
    ImpossibleContext message. Returns the number of states raising."""
    setup = valuation._term_setup(model, t)
    solved = [v for segment in setup.segments for v in segment]
    program = valuation._compile(model, setup, solved)
    hard = {h.variable: h.value for h in t.hard}
    raised = 0
    for idx, unit, _w, choice in fraction_states(support_of(model), [t]):
        own = tuple(idx[b] for b in setup.blocks) + tuple(
            choice[a.share_key] for a in setup.atoms)
        try:
            want = reference_world(model, t, unit, choice)
        except ab.ImpossibleContext as err:
            with pytest.raises(ab.ImpossibleContext) as got:
                program(own)
            assert str(got.value) == str(err)
            raised += 1
            continue
        world = program(own)
        assert world == tuple(want[v] for v in solved)
        if not t.soft:
            env = model.solve(dict(unit), dict(hard))
            assert world == tuple(env[v] for v in solved)
    return raised


@st.composite
def dag_world_cases(draw):
    """A binary DAG model, at times with a shared block, and a term on one
    variable with hard settings of some others, at times a constant
    stochastic setting, and mostly a reference marker on a further
    variable, resolved under a drawn policy against the identity clusters:
    an atom with parent contexts, and with response classes where the
    variable shares noise."""
    n = draw(st.integers(2, 4))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    shared = draw(st.one_of(st.just([]), st.lists(
        st.sampled_from(nodes), min_size=2, unique=True)))
    model = build_dag_model(nodes, edges,
                            random.Random(draw(st.integers(0, 2 ** 32))),
                            shared=tuple(shared))
    target, marked, *rest = draw(st.permutations(nodes))
    pinned = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    soft = ()
    loose = [v for v in rest if v not in pinned]
    if loose and draw(st.booleans()):
        v = draw(st.sampled_from(loose))
        p = Fraction(draw(st.integers(0, 6)), 6)
        soft = (constant_soft_intervention(
            (v,), [(0,), (1,)], (p, 1 - p), share_key=("soft", v, p)),)
    if draw(st.sampled_from([True, True, True, False])):
        soft += (ab.SigmaMarker(marked, draw(BITS)),)
    q = query([ab.QueryTerm(
        outcomes=(atom(target, draw(BITS)),),
        hard=tuple(ab.HardIntervention(v, draw(BITS)) for v in pinned),
        soft=soft)])
    return model, ab.resolve_sigma(
        model, identity_clusters(model), q,
        policy=draw(st.sampled_from(POLICIES))).terms[0]


@st.composite
def chain_world_cases(draw):
    """A lossy chain A -> B -> C (B's values 0 and 1 merged into 'lo'), at
    times confounded, at times with A's noise fixed so that contexts of B
    have no mass, and a term on C: mostly a tilde setting of BH, else a
    hard one, with or without a hard setting of A, on the projected model
    (where a tilde setting of a flagged cluster redraws its cell block's
    members) or on the low model, resolved under a drawn policy and
    fallback."""
    p_a = draw(st.sampled_from([None, Fraction(0), Fraction(1)]))
    low, cm = build_lossy_chain(random.Random(draw(st.integers(0, 2 ** 32))),
                                draw(st.booleans()), p_a)
    policy = draw(st.sampled_from(POLICIES))
    fallback = draw(st.sampled_from([None, "uniform"]))
    hard = ()
    if draw(st.booleans()):
        hard = (ab.HardIntervention("A", draw(BITS)),)
    soft = ()
    if draw(st.sampled_from(["tilde", "tilde", "hard"])) == "hard":
        hard += (ab.HardIntervention("BH", "hi"),)
    else:
        soft = (ab.SigmaMarker("BH", draw(st.sampled_from(["lo", "hi"]))),)
    q = query([ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("C"),
                                                   draw(BITS)),),
                            hard=hard, soft=soft)])
    if draw(st.sampled_from(["high", "low"])) == "high":
        high = ab.construct_projected_abstraction(low, cm, policy=policy,
                                                  fallback=fallback)
        return high.scm, ab.resolve_sigma_high(high, q).terms[0]
    try:
        return low, ab.resolve_sigma(low, cm, ab.lower_query(cm, q),
                                     policy=policy,
                                     fallback=fallback).terms[0]
    except ab.ImpossibleContext:
        # the label has no mass in any context
        return low, ab.QueryTerm(outcomes=q.terms[0].outcomes)


class TestCompiledWorlds:
    @settings(max_examples=60, deadline=None)
    @given(dag_world_cases())
    def test_dag_models(self, case):
        assert_worlds_match(*case)

    @settings(max_examples=60, deadline=None)
    @given(chain_world_cases())
    def test_lossy_chains(self, case):
        assert_worlds_match(*case)

    def test_absent_context(self):
        """~XH=lo under Z=z2 has no reference mass: every world raises the
        reference's ImpossibleContext, and with the uniform fallback every
        world equals the reference's."""
        model, cm = unreachable_context_model()
        t = ab.lower_query(cm, query([ab.QueryTerm(
            outcomes=(cluster_atom(cm.cluster("YC"), 1),),
            hard=(ab.HardIntervention("Z", "z2"),),
            soft=(ab.SigmaMarker("XH", "lo"),))]))
        strict = ab.resolve_sigma(model, cm, t, policy="markovian")
        states = len(list(fraction_states(support_of(model), strict.terms)))
        assert assert_worlds_match(model, strict.terms[0]) == states
        uniform = ab.resolve_sigma(model, cm, t, policy="markovian",
                                   fallback="uniform")
        assert assert_worlds_match(model, uniform.terms[0]) == 0

    def test_redrawn_members(self, insurance_cm, insurance_high):
        """On the projected insurance model, ~XH=xC redraws the members of
        XH's cell block that Y reads."""
        t = ab.resolve_sigma_high(insurance_high, query([ab.QueryTerm(
            outcomes=(cluster_atom(insurance_cm.cluster("Y"), 1),),
            soft=(ab.SigmaMarker("XH", "xC"),))])).terms[0]
        assert t.soft[0].exo_cells
        assert assert_worlds_match(insurance_high.scm, t) == 0


class TestSubsetMemo:
    """Passes over subsets of the blocks."""

    SUBSETS = ((1, 2), (0, 3, 5), (4,), (), (0, 1, 2, 3, 4, 5))

    def test_sub_supports_marginalise_the_full_support(self, insurance):
        model = fresh(insurance)
        full = list(fraction_support(model))
        for blocks in self.SUBSETS:
            den = model.exogenous_denominator(blocks)
            got = {}
            for idx, unit, w in model.exogenous_support(blocks):
                assert len(idx) == len(blocks)
                got[tuple(sorted(unit.items()))] = Fraction(w, den)
            names = {model.blocks[i].name for i in blocks}
            want = {}
            for _idx, unit, p in full:
                key = tuple(sorted(kv for kv in unit.items()
                                   if kv[0][0] in names))
                want[key] = want.get(key, 0) + p
            assert got == want
            assert len(got) == model.exogenous_support_size(blocks)

    def test_interleaved_sub_support_passes_agree(self, insurance):
        model = fresh(insurance)
        for blocks in self.SUBSETS:
            pairs = list(zip(model.exogenous_support(blocks),
                             model.exogenous_support(blocks)))
            assert all(a == b for a, b in pairs)
            assert [a for a, _b in pairs] == \
                list(model.exogenous_support(blocks)) == \
                list(fresh(insurance).exogenous_support(blocks))
        mixed = list(zip(model.exogenous_support((1, 2)),
                         fresh(insurance).exogenous_support((1, 2))))
        assert all(a == b for a, b in mixed) and len(mixed) == 9


# ---------------------------------------------------------------------------
# one counterfactual table per signature


@st.composite
def table_cases(draw):
    """A DAG model whose variables share one correlated block, and one to
    three terms over it, each with hard and at most one stochastic setting
    and one or two variables to read."""
    n = draw(st.integers(2, 4))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    shared = draw(st.lists(st.sampled_from(nodes), min_size=2, unique=True))
    model = build_dag_model(nodes, edges,
                            random.Random(draw(st.integers(0, 2 ** 32))),
                            shared=tuple(shared))
    terms, reads = [], []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(dag_terms(nodes))
        target = t.outcomes[0].variables[0]
        taken = {h.variable for h in t.hard} | {
            v for a in t.soft for v in a.targets} | {target}
        free = [v for v in nodes if v not in taken]
        extra = draw(st.lists(st.sampled_from(free), max_size=1)) \
            if free else []
        terms.append(t)
        reads.append((target, *extra))
    return model, terms, reads


def with_outcomes(t, read, values):
    """Term ``t`` with one outcome atom per variable of ``read``."""
    return ab.QueryTerm(
        outcomes=tuple(ab.OutcomeAtom(variables=(v,),
                                      accepted=frozenset({(x,)}))
                       for v, x in zip(read, values)),
        hard=t.hard, soft=t.soft)


class TestCounterfactualTable:
    @settings(max_examples=40, deadline=None)
    @given(table_cases())
    def test_every_entry_is_its_prob_query(self, case):
        model, terms, reads = case
        den, table = ab.counterfactual_table(fresh(model), terms, reads)
        assert sum(table.values()) == den
        assert all(w > 0 for w in table.values())
        keys = list(itertools.product(*(
            itertools.product(*(model.domain(v) for v in read))
            for read in reads)))
        assert set(table) <= set(keys)
        for key in keys:
            q = query([with_outcomes(t, read, values)
                       for t, read, values in zip(terms, reads, key)])
            assert Fraction(table.get(key, 0), den) == \
                ab.prob_query(model, q)
        # by default a term reads its outcome variables
        asked = [with_outcomes(t, read, key)
                 for t, read, key in zip(terms, reads, keys[0])]
        assert ab.counterfactual_table(model, asked) == (den, table)

    def test_tables_leave_the_world_cache_alone(self, insurance):
        """Tables neither keep worlds nor record their terms' contents in
        the world cache, which only prob_query reads."""
        model = fresh(insurance)
        terms = [term([("Y", 1)], [("X", "x1")]), term([("X", "x2")])]
        den, table = ab.counterfactual_table(model, terms)
        for x in ("x1", "x2", "x3"):
            ab.counterfactual_table(model, [term([("Y", 1)], [("X", x)])])
        assert model._world_cache == {}
        assert Fraction(table[((1,), ("x2",))], den) == \
            ab.prob_query(model, query(terms))

    def test_term_numbers_stop_at_the_cache_limit(self, insurance,
                                                  monkeypatch):
        """Past CACHE_LIMIT term contents the world cache records no new
        content, whose worlds are then solved uncached, with the same
        answers, and past CACHE_LIMIT worlds in all it keeps no new world;
        each content's dict holds its own term's worlds, and queries of
        other contents write none into it."""
        monkeypatch.setattr(valuation, "CACHE_LIMIT", 3)
        model = fresh(insurance)
        soft = constant_soft_intervention(
            ("X",), [("x1",), ("x2",), ("x3",)],
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            share_key=("soft", "X"))
        # two queries per content: the second keeps its worlds
        kept = [query([term([("Y", y)], [("X", x)])])
                for x in ("x1", "x2", "x3") for y in (0, 1)]
        uncached = [query([term([("Y", 1)], [("Z", z)])])
                    for z in ("z1", "z2")]
        uncached.append(query([ab.QueryTerm(outcomes=(atom("Y", 1),),
                                            soft=(soft,))]))
        for q in kept:
            assert ab.prob_query(model, q) == ab.prob_query(fresh(model), q)
        cache = model._world_cache
        # Y under X=x1 keeps its two worlds, Y under X=x2 one, and the
        # limit leaves none for Y under X=x3
        assert [len(worlds) for worlds in cache.values()] == [2, 1, 0]
        before = {content: dict(worlds) for content, worlds in cache.items()}
        for q in uncached * 2:
            assert ab.prob_query(model, q) == ab.prob_query(fresh(model), q)
            assert {content: dict(worlds)
                    for content, worlds in cache.items()} == before
        for q in kept[::2]:
            setup = valuation._numbered(
                model, valuation._term_setup(model, q.terms[0]))
            program = valuation._compile(model, setup, ("Y",))
            assert setup.memo is not None
            assert all(program(idx) == world
                       for idx, world in setup.memo.items())

    def test_worlds_are_kept_from_the_second_query_on(self, insurance):
        """A content's worlds are cached from the second query that meets
        it on: one query on a fresh model leaves no worlds behind."""
        model = fresh(insurance)
        first = query([term([("Y", 1)], [("X", "x1")]), term([("Z", "z1")])])
        assert ab.prob_query(model, first) == reference_prob(model, first)
        assert len(model._world_cache) == 2
        assert not any(model._world_cache.values())
        second = query([term([("Y", 0)], [("X", "x1")])])
        for q in (second, first, second):
            assert ab.prob_query(model, q) == \
                ab.prob_query(fresh(model), q) == reference_prob(model, q)
        # Y under X=x1 varies with UY1 alone: its two worlds; Z's content
        # met a second time keeps its two as well
        assert sorted(map(len, model._world_cache.values())) == [2, 2]

    def test_terms_of_one_content_share_one_world_dict(self, insurance):
        """Terms of one content (hard settings, atoms and reads) share one
        world dict in a query, so a query counts each content once: a
        one-shot query whose second and third terms share a content keeps
        no worlds, and the second time it is asked keeps both contents'."""
        model = fresh(insurance)
        q = query([term([("Y", 1)], [("X", "x1")]),
                   term([("Y", 0)], [("X", "x2")]),
                   term([("Y", 1)], [("X", "x2")])])
        assert ab.prob_query(model, q) == reference_prob(model, q) == 0
        assert list(model._world_cache.values()) == [None, None]
        assert model._worlds == 0
        assert ab.prob_query(model, q) == 0
        assert sorted(map(len, model._world_cache.values())) == [2, 2]

    def test_terms_of_one_content_run_one_program(self, insurance,
                                                  monkeypatch):
        """Terms of one content show one world in every state, so the walk
        solves it once and hands it to each of them: Y=1 and Y=0 under one
        cell draw of X compile one program, run once per (state, cell)
        pair of Y's three blocks and X's three cells."""
        runs = counted_programs(monkeypatch)
        soft = constant_soft_intervention(
            ("X",), [("x1",), ("x2",), ("x3",)],
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            share_key=("soft", "X"))
        terms = [ab.QueryTerm(outcomes=(atom("Y", y),), soft=(soft,))
                 for y in (1, 0)]
        assert ab.prob_query(fresh(insurance), query(terms)) == 0 == \
            reference_prob(insurance, query(terms))
        assert runs == [24]
        del runs[:]
        den, table = ab.counterfactual_table(fresh(insurance), terms)
        assert runs == [24]
        assert sum(table.values()) == den
        assert {a for key in table for a in key} == {(0,), (1,)}
        assert all(a == b for a, b in table)

    def test_unread_hard_settings_share_one_walk(self, insurance,
                                                 monkeypatch):
        """Z is upstream of X, so Z[X=x1] reads no hard setting: its table
        is Z's, walked once and kept on the model, and in prob_query its
        content is Z's, whose world dict the second query creates."""
        walks = []
        real = valuation._tabulate

        def counted(scm, terms, setups, budget):
            walks.append(len(terms))
            return real(scm, terms, setups, budget)
        monkeypatch.setattr(valuation, "_tabulate", counted)
        pinned = term([("Z", "z1")], [("X", "x1")])
        plain = term([("Z", "z1")])
        model = fresh(insurance)
        want = ab.counterfactual_table(fresh(insurance), [plain])
        del walks[:]
        assert ab.counterfactual_table(model, [pinned]) == want
        assert ab.counterfactual_table(model, [plain]) == want
        assert walks == [1] and len(model._tables) == 1
        assert model._table_rows == len(want[1])
        for t in (pinned, plain):
            assert ab.prob_query(model, query([t])) == \
                reference_prob(model, query([t]))
        (worlds,) = model._world_cache.values()
        assert worlds

    def test_kept_tables_meet_the_budget_gate(self, insurance):
        """At a budget of exactly the states a table needs, and one below
        it, a kept table gives what a fresh model gives: the table, or the
        same SizeExceeded (kind, message and details). A stochastic
        setting's cells count in the need."""
        soft = constant_soft_intervention(
            ("X",), [("x1",), ("x2",), ("x3",)],
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            share_key=("soft", "X"))
        support = insurance.exogenous_support_size()
        cases = [([term([("Y", 1)], [("X", "x1")]), term([("X", "x2")])],
                  support),
                 ([ab.QueryTerm(outcomes=(atom("Y", 1),), soft=(soft,))],
                  support * 3)]

        def outcome(model, terms, budget):
            try:
                return ab.counterfactual_table(model, terms, budget=budget)
            except ab.SizeExceeded as err:
                return err.to_payload()
        for terms, need in cases:
            model = fresh(insurance)
            kept = ab.counterfactual_table(model, terms)
            for budget in (need, need - 1, need, need - 1):
                want = outcome(fresh(insurance), terms, budget)
                assert outcome(model, terms, budget) == want
                assert isinstance(want, dict) == (budget < need)
                if budget < need:
                    assert want["details"] == {"required": need,
                                               "budget": budget}
            assert model._tables == {tuple(
                valuation._term_setup(model, t).content
                for t in terms): kept}

    def test_kept_tables_keep_the_given_values(self):
        """A pinned variable that a table reads shows its value as the
        caller gave it. 1 and True pass the same domain check, and a model
        that answered do(A=True) answers do(A=1) as a fresh one, value
        types included."""
        low, _cm = build_lossy_chain(random.Random(0))
        model = fresh(low)
        for value in (True, 1, 1.0, 1):
            got = ab.joint_distribution(
                model, ["A", "C"], [ab.HardIntervention("A", value)])
            want = ab.joint_distribution(
                fresh(low), ["A", "C"], [ab.HardIntervention("A", value)])
            assert repr(got.probs) == repr(want.probs)
            assert {type(a) for a, _c in got.probs} == {type(value)}
        assert len(model._tables) == 3

    def test_kept_tables_stop_at_the_cache_limit(self, insurance,
                                                 monkeypatch):
        """The model keeps tables while they hold at most CACHE_LIMIT rows
        in all; past it a table is walked on every call, with the same
        answer."""
        monkeypatch.setattr(valuation, "CACHE_LIMIT", 5)
        asked = [[term([("Y", 1)], [("X", x)])] for x in ("x1", "x2", "x3")]
        asked.append([term([("Y", 1)]), term([("X", "x1")])])
        want = [ab.counterfactual_table(fresh(insurance), terms)
                for terms in asked]
        # two rows per table of Y alone: the first two fit the limit
        assert [len(table) for _den, table in want[:3]] == [2, 2, 2]
        model = fresh(insurance)
        for _ in range(3):
            for terms, table in zip(asked, want):
                assert ab.counterfactual_table(model, terms) == table
            assert list(model._tables.values()) == want[:2]
            assert model._table_rows == 4

    def test_undefined_tables_raise_and_are_not_kept(self, monkeypatch):
        """On the dead-context model ~XH=xC is undefined where ZH=z2: its
        table raises ImpossibleContext on every call, from a fresh walk,
        and the model keeps nothing."""
        model, cm = dead_context_model()
        tilde = ab.resolve_sigma(model, cm, ab.lower_query(cm, query([
            ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("YH"), 1),),
                         soft=(ab.SigmaMarker("XH", "xC"),))])),
            policy="markovian").terms[0]
        with pytest.raises(ab.ImpossibleContext) as first:
            ab.counterfactual_table(fresh(model), [tilde])
        walks = []
        real = valuation._tabulate

        def counted(*args):
            walks.append(1)
            return real(*args)
        monkeypatch.setattr(valuation, "_tabulate", counted)
        kept = fresh(model)
        for n in range(1, 4):
            with pytest.raises(ab.ImpossibleContext) as err:
                ab.counterfactual_table(kept, [tilde])
            assert err.value.to_payload() == first.value.to_payload()
            assert len(walks) == n
        assert kept._tables == {} and kept._table_rows == 0

    def test_shared_draws_named_in_opposite_orders(self):
        """Two terms name the share keys of V2 and V3 in opposite orders,
        and the second also draws V1 from a key private to it. Each term's
        world reads its cells in its own setup's order (resolution order),
        not in the walk's, cached or not."""
        nodes = ["V1", "V2", "V3", "V4"]
        model = build_dag_model(nodes, list(zip(nodes, nodes[1:])),
                                random.Random(2))

        def drawn(v, p):
            return constant_soft_intervention(
                (v,), [(0,), (1,)], (p, 1 - p), share_key=("soft", v))
        s1, s2, s3 = (drawn("V1", Fraction(1, 3)), drawn("V2", Fraction(1, 4)),
                      drawn("V3", Fraction(2, 5)))
        terms = [ab.QueryTerm(outcomes=(atom("V4", 1),), soft=(s3, s2)),
                 ab.QueryTerm(outcomes=(atom("V4", 0),), soft=(s2, s3, s1))]
        setups = [valuation._term_setup(model, t) for t in terms]
        assert [a.share_key for a in setups[0].atoms] == \
            [s2.share_key, s3.share_key]
        den, got = tabulated(valuation._tabulate, fresh(model), terms, False)
        assert (den, got) == tabulated(reference_tabulate, fresh(model),
                                       terms, False)
        q = query(terms)
        warm = fresh(model)
        for _ in range(3):
            assert ab.prob_query(warm, q) == reference_prob(model, q)
        assert all(warm._world_cache.values())

    @settings(max_examples=40, deadline=None)
    @given(table_cases(), st.data())
    def test_reads_name_noise_members(self, case, data):
        """Reads that mix variables and (block, member) keys give the
        reference's joint of world values and noise values."""
        model, terms, reads = case
        keys = sorted(model.member_index)
        reads = [(*read, data.draw(st.sampled_from(keys))) for read in reads]
        den, table = ab.counterfactual_table(fresh(model), terms, reads)
        want = {}
        for _idx, unit, w, choice in fraction_states(support_of(model),
                                                     terms):
            key = []
            for t, read in zip(terms, reads):
                env = reference_world(model, t, unit, choice)
                key.append(tuple(env[r] if r in model.var_index else unit[r]
                                 for r in read))
            want[tuple(key)] = want.get(tuple(key), 0) + w
        assert {k: Fraction(w, den) for k, w in table.items()} == want

    def test_unknown_reads_are_refused(self, insurance):
        for bad in ("W", ("UZ", "nope"), ("nope", "UZ")):
            with pytest.raises(ab.UnknownVariable):
                ab.counterfactual_table(insurance, [ab.QueryTerm()],
                                        [("Y", bad)])

    def test_programs_run_once_per_distinct_world(self, insurance,
                                                  monkeypatch):
        """A term that meets every block and cell draw of the enumeration
        runs its program once per state; a term that reads fewer blocks or
        fewer cell draws runs it once per distinct row index and draw."""
        runs = counted_programs(monkeypatch)
        visited = count_states(monkeypatch)
        soft = constant_soft_intervention(
            ("X",), [("x1",), ("x2",), ("x3",)],
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            share_key=("soft", "X"))
        observed = ab.QueryTerm()
        pinned = ab.QueryTerm(hard=(ab.HardIntervention("X", "x1"),))
        drawn = ab.QueryTerm(soft=(soft,))
        cases = [
            # X and UZ: UZ, UX1 and UX2, 18 states
            ([observed], [("X", ("UZ", "UZ"))], 18, [18]),
            # Y under X's cell: Y's three blocks times three cells
            ([drawn], [("Y",)], 8, [24]),
            # all six blocks; under X=x1, Y's table varies with UY1 only,
            # so UY1 is shared and the other five blocks are the observed
            # term's private ones: UY1's 2 states, then the 72 private
            # states listed once and summed at each of them
            ([observed, pinned], [("Y",), ("Y",)], 74, [144, 2]),
            # Y's blocks are shared; UZ, UX1 and UX2 are the observed
            # term's private blocks and X's cells the drawn term's: 8
            # shared states, then the observed term's 18 private states,
            # listed once and summed at each of them, where the joint walk
            # met 144 states 3 times
            ([observed, drawn], [("Y",), ("Y",)], 26, [144, 24]),
        ]
        for terms, reads, states, want in cases:
            del runs[:], visited[:]
            ab.counterfactual_table(fresh(insurance), terms, reads)
            assert len(visited) == states
            assert runs == want

    def test_terms_that_meet_each_world_once_keep_nothing(self):
        """A term that meets each of its worlds once keeps no memo, no
        factor table and no list of states. On a chain of 12 binary noise
        blocks, a table of one term, and one of two terms that both read
        every block, stay far below what listing the 4096 states takes
        in traced memory."""
        nodes = ["V%d" % i for i in range(12)]
        model = build_dag_model(nodes, list(zip(nodes, nodes[1:])),
                                random.Random(3))
        assert model.exogenous_support_size() == 2 ** 12
        last = ab.QueryTerm(outcomes=(atom("V11", 0),))
        for terms in ([last], [last, last]):
            ab.counterfactual_table(model, terms)
            tracemalloc.start()
            try:
                # a fresh model, so the table is walked, not the kept one
                ab.counterfactual_table(fresh(model), terms)
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20 / 4


# ---------------------------------------------------------------------------
# the factored walk against the joint walk


@st.composite
def walk_cases(draw):
    """A lossy chain (at times confounded, at times with A's noise fixed so
    that contexts of B have no mass) with its clusters, a DAG model with a
    shared block and identity clusters, the dead-context model or the
    insurance model, whose worlds read private blocks; and a query of one
    to three cluster-level terms, conditioned on at most one, each an
    outcome on a cluster, at times under a tilde setting of another
    cluster (one draw for every term that names the same cluster and
    label) and under hard settings of others. It is resolved on the low
    model under a drawn policy and fallback, or asked of the projected
    model; then most terms get a constant stochastic setting of a free
    variable, private to the term or shared with another term that draws
    the same one."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["chain", "dag", "dead", "insurance"]))
    if kind == "insurance":
        low = ab.load_scm(fixture_path("insurance.json"))
        cm = ab.load_clusters(low, fixture_path("insurance_clusters.json"))
    elif kind == "chain":
        low, cm = build_lossy_chain(
            rng, draw(st.booleans()),
            draw(st.sampled_from([None, Fraction(0), Fraction(1)])))
    elif kind == "dead":
        low, cm = dead_context_model()
    else:
        n = draw(st.integers(2, 4))
        nodes = ["V%d" % (i + 1) for i in range(n)]
        slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        edges = [e for e in slots if draw(st.booleans())]
        shared = draw(st.lists(st.sampled_from(nodes), min_size=2,
                               unique=True))
        low = build_dag_model(nodes, edges, rng, shared=tuple(shared))
        cm = identity_clusters(low)
    policy = draw(st.sampled_from(POLICIES))
    fallback = draw(st.sampled_from([None, "uniform"]))

    @st.composite
    def cluster_terms(draw):
        c = draw(st.sampled_from(cm.clusters))
        others = [d.name for d in cm.clusters if d is not c]
        soft = ()
        if draw(st.booleans()):
            d = draw(st.sampled_from(others))
            soft = (ab.SigmaMarker(d, draw(st.sampled_from(
                cm.cluster(d).labels()))),)
            others.remove(d)
        pinned = draw(st.lists(st.sampled_from(others), unique=True,
                               max_size=2)) if others else []
        return ab.QueryTerm(
            outcomes=(cluster_atom(c, draw(st.sampled_from(c.labels()))),),
            hard=tuple(ab.HardIntervention(d, draw(st.sampled_from(
                cm.cluster(d).labels()))) for d in pinned),
            soft=soft)

    q = query(draw(st.lists(cluster_terms(), min_size=1, max_size=3)),
              draw(st.lists(cluster_terms(), max_size=1)))
    if draw(st.booleans()):
        high = ab.construct_projected_abstraction(low, cm, policy=policy,
                                                  fallback=fallback)
        model, resolve = high.scm, lambda p: ab.resolve_sigma_high(high, p)
    else:
        model, resolve = low, lambda p: ab.resolve_sigma(
            low, cm, ab.lower_query(cm, p), policy=policy, fallback=fallback)
    try:
        q = resolve(q)
    except ab.ImpossibleContext:
        # a tilde label with no mass in any context
        q = resolve(q.map_terms(lambda t: ab.QueryTerm(outcomes=t.outcomes,
                                                       hard=t.hard)))

    def with_draw(t):
        taken = {h.variable for h in t.hard} | {
            v for a in t.soft for v in a.targets} | {
            v for oc in t.outcomes for v in oc.variables}
        free = [v for v in model.variable_names() if v not in taken]
        if not free or not draw(st.sampled_from([True, True, False])):
            return t
        v = draw(st.sampled_from(free))
        dom = model.domain(v)
        weights = draw(st.lists(st.integers(0, 3), min_size=len(dom),
                                max_size=len(dom)).filter(any))
        probs = tuple(Fraction(w, sum(weights)) for w in weights)
        soft = constant_soft_intervention([v], [(x,) for x in dom], probs,
                                          share_key=("soft", v, probs))
        return ab.QueryTerm(outcomes=t.outcomes, hard=t.hard,
                            soft=t.soft + (soft,))

    return model, q.map_terms(with_draw)


def tabulated(tabulate, model, terms, numbered):
    """``tabulate``'s table of what ``terms`` show, their setups numbered
    for the world cache or not."""
    setups = [valuation._term_setup(model, t) for t in terms]
    if numbered:
        setups = [valuation._numbered(model, s) for s in setups]
    return tabulate(model, terms, setups, None)


def with_messages(weights):
    """A table's (key, weight) pairs with each undefined world replaced by
    its error message, keys that then coincide summed, in first-met
    order."""
    out = {}
    for key, w in weights.items():
        key = tuple(("undefined", world.message)
                    if isinstance(world, ab.ImpossibleContext) else world
                    for world in key)
        out[key] = out.get(key, 0) + w
    return list(out.items())


def answer(fn, *args):
    """``fn(*args)``, or the kind and message of the package error it
    raises."""
    try:
        return fn(*args)
    except ab.AbstraktError as err:
        return err.kind, err.message


class TestFactoredWalk:
    """valuation._tabulate sums each term's private noise into factors
    before it joins the terms; the joint walk of tests/conftest.py is its
    oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(walk_cases())
    def test_tables_and_answers_match_the_joint_walk(self, case):
        model, q = case
        terms = list(q.terms) + list(q.conditioning)
        for numbered in (False, True):
            den, got = tabulated(valuation._tabulate, fresh(model), terms,
                                 numbered)
            want_den, want = tabulated(reference_tabulate, fresh(model),
                                       terms, numbered)
            assert den == want_den
            if any(isinstance(world, ab.ImpossibleContext)
                   for key in want for world in key):
                # the keys keep the joint walk's order, which decides the
                # error a query raises
                assert with_messages(got) == with_messages(want)
            else:
                assert got == want
        with mock.patch.object(valuation, "_tabulate", reference_tabulate):
            want_table = answer(ab.counterfactual_table, fresh(model), terms)
            want = answer(ab.prob_query, fresh(model), q)
        assert answer(ab.counterfactual_table, fresh(model), terms) == \
            want_table
        assert answer(ab.prob_query, fresh(model), q) == want
        # and on a model whose world cache holds the terms' worlds
        warm = fresh(model)
        for t in terms:
            answer(ab.prob_query, warm, query([t]))
        answer(ab.prob_query, warm, query(terms[::-1]))
        assert answer(ab.prob_query, warm, q) == want
        assert answer(ab.prob_query, warm, q) == want

    def test_undefined_worlds_take_the_joint_walk(self):
        """On the dead-context model ~XH=xC is undefined where ZH=z2. Next
        to Y under a stochastic setting of X, the table has private noise
        (X's cells against UZ and the tilde cells); its undefined worlds
        send it to the joint walk, so its keys come in the joint walk's
        order and the query raises the joint walk's error."""
        model, cm = dead_context_model()
        tilde = ab.resolve_sigma(model, cm, ab.lower_query(cm, query([
            ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("YH"), 1),),
                         soft=(ab.SigmaMarker("XH", "xC"),))])),
            policy="markovian").terms[0]
        drawn = ab.QueryTerm(outcomes=(atom("Y", 0),), soft=(
            constant_soft_intervention(
                ("X",), [("x1",), ("x2",), ("x3",)],
                (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                share_key=("soft", "X")),))
        terms = [drawn, tilde]
        noise = [set(s.blocks) | {a.share_key for a in s.atoms}
                 for s in (valuation._term_setup(model, t) for t in terms)]
        assert noise[0] - noise[1] and noise[1] - noise[0]
        for numbered in (False, True):
            den, got = tabulated(valuation._tabulate, fresh(model), terms,
                                 numbered)
            want_den, want = tabulated(reference_tabulate, fresh(model),
                                       terms, numbered)
            assert den == want_den
            assert with_messages(got) == with_messages(want)
        with pytest.raises(ab.ImpossibleContext) as err:
            ab.prob_query(fresh(model), query(terms))
        with mock.patch.object(valuation, "_tabulate", reference_tabulate):
            assert answer(ab.prob_query, fresh(model), query(terms)) == \
                (err.value.kind, err.value.message)


# ---------------------------------------------------------------------------
# order invariance


def dead_context_docs():
    """Z is uniform on {z1, z2}; X is x1 or x2 by its own noise under z1
    and always x3 under z2; Y reads X and its own noise (1 with probability
    1/2 under x1, 1/3 under x2 and 1/6 under x3). Clusters ZH and YH are
    identities, and XH merges x1 and x2 into xC, so under the markovian and
    general policies ~XH=xC has no reference mass where ZH=z2. Returns the
    model and cluster documents."""
    cut = {"x1": 3, "x2": 2, "x3": 1}
    model = {
        "endogenous": [{"name": "Z", "domain": ["z1", "z2"]},
                       {"name": "X", "domain": ["x1", "x2", "x3"]},
                       {"name": "Y", "domain": [0, 1]}],
        "blocks": [
            {"name": "UZ", "members": [{"name": "u", "domain": ["z1", "z2"]}],
             "table": [{"values": [z], "p": "1/2"} for z in ("z1", "z2")]},
            {"name": "UX", "members": [{"name": "u", "domain": ["x1", "x2"]}],
             "table": [{"values": [x], "p": "1/2"} for x in ("x1", "x2")]},
            {"name": "UY", "members": [{"name": "u",
                                        "domain": list(range(6))}],
             "table": [{"values": [u], "p": "1/6"} for u in range(6)]},
        ],
        "mechanisms": [
            {"variable": "Z", "endo_parents": [],
             "exo_parents": [{"block": "UZ", "member": "u"}],
             "table": [{"parents": [z], "out": z} for z in ("z1", "z2")]},
            {"variable": "X", "endo_parents": ["Z"],
             "exo_parents": [{"block": "UX", "member": "u"}],
             "table": [{"parents": [z, u], "out": u if z == "z1" else "x3"}
                       for z in ("z1", "z2") for u in ("x1", "x2")]},
            {"variable": "Y", "endo_parents": ["X"],
             "exo_parents": [{"block": "UY", "member": "u"}],
             "table": [{"parents": [x, u], "out": int(u < cut[x])}
                       for x in cut for u in range(6)]},
        ],
    }
    return model, {"clusters": [
        {"name": "ZH", "members": ["Z"], "values": [
            {"label": "z1", "tuples": [["z1"]]},
            {"label": "z2", "tuples": [["z2"]]}]},
        {"name": "XH", "members": ["X"], "values": [
            {"label": "xC", "tuples": [["x1"], ["x2"]]},
            {"label": "x3", "tuples": [["x3"]]}]},
        {"name": "YH", "members": ["Y"], "values": [
            {"label": 0, "tuples": [[0]]},
            {"label": 1, "tuples": [[1]]}]},
    ]}


def dead_context_model():
    """The dead-context model and its cluster map (see dead_context_docs)."""
    doc, cluster_doc = dead_context_docs()
    model = ab.validate_scm(doc)
    return model, ab.validate_clusters(model, cluster_doc)


def outcome_of(fn, model, q):
    """``fn(model, q)``, or the kind of the package error it raises."""
    try:
        return fn(model, q)
    except ab.AbstraktError as err:
        return err.kind


@st.composite
def order_cases(draw):
    """A lossy chain (at times confounded, at times with A's noise fixed at
    0 or 1 so that contexts of B have no mass) or the dead-context model,
    and a query of one to three cluster-level terms, conditioned on up to
    two, each an outcome on one cluster, mostly under a tilde setting of
    the lossy cluster, at times under a hard setting of another cluster;
    mostly lowered and resolved on the low model, else asked of the
    projected one, under a drawn policy. On both, a tilde world that
    meets a context with no reference mass is undefined."""
    if draw(st.booleans()):
        low, cm = build_lossy_chain(
            random.Random(draw(st.integers(0, 2 ** 32))), draw(st.booleans()),
            draw(st.sampled_from([None, Fraction(0), Fraction(1)])))
        lossy, labels, hard = "BH", ("lo", "hi"), [("BH", "hi"), ("A", 0),
                                                   ("A", 1)]
    else:
        low, cm = dead_context_model()
        lossy, labels, hard = "XH", ("xC", "x3"), [("XH", "x3"),
                                                   ("ZH", "z1"), ("ZH", "z2")]
    policy = draw(st.sampled_from(POLICIES))

    @st.composite
    def terms(draw):
        c = draw(st.sampled_from(cm.clusters))
        soft = ()
        if c.name != lossy and draw(st.sampled_from([True, True, False])):
            soft = (ab.SigmaMarker(lossy, draw(st.sampled_from(labels))),)
        ivs = [h for h in hard if h[0] != c.name
               and not (soft and h[0] == lossy)]
        pinned = draw(st.lists(st.sampled_from(ivs), max_size=1)) if ivs \
            else []
        return ab.QueryTerm(
            outcomes=(cluster_atom(c, draw(st.sampled_from(c.labels()))),),
            hard=tuple(ab.HardIntervention(v, x) for v, x in pinned),
            soft=soft)

    q = query(draw(st.lists(terms(), min_size=1, max_size=3)),
              draw(st.lists(terms(), max_size=2)))
    if draw(st.sampled_from(["high", "low", "low"])) == "high":
        high = ab.construct_projected_abstraction(low, cm, policy=policy)
        return high.scm, q, lambda p: ab.resolve_sigma_high(high, p)
    return low, q, lambda p: ab.resolve_sigma(
        low, cm, ab.lower_query(cm, p), policy=policy)


class TestOrderInvariance:
    """The terms of a counterfactual conjunction are events over one
    shared exogenous draw (the twin-network reading, Balke & Pearl 1994),
    so no order of the terms or of the conditioning terms can change an
    answer, or turn one into an ImpossibleContext."""

    def test_dead_context_model(self, tmp_path):
        """Both term orders of P(ZH=z1, YH[~XH=xC]=1) give 5/24, and
        P(YH[~XH=xC]=1 | ZH=z1) 5/12, on the low model and on the
        projected one; P(YH[~XH=xC]=1) alone is undefined on both, since
        xC has no reference mass where ZH=z2, and 5/12 on both under the
        agnostic policy, which reads no context."""
        model, cm = dead_context_model()
        z1 = ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("ZH"), "z1"),))
        y1 = ab.QueryTerm(outcomes=(cluster_atom(cm.cluster("YH"), 1),),
                          soft=(ab.SigmaMarker("XH", "xC"),))
        cases = ((query([z1, y1]), Fraction(5, 24)),
                 (query([y1, z1]), Fraction(5, 24)),
                 (query([y1], [z1]), Fraction(5, 12)))
        for policy in ("markovian", "general"):
            high = ab.construct_projected_abstraction(model, cm,
                                                      policy=policy)
            for q, want in cases:
                lowered = ab.resolve_sigma(model, cm, ab.lower_query(cm, q),
                                           policy=policy)
                assert ab.prob_query(model, lowered) == want
                assert reference_prob(model, lowered) == want
                assert ab.prob_query(
                    high.scm, ab.resolve_sigma_high(high, q)) == want
            alone = ab.resolve_sigma(model, cm, ab.lower_query(
                cm, query([y1])), policy=policy)
            with pytest.raises(ab.ImpossibleContext):
                ab.prob_query(model, alone)
            with pytest.raises(ab.ImpossibleContext):
                ab.prob_query(high.scm,
                              ab.resolve_sigma_high(high, query([y1])))
        high = ab.construct_projected_abstraction(model, cm,
                                                  policy="agnostic")
        assert ab.prob_query(high.scm, ab.resolve_sigma_high(
            high, query([y1]))) == Fraction(5, 12)
        assert ab.prob_query(model, ab.resolve_sigma(
            model, cm, ab.lower_query(cm, query([y1])),
            policy="agnostic")) == Fraction(5, 12)
        paths = [str(tmp_path / "m.json"), str(tmp_path / "c.json")]
        for path, doc in zip(paths, dead_context_docs()):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for text, code in (("P(YH[~XH=xC]=1, ZH=z1)", 0),
                           ("P(YH[~XH=xC]=1)", 3)):
            result = run(["eval", "--scm", paths[0], "--clusters", paths[1],
                          "--policy", "markovian", "--query", text])
            assert result.exit_code == code
        assert result.payload["error"]["kind"] == "ImpossibleContext"

    @settings(max_examples=150, deadline=None)
    @given(order_cases(), st.data())
    def test_every_order_matches_the_reference(self, case, data):
        model, q, resolve = case
        try:
            resolved = resolve(q)
        except ab.ImpossibleContext:
            # a tilde label with no mass in any context
            return
        want = outcome_of(reference_prob, model, resolved)
        assert outcome_of(ab.prob_query, fresh(model), resolved) == want
        for _ in range(2):
            shuffled = query(data.draw(st.permutations(resolved.terms)),
                             data.draw(st.permutations(resolved.conditioning)))
            assert outcome_of(reference_prob, model, shuffled) == want
            assert outcome_of(ab.prob_query, fresh(model), shuffled) == want
            # and on a model whose world cache holds the other orders' worlds
            assert outcome_of(ab.prob_query, model, shuffled) == want
