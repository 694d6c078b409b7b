"""Exact valuation of observational, interventional, and counterfactual
queries by enumeration of the joint exogenous state.

Counterfactual conjunctions share one exogenous draw across all terms.
Stochastic (soft) interventions are resolved through a shared uniform
"cell": the unit interval is split at every cumulative breakpoint of the
intervention's context tables, one cell draw is shared by every term that
intervenes the same target with the same table, and each world maps the
cell to a concrete value through the inverse distribution function of the
table selected by that world's context. Identical contexts therefore give
identical values across worlds, and different contexts stay maximally
coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product

from .errors import (
    DomainMismatch,
    ImpossibleContext,
    IncompleteAssignment,
    NotClusterUnion,
    SizeExceeded,
    UnknownVariable,
    ZeroConditioning,
)
from .scm import (
    Diagram,
    enumeration_budget,
    format_decimal,
    format_rational,
    topological_order,
)


@dataclass(frozen=True)
class HardIntervention:
    """Force one variable to one value."""

    variable: str
    value: object


@dataclass(frozen=True)
class ParentContext:
    """Reads one high-level parent value out of a partially evaluated world:
    the member variables' joint value is mapped to its cluster label."""

    cluster: str
    members: tuple
    value_of: object  # mapping from member-value tuple to label


@dataclass(frozen=True)
class RhoContext:
    """Classifies the joint value of shared exogenous members into response
    classes; used by the context-sensitive intervention policy."""

    member_keys: tuple  # of (block, member) pairs
    class_of: object    # mapping from joint member values to class id


@dataclass
class SoftIntervention:
    """A stochastic assignment to a tuple of variables.

    ``tables`` maps a context key (parent labels, response class) to a
    probability tuple over ``candidates``. ``breaks`` are the cumulative
    cell boundaries shared by all contexts; ``cell_map`` gives, per context,
    the candidate index selected by each cell. ``exo_cells`` optionally maps
    exogenous member keys to per-cell values: in the world this atom acts
    on, those members are replaced with the value selected by the atom's
    drawn cell, so downstream mechanisms that read them see a fresh draw
    instead of the world's own one.
    """

    targets: tuple
    share_key: tuple
    candidates: tuple
    tables: dict
    breaks: tuple
    cell_map: dict
    parents: tuple = ()
    rho: object = None
    fallback: object = None
    label: str = ""
    exo_cells: dict = field(default_factory=dict)

    def cell_widths(self):
        return tuple(self.breaks[i + 1] - self.breaks[i]
                     for i in range(len(self.breaks) - 1))


def _uniform(k):
    """The uniform distribution over ``k`` candidates."""
    return (Fraction(1, k),) * k


def _cell_map(breaks, probs):
    """The inverse distribution function of ``probs`` on the cells between
    consecutive ``breaks``: the candidate index each cell selects."""
    cum = tuple(accumulate(probs))
    return tuple(next(j for j, edge in enumerate(cum) if left < edge)
                 for left in breaks[:-1])


def _cell_grid(tables, uniform_k=None):
    """Breakpoints shared by every table of ``tables`` (every cumulative
    sum, plus 0 and 1) and each table's cell map. With ``uniform_k`` the
    grid also refines the uniform distribution over that many candidates,
    so a uniform fallback maps onto the same cells."""
    points = {Fraction(0), Fraction(1)}
    for probs in tables.values():
        points.update(accumulate(probs))
    if uniform_k:
        points.update(accumulate(_uniform(uniform_k)))
    breaks = tuple(sorted(points))
    return breaks, {ctx: _cell_map(breaks, probs)
                    for ctx, probs in tables.items()}


def constant_soft_intervention(targets, candidates, probs, share_key, label=""):
    """A context-free stochastic intervention with a single table."""
    probs = tuple(Fraction(p) for p in probs)
    if sum(probs, Fraction(0)) != 1:
        raise DomainMismatch("stochastic intervention weights must sum to 1")
    tables = {((), None): probs}
    breaks, cell_map = _cell_grid(tables)
    return SoftIntervention(targets=tuple(targets), share_key=share_key,
                            candidates=tuple(tuple(c) for c in candidates),
                            tables=tables, breaks=breaks, cell_map=cell_map,
                            label=label)


@dataclass(frozen=True)
class OutcomeAtom:
    """A constraint on a world: the joint value of ``variables`` must lie in
    ``accepted``. Low-level equality uses a single variable and value; a
    high-level equality uses a cluster's members and its label's preimage."""

    variables: tuple
    accepted: frozenset
    label: str = ""


@dataclass
class QueryTerm:
    """One counterfactual term: outcome constraints evaluated in the world
    produced by the term's interventions."""

    outcomes: tuple = ()
    hard: tuple = ()
    soft: tuple = ()


@dataclass
class CounterfactualQuery:
    terms: tuple
    conditioning: tuple = ()


@dataclass
class DistributionTable:
    """An exact joint distribution over a variable list."""

    variables: tuple
    domains: tuple
    probs: dict

    def prob(self, values):
        return self.probs.get(tuple(values), Fraction(0))

    def to_payload(self):
        entries = []
        for values in sorted(self.probs, key=repr):
            p = self.probs[values]
            entries.append({"values": list(values),
                            "rational": format_rational(p),
                            "decimal": format_decimal(p)})
        return {"variables": list(self.variables), "entries": entries}


def normalize_unit(scm, u):
    """Normalize an exogenous assignment to (block, member) keys and check
    that it covers every member of every block."""
    out = {}
    for key, value in u.items():
        resolved = scm.resolve_exo_key(key)
        dom = scm.member_index[resolved].domain
        if value not in dom:
            raise DomainMismatch(
                "value %r is outside the domain of exogenous member %r"
                % (value, resolved))
        out[resolved] = value
    missing = [k for k in scm.member_index if k not in out]
    if missing:
        raise IncompleteAssignment(
            "exogenous assignment misses %s"
            % ", ".join("%s.%s" % k for k in missing), missing=missing)
    return out


def _check_hard(scm, hard):
    seen = {}
    for h in hard:
        if h.variable not in scm.var_index:
            raise UnknownVariable("cannot intervene on unknown variable %r"
                                  % h.variable, variable=h.variable)
        if h.value not in scm.domain(h.variable):
            raise DomainMismatch(
                "intervention value %r is outside the domain of %r"
                % (h.value, h.variable))
        if h.variable in seen and seen[h.variable] != h.value:
            raise DomainMismatch(
                "variable %r intervened twice with different values" % h.variable)
        seen[h.variable] = h.value
    return seen


def evaluate_unit(scm, u, hard=None):
    """Deterministic world for one exogenous assignment under hard
    interventions. Returns a dict over all endogenous variables."""
    unit = normalize_unit(scm, u)
    hard_map = _check_hard(scm, [HardIntervention(k, v)
                                 for k, v in (hard or {}).items()])
    return scm.solve(unit, hard_map)


def _resolve_soft(atom, env, unit, cell):
    """Set an atom's targets in a world whose context members are solved."""
    ctx = (tuple(pc.value_of[tuple(env[m] for m in pc.members)]
                 for pc in atom.parents),
           None if atom.rho is None else
           atom.rho.class_of[tuple(unit[k] for k in atom.rho.member_keys)])
    mapping = atom.cell_map.get(ctx)
    if mapping is None:
        if atom.fallback != "uniform":
            raise ImpossibleContext(
                "stochastic intervention %s hit context %r with zero "
                "probability under the reference distribution" %
                (atom.label or atom.share_key, ctx),
                context=repr(ctx), target=atom.label)
        mapping = _cell_map(atom.breaks, _uniform(len(atom.candidates)))
    env.update(zip(atom.targets, atom.candidates[mapping[cell]]))


def _fingerprint(atom):
    """Everything of a stochastic intervention that the worlds it acts on
    can read, as a hashable value."""
    rho = atom.rho
    return (atom.targets, atom.candidates, atom.breaks, atom.fallback,
            frozenset(atom.cell_map.items()),
            frozenset(atom.exo_cells.items()),
            tuple((pc.members, frozenset(pc.value_of.items()))
                  for pc in atom.parents),
            None if rho is None else
            (rho.member_keys, frozenset(rho.class_of.items())))


def _world(scm, u_idx, unit, setup, cell_choice):
    """Solve one world. Worlds are cached per term content, exogenous state
    and cell draws, so repeated terms are free."""
    hard_map, atoms, segments, term_no = setup
    cells = tuple(cell_choice[a.share_key] for a in atoms)
    sig = (term_no, u_idx, cells)
    cached = scm._world_cache.get(sig)
    if cached is not None:
        return cached
    override = {mk: mapping[cell] for a, cell in zip(atoms, cells)
                for mk, mapping in a.exo_cells.items()}
    if override:
        unit = {**unit, **override}
    env = dict(hard_map)
    for segment, atom, cell in zip(segments, atoms, cells):
        scm.solve(unit, env, segment)
        _resolve_soft(atom, env, unit, cell)
    scm.solve(unit, env, segments[-1])
    if len(scm._world_cache) < 1_000_000:
        scm._world_cache[sig] = env
    return env


def _term_setup(scm, term):
    hard_map = _check_hard(scm, term.hard)
    atoms = []
    seen = set()
    for a in term.soft:
        if not isinstance(a, SoftIntervention):
            raise DomainMismatch(
                "term carries an unresolved stochastic intervention %r; "
                "resolve it against a model and policy first" % (a,))
        if a.share_key in seen:
            continue
        seen.add(a.share_key)
        atoms.append(a)
    taken = set(hard_map)
    for a in atoms:
        for t in a.targets:
            if t not in scm.var_index:
                raise UnknownVariable(
                    "cannot intervene on unknown variable %r" % t, variable=t)
            if t in taken:
                raise DomainMismatch(
                    "variable %r receives two interventions in one term" % t)
            taken.add(t)
    for oc in term.outcomes:
        for v in oc.variables:
            if v not in scm.var_index:
                raise UnknownVariable("unknown outcome variable %r" % v,
                                      variable=v)
            if v in taken:
                raise DomainMismatch(
                    "variable %r is both intervened and constrained in one term"
                    % v)
    order = scm.topological_order_names()
    if any(a.parents for a in atoms):
        # An atom reads its context before it sets its targets, so the
        # world is solved in the order of its own graph: mechanism edges
        # into free variables, context edges into each atom's targets.
        directed = [(p, v) for v in order if v not in taken
                    for p in scm.mechanisms[v].endo_parents]
        directed += [(m, t) for a in atoms for pc in a.parents
                     for m in pc.members for t in a.targets]
        order = topological_order(Diagram(
            nodes=scm.variable_names(), directed=tuple(directed),
            bidirected=()))
    # Each atom is resolved just before its first target; the segments of
    # the order between those stops are solved from the mechanisms.
    stops = sorted((min((order.index(t) for t in a.targets),
                        default=len(order)), n)
                   for n, a in enumerate(atoms))
    atoms = [atoms[n] for _pos, n in stops]
    bounds = [0] + [pos for pos, _n in stops] + [len(order)]
    segments = [order[i:j] for i, j in zip(bounds, bounds[1:])]
    content = (tuple(sorted(hard_map.items(), key=lambda kv: kv[0])),
               tuple(_fingerprint(a) for a in atoms))
    term_no = scm._world_terms.setdefault(content, len(scm._world_terms))
    return hard_map, atoms, segments, term_no


def _term_holds(scm, u_idx, unit, term, setup, cell_choice):
    env = _world(scm, u_idx, unit, setup, cell_choice)
    for oc in term.outcomes:
        if tuple(env[v] for v in oc.variables) not in oc.accepted:
            return False
    return True


def _collect_atoms(terms):
    atoms = {}
    for term in terms:
        for a in term.soft:
            known = atoms.get(a.share_key)
            if known is None:
                atoms[a.share_key] = a
            elif known.tables != a.tables or known.candidates != a.candidates:
                raise DomainMismatch(
                    "two stochastic interventions share key %r but disagree"
                    % (a.share_key,))
    return atoms


def _enumerate(scm, terms, budget):
    """Yield (u_idx, unit, weight, cell_choice) over the joint exogenous
    state and all shared cell draws, after a budget check."""
    atoms = list(_collect_atoms(terms).values())
    widths = []
    for a in atoms:
        w = [x for x in a.cell_widths() if x > 0]
        if sum(w, Fraction(0)) != 1:
            raise DomainMismatch(
                "cell widths of %r do not sum to 1" % (a.share_key,))
        widths.append([(i, x) for i, x in enumerate(a.cell_widths()) if x > 0])
    total = scm.exogenous_support_size()
    for w in widths:
        total *= len(w)
    bud = enumeration_budget(budget)
    if total > bud:
        raise SizeExceeded(
            "enumeration needs %d states, budget is %d" % (total, bud),
            required=total, budget=bud)
    keys = [a.share_key for a in atoms]
    for u_idx, unit, pu in scm.exogenous_support():
        for combo in product(*widths) if widths else [()]:
            weight = pu
            choice = {}
            for key, (ci, cw) in zip(keys, combo):
                weight *= cw
                choice[key] = ci
            yield u_idx, unit, weight, choice


def prob_query(scm, query, budget=None):
    """Exact probability of a counterfactual conjunction, optionally
    conditioned on another conjunction. All terms share the exogenous draw
    and all shared stochastic-intervention cells."""
    if not query.terms:
        raise DomainMismatch("query has no terms")
    all_terms = list(query.terms) + list(query.conditioning or ())
    setups = [_term_setup(scm, t) for t in all_terms]
    n_main = len(query.terms)
    conditioned = bool(query.conditioning)
    num = Fraction(0)
    den = Fraction(0)
    for u_idx, unit, weight, choice in _enumerate(scm, all_terms, budget):
        ok_cond = True
        if conditioned:
            for term, setup in zip(all_terms[n_main:], setups[n_main:]):
                if not _term_holds(scm, u_idx, unit, term, setup, choice):
                    ok_cond = False
                    break
            if not ok_cond:
                continue
            den += weight
        ok = True
        for term, setup in zip(all_terms[:n_main], setups[:n_main]):
            if not _term_holds(scm, u_idx, unit, term, setup, choice):
                ok = False
                break
        if ok:
            num += weight
    if conditioned:
        if den == 0:
            raise ZeroConditioning("conditioning event has probability zero")
        return num / den
    return num


def joint_distribution(scm, variables, interventions=(), budget=None):
    """Exact joint table over ``variables`` in the single world produced by
    ``interventions`` (hard and soft mixed)."""
    hard = tuple(i for i in interventions if isinstance(i, HardIntervention))
    soft = tuple(i for i in interventions if isinstance(i, SoftIntervention))
    if len(hard) + len(soft) != len(tuple(interventions)):
        raise DomainMismatch(
            "interventions must be hard or resolved stochastic interventions")
    term = QueryTerm(outcomes=(), hard=hard, soft=soft)
    setup = _term_setup(scm, term)
    for v in variables:
        if v not in scm.var_index:
            raise UnknownVariable("unknown variable %r" % v, variable=v)
    probs = {}
    for u_idx, unit, weight, choice in _enumerate(scm, [term], budget):
        env = _world(scm, u_idx, unit, setup, choice)
        key = tuple(env[v] for v in variables)
        probs[key] = probs.get(key, Fraction(0)) + weight
    domains = tuple(scm.domain(v) for v in variables)
    return DistributionTable(variables=tuple(variables), domains=domains,
                             probs=probs)


def marginal_pushforward(table, cm):
    """Push a low-level joint table through a cluster map. The table's
    variable set must be exactly a union of clusters."""
    covered = set(table.variables)
    chosen = []
    for cluster in cm.clusters:
        members = set(cluster.members)
        if members & covered:
            if not members <= covered:
                raise NotClusterUnion(
                    "table covers only part of cluster %r" % cluster.name,
                    cluster=cluster.name)
            chosen.append(cluster)
            covered -= members
    if covered:
        raise NotClusterUnion(
            "variables %s belong to no cluster" % ", ".join(sorted(map(str, covered))),
            variables=sorted(map(str, covered)))
    pos = {v: i for i, v in enumerate(table.variables)}
    probs = {}
    for values, p in table.probs.items():
        key = []
        for cluster in chosen:
            joint = tuple(values[pos[m]] for m in cluster.members)
            key.append(cluster.label_of(joint))
        key = tuple(key)
        probs[key] = probs.get(key, Fraction(0)) + p
    return DistributionTable(
        variables=tuple(c.name for c in chosen),
        domains=tuple(tuple(c.labels()) for c in chosen),
        probs=probs)
