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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .errors import (
    DomainMismatch,
    ImpossibleContext,
    IncompleteAssignment,
    NotClusterUnion,
    UnknownVariable,
    ZeroConditioning,
)
from .scm import (
    CACHE_LIMIT,
    Diagram,
    check_budget,
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

    ``breaks`` are the cell boundaries shared by all contexts; ``cell_map``
    gives, per context key (the parent labels ``parents`` read and the
    response class ``rho`` reads), the index into ``candidates`` that each
    cell selects. A context without a cell map has no reference mass: a
    world that meets it is undefined. ``exo_cells`` optionally maps
    exogenous member keys to per-cell values: in the world this atom acts
    on, those members are replaced with the value selected by the atom's
    drawn cell, so downstream mechanisms that read them see a fresh draw
    instead of the world's own one.
    """

    targets: tuple
    share_key: tuple
    candidates: tuple
    breaks: tuple
    cell_map: dict
    parents: tuple = ()
    rho: object = None
    label: str = ""
    exo_cells: dict = field(default_factory=dict)

    def cell_widths(self):
        return tuple(self.breaks[i + 1] - self.breaks[i]
                     for i in range(len(self.breaks) - 1))


def _cell_map(breaks, probs):
    """The inverse distribution function of ``probs`` on the cells between
    consecutive ``breaks``: the candidate index each cell selects."""
    cum = tuple(accumulate(probs))
    return tuple(next(j for j, edge in enumerate(cum) if left < edge)
                 for left in breaks[:-1])


def _cell_grid(tables):
    """Breakpoints shared by every table of ``tables`` (every cumulative
    sum, plus 0 and 1) and each table's cell map."""
    points = {Fraction(0), Fraction(1)}
    for probs in tables.values():
        points.update(accumulate(probs))
    breaks = tuple(sorted(points))
    return breaks, {ctx: _cell_map(breaks, probs)
                    for ctx, probs in tables.items()}


@dataclass(frozen=True)
class OutcomeAtom:
    """A constraint on a world: the joint value of ``variables`` must lie in
    ``accepted``. Low-level equality uses a single variable and value; a
    high-level equality uses a cluster's members and its label's preimage."""

    variables: tuple
    accepted: frozenset


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

    def map_terms(self, fn):
        """The query with ``fn`` applied to every term and conditioning
        term."""
        return CounterfactualQuery(
            terms=tuple(map(fn, self.terms)),
            conditioning=tuple(map(fn, self.conditioning or ())))


@dataclass
class DistributionTable:
    """An exact joint distribution over a variable list."""

    variables: tuple
    domains: tuple
    probs: dict

    def prob(self, values):
        return self.probs.get(tuple(values), Fraction(0))


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


def _fingerprint(atom):
    """Everything of a stochastic intervention that the worlds it acts on
    can read, as a hashable value."""
    rho = atom.rho
    return (atom.targets, atom.candidates, atom.breaks,
            frozenset(atom.cell_map.items()),
            frozenset(atom.exo_cells.items()),
            tuple((pc.members, frozenset(pc.value_of.items()))
                  for pc in atom.parents),
            None if rho is None else
            (rho.member_keys, frozenset(rho.class_of.items())))


def _live_members(scm, variable, pinned):
    """The noise members of ``variable``'s mechanism that its table still
    varies with once the endogenous parents of ``pinned`` ((parent, value)
    pairs) are fixed: a member is dead when changing it alone never
    changes the output, whatever the free parents and the other members
    are. Kept per (variable, pinned) on the model while it holds fewer
    than CACHE_LIMIT entries."""
    key = (variable, pinned)
    live = scm._live.get(key)
    if live is not None:
        return live
    mech = scm.mechanisms[variable]
    at = dict(pinned)
    fixed = [(i, at[p]) for i, p in enumerate(mech.endo_parents) if p in at]
    rows = [(k, out) for k, out in mech.table.items()
            if all(k[i] == x for i, x in fixed)]
    live = []
    for j, member in enumerate(mech.exo_parents, len(mech.endo_parents)):
        outs = {}
        for k, out in rows:
            if outs.setdefault(k[:j] + k[j + 1:], out) != out:
                live.append(member)
                break
    live = tuple(live)
    if len(scm._live) < CACHE_LIMIT:
        scm._live[key] = live
    return live


def _relevance(scm, reads, hard=None, atoms=()):
    """The variables a world must solve to know ``reads``, and the sorted
    positions of the exogenous blocks those variables read: the ancestors
    of ``reads`` in the graph where the variables of ``hard`` (a mapping
    to their values) are pinned and each atom of ``atoms`` sets its
    targets from its context. The walk stops at a pinned variable, follows
    an atom's target into the members of its parent contexts and the
    blocks of its shared-noise members, and follows any other variable
    into its mechanism's parents and the blocks of its noise members,
    except members an atom redraws from its cell. When ``hard`` pins some
    of a mechanism's endogenous parents, only its live members at those
    values count (context-specific independence): a dead member cannot
    change the output, so the world is solved with it at any value. Every
    other block sums to its own denominator and cancels from every answer
    (the barren-node reduction), so it need not be enumerated. A noise
    member of ``reads``, a (block, member) key, adds its block.

    Also returns the pinned variables the walk meets: those of ``reads``,
    the pinned parents of the variables it solves and the pinned members
    of its atoms' contexts. The world reads no other hard setting."""
    hard = hard or {}
    setter = {t: a for a in atoms for t in a.targets}
    redrawn = {k for a in atoms for k in a.exo_cells}
    needed = set()
    met = set()
    blocks = {k[0] for k in reads if k in scm.member_index}
    stack = [v for v in reads if v in scm.var_index]
    while stack:
        v = stack.pop()
        if v in needed:
            continue
        if v in hard:
            met.add(v)
            continue
        needed.add(v)
        atom = setter.get(v)
        if atom is None:
            mech = scm.mechanisms[v]
            stack.extend(mech.endo_parents)
            members = mech.exo_parents
            pinned = tuple((p, hard[p]) for p in mech.endo_parents
                           if p in hard)
            if pinned:
                members = _live_members(scm, v, pinned)
            blocks.update(k[0] for k in members if k not in redrawn)
            continue
        stack.extend(m for pc in atom.parents for m in pc.members)
        if atom.rho is not None:
            blocks.update(b for b, _m in atom.rho.member_keys)
    return needed, tuple(sorted(scm.block_position[b] for b in blocks)), met


def _reader(slots):
    """A getter of the tuple of the values at positions ``slots`` of a
    sequence (itemgetter of one position returns the item, not a tuple)."""
    if len(slots) == 1:
        i = slots[0]
        return lambda seq: (seq[i],)
    return itemgetter(*slots) if slots else (lambda _seq: ())


def _resolve(step, slots, cell):
    """Set one atom's targets in a slot list whose context slots are
    solved, from its drawn ``cell``."""
    atom, parents, rho, targets = step
    ctx = (tuple([value_of[get(slots)] for value_of, get in parents]),
           None if rho is None else atom.rho.class_of[rho(slots)])
    mapping = atom.cell_map.get(ctx)
    if mapping is None:
        raise ImpossibleContext(
            "stochastic intervention %s hit context %r with zero "
            "probability under the reference distribution" %
            (atom.label or atom.share_key, ctx),
            context=repr(ctx), target=atom.label)
    for i, value in zip(targets, atom.candidates[mapping[cell]]):
        slots[i] = value


def _compile(scm, setup, out):
    """Compile a term's world into a slot program: a function from the
    term's index tuple (a row index per own block, then a cell index per
    atom, in resolution order) to the tuple of the values of ``out`` in
    that world.

    The program's slot list holds the members of the term's own blocks,
    contiguous per block, so a state's row is one slice assignment; the
    other noise members its mechanisms and atoms read, at their block's
    reference row (the first positive one), which is safe because such a
    member is dead under the term's hard settings or redrawn; the hard
    values; and the variables the term solves, in solve order. Each
    mechanism is a step (slot, table, getter of its key over input slots).
    Each run applies the atoms' exo_cells redraws first, as the dict
    solver does, then solves the mechanisms between the atoms and resolves
    each atom from its context slots."""
    values, _weights, _lcms, keys = scm._block_rows()
    slot = {}
    template = []

    def place(name, value=None):
        slot[name] = len(template)
        template.append(value)

    own = []
    for b in setup.blocks:
        start = len(template)
        for k in keys[b]:
            place(k)
        own.append((start, len(template), values[b]))
    targets = {t for a in setup.atoms for t in a.targets}
    order = [v for segment in setup.segments for v in segment]
    reads = [k for v in order if v not in targets
             for k in scm.mechanisms[v].exo_parents]
    reads += [k for a in setup.atoms if a.rho is not None
              for k in a.rho.member_keys]
    for k in reads:
        if k not in slot:
            b = scm.block_position[k[0]]
            place(k, values[b][0][keys[b].index(k)])
    # an atom's cell index follows the row indices of the own blocks
    redraws = [(slot[k], mapping, n)
               for n, a in enumerate(setup.atoms, len(own))
               for k, mapping in a.exo_cells.items() if k in slot]
    for v, value in setup.hard.items():
        place(v, value)
    for v in order:
        place(v)

    def steps(segment):
        found = []
        for v in segment:
            if v in targets:
                continue
            mech = scm.mechanisms[v]
            found.append((slot[v], mech.table, _reader(
                [slot[p] for p in mech.endo_parents]
                + [slot[k] for k in mech.exo_parents])))
        return found

    def atom_step(a):
        return (a,
                [(pc.value_of, _reader([slot[m] for m in pc.members]))
                 for pc in a.parents],
                None if a.rho is None else
                _reader([slot[k] for k in a.rho.member_keys]),
                [slot[t] for t in a.targets])

    runs = [steps(segment) for segment in setup.segments]
    last = runs.pop()
    atoms = [(found, atom_step(a), n) for n, (found, a)
             in enumerate(zip(runs, setup.atoms), len(own))]
    get = _reader([slot[v] for v in out])

    def run(idx):
        slots = template[:]
        for (start, end, rows), i in zip(own, idx):
            slots[start:end] = rows[i]
        for i, mapping, n in redraws:
            slots[i] = mapping[idx[n]]
        for found, step, n in atoms:
            for i, table, key in found:
                slots[i] = table[key(slots)]
            _resolve(step, slots, idx[n])
        for i, table, key in last:
            slots[i] = table[key(slots)]
        return get(slots)
    return run


@dataclass(eq=False, slots=True)
class _TermSetup:
    """A checked term's world plan and content (see _term_setup), its
    content's cached worlds (see _numbered), and its compiled world once
    one is solved."""

    hard: dict
    atoms: list
    segments: list
    blocks: tuple
    content: tuple
    memo: object = None
    program: object = None

    @property
    def out(self):
        """What the world shows (the last part of its content)."""
        return self.content[2]


def _content(hard, atoms, out):
    """A world's content: the hard settings it reads, its atoms' share keys
    and fingerprints in resolution order, and the tuple ``out`` of what it
    shows. Worlds of one content show the same in every exogenous state
    and cell draw. A setting's value counts with its type: 1, 1.0 and True
    pass the same domain check, and a world shows a pinned variable's
    value as it was given."""
    return (tuple(sorted([(v, x, type(x)) for v, x in hard.items()])),
            tuple([(a.share_key, _fingerprint(a)) for a in atoms]),
            tuple(out))


def _term_setup(scm, term, reads=None):
    """Check a term and plan its world. Returns the world's _TermSetup: the
    hard settings it reads, the distinct atoms in the order they are
    resolved, the solve-order segments between them, the positions of the
    blocks the world reads and its content (see _content) over ``reads``
    (default: the outcome variables); it has no cached worlds (see
    _numbered) and no program yet (see _tabulate). Only the variables that
    the outcomes, ``reads`` and the atoms' targets depend on are solved,
    and only the hard settings that the walk to them meets (see
    _relevance) are kept, while every setting is checked; ``reads`` may
    name noise members by their (block, member) keys."""
    hard_map = _check_hard(scm, term.hard)
    atoms = []
    seen = {}
    for a in term.soft:
        if not isinstance(a, SoftIntervention):
            raise DomainMismatch(
                "term carries an unresolved stochastic intervention %r; "
                "resolve it against a model and policy first" % (a,))
        if a.share_key in seen:
            _check_shared(seen[a.share_key], a)
            continue
        seen[a.share_key] = a
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
    out = [v for oc in term.outcomes for v in oc.variables]
    walk = out + [t for a in atoms for t in a.targets]
    if reads is not None:
        out = list(reads)
        for v in out:
            if v not in scm.var_index and v not in scm.member_index:
                raise UnknownVariable("unknown variable %r" % (v,),
                                      variable=v)
        walk += out
    needed, blocks, met = _relevance(scm, walk, hard_map, atoms)
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
    order = [v for v in order if v in needed]
    # Each atom is resolved just before its first target; the segments of
    # the order between those stops are solved from the mechanisms.
    stops = sorted((min((order.index(t) for t in a.targets),
                        default=len(order)), n)
                   for n, a in enumerate(atoms))
    atoms = [atoms[n] for _pos, n in stops]
    bounds = [0] + [pos for pos, _n in stops] + [len(order)]
    segments = [order[i:j] for i, j in zip(bounds, bounds[1:])]
    hard = {v: x for v, x in hard_map.items() if v in met}
    return _TermSetup(hard, atoms, segments, blocks,
                      _content(hard, atoms, out))


def _numbered(scm, setup, met=None):
    """Count a setup's content (see _content) in the world cache, which
    maps a content to its {index tuple: world} dict: the first setup to
    meet a content records it, the second creates the dict that it and
    every later one keeps its worlds in. Past CACHE_LIMIT contents none is
    recorded.

    ``met`` maps the contents one query has met so far to their first
    setups, so that a query counts each content once: a later term of a
    content met before gets that setup, and the walk solves its worlds
    once for all of them (see _tabulate)."""
    content = setup.content
    if met is not None:
        first = met.setdefault(content, setup)
        if first is not setup:
            return first
    cache = scm._world_cache
    if content not in cache:
        if len(cache) < CACHE_LIMIT:
            cache[content] = None
        return setup
    memo = cache[content]
    if memo is None:
        memo = cache[content] = {}
    setup.memo = memo
    return setup


def _check_shared(known, atom):
    """Refuse two stochastic interventions under one share key unless
    they are the same intervention: one cell draw cannot serve two."""
    if known is not atom and _fingerprint(known) != _fingerprint(atom):
        raise DomainMismatch(
            "two stochastic interventions share key %r but disagree"
            % (atom.share_key,))


def _cell_widths(scm, terms, budget):
    """Check the budget against the full exogenous support times the cell
    draws of ``terms``, then return each share key's positive cells, in
    the order the terms name them: (cell index, width) pairs. The gate
    of every table, fresh or kept."""
    atoms = {}
    for a in (a for t in terms for a in t.soft):
        _check_shared(atoms.setdefault(a.share_key, a), a)
    total = scm.exogenous_support_size()
    widths = {}
    for key, a in atoms.items():
        cells = [(i, x) for i, x in enumerate(a.cell_widths()) if x > 0]
        if sum((x for _i, x in cells), Fraction(0)) != 1:
            raise DomainMismatch(
                "cell widths of %r do not sum to 1" % (a.share_key,))
        widths[key] = cells
        total *= len(cells)
    check_budget(total, budget, "enumeration needs %d states")
    return widths


def _draws(scm, terms, budget, blocks):
    """Check the budget (see _cell_widths), then return the common
    denominator of the states over the blocks at positions ``blocks`` and
    all shared cell draws, and each share key's cells, in the order the
    terms name them: (cell index, integer weight over the atom's lcm of
    cell denominators) pairs."""
    widths = _cell_widths(scm, terms, budget)
    den = scm.exogenous_denominator(blocks)
    draws = {}
    for key, cells in widths.items():
        lcm = math.lcm(*(x.denominator for _i, x in cells))
        draws[key] = [(i, x.numerator * (lcm // x.denominator))
                      for i, x in cells]
        den *= lcm
    return den, draws


def _tabulate(scm, terms, setups, budget):
    """The one walker of the exogenous states: it sums the states of the
    blocks some term's world reads times the cell draws, and returns the
    common denominator and a dict from per-term tuples of what the worlds
    show (each setup's ``out``) to integer weights that sum to it, where an
    undefined world holds the ImpossibleContext its program raised.

    Blocks and share keys' cell draws are one kind of noise, taken in one
    order (blocks by position, then keys as the terms name them). A source
    that one term alone reads is that term's private noise, and is summed
    out before the terms are joined (variable elimination): at each point
    of the term's own shared sources, its worlds over its private states
    make one {world: weight} factor, and one pass over the shared states
    joins the terms' factors by product. Points and private states are
    exogenous_states products, and one pick puts a term's shared and
    private indices in its setup's order, its world's index tuple. A term
    keeps its factors for the call only where its own shared sources are
    fewer than the walk's; a term that meets each point once keeps none,
    and lists its private states only when it sums them at more than one
    point. Each world comes from _world.

    The joint walk is this walk with nothing private: every state of
    every block with every draw. A table of one term meets its worlds in
    the joint walk's order; a table of several whose factors hold an
    undefined world is walked again jointly, so that its keys come in the
    order that decides which error a query raises.

    Terms of one content (see _content) show one world in every state and
    share one setup (see _numbered and counterfactual_table), so the walk
    solves each setup once and hands its world to every term of it."""
    distinct = list(dict.fromkeys(setups))
    if len(distinct) < len(setups):
        den, weights = _tabulate(scm, terms, distinct, budget)
        spread = _reader([distinct.index(s) for s in setups])
        return den, {spread(key): w for key, w in weights.items()}
    blocks = sorted(set().union(*(s.blocks for s in setups)))
    den, draws = _draws(scm, terms, budget, blocks)
    sources = blocks + list(draws)
    noise = []
    readers = {}
    for setup in setups:
        if setup.memo is None:
            setup.program = _compile(scm, setup, setup.out)
        noise.append(setup.blocks + tuple(a.share_key for a in setup.atoms))
        for x in noise[-1]:
            readers[x] = readers.get(x, 0) + 1
    shared = {x for x, n in readers.items() if n > 1}
    while True:
        walk = [x for x in sources if x in shared]
        plans = []
        for setup, mine in zip(setups, noise):
            out = setup.out
            own = [x for x in walk if x in mine]
            private = [x for x in sources if x in mine and x not in shared]
            states = None
            if private:
                states = scm.exogenous_states(
                    [x for x in private if x not in draws],
                    [draws[x] for x in private if x in draws])
                if own:
                    states = list(states)
            at = own + private
            pick = None if at == list(mine) else \
                _reader([at.index(x) for x in mine])
            plans.append((setup, out, _reader([walk.index(x) for x in own]),
                          {} if len(own) < len(walk) else None, states,
                          pick))
        weights = {}
        points = scm.exogenous_states(
            [x for x in walk if x not in draws],
            [draws[x] for x in walk if x in draws]) if walk else [((), 1)]
        for point, wp in points:
            combos = [((), wp)]
            for setup, out, own_pick, table, states, pick in plans:
                sh_idx = own_pick(point)
                factor = None if table is None else table.get(sh_idx)
                if factor is None:
                    if states is None:
                        factor = ((_world(scm, setup, out, sh_idx if pick
                                          is None else pick(sh_idx)), 1),)
                    else:
                        factor = {}
                        for p_idx, pp in states:
                            idx = sh_idx + p_idx
                            world = _world(scm, setup, out, idx if pick
                                           is None else pick(idx))
                            factor[world] = factor.get(world, 0) + pp
                        factor = tuple(factor.items())
                    if table is not None:
                        table[sh_idx] = factor
                combos = [(key + (world,), w * fw) for key, w in combos
                          for world, fw in factor]
            for key, w in combos:
                weights[key] = weights.get(key, 0) + w
        # only a stochastic intervention's context can leave a world
        # undefined
        if len(setups) == 1 or len(shared) == len(readers) or not draws \
                or not any(isinstance(world, ImpossibleContext)
                           for key in weights for world in key):
            return den, weights
        shared = set(readers)


def _world(scm, setup, out, idx):
    """A term's world at its index tuple (see _compile), an undefined one
    as the ImpossibleContext its program raised. A term with a dict in the
    world cache (see _numbered) keeps its worlds there while the cache
    holds fewer than CACHE_LIMIT worlds, and compiles on its first miss."""
    memo = setup.memo
    if memo is not None:
        world = memo.get(idx)
        if world is not None:
            return world
        if setup.program is None:
            setup.program = _compile(scm, setup, out)
    try:
        world = setup.program(idx)
    except ImpossibleContext as err:
        world = err.with_traceback(None)
    if memo is not None and scm._worlds < CACHE_LIMIT:
        memo[idx] = world
        scm._worlds += 1
    return world


def _holds(worlds, terms):
    """Whether the worlds of ``terms``, each the tuple of its outcome
    variables, meet every outcome: false if any defined world fails one,
    else the first undefined world's ImpossibleContext is raised, so the
    order of the terms cannot matter."""
    error = None
    for world, term in zip(worlds, terms):
        if isinstance(world, ImpossibleContext):
            error = error or world
            continue
        i = 0
        for oc in term.outcomes:
            j = i + len(oc.variables)
            if world[i:j] not in oc.accepted:
                return False
            i = j
    if error is not None:
        # a fresh error: the one a memo keeps must not hold this traceback
        raise ImpossibleContext(error.message, **error.details)
    return True


def prob_query(scm, query, budget=None):
    """Exact probability of a counterfactual conjunction, optionally
    conditioned on another conjunction, read off one table of what the
    terms' worlds show (see _tabulate and _holds). All terms share the
    exogenous draw and all shared stochastic-intervention cells, and terms
    of one content share one world dict (see _numbered) and one run of its
    program per state (see _tabulate)."""
    if not query.terms:
        raise DomainMismatch("query has no terms")
    terms = list(query.terms) + list(query.conditioning or ())
    met = {}
    setups = [_numbered(scm, _term_setup(scm, t), met) for t in terms]
    _den, weights = _tabulate(scm, terms, setups, budget)
    n = len(query.terms)
    main, given = terms[:n], terms[n:]
    num = cond = 0
    for key, weight in weights.items():
        if _holds(key[n:], given):
            cond += weight
            if _holds(key, main):
                num += weight
    if cond == 0:
        raise ZeroConditioning("conditioning event has probability zero")
    return Fraction(num, cond)


def counterfactual_table(scm, terms, reads=None, budget=None):
    """Joint integer weights of what the worlds of ``terms`` show over the
    shared exogenous draw and cells, from one walk that sums each term's
    private noise before it joins the terms (see _tabulate): the common
    denominator and a dict from per-term tuples of ``reads`` (default: each
    term's outcome variables; accepted sets are not applied) to weights.
    ``reads`` may name noise members by (block, member) key. No world is
    kept past the call; a world undefined in any state raises its
    ImpossibleContext.

    The model keeps each table it returns, keyed by its terms' contents
    (see _content), while it keeps at most CACHE_LIMIT rows in all: terms
    that differ only in hard settings their worlds never read get the
    same table. A kept table meets the budget gate a fresh one meets, and
    no caller may change it. A table with an undefined world is not
    kept."""
    if not terms:
        raise DomainMismatch("query has no terms")
    if reads is None:
        reads = [None] * len(terms)
    setups = [_term_setup(scm, t, r) for t, r in zip(terms, reads)]
    key = tuple(s.content for s in setups)
    kept = scm._tables.get(key)
    if kept is not None:
        _cell_widths(scm, terms, budget)
        return kept
    first = {}
    den, weights = _tabulate(scm, terms, [first.setdefault(s.content, s)
                                          for s in setups], budget)
    for worlds in weights:
        for world in worlds:
            if isinstance(world, ImpossibleContext):
                raise world
    if scm._table_rows + len(weights) <= CACHE_LIMIT:
        scm._tables[key] = den, weights
        scm._table_rows += len(weights)
    return den, weights


def joint_distribution(scm, variables, interventions=(), budget=None):
    """Exact joint table over ``variables`` in the single world produced by
    ``interventions`` (any iterable of hard and soft ones, mixed)."""
    interventions = tuple(interventions)
    hard = tuple(i for i in interventions if isinstance(i, HardIntervention))
    soft = tuple(i for i in interventions if isinstance(i, SoftIntervention))
    if len(hard) + len(soft) != len(interventions):
        raise DomainMismatch(
            "interventions must be hard or resolved stochastic interventions")
    variables = tuple(variables)
    den, weights = counterfactual_table(
        scm, [QueryTerm(hard=hard, soft=soft)], [variables], budget)
    return DistributionTable(
        variables=variables, domains=tuple(map(scm.domain, variables)),
        probs={key: Fraction(w, den) for (key,), w in weights.items()})


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
