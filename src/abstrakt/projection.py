"""Projection of a low-level model onto its clusters.

The constructed high-level model keeps one variable per cluster. Clusters
flagged by the consistency check get an extra unobserved block holding one
uniform "cell" variable per lossy high value; consumers reconstruct a
concrete member tuple from the cell through the inverse distribution
function of a context-dependent reference table (the sigma distribution).
Contexts are the high values of the cluster's parents, read in the world
being evaluated, plus a response class of the shared noise blocks under the
context-sensitive policy.

Three policies fix how much of the world the reference table may see:
``agnostic`` (nothing), ``markovian`` (the cluster's parents), ``general``
(parents and the response class of noise blocks shared with the rest of
the model).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .errors import (
    DomainMismatch,
    ImpossibleContext,
    UnknownVariable,
)
from .scm import (
    CACHE_LIMIT,
    DiscreteScm,
    ExoMember,
    ExogenousBlock,
    Mechanism,
    VariableDecl,
    _Probabilities,
    _array,
    _items,
    _require,
    _scalar,
    _scalars,
    check_budget,
    format_rational,
    scm_to_doc,
    validate_scm,
    write_json,
)
from .abstraction import (
    Cluster,
    ClusterValue,
    SigmaMarker,
    _parent_clusters,
    _working_model,
    check_aic,
)
from .valuation import (
    HardIntervention,
    ParentContext,
    QueryTerm,
    RhoContext,
    SoftIntervention,
    _cell_grid,
    _relevance,
    counterfactual_table,
)

POLICIES = ("agnostic", "markovian", "general")
# The tables a context without reference mass may get; with fallback None
# it gets none, and a world that meets it is undefined.
FALLBACKS = ("uniform",)


def validate_policy(policy):
    if policy not in POLICIES:
        raise DomainMismatch(
            "unknown policy %r; expected one of %s" % (policy, ", ".join(POLICIES)))
    return policy


def validate_fallback(fallback):
    if fallback is not None and fallback not in FALLBACKS:
        raise DomainMismatch(
            "unknown fallback %r; expected one of %s, or none"
            % (fallback, ", ".join(FALLBACKS)))
    return fallback


# ---------------------------------------------------------------------------
# full projection of a model onto a variable subset


def project_full(scm, keep, budget=None):
    """Marginalize the variables outside ``keep`` out of the model.

    Every kept variable's mechanism inlines the mechanisms of its dropped
    ancestors, so its parents become its nearest kept ancestors and it
    inherits the dropped ancestors' noise references. Blocks are unchanged,
    which preserves the joint noise distribution and every confounding
    relation."""
    keep_set = set(keep)
    for v in keep_set:
        if v not in scm.var_index:
            raise UnknownVariable("cannot keep unknown variable %r" % v,
                                  variable=v)
    order = scm.topological_order_names()
    topo_pos = {v: i for i, v in enumerate(order)}
    decl_pos = {v: i for i, v in enumerate(scm.variable_names())}
    member_pos = {(b.name, m.name): (scm.block_position[b.name], i)
                  for b in scm.blocks for i, m in enumerate(b.members)}

    inputs = {}  # var -> (endo inputs, exo inputs, dropped ancestors)
    for v in order:
        mech = scm.mechanisms[v]
        endo, exo, dropped = set(), set(mech.exo_parents), set()
        for p in mech.endo_parents:
            if p in keep_set:
                endo.add(p)
            else:
                pe, px, pd = inputs[p]
                endo.update(pe)
                exo.update(px)
                dropped.update(pd)
                dropped.add(p)
        endo = sorted(endo, key=decl_pos.get)
        exo = sorted(exo, key=member_pos.get)
        inputs[v] = (endo, exo, sorted(dropped, key=topo_pos.get))
        size = math.prod(len(scm.domain(p)) for p in endo)
        size *= math.prod(len(scm.member_index[k].domain) for k in exo)
        check_budget(size, budget, "projected mechanism for %r needs %d rows",
                     v, variable=v)

    kept_decls = tuple(d for d in scm.endogenous if d.name in keep_set)
    mechanisms = {}
    for d in kept_decls:
        endo, exo, dropped = inputs[d.name]
        steps, n = dropped + [d.name], len(endo)
        unit, table = {}, {}
        for combo in product(*[scm.domain(p) for p in endo],
                             *[scm.member_index[k].domain for k in exo]):
            unit.update(zip(exo, combo[n:]))
            table[combo] = scm.solve(unit, dict(zip(endo, combo[:n])),
                                     steps)[d.name]
        mechanisms[d.name] = Mechanism(variable=d.name,
                                       endo_parents=tuple(endo),
                                       exo_parents=tuple(exo), table=table)
    return DiscreteScm(endogenous=kept_decls, blocks=scm.blocks,
                       mechanisms=mechanisms)


# ---------------------------------------------------------------------------
# sigma distributions


def _signature(scm, variable, fixed):
    """The mechanism of ``variable`` as a function table, with the exogenous
    members in ``fixed`` pinned: its outputs in the product order of its
    inputs' domains, a pinned member's domain being its one value."""
    mech = scm.mechanisms[variable]
    return tuple(mech.table[key] for key in product(
        *(scm.domain(p) for p in mech.endo_parents),
        *((fixed[k],) if k in fixed else scm.member_index[k].domain
          for k in mech.exo_parents)))


def _rho_shared_reads(scm, members):
    """The response classes of the noise blocks ``members`` share with the
    rest of the model, as (member keys, class of each joint value): two
    joint shared values are equivalent when every outside consumer's
    mechanism, restricted to them, is the same function. Nothing shared
    gives ((), {})."""
    inside = set(members)
    inside_blocks = []
    for m in members:
        for (b, _k) in scm.mechanisms[m].exo_parents:
            if b not in inside_blocks:
                inside_blocks.append(b)
    outside_vars = []
    outside_blocks = set()
    for v in scm.variable_names():
        if v in inside:
            continue
        for (b, _k) in scm.mechanisms[v].exo_parents:
            if b in inside_blocks:
                outside_blocks.add(b)
                if v not in outside_vars:
                    outside_vars.append(v)
    member_keys = tuple((b, m.name) for b in inside_blocks
                        if b in outside_blocks
                        for m in scm.block_index[b].members)
    if not member_keys:
        return (), {}
    class_of = {}
    signatures = {}
    for joint in product(*(scm.member_index[k].domain for k in member_keys)):
        fixed = dict(zip(member_keys, joint))
        sig = tuple(_signature(scm, w, fixed) for w in outside_vars)
        class_of[joint] = signatures.setdefault(sig, len(signatures))
    return member_keys, class_of


def sigma_machinery(scm, cm, cluster_name, policy, budget=None,
                    fallback=None):
    """The cluster's DeltaSplit with its reference tables: for every value,
    the distribution over its member tuples per context. The tables are
    computed on the working model, where the variables outside every
    cluster are projected away. With ``fallback='uniform'`` every context
    without mass gets the uniform table (see _fill_uniform).

    When the map covers every variable of ``scm``, the split is kept on
    ``scm`` per (cluster map content, cluster, policy, fallback) while it
    keeps fewer than CACHE_LIMIT of them, and is shared by every later
    call, so no caller may change it. A kept split still meets the gate of
    a fresh call, the states of the sigma computation."""
    validate_policy(policy)
    validate_fallback(fallback)
    c = cm.cluster(cluster_name)
    key = (cm.key, cluster_name, policy, fallback)
    if key in scm._sigma:
        states, split = scm._sigma[key]
        check_budget(states, budget, "sigma computation needs %d states")
        return split
    working = _working_model(scm, cm, budget)
    split = DeltaSplit(name=c.name, members=c.members, values=c.values)
    if policy != "agnostic":
        split.parents = _parent_clusters(working, cm, c)
    if policy == "general":
        split.rho_members, split.rho_classes = _rho_shared_reads(
            working, c.members)
    states = working.exogenous_support_size()
    check_budget(states, budget, "sigma computation needs %d states")
    parent_clusters = [cm.by_name[p] for p in split.parents]
    reads = [*c.members, *(m for pc in parent_clusters for m in pc.members),
             *split.rho_members]
    _den, weights = counterfactual_table(working, [QueryTerm()], [reads],
                                         budget)
    totals = {}
    masses = {}
    for (values,), w in weights.items():
        env = dict(zip(reads, values))
        joint = tuple(env[m] for m in c.members)
        label = c.label_of(joint)
        pa = {pc.name: pc.label_of(tuple(env[m] for m in pc.members))
              for pc in parent_clusters}
        ctx = split.context(pa, env)
        totals[(label, ctx)] = totals.get((label, ctx), 0) + w
        key2 = (label, ctx, joint)
        masses[key2] = masses.get(key2, 0) + w
    for cv in c.values:
        split.sigma[cv.label] = {
            ctx: tuple(Fraction(masses.get((label, ctx, t), 0), tot)
                       for t in cv.tuples)
            for (label, ctx), tot in totals.items() if label == cv.label}
    if fallback == "uniform":
        _fill_uniform(split, cm.by_name)
    if working is scm and len(scm._sigma) < CACHE_LIMIT:
        scm._sigma[key] = (states, split)
    return split


def _uniform(k):
    """The uniform distribution over ``k`` candidates."""
    return (Fraction(1, k),) * k


def _fill_uniform(split, clusters):
    """Give every context of ``_all_contexts`` that a label's table lacks
    the uniform table over the label's member tuples: the reference policy
    for contexts without mass under ``fallback='uniform'``."""
    contexts = _all_contexts(clusters, split)
    for label, tables in split.sigma.items():
        uniform = _uniform(len(split.fiber(label)))
        for ctx in contexts:
            tables.setdefault(ctx, uniform)


def _match_value(token, candidates, what):
    """The one candidate whose text is ``token``."""
    hits = [c for c in candidates if str(c) == token]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise DomainMismatch(
            "value %r is not a %s; expected one of %s"
            % (token, what, ", ".join(map(str, candidates))))
    raise DomainMismatch("value %r is ambiguous in %s" % (token, what))


def _context_key(context, split, clusters, scm, complete=True):
    """Read a context given for ``split``'s reference tables: None, a
    (parents, shared) pair of mappings or a dict with 'parents' and
    'shared' ones. A parent entry binds to a label of its cluster in
    ``clusters`` (name -> Cluster); a shared entry to the one shared noise
    member of the split its name gives ((block, member), 'block.member' or
    a bare member name) and a value of that member's domain in ``scm``.
    Labels and values match by their text. With ``complete``, every parent
    cluster and shared member must be given, and the (parent labels,
    response class) key of the tables is returned."""
    if context is None:
        parts = (None, None)
    elif isinstance(context, dict):
        parts = (context.get("parents"), context.get("shared"))
    elif isinstance(context, (tuple, list)) and len(context) == 2:
        parts = context
    else:
        parts = None  # not iterable, so rejected below
    try:
        parents, shared = (dict(part or {}) for part in parts)
    except (TypeError, ValueError):
        raise DomainMismatch(
            "context must be None, a (parents, shared) pair of mappings, or "
            "a dict with 'parents' and 'shared' mappings")
    for name, token in parents.items():
        if name not in clusters:
            raise UnknownVariable("unknown cluster %r in context" % (name,),
                                  cluster=name)
        parents[name] = _match_value(str(token), clusters[name].labels(),
                                     "value of cluster %s" % name)
    unit = {}
    for name, token in shared.items():
        keys = [k for k in split.rho_members
                if name in (k, "%s.%s" % k, k[1])]
        if len(keys) != 1:
            raise UnknownVariable(
                ("%r is not a shared noise member of %s" if not keys else
                 "shared noise member name %r is ambiguous in %s; name it "
                 "as 'block.member'") % (name, split.name), member=name)
        unit[keys[0]] = _match_value(str(token),
                                     scm.member_index[keys[0]].domain,
                                     "value of %s.%s" % keys[0])
    if not complete:
        return None
    for p in split.parents:
        if p not in parents:
            raise DomainMismatch(
                "context must give a value for parent cluster %r" % p,
                cluster=p)
    for k in split.rho_members:
        if k not in unit:
            raise DomainMismatch(
                "context must give a value for shared noise member %s.%s"
                % k, member=k)
    return split.context(parents, unit)


def sigma_distribution(scm, cm, cluster, label, policy="general",
                       context=None, budget=None, fallback=None):
    """Exact reference distribution over a cluster value's member tuples in
    one context (see _context_key). Raises ImpossibleContext when the
    context has probability zero (unless ``fallback='uniform'``)."""
    cm.cluster(cluster).fiber(label)  # an unknown label raises first
    split = sigma_machinery(scm, cm, cluster, policy, budget, fallback)
    probs = _context_probs(split.sigma[label],
                           _context_key(context, split, cm.by_name, scm),
                           cluster, label)
    return dict(zip(split.fiber(label), probs))


def _context_probs(tables, ctx, cluster, label):
    """The reference probabilities a cluster value's tables give one
    context, or ImpossibleContext when they have none for it."""
    probs = tables.get(ctx)
    if probs is not None:
        return probs
    raise ImpossibleContext(
        "context %r has probability zero together with %s=%s"
        % (ctx, cluster, label), cluster=cluster, label=label)


# ---------------------------------------------------------------------------
# resolving stochastic interventions for the valuation engine


def _resolve_markers(query, resolve):
    """Replace every SigmaMarker of a query with ``resolve(marker)``, called
    once per (cluster, label), so markers with the same cluster and label
    share one intervention across all terms. A HardIntervention result
    joins the term's hard interventions."""
    resolved = {}

    def rewrite(term):
        hard = list(term.hard)
        soft = []
        for a in term.soft:
            if isinstance(a, SigmaMarker):
                key = (a.cluster, a.label)
                if key not in resolved:
                    resolved[key] = resolve(a)
                a = resolved[key]
            (hard if isinstance(a, HardIntervention) else soft).append(a)
        return QueryTerm(outcomes=term.outcomes, hard=tuple(hard),
                         soft=tuple(soft))

    return query.map_terms(rewrite)


def resolve_sigma(scm, cm, query, policy="general", budget=None,
                  fallback=None):
    """Replace every SigmaMarker in a query with a concrete stochastic
    intervention whose tables come from the model's reference distribution
    under the given policy. Markers with the same cluster and label share
    one cell draw across all terms."""
    validate_policy(policy)
    validate_fallback(fallback)

    def atom_for(marker):
        cm.cluster(marker.cluster).fiber(marker.label)
        split = sigma_machinery(scm, cm, marker.cluster, policy, budget,
                                fallback)
        ctx_tables = split.sigma[marker.label]
        if not ctx_tables:
            raise ImpossibleContext(
                "value %s=%s has probability zero everywhere"
                % (marker.cluster, marker.label),
                cluster=marker.cluster, label=marker.label)
        breaks, cell_map = split.grid(marker.label)
        # the machinery content the cells are drawn from, so atoms from
        # different models or policies never share a draw by accident; a
        # frozenset keeps its hash, so the key stays cheap to look up
        share_key = ("sigma", policy, marker.cluster, str(marker.label),
                     split.parents, frozenset(ctx_tables.items()))
        return SoftIntervention(
            targets=tuple(split.members), share_key=share_key,
            candidates=tuple(split.fiber(marker.label)), breaks=breaks,
            cell_map=cell_map, **split.readers(lambda p: (
                cm.by_name[p].members, dict(cm.by_name[p]._label_of))),
            label="%s=%s" % (marker.cluster, marker.label))

    return _resolve_markers(query, atom_for)


# ---------------------------------------------------------------------------
# the projected high-level model


@dataclass
class DeltaSplit(Cluster):
    """One cluster of the projected model with its reference tables: the
    parent clusters and shared-noise response classes (rho) that key them,
    the sigma tables of its lossy labels and, for consistency violators,
    the unobserved disambiguation cell: one block member per label and
    context, whose cells are read off the sigma tables (see grid)."""

    violator: bool = False
    parents: tuple = ()
    rho_members: tuple = ()
    rho_classes: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=dict)
    component: dict = field(default_factory=dict)
    block: object = None

    def context(self, labels, unit):
        """The (parent labels, response class) key of this cluster's
        reference tables, read off the parent clusters' ``labels`` and the
        shared noise members of ``unit``."""
        cls = None
        if self.rho_members:
            cls = self.rho_classes[tuple(unit[k] for k in self.rho_members)]
        return tuple(labels[g] for g in self.parents), cls

    def readers(self, read):
        """The context readers of a stochastic intervention drawn from these
        tables, as SoftIntervention keyword arguments: a ParentContext per
        parent cluster p, from ``read(p)``, the variables p is read off and
        the label of each of their joint values; and the response-class
        reader of the shared noise members."""
        rho = None
        if self.rho_members:
            rho = RhoContext(member_keys=self.rho_members,
                             class_of=self.rho_classes)
        return {"parents": tuple(ParentContext(*read(p))
                                 for p in self.parents), "rho": rho}

    def grid(self, label):
        """The cell breakpoints shared by ``label``'s sigma tables and each
        context's cell map."""
        return _cell_grid(self.sigma[label])


@dataclass
class HighLevelScm:
    """A projected model: the high-level SCM, one DeltaSplit per cluster,
    and the policy and fallback its reference tables were built with, kept
    as a record for its document (the tables already hold the fallback)."""

    scm: DiscreteScm
    splits: dict
    policy: str
    fallback: object = None


def _component_member(cluster, label, index):
    return "%s__u__%s__c%d" % (cluster, label, index)


def _all_contexts(clusters, split):
    """Every context a reconstruction can meet, in canonical order: the
    product of the parent clusters' label domains (``clusters`` maps names
    to clusters) crossed with the response classes of the shared noise
    blocks."""
    pa_domains = [clusters[p].labels() for p in split.parents]
    classes = [None]
    if split.rho_members:
        classes = sorted(set(split.rho_classes.values()))
    out = []
    for pa in product(*pa_domains):
        for cls in classes:
            out.append((tuple(pa), cls))
    return out


def _cells(split, clusters):
    """The cells of a flagged split, read off its sigma tables: under each
    lossy label, one member per context of _all_contexts that has a table,
    named by _component_member in that order. Returns the member of each
    label and context, and the table of each member."""
    contexts = _all_contexts(clusters, split)
    component, tables = {}, {}
    for label in split.lossy_labels():
        sigma = split.sigma.get(label, {})
        named = component[label] = {}
        for ctx in contexts:
            if ctx in sigma:
                named[ctx] = _component_member(split.name, label, len(named))
                tables[named[ctx]] = sigma[ctx]
    return component, tables


def _cell_rows(tables):
    """The members and rows of the cell block whose members, in order, have
    the reference tables ``tables`` (member -> table): each member ranges
    over its table's positions, and each row's probability is the product
    of its members' entries, as each member is drawn on its own. The rows
    are (joint index, numerator) pairs over one denominator, returned with
    it."""
    members = tuple(ExoMember(name=member, domain=tuple(range(len(w))))
                    for member, w in tables.items())
    den, scaled = 1, []
    for w in tables.values():
        lcm = math.lcm(*(p.denominator for p in w))
        scaled.append([p.numerator * (lcm // p.denominator) for p in w])
        den *= lcm
    rows = zip(product(*(m.domain for m in members)),
               map(math.prod, product(*scaled)))
    return members, den, rows


def _cell_block(name, tables):
    """The cell block ``name`` of _cell_rows(tables)."""
    members, den, rows = _cell_rows(tables)
    return ExogenousBlock(name=name, members=members,
                          table={key: Fraction(num, den) for key, num in rows})


def construct_projected_abstraction(scm, cm, policy="general", budget=None,
                                    fallback=None):
    """Build the high-level model induced by a cluster map.

    Variables left out of every cluster are marginalized away first. The
    consistency check decides which clusters keep an unobserved cell block;
    children of those clusters take the cluster's parents as extra inputs so
    they can select the right reference table, and they read the shared
    noise blocks when the policy is context sensitive. The rows of every
    cell block and high mechanism count against the budget together, before
    any of them is built.

    A mechanism is built from its live inputs: at each value of its parent
    labels and of the noise outside the cells, each flagged parent's
    context selects one of its cell members, so the cluster's members are
    solved once per value of the selected members, and the label is written
    to every row that differs only in the cells no context selects
    (context-specific independence).

    Each split of the result shares its reference tables and response
    classes with the split the low model keeps (see sigma_machinery), so
    a caller that changes them in place changes later answers of the low
    model."""
    validate_policy(policy)
    validate_fallback(fallback)
    report = check_aic(scm, cm, budget)
    working = report.scm
    violators = set(report.violators)

    splits = {}
    cells = {}  # cell block -> the reference table of each of its members
    for c in cm.clusters:
        lossy = c.lossy_labels()
        if not lossy:
            splits[c.name] = DeltaSplit(name=c.name, members=c.members,
                                        values=c.values)
            continue
        # the model keeps the split sigma_machinery returns, so a copy is
        # trimmed to the lossy labels and given its own cells
        kept = sigma_machinery(working, cm, c.name, policy, budget,
                               fallback)
        split = splits[c.name] = replace(
            kept, sigma={label: kept.sigma[label] for label in lossy},
            component={})
        if c.name not in violators:
            continue
        split.violator = True
        split.block = "%s__u" % c.name
        split.component, cells[split.block] = _cells(split, cm.by_name)

    # each mechanism's inputs: parent labels, then the noise it reads, with
    # the cell members last, as the cell blocks follow the model's blocks
    inputs = {}
    rows = sum(math.prod(map(len, tables.values()))
               for tables in cells.values())
    for c in cm.clusters:
        direct = _parent_clusters(working, cm, c)
        endo = set(direct)
        exo = {k for m in c.members for k in working.mechanisms[m].exo_parents}
        # a flagged parent is reconstructed from its cell, which is read in
        # the context of its own parents and shared noise
        flagged = [splits[p] for p in direct if splits[p].block is not None]
        for ps in flagged:
            endo.update(ps.parents)
            exo.update(ps.rho_members)
        endo = [cn.name for cn in cm.clusters if cn.name in endo]
        exo = [k for k in working.member_index if k in exo]
        cell = [(ps.block, name) for ps in flagged for name in cells[ps.block]]
        inputs[c.name] = direct, endo, exo, cell
        rows += math.prod(len(cm.by_name[p].labels()) for p in endo) \
            * math.prod(len(working.member_index[k].domain) for k in exo) \
            * math.prod(len(cells[b][name]) for b, name in cell)
    check_budget(rows, budget, "projected model needs %d rows")

    high = DiscreteScm(
        endogenous=tuple(VariableDecl(name=c.name, domain=c.labels())
                         for c in cm.clusters),
        blocks=(*working.blocks, *(_cell_block(block, tables)
                                   for block, tables in cells.items())),
        mechanisms={})
    for c in cm.clusters:
        direct, endo, exo, cell = inputs[c.name]
        at = {k: i for i, k in enumerate(cell)}
        cell_rows = list(product(*(high.member_index[k].domain
                                   for k in cell)))
        member_topo = [v for v in working.topological_order_names()
                       if v in c.members]
        table = {}
        for combo in product(*(high.domain(p) for p in endo),
                             *(high.member_index[k].domain for k in exo)):
            high_env = dict(zip(endo, combo))
            exo_env = dict(zip(exo, combo[len(endo):]))
            env = {}
            live = []  # (cell position, members, fiber) per selected cell
            for p in direct:
                ps = splits[p]
                fiber = ps.fiber(high_env[p])
                if ps.block is not None and len(fiber) > 1:
                    name = ps.component[high_env[p]].get(
                        ps.context(high_env, exo_env))
                    if name is not None:
                        live.append((at[(ps.block, name)], ps.members, fiber))
                        continue
                env.update(zip(ps.members, fiber[0]))
            labels = {}  # keyed as the itemgetter below reads a cell row
            for pick in product(*(range(len(f)) for _i, _m, f in live)):
                solved = dict(env)
                for (_i, members, fiber), i in zip(live, pick):
                    solved.update(zip(members, fiber[i]))
                working.solve(exo_env, solved, member_topo)
                labels[pick[0] if len(pick) == 1 else pick] = c.label_of(
                    tuple(solved[m] for m in c.members))
            read = itemgetter(*(i for i, _m, _f in live)) if live \
                else (lambda _row: ())
            for row in cell_rows:
                table[combo + row] = labels[read(row)]
        high.mechanisms[c.name] = Mechanism(
            variable=c.name, endo_parents=tuple(endo),
            exo_parents=tuple(exo + cell), table=table)
    high.topological_order_names()
    return HighLevelScm(scm=high, splits=splits, policy=policy,
                        fallback=fallback)


# ---------------------------------------------------------------------------
# unit-level replay of the construction


MISMATCHES_SHOWN = 10


@dataclass
class ProjectionCheck:
    """The outcome of a replay: units checked, how many of them mismatched,
    and the first few mismatches in full."""

    checked: int
    mismatch_count: int
    mismatches: list  # at most MISMATCHES_SHOWN dicts

    @property
    def passed(self):
        return self.mismatch_count == 0


def verify_partial_projection(low, high, budget=None):
    """Replay every unit of the low model under every whole-cluster hard
    intervention and check that the high model, fed the matching cells,
    reproduces every cluster label exactly.

    A fast pass decides each intervention first, on the noise blocks its
    cases read: the low world's blocks under it (valuation._relevance), the
    blocks of the high mechanisms it leaves free, and those of every flagged
    cluster's shared members. Every other block stays at its first positive
    row, which no verdict of the intervention reads, so when every state of
    the pass agrees, every unit does. Otherwise the full replay runs and
    counts every mismatch, showing the first few in unit order."""
    splits = high.splits
    names = [v.name for v in high.scm.endogenous]
    working = _working_model(
        low, [m for name in names for m in splits[name].members], budget)
    high_topo = high.scm.topological_order_names()
    # a flagged cluster's cell is read off the labels of its parents, which
    # come before it in the high model's order
    stops = [(high_topo[:i], splits[name])
             for i, name in enumerate(high_topo)
             if splits[name].block is not None]
    # the noise the high model reads outside its cells comes from the unit:
    # the blocks of its mechanisms and of every flagged cluster's shared
    # members, each of which must be the low model's block
    cell_blocks = {split.block for _before, split in stops}
    shared = {b for _before, split in stops for b, _m in split.rho_members}
    high_reads = {name: {b for b, _m in high.scm.mechanisms[name].exo_parents
                         if b not in cell_blocks} for name in names}
    for k in dict.fromkeys([
            *(k for name in names
              for k in high.scm.mechanisms[name].exo_parents),
            *(k for _before, split in stops for k in split.rho_members)]):
        if k[0] in cell_blocks:
            continue
        mine = working.member_index.get(k)
        theirs = high.scm.member_index.get(k)
        if mine is None:
            raise UnknownVariable(
                "the high model reads noise member %s.%s, which the low model "
                "lacks" % k, member=k)
        if theirs is not None and mine.domain != theirs.domain:
            raise DomainMismatch(
                "noise member %s.%s has another domain in the low model than "
                "in the high model" % k, member=k)
    read = shared.union(*high_reads.values()) - cell_blocks
    for b in (b for b in working.block_index if b in read):
        theirs = high.scm.block_index.get(b)
        if theirs is not None and theirs != working.block_index[b]:
            raise DomainMismatch(
                "noise block %r has other members or another table in the "
                "low model than in the high model" % b, block=b)

    # the interventions are every subset of clusters, each with every joint
    # value of its members; they are counted before they are listed
    check_budget(working.exogenous_support_size() * math.prod(
        1 + math.prod(len(working.domain(m)) for m in splits[name].members)
        for name in names), budget, "replay needs %d evaluations")
    subsets = []
    for mask in range(1 << len(names)):
        chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
        domains = []
        var_list = []
        for cname in chosen:
            for m in splits[cname].members:
                var_list.append(m)
                domains.append(working.domain(m))
        for combo in product(*domains):
            subsets.append((tuple(chosen), dict(zip(var_list, combo))))

    # every cell starts at 0; the replay sets the ones the unit needs
    zero_cells = {(split.block, mname): 0
                  for split in (splits[name] for name in names)
                  if split.block is not None
                  for label in split.lossy_labels()
                  for mname in split.component[label].values()}

    def mismatch(unit, chosen, x):
        """The mismatch record of one unit under one intervention, or None
        when the high model reproduces every label."""
        env = working.solve(unit, dict(x))
        want = {name: splits[name].label_of(
            tuple(env[m] for m in splits[name].members))
            for name in names}

        unit_h = {**unit, **zero_cells}
        env_h = {name: want[name] for name in chosen}
        trouble = None
        for before, split in stops:
            raw = tuple(env[m] for m in split.members)
            actual = split.label_of(raw)
            fiber = split.fiber(actual)
            if len(fiber) > 1:
                idx = fiber.index(raw)
                high.scm.solve(unit_h, env_h, before)
                ctx = split.context(env_h, unit)
                mname = split.component[actual].get(ctx)
                if mname is None:
                    trouble = ("context %r absent for %s=%s"
                               % (ctx, split.name, actual))
                else:
                    unit_h[(split.block, mname)] = idx
        high.scm.solve(unit_h, env_h)
        bad = [name for name in names if env_h[name] != want[name]]
        if not (bad or trouble):
            return None
        return {
            "clusters": bad, "intervention": dict(x),
            "unit": {"%s.%s" % k: v for k, v in unit.items()},
            "got": {n: env_h[n] for n in bad},
            "want": {n: want[n] for n in bad},
            "note": trouble,
        }

    # the blocks read by an intervention's cases, as sorted positions; the
    # high tables are what is under test, so all of their noise counts
    def reads(chosen, x):
        blocks = shared.union(*(high_reads[name] for name in names
                                if name not in chosen))
        return set(_relevance(working, working.variable_names(), x)[1]) | {
            working.block_position[b] for b in blocks}

    first_rows = working.exogenous_assignment(
        range(len(working.blocks)), [0] * len(working.blocks))
    if not any(mismatch({**first_rows, **part}, chosen, x) is not None
               for chosen, x in subsets
               for _idx, part, _w in working.exogenous_support(
                   reads(chosen, x))):
        return ProjectionCheck(
            checked=working.exogenous_support_size() * len(subsets),
            mismatch_count=0, mismatches=[])

    checked = 0
    mismatch_count = 0
    mismatches = []
    for _idx, unit, _p in working.exogenous_support():
        for chosen, x in subsets:
            checked += 1
            found = mismatch(unit, chosen, x)
            if found is not None:
                mismatch_count += 1
                if len(mismatches) < MISMATCHES_SHOWN:
                    mismatches.append(found)
    return ProjectionCheck(checked=checked, mismatch_count=mismatch_count,
                           mismatches=mismatches)


def resolve_sigma_high(high, query):
    """Rewrite a cluster-level query's stochastic-reference markers into
    interventions on the projected model itself.

    A marker on a singleton value, or on a cluster that passed the
    consistency check, is an ordinary hard intervention. A marker on a lossy
    value of a flagged cluster pins the cluster variable to the label and
    redraws the disambiguation members its children read: one fresh draw on
    the label's cell grid, shared by every marker with the same cluster and
    label, mapped into each context's member through the cell map the
    label's sigma table gives that context. The cluster reads its own
    context (its parent clusters and shared noise) as resolve_sigma's atom
    does, so a world whose context has no sigma table is undefined. This
    matches the sharing semantics of resolving the same markers against
    the low-level model."""
    def atom_for(marker):
        if marker.cluster not in high.splits:
            raise UnknownVariable("unknown cluster %r" % marker.cluster,
                                  cluster=marker.cluster)
        split = high.splits[marker.cluster]
        if len(split.fiber(marker.label)) == 1 or split.block is None:
            return HardIntervention(marker.cluster, marker.label)
        breaks, cell_map = split.grid(marker.label)
        exo_cells = {(split.block, mname): cell_map[ctx]
                     for ctx, mname in split.component[marker.label].items()}
        return SoftIntervention(
            targets=(marker.cluster,),
            share_key=("sigma-high", marker.cluster, str(marker.label)),
            candidates=((marker.label,),), breaks=breaks,
            cell_map={ctx: (0,) * len(cells)
                      for ctx, cells in cell_map.items()},
            exo_cells=exo_cells, **split.readers(lambda p: (
                (p,), {(v,): v for v in high.splits[p].labels()})),
            label="%s=%s" % (marker.cluster, marker.label))

    return _resolve_markers(query, atom_for)


# ---------------------------------------------------------------------------
# disambiguation bounds


def disambiguation_bounds(scm, cm, cluster, label, outcome, budget=None):
    """Range of an outcome probability over every way of realizing an
    ambiguous hard intervention on a cluster value: per unit, the best and
    worst member tuple are chosen with full knowledge of the unit."""
    c = cm.cluster(cluster)
    fiber = c.fiber(label)
    for v, val in outcome.items():
        if v not in scm.var_index:
            raise UnknownVariable("unknown outcome variable %r" % v, variable=v)
        if val not in scm.domain(v):
            raise DomainMismatch("outcome value %r is outside the domain of %r"
                                 % (val, v))
    check_budget(scm.exogenous_support_size() * len(fiber), budget,
                 "bounds need %d evaluations")
    # one world per member tuple of the label, all on one exogenous draw
    terms = [QueryTerm(hard=tuple(map(HardIntervention, c.members, raw)))
             for raw in fiber]
    den, weights = counterfactual_table(
        scm, terms, [tuple(outcome)] * len(terms), budget)
    want = tuple(outcome.values())
    lo = sum(w for key, w in weights.items() if all(k == want for k in key))
    hi = sum(w for key, w in weights.items() if want in key)
    return Fraction(lo, den), Fraction(hi, den)


# ---------------------------------------------------------------------------
# sampling from the stored reference tables


def projected_sample(high, cluster, label, context=None, seed=0, n=None):
    """Draw member tuples for one cluster value from the stored reference
    table of the matching context (see _context_key; a value with one
    member tuple needs no complete context, but every entry given is
    checked). With ``n=None`` a single tuple is returned, otherwise a list
    of ``n`` tuples. Draws are reproducible for a fixed seed."""
    if n is not None and int(n) < 0:
        raise DomainMismatch("sample size must not be negative, got %d" % n)
    if cluster not in high.splits:
        raise UnknownVariable("unknown cluster %r" % cluster, cluster=cluster)
    split = high.splits[cluster]
    fiber = split.fiber(label)
    ctx = _context_key(context, split, high.splits, high.scm, len(fiber) > 1)
    probs = (Fraction(1),) if ctx is None else _context_probs(
        split.sigma.get(label, {}), ctx, cluster, label)
    cum = []
    acc = Fraction(0)
    for p in probs:
        acc += p
        cum.append(acc)
    rng = random.Random(seed)

    def draw():
        # the tables sum to 1 (the construction and _check_split see to
        # it) and every draw is below 1, so some edge lies above it
        r = Fraction(rng.random())
        for idx, edge in enumerate(cum):
            if r < edge:
                return fiber[idx]

    if n is None:
        return draw()
    return [draw() for _ in range(int(n))]


# ---------------------------------------------------------------------------
# serialization


def _ctx_to_doc(ctx):
    pa, cls = ctx
    return {"parents": list(pa), "class": cls}


def _ctx_from_doc(doc):
    return (_scalars(_items(doc, "parents", "context", optional=True),
                     "context parent"),
            _scalar(doc.get("class"), "context class"))


def high_to_doc(high):
    doc = scm_to_doc(high.scm)
    splits = []
    for name in (v.name for v in high.scm.endogenous):
        s = high.splits[name]
        entry = {
            "cluster": s.name,
            "members": list(s.members),
            "values": [{"label": cv.label,
                        "tuples": [list(t) for t in cv.tuples]}
                       for cv in s.values],
            "violator": s.violator,
        }
        if s.parents:
            entry["parents"] = list(s.parents)
        if s.rho_members:
            entry["rho_members"] = [list(k) for k in s.rho_members]
            entry["rho_classes"] = [
                {"values": list(joint), "class": cls}
                for joint, cls in sorted(s.rho_classes.items(), key=repr)]
        if s.sigma:
            entry["sigma"] = [
                {"label": label,
                 "contexts": [dict(_ctx_to_doc(ctx),
                                   probs=[format_rational(p) for p in probs])
                              for ctx, probs in sorted(tables.items(), key=repr)]}
                for label, tables in sorted(s.sigma.items(), key=repr)]
        if s.block is not None:
            entry["block"] = s.block
            entry["cells"] = [
                {"label": label,
                 "contexts": [dict(_ctx_to_doc(ctx), member=member)
                              for ctx, member in sorted(members.items(),
                                                        key=repr)]}
                for label, members in s.component.items()]
        splits.append(entry)
    doc["delta"] = {"policy": high.policy, "fallback": high.fallback,
                    "splits": splits}
    return doc


def high_from_doc(doc):
    delta = _require(doc, "delta", "high-level model document")
    if not isinstance(delta, dict):
        raise DomainMismatch("delta must be a JSON object")
    policy = validate_policy(delta.get("policy", "general"))
    fallback = validate_fallback(delta.get("fallback"))
    scm = validate_scm({k: v for k, v in doc.items() if k != "delta"})
    splits = {}
    probabilities = _Probabilities()
    for entry in _items(delta, "splits", "delta", optional=True):
        name = _scalar(_require(entry, "cluster", "split entry"),
                       "split cluster")
        s = DeltaSplit(
            name=name,
            members=_scalars(_items(entry, "members", "split %r", name),
                             "member of split %r", name),
            values=tuple(ClusterValue(
                label=_scalar(_require(v, "label", "split %r", name),
                              "label of split %r", name),
                tuples=tuple(_scalars(_array(t, "tuple of split %r", name),
                                      "tuple entry of split %r", name)
                             for t in _items(v, "tuples", "split %r", name)))
                for v in _items(entry, "values", "split %r", name)),
            violator=entry.get("violator", False),
            parents=_scalars(_items(entry, "parents", "split %r", name,
                                    optional=True),
                             "parent of split %r", name),
            rho_members=tuple(
                _scalars(_array(k, "rho member of split %r", name),
                         "rho member part of split %r", name)
                for k in _items(entry, "rho_members", "split %r", name,
                                optional=True)),
            rho_classes={
                _scalars(_items(r, "values", "split %r", name),
                         "rho values of split %r", name):
                _scalar(_require(r, "class", "split %r", name),
                        "rho class of split %r", name)
                for r in _items(entry, "rho_classes", "split %r", name,
                                optional=True)},
            block=entry.get("block"))
        for item in _items(entry, "sigma", "split %r", name, optional=True):
            s.sigma[_scalar(_require(item, "label", "split %r", name),
                            "label of split %r", name)] = {
                _ctx_from_doc(c): tuple(map(
                    probabilities.read, _items(c, "probs", "split %r", name)))
                for c in _items(item, "contexts", "split %r", name)}
        for item in _items(entry, "cells", "split %r", name, optional=True):
            label = _scalar(_require(item, "label", "split %r", name),
                            "label of split %r", name)
            s.component[label] = {
                _ctx_from_doc(c): _require(c, "member", "split %r", name)
                for c in _items(item, "contexts", "split %r", name)}
        _check_split(s, scm, "split %r" % (name,))
        if s.name in splits:
            raise DomainMismatch("two splits for cluster %r" % (s.name,))
        splits[s.name] = s
    for name in dict.fromkeys([*scm.var_index, *splits]):
        if (name in splits) != (name in scm.var_index):
            raise DomainMismatch(
                "delta must hold one split per model variable, and %r %s"
                % (name, "has none" if name in scm.var_index else
                   "is not a model variable"))
    for s in splits.values():
        if s.labels() != scm.domain(s.name):
            raise DomainMismatch(
                "the labels of split %r must be the domain of its model "
                "variable, in order" % (s.name,))
        if fallback == "uniform":
            # older documents list only the tables with mass
            _fill_uniform(s, splits)
        if s.block is None:
            continue
        # rows are counted first, and each is compared with its product
        # in integers, so no Fraction of the block is rebuilt
        component, tables = _cells(s, splits)
        members, den, rows = _cell_rows(tables)
        block = scm.block_index[s.block]
        table = block.table
        if (s.component != component or block.members != members
                or len(table) != math.prod(map(len, tables.values()))
                or any(key not in table
                       or num * table[key].denominator
                       != table[key].numerator * den
                       for key, num in rows)):
            raise DomainMismatch(
                "the cells and block %r of split %r must be the ones its "
                "sigma tables give" % (s.block, s.name), block=s.block)
    return HighLevelScm(scm=scm, splits=splits, policy=policy,
                        fallback=fallback)


def _check_split(split, scm, where):
    """Refuse a loaded split that does not fit its model: a violator flag
    that is not true exactly when the split has a block, a block that is
    not one of the model's, cells without a block, parents that are not
    distinct other clusters of the model, shared noise that is not (block,
    member) pairs of the model with one integer class per joint value, a
    context of a sigma table that does not give one label per parent, in
    order, and a response class of the split, and a sigma table of no label
    of the split, or one that does not give one probability per member
    tuple of its label summing to 1, and a member tuple listed twice or
    without one value per member (verify checks the values). high_from_doc
    checks the cells."""
    tuples = [t for v in split.values for t in v.tuples]
    if len(set(tuples)) != len(tuples) or any(
            len(t) != len(split.members) for t in tuples):
        raise DomainMismatch(
            "each member tuple of %s must give one value per member %r and "
            "sit under one label only" % (where, list(split.members)))
    if split.violator is not (split.block is not None):
        raise DomainMismatch("violator of %s must be true exactly when it has "
                             "a block, not %r" % (where, split.violator))
    if split.block is not None and not (
            isinstance(split.block, str) and split.block in scm.block_index):
        raise DomainMismatch("block of %s must name a block of the model, "
                             "not %r" % (where, split.block))
    if split.component and split.block is None:
        raise DomainMismatch("cells of %s need a block" % where)
    if len(set(split.parents)) != len(split.parents) or any(
            p == split.name or p not in scm.var_index for p in split.parents):
        raise DomainMismatch(
            "the parents of %s must be distinct other clusters of the model, "
            "not %r" % (where, list(split.parents)))
    shared = split.rho_members
    if any(k not in scm.member_index for k in shared) or shared and (
            set(split.rho_classes) != set(product(
                *(scm.member_index[k].domain for k in shared)))
            or not all(isinstance(c, int)
                       for c in split.rho_classes.values())):
        raise DomainMismatch(
            "the shared noise members of %s must be (block, member) pairs of "
            "the model, with one integer class per joint value" % where)
    classes = set(split.rho_classes.values()) if shared else {None}
    for tables in split.sigma.values():
        for pa, cls in tables:
            if len(pa) != len(split.parents) or cls not in classes or any(
                    label not in scm.domain(p)
                    for p, label in zip(split.parents, pa)):
                raise DomainMismatch(
                    "context %r of %s must give a label of each of its "
                    "parents %r, in order, and a response class of its "
                    "shared noise" % (_ctx_to_doc((pa, cls)), where,
                                      list(split.parents)))
    for label, tables in split.sigma.items():
        size = len(split.fiber(label))
        if any(len(probs) != size or sum(probs) != 1
               for probs in tables.values()):
            raise DomainMismatch(
                "each sigma table of %s for label %r must give %d "
                "probabilities, one per member tuple, summing to 1"
                % (where, label, size))


def load_high(path):
    with open(path, "r", encoding="utf-8") as fh:
        return high_from_doc(json.load(fh))


def save_high(high, path):
    write_json(high_to_doc(high), path)
