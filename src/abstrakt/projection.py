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

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    DomainMismatch,
    ImpossibleContext,
    SizeExceeded,
    UnknownHighValue,
    UnknownVariable,
)
from .scm import (
    DiscreteScm,
    ExoMember,
    ExogenousBlock,
    Mechanism,
    VariableDecl,
    enumeration_budget,
    format_rational,
    parse_probability,
    scm_to_doc,
    validate_scm,
)
from .abstraction import SigmaMarker, check_aic
from .valuation import (
    CounterfactualQuery,
    HardIntervention,
    ParentContext,
    QueryTerm,
    RhoContext,
    SoftIntervention,
    _cell_grid,
    _cell_map,
    _uniform,
)

POLICIES = ("agnostic", "markovian", "general")


def validate_policy(policy):
    if policy not in POLICIES:
        raise DomainMismatch(
            "unknown policy %r; expected one of %s" % (policy, ", ".join(POLICIES)))
    return policy


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
    decl_pos = {v: i for i, v in enumerate(scm.variable_names())}
    block_pos = {b.name: i for i, b in enumerate(scm.blocks)}
    member_pos = {}
    for b in scm.blocks:
        for i, m in enumerate(b.members):
            member_pos[(b.name, m.name)] = (block_pos[b.name], i)
    bud = enumeration_budget(budget)

    expr = {}  # var -> (endo_inputs, exo_inputs, table)
    for v in order:
        mech = scm.mechanisms[v]
        endo_inputs = []
        exo_inputs = []
        for p in mech.endo_parents:
            if p in keep_set:
                if p not in endo_inputs:
                    endo_inputs.append(p)
            else:
                pe, px, _t = expr[p]
                for q in pe:
                    if q not in endo_inputs:
                        endo_inputs.append(q)
                for k in px:
                    if k not in exo_inputs:
                        exo_inputs.append(k)
        for k in mech.exo_parents:
            if k not in exo_inputs:
                exo_inputs.append(k)
        endo_inputs.sort(key=decl_pos.get)
        exo_inputs.sort(key=member_pos.get)
        domains = [scm.domain(p) for p in endo_inputs]
        domains += [scm.member_index[k].domain for k in exo_inputs]
        size = 1
        for d in domains:
            size *= len(d)
        if size > bud:
            raise SizeExceeded(
                "projected mechanism for %r needs %d rows, budget is %d"
                % (v, size, bud), variable=v, required=size, budget=bud)
        table = {}
        for combo in product(*domains):
            env = dict(zip(endo_inputs, combo[:len(endo_inputs)]))
            env_exo = dict(zip(exo_inputs, combo[len(endo_inputs):]))

            def value_of(name):
                if name in env:
                    return env[name]
                pe, px, tbl = expr[name]
                key = tuple(env[q] for q in pe) + tuple(env_exo[k] for k in px)
                return tbl[key]

            parents_vals = []
            for p in mech.endo_parents:
                if p in keep_set:
                    parents_vals.append(env[p])
                else:
                    parents_vals.append(value_of(p))
            row_key = tuple(parents_vals) + tuple(env_exo[k]
                                                  for k in mech.exo_parents)
            table[combo] = mech.table[row_key]
        expr[v] = (tuple(endo_inputs), tuple(exo_inputs), table)

    kept_decls = tuple(d for d in scm.endogenous if d.name in keep_set)
    mechanisms = {}
    for d in kept_decls:
        endo_inputs, exo_inputs, table = expr[d.name]
        mechanisms[d.name] = Mechanism(variable=d.name,
                                       endo_parents=endo_inputs,
                                       exo_parents=exo_inputs, table=table)
    return DiscreteScm(endogenous=kept_decls, blocks=scm.blocks,
                       mechanisms=mechanisms)


# ---------------------------------------------------------------------------
# sigma distributions


@dataclass
class RhoSpec:
    """Response classes of the noise blocks a cluster shares with the rest
    of the model: two joint shared values are equivalent when every outside
    consumer's mechanism, restricted to them, is the same function."""

    blocks: tuple
    member_keys: tuple
    class_of: dict
    n_classes: int


@dataclass
class SigmaMachinery:
    cluster: str
    parents: tuple      # parent cluster names, declaration order
    rho: object         # RhoSpec or None
    tables: dict        # label -> {(parent labels, class) -> tuple[Fraction]}


def _signature(scm, variable, fixed):
    """The mechanism of ``variable`` as a function table, with the exogenous
    members in ``fixed`` pinned."""
    mech = scm.mechanisms[variable]
    free_exo = [k for k in mech.exo_parents if k not in fixed]
    domains = [scm.domain(p) for p in mech.endo_parents]
    domains += [scm.member_index[k].domain for k in free_exo]
    rows = []
    for combo in product(*domains):
        env = dict(zip(mech.endo_parents, combo[:len(mech.endo_parents)]))
        free = dict(zip(free_exo, combo[len(mech.endo_parents):]))
        key = tuple(env[p] for p in mech.endo_parents)
        key += tuple(fixed[k] if k in fixed else free[k]
                     for k in mech.exo_parents)
        rows.append(mech.table[key])
    return tuple(rows)


def _rho_shared_reads(scm, members):
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
    shared = tuple(b for b in inside_blocks if b in outside_blocks)
    if not shared:
        return None
    member_keys = []
    for bname in shared:
        for m in scm.block_index[bname].members:
            member_keys.append((bname, m.name))
    member_keys = tuple(member_keys)
    class_of = {}
    signatures = {}
    for joint in product(*(scm.member_index[k].domain for k in member_keys)):
        fixed = dict(zip(member_keys, joint))
        sig = tuple(_signature(scm, w, fixed) for w in outside_vars)
        if sig not in signatures:
            signatures[sig] = len(signatures)
        class_of[joint] = signatures[sig]
    return RhoSpec(blocks=shared, member_keys=member_keys, class_of=class_of,
                   n_classes=len(signatures))


def _parent_clusters(scm, cm, cluster):
    inside = set(cluster.members)
    parents = []
    for c in cm.clusters:
        if c.name == cluster.name:
            continue
        cmembers = set(c.members)
        hit = False
        for m in cluster.members:
            for p in scm.mechanisms[m].endo_parents:
                if p in cmembers:
                    hit = True
                    break
            if hit:
                break
        if hit:
            parents.append(c.name)
    return tuple(parents)


def sigma_machinery(scm, cm, cluster_name, policy, budget=None):
    """Reference tables for every value of one cluster, per context."""
    validate_policy(policy)
    c = cm.cluster(cluster_name)
    parents = _parent_clusters(scm, cm, c) if policy != "agnostic" else ()
    rho = _rho_shared_reads(scm, c.members) if policy == "general" else None
    size = scm.exogenous_support_size()
    bud = enumeration_budget(budget)
    if size > bud:
        raise SizeExceeded(
            "sigma computation needs %d states, budget is %d" % (size, bud),
            required=size, budget=bud)
    parent_clusters = [cm.by_name[p] for p in parents]
    totals = {}
    masses = {}
    for _idx, unit, p in scm.exogenous_support():
        env = scm.solve(unit)
        joint = tuple(env[m] for m in c.members)
        label = c.label_of(joint)
        pa = tuple(pc.label_of(tuple(env[m] for m in pc.members))
                   for pc in parent_clusters)
        cls = None
        if rho is not None:
            cls = rho.class_of[tuple(unit[k] for k in rho.member_keys)]
        ctx = (pa, cls)
        totals[(label, ctx)] = totals.get((label, ctx), Fraction(0)) + p
        key2 = (label, ctx, joint)
        masses[key2] = masses.get(key2, Fraction(0)) + p
    tables = {}
    for cv in c.values:
        ctxs = {}
        for (label, ctx), tot in totals.items():
            if label != cv.label or tot == 0:
                continue
            probs = tuple(masses.get((label, ctx, t), Fraction(0)) / tot
                          for t in cv.tuples)
            ctxs[ctx] = probs
        tables[cv.label] = ctxs
    return SigmaMachinery(cluster=c.name, parents=parents, rho=rho,
                          tables=tables)


def _context_parts(context, rho_members):
    """Parse a context into its parent labels by cluster name and its shared
    noise values. A context is None, a (parents, shared) pair, or a dict
    with 'parents' and 'shared' entries. A shared name that names one of
    ``rho_members`` by its (block, member) pair, as 'block.member' or by
    its bare member name becomes that pair; other names are kept as
    given."""
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
    pair_of = {}
    for k in rho_members:
        for name in (k, "%s.%s" % k, k[1]):
            pair_of.setdefault(name, k)
    return parents, {pair_of.get(n, n): v for n, v in shared.items()}


def _context_key(context, parents, rho_members, rho_classes):
    """The (parent labels, response class) key of a context's reference
    table. The context must give every parent cluster in ``parents`` and
    every shared member in ``rho_members``; other entries are ignored."""
    parents_arg, shared_arg = _context_parts(context, rho_members)
    pa = []
    for p in parents:
        if p not in parents_arg:
            raise DomainMismatch(
                "context must give a value for parent cluster %r" % p,
                cluster=p)
        pa.append(parents_arg[p])
    if not rho_members:
        return tuple(pa), None
    joint = []
    for k in rho_members:
        if k not in shared_arg:
            raise DomainMismatch(
                "context must give a value for shared noise member %s.%s"
                % k, member=k)
        joint.append(shared_arg[k])
    joint = tuple(joint)
    if joint not in rho_classes:
        raise DomainMismatch(
            "shared values %r are outside the block domains" % (joint,))
    return tuple(pa), rho_classes[joint]


def sigma_distribution(scm, cm, cluster, label, policy="general",
                       context=None, budget=None, fallback=None):
    """Exact reference distribution over a cluster value's member tuples in
    one context. Raises ImpossibleContext when the context has probability
    zero under the model (unless ``fallback='uniform'``)."""
    machinery = sigma_machinery(scm, cm, cluster, policy, budget)
    c = cm.cluster(cluster)
    fiber = c.fiber(label)
    rho = machinery.rho
    ctx = _context_key(context, machinery.parents,
                       rho.member_keys if rho else (),
                       rho.class_of if rho else {})
    for p, parent_label in zip(machinery.parents, ctx[0]):
        cm.cluster(p).fiber(parent_label)  # validates the label
    probs = machinery.tables[label].get(ctx)
    if probs is None:
        if fallback == "uniform":
            probs = _uniform(len(fiber))
        else:
            raise ImpossibleContext(
                "context %r has probability zero together with %s=%s"
                % (ctx, cluster, label), cluster=cluster, label=label)
    return {t: p for t, p in zip(fiber, probs)}


# ---------------------------------------------------------------------------
# resolving stochastic interventions for the valuation engine


def _machinery_fingerprint(machinery, label):
    blob = repr((machinery.cluster, label, machinery.parents,
                 sorted(machinery.tables.get(label, {}).items(), key=repr)))
    return hashlib.md5(blob.encode("utf-8")).hexdigest()[:12]


def resolve_sigma(scm, cm, query, policy="general", budget=None,
                  fallback=None):
    """Replace every SigmaMarker in a query with a concrete stochastic
    intervention whose tables come from the model's reference distribution
    under the given policy. Markers with the same cluster and label share
    one cell draw across all terms."""
    validate_policy(policy)
    machineries = {}
    atoms = {}

    def atom_for(marker):
        key = (marker.cluster, marker.label)
        if key in atoms:
            return atoms[key]
        if marker.cluster not in machineries:
            machineries[marker.cluster] = sigma_machinery(
                scm, cm, marker.cluster, policy, budget)
        mach = machineries[marker.cluster]
        c = cm.cluster(marker.cluster)
        fiber = c.fiber(marker.label)
        ctx_tables = mach.tables[marker.label]
        if not ctx_tables and fallback != "uniform":
            raise ImpossibleContext(
                "value %s=%s has probability zero everywhere"
                % (marker.cluster, marker.label),
                cluster=marker.cluster, label=marker.label)
        breaks, cell_map = _cell_grid(
            ctx_tables, len(fiber) if fallback == "uniform" else None)
        parents = tuple(
            ParentContext(cluster=p, members=tuple(cm.by_name[p].members),
                          value_of=dict(cm.by_name[p]._label_of))
            for p in mach.parents)
        rho = None
        if mach.rho is not None:
            rho = RhoContext(member_keys=mach.rho.member_keys,
                             class_of=mach.rho.class_of)
        share_key = ("sigma", policy, marker.cluster, str(marker.label),
                     fallback, _machinery_fingerprint(mach, marker.label))
        atom = SoftIntervention(
            targets=tuple(c.members), share_key=share_key,
            candidates=tuple(fiber), tables=dict(ctx_tables), breaks=breaks,
            cell_map=cell_map, parents=parents, rho=rho,
            fallback=fallback,
            label="%s=%s" % (marker.cluster, marker.label))
        atoms[key] = atom
        return atom

    def rewrite(term):
        soft = []
        for a in term.soft:
            if isinstance(a, SigmaMarker):
                soft.append(atom_for(a))
            else:
                soft.append(a)
        return QueryTerm(outcomes=term.outcomes, hard=term.hard,
                         soft=tuple(soft))

    return CounterfactualQuery(
        terms=tuple(rewrite(t) for t in query.terms),
        conditioning=tuple(rewrite(t) for t in (query.conditioning or ())))


# ---------------------------------------------------------------------------
# the projected high-level model


@dataclass
class DeltaSplit:
    """Everything recorded about one cluster's split into an observed label
    and (for consistency violators) an unobserved disambiguation cell."""

    cluster: str
    members: tuple
    labels: tuple
    fibers: dict
    violator: bool = False
    parents: tuple = ()
    shared_blocks: tuple = ()
    rho_members: tuple = ()
    rho_classes: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=dict)
    breaks: dict = field(default_factory=dict)
    cell_map: dict = field(default_factory=dict)
    fill_targets: dict = field(default_factory=dict)
    component: dict = field(default_factory=dict)
    block: object = None

    def __post_init__(self):
        self._reverse = {}
        for label, tuples in self.fibers.items():
            for t in tuples:
                self._reverse[t] = label

    def label_of(self, joint):
        joint = tuple(joint)
        if joint not in self._reverse:
            raise DomainMismatch(
                "joint value %r is outside cluster %r" % (joint, self.cluster))
        return self._reverse[joint]

    def lossy_labels(self):
        return tuple(l for l in self.labels if len(self.fibers[l]) > 1)

    def n_cells(self, label):
        return len(self.breaks[label]) - 1 + len(self.fill_targets[label])


@dataclass
class HighLevelScm:
    scm: DiscreteScm
    splits: dict
    policy: str
    fallback: object = None


def _component_member(cluster, label, index):
    return "%s__u__%s__c%d" % (cluster, label, index)


def _all_contexts(cm, split):
    """Every context a reconstruction can meet, in canonical order: the
    product of the parent clusters' label domains crossed with the response
    classes of the shared noise blocks."""
    pa_domains = [cm.by_name[p].labels() for p in split.parents]
    classes = [None]
    if split.rho_members:
        classes = sorted(set(split.rho_classes.values()))
    out = []
    for pa in product(*pa_domains):
        for cls in classes:
            out.append((tuple(pa), cls))
    return out


def construct_projected_abstraction(scm, cm, policy="general", budget=None,
                                    fallback=None):
    """Build the high-level model induced by a cluster map.

    Variables left out of every cluster are marginalized away first. The
    consistency check decides which clusters keep an unobserved cell block;
    children of those clusters take the cluster's parents as extra inputs so
    they can select the right reference table, and they read the shared
    noise blocks when the policy is context sensitive."""
    validate_policy(policy)
    working = scm
    if cm.excluded:
        working = project_full(scm, cm.covered_variables(), budget)
    report = check_aic(working, cm, budget)
    violators = set(report.violators)
    bud = enumeration_budget(budget)

    splits = {}
    extra_blocks = []
    for c in cm.clusters:
        split = DeltaSplit(cluster=c.name, members=c.members,
                           labels=c.labels(),
                           fibers={cv.label: cv.tuples for cv in c.values},
                           violator=c.name in violators)
        lossy = split.lossy_labels()
        if lossy:
            mach = sigma_machinery(working, cm, c.name, policy, budget)
            split.parents = mach.parents
            if mach.rho is not None:
                split.shared_blocks = mach.rho.blocks
                split.rho_members = mach.rho.member_keys
                split.rho_classes = dict(mach.rho.class_of)
            for label in lossy:
                split.sigma[label] = dict(mach.tables[label])
            if c.name in violators:
                members = []
                probs_per_member = []
                contexts = _all_contexts(cm, split)
                for label in lossy:
                    fiber = split.fibers[label]
                    tables = split.sigma[label]
                    breaks, cmap = _cell_grid(
                        tables, len(fiber) if fallback == "uniform" else None)
                    # member indices some context never draws; every cell
                    # map lists them after its cells
                    fills = tuple(i for i in range(len(fiber))
                                  if any(p[i] == 0 for p in tables.values()))
                    cmap = {ctx: m + fills for ctx, m in cmap.items()}
                    split.breaks[label] = breaks
                    split.fill_targets[label] = fills
                    split.component[label] = {}
                    uniform = _uniform(len(fiber))
                    for ctx in contexts:
                        probs = tables.get(ctx)
                        if probs is None:
                            if fallback != "uniform":
                                continue
                            probs = uniform
                            cmap[ctx] = _cell_map(breaks, uniform) + fills
                        name = _component_member(
                            c.name, label, len(split.component[label]))
                        split.component[label][ctx] = name
                        members.append(ExoMember(
                            name=name, domain=tuple(range(len(fiber)))))
                        probs_per_member.append(probs)
                    split.cell_map[label] = cmap
                block_name = "%s__u" % c.name
                split.block = block_name
                size = 1
                for w in probs_per_member:
                    size *= len(w)
                if size > bud:
                    raise SizeExceeded(
                        "cell block for %r needs %d rows, budget is %d"
                        % (c.name, size, bud), required=size, budget=bud)
                table = {}
                for combo in product(*(range(len(w)) for w in probs_per_member)):
                    p = Fraction(1)
                    for w, i in zip(probs_per_member, combo):
                        p *= w[i]
                    table[combo] = p
                extra_blocks.append(ExogenousBlock(
                    name=block_name, members=tuple(members), table=table))
        splits[c.name] = split

    high_blocks = tuple(working.blocks) + tuple(extra_blocks)
    block_pos = {b.name: i for i, b in enumerate(high_blocks)}
    member_pos = {}
    for b in high_blocks:
        for i, m in enumerate(b.members):
            member_pos[(b.name, m.name)] = (block_pos[b.name], i)
    cluster_pos = {c.name: i for i, c in enumerate(cm.clusters)}
    member_domain = {}
    for b in high_blocks:
        for m in b.members:
            member_domain[(b.name, m.name)] = m.domain

    mechanisms = {}
    for c in cm.clusters:
        split = splits[c.name]
        direct = _parent_clusters(working, cm, c)
        endo = list(direct)
        exo = []
        for m in c.members:
            for k in working.mechanisms[m].exo_parents:
                if k not in exo:
                    exo.append(k)
        reconstructed = {}
        for p in direct:
            ps = splits[p]
            if ps.violator and ps.lossy_labels():
                reconstructed[p] = ps
                for g in ps.parents:
                    if g not in endo:
                        endo.append(g)
                for label in ps.lossy_labels():
                    for name in ps.component[label].values():
                        key = (ps.block, name)
                        if key not in exo:
                            exo.append(key)
                for k in ps.rho_members:
                    if k not in exo:
                        exo.append(k)
        endo.sort(key=cluster_pos.get)
        exo.sort(key=member_pos.get)

        endo_domains = [splits[p].labels for p in endo]
        exo_domains = [member_domain[k] for k in exo]
        size = 1
        for d in endo_domains + exo_domains:
            size *= len(d)
        if size > bud:
            raise SizeExceeded(
                "high-level mechanism for %r needs %d rows, budget is %d"
                % (c.name, size, bud), required=size, budget=bud)

        member_topo = [v for v in working.topological_order_names()
                       if v in set(c.members)]
        table = {}
        for combo in product(*(endo_domains + exo_domains)):
            high_env = dict(zip(endo, combo[:len(endo)]))
            exo_env = dict(zip(exo, combo[len(endo):]))
            env = {}
            for p in direct:
                ps = splits[p]
                label = high_env[p]
                fiber = ps.fibers[label]
                if p in reconstructed and len(fiber) > 1:
                    ctx = (tuple(high_env[g] for g in ps.parents), None)
                    if ps.rho_members:
                        joint = tuple(exo_env[k] for k in ps.rho_members)
                        ctx = (ctx[0], ps.rho_classes[joint])
                    name = ps.component[label].get(ctx)
                    if name is None:
                        raw = fiber[0]
                    else:
                        raw = fiber[exo_env[(ps.block, name)]]
                else:
                    raw = fiber[0]
                for m, val in zip(ps.members, raw):
                    env[m] = val
            working.solve(exo_env, env, member_topo)
            out = c.label_of(tuple(env[m] for m in c.members))
            table[combo] = out
        mechanisms[c.name] = Mechanism(
            variable=c.name, endo_parents=tuple(endo), exo_parents=tuple(exo),
            table=table)

    decls = tuple(VariableDecl(name=c.name, domain=c.labels())
                  for c in cm.clusters)
    high = DiscreteScm(endogenous=decls, blocks=high_blocks,
                       mechanisms=mechanisms)
    high.topological_order_names()
    return HighLevelScm(scm=high, splits=splits, policy=policy,
                        fallback=fallback)


# ---------------------------------------------------------------------------
# unit-level replay of the construction


@dataclass
class ProjectionCheck:
    checked: int
    mismatches: list

    @property
    def passed(self):
        return not self.mismatches


def verify_partial_projection(low, high, budget=None):
    """Replay every unit of the low model under every whole-cluster hard
    intervention and check that the high model, fed the matching cells,
    reproduces every cluster label exactly."""
    splits = high.splits
    names = [v.name for v in high.scm.endogenous]
    members_all = []
    for name in names:
        members_all.extend(splits[name].members)
    working = low
    if set(members_all) != set(low.variable_names()):
        working = project_full(low, members_all, budget)
    high_topo = high.scm.topological_order_names()
    # a flagged cluster's cell is read off the labels of its parents, which
    # come before it in the high model's order
    stops = [(high_topo[:i], splits[name])
             for i, name in enumerate(high_topo)
             if splits[name].block is not None]

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

    size = working.exogenous_support_size() * len(subsets)
    bud = enumeration_budget(budget)
    if size > bud:
        raise SizeExceeded(
            "replay needs %d evaluations, budget is %d" % (size, bud),
            required=size, budget=bud)

    checked = 0
    mismatches = []
    for _idx, unit, _p in working.exogenous_support():
        for chosen, x in subsets:
            env = working.solve(unit, dict(x))
            want = {name: splits[name].label_of(
                tuple(env[m] for m in splits[name].members))
                for name in names}

            unit_h = dict(unit)
            for name in names:
                split = splits[name]
                if split.block is not None:
                    for label in split.lossy_labels():
                        for mname in split.component[label].values():
                            unit_h[(split.block, mname)] = 0
            env_h = {name: want[name] for name in chosen}
            trouble = None
            for before, split in stops:
                raw = tuple(env[m] for m in split.members)
                actual = split.label_of(raw)
                if len(split.fibers[actual]) > 1:
                    idx = list(split.fibers[actual]).index(raw)
                    high.scm.solve(unit_h, env_h, before)
                    ctx = (tuple(env_h[g] for g in split.parents), None)
                    if split.rho_members:
                        joint = tuple(unit[k] for k in split.rho_members)
                        ctx = (ctx[0], split.rho_classes[joint])
                    mname = split.component[actual].get(ctx)
                    if mname is None:
                        trouble = ("context %r absent for %s=%s"
                                   % (ctx, split.cluster, actual))
                    else:
                        unit_h[(split.block, mname)] = idx
            high.scm.solve(unit_h, env_h)
            checked += 1
            bad = [name for name in names if env_h[name] != want[name]]
            if bad or trouble:
                if len(mismatches) < 10:
                    mismatches.append({
                        "clusters": bad, "intervention": dict(x),
                        "unit": {"%s.%s" % k: v for k, v in unit.items()},
                        "got": {n: env_h[n] for n in bad},
                        "want": {n: want[n] for n in bad},
                        "note": trouble,
                    })
                elif not isinstance(mismatches[-1], str):
                    mismatches.append("further mismatches suppressed")
    return ProjectionCheck(checked=checked, mismatches=mismatches)


def resolve_sigma_high(high, query):
    """Rewrite a cluster-level query's stochastic-reference markers into
    interventions on the projected model itself.

    A marker on a singleton value, or on a cluster that passed the
    consistency check, is an ordinary hard intervention. A marker on a lossy
    value of a flagged cluster pins the cluster variable to the label and
    redraws the disambiguation members its children read: one fresh draw on
    the label's cell grid, shared by every marker with the same cluster and
    label, mapped into each context's member through the recorded cell
    table. This matches the sharing semantics of resolving the same markers
    against the low-level model."""
    atoms = {}

    def atom_for(marker):
        key = (marker.cluster, marker.label)
        if key in atoms:
            return atoms[key]
        if marker.cluster not in high.splits:
            raise UnknownVariable("unknown cluster %r" % marker.cluster,
                                  cluster=marker.cluster)
        split = high.splits[marker.cluster]
        if marker.label not in split.fibers:
            raise UnknownHighValue(
                "cluster %r has no value %r" % (marker.cluster, marker.label),
                cluster=marker.cluster, label=marker.label)
        if len(split.fibers[marker.label]) == 1 or split.block is None:
            atom = HardIntervention(marker.cluster, marker.label)
            atoms[key] = atom
            return atom
        exo_cells = {}
        for ctx, mname in split.component[marker.label].items():
            mapping = split.cell_map[marker.label][ctx]
            exo_cells[(split.block, mname)] = tuple(mapping)
        ctx0 = ((), None)
        atom = SoftIntervention(
            targets=(marker.cluster,),
            share_key=("sigma-high", marker.cluster, str(marker.label)),
            candidates=((marker.label,),),
            tables={ctx0: (Fraction(1),)},
            breaks=split.breaks[marker.label],
            cell_map={ctx0: (0,) * split.n_cells(marker.label)},
            exo_cells=exo_cells,
            label="%s=%s" % (marker.cluster, marker.label))
        atoms[key] = atom
        return atom

    def rewrite(term):
        hard = list(term.hard)
        soft = []
        for a in term.soft:
            if isinstance(a, SigmaMarker):
                r = atom_for(a)
                if isinstance(r, HardIntervention):
                    hard.append(r)
                else:
                    soft.append(r)
            else:
                soft.append(a)
        return QueryTerm(outcomes=term.outcomes, hard=tuple(hard),
                         soft=tuple(soft))

    return CounterfactualQuery(
        terms=tuple(rewrite(t) for t in query.terms),
        conditioning=tuple(rewrite(t) for t in (query.conditioning or ())))


# ---------------------------------------------------------------------------
# disambiguation bounds and response profiles


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
    size = scm.exogenous_support_size() * len(fiber)
    bud = enumeration_budget(budget)
    if size > bud:
        raise SizeExceeded(
            "bounds need %d evaluations, budget is %d" % (size, bud),
            required=size, budget=bud)
    lo = Fraction(0)
    hi = Fraction(0)
    for _idx, unit, p in scm.exogenous_support():
        hits = []
        for raw in fiber:
            env = scm.solve(unit, dict(zip(c.members, raw)))
            hits.append(all(env[v] == val for v, val in outcome.items()))
        if all(hits):
            lo += p
        if any(hits):
            hi += p
    return lo, hi


@dataclass(frozen=True)
class CanonicalResponse:
    """A variable's mechanism with some noise members pinned: a pure
    function from endogenous parent values to an output."""

    variable: str
    inputs: tuple
    outputs: tuple  # one output per parent combination, in domain order


def canonical_response_profile(scm, variable, shared):
    """Distribution over the response functions of one variable when the
    given shared noise members are pinned; the remaining noise is drawn from
    its conditional distribution given the pinned members."""
    if variable not in scm.var_index:
        raise UnknownVariable("unknown variable %r" % variable,
                              variable=variable)
    mech = scm.mechanisms[variable]
    fixed = {}
    for key, value in shared.items():
        k = scm.resolve_exo_key(key)
        if value not in scm.member_index[k].domain:
            raise DomainMismatch(
                "value %r is outside the domain of %s.%s" % ((value,) + k))
        fixed[k] = value
    private = [k for k in mech.exo_parents if k not in fixed]
    factors = []  # list of (keys, [(values, prob)])
    for b in scm.blocks:
        keys_here = [k for k in private if k[0] == b.name]
        if not keys_here:
            continue
        fixed_here = {k: v for k, v in fixed.items() if k[0] == b.name}
        rows = {}
        total = Fraction(0)
        for values, p in b.support():
            assign = dict(zip(((b.name, m) for m in b.member_names()), values))
            if any(assign[k] != v for k, v in fixed_here.items()):
                continue
            total += p
            key = tuple(assign[k] for k in keys_here)
            rows[key] = rows.get(key, Fraction(0)) + p
        if total == 0:
            raise ImpossibleContext(
                "pinned values of block %r have probability zero" % b.name,
                block=b.name)
        factors.append((keys_here, [(vals, p / total)
                                    for vals, p in sorted(rows.items(), key=repr)]))
    endo_domains = [scm.domain(p) for p in mech.endo_parents]
    profile = {}
    keys_flat = [k for keys, _rows in factors for k in keys]
    for combo in product(*(rows for _keys, rows in factors)) if factors else [()]:
        p = Fraction(1)
        values = []
        for vals, rp in combo:
            p *= rp
            values.extend(vals)
        assign = dict(fixed)
        assign.update(zip(keys_flat, values))
        outputs = []
        for parents in product(*endo_domains):
            key = tuple(parents) + tuple(assign[k] for k in mech.exo_parents)
            outputs.append(mech.table[key])
        resp = CanonicalResponse(variable=variable,
                                 inputs=tuple(mech.endo_parents),
                                 outputs=tuple(outputs))
        profile[resp] = profile.get(resp, Fraction(0)) + p
    return profile


# ---------------------------------------------------------------------------
# sampling from the stored reference tables


def projected_sample(high, cluster, label, context=None, seed=0, n=None):
    """Draw member tuples for one cluster value from the stored reference
    table of the matching context. With ``n=None`` a single tuple is
    returned, otherwise a list of ``n`` tuples. Draws are reproducible for
    a fixed seed."""
    if cluster not in high.splits:
        raise UnknownVariable("unknown cluster %r" % cluster, cluster=cluster)
    split = high.splits[cluster]
    if label not in split.fibers:
        raise UnknownHighValue("cluster %r has no value %r" % (cluster, label),
                               cluster=cluster, label=label)
    fiber = split.fibers[label]
    if len(fiber) == 1:
        probs = (Fraction(1),)
    else:
        ctx = _context_key(context, split.parents, split.rho_members,
                           split.rho_classes)
        probs = split.sigma.get(label, {}).get(ctx)
        if probs is None:
            if high.fallback == "uniform":
                probs = _uniform(len(fiber))
            else:
                raise ImpossibleContext(
                    "context %r has probability zero together with %s=%s"
                    % (ctx, cluster, label), cluster=cluster, label=label)
    cum = []
    acc = Fraction(0)
    for p in probs:
        acc += p
        cum.append(acc)
    rng = random.Random(seed)

    def draw():
        r = Fraction(rng.random())
        for idx, edge in enumerate(cum):
            if r < edge:
                return fiber[idx]
        return fiber[-1]

    if n is None:
        return draw()
    return [draw() for _ in range(int(n))]


# ---------------------------------------------------------------------------
# serialization


def _ctx_to_doc(ctx):
    pa, cls = ctx
    return {"parents": list(pa), "class": cls}


def _ctx_from_doc(doc):
    return (tuple(doc.get("parents", [])), doc.get("class"))


def high_to_doc(high):
    doc = scm_to_doc(high.scm)
    splits = []
    for name in (v.name for v in high.scm.endogenous):
        s = high.splits[name]
        entry = {
            "cluster": s.cluster,
            "members": list(s.members),
            "values": [{"label": l, "tuples": [list(t) for t in s.fibers[l]]}
                       for l in s.labels],
            "violator": s.violator,
        }
        if s.parents:
            entry["parents"] = list(s.parents)
        if s.rho_members:
            entry["shared_blocks"] = list(s.shared_blocks)
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
                 "breaks": [format_rational(b) for b in s.breaks[label]],
                 "fills": list(s.fill_targets[label]),
                 "contexts": [dict(_ctx_to_doc(ctx),
                                   cells=list(mapping),
                                   member=s.component[label].get(ctx))
                              for ctx, mapping in sorted(s.cell_map[label].items(),
                                                         key=repr)]}
                for label in s.breaks]
        splits.append(entry)
    doc["delta"] = {"policy": high.policy, "fallback": high.fallback,
                    "splits": splits}
    return doc


def high_from_doc(doc):
    if "delta" not in doc:
        raise DomainMismatch("document has no 'delta' section")
    delta = doc["delta"]
    scm = validate_scm({k: v for k, v in doc.items() if k != "delta"})
    splits = {}
    for entry in delta.get("splits", []):
        fibers = {v["label"]: tuple(tuple(t) for t in v["tuples"])
                  for v in entry["values"]}
        s = DeltaSplit(
            cluster=entry["cluster"], members=tuple(entry["members"]),
            labels=tuple(v["label"] for v in entry["values"]),
            fibers=fibers, violator=entry.get("violator", False),
            parents=tuple(entry.get("parents", ())),
            shared_blocks=tuple(entry.get("shared_blocks", ())),
            rho_members=tuple(tuple(k) for k in entry.get("rho_members", ())),
            rho_classes={tuple(r["values"]): r["class"]
                         for r in entry.get("rho_classes", ())},
            block=entry.get("block"))
        for item in entry.get("sigma", ()):
            s.sigma[item["label"]] = {
                _ctx_from_doc(c): tuple(parse_probability(p)
                                        for p in c["probs"])
                for c in item["contexts"]}
        for item in entry.get("cells", ()):
            label = item["label"]
            s.breaks[label] = tuple(parse_probability(b)
                                    for b in item["breaks"])
            s.fill_targets[label] = tuple(item.get("fills", ()))
            s.cell_map[label] = {_ctx_from_doc(c): tuple(c["cells"])
                                 for c in item["contexts"]}
            s.component[label] = {
                _ctx_from_doc(c): c["member"]
                for c in item["contexts"] if c.get("member") is not None}
        splits[s.cluster] = s
    return HighLevelScm(scm=scm, splits=splits,
                        policy=delta.get("policy", "general"),
                        fallback=delta.get("fallback"))


def load_high(path):
    with open(path, "r", encoding="utf-8") as fh:
        return high_from_doc(json.load(fh))


def save_high(high, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(high_to_doc(high), fh, indent=2)
        fh.write("\n")
