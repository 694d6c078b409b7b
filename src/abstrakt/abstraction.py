"""Constructive abstraction of a low-level model.

A cluster map groups low-level variables into high-level ones (variables
left out of every cluster are projected away) and partitions each cluster's
joint domain into labeled high-level values. The consistency check flags
the clusters whose internal distinctions still matter downstream: a cluster
is a violator when collapsing two of its joint values that share a label
can change the label computed by some child cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import (
    CyclicDependencies,
    DomainMismatch,
    IncompleteAssignment,
    IncompleteValuePartition,
    InadmissibleClustering,
    NotClusterUnion,
    NotPartition,
    SizeExceeded,
    UnknownHighValue,
    UnknownVariable,
)
from .scm import Diagram, enumeration_budget, topological_order
from .valuation import (
    CounterfactualQuery,
    HardIntervention,
    OutcomeAtom,
    QueryTerm,
    SoftIntervention,
)


@dataclass(frozen=True)
class SigmaMarker:
    """An unresolved stochastic intervention on a cluster: 'set the cluster
    to this label, drawing the concrete member values from the reference
    distribution'. Resolved against a model and policy by the projection
    module."""

    cluster: str
    label: object


@dataclass
class ClusterValue:
    label: object
    tuples: tuple  # member-value tuples, canonical domain order


@dataclass
class Cluster:
    name: str
    members: tuple
    values: tuple

    def __post_init__(self):
        self._label_of = {}
        for cv in self.values:
            for t in cv.tuples:
                self._label_of[t] = cv.label
        self._fiber = {cv.label: cv.tuples for cv in self.values}

    def labels(self):
        return tuple(cv.label for cv in self.values)

    def label_of(self, joint):
        joint = tuple(joint)
        if joint not in self._label_of:
            raise DomainMismatch(
                "joint value %r is outside the domain of cluster %r"
                % (joint, self.name), cluster=self.name)
        return self._label_of[joint]

    def fiber(self, label):
        if label not in self._fiber:
            raise UnknownHighValue(
                "cluster %r has no value labeled %r" % (self.name, label),
                cluster=self.name, label=label)
        return self._fiber[label]


@dataclass
class ClusterMap:
    clusters: tuple
    excluded: tuple

    def __post_init__(self):
        self.by_name = {c.name: c for c in self.clusters}
        self.member_cluster = {}
        for c in self.clusters:
            for m in c.members:
                self.member_cluster[m] = c.name

    def cluster(self, name):
        if name not in self.by_name:
            raise UnknownVariable("unknown cluster %r" % name, cluster=name)
        return self.by_name[name]

    def covered_variables(self):
        out = []
        for c in self.clusters:
            out.extend(c.members)
        return tuple(out)


def _canonical_tuple_order(members, domains):
    """Position of each joint member value in the member-domain product,
    enumerated in declaration order."""
    index = {}
    for i, joint in enumerate(product(*domains)):
        index[joint] = i
    return index


def validate_clusters(scm, doc):
    """Check a raw cluster document against a model and build a ClusterMap.

    Raises NotPartition when a variable lands in two clusters,
    IncompleteValuePartition when a cluster's labeled tuples fail to
    partition its joint domain, and InadmissibleClustering when merging the
    clusters would create a cyclic dependency between high-level variables.
    """
    if not isinstance(doc, dict) or "clusters" not in doc:
        raise DomainMismatch("cluster document must contain a 'clusters' list")
    clusters = []
    owner = {}
    names = set()
    for entry in doc["clusters"]:
        if "name" not in entry:
            raise DomainMismatch("cluster entry without a name")
        name = entry["name"]
        if name in names:
            raise NotPartition("cluster %r declared twice" % name, cluster=name)
        names.add(name)
        members = tuple(entry.get("members", ()))
        if not members:
            raise NotPartition("cluster %r has no members" % name, cluster=name)
        for m in members:
            if m not in scm.var_index:
                raise UnknownVariable(
                    "cluster %r names unknown variable %r" % (name, m),
                    cluster=name, variable=m)
            if m in owner:
                raise NotPartition(
                    "variable %r appears in clusters %r and %r"
                    % (m, owner[m], name), variable=m)
            owner[m] = name
        domains = [scm.domain(m) for m in members]
        order = _canonical_tuple_order(members, domains)
        values = []
        labels = set()
        seen_tuples = {}
        for val in entry.get("values", ()):
            if "label" not in val:
                raise DomainMismatch(
                    "value of cluster %r without a label" % name)
            label = val["label"]
            if label in labels:
                raise IncompleteValuePartition(
                    "cluster %r labels %r twice" % (name, label),
                    cluster=name, label=label)
            labels.add(label)
            tuples = []
            for t in val.get("tuples", ()):
                t = tuple(t)
                if len(t) != len(members):
                    raise DomainMismatch(
                        "tuple %r of cluster %r has %d entries for %d members"
                        % (t, name, len(t), len(members)))
                if t not in order:
                    raise DomainMismatch(
                        "tuple %r is outside the joint domain of cluster %r"
                        % (t, name))
                if t in seen_tuples:
                    raise IncompleteValuePartition(
                        "tuple %r of cluster %r appears under labels %r and %r"
                        % (t, name, seen_tuples[t], label), cluster=name)
                seen_tuples[t] = label
                tuples.append(t)
            if not tuples:
                raise IncompleteValuePartition(
                    "value %r of cluster %r has an empty preimage"
                    % (label, name), cluster=name, label=label)
            tuples.sort(key=order.get)
            values.append(ClusterValue(label=label, tuples=tuple(tuples)))
        if len(seen_tuples) != len(order):
            raise IncompleteValuePartition(
                "cluster %r labels %d of %d joint values"
                % (name, len(seen_tuples), len(order)), cluster=name)
        clusters.append(Cluster(name=name, members=members, values=tuple(values)))

    excluded = tuple(v.name for v in scm.endogenous if v.name not in owner)
    cm = ClusterMap(clusters=tuple(clusters), excluded=excluded)
    _check_admissible(scm, cm)
    return cm


def _check_admissible(scm, cm):
    """Contracting each cluster to a point must leave the directed part of
    the full diagram (excluded variables included) acyclic; otherwise some
    member's external descendant feeds back into the cluster."""
    group = {}
    for c in cm.clusters:
        for m in c.members:
            group[m] = c.name
    for v in cm.excluded:
        group[v] = ("var", v)
    nodes = tuple(sorted(set(group.values()), key=repr))
    edges = set()
    for v in scm.variable_names():
        gv = group[v]
        for p in scm.mechanisms[v].endo_parents:
            gp = group[p]
            if gp != gv:
                edges.add((gp, gv))
    try:
        topological_order(Diagram(nodes=nodes, directed=tuple(edges),
                                  bidirected=()))
    except CyclicDependencies as exc:
        stuck_names = [n if isinstance(n, str) else n[1]
                       for n in exc.details["variables"]]
        raise InadmissibleClustering(
            "clustering creates a dependency cycle through %s"
            % ", ".join(map(str, stuck_names)), groups=stuck_names)


def load_clusters(scm, path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_clusters(scm, json.load(fh))


def apply_tau(cm, assignment):
    """Map a low-level assignment to the labels of every cluster it fully
    covers. Partially covered clusters raise IncompleteAssignment."""
    out = {}
    for c in cm.clusters:
        present = [m for m in c.members if m in assignment]
        if not present:
            continue
        if len(present) != len(c.members):
            raise IncompleteAssignment(
                "assignment covers only part of cluster %r" % c.name,
                cluster=c.name)
        out[c.name] = c.label_of(tuple(assignment[m] for m in c.members))
    return out


def preimage(cm, high_assignment):
    """All low-level assignments mapping to the given labels, in canonical
    order (clusters in declaration order, fibers in domain order)."""
    chosen = [c for c in cm.clusters if c.name in high_assignment]
    known = {c.name for c in chosen}
    for name in high_assignment:
        if name not in known:
            raise UnknownVariable("unknown cluster %r" % name, cluster=name)
    out = []
    fibers = [c.fiber(high_assignment[c.name]) for c in chosen]
    for combo in product(*fibers):
        low = {}
        for c, joint in zip(chosen, combo):
            for m, val in zip(c.members, joint):
                low[m] = val
        out.append(low)
    return out


@dataclass
class AicWitness:
    """Evidence that a parent cluster's internal distinction is visible
    downstream: two joint values under one label that make some child
    cluster produce different labels in otherwise identical worlds."""

    parent: str
    child: str
    label: object
    left: tuple
    right: tuple
    others: dict      # fixed raw values for the child's other parent clusters
    unit: dict        # full exogenous assignment, (block, member) keys
    outputs: tuple    # differing child labels (left world, right world)


@dataclass
class AicReport:
    violators: tuple
    witnesses: dict
    scm: object  # the working model the check ran on (after projection)
    cm: object


def _working_model(scm, cm):
    if cm.excluded:
        from .projection import project_full
        return project_full(scm, cm.covered_variables())
    return scm


def check_aic(scm, cm, budget=None):
    """Find every cluster whose internal distinctions can leak downstream.

    A parent cluster violates the condition when two member tuples under a
    single label, with every other parent of some child cluster held fixed
    and the child's own noise held fixed, lead the child cluster to two
    different labels.
    """
    working = _working_model(scm, cm)
    topo = working.topological_order_names()
    member_order = {c.name: [v for v in topo if v in c.members]
                    for c in cm.clusters}

    child_parents = {}
    child_blocks = {}
    for cj in cm.clusters:
        parents = set()
        blocks = []
        for m in cj.members:
            mech = working.mechanisms[m]
            for p in mech.endo_parents:
                pc = cm.member_cluster[p]
                if pc != cj.name:
                    parents.add(pc)
            for (b, _mem) in mech.exo_parents:
                if b not in blocks:
                    blocks.append(b)
        child_parents[cj.name] = parents
        child_blocks[cj.name] = blocks

    cost = 0
    for cj in cm.clusters:
        usize = 1
        for b in child_blocks[cj.name]:
            usize *= len(working.block_index[b].support())
        for ci_name in child_parents[cj.name]:
            ci = cm.by_name[ci_name]
            pairs = sum(len(cv.tuples) * (len(cv.tuples) - 1) // 2
                        for cv in ci.values)
            if pairs == 0:
                continue
            others = 1
            for other in child_parents[cj.name]:
                if other != ci_name:
                    oc = cm.by_name[other]
                    for m in oc.members:
                        others *= len(working.domain(m))
            cost += 2 * pairs * others * usize
    bud = enumeration_budget(budget)
    if cost > bud:
        raise SizeExceeded(
            "consistency check needs %d evaluations, budget is %d"
            % (cost, bud), required=cost, budget=bud)

    violators = []
    witnesses = {}
    default_unit = {}
    for b in working.blocks:
        values, _p = b.support()[0]
        for mn, val in zip(b.member_names(), values):
            default_unit[(b.name, mn)] = val

    def child_label(cj, env, unit):
        working.solve(unit, env, member_order[cj.name])
        return cj.label_of(tuple(env[m] for m in cj.members))

    for ci in cm.clusters:
        found = None
        for cj in cm.clusters:
            if ci.name not in child_parents[cj.name]:
                continue
            other_names = sorted(child_parents[cj.name] - {ci.name})
            other_members = []
            other_domains = []
            for on in other_names:
                oc = cm.by_name[on]
                for m in oc.members:
                    other_members.append(m)
                    other_domains.append(working.domain(m))
            blocks = [working.block_index[b] for b in child_blocks[cj.name]]
            supports = [b.support() for b in blocks]
            for cv in ci.values:
                for left, right in combinations(cv.tuples, 2):
                    for others in product(*other_domains):
                        base = dict(zip(other_members, others))
                        for rows in product(*supports):
                            unit = dict(default_unit)
                            for b, (values, _p) in zip(blocks, rows):
                                for mn, val in zip(b.member_names(), values):
                                    unit[(b.name, mn)] = val
                            envl = dict(base)
                            envl.update(zip(ci.members, left))
                            envr = dict(base)
                            envr.update(zip(ci.members, right))
                            out_l = child_label(cj, envl, unit)
                            out_r = child_label(cj, envr, unit)
                            if out_l != out_r:
                                found = AicWitness(
                                    parent=ci.name, child=cj.name,
                                    label=cv.label, left=left, right=right,
                                    others=base, unit=unit,
                                    outputs=(out_l, out_r))
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found:
            violators.append(ci.name)
            witnesses[ci.name] = found
    return AicReport(violators=tuple(violators), witnesses=witnesses,
                     scm=working, cm=cm)


def _term_interventions_to_high(cm, term):
    """Translate a term's interventions to cluster-level hard assignments."""
    by_cluster = {}
    loose = {}
    for h in term.hard:
        if h.variable not in cm.member_cluster:
            raise NotClusterUnion(
                "intervened variable %r belongs to no cluster" % h.variable,
                variable=h.variable)
        loose[h.variable] = h.value
    for c in cm.clusters:
        hit = [m for m in c.members if m in loose]
        if not hit:
            continue
        if len(hit) != len(c.members):
            raise NotClusterUnion(
                "intervention covers only part of cluster %r" % c.name,
                cluster=c.name)
        by_cluster[c.name] = c.label_of(tuple(loose[m] for m in c.members))
    for a in term.soft:
        if isinstance(a, SigmaMarker):
            cm.cluster(a.cluster).fiber(a.label)
            by_cluster[a.cluster] = a.label
            continue
        if isinstance(a, SoftIntervention):
            match = None
            for c in cm.clusters:
                if tuple(c.members) == tuple(a.targets):
                    match = c
                    break
            if match is not None:
                for cv in match.values:
                    if set(cv.tuples) == set(a.candidates):
                        by_cluster[match.name] = cv.label
                        break
                else:
                    match = None
            if match is None:
                raise NotClusterUnion(
                    "stochastic intervention %r does not target a cluster value"
                    % (a.share_key,))
            continue
        raise NotClusterUnion("cannot translate intervention %r" % (a,))
    return by_cluster


def _outcomes_to_high(cm, outcomes):
    high = []
    for oc in outcomes:
        home = None
        for c in cm.clusters:
            if set(oc.variables) <= set(c.members):
                home = c
                break
        if home is None or set(oc.variables) != set(home.members):
            raise NotClusterUnion(
                "outcome over %s is not aligned with a cluster"
                % ", ".join(oc.variables), variables=list(oc.variables))
        pos = {v: i for i, v in enumerate(oc.variables)}
        reordered = set()
        for t in oc.accepted:
            reordered.add(tuple(t[pos[m]] for m in home.members))
        labels = []
        covered = set()
        for cv in home.values:
            if set(cv.tuples) <= reordered:
                labels.append(cv.label)
                covered |= set(cv.tuples)
        if covered != reordered:
            raise NotClusterUnion(
                "outcome on cluster %r accepts a set that is not a union of "
                "its labeled values" % home.name, cluster=home.name)
        high.append(OutcomeAtom(variables=(home.name,),
                                accepted=frozenset((l,) for l in labels),
                                label="%s in {%s}" % (home.name,
                                                      ", ".join(map(str, labels)))))
    return tuple(high)


def translate_query(cm, query):
    """Rewrite a low-level query as a query over cluster names, suitable for
    a high-level model. Interventions and outcomes must align with whole
    clusters; NotClusterUnion otherwise."""
    def lift_term(term):
        by_cluster = _term_interventions_to_high(cm, term)
        hard = tuple(HardIntervention(name, label)
                     for name, label in sorted(by_cluster.items()))
        return QueryTerm(outcomes=_outcomes_to_high(cm, term.outcomes),
                         hard=hard, soft=())
    return CounterfactualQuery(
        terms=tuple(lift_term(t) for t in query.terms),
        conditioning=tuple(lift_term(t) for t in (query.conditioning or ())))


def lower_query(cm, query):
    """Rewrite a cluster-level query against the low-level variables.

    Hard cluster assignments whose label has a single member tuple become
    hard interventions; labels with several member tuples become unresolved
    stochastic interventions (SigmaMarker) that the projection module can
    resolve under a policy. Outcomes become constraints on the label's
    preimage, so no disambiguation is needed for them."""
    def lower_term(term):
        hard = []
        soft = []
        for a in term.soft:
            if isinstance(a, SigmaMarker):
                soft.append(a)
            else:
                raise NotClusterUnion(
                    "cannot lower concrete stochastic intervention %r"
                    % (a,))
        for h in term.hard:
            c = cm.cluster(h.variable)
            fiber = c.fiber(h.value)
            if len(fiber) == 1:
                for m, val in zip(c.members, fiber[0]):
                    hard.append(HardIntervention(m, val))
            else:
                soft.append(SigmaMarker(cluster=c.name, label=h.value))
        outcomes = []
        for oc in term.outcomes:
            if len(oc.variables) != 1:
                raise NotClusterUnion(
                    "high-level outcome must constrain a single cluster")
            c = cm.cluster(oc.variables[0])
            accepted = set()
            for (label,) in oc.accepted:
                accepted |= set(c.fiber(label))
            outcomes.append(OutcomeAtom(
                variables=tuple(c.members), accepted=frozenset(accepted),
                label=oc.label or c.name))
        return QueryTerm(outcomes=tuple(outcomes), hard=tuple(hard),
                         soft=tuple(soft))
    return CounterfactualQuery(
        terms=tuple(lower_term(t) for t in query.terms),
        conditioning=tuple(lower_term(t) for t in (query.conditioning or ())))
