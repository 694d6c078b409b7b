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
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .errors import (
    CyclicDependencies,
    DomainMismatch,
    IncompleteValuePartition,
    InadmissibleClustering,
    NotClusterUnion,
    NotPartition,
    UnknownHighValue,
    UnknownVariable,
)
from .scm import (Diagram, _array, _items, _require, _scalar, _scalars,
                  check_budget, topological_order)
from .valuation import (
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

    def lossy_labels(self):
        """The labels that cover more than one member tuple."""
        return tuple(cv.label for cv in self.values if len(cv.tuples) > 1)

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

    @cached_property
    def key(self):
        """The map's content: its clusters' names, members, labels and
        tuples, in order, as text, so that values which compare equal but
        differ in type (1, 1.0, True) give different keys."""
        return repr([(c.name, c.members,
                      [(cv.label, cv.tuples) for cv in c.values])
                     for c in self.clusters])

    def cluster(self, name):
        if name not in self.by_name:
            raise UnknownVariable("unknown cluster %r" % name, cluster=name)
        return self.by_name[name]

    def covered_variables(self):
        out = []
        for c in self.clusters:
            out.extend(c.members)
        return tuple(out)


def _canonical_tuple_order(domains):
    """Position of each joint member value in the member-domain product,
    enumerated in declaration order."""
    index = {}
    for i, joint in enumerate(product(*domains)):
        index[joint] = i
    return index


def _cluster_tuple(t, name, members, order, seen_tuples, label):
    """Check a tuple of cluster ``name``'s value ``label`` one condition
    at a time and raise the first problem; a tuple that passes comes back
    as a tuple. validate_clusters sends here each tuple its one-test check
    refuses."""
    where = "cluster %r" % name
    t = _scalars(_array(t, "tuple %r of %s", t, where),
                 "entry of tuple %r of %s", t, where)
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
    return t


def validate_clusters(scm, doc):
    """Check a raw cluster document against a model and build a ClusterMap.

    Raises NotPartition when a variable lands in two clusters,
    IncompleteValuePartition when a cluster's labeled tuples fail to
    partition its joint domain, and InadmissibleClustering when merging the
    clusters would create a cyclic dependency between high-level variables.
    A tuple is accepted when it is an array in the cluster's joint domain
    (one dict lookup) not listed before; any other goes to _cluster_tuple
    for its error.
    """
    clusters = []
    owner = {}
    names = set()
    for entry in _items(doc, "clusters", "cluster document"):
        name = _scalar(_require(entry, "name", "cluster entry"),
                       "cluster name")
        if name in names:
            raise NotPartition("cluster %r declared twice" % name, cluster=name)
        names.add(name)
        members = _scalars(_items(entry, "members", "cluster %r", name,
                                  optional=True),
                           "member of cluster %r", name)
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
        order = _canonical_tuple_order(domains)
        values = []
        labels = set()
        seen_tuples = {}
        for val in _items(entry, "values", "cluster %r", name, optional=True):
            label = _scalar(_require(val, "label", "value of cluster %r",
                                     name),
                            "label of cluster %r", name)
            if label in labels:
                raise IncompleteValuePartition(
                    "cluster %r labels %r twice" % (name, label),
                    cluster=name, label=label)
            labels.add(label)
            tuples = []
            for t in _items(val, "tuples", "value of cluster %r", name,
                            optional=True):
                try:
                    key = tuple(t)
                    fits = (t.__class__ is list and key in order
                            and key not in seen_tuples)
                except TypeError:
                    fits = False
                if not fits:
                    key = _cluster_tuple(t, name, members, order, seen_tuples,
                                         label)
                seen_tuples[key] = label
                tuples.append(key)
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


def _working_model(scm, covered, budget=None):
    """The model a cluster map's checks and constructions run on: the
    variables outside every cluster are projected away. ``covered`` is the
    cluster map or its covered variables; a model with exactly those
    variables is returned unchanged."""
    if isinstance(covered, ClusterMap):
        covered = covered.covered_variables()
    if set(covered) != set(scm.var_index):
        from .projection import project_full
        return project_full(scm, covered, budget)
    return scm


def _parent_clusters(scm, cm, cluster):
    """The other clusters, in declaration order, that hold an endogenous
    parent of one of ``cluster``'s members in the working model ``scm``."""
    hit = {cm.member_cluster[p] for m in cluster.members
           for p in scm.mechanisms[m].endo_parents}
    return tuple(c.name for c in cm.clusters
                 if c.name in hit and c.name != cluster.name)


def check_aic(scm, cm, budget=None):
    """Find every cluster whose internal distinctions can leak downstream.

    A parent cluster violates the condition when two member tuples under a
    single label, with every other parent of some child cluster held fixed
    and the child's own noise held fixed, lead the child cluster to two
    different labels.

    The check walks each merged label once and solves the child for every
    one of its member tuples at each point (a value of the other parent
    clusters' members and a state of the child's noise): the child labels a
    tuple gets over the points are its signature, and a label is violated
    when two of its tuples' signatures differ. The witness is the first pair
    of tuples in ``combinations`` order whose signatures differ, at the
    first point where they do, so the walk stops at the first point where
    the label's first two tuples differ. The budget counts one solve per
    tuple of a merged label per point.
    """
    working = _working_model(scm, cm, budget)
    topo = working.topological_order_names()
    member_order = {c.name: [v for v in topo if v in c.members]
                    for c in cm.clusters}
    child_parents = {c.name: _parent_clusters(working, cm, c)
                     for c in cm.clusters}
    # every (parent, child) pair in walk order, with the members of the
    # child's other parent clusters, their domains and the sorted positions
    # of the blocks the child's members read
    pairs = []
    for ci in cm.clusters:
        for cj in cm.clusters:
            if ci.name not in child_parents[cj.name]:
                continue
            members = [m for on in sorted(set(child_parents[cj.name])
                                          - {ci.name})
                       for m in cm.by_name[on].members]
            blocks = tuple(sorted(
                {working.block_position[b] for m in cj.members
                 for b, _mem in working.mechanisms[m].exo_parents}))
            pairs.append((ci, cj, members,
                          [working.domain(m) for m in members], blocks))
    check_budget(sum(
        sum(len(cv.tuples) for cv in ci.values if len(cv.tuples) > 1)
        * math.prod(map(len, domains))
        * working.exogenous_support_size(blocks)
        for ci, _cj, _members, domains, blocks in pairs), budget,
        "consistency check needs %d evaluations")

    everywhere = range(len(working.blocks))
    default_unit = working.exogenous_assignment(everywhere,
                                                [0] * len(everywhere))

    def child_label(cj, base, members, raw, unit):
        env = dict(base)
        env.update(zip(members, raw))
        working.solve(unit, env, member_order[cj.name])
        return cj.label_of(tuple(env[m] for m in cj.members))

    def first_witness(ci, cj, members, domains, blocks):
        for cv in (cv for cv in ci.values if len(cv.tuples) > 1):
            # every point, in order: the other parents' values, then a state
            # of the child's noise
            points = ((base, {**default_unit, **rows})
                      for base in (dict(zip(members, others))
                                   for others in product(*domains))
                      for _idx, rows, _w in working.exogenous_support(blocks))
            # each tuple's labels so far are its signature: cls numbers its
            # signature class, and splits keeps the points where one split
            cls, count, splits = [0] * len(cv.tuples), 1, []
            for base, unit in points:
                labels = [child_label(cj, base, ci.members, t, unit)
                          for t in cv.tuples]
                seen = {}
                refined = [seen.setdefault(key, len(seen))
                           for key in zip(cls, labels)]
                if len(seen) > count:
                    splits.append((base, unit, labels))
                    cls, count = refined, len(seen)
                    if cls[0] != cls[1]:
                        break  # no pair comes before the first one
            if count == 1:
                continue
            i, j = next((i, j) for i, j in combinations(range(len(cls)), 2)
                        if cls[i] != cls[j])
            # the pair first differs where the split that parts it was
            base, unit, labels = next(
                split for split in splits if split[2][i] != split[2][j])
            return AicWitness(
                parent=ci.name, child=cj.name, label=cv.label,
                left=cv.tuples[i], right=cv.tuples[j], others=base,
                unit=unit, outputs=(labels[i], labels[j]))
        return None

    witnesses = {}
    for ci, *rest in pairs:
        if ci.name not in witnesses:
            found = first_witness(ci, *rest)
            if found is not None:
                witnesses[ci.name] = found
    return AicReport(violators=tuple(witnesses), witnesses=witnesses,
                     scm=working)


def _term_interventions_to_high(cm, term):
    """Translate a term's interventions to cluster-level ones, the reverse
    of lower_query: a hard setting of every member of a cluster becomes a
    hard setting of the cluster's label if that label covers that one
    member tuple alone (NotClusterUnion otherwise), and a SigmaMarker, or a
    stochastic intervention that resolve_sigma made for a cluster value,
    becomes a SigmaMarker on a label with several member tuples and a hard
    setting on a singleton label. Returns the hard labels by cluster and
    the markers."""
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
        joint = tuple(loose[m] for m in c.members)
        label = c.label_of(joint)
        if len(c.fiber(label)) > 1:
            raise NotClusterUnion(
                "hard setting %r of cluster %r is one of several member "
                "tuples of %s=%s; no cluster setting represents it"
                % (joint, c.name, c.name, label), cluster=c.name)
        by_cluster[c.name] = label
    markers = []
    for a in term.soft:
        if isinstance(a, SoftIntervention):
            marker = next((SigmaMarker(c.name, cv.label) for c in cm.clusters
                           if tuple(c.members) == tuple(a.targets)
                           for cv in c.values
                           if set(cv.tuples) == set(a.candidates)), None)
            if marker is None:
                raise NotClusterUnion(
                    "stochastic intervention %r does not target a cluster "
                    "value" % (a.share_key,))
            a = marker
        elif not isinstance(a, SigmaMarker):
            raise NotClusterUnion("cannot translate intervention %r" % (a,))
        if len(cm.cluster(a.cluster).fiber(a.label)) == 1:
            by_cluster[a.cluster] = a.label
        else:
            markers.append(a)
    return by_cluster, tuple(markers)


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
                                accepted=frozenset((l,) for l in labels)))
    return tuple(high)


def translate_query(cm, query):
    """Rewrite a low-level query as a query over cluster names, suitable for
    a high-level model. Interventions and outcomes must align with whole
    clusters; NotClusterUnion otherwise. A stochastic reference setting of
    a label with several member tuples stays one (a SigmaMarker, which
    resolve_sigma_high draws afresh); see _term_interventions_to_high."""
    def lift_term(term):
        by_cluster, markers = _term_interventions_to_high(cm, term)
        hard = tuple(HardIntervention(name, label)
                     for name, label in sorted(by_cluster.items()))
        return QueryTerm(outcomes=_outcomes_to_high(cm, term.outcomes),
                         hard=hard, soft=markers)
    return query.map_terms(lift_term)


def lower_query(cm, query):
    """Rewrite a cluster-level query against the low-level variables.

    Hard cluster assignments whose label has a single member tuple become
    hard interventions; labels with several member tuples become unresolved
    stochastic interventions (SigmaMarker) that the projection module can
    resolve under a policy. Outcomes become constraints on the label's
    preimage, so no disambiguation is needed for them. Names that are not
    clusters pass through unchanged, so a query may mix clusters with
    low-level variables."""
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
            c = cm.by_name.get(h.variable)
            if c is None:
                hard.append(h)
                continue
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
            c = cm.by_name.get(oc.variables[0])
            if c is None:
                outcomes.append(oc)
                continue
            accepted = set()
            for (label,) in oc.accepted:
                accepted |= set(c.fiber(label))
            outcomes.append(OutcomeAtom(
                variables=tuple(c.members), accepted=frozenset(accepted)))
        return QueryTerm(outcomes=tuple(outcomes), hard=tuple(hard),
                         soft=tuple(soft))
    return query.map_terms(lower_term)
