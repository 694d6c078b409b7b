"""Mixed graphs over clusters: construction, projection rewrite, separation.

A cluster diagram carries directed edges (functional dependence between
clusters) and bidirected edges (shared noise). Projecting the diagram adds
the edges a consistency violator forces on its surroundings: children
inherit the violator's parents, partners become confounded with the
children, and the children become confounded with each other through the
violator's disambiguation cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatch, NotClusterUnion, UnknownVariable
from .scm import Diagram, topological_order, write_json
from .valuation import (
    HardIntervention,
    OutcomeAtom,
    QueryTerm,
    counterfactual_table,
)
from itertools import combinations, product


def make_graph(nodes, directed, bidirected, projected=False, violators=()):
    """A Diagram from outside input, checked, with edges in node order."""
    nodes = tuple(nodes)
    seen = set()
    for n in nodes:
        if isinstance(n, (list, dict)):
            raise DomainMismatch("node %r is not a name" % (n,))
        if n in seen:
            raise DomainMismatch("node %r declared twice" % n)
        seen.add(n)
    pos = {n: i for i, n in enumerate(nodes)}

    def edges(pairs):
        for e in pairs:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise DomainMismatch("edge %r is not a pair of nodes" % (e,))
            a, b = e
            if isinstance(a, (list, dict)) or isinstance(b, (list, dict)) \
                    or a not in pos or b not in pos:
                raise UnknownVariable(
                    "edge (%r, %r) references an unknown node" % (a, b))
            if a == b:
                raise DomainMismatch("self loop on %r" % a)
            yield a, b

    d = set(edges(directed))
    bi = {(a, b) if pos[a] < pos[b] else (b, a) for a, b in edges(bidirected)}
    for v in violators:
        if isinstance(v, (list, dict)) or v not in pos:
            raise UnknownVariable("violator %r is not a node" % (v,), node=v)
    return Diagram(
        nodes=nodes,
        directed=tuple(sorted(d, key=lambda e: (pos[e[0]], pos[e[1]]))),
        bidirected=tuple(sorted(bi, key=lambda e: (pos[e[0]], pos[e[1]]))),
        projected=projected,
        violators=tuple(sorted(set(violators), key=pos.get)))


# ---------------------------------------------------------------------------
# construction from a low-level diagram and a cluster map


def build_cdag(diagram, cm):
    """Contract a diagram of the clustered variables onto the clusters: a
    directed edge joins two clusters holding the ends of a member-level
    edge, and a bidirected edge two clusters whose members share one.
    ``projection.project_full`` drops the variables outside every cluster
    (the working model does so), and a diagram that still has one is
    refused with NotClusterUnion."""
    for c in cm.clusters:
        for m in c.members:
            if m not in diagram.nodes:
                raise UnknownVariable(
                    "cluster %r names %r, which is not in the diagram"
                    % (c.name, m), variable=m)
    owner = cm.member_cluster
    loose = [str(n) for n in diagram.nodes if n not in owner]
    if loose:
        raise NotClusterUnion("variables %s belong to no cluster"
                              % ", ".join(sorted(loose)),
                              variables=sorted(loose))

    def contract(edges):
        return {(owner[a], owner[b]) for a, b in edges
                if owner[a] != owner[b]}

    return make_graph((c.name for c in cm.clusters),
                      contract(diagram.directed), contract(diagram.bidirected))


# ---------------------------------------------------------------------------
# projection rewrite


def _apply_rules(pos, directed, bidirected, x):
    """Edges the violator ``x`` forces, given the current edge sets."""
    parents = {a for a, b in directed if b == x}
    kids = {b for a, b in directed if a == x}
    partners = {b if a == x else a
                for a, b in bidirected if x in (a, b)}
    add_d = set()
    add_b = set()

    def bi(a, b):
        if a != b:
            add_b.add((a, b) if pos[a] < pos[b] else (b, a))

    for y in kids:
        for z in parents:
            if z != y:
                add_d.add((z, y))
        for z in partners:
            bi(z, y)
            bi(x, y)
    kids_sorted = sorted(kids, key=pos.get)
    for i, y1 in enumerate(kids_sorted):
        for y2 in kids_sorted[i + 1:]:
            bi(y1, y2)
    return add_d - directed, add_b - bidirected


def build_projected_cdag(cdag, violators):
    """Close a cluster diagram under the violator rewrite rules, in one pass
    over the violators in topological order. Directed edges z -> y appear
    for every parent z and child y of a violator, partners and the violator
    itself become confounded with its children, and children become
    confounded with each other."""
    vset = set(violators)
    directed = set(cdag.directed)
    bidirected = set(cdag.bidirected)
    for x in topological_order(cdag):
        if x in vset:
            add_d, add_b = _apply_rules(cdag._pos, directed, bidirected, x)
            directed |= add_d
            bidirected |= add_b
    return make_graph(cdag.nodes, directed, bidirected, projected=True,
                      violators=vset)


# ---------------------------------------------------------------------------
# separation and components


def ancestors(g, targets):
    parents = {n: [] for n in g.nodes}
    for a, b in g.directed:
        parents[b].append(a)
    out = set()
    stack = list(targets)
    while stack:
        n = stack.pop()
        if n in out:
            continue
        out.add(n)
        stack.extend(parents[n])
    return out


def d_separated(g, xs, ys, zs):
    """Separation in a mixed graph: no active path between the sets given
    the conditioning set, where every arrowhead-to-arrowhead meeting
    counts as a collider. The walk may revisit nodes, so it opens a
    collider only when the collider itself is conditioned: a conditioned
    descendant opens it by a walk down to that descendant and back."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    for n in xs | ys | zs:
        g.position(n)
    if xs & ys or xs & zs or ys & zs:
        raise DomainMismatch("separation sets must be disjoint")

    edges = {n: [] for n in g.nodes}
    for a, b in g.directed:
        edges[a].append((b, False, True))
        edges[b].append((a, True, False))
    for a, b in g.bidirected:
        edges[a].append((b, True, True))
        edges[b].append((a, True, True))

    seen = set()
    stack = []
    for x in xs:
        for (m, _head_here, head_there) in edges[x]:
            state = (m, head_there)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    while stack:
        n, head = stack.pop()
        if n in ys:
            return False
        for (m, head_here, head_there) in edges[n]:
            # a collider passes only when conditioned, any other node
            # only when not
            if (head and head_here) != (n in zs):
                continue
            state = (m, head_there)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True


def c_components(g, subset=None):
    """Partition of the nodes into groups connected by bidirected edges."""
    nodes = tuple(g.nodes) if subset is None else tuple(
        n for n in g.nodes if n in set(subset))
    inside = set(nodes)
    adj = {n: [] for n in nodes}
    for a, b in g.bidirected:
        if a in inside and b in inside:
            adj[a].append(b)
            adj[b].append(a)
    seen = set()
    comps = []
    for n in nodes:
        if n in seen:
            continue
        comp = []
        stack = [n]
        seen.add(n)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for m in adj[cur]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        comps.append(tuple(sorted(comp, key=g.position)))
    return tuple(sorted(comps, key=lambda c: g.position(c[0])))


# ---------------------------------------------------------------------------
# counterfactual factorization checks


@dataclass
class CtfbnViolation:
    kind: str
    description: str
    lhs: object
    rhs: object


@dataclass
class CtfbnReport:
    checked: int
    violations: list
    truncated: bool = False

    @property
    def passed(self):
        return not self.violations


def _pa(g):
    return {n: tuple(sorted((a for a, b in g.directed if b == n),
                            key=g.position)) for n in g.nodes}


def _subsets(items, empty):
    """The subsets of ``items`` in bitmask order (bit i holds items[i]),
    the empty one first if ``empty``."""
    for mask in range(0 if empty else 1, 1 << len(items)):
        yield tuple(x for i, x in enumerate(items) if mask >> i & 1)


def _constraints(g, scm, parents, max_terms):
    """The equations ``g`` asserts of ``scm``'s counterfactuals, as (kind,
    lhs, rhs). A side is a product of conjunctions of worlds; a world is
    (hard settings, outcomes), both tuples of (variable, value) pairs."""
    names = scm.variable_names()

    def settings(variables):
        for values in product(*map(scm.domain, variables)):
            yield tuple(zip(variables, values))

    # (i) factorization: worlds with pinned parents factor over the
    # confounded components of their variables
    for size in range(2, max_terms + 1):
        for ws in combinations(names, size):
            comps = c_components(g, subset=ws)
            if len(comps) < 2:
                continue
            families = [[(s[1:], s[:1]) for s in settings((w, *parents[w]))]
                        for w in ws]
            for worlds in product(*families):
                at = dict(zip(ws, worlds))
                yield ("factorization", (worlds,),
                       tuple(tuple(at[w] for w in comp) for comp in comps))

    # (ii) exclusion: setting non-parents on top of the parents changes
    # nothing
    for y in names:
        pa = parents[y]
        rest = [v for v in names if v != y and v not in pa]
        for zs in _subsets(rest, False):
            for out in settings((y,)):
                for hard in settings(pa + zs):
                    yield ("exclusion", (((hard, out),),),
                           (((hard[:len(pa)], out),),))

    # (iii) consistency: observing parents at the values a nested
    # intervention sets them to is the same as setting them
    for y in names:
        for xs in _subsets(parents[y], False):
            rest = [v for v in names if v != y and v not in xs]
            for zs in _subsets(rest, True):
                for out in settings((y,)):
                    for both in settings(xs + zs):
                        seen, hard = both[:len(xs)], both[len(xs):]
                        yield ("consistency", (((hard, out + seen),),),
                               (((hard + seen, out), (hard, seen)),))


def _render(side):
    """P(Y[X=x;Z=z]=y, ...) * ... for a side of an equation."""
    return " * ".join("P(%s)" % ", ".join(
        "%s[%s]=%s" % (v, ";".join("%s=%s" % s for s in hard), x) if hard
        else "%s=%s" % (v, x)
        for hard, outcomes in conj for v, x in outcomes) for conj in side)


def ctfbn_check(g, scm, max_terms=2, budget=None):
    """Check the constraints a cluster diagram imposes on a model's
    counterfactual distributions, with conjunctions up to ``max_terms``
    worlds: factorization of parent-pinned terms by confounded components,
    exclusion of non-parents, and consistency of nested interventions.

    Each check reads its probabilities off one counterfactual_table per
    signature of the call. The model keeps those tables, keyed by what
    their worlds read, so signatures whose worlds read the same settings,
    and later audits of other diagrams of the same model, share them."""
    if set(g.nodes) != set(scm.variable_names()):
        raise DomainMismatch(
            "graph nodes %s do not match the model's variables %s"
            % (sorted(g.nodes), sorted(scm.variable_names())))
    tables = {}

    def prob(worlds):
        """P(worlds) read off one table per (hard settings, outcome
        variables) signature; the terms are built only to make a table."""
        sig = tuple((hard, tuple(v for v, _ in outcomes))
                    for hard, outcomes in worlds)
        found = tables.get(sig)
        if found is None:
            terms = [QueryTerm(
                outcomes=tuple(OutcomeAtom((v,), frozenset({(x,)}))
                               for v, x in outcomes),
                hard=tuple(HardIntervention(v, x) for v, x in hard))
                for hard, outcomes in worlds]
            found = tables[sig] = counterfactual_table(scm, terms,
                                                       budget=budget)
        den, table = found
        key = tuple(tuple(x for _, x in outcomes) for _, outcomes in worlds)
        return Fraction(table.get(key, 0), den)

    checked = 0
    violations = []
    truncated = False
    for kind, lhs, rhs in _constraints(g, scm, _pa(g), max_terms):
        left = math.prod(map(prob, lhs))
        right = math.prod(map(prob, rhs))
        checked += 1
        if left == right:
            continue
        if len(violations) < 25:
            violations.append(CtfbnViolation(
                kind, "%s != %s" % (_render(lhs), _render(rhs)), left, right))
        else:
            truncated = True
    return CtfbnReport(checked=checked, violations=violations,
                       truncated=truncated)


# ---------------------------------------------------------------------------
# serialization


def graph_to_doc(g):
    doc = {
        "nodes": list(g.nodes),
        "directed": [list(e) for e in g.directed],
        "bidirected": [list(e) for e in g.bidirected],
    }
    if g.projected:
        doc["projected"] = True
    if g.violators:
        doc["violators"] = list(g.violators)
    return doc


def graph_from_doc(doc):
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise DomainMismatch("graph document must contain a 'nodes' list")
    for field in ("nodes", "directed", "bidirected", "violators"):
        if not isinstance(doc.get(field, []), list):
            raise DomainMismatch("graph field %r must be a list" % field)
    return make_graph(doc["nodes"], doc.get("directed", ()),
                      doc.get("bidirected", ()),
                      projected=doc.get("projected", False),
                      violators=doc.get("violators", ()))


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_doc(json.load(fh))


def save_graph(g, path):
    write_json(graph_to_doc(g), path)


def to_dot(g):
    lines = ["digraph {"]
    for n in g.nodes:
        lines.append('  "%s";' % n)
    for a, b in g.directed:
        lines.append('  "%s" -> "%s";' % (a, b))
    for a, b in g.bidirected:
        lines.append('  "%s" -> "%s" [dir=both, style=dashed];' % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"
