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
from dataclasses import dataclass, field

from .errors import (
    DomainMismatch,
    FixpointMismatch,
    UnknownVariable,
)
from .scm import topological_order
from .valuation import (
    CounterfactualQuery,
    HardIntervention,
    OutcomeAtom,
    QueryTerm,
    prob_query,
)
from itertools import combinations, product


@dataclass
class ClusterDiagram:
    nodes: tuple
    directed: tuple
    bidirected: tuple
    projected: bool = False
    violators: tuple = ()

    def __post_init__(self):
        self._pos = {n: i for i, n in enumerate(self.nodes)}

    def position(self, node):
        if node not in self._pos:
            raise UnknownVariable("unknown node %r" % node, node=node)
        return self._pos[node]


def make_graph(nodes, directed, bidirected, projected=False, violators=()):
    nodes = tuple(nodes)
    seen = set()
    for n in nodes:
        if n in seen:
            raise DomainMismatch("node %r declared twice" % n)
        seen.add(n)
    pos = {n: i for i, n in enumerate(nodes)}
    d = set()
    for a, b in directed:
        if a not in pos or b not in pos:
            raise UnknownVariable(
                "edge (%r, %r) references an unknown node" % (a, b))
        if a == b:
            raise DomainMismatch("self loop on %r" % a)
        d.add((a, b))
    bi = set()
    for a, b in bidirected:
        if a not in pos or b not in pos:
            raise UnknownVariable(
                "edge (%r, %r) references an unknown node" % (a, b))
        if a == b:
            raise DomainMismatch("self loop on %r" % a)
        bi.add((a, b) if pos[a] < pos[b] else (b, a))
    for v in violators:
        if v not in pos:
            raise UnknownVariable("violator %r is not a node" % v, node=v)
    return ClusterDiagram(
        nodes=nodes,
        directed=tuple(sorted(d, key=lambda e: (pos[e[0]], pos[e[1]]))),
        bidirected=tuple(sorted(bi, key=lambda e: (pos[e[0]], pos[e[1]]))),
        projected=projected,
        violators=tuple(sorted(set(violators), key=pos.get)))


def from_diagram(diagram):
    """Lift a model's induced diagram into a cluster diagram."""
    return make_graph(diagram.nodes, diagram.directed, diagram.bidirected)


# ---------------------------------------------------------------------------
# construction from a low-level diagram and a cluster map


def _downstream_kept(diagram, kept, children):
    """For every node, the kept nodes its influence reaches through dropped
    intermediates only (a kept node reaches just itself)."""
    down = {}
    for n in diagram.nodes:
        if n in kept:
            down[n] = {n}
            continue
        reached = set()
        stack = [n]
        visited = {n}
        while stack:
            cur = stack.pop()
            for c in children.get(cur, ()):
                if c in kept:
                    reached.add(c)
                elif c not in visited:
                    visited.add(c)
                    stack.append(c)
        down[n] = reached
    return down


def build_cdag(diagram, cm):
    """Cluster-level diagram of a low-level diagram: directed edges between
    clusters holding a member-level edge, bidirected edges from shared
    noise. Variables outside every cluster are projected away first (their
    causes pass through, and they act as hidden common causes)."""
    kept = set()
    owner = {}
    for c in cm.clusters:
        for m in c.members:
            if m not in diagram.nodes:
                raise UnknownVariable(
                    "cluster %r names %r, which is not in the diagram"
                    % (c.name, m), variable=m)
            kept.add(m)
            owner[m] = c.name
    children = {n: [] for n in diagram.nodes}
    for a, b in diagram.directed:
        children[a].append(b)
    down = _downstream_kept(diagram, kept, children)

    directed = set()
    for u in kept:
        targets = set()
        for c in children[u]:
            if c in kept:
                targets.add(c)
            else:
                targets |= down[c]
        for v in targets:
            if owner[v] != owner[u]:
                directed.add((owner[u], owner[v]))
    bidirected = set()

    def mark(us, vs):
        for u in us:
            for v in vs:
                if u != v and owner[u] != owner[v]:
                    bidirected.add((owner[u], owner[v]))

    for a, b in diagram.bidirected:
        mark(down[a], down[b])
    for n in diagram.nodes:
        if n in kept:
            continue
        mark(down[n], down[n])

    names = tuple(c.name for c in cm.clusters)
    return make_graph(names, directed, bidirected)


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
    """Close a cluster diagram under the violator rewrite rules.

    The closure is computed twice, by one topological pass and by iteration
    to a fixed point; a disagreement raises FixpointMismatch. Directed edges
    z -> y appear for every parent z and child y of a violator, partners and
    the violator itself become confounded with its children, and children
    become confounded with each other."""
    pos = dict(cdag._pos)
    for v in violators:
        if v not in pos:
            raise UnknownVariable("violator %r is not a node" % v, node=v)
    vset = [v for v in cdag.nodes if v in set(violators)]

    one_d = set(cdag.directed)
    one_b = set(cdag.bidirected)
    for x in topological_order(cdag):
        if x not in set(vset):
            continue
        add_d, add_b = _apply_rules(pos, one_d, one_b, x)
        one_d |= add_d
        one_b |= add_b

    fix_d = set(cdag.directed)
    fix_b = set(cdag.bidirected)
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > 2 * len(cdag.nodes) ** 2 + 4:
            raise FixpointMismatch("rewrite failed to stabilize")
        for x in vset:
            add_d, add_b = _apply_rules(pos, fix_d, fix_b, x)
            if add_d or add_b:
                fix_d |= add_d
                fix_b |= add_b
                changed = True

    if one_d != fix_d or one_b != fix_b:
        raise FixpointMismatch(
            "single topological pass and fixed point disagree",
            one_pass_directed=sorted(one_d - fix_d | fix_d - one_d),
            one_pass_bidirected=sorted(one_b - fix_b | fix_b - one_b))
    return make_graph(cdag.nodes, fix_d, fix_b, projected=True,
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
    the conditioning set, where colliders are opened by conditioned
    descendants and every arrowhead-to-arrowhead meeting counts as a
    collider."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    for n in xs | ys | zs:
        g.position(n)
    if xs & ys or xs & zs or ys & zs:
        raise DomainMismatch("separation sets must be disjoint")
    an_z = ancestors(g, zs) if zs else set()

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
            if head and head_here:
                ok = n in an_z
            else:
                ok = n not in zs
            if not ok:
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
    parents = {n: [] for n in g.nodes}
    for a, b in g.directed:
        parents[b].append(a)
    for n in parents:
        parents[n].sort(key=g.position)
    return parents


def _term(scm, var, value, ivs):
    return QueryTerm(
        outcomes=(OutcomeAtom(variables=(var,), accepted=frozenset({(value,)}),
                              label="%s=%s" % (var, value)),),
        hard=tuple(HardIntervention(v, val) for v, val in ivs),
        soft=())


def _term_repr(var, value, ivs):
    if ivs:
        inner = ";".join("%s=%s" % (v, val) for v, val in ivs)
        return "%s[%s]=%s" % (var, inner, value)
    return "%s=%s" % (var, value)


def ctfbn_check(g, scm, max_terms=2, budget=None):
    """Check the constraints a cluster diagram imposes on a model's
    counterfactual distributions, with conjunctions up to ``max_terms``
    worlds: factorization of parent-pinned terms by confounded components,
    exclusion of non-parents, and consistency of nested interventions."""
    if set(g.nodes) != set(scm.variable_names()):
        raise DomainMismatch(
            "graph nodes %s do not match the model's variables %s"
            % (sorted(g.nodes), sorted(scm.variable_names())))
    parents = _pa(g)
    names = [n for n in scm.variable_names()]
    checked = 0
    violations = []
    truncated = False

    def record(kind, description, lhs, rhs):
        nonlocal truncated
        if len(violations) < 25:
            violations.append(CtfbnViolation(
                kind=kind, description=description, lhs=lhs, rhs=rhs))
        else:
            truncated = True

    def value_combos(ws):
        """All value assignments for the terms of the family ``ws``: each
        term picks a value for its variable and for each of its parents."""
        slots = []
        for w in ws:
            slots.append([(w, None, v) for v in scm.domain(w)])
            for p in parents[w]:
                slots.append([(w, p, v) for v in scm.domain(p)])
        for combo in product(*slots):
            assign = {}
            for w, p, v in combo:
                assign.setdefault(w, {})[p] = v
            yield assign

    def family_term(w, assign):
        value = assign[w][None]
        ivs = tuple((p, assign[w][p]) for p in parents[w])
        return _term(scm, w, value, ivs), _term_repr(w, value, ivs)

    # (i) factorization over confounded components
    for size in range(2, max_terms + 1):
        for ws in combinations(names, size):
            comps = c_components(g, subset=ws)
            if len(comps) < 2:
                continue
            for assign in value_combos(ws):
                terms = {}
                reprs = {}
                for w in ws:
                    terms[w], reprs[w] = family_term(w, assign)
                lhs = prob_query(scm, CounterfactualQuery(
                    terms=tuple(terms[w] for w in ws)), budget)
                rhs = 1
                for comp in comps:
                    rhs *= prob_query(scm, CounterfactualQuery(
                        terms=tuple(terms[w] for w in comp)), budget)
                checked += 1
                if lhs != rhs:
                    record("factorization",
                           "P(%s) != %s" % (
                               ", ".join(reprs[w] for w in ws),
                               " * ".join(
                                   "P(%s)" % ", ".join(reprs[w] for w in comp)
                                   for comp in comps)),
                           lhs, rhs)

    # (ii) exclusion of non-parents
    for y in names:
        pa_y = parents[y]
        rest = [v for v in names if v != y and v not in pa_y]
        for mask in range(1, 1 << len(rest)):
            zs = [rest[i] for i in range(len(rest)) if mask >> i & 1]
            domains = [scm.domain(p) for p in pa_y]
            domains += [scm.domain(z) for z in zs]
            for yval in scm.domain(y):
                for combo in product(*domains):
                    pa_vals = list(zip(pa_y, combo[:len(pa_y)]))
                    z_vals = list(zip(zs, combo[len(pa_y):]))
                    big, big_repr = _term(scm, y, yval, pa_vals + z_vals), \
                        _term_repr(y, yval, pa_vals + z_vals)
                    small, small_repr = _term(scm, y, yval, pa_vals), \
                        _term_repr(y, yval, pa_vals)
                    lhs = prob_query(scm, CounterfactualQuery(terms=(big,)),
                                     budget)
                    rhs = prob_query(scm, CounterfactualQuery(terms=(small,)),
                                     budget)
                    checked += 1
                    if lhs != rhs:
                        record("exclusion",
                               "P(%s) != P(%s)" % (big_repr, small_repr),
                               lhs, rhs)

    # (iii) consistency of nested interventions
    for y in names:
        pa_y = parents[y]
        for mask in range(1, 1 << len(pa_y)):
            xs = [pa_y[i] for i in range(len(pa_y)) if mask >> i & 1]
            rest = [v for v in names if v != y and v not in xs]
            for zmask in range(1 << len(rest)):
                zs = [rest[i] for i in range(len(rest)) if zmask >> i & 1]
                domains = [scm.domain(x) for x in xs]
                domains += [scm.domain(z) for z in zs]
                for yval in scm.domain(y):
                    for combo in product(*domains):
                        x_vals = list(zip(xs, combo[:len(xs)]))
                        z_vals = list(zip(zs, combo[len(xs):]))
                        obs = QueryTerm(
                            outcomes=(
                                OutcomeAtom(variables=(y,),
                                            accepted=frozenset({(yval,)}),
                                            label=y),
                                *(OutcomeAtom(variables=(x,),
                                              accepted=frozenset({(xv,)}),
                                              label=x)
                                  for x, xv in x_vals)),
                            hard=tuple(HardIntervention(z, zv)
                                       for z, zv in z_vals),
                            soft=())
                        lhs = prob_query(
                            scm, CounterfactualQuery(terms=(obs,)), budget)
                        nested = _term(scm, y, yval,
                                       list(z_vals) + list(x_vals))
                        seen_term = QueryTerm(
                            outcomes=tuple(
                                OutcomeAtom(variables=(x,),
                                            accepted=frozenset({(xv,)}),
                                            label=x)
                                for x, xv in x_vals),
                            hard=tuple(HardIntervention(z, zv)
                                       for z, zv in z_vals),
                            soft=())
                        rhs = prob_query(scm, CounterfactualQuery(
                            terms=(nested, seen_term)), budget)
                        checked += 1
                        if lhs != rhs:
                            lhs_repr = "P(%s, %s)" % (
                                _term_repr(y, yval, z_vals),
                                ", ".join(_term_repr(x, xv, z_vals)
                                          for x, xv in x_vals))
                            rhs_repr = "P(%s, %s)" % (
                                _term_repr(y, yval, z_vals + x_vals),
                                ", ".join(_term_repr(x, xv, z_vals)
                                          for x, xv in x_vals))
                            record("consistency",
                                   "%s != %s" % (lhs_repr, rhs_repr),
                                   lhs, rhs)
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
    return make_graph(doc["nodes"], doc.get("directed", ()),
                      doc.get("bidirected", ()),
                      projected=doc.get("projected", False),
                      violators=doc.get("violators", ()))


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_doc(json.load(fh))


def save_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_doc(g), fh, indent=2)
        fh.write("\n")


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
