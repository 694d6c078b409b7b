"""Identification of interventional queries from observational data.

Runs the component-based identification recursion over a mixed graph and
returns either a closed-form estimand over the observational joint or a
witness for non-identifiability. Estimands are trees of lookups, sums,
products, and ratios that can be rendered as text, serialized to JSON, and
evaluated exactly against a distribution table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DomainMismatch,
    UnboundVariable,
    UnknownVariable,
    UnsupportedData,
    ZeroConditioning,
)
from .graphs import ancestors, c_components, d_separated, make_graph
from .scm import topological_order
from .valuation import SoftIntervention


# ---------------------------------------------------------------------------
# estimand trees


@dataclass(frozen=True)
class Sym:
    """A value bound by an enclosing sum."""

    name: str


@dataclass(frozen=True)
class Canon:
    """A value the estimand does not depend on; any point of the variable's
    domain works, and evaluation picks the first."""

    variable: str


@dataclass(frozen=True)
class Lookup:
    outcome: tuple  # ((variable, value expression), ...)
    given: tuple = ()


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    variable: str
    symbol: str
    body: object


@dataclass(frozen=True)
class Ratio:
    numerator: object
    denominator: object


def _render_value(v):
    if isinstance(v, Sym):
        return v.name
    if isinstance(v, Canon):
        return "*"
    return str(v)


def render_estimand(e):
    if isinstance(e, Lookup):
        out = ",".join("%s=%s" % (v, _render_value(x)) for v, x in e.outcome)
        if e.given:
            out += "|" + ",".join("%s=%s" % (v, _render_value(x))
                                  for v, x in e.given)
        return "P(%s)" % out
    if isinstance(e, Product):
        return " * ".join(
            render_estimand(f) if not isinstance(f, Ratio)
            else "(%s)" % render_estimand(f)
            for f in e.factors)
    if isinstance(e, Sum):
        return "sum_%s[ %s ]" % (e.symbol, render_estimand(e.body))
    if isinstance(e, Ratio):
        num = render_estimand(e.numerator)
        den = render_estimand(e.denominator)
        if isinstance(e.numerator, (Product, Sum, Ratio)):
            num = "(%s)" % num
        if isinstance(e.denominator, (Product, Sum, Ratio)):
            den = "(%s)" % den
        return "%s / %s" % (num, den)
    raise DomainMismatch("not an estimand node: %r" % (e,))


def _value_to_doc(v):
    if isinstance(v, Sym):
        return {"sym": v.name}
    if isinstance(v, Canon):
        return {"canonical": v.variable}
    return v


def estimand_to_doc(e):
    if isinstance(e, Lookup):
        return {"kind": "lookup",
                "outcome": [[v, _value_to_doc(x)] for v, x in e.outcome],
                "given": [[v, _value_to_doc(x)] for v, x in e.given]}
    if isinstance(e, Product):
        return {"kind": "product",
                "factors": [estimand_to_doc(f) for f in e.factors]}
    if isinstance(e, Sum):
        return {"kind": "sum", "variable": e.variable, "symbol": e.symbol,
                "body": estimand_to_doc(e.body)}
    if isinstance(e, Ratio):
        return {"kind": "ratio", "numerator": estimand_to_doc(e.numerator),
                "denominator": estimand_to_doc(e.denominator)}
    raise DomainMismatch("not an estimand node: %r" % (e,))


def _uses_symbol(e, name):
    if isinstance(e, Lookup):
        return any(isinstance(x, Sym) and x.name == name
                   for _v, x in e.outcome + e.given)
    if isinstance(e, Product):
        return any(_uses_symbol(f, name) for f in e.factors)
    if isinstance(e, Sum):
        return _uses_symbol(e.body, name)
    if isinstance(e, Ratio):
        return _uses_symbol(e.numerator, name) or _uses_symbol(e.denominator,
                                                               name)
    return False


def simplify_estimand(e):
    """Flatten products and drop normalization sums: a factor
    sum_z[ P(Z=z|...) * rest ] where only that lookup mentions z collapses
    to rest, and a product factor that is itself such a bare sum drops."""
    if isinstance(e, Product):
        factors = []
        for f in e.factors:
            f = simplify_estimand(f)
            if isinstance(f, Product):
                factors.extend(f.factors)
            else:
                factors.append(f)
        factors = [f for f in factors if not _is_normalization(f)]
        if not factors:
            return Lookup(outcome=())
        if len(factors) == 1:
            return factors[0]
        return Product(factors=tuple(factors))
    if isinstance(e, Sum):
        body = simplify_estimand(e.body)
        if isinstance(body, Product):
            using = [f for f in body.factors if _uses_symbol(f, e.symbol)]
            if len(using) == 1 and _absorbs(using[0], e.variable, e.symbol):
                rest = [f for f in body.factors if f is not using[0]]
                if not rest:
                    return Lookup(outcome=())
                if len(rest) == 1:
                    return rest[0]
                return Product(factors=tuple(rest))
        return Sum(variable=e.variable, symbol=e.symbol, body=body)
    if isinstance(e, Ratio):
        return Ratio(numerator=simplify_estimand(e.numerator),
                     denominator=simplify_estimand(e.denominator))
    return e


def _absorbs(f, variable, symbol):
    return (isinstance(f, Lookup)
            and len(f.outcome) == 1
            and f.outcome[0][0] == variable
            and isinstance(f.outcome[0][1], Sym)
            and f.outcome[0][1].name == symbol
            and not any(isinstance(x, Sym) and x.name == symbol
                        for _v, x in f.given))


def _is_normalization(f):
    if not isinstance(f, Sum):
        return False
    return _absorbs(f.body, f.variable, f.symbol)


# ---------------------------------------------------------------------------
# evaluation against a distribution table


def evaluate_estimand(e, table, env=None):
    """Exact value of an estimand against a joint distribution table."""
    env = env or {}
    pos = {v: i for i, v in enumerate(table.variables)}

    def resolve(x):
        if isinstance(x, Sym):
            if x.name not in env:
                raise UnboundVariable("symbol %r is not bound" % x.name,
                                      symbol=x.name)
            return env[x.name]
        if isinstance(x, Canon):
            if x.variable not in pos:
                raise UnknownVariable(
                    "variable %r is not in the data" % x.variable,
                    variable=x.variable)
            return table.domains[pos[x.variable]][0]
        return x

    def ev(node):
        if isinstance(node, Lookup):
            constraints = {}
            for v, x in node.outcome + node.given:
                if v not in pos:
                    raise UnknownVariable(
                        "variable %r is not in the data" % v, variable=v)
                constraints[v] = resolve(x)
            given = {v for v, _x in node.given}
            num = Fraction(0)
            den = Fraction(0)
            for values, p in table.probs.items():
                row = dict(zip(table.variables, values))
                if all(row[v] == val for v, val in constraints.items()
                       if v in given):
                    den += p
                    if all(row[v] == val for v, val in constraints.items()):
                        num += p
            if not node.given:
                return num
            if den == 0:
                raise ZeroConditioning(
                    "conditioning event %s has probability zero"
                    % ", ".join("%s=%s" % (v, resolve(x))
                                for v, x in node.given))
            return num / den
        if isinstance(node, Product):
            out = Fraction(1)
            for f in node.factors:
                out *= ev(f)
            return out
        if isinstance(node, Sum):
            if node.variable not in pos:
                raise UnboundVariable(
                    "sum over %r, which is not in the data" % node.variable,
                    variable=node.variable)
            total = Fraction(0)
            for val in table.domains[pos[node.variable]]:
                env[node.symbol] = val
                total += ev(node.body)
            del env[node.symbol]
            return total
        if isinstance(node, Ratio):
            den = ev(node.denominator)
            if den == 0:
                raise ZeroConditioning("estimand denominator is zero")
            return ev(node.numerator) / den
        raise DomainMismatch("not an estimand node: %r" % (node,))

    return ev(e)


# ---------------------------------------------------------------------------
# the identification recursion


@dataclass
class IdQuery:
    outcome: dict
    do: dict
    given: dict = field(default_factory=dict)


@dataclass
class IdDecision:
    identifiable: bool
    estimand: object = None
    witness: dict = None


class _Hedge(Exception):
    def __init__(self, component, containing):
        super().__init__("hedge")
        self.component = component
        self.containing = containing


class _SymDist:
    """A distribution the recursion can look up symbolically: either the
    observational joint itself or a product of its conditionals."""

    def __init__(self, variables, order, fn=None, sum_out=()):
        self.variables = tuple(variables)
        self.order = order      # global topological position
        self.fn = fn            # None marks the observational joint
        self.sum_out = tuple(sum_out)  # restricted-away inputs of fn

    def restrict(self, keep):
        keep = set(keep)
        keepers = tuple(v for v in self.variables if v in keep)
        if self.fn is None:
            return _SymDist(keepers, self.order)
        dropped = tuple(v for v in self.variables if v not in keep)
        return _SymDist(keepers, self.order, self.fn,
                        self.sum_out + dropped)

    def joint(self, assign, fresh):
        missing = [v for v in self.variables if v not in assign]
        if self.fn is None:
            items = tuple(sorted(((v, assign[v]) for v in assign
                                  if v in self.variables),
                                 key=lambda kv: self.order[kv[0]]))
            return Lookup(outcome=items)
        missing += list(self.sum_out)
        syms = {v: Sym(fresh(v)) for v in missing}
        full = dict(assign)
        full.update(syms)
        body = self.fn(full)
        for v in sorted(missing, key=self.order.get, reverse=True):
            body = Sum(variable=v, symbol=syms[v].name, body=body)
        return body

    def conditional(self, target, target_value, given, fresh):
        if self.fn is None:
            items = tuple(sorted(given.items(),
                                 key=lambda kv: self.order[kv[0]]))
            return Lookup(outcome=((target, target_value),), given=items)
        num = dict(given)
        num[target] = target_value
        den = dict(given)
        return Ratio(numerator=self.joint(num, fresh),
                     denominator=self.joint(den, fresh))


def _subgraph(g, keep):
    keep = set(keep)
    return make_graph(tuple(n for n in g.nodes if n in keep),
                      tuple(e for e in g.directed
                            if e[0] in keep and e[1] in keep),
                      tuple(e for e in g.bidirected
                            if e[0] in keep and e[1] in keep))


def _cut_incoming(g, xs):
    xs = set(xs)
    return make_graph(g.nodes,
                      tuple(e for e in g.directed if e[1] not in xs),
                      g.bidirected)


def identify_effect(g, query):
    """Identify P(outcome | do(do), given) from the observational joint of
    the graph's variables. The conditional case first moves into ``do``
    each given variable Z that rule 2 of the do-calculus allows (IDC,
    Shpitser & Pearl 2006): the outcome is independent of Z given ``do``
    and the rest of ``given`` once the edges into ``do`` and out of Z are
    cut. It then divides the identified joint of outcome and the remaining
    given by the identified joint of that given."""
    for v in list(query.outcome) + list(query.do) + list(query.given):
        g.position(v)
    if set(query.outcome) & set(query.do) or set(query.outcome) & set(query.given) \
            or set(query.do) & set(query.given):
        raise DomainMismatch("query sets must be disjoint")

    order = {n: i for i, n in enumerate(topological_order(g))}
    do, given = dict(query.do), dict(query.given)

    def movable():
        """The first given variable, in topological order, that rule 2
        moves into ``do``, or None."""
        for z in sorted(given, key=order.get):
            cut = make_graph(g.nodes, tuple(
                e for e in g.directed if e[0] != z and e[1] not in do),
                g.bidirected)
            if d_separated(cut, query.outcome, {z},
                           set(do) | set(given) - {z}):
                return z
        return None

    while (z := movable()) is not None:
        do[z] = given.pop(z)
    counter = {}

    def fresh(var):
        base = str(var).lower()
        n = counter.get(base, 0)
        counter[base] = n + 1
        return base if n == 0 else "%s%d" % (base, n + 1)

    def run(targets):
        values = {}
        for v in g.nodes:
            if v in targets:
                values[v] = targets[v]
            elif v in do:
                values[v] = do[v]
            else:
                values[v] = Sym(fresh(v))

        def ID(y, x, P, G):
            V = set(G.nodes)
            if not x:
                return P.joint({v: values[v] for v in y}, fresh)
            anc = ancestors(G, y)
            if V != anc:
                return ID(y, {k: v for k, v in x.items() if k in anc},
                          P.restrict(anc), _subgraph(G, anc))
            gbar = _cut_incoming(G, x)
            w = (V - set(x) - set(y)) - ancestors(gbar, y)
            if w:
                x2 = dict(x)
                for n in sorted(w, key=order.get):
                    x2[n] = Canon(n)
                    values[n] = Canon(n)
                return ID(y, x2, P, G)
            comps = c_components(G, subset=V - set(x))
            if len(comps) > 1:
                others = sorted(V - set(y) - set(x), key=order.get)
                factors = []
                for comp in comps:
                    sub_x = {v: values[v] for v in V - set(comp)}
                    factors.append(ID(set(comp), sub_x, P, G))
                body = Product(factors=tuple(factors)) if len(factors) > 1 \
                    else factors[0]
                for v in reversed(others):
                    sym = values[v]
                    if isinstance(sym, Sym):
                        body = Sum(variable=v, symbol=sym.name, body=body)
                return body
            s = comps[0]
            full = c_components(G)
            if len(full) == 1:
                raise _Hedge(component=tuple(sorted(s, key=order.get)),
                             containing=tuple(sorted(V, key=order.get)))
            sset = set(s)
            for comp in full:
                if sset <= set(comp):
                    home = comp
                    break
            pi = sorted(V, key=order.get)
            if sset == set(home):
                factors = []
                for i, vi in enumerate(pi):
                    if vi not in sset:
                        continue
                    given = {p: values[p] for p in pi[:i]}
                    factors.append(P.conditional(vi, values[vi], given, fresh))
                body = Product(factors=tuple(factors)) if len(factors) > 1 \
                    else factors[0]
                for v in sorted(sset - set(y), key=order.get, reverse=True):
                    sym = values[v]
                    if isinstance(sym, Sym):
                        body = Sum(variable=v, symbol=sym.name, body=body)
                return body
            home_set = set(home)

            def product_fn(assign):
                factors = []
                for i, vi in enumerate(pi):
                    if vi not in home_set:
                        continue
                    given = {}
                    for p in pi[:i]:
                        given[p] = assign[p] if p in home_set else values[p]
                    factors.append(P.conditional(vi, assign[vi], given, fresh))
                if len(factors) == 1:
                    return factors[0]
                return Product(factors=tuple(factors))

            P2 = _SymDist(tuple(v for v in pi if v in home_set), order,
                          fn=product_fn)
            return ID(set(y), {k: v for k, v in x.items() if k in home_set},
                      P2, _subgraph(G, home))

        P0 = _SymDist(tuple(sorted(g.nodes, key=order.get)), order)
        return ID(set(targets), dict(do), P0, g)

    try:
        if given:
            num = run({**query.outcome, **given})
            den = run(given)
            estimand = Ratio(numerator=num, denominator=den)
        else:
            estimand = run(dict(query.outcome))
    except _Hedge as h:
        return IdDecision(identifiable=False, witness={
            "component": list(h.component),
            "containing": list(h.containing),
        })
    return IdDecision(identifiable=True,
                      estimand=simplify_estimand(estimand))


# ---------------------------------------------------------------------------
# cluster-level entry point


def abstract_identify(g, query, data="observational"):
    """Identify a cluster-level query against a projected cluster diagram.

    Accepts a single-world counterfactual query over cluster names: one term
    carrying hard or reference-distribution interventions, plus optional
    conditioning outcomes sharing the same interventions. Anything needing
    cross-world structure is out of reach of observational data and raises
    UnsupportedData."""
    if data != "observational":
        raise UnsupportedData("only observational data is supported",
                              data=data)
    return identify_effect(g, single_world_query(query))


def single_world_query(query):
    """The IdQuery of a single-world counterfactual query: one term whose
    hard and reference-distribution interventions both become ``do``
    entries, plus conditioning terms under the same interventions. Raises
    UnsupportedData for anything else."""
    if len(query.terms) != 1:
        raise UnsupportedData(
            "observational data identifies single-world queries only; "
            "this one has %d terms" % len(query.terms))

    def interventions(term):
        do = {h.variable: h.value for h in term.hard}
        for a in term.soft:
            if isinstance(a, SoftIntervention):
                raise UnsupportedData(
                    "resolved stochastic interventions cannot be identified "
                    "symbolically; pass the cluster-level query instead")
            do[a.cluster] = a.label
        return do

    def atoms_to_values(atoms):
        out = {}
        for oc in atoms:
            if len(oc.variables) != 1 or len(oc.accepted) != 1:
                raise DomainMismatch(
                    "identification needs single-variable, single-valued "
                    "outcomes")
            (value,) = next(iter(oc.accepted))
            out[oc.variables[0]] = value
        return out

    term = query.terms[0]
    do = interventions(term)
    outcome = atoms_to_values(term.outcomes)
    given = {}
    for cterm in query.conditioning or ():
        if interventions(cterm) != do:
            raise UnsupportedData(
                "conditioning must share the term's interventions; "
                "cross-world conditioning needs counterfactual data")
        given.update(atoms_to_values(cterm.outcomes))
    return IdQuery(outcome=outcome, do=do, given=given)
