"""Finite discrete structural causal models.

A model is a set of endogenous variable declarations, a set of exogenous
blocks (each block a joint rational distribution over its member noise
variables; distinct blocks are independent), and one total mechanism table
per endogenous variable. All probabilities are fractions.Fraction, so every
downstream computation is exact. Enumeration weighs each joint exogenous
state with an integer over one common denominator, so sums over states add
integers and divide once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import contains

from .errors import (
    CyclicDependencies,
    DomainMismatch,
    NonNormalizedBlock,
    PartialMechanism,
    SizeExceeded,
    UnknownVariable,
)

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV = "ABSTRAKT_BUDGET"
# Entries a per-model cache (solved worlds, their term contents, live
# noise members) holds at most; past it, new ones are not kept.
CACHE_LIMIT = 1_000_000


def enumeration_budget(budget=None):
    """Resolve the enumeration budget: explicit argument, else the
    ABSTRAKT_BUDGET environment variable, else the built-in default."""
    if budget is not None:
        limit = int(budget)
    else:
        raw = os.environ.get(BUDGET_ENV, "").strip()
        if not raw:
            return DEFAULT_BUDGET
        try:
            limit = int(raw)
        except ValueError:
            raise DomainMismatch(
                "ABSTRAKT_BUDGET must be an integer, got %r" % raw)
    if limit < 0:
        raise DomainMismatch(
            "enumeration budget must not be negative, got %d" % limit)
    return limit


def check_budget(required, budget, what, *args, **details):
    """Raise SizeExceeded when an exact computation needs more than the
    enumeration budget allows. ``what % (*args, required)`` names the
    need; ``details`` go into the error ahead of required and budget."""
    limit = enumeration_budget(budget)
    if required > limit:
        raise SizeExceeded(
            "%s, budget is %d" % (what % (*args, required), limit),
            **details, required=required, budget=limit)


def parse_probability(raw):
    """Parse an exact probability from a string like '7/10' or '0.7'.

    Integers are accepted; JSON floats are rejected because binary floats
    do not round-trip exactly.
    """
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, bool):
        raise DomainMismatch("probability must be a rational string, got a bool")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str):
        num, slash, den = raw.partition("/")
        try:
            if num.isdecimal() and (den.isdecimal() or not slash):
                # digits, or digits over digits: the value Fraction(raw)
                # gives, without its pattern match, and never negative
                return Fraction(int(num), int(den) if slash else 1)
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise DomainMismatch("cannot parse probability %r" % raw)
    elif isinstance(raw, float):
        raise DomainMismatch(
            "probability %r is a float; use a string like '0.7' or '7/10' "
            "to keep arithmetic exact" % raw)
    else:
        raise DomainMismatch("cannot parse probability of type %s"
                             % type(raw).__name__)
    if value < 0:
        raise NonNormalizedBlock("probability %s is negative" % value)
    return value


def format_rational(value):
    """Render a Fraction as 'num/den' (or plain integer when whole)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def format_decimal(value, digits=12):
    """Decimal rendering of a Fraction, for display next to the exact form."""
    return format(float(Fraction(value)), ".%dg" % digits)


@dataclass(frozen=True)
class VariableDecl:
    """An endogenous variable and its finite domain."""

    name: str
    domain: tuple


@dataclass(frozen=True)
class ExoMember:
    """A single noise variable inside an exogenous block."""

    name: str
    domain: tuple


@dataclass
class ExogenousBlock:
    """A joint distribution over one or more noise variables.

    The table must cover the full member-domain product and sum to exactly
    one. Mechanisms that reference members of the same block are treated as
    confounded; distinct blocks are mutually independent.
    """

    name: str
    members: tuple
    table: dict  # member-value tuple -> Fraction

    def member_names(self):
        return tuple(m.name for m in self.members)

    def support(self):
        """Rows with positive probability, in member-domain product order."""
        rows = []
        for values in product(*(m.domain for m in self.members)):
            p = self.table[values]
            if p.numerator > 0:
                rows.append((values, p))
        return rows


@dataclass
class Mechanism:
    """A total deterministic table for one endogenous variable.

    ``exo_parents`` are (block, member) pairs. The table is keyed by the
    tuple of endogenous parent values followed by exogenous parent values,
    in declared order.
    """

    variable: str
    endo_parents: tuple
    exo_parents: tuple
    table: dict


@dataclass
class DiscreteScm:
    """A validated model. Treat instances as immutable after validation."""

    endogenous: tuple  # of VariableDecl
    blocks: tuple      # of ExogenousBlock
    mechanisms: dict   # variable name -> Mechanism

    def __post_init__(self):
        self.var_index = {v.name: v for v in self.endogenous}
        self.block_index = {b.name: b for b in self.blocks}
        self.member_index = {}
        for b in self.blocks:
            for m in b.members:
                self.member_index[(b.name, m.name)] = m
        self._topo = None
        self._diagram = None
        self.block_position = {b.name: i for i, b in enumerate(self.blocks)}
        self._rows = None
        self._world_cache = {}  # valuation._numbered: content -> worlds
        self._worlds = 0    # worlds kept in _world_cache, in all
        self._live = {}     # (variable, pinned parents) -> live noise
        self._sigma = {}    # projection.sigma_machinery: key -> split
        self._tables = {}   # valuation.counterfactual_table: contents -> table
        self._table_rows = 0  # rows kept in _tables, in all

    def domain(self, name):
        if name not in self.var_index:
            raise UnknownVariable("unknown endogenous variable %r" % name,
                                  variable=name)
        return self.var_index[name].domain

    def variable_names(self):
        return tuple(v.name for v in self.endogenous)

    def resolve_exo_key(self, key):
        """Normalize an exogenous reference to a (block, member) pair.

        A bare member name is accepted when it is unambiguous across blocks.
        """
        if isinstance(key, tuple) and len(key) == 2 and key in self.member_index:
            return key
        if isinstance(key, str):
            hits = [k for k in self.member_index if k[1] == key]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise UnknownVariable(
                    "exogenous member name %r is ambiguous; "
                    "use a (block, member) pair" % key, member=key)
        raise UnknownVariable("unknown exogenous member %r" % (key,), member=key)

    def diagram(self):
        """The model's causal diagram (see induce_diagram), built once."""
        if self._diagram is None:
            self._diagram = induce_diagram(self)
        return self._diagram

    def topological_order_names(self):
        if self._topo is None:
            self._topo = topological_order(self.diagram())
        return self._topo

    def solve(self, unit, env=None, order=None):
        """Solve the mechanisms for the exogenous assignment ``unit``.

        Every variable of ``order`` (default: all of them, in topological
        order) that ``env`` does not already pin is looked up in its
        mechanism table, reading parent values from ``env`` and noise values
        from ``unit``. Pinned entries act as hard interventions. Returns
        ``env``, filled in place.

        The dict solver of the marginalized tables (``project_full``), the
        construction's high mechanisms (once per value of a row's live
        inputs), ``check_aic``'s child labels (once per member tuple per
        point), ``verify`` and ``evaluate_unit``, and the reference for
        ``valuation``'s compiled worlds, which carry every other exact sum
        over exogenous states."""
        if env is None:
            env = {}
        mechanisms = self.mechanisms
        for v in self.topological_order_names() if order is None else order:
            if v not in env:
                mech = mechanisms[v]
                key = tuple([env[p] for p in mech.endo_parents]
                            + [unit[k] for k in mech.exo_parents])
                env[v] = mech.table[key]
        return env

    def _block_rows(self):
        """Per block: the member-value tuples of its positive rows, in
        member-domain product order; their integer weights, taken over the
        block's lcm of the rows' denominators; that lcm; and the block's
        (block, member) keys."""
        if self._rows is None:
            values, weights, lcms, keys = [], [], [], []
            for b in self.blocks:
                support = b.support()
                ratios = [p.as_integer_ratio() for _row, p in support]
                lcm = math.lcm(*[d for _n, d in ratios])
                values.append([row for row, _p in support])
                weights.append([n * (lcm // d) for n, d in ratios])
                lcms.append(lcm)
                keys.append(tuple((b.name, mn) for mn in b.member_names()))
            self._rows = (values, weights, lcms, keys)
        return self._rows

    def _positions(self, blocks):
        if blocks is None:
            return tuple(range(len(self.blocks)))
        return tuple(sorted(set(blocks)))

    def exogenous_support_size(self, blocks=None):
        """The number of states exogenous_support(blocks) yields."""
        values = self._block_rows()[0]
        return math.prod(len(values[i]) for i in self._positions(blocks))

    def exogenous_denominator(self, blocks=None):
        """The common denominator of the weights exogenous_support(blocks)
        yields: they sum to it, and a state's probability is its weight
        over it."""
        lcms = self._block_rows()[2]
        return math.prod(lcms[i] for i in self._positions(blocks))

    def exogenous_states(self, blocks=None, draws=()):
        """Iterate (index_tuple, weight) over the joint values with positive
        probability of the blocks at positions ``blocks`` (default: every
        block) and of ``draws``, more independent noise, each a list of
        (index, integer weight) pairs, in product order. The index tuple
        holds one row index per chosen block, in ascending position, then
        one index per draw; the weight is an integer, the state's
        probability times exogenous_denominator(blocks) and each draw's
        total. Every pass walks the rows afresh."""
        rows = [self._block_rows()[1][i] for i in self._positions(blocks)]
        indices = [range(len(w)) for w in rows] + [
            [i for i, _w in d] for d in draws]
        weights = rows + [[w for _i, w in d] for d in draws]
        return zip(product(*indices), map(math.prod, product(*weights)))

    def exogenous_assignment(self, blocks, idx):
        """The (block, member) -> value assignment of the state whose row
        indices over the sorted block positions ``blocks`` are ``idx``."""
        values, _weights, _lcms, keys = self._block_rows()
        unit = {}
        for b, ri in zip(blocks, idx):
            unit.update(zip(keys[b], values[b][ri]))
        return unit

    def exogenous_support(self, blocks=None):
        """Iterate (index_tuple, assignment, weight) over the states of
        exogenous_states(blocks), each with its assignment of the chosen
        blocks' (block, member) pairs, built afresh from the state's
        indices."""
        key = self._positions(blocks)
        for idx, weight in self.exogenous_states(key):
            yield idx, self.exogenous_assignment(key, idx), weight


@dataclass
class Diagram:
    """A causal diagram: directed edges from structural parenthood,
    bidirected edges from shared exogenous noise. Its nodes are a model's
    variables or a cluster map's clusters; a projected cluster diagram
    also names the violators whose rewrite rules it carries."""

    nodes: tuple
    directed: tuple    # of (parent, child) pairs
    bidirected: tuple  # of unordered pairs stored in node-declaration order
    projected: bool = False
    violators: tuple = ()

    def __post_init__(self):
        self._pos = {n: i for i, n in enumerate(self.nodes)}

    def position(self, node):
        if node not in self._pos:
            raise UnknownVariable("unknown node %r" % node, node=node)
        return self._pos[node]


def _require(doc, key, where, *args):
    """``doc[key]``, refusing a ``doc`` that is not a JSON object and a
    missing key; ``where % args`` names ``doc``."""
    if isinstance(doc, dict) and key in doc:
        return doc[key]
    if not isinstance(doc, dict):
        raise DomainMismatch((where % args) + " must be a JSON object")
    raise DomainMismatch("missing %r in %s" % (key, where % args))


def _items(doc, key, where, *args, optional=False):
    """The array at ``doc[key]``; a missing ``optional`` key reads as
    empty. ``where % args`` names ``doc``."""
    if isinstance(doc, dict):
        value = doc.get(key, () if optional else None)
        if isinstance(value, (list, tuple)):
            return value
    _require(doc, key, where, *args)
    raise DomainMismatch("%r in %s must be an array" % (key, where % args))


def _array(value, what, *args):
    """``value``, refused unless it is an array; ``what % args`` names it."""
    if not isinstance(value, (list, tuple)):
        raise DomainMismatch((what % args) + " must be an array")
    return value


def _scalar(value, what, *args):
    """``value``, refused if it is a JSON array or object: names, labels
    and domain values key dicts and sets, so they must be hashable;
    ``what % args`` names it."""
    if isinstance(value, (list, dict)):
        raise DomainMismatch((what % args) + " must be a string, number, "
                             "boolean or null, not %r" % (value,))
    return value


def _scalars(values, what, *args):
    """``values`` as a tuple, each checked by _scalar. A tuple that hashes
    holds no array or object, so only one that does not is checked entry
    by entry."""
    values = tuple(values)
    try:
        hash(values)
    except TypeError:
        for v in values:
            _scalar(v, what, *args)
    return values


class _Probabilities(dict):
    """The probabilities of one document, each distinct string parsed
    once. Other values are parsed every time: 1, 1.0 and True are equal
    keys, and only 1 is a probability."""

    def __missing__(self, raw):
        value = self[raw] = parse_probability(raw)
        return value

    def read(self, raw):
        return self[raw] if raw.__class__ is str else parse_probability(raw)


def _block_row(row, bname, members, table):
    """Check a row of block ``bname`` one condition at a time and raise
    the first problem; a row that passes gives its values and its raw
    probability. validate_scm sends here each row its one-test check
    refuses."""
    values = tuple(_items(row, "values", "row of block %r", bname))
    if len(values) != len(members):
        raise DomainMismatch(
            "row %r of block %r has %d values for %d members"
            % (values, bname, len(values), len(members)))
    for val, member in zip(values, members):
        if val not in member.domain:
            raise DomainMismatch(
                "value %r is outside the domain of member %r in block %r"
                % (val, member.name, bname))
    if values in table:
        raise NonNormalizedBlock(
            "block %r lists row %r twice" % (bname, values))
    return values, _require(row, "p", "row of block %r", bname)


def _mechanism_row(row, vname, parent_domains, domain, table):
    """Check a row of the mechanism for ``vname`` one condition at a time
    and raise the first problem; a row that passes gives its key and its
    output. validate_scm sends here each row its one-test check
    refuses."""
    key = tuple(_items(row, "parents", "row of mechanism for %r", vname))
    out = _require(row, "out", "row of mechanism for %r", vname)
    if len(key) != len(parent_domains):
        raise PartialMechanism(
            "mechanism row for %r has %d parent values, expected %d"
            % (vname, len(key), len(parent_domains)), variable=vname)
    for val, dom in zip(key, parent_domains):
        if val not in dom:
            raise DomainMismatch(
                "mechanism row for %r uses parent value %r outside its domain"
                % (vname, val))
    if out not in domain:
        raise DomainMismatch(
            "mechanism for %r outputs %r outside its domain"
            % (vname, out), variable=vname, value=out)
    if key in table:
        raise PartialMechanism(
            "mechanism for %r lists parents %r twice" % (vname, key),
            variable=vname)
    return key, out


def validate_scm(doc):
    """Check a raw model document and build a DiscreteScm.

    Raises CyclicDependencies, NonNormalizedBlock, PartialMechanism, or
    DomainMismatch on the first problem found. A table row is accepted
    when it is an object whose array has one entry per position, each in
    its position's domain (a frozenset lookup), a mechanism's output in
    its variable's domain, and a key not seen before; any other row, one
    with an unhashable entry included, goes to _block_row or
    _mechanism_row for its error. Each distinct probability string is
    parsed once.
    """
    if not isinstance(doc, dict):
        raise DomainMismatch("model document must be a JSON object")

    endogenous = []
    seen = set()
    for entry in _items(doc, "endogenous", "model"):
        name = _scalar(_require(entry, "name", "endogenous entry"),
                       "variable name")
        domain = _scalars(_items(entry, "domain", "endogenous entry %r", name),
                          "domain value of %r", name)
        if not domain:
            raise DomainMismatch("variable %r has an empty domain" % name)
        if len(set(domain)) != len(domain):
            raise DomainMismatch("variable %r repeats a domain value" % name)
        if name in seen:
            raise DomainMismatch("endogenous variable %r declared twice" % name)
        seen.add(name)
        endogenous.append(VariableDecl(name=name, domain=domain))

    probabilities = _Probabilities()
    blocks = []
    block_names = set()
    for entry in _items(doc, "blocks", "model", optional=True):
        bname = _scalar(_require(entry, "name", "block entry"), "block name")
        if bname in block_names:
            raise DomainMismatch("exogenous block %r declared twice" % bname)
        block_names.add(bname)
        members = []
        mseen = set()
        for m in _items(entry, "members", "block %r", bname):
            mname = _scalar(_require(m, "name", "member of block %r", bname),
                            "member name in block %r", bname)
            mdomain = _scalars(_items(m, "domain", "member %r", mname),
                               "domain value of member %r", mname)
            if not mdomain or len(set(mdomain)) != len(mdomain):
                raise DomainMismatch("member %r of block %r has a bad domain"
                                     % (mname, bname))
            if mname in mseen:
                raise DomainMismatch("member %r repeated in block %r"
                                     % (mname, bname))
            mseen.add(mname)
            members.append(ExoMember(name=mname, domain=mdomain))
        sets = [frozenset(m.domain) for m in members]
        table = {}
        for row in _items(entry, "table", "block %r", bname):
            try:
                values = row["values"]
                key = tuple(values)
                raw = row["p"]
                fits = (values.__class__ is list and len(key) == len(sets)
                        and all(map(contains, sets, key))
                        and key not in table)
            except (KeyError, TypeError):
                fits = False
            if not fits:
                key, raw = _block_row(row, bname, members, table)
            table[key] = probabilities.read(raw)
        expected = math.prod(len(m.domain) for m in members)
        if len(table) != expected:
            raise NonNormalizedBlock(
                "block %r covers %d of %d member-value combinations"
                % (bname, len(table), expected), block=bname)
        # the sum in integers over the lcm of the denominators
        ratios = [p.as_integer_ratio() for p in table.values()]
        lcm = math.lcm(*[d for _n, d in ratios])
        if sum([n * (lcm // d) for n, d in ratios]) != lcm:
            total = sum(table.values(), Fraction(0))
            raise NonNormalizedBlock(
                "block %r sums to %s, expected 1" % (bname, total),
                block=bname, total=format_rational(total))
        blocks.append(ExogenousBlock(name=bname, members=tuple(members),
                                     table=table))

    var_domains = {v.name: v.domain for v in endogenous}
    member_domains = {}
    for b in blocks:
        for m in b.members:
            member_domains[(b.name, m.name)] = m.domain

    mechanisms = {}
    for entry in _items(doc, "mechanisms", "model"):
        vname = _scalar(_require(entry, "variable", "mechanism entry"),
                        "mechanism variable")
        if vname not in var_domains:
            raise DomainMismatch("mechanism for undeclared variable %r" % vname)
        if vname in mechanisms:
            raise DomainMismatch("variable %r has two mechanisms" % vname)
        endo_parents = _scalars(_items(entry, "endo_parents",
                                       "mechanism for %r", vname,
                                       optional=True),
                                "parent of %r", vname)
        for p in endo_parents:
            if p not in var_domains:
                raise DomainMismatch(
                    "mechanism for %r names unknown parent %r" % (vname, p))
        if len(set(endo_parents)) != len(endo_parents):
            raise DomainMismatch("mechanism for %r repeats a parent" % vname)
        exo_parents = []
        for ref in _items(entry, "exo_parents", "mechanism for %r", vname,
                          optional=True):
            key = _scalars((_require(ref, "block", "exo parent of %r", vname),
                            _require(ref, "member", "exo parent of %r",
                                     vname)),
                           "exo parent of %r", vname)
            if key not in member_domains:
                raise DomainMismatch(
                    "mechanism for %r names unknown exogenous member %r of block %r"
                    % (vname, key[1], key[0]))
            if key in exo_parents:
                raise DomainMismatch(
                    "mechanism for %r repeats exogenous member %r" % (vname, key))
            exo_parents.append(key)
        exo_parents = tuple(exo_parents)

        parent_domains = [var_domains[p] for p in endo_parents]
        parent_domains += [member_domains[k] for k in exo_parents]
        domain = var_domains[vname]
        sets = [frozenset(dom) for dom in parent_domains]
        outs = frozenset(domain)
        table = {}
        for row in _items(entry, "table", "mechanism for %r", vname):
            try:
                parents = row["parents"]
                key = tuple(parents)
                out = row["out"]
                fits = (parents.__class__ is list and len(key) == len(sets)
                        and all(map(contains, sets, key)) and out in outs
                        and key not in table)
            except (KeyError, TypeError):
                fits = False
            if not fits:
                key, out = _mechanism_row(row, vname, parent_domains, domain,
                                          table)
            table[key] = out
        expected = math.prod(map(len, parent_domains))
        if len(table) != expected:
            raise PartialMechanism(
                "mechanism for %r covers %d of %d parent combinations"
                % (vname, len(table), expected), variable=vname)
        mechanisms[vname] = Mechanism(variable=vname, endo_parents=endo_parents,
                                      exo_parents=exo_parents, table=table)

    missing = [v.name for v in endogenous if v.name not in mechanisms]
    if missing:
        raise PartialMechanism("no mechanism for %s" % ", ".join(missing),
                               variables=missing)

    scm = DiscreteScm(endogenous=tuple(endogenous), blocks=tuple(blocks),
                      mechanisms=mechanisms)
    # Fails with CyclicDependencies when the parent relation has a cycle.
    scm.topological_order_names()
    return scm


def induce_diagram(scm):
    """Derive the causal diagram: parent edges plus bidirected edges between
    variables whose mechanisms read members of a common exogenous block."""
    nodes = scm.variable_names()
    order = {n: i for i, n in enumerate(nodes)}
    directed = []
    for v in nodes:
        for p in scm.mechanisms[v].endo_parents:
            directed.append((p, v))
    by_block = {}
    for v in nodes:
        for (bname, _m) in scm.mechanisms[v].exo_parents:
            by_block.setdefault(bname, set()).add(v)
    biset = set()
    for users in by_block.values():
        users = sorted(users, key=order.get)
        for i in range(len(users)):
            for j in range(i + 1, len(users)):
                biset.add((users[i], users[j]))
    bidirected = sorted(biset, key=lambda e: (order[e[0]], order[e[1]]))
    return Diagram(nodes=nodes, directed=tuple(directed),
                   bidirected=tuple(bidirected))


def topological_order(diagram):
    """Kahn's algorithm with declaration-order tie-breaking, so the result
    is deterministic. Raises CyclicDependencies if a cycle remains."""
    nodes = list(diagram.nodes)
    indeg = {n: 0 for n in nodes}
    children = {n: [] for n in nodes}
    for a, b in diagram.directed:
        indeg[b] += 1
        children[a].append(b)
    pos = {name: i for i, name in enumerate(nodes)}
    order = []
    ready = [n for n in nodes if indeg[n] == 0]
    while ready:
        n = ready.pop(0)
        order.append(n)
        fresh = []
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                fresh.append(c)
        if fresh:
            ready = sorted(ready + fresh, key=pos.get)
    if len(order) != len(nodes):
        stuck = [n for n in nodes if n not in order]
        raise CyclicDependencies(
            "dependency cycle among %s" % ", ".join(map(str, stuck)),
            variables=stuck)
    return order


def scm_to_doc(scm):
    """Serialize a model back to the JSON document layout. Block rows and
    mechanism rows come in the product order of their members' or parents'
    domains, so a model saves the same document whatever order its tables
    were filled in."""
    doc = {"endogenous": [], "blocks": [], "mechanisms": []}
    for v in scm.endogenous:
        doc["endogenous"].append({"name": v.name, "domain": list(v.domain)})
    for b in scm.blocks:
        rows = []
        for values in product(*(m.domain for m in b.members)):
            rows.append({"values": list(values),
                         "p": format_rational(b.table[values])})
        doc["blocks"].append({
            "name": b.name,
            "members": [{"name": m.name, "domain": list(m.domain)}
                        for m in b.members],
            "table": rows,
        })
    for v in scm.endogenous:
        mech = scm.mechanisms[v.name]
        keys = product(*(scm.domain(p) for p in mech.endo_parents),
                       *(scm.member_index[m].domain for m in mech.exo_parents))
        rows = [{"parents": list(k), "out": mech.table[k]} for k in keys]
        doc["mechanisms"].append({
            "variable": mech.variable,
            "endo_parents": list(mech.endo_parents),
            "exo_parents": [{"block": b, "member": m} for b, m in mech.exo_parents],
            "table": rows,
        })
    return doc


def load_scm(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_scm(json.load(fh))


def write_json(doc, path):
    """Write ``doc`` to ``path`` as one line of compact JSON, with no
    space after a separator, and a final newline. Without ``indent``,
    json.dumps runs the C encoder, several times faster than the Python
    one ``indent`` selects on documents of many rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def save_scm(scm, path):
    write_json(scm_to_doc(scm), path)
