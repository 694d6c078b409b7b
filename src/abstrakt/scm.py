"""Finite discrete structural causal models.

A model is a set of endogenous variable declarations, a set of exogenous
blocks (each block a joint rational distribution over its member noise
variables; distinct blocks are independent), and one total mechanism table
per endogenous variable. All probabilities are fractions.Fraction, so every
downstream computation is exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    CyclicDependencies,
    DomainMismatch,
    IncompleteAssignment,
    NonNormalizedBlock,
    PartialMechanism,
    SizeExceeded,
    UnknownVariable,
)

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV = "ABSTRAKT_BUDGET"


def enumeration_budget(budget=None):
    """Resolve the enumeration budget: explicit argument, else the
    ABSTRAKT_BUDGET environment variable, else the built-in default."""
    if budget is not None:
        return int(budget)
    raw = os.environ.get(BUDGET_ENV, "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise DomainMismatch(
                "ABSTRAKT_BUDGET must be an integer, got %r" % raw)
    return DEFAULT_BUDGET


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
        try:
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
            if p > 0:
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
        self._world_cache = {}
        self._world_terms = {}

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

    def topological_order_names(self):
        if self._topo is None:
            self._topo = topological_order(induce_diagram(self))
        return self._topo

    def solve(self, unit, env=None, order=None):
        """Solve the mechanisms for the exogenous assignment ``unit``.

        Every variable of ``order`` (default: all of them, in topological
        order) that ``env`` does not already pin is looked up in its
        mechanism table, reading parent values from ``env`` and noise values
        from ``unit``. Pinned entries act as hard interventions. Returns
        ``env``, filled in place."""
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

    def exogenous_support_size(self):
        size = 1
        for b in self.blocks:
            size *= len(b.support())
        return size

    def exogenous_support(self):
        """Iterate (index_tuple, assignment, probability) over joint noise
        values with positive probability. The assignment maps (block, member)
        pairs to values."""
        supports = [b.support() for b in self.blocks]
        names = [b.name for b in self.blocks]
        member_lists = [b.member_names() for b in self.blocks]
        for combo in product(*(range(len(s)) for s in supports)):
            u = {}
            p = Fraction(1)
            for bi, ri in enumerate(combo):
                values, rp = supports[bi][ri]
                p *= rp
                for mn, val in zip(member_lists[bi], values):
                    u[(names[bi], mn)] = val
            yield combo, u, p


@dataclass
class Diagram:
    """A causal diagram over endogenous variables: directed edges from
    structural parenthood, bidirected edges from shared exogenous blocks."""

    nodes: tuple
    directed: tuple    # of (parent, child) pairs
    bidirected: tuple  # of unordered pairs stored in node-declaration order


def _require(doc, key, where):
    if key not in doc:
        raise DomainMismatch("missing %r in %s" % (key, where))
    return doc[key]


def validate_scm(doc):
    """Check a raw model document and build a DiscreteScm.

    Raises CyclicDependencies, NonNormalizedBlock, PartialMechanism, or
    DomainMismatch on the first problem found.
    """
    if not isinstance(doc, dict):
        raise DomainMismatch("model document must be a JSON object")

    endogenous = []
    seen = set()
    for entry in _require(doc, "endogenous", "model"):
        name = _require(entry, "name", "endogenous entry")
        domain = tuple(_require(entry, "domain", "endogenous entry %r" % name))
        if not domain:
            raise DomainMismatch("variable %r has an empty domain" % name)
        if len(set(domain)) != len(domain):
            raise DomainMismatch("variable %r repeats a domain value" % name)
        if name in seen:
            raise DomainMismatch("endogenous variable %r declared twice" % name)
        seen.add(name)
        endogenous.append(VariableDecl(name=name, domain=domain))

    blocks = []
    block_names = set()
    for entry in doc.get("blocks", []):
        bname = _require(entry, "name", "block entry")
        if bname in block_names:
            raise DomainMismatch("exogenous block %r declared twice" % bname)
        block_names.add(bname)
        members = []
        mseen = set()
        for m in _require(entry, "members", "block %r" % bname):
            mname = _require(m, "name", "member of block %r" % bname)
            mdomain = tuple(_require(m, "domain", "member %r" % mname))
            if not mdomain or len(set(mdomain)) != len(mdomain):
                raise DomainMismatch("member %r of block %r has a bad domain"
                                     % (mname, bname))
            if mname in mseen:
                raise DomainMismatch("member %r repeated in block %r"
                                     % (mname, bname))
            mseen.add(mname)
            members.append(ExoMember(name=mname, domain=mdomain))
        table = {}
        for row in _require(entry, "table", "block %r" % bname):
            values = tuple(_require(row, "values", "row of block %r" % bname))
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
            table[values] = parse_probability(_require(row, "p", "row of block %r" % bname))
        expected = 1
        for m in members:
            expected *= len(m.domain)
        if len(table) != expected:
            raise NonNormalizedBlock(
                "block %r covers %d of %d member-value combinations"
                % (bname, len(table), expected), block=bname)
        total = sum(table.values(), Fraction(0))
        if total != 1:
            raise NonNormalizedBlock(
                "block %r sums to %s, expected 1" % (bname, total),
                block=bname, total=format_rational(total))
        blocks.append(ExogenousBlock(name=bname, members=tuple(members), table=table))

    var_domains = {v.name: v.domain for v in endogenous}
    member_domains = {}
    for b in blocks:
        for m in b.members:
            member_domains[(b.name, m.name)] = m.domain

    mechanisms = {}
    for entry in _require(doc, "mechanisms", "model"):
        vname = _require(entry, "variable", "mechanism entry")
        if vname not in var_domains:
            raise DomainMismatch("mechanism for undeclared variable %r" % vname)
        if vname in mechanisms:
            raise DomainMismatch("variable %r has two mechanisms" % vname)
        endo_parents = tuple(entry.get("endo_parents", []))
        for p in endo_parents:
            if p not in var_domains:
                raise DomainMismatch(
                    "mechanism for %r names unknown parent %r" % (vname, p))
        if len(set(endo_parents)) != len(endo_parents):
            raise DomainMismatch("mechanism for %r repeats a parent" % vname)
        exo_parents = []
        for ref in entry.get("exo_parents", []):
            key = (_require(ref, "block", "exo parent of %r" % vname),
                   _require(ref, "member", "exo parent of %r" % vname))
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
        table = {}
        for row in _require(entry, "table", "mechanism for %r" % vname):
            key = tuple(_require(row, "parents", "row of mechanism for %r" % vname))
            out = _require(row, "out", "row of mechanism for %r" % vname)
            if len(key) != len(parent_domains):
                raise PartialMechanism(
                    "mechanism row for %r has %d parent values, expected %d"
                    % (vname, len(key), len(parent_domains)), variable=vname)
            for val, dom in zip(key, parent_domains):
                if val not in dom:
                    raise DomainMismatch(
                        "mechanism row for %r uses parent value %r outside its domain"
                        % (vname, val))
            if out not in var_domains[vname]:
                raise DomainMismatch(
                    "mechanism for %r outputs %r outside its domain"
                    % (vname, out), variable=vname, value=out)
            if key in table:
                raise PartialMechanism(
                    "mechanism for %r lists parents %r twice" % (vname, key),
                    variable=vname)
            table[key] = out
        expected = 1
        for dom in parent_domains:
            expected *= len(dom)
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
    """Serialize a model back to the JSON document layout."""
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
        rows = [{"parents": list(k), "out": out}
                for k, out in sorted(mech.table.items(), key=lambda kv: str(kv[0]))]
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


def save_scm(scm, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scm_to_doc(scm), fh, indent=2, sort_keys=False)
        fh.write("\n")
