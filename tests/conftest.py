"""Shared fixtures: the bundled example models, small model builders and
the reference implementations the library is checked against."""

import copy
import json
import math
import os
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import getitem

import pytest
from hypothesis import assume, strategies as st

import abstrakt as ab
from abstrakt import projection, valuation
from abstrakt.abstraction import (AicReport, AicWitness, Cluster,
                                  ClusterMap, ClusterValue,
                                  _canonical_tuple_order, _check_admissible,
                                  _parent_clusters, _working_model)
from abstrakt.errors import (DomainMismatch, IncompleteValuePartition,
                             NonNormalizedBlock, NotPartition,
                             PartialMechanism, UnknownVariable)
from abstrakt.scm import (DiscreteScm, ExogenousBlock, ExoMember, Mechanism,
                          VariableDecl, _array, _scalar, _scalars,
                          check_budget, format_rational, parse_probability)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def insurance():
    return ab.load_scm(fixture_path("insurance.json"))


@pytest.fixture(scope="session")
def insurance_cm(insurance):
    return ab.load_clusters(insurance, fixture_path("insurance_clusters.json"))


@pytest.fixture(scope="session")
def insurance_high(insurance, insurance_cm):
    return ab.construct_projected_abstraction(insurance, insurance_cm)


@pytest.fixture(scope="session")
def cholesterol():
    return ab.load_scm(fixture_path("cholesterol.json"))


@pytest.fixture(scope="session")
def cholesterol_cm(cholesterol):
    return ab.load_clusters(cholesterol,
                            fixture_path("cholesterol_clusters.json"))


@pytest.fixture(scope="session")
def hospital():
    return ab.load_scm(fixture_path("hospital.json"))


@pytest.fixture(scope="session")
def hospital_cm(hospital):
    return ab.load_clusters(hospital, fixture_path("hospital_clusters.json"))


def identity_cluster_doc(scm):
    """One cluster per variable, one label per value."""
    clusters = []
    for v in scm.endogenous:
        clusters.append({
            "name": v.name,
            "members": [v.name],
            "values": [{"label": val, "tuples": [[val]]} for val in v.domain],
        })
    return {"clusters": clusters}


def fresh(model):
    """The same model with empty caches."""
    return ab.DiscreteScm(model.endogenous, model.blocks, model.mechanisms)


def identity_clusters(scm):
    return ab.validate_clusters(scm, identity_cluster_doc(scm))


def binary_block(name, p_one):
    p_one = Fraction(p_one)
    return {
        "name": name,
        "members": [{"name": "u", "domain": [0, 1]}],
        "table": [{"values": [0], "p": str(1 - p_one)},
                  {"values": [1], "p": str(p_one)}],
    }


def build_dag_model(nodes, edges, rng, shared=(), quiet=()):
    """A binary-variable model over the given DAG.

    Every variable has a private binary noise member and a mechanism of the
    form (base(parents) + u) mod 2, so each value keeps positive probability
    under every parent combination and the observational joint has full
    support. Each variable in ``shared`` also adds one member of a block
    ``S`` (one binary member per variable, correlated) to its sum; each
    variable in ``quiet`` has neither noise nor a private block, so its
    mechanism is base(parents) alone.
    """
    endo = []
    blocks = []
    mechanisms = []
    for name in nodes:
        endo.append({"name": name, "domain": [0, 1]})
        exo = []
        if name not in quiet:
            blocks.append(binary_block("U%s" % name,
                                       Fraction(rng.randint(1, 9), 10)))
            exo.append({"block": "U%s" % name, "member": "u"})
        if name in shared:
            exo.append({"block": "S", "member": "s%d" % shared.index(name)})
        parents = [a for a, b in edges if b == name]
        rows = []
        for combo in product([0, 1], repeat=len(parents)):
            base = rng.randrange(2)
            for noise in product([0, 1], repeat=len(exo)):
                rows.append({"parents": list(combo) + list(noise),
                             "out": (base + sum(noise)) % 2})
        mechanisms.append({
            "variable": name,
            "endo_parents": parents,
            "exo_parents": exo,
            "table": rows,
        })
    if shared:
        joint = list(product([0, 1], repeat=len(shared)))
        weights = [rng.randint(1, 5) for _ in joint]
        blocks.append({
            "name": "S",
            "members": [{"name": "s%d" % i, "domain": [0, 1]}
                        for i in range(len(shared))],
            "table": [{"values": list(vals), "p": str(Fraction(w, sum(weights)))}
                      for vals, w in zip(joint, weights)],
        })
    return ab.validate_scm({"endogenous": endo, "blocks": blocks,
                            "mechanisms": mechanisms})


def build_lossy_chain(rng, confounded=False, p_a=None):
    """A three-variable chain A -> B -> C with a ternary middle variable.

    B's two lower values get merged by the bundled lossy clustering. With
    ``confounded`` the pair (A, B) additionally reads a correlated noise
    block, which exercises the response-class machinery. A's private noise
    is 1 with probability ``p_a`` (default: drawn from tenths 1-9); with 0
    or 1 some contexts of B have no mass.
    """
    endo = [{"name": "A", "domain": [0, 1]},
            {"name": "B", "domain": [0, 1, 2]},
            {"name": "C", "domain": [0, 1]}]
    drawn = Fraction(rng.randint(1, 9), 10)
    blocks = [binary_block("UA", drawn if p_a is None else p_a)]
    weights = [rng.randint(1, 5) for _ in range(3)]
    total = sum(weights)
    blocks.append({
        "name": "UB",
        "members": [{"name": "u", "domain": [0, 1, 2]}],
        "table": [{"values": [i], "p": str(Fraction(w, total))}
                  for i, w in enumerate(weights)],
    })
    blocks.append(binary_block("UC", Fraction(rng.randint(1, 9), 10)))
    a_exo = [{"block": "UA", "member": "u"}]
    if confounded:
        pairs = list(product([0, 1], repeat=2))
        joint = [rng.randint(1, 5) for _ in pairs]
        jtotal = sum(joint)
        blocks.append({
            "name": "US",
            "members": [{"name": "s1", "domain": [0, 1]},
                        {"name": "s2", "domain": [0, 1]}],
            "table": [{"values": list(vals), "p": str(Fraction(w, jtotal))}
                      for vals, w in zip(pairs, joint)],
        })
        a_exo.append({"block": "US", "member": "s1"})

    a_rows = []
    for combo in product(*([0, 1] for _ in a_exo)):
        a_rows.append({"parents": list(combo), "out": sum(combo) % 2})
    b_exo = [{"block": "UB", "member": "u"}]
    b_exo_domains = [[0, 1, 2]]
    if confounded:
        b_exo.append({"block": "US", "member": "s2"})
        b_exo_domains.append([0, 1])
    b_rows = []
    for a in (0, 1):
        base = rng.randrange(3)
        for rest in product(*b_exo_domains):
            b_rows.append({"parents": [a] + list(rest),
                           "out": (base + sum(rest)) % 3})
    c_rows = []
    for b in (0, 1, 2):
        base = rng.randrange(2)
        for u in (0, 1):
            c_rows.append({"parents": [b, u], "out": (base + b + u) % 2})
    mechanisms = [
        {"variable": "A", "endo_parents": [], "exo_parents": a_exo,
         "table": a_rows},
        {"variable": "B", "endo_parents": ["A"], "exo_parents": b_exo,
         "table": b_rows},
        {"variable": "C", "endo_parents": ["B"],
         "exo_parents": [{"block": "UC", "member": "u"}], "table": c_rows},
    ]
    scm = ab.validate_scm({"endogenous": endo, "blocks": blocks,
                           "mechanisms": mechanisms})
    cm = ab.validate_clusters(scm, {"clusters": [
        {"name": "A", "members": ["A"],
         "values": [{"label": 0, "tuples": [[0]]},
                    {"label": 1, "tuples": [[1]]}]},
        {"name": "BH", "members": ["B"],
         "values": [{"label": "lo", "tuples": [[0], [1]]},
                    {"label": "hi", "tuples": [[2]]}]},
        {"name": "C", "members": ["C"],
         "values": [{"label": 0, "tuples": [[0]]},
                    {"label": 1, "tuples": [[1]]}]},
    ]})
    return scm, cm


def pixel_docs(k, w, variant):
    """Model and cluster documents of a k×w pixel model: ``k`` concept
    clusters C0..C{k-1} of ``w`` binary pixels each, every pixel with a
    private binary noise block. Concept 0's pixels are fair coins; a later
    pixel is its base value flipped with probability 1/10. A concept is
    'hi' when more than half of its pixels are 1, else 'lo'.

    ``variant`` picks the base value of pixel j of concept i: 'majority'
    reads the majority of concept i-1 (the consistency check finds no
    violators), 'copy' reads pixel j of concept i-1 (it flags every
    concept but the last)."""
    if variant not in ("majority", "copy"):
        raise ValueError("unknown pixel variant %r" % (variant,))
    bits = [0, 1]

    def pixel(i, j):
        return "P%d_%d" % (i, j)

    def hi(values):
        return 2 * sum(values) > len(values)

    endo, blocks, mechanisms = [], [], []
    for i in range(k):
        for j in range(w):
            name = pixel(i, j)
            endo.append({"name": name, "domain": bits})
            blocks.append(binary_block(
                "U" + name, Fraction(1, 2) if i == 0 else Fraction(1, 10)))
            if i == 0:
                parents = []
            elif variant == "majority":
                parents = [pixel(i - 1, jj) for jj in range(w)]
            else:
                parents = [pixel(i - 1, j)]
            rows = []
            for combo in product(bits, repeat=len(parents)):
                base = 0
                if parents:
                    base = int(hi(combo)) if variant == "majority" else combo[0]
                for u in bits:
                    rows.append({"parents": list(combo) + [u],
                                 "out": base ^ u})
            mechanisms.append({
                "variable": name, "endo_parents": parents,
                "exo_parents": [{"block": "U" + name, "member": "u"}],
                "table": rows})
    tuples = list(product(bits, repeat=w))
    clusters = {"clusters": [
        {"name": "C%d" % i, "members": [pixel(i, j) for j in range(w)],
         "values": [{"label": label,
                     "tuples": [list(t) for t in tuples
                                if hi(t) == (label == "hi")]}
                    for label in ("lo", "hi")]}
        for i in range(k)]}
    return ({"endogenous": endo, "blocks": blocks, "mechanisms": mechanisms},
            clusters)


def build_pixel_model(k, w, variant):
    """The validated model and cluster map of pixel_docs(k, w, variant)."""
    model, clusters = pixel_docs(k, w, variant)
    scm = ab.validate_scm(model)
    return scm, ab.validate_clusters(scm, clusters)


def random_partition(draw, tuples, name):
    """Labels ``name``0.. for a drawn partition of ``tuples`` into
    non-empty labels, as the 'values' of a cluster document."""
    index = [draw(st.integers(0, len(tuples) - 1)) for _ in tuples]
    used = sorted(set(index))
    return [{"label": "%s%d" % (name, used.index(i)),
             "tuples": [list(t) for t, j in zip(tuples, index) if j == i]}
            for i in used]


@st.composite
def cluster_map_cases(draw):
    """A model with a cluster map whose labels may merge several member
    tuples: a lossy chain (plain or confounded, contexts of BH with or
    without mass, B's values partitioned afresh, up to three mechanism
    rows of the low model edited), or a build_dag_model model of 3-5 nodes
    (one block shared by two variables, one variable without noise) whose
    nodes are grouped into clusters of one or two, some left out, each
    cluster's joint values partitioned at random."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        scm, _cm = build_lossy_chain(rng, draw(st.booleans()),
                                     draw(st.sampled_from((None, 0, 1))))
        for _ in range(draw(st.integers(0, 3))):
            mech = scm.mechanisms[draw(st.sampled_from("ABC"))]
            key = draw(st.sampled_from(sorted(mech.table)))
            mech.table[key] = draw(st.sampled_from(
                [v for v in scm.domain(mech.variable)
                 if v != mech.table[key]]))
        doc = identity_cluster_doc(scm)
        doc["clusters"][1] = {"name": "BH", "members": ["B"],
                              "values": random_partition(
                                  draw, [(0,), (1,), (2,)], "b")}
        return scm, ab.validate_clusters(scm, doc)
    n = draw(st.integers(3, 5))
    nodes = ["V%d" % (i + 1) for i in range(n)]
    slots = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [e for e in slots if draw(st.booleans())]
    roles = draw(st.permutations(nodes))
    scm = build_dag_model(nodes, edges, rng, shared=tuple(roles[:2]),
                          quiet=(roles[2],))
    order = draw(st.permutations(nodes))
    clusters = []
    while order:
        size = draw(st.integers(1, min(2, len(order))))
        members, order = order[:size], order[size:]
        if clusters and draw(st.integers(0, 3)) == 0:
            continue  # left out of every cluster
        name = "K%d" % len(clusters)
        clusters.append({"name": name, "members": members,
                         "values": random_partition(
                             draw, list(product([0, 1], repeat=size)),
                             name.lower())})
    try:
        return scm, ab.validate_clusters(scm, {"clusters": clusters})
    except ab.InadmissibleClustering:
        assume(False)


def context_after_target_docs():
    """Model and cluster documents in which a merged cluster's context is
    declared after one of its members.

    A <- UA, P <- UP, B = P and Y = A xor B, declared in the order A, P, B,
    Y. Clusters: PC = {P}, C = {A, B} with labels 'same' and 'diff', and
    YC = {Y}. PC is C's parent cluster, so a reference draw for C reads P,
    which comes after C's member A in declaration order. Setting C to
    'same' forces Y = 0.
    """
    bits = [0, 1]
    model = {
        "endogenous": [{"name": n, "domain": bits} for n in "APBY"],
        "blocks": [binary_block("UA", Fraction(1, 2)),
                   binary_block("UP", Fraction(1, 2))],
        "mechanisms": [
            {"variable": "A", "endo_parents": [],
             "exo_parents": [{"block": "UA", "member": "u"}],
             "table": [{"parents": [u], "out": u} for u in bits]},
            {"variable": "P", "endo_parents": [],
             "exo_parents": [{"block": "UP", "member": "u"}],
             "table": [{"parents": [u], "out": u} for u in bits]},
            {"variable": "B", "endo_parents": ["P"], "exo_parents": [],
             "table": [{"parents": [p], "out": p} for p in bits]},
            {"variable": "Y", "endo_parents": ["A", "B"], "exo_parents": [],
             "table": [{"parents": [a, b], "out": a ^ b}
                       for a in bits for b in bits]},
        ],
    }
    clusters = {"clusters": [
        {"name": "PC", "members": ["P"],
         "values": [{"label": "p0", "tuples": [[0]]},
                    {"label": "p1", "tuples": [[1]]}]},
        {"name": "C", "members": ["A", "B"],
         "values": [{"label": "same", "tuples": [[0, 0], [1, 1]]},
                    {"label": "diff", "tuples": [[0, 1], [1, 0]]}]},
        {"name": "YC", "members": ["Y"],
         "values": [{"label": "y0", "tuples": [[0]]},
                    {"label": "y1", "tuples": [[1]]}]},
    ]}
    return model, clusters


def noiseless_mediator_docs():
    """Z -> W -> {X, Y} and X -> Y, where W = Z reads no noise of its own.
    The clusters leave W out, so projecting it away adds no confounding."""
    bits = [0, 1]

    def noise(name):
        return [{"block": name, "member": "u"}]

    model = {
        "endogenous": [{"name": n, "domain": bits} for n in "ZWXY"],
        "blocks": [binary_block(name, Fraction(1, 2))
                   for name in ("UZ", "UX", "UY")],
        "mechanisms": [
            {"variable": "Z", "endo_parents": [], "exo_parents": noise("UZ"),
             "table": [{"parents": [u], "out": u} for u in bits]},
            {"variable": "W", "endo_parents": ["Z"], "exo_parents": [],
             "table": [{"parents": [z], "out": z} for z in bits]},
            {"variable": "X", "endo_parents": ["W"], "exo_parents": noise("UX"),
             "table": [{"parents": [w, u], "out": w ^ u}
                       for w in bits for u in bits]},
            {"variable": "Y", "endo_parents": ["W", "X"],
             "exo_parents": noise("UY"),
             "table": [{"parents": [w, x, u], "out": (w & x) ^ u}
                       for w in bits for x in bits for u in bits]},
        ],
    }
    clusters = {"clusters": [
        {"name": n, "members": [n],
         "values": [{"label": v, "tuples": [[v]]} for v in bits]}
        for n in "ZXY"]}
    return model, clusters


# the one-field edits of the document mutation probes
EDITS = ("delete", [], {}, "x", 7, None, ["x", "y"])


def _edit_paths(value, path):
    yield path
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from _edit_paths(entry, path + (key,))
    elif isinstance(value, list):
        for i, entry in enumerate(value[:2]):
            yield from _edit_paths(entry, path + (i,))


def one_field_edits(text, root=()):
    """Every one-field edit of the JSON document ``text`` at or below the
    key path ``root``: each of EDITS at every key and at the first two
    items of each array. Yields (path, edit, edited document); at the empty
    path the edit replaces the document, which cannot be deleted."""
    for path in _edit_paths(reduce(getitem, root, json.loads(text)), root):
        for edit in EDITS:
            if not path:
                if edit != "delete":
                    yield path, edit, copy.deepcopy(edit)
                continue
            doc = json.loads(text)
            parent = reduce(getitem, path[:-1], doc)
            if edit == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(edit)
            yield path, edit, doc


def all_dag_structures(max_nodes):
    """Every DAG over at most ``max_nodes`` declared nodes, with edges
    oriented from earlier to later declarations."""
    out = []
    for n in range(1, max_nodes + 1):
        nodes = ["V%d" % (i + 1) for i in range(n)]
        slots = [(a, b) for i, a in enumerate(nodes)
                 for b in nodes[i + 1:]]
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            out.append((nodes, edges))
    return out


def _require(doc, key, where):
    """``doc[key]``, refusing a ``doc`` that is not a JSON object and a
    missing key. The reference readers' helpers take ``where`` formatted,
    as the library's took it when those readers were written."""
    if isinstance(doc, dict) and key in doc:
        return doc[key]
    if not isinstance(doc, dict):
        raise DomainMismatch("%s must be a JSON object" % where)
    raise DomainMismatch("missing %r in %s" % (key, where))


def _items(doc, key, where, optional=False):
    """The array at ``doc[key]``; a missing ``optional`` key reads as
    empty."""
    if isinstance(doc, dict):
        value = doc.get(key, () if optional else None)
        if isinstance(value, (list, tuple)):
            return value
    _require(doc, key, where)
    raise DomainMismatch("%r in %s must be an array" % (key, where))


def reference_validate_scm(doc):
    """Check a raw model document and build a DiscreteScm, one check at a
    time in document order: the oracle of ab.validate_scm, which must
    accept what this accepts and refuse the rest with the same error.

    Raises CyclicDependencies, NonNormalizedBlock, PartialMechanism, or
    DomainMismatch on the first problem found.
    """
    if not isinstance(doc, dict):
        raise DomainMismatch("model document must be a JSON object")

    endogenous = []
    seen = set()
    for entry in _items(doc, "endogenous", "model"):
        name = _scalar(_require(entry, "name", "endogenous entry"),
                       "variable name")
        domain = _scalars(_items(entry, "domain", "endogenous entry %r" % name),
                          "domain value of %r", name)
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
    for entry in _items(doc, "blocks", "model", optional=True):
        bname = _scalar(_require(entry, "name", "block entry"), "block name")
        if bname in block_names:
            raise DomainMismatch("exogenous block %r declared twice" % bname)
        block_names.add(bname)
        members = []
        mseen = set()
        for m in _items(entry, "members", "block %r" % bname):
            mname = _scalar(_require(m, "name", "member of block %r" % bname),
                            "member name in block %r", bname)
            mdomain = _scalars(_items(m, "domain", "member %r" % mname),
                               "domain value of member %r", mname)
            if not mdomain or len(set(mdomain)) != len(mdomain):
                raise DomainMismatch("member %r of block %r has a bad domain"
                                     % (mname, bname))
            if mname in mseen:
                raise DomainMismatch("member %r repeated in block %r"
                                     % (mname, bname))
            mseen.add(mname)
            members.append(ExoMember(name=mname, domain=mdomain))
        table = {}
        for row in _items(entry, "table", "block %r" % bname):
            values = tuple(_items(row, "values", "row of block %r" % bname))
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
    for entry in _items(doc, "mechanisms", "model"):
        vname = _scalar(_require(entry, "variable", "mechanism entry"),
                        "mechanism variable")
        if vname not in var_domains:
            raise DomainMismatch("mechanism for undeclared variable %r" % vname)
        if vname in mechanisms:
            raise DomainMismatch("variable %r has two mechanisms" % vname)
        endo_parents = _scalars(_items(entry, "endo_parents",
                                       "mechanism for %r" % vname,
                                       optional=True),
                                "parent of %r", vname)
        for p in endo_parents:
            if p not in var_domains:
                raise DomainMismatch(
                    "mechanism for %r names unknown parent %r" % (vname, p))
        if len(set(endo_parents)) != len(endo_parents):
            raise DomainMismatch("mechanism for %r repeats a parent" % vname)
        exo_parents = []
        for ref in _items(entry, "exo_parents", "mechanism for %r" % vname,
                          optional=True):
            key = _scalars((_require(ref, "block", "exo parent of %r" % vname),
                            _require(ref, "member", "exo parent of %r" % vname)),
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
        table = {}
        for row in _items(entry, "table", "mechanism for %r" % vname):
            key = tuple(_items(row, "parents",
                              "row of mechanism for %r" % vname))
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


def reference_validate_clusters(scm, doc):
    """Check a raw cluster document against a model and build a
    ClusterMap, one check at a time in document order: the oracle of
    ab.validate_clusters.

    Raises NotPartition when a variable lands in two clusters,
    IncompleteValuePartition when a cluster's labeled tuples fail to
    partition its joint domain, and InadmissibleClustering when merging the
    clusters would create a cyclic dependency between high-level variables.
    """
    clusters = []
    owner = {}
    names = set()
    for entry in _items(doc, "clusters", "cluster document"):
        name = _scalar(_require(entry, "name", "cluster entry"),
                       "cluster name")
        where = "cluster %r" % name
        if name in names:
            raise NotPartition("cluster %r declared twice" % name, cluster=name)
        names.add(name)
        members = _scalars(_items(entry, "members", where, optional=True),
                           "member of %s", where)
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
        for val in _items(entry, "values", where, optional=True):
            label = _scalar(_require(val, "label", "value of " + where),
                            "label of %s", where)
            if label in labels:
                raise IncompleteValuePartition(
                    "cluster %r labels %r twice" % (name, label),
                    cluster=name, label=label)
            labels.add(label)
            tuples = []
            for t in _items(val, "tuples", "value of " + where,
                            optional=True):
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


def reference_verify(low, high, shown=10):
    """The replay of a projected model, unit by unit: every exogenous unit
    of the low model under every whole-cluster hard intervention, solved
    on both models with the dict solver. Returns (checked, mismatch_count,
    the first ``shown`` mismatches), the oracle of
    ab.verify_partial_projection."""
    splits = high.splits
    names = [v.name for v in high.scm.endogenous]
    working = _working_model(
        low, [m for name in names for m in splits[name].members])
    high_topo = high.scm.topological_order_names()
    stops = [(high_topo[:i], splits[name])
             for i, name in enumerate(high_topo)
             if splits[name].block is not None]
    subsets = []
    for mask in range(1 << len(names)):
        chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
        members = [m for name in chosen for m in splits[name].members]
        for combo in product(*(working.domain(m) for m in members)):
            subsets.append((chosen, dict(zip(members, combo))))
    zero_cells = {(split.block, mname): 0 for _before, split in stops
                  for label in split.lossy_labels()
                  for mname in split.component[label].values()}
    checked, count, mismatches = 0, 0, []
    for _idx, unit, _p in working.exogenous_support():
        for chosen, x in subsets:
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
                if len(split.fiber(actual)) > 1:
                    high.scm.solve(unit_h, env_h, before)
                    ctx = split.context(env_h, unit)
                    mname = split.component[actual].get(ctx)
                    if mname is None:
                        trouble = ("context %r absent for %s=%s"
                                   % (ctx, split.name, actual))
                    else:
                        unit_h[(split.block, mname)] = \
                            split.fiber(actual).index(raw)
            high.scm.solve(unit_h, env_h)
            checked += 1
            bad = [name for name in names if env_h[name] != want[name]]
            if bad or trouble:
                count += 1
                if len(mismatches) < shown:
                    mismatches.append({
                        "clusters": bad, "intervention": dict(x),
                        "unit": {"%s.%s" % k: v for k, v in unit.items()},
                        "got": {n: env_h[n] for n in bad},
                        "want": {n: want[n] for n in bad},
                        "note": trouble,
                    })
    return checked, count, mismatches


def reference_check_aic(scm, cm, budget=None):
    """The consistency check pair by pair, the oracle of ab.check_aic: for
    each pair of member tuples under one label, in combinations order, the
    child is solved for both at every point (a value of the other parent
    clusters' members and a state of the child's noise), and the first
    point where their labels differ gives the witness. The budget counts
    two solves per pair."""
    working = _working_model(scm, cm, budget)
    topo = working.topological_order_names()
    member_order = {c.name: [v for v in topo if v in c.members]
                    for c in cm.clusters}
    child_parents = {c.name: _parent_clusters(working, cm, c)
                     for c in cm.clusters}
    # the sorted positions of the blocks each cluster's members read
    child_blocks = {cj.name: tuple(sorted(
        {working.block_position[b] for m in cj.members
         for b, _mem in working.mechanisms[m].exo_parents}))
        for cj in cm.clusters}

    cost = 0
    for cj in cm.clusters:
        usize = working.exogenous_support_size(child_blocks[cj.name])
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
    check_budget(cost, budget, "consistency check needs %d evaluations")

    violators = []
    witnesses = {}
    everywhere = range(len(working.blocks))
    default_unit = working.exogenous_assignment(everywhere,
                                                [0] * len(everywhere))

    def child_label(cj, env, unit):
        working.solve(unit, env, member_order[cj.name])
        return cj.label_of(tuple(env[m] for m in cj.members))

    def first_witness(ci):
        for cj in cm.clusters:
            if ci.name not in child_parents[cj.name]:
                continue
            other_names = sorted(set(child_parents[cj.name]) - {ci.name})
            other_members = []
            other_domains = []
            for on in other_names:
                oc = cm.by_name[on]
                for m in oc.members:
                    other_members.append(m)
                    other_domains.append(working.domain(m))
            for cv in ci.values:
                for left, right in combinations(cv.tuples, 2):
                    for others in product(*other_domains):
                        base = dict(zip(other_members, others))
                        for _idx, rows, _w in working.exogenous_support(
                                child_blocks[cj.name]):
                            unit = {**default_unit, **rows}
                            envl = dict(base)
                            envl.update(zip(ci.members, left))
                            envr = dict(base)
                            envr.update(zip(ci.members, right))
                            out_l = child_label(cj, envl, unit)
                            out_r = child_label(cj, envr, unit)
                            if out_l != out_r:
                                return AicWitness(
                                    parent=ci.name, child=cj.name,
                                    label=cv.label, left=left, right=right,
                                    others=base, unit=unit,
                                    outputs=(out_l, out_r))
        return None

    for ci in cm.clusters:
        found = first_witness(ci)
        if found:
            violators.append(ci.name)
            witnesses[ci.name] = found
    return AicReport(violators=tuple(violators), witnesses=witnesses,
                     scm=working)


def reference_construct(scm, cm, policy="general", budget=None,
                        fallback=None):
    """The projected model with every mechanism row solved on its own, the
    oracle of ab.construct_projected_abstraction: each row reconstructs the
    flagged parents' member tuples from its cells and solves the cluster's
    members with the dict solver. The consistency check is
    reference_check_aic, and each table is gated alone."""
    projection.validate_policy(policy)
    projection.validate_fallback(fallback)
    report = reference_check_aic(scm, cm, budget)
    working = report.scm
    violators = set(report.violators)

    splits = {}
    extra_blocks = []
    for c in cm.clusters:
        lossy = c.lossy_labels()
        if not lossy:
            splits[c.name] = projection.DeltaSplit(
                name=c.name, members=c.members, values=c.values)
            continue
        # the model keeps the split sigma_machinery returns, so it is
        # copied before it is trimmed and given its cells
        kept = projection.sigma_machinery(working, cm, c.name, policy, budget,
                                          fallback)
        split = splits[c.name] = replace(
            kept, sigma={label: kept.sigma[label] for label in lossy},
            component={})
        if c.name not in violators:
            continue
        split.violator = True
        members = []
        probs_per_member = []
        contexts = projection._all_contexts(cm.by_name, split)
        for label in lossy:
            domain = tuple(range(len(split.fiber(label))))
            tables = split.sigma[label]
            split.component[label] = {}
            for ctx in (ctx for ctx in contexts if ctx in tables):
                name = projection._component_member(
                    c.name, label, len(split.component[label]))
                split.component[label][ctx] = name
                members.append(ExoMember(name=name, domain=domain))
                probs_per_member.append(tables[ctx])
        split.block = "%s__u" % c.name
        check_budget(math.prod(map(len, probs_per_member)), budget,
                     "cell block for %r needs %d rows", c.name)
        table = {}
        for combo in product(*(range(len(w)) for w in probs_per_member)):
            table[combo] = math.prod(
                (w[i] for w, i in zip(probs_per_member, combo)),
                start=Fraction(1))
        extra_blocks.append(ExogenousBlock(
            name=split.block, members=tuple(members), table=table))

    high = DiscreteScm(
        endogenous=tuple(VariableDecl(name=c.name, domain=c.labels())
                         for c in cm.clusters),
        blocks=tuple(working.blocks) + tuple(extra_blocks), mechanisms={})
    for c in cm.clusters:
        direct = _parent_clusters(working, cm, c)
        endo = set(direct)
        exo = {k for m in c.members for k in working.mechanisms[m].exo_parents}
        # a flagged parent is reconstructed from its cell, which is read in
        # the context of its own parents and shared noise
        for ps in (splits[p] for p in direct if splits[p].block is not None):
            endo.update(ps.parents)
            exo.update((ps.block, name) for names in ps.component.values()
                       for name in names.values())
            exo.update(ps.rho_members)
        endo = [v for v in high.var_index if v in endo]
        exo = [k for k in high.member_index if k in exo]
        domains = [high.domain(p) for p in endo] + [
            high.member_index[k].domain for k in exo]
        check_budget(math.prod(map(len, domains)), budget,
                     "high-level mechanism for %r needs %d rows", c.name)

        member_topo = [v for v in working.topological_order_names()
                       if v in c.members]
        table = {}
        for combo in product(*domains):
            high_env = dict(zip(endo, combo))
            exo_env = dict(zip(exo, combo[len(endo):]))
            env = {}
            for p in direct:
                ps = splits[p]
                fiber = ps.fiber(high_env[p])
                raw = fiber[0]
                if ps.block is not None and len(fiber) > 1:
                    name = ps.component[high_env[p]].get(
                        ps.context(high_env, exo_env))
                    if name is not None:
                        raw = fiber[exo_env[(ps.block, name)]]
                env.update(zip(ps.members, raw))
            working.solve(exo_env, env, member_topo)
            table[combo] = c.label_of(tuple(env[m] for m in c.members))
        high.mechanisms[c.name] = Mechanism(
            variable=c.name, endo_parents=tuple(endo), exo_parents=tuple(exo),
            table=table)
    high.topological_order_names()
    return projection.HighLevelScm(scm=high, splits=splits, policy=policy,
                                   fallback=fallback)


def reference_tabulate(scm, terms, setups, budget=None):
    """The joint walk of a counterfactual table: every state of the blocks
    some term reads times every joint cell draw, each term's world solved
    afresh by its compiled program. Returns the common denominator and a
    dict from per-term worlds to integer weights, keys in the order the
    walk meets them and an undefined world holding its ImpossibleContext;
    the oracle of valuation._tabulate, whose factored walk must give the
    same weights."""
    blocks = sorted(set().union(*(s.blocks for s in setups)))
    at = {b: i for i, b in enumerate(blocks)}
    den, cells = valuation._draws(scm, terms, budget, blocks)
    keys = list(cells)
    worlds = [(valuation._compile(scm, s, s.out), [at[b] for b in s.blocks],
               [keys.index(a.share_key) for a in s.atoms])
              for s in setups]
    weights = {}
    for u_idx, pu in scm.exogenous_states(blocks):
        # every joint cell draw, the last key varying fastest
        for choice in product(*(cells[k] for k in keys)):
            w = math.prod(x for _i, x in choice)
            key = []
            for program, own, shares in worlds:
                try:
                    key.append(program(tuple(u_idx[i] for i in own)
                                       + tuple(choice[j][0] for j in shares)))
                except ab.ImpossibleContext as err:
                    key.append(err)
            key = tuple(key)
            weights[key] = weights.get(key, 0) + pu * w
    return den, weights


def constant_soft_intervention(targets, candidates, probs, share_key):
    """A context-free stochastic intervention with a single table."""
    breaks, cell_map = valuation._cell_grid(
        {((), None): tuple(map(Fraction, probs))})
    return ab.SoftIntervention(targets=tuple(targets), share_key=share_key,
                               candidates=tuple(map(tuple, candidates)),
                               breaks=breaks, cell_map=cell_map)


def atom(variable, value):
    return ab.OutcomeAtom(variables=(variable,),
                          accepted=frozenset({(value,)}))


def term(outcome_pairs, hard_pairs=()):
    return ab.QueryTerm(
        outcomes=tuple(atom(v, val) for v, val in outcome_pairs),
        hard=tuple(ab.HardIntervention(v, val) for v, val in hard_pairs))


def query(terms, conditioning=()):
    return ab.CounterfactualQuery(terms=tuple(terms),
                                  conditioning=tuple(conditioning))
