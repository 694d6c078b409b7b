"""Shared fixtures: the bundled example models and small model builders."""

import os
from fractions import Fraction
from itertools import product

import pytest

import abstrakt as ab

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


def build_dag_model(nodes, edges, rng):
    """A binary-variable model over the given DAG.

    Every variable has a private binary noise member and a mechanism of the
    form (base(parents) + u) mod 2, so each value keeps positive probability
    under every parent combination and the observational joint has full
    support.
    """
    endo = []
    blocks = []
    mechanisms = []
    for name in nodes:
        endo.append({"name": name, "domain": [0, 1]})
        blocks.append(binary_block("U%s" % name,
                                   Fraction(rng.randint(1, 9), 10)))
        parents = [a for a, b in edges if b == name]
        rows = []
        for combo in product([0, 1], repeat=len(parents)):
            base = rng.randrange(2)
            for u in (0, 1):
                rows.append({"parents": list(combo) + [u],
                             "out": (base + u) % 2})
        mechanisms.append({
            "variable": name,
            "endo_parents": parents,
            "exo_parents": [{"block": "U%s" % name, "member": "u"}],
            "table": rows,
        })
    return ab.validate_scm({"endogenous": endo, "blocks": blocks,
                            "mechanisms": mechanisms})


def build_lossy_chain(rng, confounded=False):
    """A three-variable chain A -> B -> C with a ternary middle variable.

    B's two lower values get merged by the bundled lossy clustering. With
    ``confounded`` the pair (A, B) additionally reads a correlated noise
    block, which exercises the response-class machinery.
    """
    endo = [{"name": "A", "domain": [0, 1]},
            {"name": "B", "domain": [0, 1, 2]},
            {"name": "C", "domain": [0, 1]}]
    blocks = [binary_block("UA", Fraction(rng.randint(1, 9), 10))]
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
