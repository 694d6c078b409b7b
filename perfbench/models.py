"""Inputs the benchmark owns: the fixture models, checked against recorded
SHA-256 hashes, and private copies of the model generators and of the
cluster-level query family, so that edits to the test suite cannot change
a workload."""

import hashlib
import itertools
import json
import os
from fractions import Fraction
from itertools import product

from abstrakt import valuation
from abstrakt.abstraction import SigmaMarker

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")

FIXTURE_SHA256 = {
    "insurance.json":
        "078ec3c4ab0deb0ba3fbedf1ae9ee1b342cb2d3fc6acd5b8158ec4d7e57b27c4",
    "insurance_clusters.json":
        "7183a5c9b1acf1498770eb5a7b90ef7f00e14c5b0f40bf01ddfc95feee69eab3",
    "cholesterol.json":
        "7f4edcd09d201bbda2a360d8fba0cb8f58dbd063bbd8550b676282c246d6e5aa",
    "cholesterol_clusters.json":
        "eee5d1921fb534ad5b8f704dd9159ad908defaf23939bd69a833234b8ef1730a",
    "hospital.json":
        "696f7666bb8629a8ee807856267153f012878d83be9e88285fabfd0032ef0ec4",
    "hospital_clusters.json":
        "7183a5c9b1acf1498770eb5a7b90ef7f00e14c5b0f40bf01ddfc95feee69eab3",
}

FIXTURE_MODELS = ("insurance", "cholesterol", "hospital")


class FixtureMismatch(Exception):
    pass


def fixture_path(name):
    """Path of a bundled fixture after checking its recorded hash."""
    path = os.path.join(FIXTURE_DIR, name)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != FIXTURE_SHA256[name]:
        raise FixtureMismatch("%s has SHA-256 %s, expected %s"
                              % (path, digest, FIXTURE_SHA256[name]))
    return path


def fixture_doc(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def doc_support_size(doc):
    """Joint exogenous support of a model document, counted from the raw
    JSON: the product over blocks of the rows with positive probability."""
    size = 1
    for block in doc["blocks"]:
        size *= sum(1 for row in block["table"] if Fraction(row["p"]) > 0)
    return size


# ---------------------------------------------------------------------------
# model generators (documents, validated by the caller)


def binary_block(name, p_one):
    p_one = Fraction(p_one)
    return {
        "name": name,
        "members": [{"name": "u", "domain": [0, 1]}],
        "table": [{"values": [0], "p": str(1 - p_one)},
                  {"values": [1], "p": str(p_one)}],
    }


def dag_model_doc(nodes, edges, rng):
    """A binary-variable model over the given DAG. Every variable reads a
    private binary noise member through (base(parents) + u) mod 2, so the
    observational joint has full support."""
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
    return {"endogenous": endo, "blocks": blocks, "mechanisms": mechanisms}


def identity_cluster_doc(model_doc):
    """One cluster per variable, one label per value."""
    return {"clusters": [
        {"name": v["name"], "members": [v["name"]],
         "values": [{"label": val, "tuples": [[val]]} for val in v["domain"]]}
        for v in model_doc["endogenous"]]}


LOSSY_CHAIN_CLUSTERS = {"clusters": [
    {"name": "A", "members": ["A"],
     "values": [{"label": 0, "tuples": [[0]]},
                {"label": 1, "tuples": [[1]]}]},
    {"name": "BH", "members": ["B"],
     "values": [{"label": "lo", "tuples": [[0], [1]]},
                {"label": "hi", "tuples": [[2]]}]},
    {"name": "C", "members": ["C"],
     "values": [{"label": 0, "tuples": [[0]]},
                {"label": 1, "tuples": [[1]]}]},
]}


def lossy_chain_doc(rng):
    """A chain A -> B -> C with a ternary B whose two lower values the
    cluster map LOSSY_CHAIN_CLUSTERS merges; A and B also read a correlated
    noise block. Depending on the drawn tables the merged cluster BH is a
    violator or not."""
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
    a_exo = [{"block": "UA", "member": "u"}, {"block": "US", "member": "s1"}]
    a_rows = [{"parents": list(combo), "out": sum(combo) % 2}
              for combo in product([0, 1], repeat=2)]
    b_rows = []
    for a in (0, 1):
        base = rng.randrange(3)
        for rest in product([0, 1, 2], [0, 1]):
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
        {"variable": "B", "endo_parents": ["A"],
         "exo_parents": [{"block": "UB", "member": "u"},
                         {"block": "US", "member": "s2"}],
         "table": b_rows},
        {"variable": "C", "endo_parents": ["B"],
         "exo_parents": [{"block": "UC", "member": "u"}], "table": c_rows},
    ]
    return {"endogenous": endo, "blocks": blocks, "mechanisms": mechanisms}


def lossy_chain_pair(rng, check_violators, max_draws=200):
    """Draw lossy chains from ``rng`` until one has BH as a violator and
    one has none, and return (violator_doc, clean_doc). Fixing the mix
    keeps every seed's workload the same shape: the two kinds differ
    about tenfold in projected model size."""
    found = {}
    for _ in range(max_draws):
        doc = lossy_chain_doc(rng)
        found.setdefault(bool(check_violators(doc)), doc)
        if len(found) == 2:
            return found[True], found[False]
    raise RuntimeError("no violator/clean pair of lossy chains in %d draws"
                       % max_draws)


BOW_GRAPH = {"nodes": ["X", "Y"], "directed": [["X", "Y"]],
             "bidirected": [["X", "Y"]]}


# ---------------------------------------------------------------------------
# cluster-level queries over the insurance model

INSURANCE_CLUSTER_DOMAINS = {"Z": ("z1", "z2"), "XH": ("xC", "xE"),
                             "Y": (0, 1)}


def atom(variable, value):
    return valuation.OutcomeAtom(variables=(variable,),
                                 accepted=frozenset({(value,)}))


def _cluster_term(outcome_pairs, ivs):
    """Setting the merged value xC is a stochastic-reference intervention;
    every other setting is hard."""
    hard = []
    soft = []
    for v, val in ivs:
        if (v, val) == ("XH", "xC"):
            soft.append(SigmaMarker(v, val))
        else:
            hard.append(valuation.HardIntervention(v, val))
    return valuation.QueryTerm(
        outcomes=tuple(atom(v, val) for v, val in outcome_pairs),
        hard=tuple(hard), soft=tuple(soft))


def cluster_level_terms():
    """The 54 single counterfactual terms over the insurance clusters: one
    outcome atom, intervened by every assignment to any subset of the
    other two clusters."""
    dom = INSURANCE_CLUSTER_DOMAINS
    names = list(dom)
    out = []
    for v in names:
        others = [o for o in names if o != v]
        assignments = [()]
        for k in (1, 2):
            for subset in itertools.combinations(others, k):
                for vals in itertools.product(*(dom[s] for s in subset)):
                    assignments.append(tuple(zip(subset, vals)))
        for val in dom[v]:
            for ivs in assignments:
                out.append(_cluster_term([(v, val)], ivs))
    return out


def cluster_queries():
    """The 1485 cluster queries with at most two terms (54 singles and
    1431 pairs), each with no known value, followed by the two conditioned
    reference queries whose exact values are known."""
    singles = cluster_level_terms()
    query = valuation.CounterfactualQuery
    out = [(query(terms=(t,), conditioning=()), None) for t in singles]
    out += [(query(terms=(a, b), conditioning=()), None)
            for a, b in itertools.combinations(singles, 2)]
    for z, want in (("z1", Fraction(37, 50)), ("z2", Fraction(13, 50))):
        t = valuation.QueryTerm(outcomes=(atom("Y", 1),),
                                soft=(SigmaMarker("XH", "xC"),))
        cond = valuation.QueryTerm(outcomes=(atom("Z", z),))
        out.append((query(terms=(t,), conditioning=(cond,)), want))
    return out
