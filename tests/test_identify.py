"""Effect identification and estimand evaluation."""

import random
from fractions import Fraction
from itertools import product

import pytest

import abstrakt as ab
from conftest import binary_block, build_dag_model, term, query


def backdoor_graph():
    return ab.make_graph(("Z", "X", "Y"),
                         (("Z", "X"), ("Z", "Y"), ("X", "Y")), ())


def bow_graph():
    return ab.make_graph(("X", "Y"), (("X", "Y"),), (("X", "Y"),))


def frontdoor_graph():
    return ab.make_graph(("X", "M", "Y"),
                         (("X", "M"), ("M", "Y")), (("X", "Y"),))


def two_confounder_model(rng):
    """V0 -> V1 -> V2 -> V3 with V0 <-> V2 and V0 <-> V3: binary variables,
    each with a private noise block, and two correlated blocks, S1 read by
    V0 and V2 and S2 read by V0 and V3. Each mechanism adds its noise to a
    drawn function of its parent, mod 2."""
    shared = {"V0": [("S1", "a"), ("S2", "a")], "V2": [("S1", "b")],
              "V3": [("S2", "b")]}
    blocks = [binary_block("U%d" % i, Fraction(rng.randint(1, 9), 10))
              for i in range(4)]
    for name in ("S1", "S2"):
        weights = [rng.randint(1, 5) for _ in range(4)]
        blocks.append({
            "name": name,
            "members": [{"name": m, "domain": [0, 1]} for m in "ab"],
            "table": [{"values": list(v), "p": str(Fraction(w, sum(weights)))}
                      for v, w in zip(product([0, 1], repeat=2), weights)]})
    mechanisms = []
    for i in range(4):
        name = "V%d" % i
        parents = ["V%d" % (i - 1)] if i else []
        exo = [("U%d" % i, "u")] + shared.get(name, [])
        rows = []
        for combo in product([0, 1], repeat=len(parents)):
            base = rng.randrange(2)
            rows += [{"parents": list(combo) + list(noise),
                      "out": (base + sum(noise)) % 2}
                     for noise in product([0, 1], repeat=len(exo))]
        mechanisms.append({"variable": name, "endo_parents": parents,
                           "exo_parents": [{"block": b, "member": m}
                                           for b, m in exo],
                           "table": rows})
    return ab.validate_scm({
        "endogenous": [{"name": "V%d" % i, "domain": [0, 1]}
                       for i in range(4)],
        "blocks": blocks, "mechanisms": mechanisms})


def confounded_mediator_model():
    """X -> M -> Y with a correlated block read by M and Y."""
    doc = {
        "endogenous": [{"name": "X", "domain": [0, 1]},
                       {"name": "M", "domain": [0, 1]},
                       {"name": "Y", "domain": [0, 1]}],
        "blocks": [
            {"name": "UC", "members": [{"name": "a", "domain": [0, 1]},
                                       {"name": "b", "domain": [0, 1]}],
             "table": [{"values": [0, 0], "p": "1/2"},
                       {"values": [0, 1], "p": "1/10"},
                       {"values": [1, 0], "p": "1/10"},
                       {"values": [1, 1], "p": "3/10"}]},
            {"name": "UX", "members": [{"name": "u", "domain": [0, 1]}],
             "table": [{"values": [0], "p": "3/5"},
                       {"values": [1], "p": "2/5"}]},
            {"name": "UY", "members": [{"name": "u", "domain": [0, 1]}],
             "table": [{"values": [0], "p": "4/5"},
                       {"values": [1], "p": "1/5"}]},
        ],
        "mechanisms": [
            {"variable": "X", "endo_parents": [],
             "exo_parents": [{"block": "UX", "member": "u"}],
             "table": [{"parents": [u], "out": u} for u in (0, 1)]},
            {"variable": "M", "endo_parents": ["X"],
             "exo_parents": [{"block": "UC", "member": "a"}],
             "table": [{"parents": [x, a], "out": (x + a) % 2}
                       for x in (0, 1) for a in (0, 1)]},
            {"variable": "Y", "endo_parents": ["M"],
             "exo_parents": [{"block": "UC", "member": "b"},
                             {"block": "UY", "member": "u"}],
             "table": [{"parents": [m, b, u], "out": (m + b + u) % 2}
                       for m in (0, 1) for b in (0, 1) for u in (0, 1)]},
        ],
    }
    return ab.validate_scm(doc)


def frontdoor_model():
    """X confounded with Y through a correlated block; M mediates."""
    doc = {
        "endogenous": [{"name": "X", "domain": [0, 1]},
                       {"name": "M", "domain": [0, 1]},
                       {"name": "Y", "domain": [0, 1]}],
        "blocks": [
            {"name": "UC", "members": [{"name": "a", "domain": [0, 1]},
                                       {"name": "b", "domain": [0, 1]}],
             "table": [{"values": [0, 0], "p": "2/5"},
                       {"values": [0, 1], "p": "1/10"},
                       {"values": [1, 0], "p": "1/10"},
                       {"values": [1, 1], "p": "2/5"}]},
            {"name": "UX", "members": [{"name": "u", "domain": [0, 1]}],
             "table": [{"values": [0], "p": "9/10"},
                       {"values": [1], "p": "1/10"}]},
            {"name": "UM", "members": [{"name": "u", "domain": [0, 1]}],
             "table": [{"values": [0], "p": "4/5"},
                       {"values": [1], "p": "1/5"}]},
            {"name": "UY", "members": [{"name": "u", "domain": [0, 1]}],
             "table": [{"values": [0], "p": "7/10"},
                       {"values": [1], "p": "3/10"}]},
        ],
        "mechanisms": [
            {"variable": "X", "endo_parents": [],
             "exo_parents": [{"block": "UC", "member": "a"},
                             {"block": "UX", "member": "u"}],
             "table": [{"parents": [a, u], "out": (a + u) % 2}
                       for a in (0, 1) for u in (0, 1)]},
            {"variable": "M", "endo_parents": ["X"],
             "exo_parents": [{"block": "UM", "member": "u"}],
             "table": [{"parents": [x, u], "out": (x + u) % 2}
                       for x in (0, 1) for u in (0, 1)]},
            {"variable": "Y", "endo_parents": ["M"],
             "exo_parents": [{"block": "UC", "member": "b"},
                             {"block": "UY", "member": "u"}],
             "table": [{"parents": [m, b, u], "out": (m + b + u) % 2}
                       for m in (0, 1) for b in (0, 1) for u in (0, 1)]},
        ],
    }
    return ab.validate_scm(doc)


class TestEstimandNodes:
    def test_render_lookup(self):
        e = ab.Lookup(outcome=(("Y", 1),), given=(("X", "x1"),))
        assert ab.render_estimand(e) == "P(Y=1|X=x1)"

    def test_render_sum_product(self):
        e = ab.Sum("Z", "z", ab.Product((
            ab.Lookup((("Z", ab.Sym("z")),)),
            ab.Lookup((("Y", 1),), (("Z", ab.Sym("z")), ("X", "x1"))))))
        assert ab.render_estimand(e) == "sum_z[ P(Z=z) * P(Y=1|Z=z,X=x1) ]"

    def test_render_ratio(self):
        e = ab.Ratio(ab.Lookup((("Y", 1), ("Z", 0))),
                     ab.Lookup((("Z", 0),)))
        got = ab.render_estimand(e)
        assert "/" in got

    def test_doc_shape(self):
        e = ab.Sum("Z", "z", ab.Lookup((("Z", ab.Sym("z")),)))
        doc = ab.estimand_to_doc(e)
        assert doc["kind"] == "sum"
        assert doc["body"]["kind"] == "lookup"


class TestEvaluate:
    def test_backdoor_formula_by_hand(self, insurance, insurance_cm):
        pushed = ab.marginal_pushforward(
            ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
        e = ab.Sum("Z", "z", ab.Product((
            ab.Lookup((("Z", ab.Sym("z")),)),
            ab.Lookup((("Y", 1),), (("Z", ab.Sym("z")), ("XH", "xC"))))))
        assert ab.evaluate_estimand(e, pushed) == Fraction(149, 250)

    def test_unbound_symbol(self, insurance, insurance_cm):
        pushed = ab.marginal_pushforward(
            ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
        e = ab.Lookup((("Z", ab.Sym("z")),))
        with pytest.raises(ab.UnboundVariable):
            ab.evaluate_estimand(e, pushed)

    @pytest.mark.parametrize("estimand, kind, message", [
        (ab.Lookup((("Z", ab.Sym("z")),)), ab.UnboundVariable,
         "symbol 'z' is not bound"),
        (ab.Lookup((("Z", ab.Canon("W")),)), ab.UnknownVariable,
         "variable 'W' is not in the data"),
        (ab.Lookup((("W", 1),)), ab.UnknownVariable,
         "variable 'W' is not in the data"),
        (ab.Sum("W", "w", ab.Lookup((("Z", ab.Sym("w")),))),
         ab.UnboundVariable, "sum over 'W', which is not in the data"),
        (ab.Lookup((("Y", 1),), (("XH", "xZ"),)), ab.ZeroConditioning,
         "conditioning event XH=xZ has probability zero"),
        (ab.Ratio(ab.Lookup((("Y", 1),)), ab.Lookup((("XH", "xZ"),))),
         ab.ZeroConditioning, "estimand denominator is zero"),
        ("P(Y=1)", ab.DomainMismatch, "not an estimand node: 'P(Y=1)'"),
    ], ids=["unbound-symbol", "canon-not-in-data", "lookup-not-in-data",
            "sum-not-in-data", "zero-conditioning", "zero-denominator",
            "not-a-node"])
    def test_refused(self, insurance, insurance_cm, estimand, kind, message):
        """Each refusal of evaluate_estimand, met by one estimand on the
        pushed-forward insurance table (variables Z, XH and Y)."""
        pushed = ab.marginal_pushforward(
            ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
        with pytest.raises(kind) as err:
            ab.evaluate_estimand(estimand, pushed)
        assert err.value.kind == kind.kind
        assert err.value.message == message

    def test_zero_conditioning(self):
        rng = random.Random(1)
        scm = build_dag_model(["V1", "V2"], [("V1", "V2")], rng)
        table = ab.joint_distribution(scm, ("V1", "V2"))
        table.probs = {k: (p if k[0] == 0 else Fraction(0))
                       for k, p in table.probs.items()}
        e = ab.Lookup((("V2", 1),), (("V1", 1),))
        with pytest.raises(ab.ZeroConditioning):
            ab.evaluate_estimand(e, table)


class TestIdentifyEffect:
    def test_backdoor(self):
        dec = ab.identify_effect(backdoor_graph(),
                                 ab.IdQuery(outcome={"Y": 1},
                                            do={"X": "x1"}))
        assert dec.identifiable
        assert ab.render_estimand(dec.estimand) == \
            "sum_z[ P(Z=z) * P(Y=1|Z=z,X=x1) ]"

    def test_backdoor_value(self):
        rng = random.Random(13)
        scm = build_dag_model(["Z", "X", "Y"],
                              [("Z", "X"), ("Z", "Y"), ("X", "Y")], rng)
        dec = ab.identify_effect(backdoor_graph(),
                                 ab.IdQuery(outcome={"Y": 1}, do={"X": 1}))
        table = ab.joint_distribution(scm, ("Z", "X", "Y"))
        got = ab.evaluate_estimand(dec.estimand, table)
        want = ab.prob_query(scm, query([term([("Y", 1)], [("X", 1)])]))
        assert got == want

    def test_frontdoor_value(self):
        scm = frontdoor_model()
        dec = ab.identify_effect(frontdoor_graph(),
                                 ab.IdQuery(outcome={"Y": 1}, do={"X": 1}))
        assert dec.identifiable
        table = ab.joint_distribution(scm, ("X", "M", "Y"))
        got = ab.evaluate_estimand(dec.estimand, table)
        want = ab.prob_query(scm, query([term([("Y", 1)], [("X", 1)])]))
        assert got == want

    def test_bow_is_not_identifiable(self):
        dec = ab.identify_effect(bow_graph(),
                                 ab.IdQuery(outcome={"Y": 1}, do={"X": 0}))
        assert not dec.identifiable
        assert dec.estimand is None
        assert set(dec.witness["component"]) == {"Y"}
        assert set(dec.witness["containing"]) == {"X", "Y"}

    def test_instrument_is_not_identifiable(self):
        g = ab.make_graph(("Z", "X", "Y"),
                          (("Z", "X"), ("X", "Y")), (("X", "Y"),))
        dec = ab.identify_effect(g, ab.IdQuery(outcome={"Y": 1},
                                               do={"X": 0}))
        assert not dec.identifiable

    def test_confounded_mediator(self):
        # with M <-> Y the effect of M is a bow and fails, but X stays
        # unconfounded so do(X) reduces to plain conditioning
        g = ab.make_graph(("X", "M", "Y"),
                          (("X", "M"), ("M", "Y")), (("M", "Y"),))
        dec = ab.identify_effect(g, ab.IdQuery(outcome={"Y": 1},
                                               do={"M": 0}))
        assert not dec.identifiable
        dec = ab.identify_effect(g, ab.IdQuery(outcome={"Y": 1},
                                               do={"X": 0}))
        assert dec.identifiable
        scm = confounded_mediator_model()
        table = ab.joint_distribution(scm, ("X", "M", "Y"))
        got = ab.evaluate_estimand(dec.estimand, table)
        want = ab.prob_query(scm, query([term([("Y", 1)], [("X", 0)])]))
        assert got == want

    def test_conditional_query(self):
        rng = random.Random(29)
        scm = build_dag_model(["Z", "X", "Y"],
                              [("Z", "X"), ("Z", "Y"), ("X", "Y")], rng)
        dec = ab.identify_effect(
            backdoor_graph(),
            ab.IdQuery(outcome={"Y": 1}, do={"X": 1}, given={"Z": 0}))
        assert dec.identifiable
        table = ab.joint_distribution(scm, ("Z", "X", "Y"))
        got = ab.evaluate_estimand(dec.estimand, table)
        want = ab.prob_query(scm, query([term([("Y", 1)], [("X", 1)])],
                                        [term([("Z", 0)])]))
        assert got == want

    @pytest.mark.parametrize("seed", range(4))
    def test_rule_2_moves_the_given_into_do(self, seed):
        """On X -> Z -> Y with X <-> Z, P(Z | do(X)) is not identifiable, but
        Y is independent of Z given X once Z's outgoing edges are cut, so
        P(Y | do(X), Z) = P(Y | do(X, Z)) (IDC); dividing two ID calls
        reported it not identifiable. Each estimand, evaluated on the exact
        joint, equals the model's answer."""
        scm = build_dag_model(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")],
                              random.Random(seed), shared=("X", "Z"))
        g = ab.make_graph(("X", "Z", "Y"), (("X", "Z"), ("Z", "Y")),
                          (("X", "Z"),))
        table = ab.joint_distribution(scm, ("X", "Z", "Y"))
        for x, z, y in product((0, 1), repeat=3):
            dec = ab.identify_effect(g, ab.IdQuery(
                outcome={"Y": y}, do={"X": x}, given={"Z": z}))
            assert dec.identifiable
            assert ab.evaluate_estimand(dec.estimand, table) == ab.prob_query(
                scm, query([term([("Y", y)], [("X", x)])],
                           [term([("Z", z)], [("X", x)])]))

    @pytest.mark.parametrize("seed", range(4))
    def test_product_of_conditionals(self, seed):
        """On V0 -> V1 -> V2 -> V3 with V0 <-> V2 and V0 <-> V3, ID
        identifies P(V3 | do(Vi)) through lookups in a product of
        conditionals of the observational joint; each estimand, evaluated on
        the exact joint, equals the model's answer."""
        scm = two_confounder_model(random.Random(seed))
        g = ab.make_graph(scm.variable_names(),
                          (("V0", "V1"), ("V1", "V2"), ("V2", "V3")),
                          (("V0", "V2"), ("V0", "V3")))
        table = ab.joint_distribution(scm, scm.variable_names())
        for i, x, y in product(range(3), (0, 1), (0, 1)):
            dec = ab.identify_effect(g, ab.IdQuery(outcome={"V3": y},
                                                   do={"V%d" % i: x}))
            assert dec.identifiable
            assert ab.evaluate_estimand(dec.estimand, table) == ab.prob_query(
                scm, query([term([("V3", y)], [("V%d" % i, x)])]))

    def test_empty_do_is_marginal(self):
        rng = random.Random(3)
        scm = build_dag_model(["V1", "V2"], [("V1", "V2")], rng)
        g = ab.make_graph(("V1", "V2"), (("V1", "V2"),), ())
        dec = ab.identify_effect(g, ab.IdQuery(outcome={"V2": 1}, do={}))
        table = ab.joint_distribution(scm, ("V1", "V2"))
        got = ab.evaluate_estimand(dec.estimand, table)
        assert got == ab.prob_query(scm, query([term([("V2", 1)])]))


class TestSimplify:
    def test_normalization_sum_absorbed(self):
        inner = ab.Product((
            ab.Lookup((("Z", ab.Sym("z")),), (("X", 1),)),
            ab.Lookup((("Y", 1),), (("X", 1),))))
        simplified = ab.simplify_estimand(ab.Sum("Z", "z", inner))
        assert ab.render_estimand(simplified) == "P(Y=1|X=1)"

    def test_needed_sum_kept(self):
        inner = ab.Product((
            ab.Lookup((("Z", ab.Sym("z")),)),
            ab.Lookup((("Y", 1),), (("Z", ab.Sym("z")),))))
        simplified = ab.simplify_estimand(ab.Sum("Z", "z", inner))
        assert "sum_z" in ab.render_estimand(simplified)


class TestAbstractIdentify:
    def _projected(self, scm, cm):
        rep = ab.check_aic(scm, cm)
        cdag = ab.build_cdag(ab.induce_diagram(rep.scm), cm)
        return ab.build_projected_cdag(cdag, rep.violators)

    def test_insurance_effect(self, insurance, insurance_cm):
        g = self._projected(insurance, insurance_cm)
        hq = query([term([("Y", 1)], [("XH", "xC")])])
        dec = ab.abstract_identify(g, hq)
        assert dec.identifiable
        pushed = ab.marginal_pushforward(
            ab.joint_distribution(insurance, ("Z", "X", "Y")), insurance_cm)
        assert ab.evaluate_estimand(dec.estimand, pushed) == \
            Fraction(149, 250)

    def test_hospital_effect_is_not_identifiable(self, hospital,
                                                 hospital_cm):
        g = self._projected(hospital, hospital_cm)
        hq = query([term([("Y", 1)], [("XH", "xC")])])
        dec = ab.abstract_identify(g, hq)
        assert not dec.identifiable

    def test_rejects_other_data_regimes(self, insurance, insurance_cm):
        g = self._projected(insurance, insurance_cm)
        hq = query([term([("Y", 1)], [("XH", "xC")])])
        with pytest.raises(ab.UnsupportedData):
            ab.abstract_identify(g, hq, data="interventional")

    def test_rejects_cross_world_queries(self, insurance, insurance_cm):
        g = self._projected(insurance, insurance_cm)
        hq = query([term([("Y", 1)], [("XH", "xC")]),
                    term([("Y", 0)], [("XH", "xE")])])
        with pytest.raises(ab.UnsupportedData):
            ab.abstract_identify(g, hq)
