"""Exact valuation across the three layers.

Expected values are derived by hand from the fixture tables; the comments
show the arithmetic so every constant can be rechecked independently.
"""

import os
from fractions import Fraction

import pytest

import abstrakt as ab
from conftest import (atom, constant_soft_intervention, fixture_path, term,
                      query)


class TestObservational:
    def test_root_marginal(self, insurance):
        assert ab.prob_query(insurance, query([term([("Z", "z1")])])) == \
            Fraction(7, 10)

    def test_mixture_marginal(self, insurance):
        # P(X=x1) = .7 * .4 + .3 * .1
        assert ab.prob_query(insurance, query([term([("X", "x1")])])) == \
            Fraction(31, 100)

    def test_outcome_marginal(self, insurance):
        # P(Y=1) = .31 * .9 + .19 * .1 + .5 * .9 = .748
        assert ab.prob_query(insurance, query([term([("Y", 1)])])) == \
            Fraction(187, 250)

    def test_conditioning(self, insurance):
        # P(Y=1 | Z=z1) = .4*.9 + .1*.1 + .5*.9 = .82
        got = ab.prob_query(insurance, query([term([("Y", 1)])],
                                             [term([("Z", "z1")])]))
        assert got == Fraction(41, 50)
        got = ab.prob_query(insurance, query([term([("Y", 1)])],
                                             [term([("Z", "z2")])]))
        assert got == Fraction(29, 50)

    def test_total_probability(self, insurance):
        # .7 * .82 + .3 * .58 recovers the marginal
        assert Fraction(7, 10) * Fraction(41, 50) + \
            Fraction(3, 10) * Fraction(29, 50) == Fraction(187, 250)

    def test_joint_atom(self, insurance):
        got = ab.prob_query(
            insurance, query([term([("Z", "z1"), ("X", "x1"), ("Y", 1)])]))
        # .7 * .4 * .9
        assert got == Fraction(63, 250)


class TestInterventional:
    def test_do_x1(self, insurance):
        got = ab.prob_query(insurance, query([term([("Y", 1)],
                                                   [("X", "x1")])]))
        assert got == Fraction(9, 10)

    def test_do_x2(self, insurance):
        got = ab.prob_query(insurance, query([term([("Y", 1)],
                                                   [("X", "x2")])]))
        assert got == Fraction(1, 10)

    def test_intervention_cuts_conditioning(self, insurance):
        # Z is upstream of X only; under do(X) it carries no information
        got = ab.prob_query(insurance, query([term([("Y", 1)], [("X", "x1")])],
                                             [term([("Z", "z2")])]))
        assert got == Fraction(9, 10)


class TestCounterfactual:
    def test_cross_world_conjunction(self, insurance):
        # Y[x1] reads UY1, Y[x2] reads UY2, independent blocks
        both = query([term([("Y", 1)], [("X", "x1")]),
                      term([("Y", 1)], [("X", "x2")])])
        assert ab.prob_query(insurance, both) == Fraction(9, 100)

    def test_cross_world_disagreement(self, insurance):
        q = query([term([("Y", 1)], [("X", "x1")]),
                   term([("Y", 0)], [("X", "x2")])])
        assert ab.prob_query(insurance, q) == Fraction(81, 100)

    def test_cross_world_table_normalizes(self, insurance):
        total = Fraction(0)
        for a in (0, 1):
            for b in (0, 1):
                q = query([term([("Y", a)], [("X", "x1")]),
                           term([("Y", b)], [("X", "x2")])])
                total += ab.prob_query(insurance, q)
        assert total == 1

    def test_counterfactual_given_factual(self, insurance):
        # observing X=x1, Y=1 pins UY1; Y[x2] still only reads UY2
        q = query([term([("Y", 1)], [("X", "x2")])],
                  [term([("X", "x1"), ("Y", 1)])])
        assert ab.prob_query(insurance, q) == Fraction(1, 10)

    def test_zero_conditioning_raises(self, insurance):
        q = query([term([("Y", 1)])],
                  [term([("Z", "z1"), ("Z", "z2")])])
        with pytest.raises(ab.ZeroConditioning):
            ab.prob_query(insurance, q)


class TestStochasticInterventions:
    def _soft(self, key):
        return constant_soft_intervention(
            targets=("X",), candidates=(("x1",), ("x3",)),
            probs=(Fraction(1, 2), Fraction(1, 2)), share_key=key)

    def test_mixture_value(self, insurance):
        t = ab.QueryTerm(outcomes=(atom("Y", 1),), soft=(self._soft(("s",)),))
        # .5 * .9 + .5 * .9
        assert ab.prob_query(insurance, query([t])) == Fraction(9, 10)

    def test_shared_draw_across_terms(self, insurance):
        si = self._soft(("s",))
        q = query([ab.QueryTerm(outcomes=(atom("Y", 1),), soft=(si,)),
                   ab.QueryTerm(outcomes=(atom("Y", 1),), soft=(si,))])
        # both worlds reuse the same candidate, so the square collapses
        assert ab.prob_query(insurance, q) == Fraction(9, 10)

    def test_independent_draws_across_terms(self, insurance):
        q = query([ab.QueryTerm(outcomes=(atom("Y", 1),),
                                soft=(self._soft(("s1",)),)),
                   ab.QueryTerm(outcomes=(atom("Y", 1),),
                                soft=(self._soft(("s2",)),))])
        # E[(.5 a + .5 b)^2] with a ~ B(9/10), b ~ B(9/10) independent
        assert ab.prob_query(insurance, q) == Fraction(171, 200)

    def test_reused_share_key_sees_new_weights(self):
        # Cached worlds are keyed by what an intervention sets, not by its
        # share key, so a model that already answered under one weighting
        # answers the next one afresh.
        scm = ab.load_scm(fixture_path("insurance.json"))

        def p_y1(weights):
            si = constant_soft_intervention(
                ("X",), (("x1",), ("x2",), ("x3",)), weights, share_key="s")
            t = ab.QueryTerm(outcomes=(atom("Y", 1),), soft=(si,))
            return ab.prob_query(scm, query([t]))

        assert p_y1((1, 0, 0)) == Fraction(9, 10)
        assert p_y1((0, 1, 0)) == Fraction(1, 10)

    @staticmethod
    def _same_table(targets):
        # x1 with 3/4 and x2 with 1/4, under the share key ("k",)
        return constant_soft_intervention(
            targets, (("x1",), ("x2",)), (Fraction(3, 4), Fraction(1, 4)),
            share_key=("k",))

    def test_equal_interventions_share_a_key(self, insurance):
        """Two equal interventions under one key are one draw, in one term
        or across two: P(Y=1) = 3/4 * 9/10 + 1/4 * 1/10 = 7/10."""
        a, b = self._same_table(("X",)), self._same_table(("X",))
        y1 = (atom("Y", 1),)
        for q in (query([ab.QueryTerm(outcomes=y1, soft=(a, b))]),
                  query([ab.QueryTerm(outcomes=y1, soft=(a,)),
                         ab.QueryTerm(outcomes=y1, soft=(b,))])):
            assert ab.prob_query(insurance, q) == Fraction(7, 10)

    def test_key_shared_by_different_targets_is_refused(self, insurance):
        """Interventions on X and on Z that agree on candidates, breaks
        and cell maps cannot share one key: in one term the second was
        dropped (7/10, the answer for X's alone), across two terms a
        mechanism lookup failed."""
        on_x, on_z = self._same_table(("X",)), self._same_table(("Z",))
        y1 = (atom("Y", 1),)
        for terms in ([ab.QueryTerm(outcomes=y1, soft=(on_x, on_z))],
                      [ab.QueryTerm(outcomes=y1, soft=(on_x,)),
                       ab.QueryTerm(outcomes=y1, soft=(on_z,))]):
            with pytest.raises(ab.DomainMismatch, match="share key"):
                ab.prob_query(insurance, query(terms))
            with pytest.raises(ab.DomainMismatch, match="share key"):
                ab.counterfactual_table(insurance, terms)


class TestJointTables:
    def test_observational_table(self, insurance):
        t = ab.joint_distribution(insurance, ("Z", "X", "Y"))
        assert sum(t.probs.values()) == 1
        assert t.prob(("z1", "x1", 1)) == Fraction(63, 250)
        assert t.prob(("z2", "x2", 0)) == \
            Fraction(3, 10) * Fraction(2, 5) * Fraction(9, 10)

    def test_interventional_table(self, insurance):
        t = ab.joint_distribution(insurance, ("Z", "Y"),
                                  (ab.HardIntervention("X", "x1"),))
        assert t.prob(("z1", 1)) == Fraction(7, 10) * Fraction(9, 10)
        assert sum(t.probs.values()) == 1

    def test_interventions_from_a_generator(self, insurance):
        listed = [ab.HardIntervention("X", "x1"), ab.HardIntervention("Z", "z2")]
        t = ab.joint_distribution(insurance, ("Z", "Y"),
                                  (i for i in listed))
        assert t.probs == ab.joint_distribution(insurance, ("Z", "Y"),
                                                listed).probs
        assert t.prob(("z2", 1)) == Fraction(9, 10)
        with pytest.raises(ab.DomainMismatch):
            ab.joint_distribution(insurance, ("Y",),
                                  (i for i in ["X=x1"]))

    def test_pushforward(self, insurance, insurance_cm):
        t = ab.joint_distribution(insurance, ("Z", "X", "Y"))
        pushed = ab.marginal_pushforward(t, insurance_cm)
        assert pushed.variables == ("Z", "XH", "Y")
        # P(z1, xC, 1) = .7 * (.4*.9 + .1*.1)
        assert pushed.prob(("z1", "xC", 1)) == Fraction(259, 1000)
        assert sum(pushed.probs.values()) == 1


def drawn_x(share_key=("soft", "X")):
    return constant_soft_intervention(
        ("X",), [("x1",), ("x2",)], (Fraction(1, 2), Fraction(1, 2)),
        share_key=share_key)


MARKER = ab.SigmaMarker("XH", "xC")
# a cell grid that stops at 1/2: its one cell has width 1/2
HALF = ab.SoftIntervention(
    targets=("X",), share_key=("half",), candidates=(("x1",),),
    breaks=(Fraction(0), Fraction(1, 2)), cell_map={((), None): (0,)})


def pushed(cholesterol_cm, variable):
    table = ab.DistributionTable(variables=(variable,), domains=((0, 1),),
                                 probs={(0,): Fraction(1)})
    return ab.marginal_pushforward(table, cholesterol_cm)


class TestRefusals:
    """Every check of valuation's inputs, each met by one input."""

    @pytest.mark.parametrize("call, kind, message", [
        (lambda m, cm: ab.prob_query(m, query([term([("Y", 1)],
                                                    [("W", 0)])])),
         ab.UnknownVariable, "cannot intervene on unknown variable 'W'"),
        (lambda m, cm: ab.prob_query(m, query([term([("Y", 1)],
                                                    [("X", "x9")])])),
         ab.DomainMismatch,
         "intervention value 'x9' is outside the domain of 'X'"),
        (lambda m, cm: ab.prob_query(m, query([term(
            [("Y", 1)], [("X", "x1"), ("X", "x2")])])),
         ab.DomainMismatch, "variable 'X' intervened twice with different "
         "values"),
        (lambda m, cm: ab.prob_query(m, query([ab.QueryTerm(
            outcomes=(atom("Y", 1),), soft=(MARKER,))])),
         ab.DomainMismatch, "term carries an unresolved stochastic "
         "intervention %r; resolve it against a model and policy first"
         % (MARKER,)),
        (lambda m, cm: ab.prob_query(m, query([ab.QueryTerm(
            outcomes=(atom("Y", 1),), soft=(constant_soft_intervention(
                ("W",), [(0,), (1,)], (Fraction(1, 2), Fraction(1, 2)),
                share_key=("soft", "W")),))])),
         ab.UnknownVariable, "cannot intervene on unknown variable 'W'"),
        (lambda m, cm: ab.prob_query(m, query([ab.QueryTerm(
            outcomes=(atom("Y", 1),),
            hard=(ab.HardIntervention("X", "x1"),), soft=(drawn_x(),))])),
         ab.DomainMismatch, "variable 'X' receives two interventions in "
         "one term"),
        (lambda m, cm: ab.prob_query(m, query([term([("W", 0)])])),
         ab.UnknownVariable, "unknown outcome variable 'W'"),
        (lambda m, cm: ab.prob_query(m, query([term([("X", "x1")],
                                                    [("X", "x1")])])),
         ab.DomainMismatch, "variable 'X' is both intervened and "
         "constrained in one term"),
        (lambda m, cm: ab.prob_query(m, query([ab.QueryTerm(
            outcomes=(atom("Y", 1),), soft=(HALF,))])),
         ab.DomainMismatch, "cell widths of ('half',) do not sum to 1"),
        (lambda m, cm: ab.prob_query(m, query([])),
         ab.DomainMismatch, "query has no terms"),
        (lambda m, cm: ab.counterfactual_table(m, []),
         ab.DomainMismatch, "query has no terms"),
        (lambda m, cm: pushed(cm, "HDL"),
         ab.NotClusterUnion, "table covers only part of cluster 'TC'"),
        (lambda m, cm: pushed(cm, "W"),
         ab.NotClusterUnion, "variables W belong to no cluster"),
    ], ids=["hard-unknown", "hard-domain", "hard-twice", "unresolved",
            "soft-unknown", "two-interventions", "outcome-unknown",
            "intervened-outcome", "cell-widths", "no-terms",
            "no-table-terms", "part-of-cluster", "no-cluster"])
    def test_refused(self, insurance, cholesterol_cm, call, kind, message):
        with pytest.raises(kind) as err:
            call(insurance, cholesterol_cm)
        assert err.value.kind == kind.kind
        assert err.value.message == message


class TestBudget:
    def test_tiny_budget_raises(self, insurance):
        with pytest.raises(ab.SizeExceeded):
            ab.prob_query(insurance, query([term([("Y", 1)])]), budget=5)

    def test_env_override(self, insurance):
        old = os.environ.get("ABSTRAKT_BUDGET")
        os.environ["ABSTRAKT_BUDGET"] = "5"
        try:
            with pytest.raises(ab.SizeExceeded):
                ab.prob_query(insurance, query([term([("Y", 1)])]))
        finally:
            if old is None:
                del os.environ["ABSTRAKT_BUDGET"]
            else:
                os.environ["ABSTRAKT_BUDGET"] = old

    def test_explicit_budget_beats_env(self, insurance):
        old = os.environ.get("ABSTRAKT_BUDGET")
        os.environ["ABSTRAKT_BUDGET"] = "5"
        try:
            got = ab.prob_query(insurance, query([term([("Y", 1)])]),
                                budget=10 ** 7)
            assert got == Fraction(187, 250)
        finally:
            if old is None:
                del os.environ["ABSTRAKT_BUDGET"]
            else:
                os.environ["ABSTRAKT_BUDGET"] = old


class TestFormatting:
    def test_format_rational(self):
        assert ab.format_rational(Fraction(9, 10)) == "9/10"
        assert ab.format_rational(Fraction(1)) == "1"

    def test_format_decimal(self):
        assert ab.format_decimal(Fraction(9, 10)).startswith("0.9")
        assert ab.format_decimal(Fraction(1, 3), digits=4) == "0.3333"
