"""The three workloads. Each class builds its inputs from a seed in its
constructor (the set-up the benchmark times) and then runs numbered units
of work through ``step``. Every unit checks its answers against a
reference that does not come from earlier output of the same route.

Library and CLI calls go through module attributes (``valuation.prob_query``
rather than a name imported once), so a tracer installed later sees them.
"""

import copy
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from abstrakt import (abstraction, cli, graphs, identify, projection, scm,
                      valuation)
from abstrakt.abstraction import SigmaMarker

import models

BUDGET = 10_000_000


class UnitResult:
    __slots__ = ("ops", "failed", "latencies")

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.latencies = []   # seconds per operation

    def add(self, ok, seconds, weight=1):
        self.ops += weight
        if not ok:
            self.failed += weight
        self.latencies.extend([seconds / weight] * weight)


class Workload:
    name = ""
    round_units = 1     # a run stops only after a multiple of this

    def __init__(self, seed, out_dir, tracer=None):
        self.tracer = tracer
        self.supports = {}
        self._reported = 0

    def report(self, what, detail):
        """Describe a failed operation on stderr (the first few only)."""
        self._reported += 1
        if self._reported <= 5:
            print("FAILED %s: %s" % (what, detail), file=sys.stderr)

    def record_support(self, label, model):
        self.supports[label] = model.exogenous_support_size()

    def close(self):
        pass


def _load_fixture(name):
    low = scm.load_scm(models.fixture_path(name + ".json"))
    cm = abstraction.load_clusters(
        low, models.fixture_path(name + "_clusters.json"))
    return low, cm


# ---------------------------------------------------------------------------


class ClusterSweep(Workload):
    """Cluster queries over insurance, each answered on the projected high
    model and on the low model and compared exactly. One unit is one query.

    The seed draws the order. Three queries in four are hard-only and one
    carries a tilde intervention; the two kinds differ about twofold in
    cost, and at this mix the median falls among the hard-only queries and
    the 90th percentile among the tilde ones instead of in the gap between
    them, where it would jump from run to run. Within each kind, every
    prefix of the order holds each query shape in proportion."""

    name = "cluster_sweep"

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        self.low, self.cm = _load_fixture("insurance")
        self.high = projection.construct_projected_abstraction(
            self.low, self.cm, budget=BUDGET)
        self.record_support("insurance", self.low)
        self.record_support("insurance.high", self.high.scm)
        rng = random.Random(seed)
        hard, tilde, known = [], [], []
        for item in models.cluster_queries():
            if item[1] is not None:
                known.append(item)
            elif any(t.soft for t in item[0].terms):
                tilde.append(item)
            else:
                hard.append(item)
        hard = _stratified_order(hard, rng)
        tilde = known + _stratified_order(tilde, rng)
        self.items = []
        for j in range(len(hard) // 3):
            self.items += hard[3 * j:3 * j + 3] + [tilde[j % len(tilde)]]

    def step(self, i):
        res = UnitResult()
        query, want = self.items[i % len(self.items)]
        start = time.perf_counter()
        try:
            high_value = valuation.prob_query(
                self.high.scm, projection.resolve_sigma_high(self.high, query),
                budget=BUDGET)
            lowered = abstraction.lower_query(self.cm, query)
            low_value = valuation.prob_query(
                self.low, projection.resolve_sigma(self.low, self.cm, lowered,
                                                   budget=BUDGET),
                budget=BUDGET)
            ok = high_value == low_value and want in (None, high_value)
            detail = "high %s, low %s, expected %s" % (high_value, low_value,
                                                       want)
        except Exception:
            ok, detail = False, traceback.format_exc()
        res.add(ok, time.perf_counter() - start)
        if not ok:
            self.report("cluster query %d" % (i % len(self.items)), detail)
        return res


def _query_shape(query):
    terms = tuple(query.terms) + tuple(query.conditioning)
    return (len(query.terms), len(query.conditioning),
            sum(1 for t in terms if t.soft), sum(len(t.hard) for t in terms))


def _stratified_order(items, rng):
    """Shuffle within each query shape, then interleave the shapes evenly."""
    strata = {}
    for item in items:
        strata.setdefault(_query_shape(item[0]), []).append(item)
    keyed = []
    for shape in sorted(strata):
        group = strata[shape]
        rng.shuffle(group)
        for j, item in enumerate(group):
            keyed.append(((j + rng.random()) / len(group), item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _key, item in keyed]


# ---------------------------------------------------------------------------


class CtfbnAudit(Workload):
    """Diagram consistency checks on projected models. One unit is one
    ctfbn_check call; a pass runs every audit once on fresh copies of the
    models, and runs end only at round boundaries, so every run does the
    same mix. The seed draws the four lossy chains; the order of the audits
    is fixed because audits of one model share its world cache. An
    operation is one check as counted by CtfbnReport.checked."""

    name = "ctfbn_audit"

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        rng = random.Random(seed)
        self.highs = {}
        # (label, model key, graph, expected verdict, extra check)
        self.audits = []
        for name in models.FIXTURE_MODELS:
            low, cm = _load_fixture(name)
            self._add_model(name, low, cm)
        chain_cm = models.LOSSY_CHAIN_CLUSTERS

        def violators(doc):
            low = scm.validate_scm(doc)
            cm = abstraction.validate_clusters(low, chain_cm)
            return abstraction.check_aic(low, cm, budget=BUDGET).violators

        # Two chains of each kind: the violator chains' checks are then the
        # slowest sixth of all checks, so the 90th percentile falls inside
        # them instead of on their edge.
        for k in (1, 2):
            pair = models.lossy_chain_pair(rng, violators)
            for kind, doc in zip(("violator", "clean"), pair):
                low = scm.validate_scm(doc)
                self._add_model("chain%d.%s" % (k, kind), low,
                                abstraction.validate_clusters(low, chain_cm))
        # A round is two passes, so each audit's latency is sampled at least
        # twice per run; audits take seconds each, and a single sample is at
        # the mercy of whatever else the host runs meanwhile.
        self.round_units = 2 * len(self.audits)

    def _add_model(self, key, low, cm):
        high = projection.construct_projected_abstraction(low, cm,
                                                          budget=BUDGET)
        self.highs[key] = high
        self.record_support(key, low)
        self.record_support(key + ".high", high.scm)
        report = abstraction.check_aic(low, cm, budget=BUDGET)
        cdag = graphs.build_cdag(scm.induce_diagram(low), cm)
        proj = graphs.build_projected_cdag(cdag, report.violators)
        self.audits.append((key + ".projected", key, proj, True, None))
        if key != "insurance":
            return
        # The unprojected graph misses the edge Z -> Y, which the
        # exclusion check exposes with the two known values.
        self.audits.append((key + ".unprojected", key, cdag, False,
                            _has_exclusion(Fraction(37, 50),
                                           Fraction(149, 250))))
        for edge in sorted(set(proj.directed) - set(cdag.directed)):
            pruned = graphs.make_graph(
                proj.nodes, tuple(e for e in proj.directed if e != edge),
                proj.bidirected, projected=True, violators=proj.violators)
            self.audits.append(("%s.pruned.%s>%s" % ((key,) + edge), key,
                                pruned, False, None))
        for edge in sorted(set(proj.bidirected) - set(cdag.bidirected)):
            pruned = graphs.make_graph(
                proj.nodes, proj.directed,
                tuple(e for e in proj.bidirected if e != edge),
                projected=True, violators=proj.violators)
            self.audits.append(("%s.pruned.%s<>%s" % ((key,) + edge), key,
                                pruned, False, None))

    def step(self, i):
        k = i % len(self.audits)
        if k == 0:
            self.fresh = {}
            for key, high in self.highs.items():
                self.fresh[key] = copy.deepcopy(high.scm)
                if self.tracer is not None:
                    self.tracer.mark_high(self.fresh[key])
        label, key, graph, expect_pass, extra = self.audits[k]
        res = UnitResult()
        start = time.perf_counter()
        try:
            report = graphs.ctfbn_check(graph, self.fresh[key], budget=BUDGET)
            ok = (report.checked > 0 and report.passed == expect_pass
                  and (extra is None or extra(report)))
            weight = max(report.checked, 1)
            detail = "passed=%s checked=%d" % (report.passed, report.checked)
        except Exception:
            ok, weight, detail = False, 1, traceback.format_exc()
        res.add(ok, time.perf_counter() - start, weight)
        if not ok:
            self.report("audit %s" % label, detail)
        return res


def _has_exclusion(a, b):
    def check(report):
        return any(v.kind == "exclusion" and {v.lhs, v.rhs} == {a, b}
                   for v in report.violations)
    return check


# ---------------------------------------------------------------------------


class CliRequests(Workload):
    """A closed loop with one client calling ``abstrakt.cli.run`` in
    process; every request loads its inputs cold from files written during
    set-up. One unit is one request; the request list repeats in a seeded
    order."""

    name = "cli_requests"

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        rng = random.Random(seed)
        self.requests = []    # (argv, check of CommandResult)
        try:
            self._build(rng)
        except BaseException:
            self.close()
            raise
        rng.shuffle(self.requests)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _write(self, name, doc):
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _add(self, argv, check, times=1):
        self.requests.extend([(argv, check)] * times)

    def _model(self, name, doc, cluster_doc):
        """Write a model, its cluster map and its projected model; return
        the three paths, the validated low model and the projected model."""
        path = self._write(name + ".json", doc)
        cpath = self._write(name + "_clusters.json", cluster_doc)
        low = scm.validate_scm(doc)
        cm = abstraction.validate_clusters(low, cluster_doc)
        high = projection.construct_projected_abstraction(low, cm,
                                                          budget=BUDGET)
        self.record_support(name, low)
        self.record_support(name + ".high", high.scm)
        hpath = os.path.join(self.tmp, name + "_high.json")
        projection.save_high(high, hpath)
        return (path, cpath, hpath), low, high

    # Repeat counts shape the mix of 105 requests. The cheap inspections
    # (validate, identify, cdag, aic-check; 3-5 ms each) are 70, so the
    # median falls well inside them. Verify on the two 576-state projected
    # models is the slowest 16, and insurance verify (12 of them) spans the
    # 90th percentile. The other 19 requests (eval, estimate, abstract,
    # sample and the smaller verifies) lie between. Without this shaping
    # both percentiles sit on a gap between two request kinds and jump
    # from run to run.

    def _build(self, rng):
        b = ["--budget", str(BUDGET)]
        paths = {}
        for name in models.FIXTURE_MODELS:
            doc = models.fixture_doc(name + ".json")
            cdoc = models.fixture_doc(name + "_clusters.json")
            paths[name], _low, high = self._model(name, doc, cdoc)
            path, cpath, hpath = paths[name]
            self._add(["validate", "--scm", path, "--clusters", cpath] + b,
                      _validate_check(doc), times=5)
            self._add(["cdag", "--project", "--scm", path, "--clusters",
                       cpath] + b,
                      _cdag_check(scm.induce_diagram(high.scm)), times=4)
        ins, ins_c, ins_high = paths["insurance"]
        chol, chol_c, chol_high = paths["cholesterol"]
        hosp, _hosp_c, hosp_high = paths["hospital"]
        self._add(["verify", "--scm", ins, "--high", ins_high] + b,
                  _verify_check(None), times=12)
        self._add(["verify", "--scm", hosp, "--high", hosp_high] + b,
                  _verify_check(5184), times=4)
        self._add(["verify", "--scm", chol, "--high", chol_high] + b,
                  _verify_check(None))
        self._add(["aic-check", "--scm", ins, "--clusters", ins_c] + b,
                  _payload_check("violators", ["XH"]), times=4)
        self._add(["aic-check", "--scm", chol, "--clusters", chol_c] + b,
                  _payload_check("violators", ["TC"]), times=4)
        self._add(["abstract", "--scm", ins, "--clusters", ins_c, "-o",
                   os.path.join(self.tmp, "abstract_out.json")] + b,
                  _payload_check("violators", ["XH"]))
        for text, want in (("P(Y[X=x1]=1)", Fraction(9, 10)),
                           ("P(Y[X=x2]=1)", Fraction(1, 10))):
            self._add(["eval", "--scm", ins, "--query", text] + b,
                      _value_check(want))
        for text, want in (("P(Y[~XH=xC]=1)", Fraction(149, 250)),
                           ("P(Y[~XH=xC]=1 | Z=z1)", Fraction(37, 50))):
            self._add(["eval", "--scm", ins, "--clusters", ins_c,
                       "--query", text] + b, _value_check(want))
        self._add(["identify", "--scm", ins, "--clusters", ins_c,
                   "--query", "P(Y[XH=xC]=1)"] + b, _identifiable(True),
                  times=5)
        self._add(["estimate", "--scm", ins, "--clusters", ins_c,
                   "--query", "P(Y[XH=xC]=1)"] + b,
                  _value_check(Fraction(149, 250)))
        bow = self._write("bow_graph.json", models.BOW_GRAPH)
        self._add(["identify", "--graph", bow, "--query", "P(Y[X=1]=1)"] + b,
                  _identifiable(False), times=5)
        seed_arg = str(rng.randrange(1 << 16))
        for high_path, context in ((ins_high, '{"parents": {"Z": "z1"}}'),
                                   (hosp_high, '{"shared": {"UZ": "z1"}}')):
            argv = ["sample", "--high", high_path, "--value", "XH=xC",
                    "--context", context, "--n", "200", "--seed", seed_arg]
            self._add(argv, _sample_check(cli.run(list(argv)), {"x1", "x2"}))
        self._build_generated(rng, b)

    def _build_generated(self, rng, b):
        nodes = ["V1", "V2", "V3", "V4"]
        edges = [("V1", "V2"), ("V1", "V3"), ("V2", "V3"), ("V2", "V4"),
                 ("V3", "V4")]
        doc = models.dag_model_doc(nodes, edges, rng)
        cdoc = models.identity_cluster_doc(doc)
        (path, cpath, _hpath), low, _high = self._model("dag", doc, cdoc)
        graph_doc = {"nodes": nodes, "directed": [list(e) for e in edges],
                     "bidirected": []}
        gpath = self._write("dag_graph.json", graph_doc)
        g = graphs.graph_from_doc(graph_doc)
        table = valuation.joint_distribution(low, tuple(nodes), budget=BUDGET)
        self._add(["validate", "--scm", path] + b, _validate_check(doc),
                  times=5)
        for text, idq, times in (
                ("P(V4[V1=1]=1)",
                 identify.IdQuery(outcome={"V4": 1}, do={"V1": 1}), 1),
                ("P(V4[V1=1]=1 | V2[V1=1]=1)",
                 identify.IdQuery(outcome={"V4": 1}, do={"V1": 1},
                                  given={"V2": 1}), 1)):
            # eval enumerates; the reference comes from identification.
            decision = identify.identify_effect(g, idq)
            want = identify.evaluate_estimand(decision.estimand, table)
            self._add(["eval", "--scm", path, "--query", text] + b,
                      _value_check(want), times=times)
            self._add(["identify", "--graph", gpath, "--query", text] + b,
                      _identifiable(True), times=5)
        # estimate identifies; the reference comes from enumeration.
        effect = valuation.CounterfactualQuery(terms=(valuation.QueryTerm(
            outcomes=(models.atom("V4", 1),),
            hard=(valuation.HardIntervention("V1", 1),)),))
        self._add(["estimate", "--scm", path, "--clusters", cpath,
                   "--query", "P(V4[V1=1]=1)"] + b,
                  _value_check(valuation.prob_query(low, effect,
                                                    budget=BUDGET)))

        cm_doc = models.LOSSY_CHAIN_CLUSTERS

        def violators(chain_doc):
            chain = scm.validate_scm(chain_doc)
            cm = abstraction.validate_clusters(chain, cm_doc)
            return abstraction.check_aic(chain, cm, budget=BUDGET).violators

        pair = models.lossy_chain_pair(rng, violators)
        for name, chain_doc in zip(("chain_violator", "chain_clean"), pair):
            (path, cpath, hpath), low, high = self._model(name, chain_doc,
                                                          cm_doc)
            expected = [n for n, s in high.splits.items() if s.violator]
            self._add(["abstract", "--scm", path, "--clusters", cpath, "-o",
                       os.path.join(self.tmp, name + "_out.json")] + b,
                      _payload_check("violators", expected))
            self._add(["verify", "--scm", path, "--high", hpath] + b,
                      _verify_check(None))
            self._add(["validate", "--scm", path, "--clusters", cpath] + b,
                      _validate_check(chain_doc), times=5)
            # eval on the low model against the projected high model.
            hq = valuation.CounterfactualQuery(terms=(valuation.QueryTerm(
                outcomes=(models.atom("C", 1),),
                soft=(SigmaMarker("BH", "lo"),)),))
            want = valuation.prob_query(
                high.scm, projection.resolve_sigma_high(high, hq),
                budget=BUDGET)
            self._add(["eval", "--scm", path, "--clusters", cpath,
                       "--query", "P(C[~BH=lo]=1)"] + b, _value_check(want))
            if not expected:
                # estimate identifies; the reference is the high model.
                hq = valuation.CounterfactualQuery(terms=(valuation.QueryTerm(
                    outcomes=(models.atom("C", 1),),
                    hard=(valuation.HardIntervention("BH", "lo"),)),))
                self._add(["estimate", "--scm", path, "--clusters", cpath,
                           "--query", "P(C[BH=lo]=1)"] + b,
                          _value_check(valuation.prob_query(
                              high.scm, hq, budget=BUDGET)))

    def step(self, i):
        res = UnitResult()
        argv, check = self.requests[i % len(self.requests)]
        start = time.perf_counter()
        try:
            result = cli.run(list(argv))
            ok = check(result)
            detail = "exit %d: %s" % (result.exit_code,
                                      json.dumps(result.payload)[:300])
        except Exception:
            ok, detail = False, traceback.format_exc()
        res.add(ok, time.perf_counter() - start)
        if not ok:
            self.report(" ".join(argv[:1] + [os.path.basename(a)
                                             for a in argv[1:]]), detail)
        return res


def _ok(result):
    return result.exit_code == 0


def _validate_check(doc):
    names = [v["name"] for v in doc["endogenous"]]
    support = models.doc_support_size(doc)

    def check(result):
        p = result.payload
        return (_ok(result) and p["support"] == support
                and [v["name"] for v in p["variables"]] == names)
    return check


def _verify_check(units):
    def check(result):
        p = result.payload
        return (_ok(result) and p["passed"] is True and p["checked"] > 0
                and units in (None, p["checked"]))
    return check


def _cdag_check(diagram):
    directed = {tuple(e) for e in diagram.directed}
    bidirected = {frozenset(e) for e in diagram.bidirected}

    def check(result):
        p = result.payload
        return (_ok(result)
                and {tuple(e) for e in p["directed"]} == directed
                and {frozenset(e) for e in p["bidirected"]} == bidirected)
    return check


def _payload_check(key, want):
    def check(result):
        return _ok(result) and result.payload[key] == want
    return check


def _value_check(want):
    def check(result):
        return _ok(result) and Fraction(result.payload["rational"]) == want
    return check


def _identifiable(expected):
    def check(result):
        return (result.exit_code == (0 if expected else 5)
                and result.payload["identifiable"] is expected)
    return check


def _sample_check(reference, fiber):
    """Same-seed runs reproduce the draws of a set-up run, and every draw
    is a member tuple of the sampled value."""
    if reference.exit_code != 0:
        raise RuntimeError("set-up sample request failed: %r"
                           % reference.payload)
    draws = reference.payload["draws"]
    if not draws or any(len(d) != 1 or d[0] not in fiber for d in draws):
        raise RuntimeError("set-up sample draws fall outside the fiber")

    def check(result):
        return _ok(result) and result.payload["draws"] == draws
    return check


WORKLOADS = {w.name: w for w in (ClusterSweep, CtfbnAudit, CliRequests)}
