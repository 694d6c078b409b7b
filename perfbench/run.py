"""Benchmark for the abstrakt package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cluster_sweep --seed 1 \\
        --seconds 20 --trace 0

Workloads (see workloads.py): ``cluster_sweep``, ``ctfbn_audit`` and
``cli_requests``. With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The line before it records the machine,
the model sizes and the raw samples; the same record is written under
``perfbench/out/``.

The program is imported from ``src/`` of the checkout and nowhere else.
The process pins PYTHONHASHSEED to 0 and clears ABSTRAKT_BUDGET by
re-executing itself once, then runs in this one process and thread.
"""

import argparse
import bisect
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = ("scm", "valuation", "abstraction", "projection", "graphs",
          "identify", "cli")

# Functions whose self time and call count are reported; every other
# public function still counts towards its module's total.
TRACED_FUNCTIONS = (
    "scm.load_scm", "scm.validate_scm", "scm.induce_diagram",
    "scm.topological_order", "scm.parse_probability",
    "scm.enumeration_budget",
    "valuation.prob_query", "valuation.evaluate_unit",
    "valuation.normalize_unit", "valuation.joint_distribution",
    "valuation.marginal_pushforward",
    "abstraction.validate_clusters", "abstraction.load_clusters",
    "abstraction.check_aic", "abstraction.lower_query",
    "abstraction.translate_query", "abstraction.apply_tau",
    "projection.resolve_sigma", "projection.resolve_sigma_high",
    "projection.sigma_machinery", "projection.construct_projected_abstraction",
    "projection.verify_partial_projection", "projection.projected_sample",
    "projection.project_full", "projection.load_high", "projection.save_high",
    "projection.high_from_doc",
    "graphs.ctfbn_check", "graphs.build_cdag", "graphs.build_projected_cdag",
    "graphs.c_components", "graphs.load_graph",
    "identify.identify_effect", "identify.abstract_identify",
    "identify.evaluate_estimand", "identify.simplify_estimand",
    "identify.render_estimand",
    "cli.run", "cli.parse_query", "cli.bind_low_query", "cli.bind_high_query",
    "cli.bind_graph_query",
)

CLI_COMMANDS = ("validate", "eval", "aic-check", "abstract", "cdag",
                "identify", "estimate", "sample", "verify")


def per_layer_units():
    """Name and unit of every per-layer metric, in report order."""
    out = {}
    for layer in LAYERS:
        out[layer + ".s"] = "s"
        out[layer + ".calls"] = "count"
    for fn in TRACED_FUNCTIONS:
        out[fn + ".s"] = "s"
        out[fn + ".calls"] = "count"
    for side in ("high", "low"):
        out["valuation.prob_query.%s.s" % side] = "s"
        out["valuation.prob_query.%s.calls" % side] = "count"
    out["valuation.prob_query.states"] = "count"
    out["valuation.prob_query.us_per_state"] = "us"
    out["graphs.ctfbn_check.checks"] = "count"
    out["projection.verify_partial_projection.units"] = "count"
    for command in CLI_COMMANDS:
        out["cli.%s.s" % command] = "s"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    out["trace.unattributed_s"] = "s"
    return out


def pin_environment():
    """Re-execute once with a fixed hash seed and no budget override, so
    set iteration order and the enumeration budget cannot drift."""
    if os.environ.get("PYTHONHASHSEED") == "0" and \
            "ABSTRAKT_BUDGET" not in os.environ:
        return
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("ABSTRAKT_BUDGET", None)
    sys.stdout.flush()
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def import_program():
    """Import abstrakt from this checkout's src/ only."""
    if not os.path.isdir(os.path.join(SRC, "abstrakt")):
        raise SystemExit("perfbench: no abstrakt sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import abstrakt
    if not os.path.abspath(abstrakt.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: abstrakt was imported from %s, not %s"
                         % (abstrakt.__file__, SRC))


def peak_rss_mb():
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Totals:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.units = []     # (start, seconds, per-operation latencies)

    def add(self, res, start, seconds):
        self.ops += res.ops
        self.failed += res.failed
        self.units.append((start, seconds, res.latencies))


def _calibration_kernel():
    """Fixed pure-Python work in the style of the program's hot loops:
    rational sums and tuple-keyed dict updates."""
    acc = Fraction(0)
    table = {}
    for k in range(300):
        key = (k % 7, k % 5, k % 3)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(k % 11 + 1, 13 + k % 4)
    return acc, len(table)


class Calibration:
    """Host speed, measured by running a fixed kernel between units.

    The shared machines this runs on drift in speed by 10-30% over seconds
    to minutes as neighbours come and go. The kernel gets a tenth of the
    measured time, right after each unit, so it sees the same drift as the
    workload; end-to-end figures are then scaled by its rate against
    NOMINAL_RATE. On cluster_sweep on a 2-core shared host, this cut the
    quartile spread of op_p90_ms over ten runs from 16% to 5%, and that of
    ops_per_s over five runs from 21% to 1%.
    """

    NOMINAL_RATE = 1000.0   # kernel runs per second on the reference host
    DUTY = 0.1

    def __init__(self):
        self.starts = []
        self.prefix = [0.0]   # cumulative kernel seconds
        self.measured = 0.0

    @property
    def seconds(self):
        return self.prefix[-1]

    def block(self, seconds):
        """Run the kernel for ``seconds`` (at least once) and return the
        host speed over that block."""
        first = len(self.starts)
        while True:
            start = time.perf_counter()
            _calibration_kernel()
            self.starts.append(start)
            self.prefix.append(self.prefix[-1] + time.perf_counter() - start)
            if self.prefix[-1] - self.prefix[first] >= seconds:
                break
        return self._rate(first, len(self.starts))

    def after(self, seconds):
        """Account for ``seconds`` of measured work, then run the kernel
        until it has had its share of the time."""
        self.measured += seconds
        self.block(self.DUTY * self.measured - self.seconds)

    def _rate(self, i, j):
        return (j - i) / (self.prefix[j] - self.prefix[i]) / self.NOMINAL_RATE

    def speed(self, lo=None, hi=None):
        """Host speed relative to the reference host (above 1 is faster),
        from the kernels started within [lo, hi], or from all of them."""
        i = 0 if lo is None else bisect.bisect_left(self.starts, lo)
        j = len(self.starts) if hi is None else \
            bisect.bisect_right(self.starts, hi)
        return self._rate(i, j) if j > i else self._rate(0, len(self.starts))

    def latencies(self, totals):
        """Per-operation latencies, each scaled by the host speed over the
        kernels within one second, or five unit lengths, of its unit. A
        long unit's own share of kernel time is small, so it borrows more
        of its neighbours'."""
        out = []
        for start, seconds, latencies in totals.units:
            width = max(1.0, 5.0 * seconds)
            mid = start + seconds / 2.0
            speed = self.speed(mid - width, mid + width)
            out.extend(lat * speed for lat in latencies)
        return out


def run_units(workload, totals, deadline=None, count=None, tracer=None,
              calibration=None):
    """Run units for ``count`` units, or until ``deadline`` has passed at
    the end of a whole round of the workload. Returns the wall time spent
    in units, calibration excluded."""
    spent = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % workload.round_units == 0 and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("bench.unit", i):
                res = workload.step(i)
        else:
            res = workload.step(i)
        took = time.perf_counter() - start
        totals.add(res, start, took)
        spent += took
        if calibration is not None:
            calibration.after(took)
            if deadline is not None:
                deadline += time.perf_counter() - start - took
        i += 1
    return spent


def timed_setup(cls, seed):
    start = time.perf_counter()
    workload = cls(seed, OUT_DIR)
    return workload, time.perf_counter() - start


def measure(cls, seed, seconds):
    """End-to-end run: several set-ups (the last one is kept), then units
    until ``seconds`` of work are done. Times are scaled to the reference
    host speed; the raw figures go into the info record."""
    setup_calibration = Calibration()
    setups = []
    scaled = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        # Set-ups last milliseconds, so each is scaled by the host speed
        # measured in kernel blocks of its own length on either side.
        before = setup_calibration.block(setups[-1] if setups else 0.0)
        workload, took = timed_setup(cls, seed)
        after = setup_calibration.block(took)
        setups.append(took)
        scaled.append(took * (before + after) / 2.0)
    totals = Totals()
    calibration = Calibration()
    try:
        wall = run_units(workload, totals,
                         deadline=time.perf_counter() + seconds,
                         calibration=calibration)
    finally:
        workload.close()
    raw_latencies = [lat for _s, _t, lats in totals.units for lat in lats]
    latencies = calibration.latencies(totals)
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": totals.ops / wall,
        "op_p50_ms": statistics.median(raw_latencies) * 1000.0,
        "op_p90_ms": statistics.quantiles(raw_latencies, n=10)[8] * 1000.0,
    }
    speed = calibration.speed()
    metrics = {
        "setup_s": statistics.median(scaled),
        "ops_per_s": raw["ops_per_s"] / speed,
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"raw": raw, "host_speed": speed,
            "calibration_s": calibration.seconds + setup_calibration.seconds,
            "setup_samples_s": setups, "measure_s": wall,
            "units": len(totals.units), "latency_samples": len(latencies),
            "supports": workload.supports}
    return metrics, totals, info


def measure_traced(cls, seed, seconds):
    """Traced run. The first half runs untraced and counts its units; the
    second half repeats set-up and the same units with tracing on. The
    difference of the two wall times, each scaled to the reference host
    speed, is the tracing overhead."""
    from tracer import Tracer

    plain = Totals()
    calibration = Calibration()
    workload, setup_s = timed_setup(cls, seed)
    calibration.after(setup_s)
    try:
        wall_plain = setup_s + run_units(
            workload, plain, deadline=time.perf_counter() + seconds / 2.0,
            calibration=calibration)
    finally:
        workload.close()
    wall_plain_ref = wall_plain * calibration.speed()

    tracer = Tracer()
    traced = Totals()
    calibration = Calibration()
    tracer.install()
    try:
        origin = time.perf_counter()
        with tracer.span("bench.setup", -1):
            workload = cls(seed, OUT_DIR, tracer)
        setup_s = time.perf_counter() - origin
        calibration.after(setup_s)
        try:
            wall_traced = setup_s + run_units(
                workload, traced, count=len(plain.units), tracer=tracer,
                calibration=calibration)
        finally:
            workload.close()
    finally:
        tracer.uninstall()

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, "spans-%s-s%d.json"
                              % (cls.name, seed)), origin)
    overhead = wall_traced * calibration.speed() - wall_plain_ref
    metrics = layer_metrics(tracer, wall_traced, overhead)
    info = {"units": len(plain.units), "wall_untraced_s": wall_plain,
            "wall_traced_s": wall_traced, "spans": len(tracer.spans),
            "supports": workload.supports}
    both = Totals()
    for part in (plain, traced):
        both.ops += part.ops
        both.failed += part.failed
    return metrics, both, info


def layer_metrics(tracer, wall, overhead):
    summary = tracer.summary()
    units = per_layer_units()
    values = {name: 0 for name in units}
    attributed = 0.0
    for span_name, (self_s, incl_s, calls) in summary.items():
        fn, _sep, tag = span_name.partition("#")
        layer = fn.split(".")[0]
        if layer not in LAYERS:
            continue
        attributed += self_s
        values[layer + ".s"] += self_s
        values[layer + ".calls"] += calls
        if fn + ".s" in values:
            values[fn + ".s"] += self_s
            values[fn + ".calls"] += calls
        if fn == "valuation.prob_query":
            values["%s.%s.s" % (fn, tag)] += self_s
            values["%s.%s.calls" % (fn, tag)] += calls
        elif fn == "cli.run" and "cli.%s.s" % tag in values:
            values["cli.%s.s" % tag] += incl_s
    for key in ("valuation.prob_query.states", "graphs.ctfbn_check.checks",
                "projection.verify_partial_projection.units"):
        values[key] = tracer.counts.get(key, 0)
    states = values["valuation.prob_query.states"]
    pq = [v[1] for k, v in summary.items()
          if k.partition("#")[0] == "valuation.prob_query"]
    values["valuation.prob_query.us_per_state"] = \
        sum(pq) / states * 1e6 if states else 0
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_s"] = wall - attributed
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def machine_info():
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, totals, info = measure_traced(cls, args.seed, args.seconds)
    else:
        metrics, totals, info = measure(cls, args.seed, args.seconds)
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": totals.failed == 0, "attempted": totals.ops,
              "failed": totals.failed, "metrics": metrics}
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "error_rate": {"value": totals.failed / totals.ops,
                                "unit": "ratio"},
                 "machine": machine_info()})
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-s%d-t%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
