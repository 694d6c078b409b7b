"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and quartile spread, as a share of the median, next to
the bound fixed in BENCHMARK.json.

    python3 perfbench/prove.py --runs 10 [--workload NAME ...]
    python3 perfbench/prove.py --runs 10 --traced \
        --write perfbench/baseline.json

Runs one benchmark process at a time from the root of the checkout.
``--traced`` adds one traced run per workload, whose per-layer metrics go
into the written file next to the end-to-end medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import END_TO_END, per_layer_units  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise SystemExit("BENCHMARK.json end_to_end %r differs from run.py %r"
                         % (declared, END_TO_END))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != per_layer_units():
        raise SystemExit("BENCHMARK.json per_layer differs from run.py")
    return spec


def run_once(spec, workload, seed, trace):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s failed with exit %d:\n%s"
                         % (" ".join(argv), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s reported failures:\n%s"
                         % (" ".join(argv), proc.stderr))
    return result, json.loads(lines[-2])["info"], took


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", help="file for the summary JSON")
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    worst = 0.0
    for workload in names:
        samples = {name: [] for name in END_TO_END}
        walls = []
        for k in range(args.runs):
            result, info, took = run_once(spec, workload,
                                          args.first_seed + k, 0)
            walls.append(took)
            for name in END_TO_END:
                samples[name].append(result["metrics"][name]["value"])
        entry = {"runs": args.runs, "seeds": [args.first_seed,
                                              args.first_seed + args.runs - 1],
                 "wall_s": walls, "machine": info["machine"],
                 "supports": info["supports"], "end_to_end": {}}
        print("%s  (runs %d, wall per run %.1f-%.1f s)"
              % (workload, args.runs, min(walls), max(walls)))
        for name, unit in END_TO_END.items():
            median, q1, q3, share = spread(samples[name])
            bound = bounds[name]
            flag = "" if share < bound / 3 else \
                ("  > bound/3" if share < bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, share / bound)
            print("  %-12s %12.4f %-4s  q1 %10.4f  q3 %10.4f  spread %.3f"
                  "  bound %.2f%s" % (name, median, unit, q1, q3, share,
                                      bound, flag))
            entry["end_to_end"][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": share, "values": samples[name]}
        if args.traced:
            result, _info, _took = run_once(spec, workload,
                                            args.first_seed, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in result["metrics"].items()}
        summary[workload] = entry
    print("largest spread as a share of its bound (setup_s excluded): %.2f"
          % worst)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": spec["run_seconds"],
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
