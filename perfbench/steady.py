#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly, one seed per run, and show
each end-to-end metric's median and quartiles.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--holdout N]

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of `statistics.quantiles(values, n=4)`.  A spread above the
metric's bound in BENCHMARK.json is flagged FAIL, one above a third of it
WARN.  With --holdout, one more run on a seed outside the set must land
within each bound of the set's median.  The raw results are written to
.perfbench/steady-<time>.json."""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("%s seed %d: outputs are not correct" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}, lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    ap.add_argument("--holdout", type=int, help="one more seed, checked against the set")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(a.seeds)
    report, failed = {}, False
    for w in names:
        runs, reports = [], []
        for s in seeds:
            t0 = time.time()
            metrics, lines = one_run(bench, w, s)
            runs.append(metrics)
            reports.append(lines)
            print("%s seed %d: %.0f s" % (w, s, time.time() - t0), file=sys.stderr, flush=True)
        print("workload %s, %d seeds" % (w, len(seeds)))
        print("  %-22s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        medians = {}
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[name] = med
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = "FAIL" if spread > bound else "WARN" if spread > bound / 3 else "ok"
            failed |= flag == "FAIL"
            print("  %-22s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %s" % (
                name, med, q1, q3, 100 * spread, 100 * bound, flag))
        entry = {"seeds": seeds, "runs": runs, "reports": reports, "medians": medians}
        if a.holdout is not None:
            held, lines = one_run(bench, w, a.holdout)
            entry["holdout"] = {"seed": a.holdout, "metrics": held, "report": lines}
            print("  held-out seed %d:" % a.holdout)
            for name, bound in bounds.items():
                dev = (held[name] - medians[name]) / abs(medians[name]) if medians[name] else 0.0
                ok = abs(dev) <= bound
                failed |= not ok
                print("    %-22s %12.4f %+7.1f%% %s" % (name, held[name], 100 * dev, "ok" if ok else "FAIL"))
        report[w] = entry
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench", "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("raw results in %s" % path)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
