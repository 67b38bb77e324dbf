#!/usr/bin/env python3
"""Steadiness check: run one workload k times with different seeds and
report, for each end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

Run from the root of a bdbms checkout:

    python3 perfbench/steady.py --workload curation --runs 10 --seed-base 1 --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

A spread under a third of its bound is steady, one under the bound is
within it, and a wider one is flagged; every metric, setup_s included, is
judged the same way.  --compare prints, for each metric of
two saved sets, how far the second median moved from the first, as a
share of the first, against the bound (worse direction only).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    result = json.loads(lines[-1])
    # keep the report's lines on set-up and host speed with the result
    result["seed"] = seed
    result["report"] = [l for l in lines if l.startswith(("set-ups", "timed phase", "host over", "segments"))]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(workload, results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("%s: %d runs, failed share %s, all correct: %s"
          % (workload, len(results), shares, all(r["correct"] for r in results)))
    print("  %-14s %12s %12s %12s %8s %7s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = summarize(values)
        spread = (q3 - q1) / med if med else float("inf")
        if spread < bounds[name] / 3:
            verdict = "steady"
        elif spread < bounds[name]:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print("  %-14s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%  %s"
              % (name, med, q1, q3, 100 * spread, 100 * bounds[name], verdict))


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for workload in a:
        if workload not in b:
            continue
        print("%s: second set against first" % workload)
        for m in spec["end_to_end"]:
            name = m["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print("  %-14s %12.4f -> %12.4f  worse by %6.1f%%  bound %3.0f%%  %s"
                  % (name, ma, mb, 100 * worse, 100 * m["bound"], "ok" if worse <= m["bound"] else "REGRESSED"))
        fa = sorted({r["failed"] / r["attempted"] for r in a[workload]})
        fb = sorted({r["failed"] / r["attempted"] for r in b[workload]})
        print("  failed share %s -> %s  %s" % (fa, fb, "ok" if fa == fb else "DIFFERS"))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out", help="save every run's result here as JSON")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved = {}
    for workload in workloads:
        results = [run_once(workload, args.seed_base + i, spec["run_seconds"]) for i in range(args.runs)]
        saved[workload] = results
        report(workload, results, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
