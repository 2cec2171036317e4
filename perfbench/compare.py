#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    # Ten seeded runs of every workload of this checkout:
    python3 perfbench/compare.py collect --out results/base --runs 10

    # Alternating pairs of two checkouts (A then B, then B then A, ...):
    python3 perfbench/compare.py collect --out results/ab --runs 10 \
        --tree ../parent --tree .

    # Per workload and metric: median, quartiles, spread vs bound.
    python3 perfbench/compare.py spread results/base

    # Parent vs change: medians, quartiles, win fraction, verdict.
    python3 perfbench/compare.py report results/ab/parent results/ab/repo

A set is a directory of <workload>.jsonl files, one line per run:
{"seed": N, "result": <the run's result object>}.  Bounds and the
better direction of each metric come from BENCHMARK.json next to this
directory.  Spreads and quartiles use statistics.quantiles(n=4).

Verdict per end-to-end metric (rel = change of B's median against A's,
positive when worse; noise = the wider of the two IQR/median spreads):
  worse       rel > bound
  improved    rel < -noise and B wins >= 90% of the pairs, or every
              B run beats every A run
  unresolved  noise > bound (the runs cannot tell a bound-sized change)
  unchanged   otherwise
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE)
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d" %
                           (" ".join(cmd), tree, proc.returncode))
    return json.loads(lines[-1])


def cmd_collect(args):
    spec = load_spec()
    trees = args.tree or ["."]
    labels = [os.path.basename(os.path.abspath(t)) for t in trees]
    if len(set(labels)) != len(labels):
        labels = ["t%d" % i for i in range(len(trees))]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for i in range(args.runs):
        seed = args.seed0 + i
        for w in workloads:
            # Alternate which tree runs first in each pair.
            order = list(range(len(trees)))
            if i % 2:
                order.reverse()
            for t in order:
                res = run_once(trees[t], w, seed, seconds, args.trace)
                out = os.path.join(args.out, labels[t])
                os.makedirs(out, exist_ok=True)
                with open(os.path.join(out, w + ".jsonl"), "a") as f:
                    f.write(json.dumps({"seed": seed, "result": res}) +
                            "\n")
                print("%s %s seed %d: correct=%s failed=%d" %
                      (labels[t], w, seed, res["correct"], res["failed"]),
                      file=sys.stderr)


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            with open(os.path.join(path, name)) as f:
                runs[name[:-6]] = [json.loads(line) for line in f
                                   if line.strip()]
    return runs


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(args):
    spec = load_spec()
    ok = True
    for workload, runs in load_set(args.set).items():
        bad = sum(1 for r in runs if not r["result"]["correct"])
        print("%s: %d runs, %d not correct" % (workload, len(runs), bad))
        ok &= bad == 0
        for m in spec["end_to_end"]:
            vals = values(runs, m["name"])
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            ok &= steady
            print("  %-14s median %12.5g  q1 %12.5g  q3 %12.5g  "
                  "spread %6.3f  bound %.2f  %s" %
                  (m["name"], q2, q1, q3, s, m["bound"],
                   "ok" if steady else "TOO WIDE"))
    return 0 if ok else 1


def verdict(metric, a, b):
    lower = metric["better"] == "lower"
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    rel = (mb - ma) / ma if lower else (ma - mb) / ma
    noise = max(spread(a), spread(b))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    win_frac = wins / len(pairs) if pairs else 0.0
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if rel > metric["bound"]:
        v = "worse"
    elif (rel < -noise and win_frac >= 0.9) or all_better:
        v = "improved"
    elif noise > metric["bound"]:
        v = "unresolved"
    else:
        v = "unchanged"
    return (ma, q1a, q3a, mb, q1b, q3b, rel, win_frac, v)


def cmd_report(args):
    spec = load_spec()
    a_set, b_set = load_set(args.a), load_set(args.b)
    print("%-14s %-14s %11s %11s %11s | %11s %11s %11s | %7s %5s %s" %
          ("workload", "metric", "A median", "A q1", "A q3", "B median",
           "B q1", "B q3", "B vs A", "wins", "verdict"))
    for workload in sorted(set(a_set) & set(b_set)):
        for m in spec["end_to_end"]:
            a = values(a_set[workload], m["name"])
            b = values(b_set[workload], m["name"])
            if not a or not b:
                continue
            ma, q1a, q3a, mb, q1b, q3b, rel, wf, v = verdict(m, a, b)
            print("%-14s %-14s %11.5g %11.5g %11.5g | %11.5g %11.5g "
                  "%11.5g | %+6.1f%% %4.0f%% %s" %
                  (workload, m["name"], ma, q1a, q3a, mb, q1b, q3b,
                   -rel * 100, wf * 100, v))
    print("B vs A: positive = B better; wins: share of pairs B won.")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Collect and compare benchmark runs.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeded runs into a set")
    c.add_argument("--out", required=True)
    c.add_argument("--tree", action="append",
                   help="checkout to run in (repeat for pairs)")
    c.add_argument("--workload", action="append")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread", help="spread of one set vs the bounds")
    s.add_argument("set")
    r = sub.add_parser("report", help="compare set B against set A")
    r.add_argument("a")
    r.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "collect":
        cmd_collect(args)
        return 0
    if args.cmd == "spread":
        return cmd_spread(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
