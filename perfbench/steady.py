#!/usr/bin/env python3
"""Steadiness check: two sets of k runs per workload, compared.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads book,auction]
                                [--trace 0|1]

Run from the root of the repository. Each run lasts run_seconds from
BENCHMARK.json. Set s uses seeds s*k+1 .. s*k+k. Within a set the workloads
are interleaved, and their order reverses on every other pass (and between
sets), so slow spells of the host fall on all of them. For each set and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median. For every end-to-end metric except setup_s,
the spread must fit a third of the metric's bound in BENCHMARK.json
(setup_s is one cold sample per run, so only its median is held to the
bound). With two sets or more, each metric's median in every later set must
not be worse than the first set's by more than its bound, and the share of
failed operations must be the same in every set. Exits 1 if any of these
fails. Every result line carries the build facts of the binary that
produced it.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        sys.exit(f"steady: {' '.join(cmd)} failed ({out.returncode})")
    build = json.loads(lines[-2])["build"]
    result = json.loads(lines[-1])
    print(f"{workload:9s} seed {seed:3d} trace {trace} "
          f"attempted {result['attempted']:6d} failed {result['failed']} "
          f"correct {result['correct']} "
          f"{time.monotonic() - start:5.1f} s build {json.dumps(build)} "
          + " ".join(f"{k}={v['value']:.5g}"
                     for k, v in result["metrics"].items()),
          flush=True)
    return build, result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    results = {(s, w): [] for s in range(args.sets) for w in workloads}
    builds = set()
    for s in range(args.sets):
        for i in range(args.runs):
            order = workloads if (s + i) % 2 == 0 else workloads[::-1]
            for w in order:
                build, result = run_once(w, s * args.runs + i + 1, seconds,
                                         args.trace)
                builds.add(json.dumps(build, sort_keys=True))
                results[(s, w)].append(result)
    if len(builds) != 1:
        print("steady: WARNING: runs came from different builds: "
              + "; ".join(sorted(builds)))

    ok = True
    for w in workloads:
        medians = []
        shares = []
        for s in range(args.sets):
            runs = results[(s, w)]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shares.append({r["failed"] / r["attempted"] for r in runs})
            print(f"\n== {w} set {s + 1} (trace {args.trace}): {len(runs)} "
                  f"runs, failed {failed} of {attempted}, all correct: "
                  f"{all(r['correct'] for r in runs)}")
            ok = ok and all(r["correct"] for r in runs)
            meds = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                unit = runs[0]["metrics"][name]["unit"]
                med, q1, q3, spread = summary(values)
                meds[name] = med
                line = (f"  {name:28s} median {med:14.6g} {unit:6s} "
                        f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.2%}")
                if name in e2e and name != "setup_s":
                    bound = e2e[name]["bound"]
                    fits = spread <= bound / 3
                    ok = ok and fits
                    line += (f"  bound {bound:.0%} "
                             f"{'fits a third' if fits else 'TOO WIDE'}")
                print(line)
            medians.append(meds)
        if len(set(frozenset(x) for x in shares)) != 1:
            print(f"  failed shares differ between sets: {shares}")
            ok = False
        for s in range(1, args.sets):
            for name, m in e2e.items():
                if name not in medians[0]:
                    continue
                first, later = medians[0][name], medians[s][name]
                worse = ((later - first) / first if m["better"] == "lower"
                         else (first - later) / first)
                fits = worse <= m["bound"]
                ok = ok and fits
                print(f"  set {s + 1} vs set 1 {name:22s} "
                      f"{first:12.6g} -> {later:12.6g} "
                      f"({(later - first) / first:+.2%}) "
                      f"{'within' if fits else 'WORSE THAN'} bound "
                      f"{m['bound']:.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
