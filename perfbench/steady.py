#!/usr/bin/env python3
"""Check that the benchmark repeats within its own bounds.

Run from the root of the repository:

    python3 perfbench/steady.py

Runs `perfbench/run.py` ten times on every workload of BENCHMARK.json, at
its `run_seconds`, one run per seed, in two sets with different seeds (the
first set runs every workload before the second set starts). For every
end-to-end metric it prints each set's median and quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (quartile distance over the
median), and whether:

* the spread is within the metric's bound (not required of `setup_s`), and
* the two sets' medians agree: they differ, in either direction, by at most
  the bound as a share of the first set's median. The signed change
  (positive is worse) is printed beside the verdict.

It also checks that the share of failed operations is the same in both
sets. Raw values are written to `.bench_out/steady.json`. Exits 1 if any
check fails.
"""

import json
import os
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10  # per set and workload


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"steady.py: {' '.join(cmd)} failed ({out.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def change(first, second):
    """`second` relative to `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return (second - first) / abs(first)


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in names}
    for s in range(SETS):
        for w in names:
            runs = []
            for i in range(RUNS):
                seed = 1 + 1000 * s + i
                r = run_once(w, seed, spec["run_seconds"])
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr, flush=True)
                runs.append(r)
            results[w].append(runs)

    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/steady.json", "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for w in names:
        sets = results[w]
        print(f"\n== {w}")
        for r in (r for runs in sets for r in runs):
            if not r["correct"]:
                print("  a run failed its output checks")
                ok = False
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        same_share = all(x == shares[0] for x in shares)
        ok &= same_share
        print(f"  failed share per set: {shares} {'ok' if same_share else 'DIFFERS'}")
        print(f"  {'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            meds = []
            for k, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][m["name"]]["value"]
                                               for r in runs])
                meds.append(med)
                verdict = []
                if m["name"] != "setup_s":
                    verdict.append("steady" if spread <= m["bound"] else "SPREAD")
                    ok &= spread <= m["bound"]
                if k == 1:
                    moved = change(meds[0], med)
                    agree = abs(moved) <= m["bound"]
                    ok &= agree
                    worse = moved if m["better"] == "lower" else -moved
                    verdict.append(f"{'agrees' if agree else 'DIFFERS'} "
                                   f"(worse by {worse:+.3f})")
                print(f"  {m['name']:<18}{k + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{m['bound']:>7}  {' '.join(verdict)}")
    print("\nall checks passed" if ok else "\nsome checks FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
