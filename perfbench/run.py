#!/usr/bin/env python3
"""Build and run one workload of the biglittle benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/) and the `repro` binary in release
mode, runs the workload with its state in a fresh directory under
`.bench_state/`, removes that directory, and prints the benchmark's output.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Build output and progress go
to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["paper-warm", "whatif-ladder", "serve-closed"]
RUN_TIMEOUT_S = 170


def build(env):
    """Builds the benchmark and `repro`; returns their paths or exits 1."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "bl-bench", "--bin", "repro"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    return (os.path.join(target, "release", "perfbench"),
            os.path.join(target, "release", "repro"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} not found; run from the repository root",
                  file=sys.stderr)
            sys.exit(1)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench, repro = build(env)

    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    state = os.path.abspath(os.path.join(".bench_state", tag))
    trace_out = os.path.abspath(os.path.join(".bench_out", f"trace-{tag}.json"))
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repro", repro, "--state", state, "--trace-out", trace_out]
    # A session of its own, so a timeout takes down the daemon child of
    # serve-closed together with the benchmark.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        shutil.rmtree(state, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        sys.exit(1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
