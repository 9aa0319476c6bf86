#!/usr/bin/env python3
"""Build and run the NoSQ benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep|table5|sampled|serve|all \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `nosq-perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, checks that the
metrics it reports are exactly the ones `BENCHMARK.json` declares for
the trace mode, and prints its output. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"],
                    help="one workload, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        fail("build failed")

    exe = target / "release" / "nosq-perfbench"
    if args.workload == "all":
        for workload in workloads:
            print(f"== {workload}")
            print(run(exe, env, bench, workload, args))
    else:
        print(run(exe, env, bench, args.workload, args))


def run(exe, env, bench, workload, args):
    """Runs one workload and returns its checked standard output."""
    out = ROOT / ".perfbench_runs" / f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "run",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    # Own process group, so a timeout also stops the daemon child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    started = time.monotonic()
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"run exited with {proc.returncode} after {time.monotonic() - started:.1f} s")

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result line")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result does not match the metrics BENCHMARK.json declares")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
