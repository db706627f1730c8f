"""coopnav benchmark launcher.

    python3 perfbench/run.py --workload activation --seed 0 --seconds 30 --trace 0

Run from the root of a coopnav source tree. Each invocation starts fresh
processes (perfbench/child.py) with OpenBLAS/OMP pinned to one thread: several
that only set up, for the set-up time, then one that measures the workload
for --seconds. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The run's
details (each set-up time, each case's times, the traced span totals per
case) go to perfbench_out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 8  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170.0  # the whole invocation, set-up runs included
OUT_DIR = Path("perfbench_out")  # per-run details: set-up and case times, span totals


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(extra: list, timeout: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), *extra, "--spawned-at", repr(spawned)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (Path.cwd() / "src" / "coopnav" / "__init__.py").is_file():
        print("run.py: no src/coopnav here; run it from the root of a coopnav tree",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, loads = [], []
    for _ in range(SETUP_RUNS):
        out = run_child(common + ["--setup-only"], DEADLINE_S / 4)
        setups.append(out["setup_s"])
        loads.extend(out["load_ms"])
    load_ms = statistics.median(loads)
    out = run_child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--load-ms", repr(load_ms)],
        DEADLINE_S - (time.monotonic() - started),
    )
    setups.append(out["setup_s"])
    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "args": vars(args), "rounds": out["rounds"], "setup_s": setups,
        "result": result, **out["detail"]}, indent=1) + "\n")
    print(f"{args.workload}: {out['rounds']} rounds in {time.monotonic() - started:.1f} s, "
          f"details in {record}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
