"""Host-throughput benchmark of the ViReC simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload virec_contention --seed 1 \\
        --seconds 10 --trace 0

Each measurement runs in its own fresh Python process (``worker.py``),
serial and in-process.  With ``--trace 0`` the workload's set-up runs in
three processes (``setup_s`` is their median) and the last one goes on to
the timed phase; the end-to-end metrics are printed.  With ``--trace 1``
one process alternates untraced and traced passes and the per-layer
metrics are printed.  Metric names and units come from ``BENCHMARK.json``.

Every metric is printed as ``name = value unit``, followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Spans and
per-op timings are written to ``.perfbench/`` at the end.  The exit code
is 0 when the benchmark ran (check ``correct`` for the verdict), 2 when
it cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("virec_contention", "baseline_cores", "virec_observed",
             "sweep_replay")
#: processes whose set-up is timed in a --trace 0 run (the last one goes
#: on to the timed phase)
SETUP_SAMPLES = 3
#: wall-clock budget of one benchmark invocation, all processes included
BUDGET_S = 170.0
#: printed beside the BENCHMARK.json metrics but not part of them: a
#: failure-free run reads 0, which no bound can be a share of
EXTRA_UNITS = {"error_rate": "fraction", "host_speed": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run or a worker process failed."""


def spawn(root: str, args, phase: str, deadline: float) -> Dict:
    """Run one worker process to completion; its JSON result."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # the ledger stamps rows with ``git rev-parse``: keep git inside the
    # checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase,
           "--scratch", args.out_dir, "--t-spawn", repr(time.monotonic())]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} worker ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_spec(root: str) -> Dict[str, Dict]:
    """``{trace flag: {metric: unit}}`` from BENCHMARK.json."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"no BENCHMARK.json in {root}")
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure(root: str, args) -> Dict:
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        return spawn(root, args, "traced", deadline)
    setups = [spawn(root, args, "setup", deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    out = spawn(root, args, "timed", deadline)
    setups.append({"setup_s": out["metrics"]["setup_s"],
                   "measured_s": out["setup_measured_s"]})
    out["metrics"]["setup_s"] = statistics.median(s["setup_s"]
                                                  for s in setups)
    out["notes"].append(
        "setup_s is the median of " + ", ".join(
            f"{s['setup_s']:.3f} s (measured {s['measured_s']:.3f} s)"
            for s in setups))
    return out


def report(args, units: Dict[str, str], out: Dict) -> Dict:
    """Print every metric and note; the final JSON object."""
    metrics = out["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"worker did not report {missing}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"digest={out['digest']}")
    for note in out["notes"]:
        print(f"# {note}")
    for failure in out["failures"]:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name) or EXTRA_UNITS[name]}")
    return {"correct": out["failed"] == 0,
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def write_spans(args, out: Dict) -> None:
    name = f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out_dir, name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": out.get("spans", []),
                   "metrics": out["metrics"]}, f, indent=1)


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes (the self-test)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    args.out_dir = os.path.join(root, ".perfbench")
    try:
        if not os.path.isdir(os.path.join(root, "src", "repro")):
            raise BenchError(f"{root} holds no src/repro to benchmark; run "
                             "from the root of a checkout")
        units = load_spec(root)[args.trace]
        os.makedirs(args.out_dir, exist_ok=True)
        out = measure(root, args)
        result = report(args, units, out)
        write_spans(args, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
