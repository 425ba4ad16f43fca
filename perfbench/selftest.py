"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` untraced and traced, and
checks that

* the run exits 0 and reports ``correct``;
* every metric BENCHMARK.json names is printed as ``name = value unit``
  and appears in the final JSON line with that unit;
* the traced and untraced runs report the same result digest;
* an untraced run notes when ``op_s_tail`` has too few samples beyond
  its percentile, and only then;
* the traced run bears out the layer map (VRMU calls only where a ViReC
  core runs, observer calls only on ``virec_observed``, every replayed
  result a ledger hit);

and finally that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import WORKLOADS, load_spec  # noqa: E402
from suite import TAIL_BEYOND  # noqa: E402

SECONDS = "1"


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(workload: str, trace: int, units) -> dict:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                "--trace", str(trace), "--tiny"])
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{where}: not correct\n{proc.stdout}")
    for name, unit in units.items():
        printed = re.search(rf"^{re.escape(name)} = (\S+) {re.escape(unit)}$",
                            proc.stdout, re.M)
        if printed is None:
            raise AssertionError(f"{where}: {name} not printed with {unit}")
        if result["metrics"][name]["unit"] != unit:
            raise AssertionError(f"{where}: {name} has the wrong unit")
    if trace == 0:
        beyond = int(re.search(r"\((\d+) beyond it\)", proc.stdout).group(1))
        warned = "samples beyond its percentile" in proc.stdout
        if warned != (beyond < TAIL_BEYOND):
            raise AssertionError(f"{where}: {beyond} samples beyond the "
                                 f"tail percentile, noted: {warned}")
    result["digest"] = re.search(r"digest=(\w+)", lines[0]).group(1)
    return result


def check_layer_map(workload: str, metrics: dict) -> None:
    def value(name):
        return metrics[name]["value"]

    virec = value("virec.access_calls")
    if (virec > 0) != (workload in ("virec_contention", "virec_observed")):
        raise AssertionError(f"{workload}: virec.access_calls = {virec}")
    observed = value("telemetry.self_s") + value("metrics.self_s") \
        + value("profiling.self_s")
    if (observed > 0) != (workload == "virec_observed"):
        raise AssertionError(f"{workload}: observer self time {observed}")
    if workload == "sweep_replay" and value("ledger.hit_ratio") != 1.0:
        raise AssertionError("sweep_replay: not every lookup was a hit")


def check_refuses_without_repo() -> None:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", SECONDS], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without the repository")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    units = load_spec(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        named = tuple(w["name"] for w in json.load(f)["workloads"])
    if named != WORKLOADS:
        raise AssertionError("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        untraced = check_run(workload, 0, units[0])
        traced = check_run(workload, 1, units[1])
        if untraced["digest"] != traced["digest"]:
            raise AssertionError(f"{workload}: traced digest differs")
        check_layer_map(workload, traced["metrics"])
        print(f"ok {workload} digest={traced['digest']}")
    check_refuses_without_repo()
    print("ok refuses to run without the repository")
    return 0


if __name__ == "__main__":
    sys.exit(main())
