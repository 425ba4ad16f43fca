"""One benchmark workload in one fresh process.

``run.py`` starts this script once per measurement; it is not meant to be
run by hand.  Phases:

``setup``
    imports, lazy initialisation and the workload's warm-up (for
    ``sweep_replay`` the cold ledger fill), then exit; reports ``setup_s``.
``timed``
    set-up, then whole passes over the workload's ops until ``--seconds``
    have elapsed, with tracing off; reports the end-to-end metrics.
``traced``
    set-up (traced), then alternating untraced and traced passes until
    ``--seconds`` have elapsed; reports the per-layer metrics and the
    tracing overhead.

Every op's results are digested (cycles, instructions, flattened Stats)
and compared with the first digest seen for the same op -- the warm-up's
or the first pass's -- so passes, traced and untraced runs and (for
``sweep_replay``) the cold fill must all agree.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional

import calibrate

#: seconds of reference-kernel runs at the start and at the end of set-up
SETUP_KERNEL_S = 0.3
# Sampled before the simulator is imported, so that the speed that scales
# ``setup_s`` brackets the whole set-up: a sample at its end alone misses
# the host's changes of speed during it.
_t0 = time.monotonic()
START_KERNEL_S = calibrate.sample(SETUP_KERNEL_S)
START_SAMPLING_S = time.monotonic() - _t0

import suite  # noqa: E402
from suite import TAIL_BEYOND, TAIL_PERCENTILE, result_digest  # noqa: E402
from tracing import LayerTracer  # noqa: E402

_perf = time.perf_counter

#: Stats counters (by flattened-key suffix) summed over a pass's results
STAT_SUFFIXES = (".vrmu.hits", ".vrmu.misses", ".vrmu.victim_wait_cycles",
                 ".dram.row_hits", ".dram.row_empty", ".dram.row_misses")


class Pass:
    """What one pass over a workload's ops produced."""

    def __init__(self) -> None:
        #: reference-host seconds inside ops (digesting and checking
        #: excluded)
        self.op_s = 0.0
        #: per op, in reference-host seconds (calibrate.py) and as measured
        self.latencies: List[float] = []
        self.measured: List[float] = []
        #: reference-kernel seconds before each op and after the last
        self.kernel_s: List[float] = []
        self.failures: List[str] = []
        self.results = 0
        self.instructions = 0
        self.cycles = 0
        self.virec_hit_rates: List[float] = []
        self.phase_s: Dict[str, float] = defaultdict(float)
        self.stat_sums: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.stale = 0
        self.tracer = None


def run_pass(wl, ref: Dict[int, List[str]], tag: str) -> Pass:
    """Run every op of ``wl`` once and check it against ``ref``."""
    p = Pass()
    p.kernel_s.append(calibrate.kernel_s())
    for i, item in enumerate(wl.items):
        t0 = _perf()
        try:
            results, counts = wl.op(item)
            error = None
        except Exception:
            error = traceback.format_exc()
        p.measured.append(_perf() - t0)
        p.kernel_s.append(calibrate.kernel_s())
        if error is not None:
            p.failures.append(f"{tag} op {i}: exception\n{error}")
            continue
        digests = [result_digest(r) for r in results]
        if digests != ref.setdefault(i, digests):
            p.failures.append(f"{tag} op {i}: result digest differs from "
                              "the reference run")
        if counts is not None:
            p.stale += counts["stale"]
            if counts["hit"] != len(results):
                p.failures.append(f"{tag} op {i}: not every result was a "
                                  f"ledger hit ({counts})")
        for r in results:
            _tally(p, r, simulated=counts is None)
    p.latencies = calibrate.scale(p.measured, p.kernel_s)
    p.op_s = sum(p.latencies)
    return p


def _tally(p: Pass, r, simulated: bool) -> None:
    p.results += 1
    p.instructions += r.instructions
    p.cycles += r.cycles
    if r.rf_hit_rate is not None:
        p.virec_hit_rates.append(r.rf_hit_rate)
    if simulated:
        # a ledger hit carries the cold fill's host profile: skip it
        for phase, secs in (r.host_profile or {}).get("phases_s", {}).items():
            p.phase_s[phase] += secs
    if r.telemetry is not None:
        p.events += r.telemetry.event_count
    for key, value in r.stats.flat():
        for suffix in STAT_SUFFIXES:
            if key.endswith(suffix):
                p.stat_sums[suffix[1:]] += value


def tail(latencies: List[float], pct: int):
    """(value, samples beyond it) of the ``pct``-th percentile."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(wl, passes: List[Pass], setup_s: float) -> Dict:
    lat = [x for p in passes for x in p.latencies]
    attempted = len(lat)
    failed = sum(len(p.failures) for p in passes)
    pct = TAIL_PERCENTILE[wl.name]
    value, beyond = tail(lat, pct)
    first = passes[0]
    rates = first.virec_hit_rates
    # Scaling by the reference kernel takes out the host's changes of
    # speed; the median over passes then drops an op that a stray
    # interruption lengthened (README, Noise).
    per_op = [statistics.median(xs)
              for xs in zip(*(p.latencies for p in passes))]
    op_s = sum(per_op)
    notes = [f"each op's latency is its median over {len(passes)} passes, "
             "in reference-host seconds",
             f"op_s_tail is p{pct} of {attempted} ops ({beyond} beyond it)"]
    if beyond < TAIL_BEYOND:
        notes.append(f"op_s_tail has fewer than {TAIL_BEYOND} samples "
                     "beyond its percentile: run longer to trust it")
    return {
        "metrics": {
            "setup_s": setup_s,
            "results_per_s": first.results / op_s,
            "sim_instr_per_s": first.instructions / op_s,
            "op_s_p50": statistics.median(per_op),
            "op_s_tail": value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "error_rate": _ratio(failed, attempted),
            "sim_cycles": first.cycles,
            # cores with a register file per thread never miss in it
            "rf_hit_rate": sum(rates) / len(rates) if rates else 1.0,
            "host_speed": calibrate.speed(
                [k for p in passes for k in p.kernel_s]),
        },
        "notes": notes,
    }


def per_layer(wl, p: Pass, setup_tracer) -> Dict[str, float]:
    tr = p.tracer
    calls, self_s = tr.calls, tr.self_s
    dcache_calls = calls["memory.dcache"]
    stats = p.stat_sums
    core_self = self_s["core.run"]
    lookups = calls["ledger.lookup"]
    rows = wl.ledger_bytes_per_row() if wl.replay else 0.0
    return {
        "system.build_s": p.phase_s["build"],
        "system.simulate_s": p.phase_s["simulate"],
        "system.check_s": p.phase_s["check"],
        "workloads.build_calls": calls["workloads.build"],
        "workloads.build_s": self_s["workloads.build"],
        "isa.compile_calls": calls["isa.compile"],
        "isa.compile_s": self_s["isa.compile"],
        "core.self_s": core_self,
        "core.instr_per_self_s": _ratio(p.instructions, core_self),
        "virec.access_calls": calls["virec.access"],
        "virec.access_self_s": self_s["virec.access"],
        "virec.commit_s": self_s["virec.commit"],
        "virec.switch_s": self_s["virec.switch"],
        "virec.bsi_calls": tr.sum_calls("virec.bsi"),
        "virec.bsi_s": tr.sum_self("virec.bsi"),
        "virec.fills": calls["virec.bsi.fill"] + calls["virec.bsi.dummy_fill"],
        "virec.spills": calls["virec.bsi.spill"],
        "virec.hit_ratio": _ratio(stats["vrmu.hits"],
                                  stats["vrmu.hits"] + stats["vrmu.misses"]),
        "virec.victim_wait_cycles": stats["vrmu.victim_wait_cycles"],
        "memory.icache_calls": calls["memory.icache"],
        "memory.icache_s": self_s["memory.icache"],
        "memory.dcache_calls": dcache_calls,
        "memory.dcache_s": self_s["memory.dcache"],
        "memory.dcache_hit_ratio": _ratio(
            tr.counts["dcache.hit"], dcache_calls - tr.counts["dcache.retry"]),
        "memory.dcache_reg_share": _ratio(tr.counts["dcache.register"],
                                          dcache_calls),
        "memory.dcache_retry_ratio": _ratio(tr.counts["dcache.retry"],
                                            dcache_calls),
        "memory.dram_calls": calls["memory.dram"],
        "memory.dram_s": self_s["memory.dram"],
        "memory.dram_row_hit_ratio": _ratio(
            stats["dram.row_hits"], stats["dram.row_hits"]
            + stats["dram.row_empty"] + stats["dram.row_misses"]),
        "memory.crossbar_calls": calls["memory.crossbar"],
        "memory.crossbar_s": self_s["memory.crossbar"],
        "stats.inc_calls": calls["stats.inc"],
        "stats.inc_per_instr": _ratio(calls["stats.inc"], p.instructions),
        "stats.inc_s": self_s["stats.inc"],
        "telemetry.self_s": self_s["telemetry"],
        "telemetry.events": p.events,
        "metrics.self_s": self_s["metrics"],
        "profiling.self_s": self_s["profiling"],
        "exec.map_s": tr.total_s["exec.map"],
        "ledger.lookup_calls": lookups,
        "ledger.lookup_s": self_s["ledger.lookup"],
        "ledger.hit_ratio": _ratio(tr.counts["ledger.hit"], lookups),
        "ledger.stale": p.stale,
        "ledger.record_calls": setup_tracer.calls["ledger.record"],
        "ledger.record_s": setup_tracer.self_s["ledger.record"],
        "ledger.bytes_per_row": rows,
    }


def measure(args, scratch: str) -> Dict:
    wl = suite.build(args.workload, args.seed, args.tiny, scratch)
    setup_tracer = LayerTracer()
    if args.phase == "traced":
        setup_tracer.install(wl.kernels)
    try:
        ref = wl.warm_up()
    finally:
        setup_tracer.remove()
    measured = time.monotonic() - args.t_spawn - START_SAMPLING_S
    setup_s = measured * calibrate.speed(
        START_KERNEL_S + calibrate.sample(SETUP_KERNEL_S))
    if args.phase == "setup":
        return {"setup_s": setup_s, "measured_s": measured}

    untraced: List[Pass] = []
    traced: List[Pass] = []
    deadline = _perf() + args.seconds
    while True:
        untraced.append(run_pass(wl, ref, f"pass {len(untraced)}"))
        if args.phase == "traced":
            tracer = LayerTracer()
            with tracer.install(wl.kernels):
                p = run_pass(wl, ref, f"traced pass {len(traced)}")
            p.tracer = tracer
            traced.append(p)
        if _perf() >= deadline:
            break

    passes = untraced + traced
    out = {"spans": [{"traced": p.tracer is not None,
                      "op_latencies_s": p.latencies,
                      "op_measured_s": p.measured,
                      "kernel_s": p.kernel_s,
                      "layers": p.tracer.snapshot() if p.tracer else {}}
                     for p in passes],
           "attempted": sum(len(p.latencies) for p in passes),
           "failed": sum(len(p.failures) for p in passes),
           "failures": [f for p in passes for f in p.failures],
           "digest": suite.digest_of([d for i in sorted(ref)
                                      for d in ref[i]]),
           "notes": []}
    if args.phase == "timed":
        e2e = end_to_end(wl, untraced, setup_s)
        out["metrics"] = e2e["metrics"]
        out["notes"] += e2e["notes"]
        out["setup_measured_s"] = measured
        if wl.replay:
            out["notes"].append(
                f"sim_cycles of the cold fill {wl.cold_cycles}, of each "
                f"replay {untraced[0].cycles}")
    else:
        rows = [per_layer(wl, p, setup_tracer) for p in traced]
        layer = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        layer["trace.overhead_ratio"] = (sum(p.op_s for p in traced)
                                         / sum(p.op_s for p in untraced))
        out["metrics"] = layer
        out["notes"].append(f"{len(traced)} traced and {len(untraced)} "
                            "untraced passes, alternating")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    ap.add_argument("--scratch", required=True,
                    help="directory for this process's temporary files")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        out = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
