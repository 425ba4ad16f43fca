"""The benchmark's four workloads: their configs, set-up and one op each.

Every kernel comes from ``repro.experiments.common.SUITE``.  Sizes are
balanced so that each kernel commits about as many simulated instructions
per 8-thread run as ``gather`` does at the figure drivers' default
``"quick"`` scale (``n_per_thread`` 48: 2,352 instructions).  At equal
``n_per_thread`` ``spmv`` alone would be half of the suite's
instructions.  The workload seed goes into
``RunConfig.seed``; every config starts with empty caches because
``run_config`` builds a fresh memory hierarchy per run.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Sequence

from repro.exec import SerialBackend
from repro.experiments import fig12
from repro.experiments.common import SUITE, run_many
from repro.ledger import CachedBackend, LedgerReader
from repro.system import RunConfig, run_config

#: ``n_per_thread`` per kernel for ~2,352 simulated instructions at 8
#: threads, the count of ``gather`` at ``SCALES["quick"]``
SIZES: Dict[str, int] = {
    "gather": 48, "scatter": 48, "stride": 47, "meabo": 30,
    "pointer_chase": 96, "reduction": 57, "vecadd": 41, "triad": 41,
    "spmv": 4, "histogram": 36,
}
#: the self-test's tiny size
TINY_SIZES: Dict[str, int] = {"gather": 2, "pointer_chase": 4}
if tuple(SIZES) != SUITE:
    raise RuntimeError("SIZES must list repro.experiments.common.SUITE")

#: Fig 12 kernels of the replay grid (spmv left out to keep the cold fill
#: short) and the self-test's tiny grid
REPLAY_KERNELS = ("gather", "stride", "pointer_chase", "histogram")
TINY_REPLAY_KERNELS = ("gather",)

THREADS = 8
#: telemetry of the observed workload: events plus an interval sampler
OBSERVED_TELEMETRY = {"events": True, "interval": 500}
#: op-latency percentile reported as ``op_s_tail``, fixed per workload so
#: that a faster commit, which runs more ops, reports the same percentile.
#: A few percent of the ~7 ms replay ops take 2-5x the median whatever the
#: code does, so p95 there flips between the body and those spikes.
TAIL_PERCENTILE = {"virec_contention": 90, "baseline_cores": 90,
                   "virec_observed": 80, "sweep_replay": 90}
#: samples ``op_s_tail`` needs beyond its percentile to be trusted
TAIL_BEYOND = 10


def result_digest(result) -> str:
    """Digest of one result's cycles, instructions and flattened Stats."""
    payload = repr((result.cycles, result.instructions,
                    sorted(result.stats.flat())))
    return hashlib.sha256(payload.encode()).hexdigest()


def digest_of(digests: Sequence[str]) -> str:
    """One workload digest over per-config digests, in config order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


class SimulationWorkload:
    """A list of RunConfigs; one op is one checked ``run_config`` call."""

    replay = False

    def __init__(self, name: str, configs: List[RunConfig]) -> None:
        self.name = name
        self.configs = configs
        self.items = configs
        self.kernels = sorted({c.workload for c in configs})

    def warm_up(self) -> Dict[int, List[str]]:
        """Run one config of every (kernel, core, node size) shape.

        Returns reference digests by item index for the configs it ran.
        """
        seen, ref = set(), {}
        for i, cfg in enumerate(self.configs):
            shape = (cfg.workload, cfg.core_type, cfg.n_cores)
            if shape not in seen:
                seen.add(shape)
                ref[i] = [result_digest(run_config(cfg, check=True))]
        return ref

    def op(self, cfg: RunConfig):
        """One op: its results and ledger lookup grades (none here)."""
        return [run_config(cfg, check=True)], None


class ReplayWorkload:
    """A warm Fig 12 regeneration from a fresh ledger.

    Set-up fills the ledger with a cold pass; one op replays the whole
    grid through ``CachedBackend`` over ``SerialBackend`` -- the path
    ``fig12.run(cache=...)`` takes -- and must be served entirely by hits.
    """

    replay = True

    def __init__(self, name: str, configs: List[RunConfig],
                 ledger_path: str) -> None:
        self.name = name
        self.configs = configs
        self.items = [configs]
        self.kernels = sorted({c.workload for c in configs})
        self.ledger_path = ledger_path
        self.cold_cycles = 0

    def op(self, configs: List[RunConfig]):
        """One warm regeneration: its results and ledger lookup grades."""
        cached = CachedBackend(self.ledger_path, inner=SerialBackend())
        try:
            results = run_many(configs, check=True, backend=cached)
        finally:
            cached.close()
        return results, cached.counts

    def warm_up(self) -> Dict[int, List[str]]:
        results, counts = self.op(self.configs)
        if counts["miss"] != len(self.configs):
            raise RuntimeError(f"cold fill was not all misses: {counts}")
        self.cold_cycles = sum(r.cycles for r in results)
        return {0: [result_digest(r) for r in results]}

    def ledger_bytes_per_row(self) -> float:
        with LedgerReader(self.ledger_path) as reader:
            rows = reader.count()
        size = sum(os.path.getsize(p) for p in
                   (self.ledger_path, self.ledger_path + "-wal")
                   if os.path.exists(p))
        return size / rows if rows else 0.0


def _sim_cfg(kernel: str, n: int, seed: int, **kw) -> RunConfig:
    return RunConfig(workload=kernel, n_threads=THREADS, n_per_thread=n,
                     seed=seed, **kw)


def build(name: str, seed: int, tiny: bool, scratch_dir: str):
    """The named workload for ``seed`` (``tiny`` for the self-test)."""
    sizes = TINY_SIZES if tiny else SIZES
    if name == "virec_contention":
        return SimulationWorkload(name, [
            _sim_cfg(k, n, seed, core_type="virec", context_fraction=frac,
                     policy=policy)
            for k, n in sizes.items()
            for frac in (0.8, 0.4) for policy in ("lrc", "plru")])
    if name == "baseline_cores":
        return SimulationWorkload(name, [
            _sim_cfg(k, n, seed, core_type=core, n_cores=cores)
            for core, cores in (("banked", 1), ("fgmt", 1), ("banked", 4))
            for k, n in sizes.items()])
    if name == "virec_observed":
        return SimulationWorkload(name, [
            _sim_cfg(k, n, seed, core_type="virec", context_fraction=0.8,
                     policy="lrc", telemetry=OBSERVED_TELEMETRY,
                     metrics=True, profile=True)
            for k, n in sizes.items()])
    if name == "sweep_replay":
        kernels = TINY_REPLAY_KERNELS if tiny else REPLAY_KERNELS
        grid = fig12.grid(4 if tiny else "tiny", workloads=kernels,
                          n_threads=THREADS)
        return ReplayWorkload(name, [c.with_(seed=seed) for c in grid],
                              os.path.join(scratch_dir, "ledger.sqlite"))
    raise ValueError(f"unknown workload {name!r}")
