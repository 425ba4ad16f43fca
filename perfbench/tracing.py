"""Per-layer host-time tracing, installed from outside the simulator.

:class:`LayerTracer` wraps public entry points of the simulator's layers
(``VRMU.access``, ``Cache.access``, ``Stats.inc``, ...) with timing shims
for the duration of a ``with`` block and restores the originals on exit.
Every shim pushes a frame on one span stack, so each call's *self* time is
its duration minus the time its traced callees took.  Aggregates (calls,
self seconds, boundary counts) stay in memory; the caller writes them out
once the benchmark ends.

Two rules keep the traced program identical to the measured one:

* ``compile_program`` is bound by name when ``repro.core.base`` is
  imported, so the shim replaces that module global, not the definition in
  ``repro.isa.compiled``.
* Core hook methods (``decode_regs_ready``, ``on_commit``) are never
  wrapped: ``TimelineCore`` picks its compiled engine variant from whether
  a subclass overrides them, so wrapping them would change the code under
  measurement.  The VRMU's own methods are wrapped instead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


def _assign(owner, attr: str, value) -> None:
    # frozen dataclass instances (WorkloadSpec) refuse plain setattr
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


def _public_methods(cls) -> List[str]:
    return [name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")]


class LayerTracer:
    """Span-stack timing shims over the simulator's layer entry points.

    ``calls[name]`` and ``self_s[name]`` aggregate every call of one traced
    entry point; ``counts[name]`` holds boundary counts that the shims read
    off arguments and results (register traffic, hits, retries).
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        # one child-time accumulator per open span; index 0 is the root
        self._stack: List[List[float]] = [[0.0]]
        self._undo: List[Tuple[object, str, object]] = []

    # -- shim construction --------------------------------------------------
    def _shim(self, fn: Callable, name, observe: Optional[Callable] = None):
        stack, calls = self._stack, self.calls
        self_s, total_s = self.self_s, self.total_s
        named = isinstance(name, str)

        def traced(*args, **kw):
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                out = fn(*args, **kw)
            finally:
                dur = _perf() - t0
                stack.pop()
                stack[-1][0] += dur
                key = name if named else name(args)
                calls[key] += 1
                total_s[key] += dur
                self_s[key] += dur - frame[0]
            if observe is not None:
                observe(args, kw, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name, observe=None) -> None:
        original = vars(owner)[attr]
        _assign(owner, attr, self._shim(original, name, observe))
        self._undo.append((owner, attr, original))

    def _patch_class(self, cls, prefix: str) -> None:
        for attr in _public_methods(cls):
            self._patch(cls, attr, prefix)

    # -- install / remove -----------------------------------------------------
    def install(self, kernels=()) -> "LayerTracer":
        """Wrap every traced entry point; ``kernels`` names the workload
        specs whose ``build`` is timed."""
        import repro.core.base as core_base
        from repro import workloads
        from repro.ledger import CachedBackend, LedgerReader, Recorder
        from repro.memory.cache import Cache
        from repro.memory.crossbar import Crossbar
        from repro.memory.dram import DRAM
        from repro.metrics import CoreMetrics
        from repro.profiling.attributor import CycleAttributor
        from repro.stats.counters import Stats
        from repro.system.node import NearMemoryNode
        from repro.telemetry.probes import CoreTelemetry, VRMUProbe
        from repro.virec.bsi import BackingStoreInterface
        from repro.virec.vrmu import VRMU

        counts = self.counts

        def dcache_seen(args, kw, out):
            if args[0].config.name != "dcache":
                return
            if kw.get("is_register"):
                counts["dcache.register"] += 1
            if out.retry_at is not None:
                counts["dcache.retry"] += 1
            elif out.hit:
                counts["dcache.hit"] += 1

        def lookup_seen(args, kw, out):
            if out is not None:
                counts["ledger.hit"] += 1

        self._patch(core_base, "compile_program", "isa.compile")
        for kernel in kernels:
            self._patch(workloads.get(kernel), "build", "workloads.build")
        self._patch(NearMemoryNode, "run", "core.run")
        self._patch(VRMU, "access", "virec.access")
        self._patch(VRMU, "on_commit", "virec.commit")
        self._patch(VRMU, "on_context_switch", "virec.switch")
        for attr in ("fill", "dummy_fill", "spill"):
            self._patch(BackingStoreInterface, attr, f"virec.bsi.{attr}")
        self._patch(Cache, "access",
                    lambda args: "memory." + args[0].config.name, dcache_seen)
        self._patch(DRAM, "access", "memory.dram")
        self._patch(Crossbar, "access", "memory.crossbar")
        self._patch(Stats, "inc", "stats.inc")
        self._patch_class(CoreTelemetry, "telemetry")
        self._patch_class(VRMUProbe, "telemetry")
        self._patch_class(CoreMetrics, "metrics")
        self._patch_class(CycleAttributor, "profiling")
        self._patch(LedgerReader, "lookup_result", "ledger.lookup", lookup_seen)
        self._patch(Recorder, "record_result", "ledger.record")
        self._patch(CachedBackend, "map", "exec.map")
        return self

    def remove(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._undo:
            _assign(*self._undo.pop())

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reading --------------------------------------------------------------
    def sum_self(self, prefix: str) -> float:
        """Self seconds of every entry point named ``prefix`` or below it."""
        return sum(v for k, v in self.self_s.items()
                   if k == prefix or k.startswith(prefix + "."))

    def sum_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items()
                   if k == prefix or k.startswith(prefix + "."))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict aggregates, one row per traced entry point."""
        return {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                    "total_s": self.total_s[k]}
                for k in sorted(self.calls)}
