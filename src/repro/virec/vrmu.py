"""Virtual Register Management Unit (Section 5.1).

The VRMU sits in the decode stage.  For each instruction it looks up every
architectural register in the tag store; misses trigger victim selection
(via the replacement policy), a posted spill of the victim, and either a
latency-critical fill (source operands) or a dummy fill (destination-only
operands).  The instruction may enter the backend only when all its source
registers are resident — the front-end stall of Figure 4 (A)->(B).
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..isa.decoded import DecodedOp, Operand, reg_operands
from ..isa.instructions import Instruction
from ..stats.counters import Stats
from .bsi import BackingStoreInterface
from .policies import ReplacementPolicy
from .rollback import RollbackQueue
from .tagstore import TagStore


class CapacityError(ValueError):
    """Register file too small to hold one instruction's operands."""


class VRMU:
    """Decode-stage register virtualization engine."""

    #: most registers one instruction can name (madd: 4) plus slack for
    #: in-flight fills of the neighbouring instructions
    MIN_CAPACITY = 6

    def __init__(self, capacity: int, policy: ReplacementPolicy,
                 bsi: BackingStoreInterface,
                 rollback_depth: int = 4,
                 group_evict: int = 1,
                 stats: Optional[Stats] = None) -> None:
        if capacity < self.MIN_CAPACITY:
            raise CapacityError(
                f"register cache needs >= {self.MIN_CAPACITY} entries, got {capacity}")
        if group_evict < 1:
            raise ValueError("group_evict must be >= 1")
        self.stats = stats if stats is not None else Stats("vrmu")
        self.tagstore = TagStore(capacity, policy, self.stats.child("tagstore"))
        self.rollback = RollbackQueue(rollback_depth, self.stats.child("rollback"))
        self.bsi = bsi
        #: whether the policy consumes dead-on-commit hints; gates every
        #: hint-path branch so non-hint policies take byte-identical paths
        self.dead_hints: bool = policy.uses_dead_hints
        #: whether spills of dead victims are elided entirely
        self.elide_dead: bool = policy.elides_dead_writebacks
        #: >1 enables group evictions (the paper's future-work item): when a
        #: victim is needed, up to this many same-owner registers are spilled
        #: together, pre-freeing slots for the following misses.
        self.group_evict = group_evict
        #: registers each thread referenced during its latest run segment
        #: (drives the optional next-context prefetch, see ViReCConfig)
        self.segment_regs: dict = {}
        #: fill-issue cycles the latest :meth:`access` lost to spill port
        #: occupancy (read by the core's profile hook, never fed back into
        #: timing)
        self.last_spill_wait = 0
        #: optional :class:`~repro.faults.FaultInjector` probing physical
        #: register-file slots on every decode-stage read (strictly opt-in)
        self.fault_hook = None
        #: optional :class:`~repro.telemetry.VRMUProbe`; strictly opt-in and
        #: purely observational (occupancy/eviction-cause/residency probes)
        self.probe = None

    # -- decode-stage access ------------------------------------------------
    def access(self, tid: int, inst: Union[Instruction, DecodedOp],
               t: int) -> int:
        """Process one instruction's register lookups at decode time ``t``.

        Accepts an :class:`Instruction` or a :class:`DecodedOp` (the engine
        passes the latter, whose operand view was built once at decode).
        Returns the cycle at which all operands are resident and readable.
        """
        operands = (inst.operands if type(inst) is DecodedOp
                    else reg_operands(inst))
        self.last_spill_wait = 0
        if not operands:
            return t
        self.bsi.fill_spill_wait = 0
        ts = self.tagstore
        ts.on_instruction()
        tag_map = ts._map
        fill_ready = ts.fill_ready
        touch = ts.touch
        fault_hook = self.fault_hook
        probe = self.probe

        ready = t
        inst_slots: List[int] = []
        missing: List[Operand] = []
        segment = self.segment_regs.setdefault(tid, set())
        for operand in operands:
            reg, flat, is_src, is_dest = operand
            segment.add(flat)
            slot = tag_map.get((tid, flat))
            if slot is not None:
                touch(slot, is_dest)
                if fault_hook is not None:
                    ready = max(ready, fault_hook.on_slot_read(
                        tid, reg, slot, t, is_read=is_src))
                ready = max(ready, int(fill_ready[slot]))
                inst_slots.append(slot)
                if probe is not None:
                    probe.on_hit(tid, flat, t)
            else:
                missing.append(operand)
                if probe is not None:
                    probe.on_miss(tid, flat, t)
        # one counter update per access, not per register; a key is only
        # created once it has counted something, as with per-register incs
        stats = self.stats
        if inst_slots:
            stats.inc("hits", len(inst_slots))
        if missing:
            stats.inc("misses", len(missing))
        stats.inc("accesses", len(operands))

        t_fill = t
        for _, flat, is_src, is_dest in missing:
            victim_info = None
            victim_dead = False
            slot = ts.free_slot()
            if slot is None:
                victim = ts.select_victim(inst_slots, t_fill)
                if victim is not None and self.group_evict > 1:
                    self._group_evict(victim, inst_slots, t_fill)
                while victim is None:
                    # every candidate is an in-flight fill: wait for the
                    # earliest one to settle, then retry
                    pending = ts.fill_ready[ts.valid]
                    future = pending[pending > t_fill]
                    t_fill = int(future.min()) if future.size else t_fill + 1
                    self.stats.inc("victim_wait_cycles")
                    victim = ts.select_victim(inst_slots, t_fill)
                if probe is not None:
                    probe.on_evict(victim, tid, "capacity", t_fill)
                # D is cleared when the slot is re-inserted below, so the
                # victim's deadness must be captured before the insert
                victim_dead = self._victim_dead(victim)
                victim_info = ts.evict(victim)
                slot = victim
                self.stats.inc("spill_evictions")
            if is_src:
                done = self.bsi.fill(t_fill, tid, flat)
                ready = max(ready, done)
                ts.insert(slot, tid, flat, t_fill, fill_ready=done,
                          dirty=is_dest)
                if probe is not None:
                    probe.on_fill(tid, flat, t_fill, done)
            else:
                done = self.bsi.dummy_fill(t_fill, tid, flat)
                ts.insert(slot, tid, flat, t_fill, fill_ready=done, dirty=True)
                if probe is not None:
                    probe.on_fill(tid, flat, t_fill, done, dummy=True)
            if probe is not None:
                probe.on_insert(slot, tid, flat, t_fill)
            inst_slots.append(slot)
            # spill after the fill was issued: fills have port priority
            if victim_info is not None:
                vtid, vreg, vdirty = victim_info
                self._spill_victim(t_fill, victim_dead, vtid, vreg, vdirty)

        self.rollback.push(inst_slots, inst.is_mem)
        self.last_spill_wait = self.bsi.fill_spill_wait
        return ready

    # -- dead-hint plumbing (inert unless a dead-* policy is selected) -------
    def _victim_dead(self, victim: int) -> bool:
        """Whether the chosen victim carries a dead-on-commit hint."""
        if not self.dead_hints:
            return False
        return bool(self.tagstore.policy.D[victim])

    def _spill_victim(self, t: int, dead: bool, vtid: int, vreg: int,
                      vdirty: bool) -> None:
        """Write back (or elide) one evicted register."""
        if dead:
            self.stats.inc("dead_evictions")
            if self.elide_dead:
                self.stats.inc("elided_writebacks")
                self.bsi.elide_spill(t, vtid, vreg)
                return
        self.bsi.spill(t, vtid, vreg, vdirty)
        if self.probe is not None:
            self.probe.on_spill(vtid, vreg, vdirty, t)

    def _group_evict(self, victim: int, inst_slots, t: int) -> None:
        """Spill up to ``group_evict - 1`` additional registers of the
        victim's owning thread, pre-freeing slots for the following misses
        (paper future work: 'improved replacement policies for group
        evictions')."""
        ts = self.tagstore
        victim_owner = int(ts.owner[victim])
        extra = 0
        while extra < self.group_evict - 1:
            candidates = (ts.valid & (ts.owner == victim_owner)
                          & (ts.fill_ready <= t))
            for slot in inst_slots:
                candidates[slot] = False
            candidates[victim] = False
            nxt = ts.policy.select_victim(candidates)
            if nxt is None:
                break
            if self.probe is not None:
                self.probe.on_evict(nxt, victim_owner, "group", t)
            dead = self._victim_dead(nxt)
            vtid, vreg, vdirty = ts.evict(nxt)
            self._spill_victim(t, dead, vtid, vreg, vdirty)
            self.stats.inc("group_evictions")
            extra += 1

    def prefetch_context(self, tid: int, t: int) -> int:
        """Prefetch the registers ``tid`` used in its last run segment into
        the register cache (paper future work: 'combinations of prefetching
        with ViReC caching').  Returns the last fill completion cycle."""
        ts = self.tagstore
        done = t
        for flat in sorted(self.segment_regs.get(tid, ())):
            if ts.lookup(tid, flat) is not None:
                continue
            slot = ts.free_slot()
            if slot is None:
                victim = ts.select_victim([], t)
                if victim is None or int(ts.owner[victim]) == tid:
                    break  # nothing worth displacing
                if self.probe is not None:
                    self.probe.on_evict(victim, tid, "prefetch", t)
                dead = self._victim_dead(victim)
                vtid, vreg, vdirty = ts.evict(victim)
                self._spill_victim(t, dead, vtid, vreg, vdirty)
                slot = victim
            fill_done = self.bsi.fill(t, tid, flat)
            ts.insert(slot, tid, flat, t, fill_ready=fill_done)
            if self.probe is not None:
                self.probe.on_fill(tid, flat, t, fill_done)
                self.probe.on_insert(slot, tid, flat, t)
            done = max(done, fill_done)
            self.stats.inc("context_prefetches")
        return done

    # -- backend signals --------------------------------------------------------
    def on_commit(self, tid: Optional[int] = None,
                  op: Optional[DecodedOp] = None) -> None:
        """Commit detection logic: pop the oldest rollback entry.

        With a dead-hint policy selected, the committing op's statically
        computed kill set (registers provably never read again before
        redefinition — see :mod:`repro.analysis.dataflow`) marks the
        matching resident entries dead.  Marking happens at *commit*, not
        decode, so flushed/replayed instructions never plant speculative
        hints; a flushed op's registers keep their normal metadata.
        """
        self.rollback.pop_commit()
        if not self.dead_hints or op is None or tid is None:
            return
        kills = getattr(op, "kill_flats", None)
        if not kills:
            return
        ts = self.tagstore
        marked = 0
        for flat in kills:
            slot = ts.lookup(tid, flat)
            if slot is not None:
                ts.policy.mark_dead(slot)
                marked += 1
        if marked:
            self.stats.inc("dead_marks", marked)

    def on_flush(self, tid: int, flushed_insts: List[Instruction]) -> None:
        """Context switch flush: reset C bits of in-flight registers.

        ``flushed_insts`` is the missing load plus the younger instructions
        already in the frontend; the youngsters' resident registers were
        accessed by decode just before the switch, so they are marked
        recently-used and in-flight (C=0) — the retention effect of
        Section 4.2.  (Fills for non-resident youngster registers are
        squashed with the flush and not modelled.)
        """
        ts = self.tagstore
        slots = set(self.rollback.flush())
        for inst in flushed_insts:
            for reg in inst.regs:
                slot = ts.lookup(tid, reg.flat)
                if slot is not None:
                    ts.policy.reset_age(slot)
                    slots.add(slot)
        ts.policy.on_flush(slots)
        self.stats.inc("flush_resets", len(slots))

    def on_context_switch(self, prev_tid: int, new_tid: int) -> None:
        self.tagstore.on_context_switch(prev_tid, new_tid)

    # -- reporting -----------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 1.0
