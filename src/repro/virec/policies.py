"""Register-cache replacement policies (Section 4 of the paper).

All policies operate on a fully-associative register cache of ``capacity``
entries and expose *eviction priority*: the entry with the **highest**
priority value is evicted first, matching the hardware formulation in
Section 5.1 ("the registers with the highest value are evicted first").

Metadata fields per entry (Table in Section 5.1: T/C/A = 3/1/3 bits):

``T`` (thread recency)
    0 for the running thread; set to maximum (7) for the thread being
    suspended at a context switch; decremented (saturating at 0) for every
    other thread.  With round-robin scheduling, high T = runs furthest in
    the future (Section 4.1, MRT ordering).
``C`` (commit)
    Speculatively initialized to 1 on access; reset to 0 by the rollback
    queue for registers of instructions flushed by a context switch.
    In-flight (C=0) registers are the first to be re-accessed when the
    thread resumes, so they are retained over committed ones (Section 4.2).
``A`` (age)
    3-bit saturating pseudo-LRU age: 0 on access, +1 on every subsequent
    instruction's register-file access.  Derived on read rather than
    stored: each entry keeps the instruction clock of its last age reset
    and ``A = min(A_MAX, clock - age_base)``.  That equals the hardware's
    per-instruction increment exactly because ages are only ever read
    for valid entries, and every (re)insert resets the age.
``D`` (dead)
    Compiler-assisted liveness hint: set at commit time for registers the
    static analysis (:mod:`repro.analysis.dataflow`) proved dead-on-commit
    (never read again before redefinition); cleared whenever the register
    is re-accessed.  Only the ``dead-*`` policies consume it.

Implemented policies and their priority functions:

=============  ==============================================
PLRU           ``A``                      (prior work [41])
LRU            exact age (oracle recency)
MRT-PLRU       ``(T << 3) | A``
MRT-LRU        ``T`` then exact age       (perfect variant)
LRC            ``(T << 4) | (C << 3) | A``  (the paper's policy)
dead-first     ``(D << 7) | LRC``  (dead registers evict first)
dead-elide     dead-first + BSI writeback elision in the VRMU
=============  ==============================================

Policies are constructed through the :data:`POLICIES` factory table —
:meth:`ReplacementPolicy.from_spec` / :func:`make_policy` — so config
strings, sweeps, and the Fig 12 study all share one registry.  Lint rule
VRC009 flags ad-hoc subclass construction in library code.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

A_MAX = 7  # 3-bit age
T_MAX = 7  # 3-bit thread recency

#: policy-name -> class factory table; populated by :func:`register_policy`
POLICIES: Dict[str, Type["ReplacementPolicy"]] = {}


def register_policy(cls: Type["ReplacementPolicy"]) -> Type["ReplacementPolicy"]:
    """Class decorator registering a policy under ``cls.name``."""
    POLICIES[cls.name] = cls
    return cls


class ReplacementPolicy:
    """Base class holding the T/C/A/D metadata arrays."""

    #: subclass name used by :meth:`from_spec`
    name = "base"
    #: whether the policy consumes the commit (C) bit
    uses_commit_bit = False
    #: whether the policy consumes thread-recency (T) bits
    uses_thread_bits = False
    #: whether the policy consumes dead-on-commit (D) hints — selecting
    #: such a policy is what turns static liveness annotation on
    uses_dead_hints = False
    #: whether the VRMU may skip the BSI spill of a dead victim
    elides_dead_writebacks = False

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("policy capacity must be >= 1")
        self.capacity = capacity
        self.T = np.zeros(capacity, dtype=np.int64)
        self.C = np.ones(capacity, dtype=np.int64)
        self.D = np.zeros(capacity, dtype=np.int64)  # dead-on-commit hint
        self.stamp = np.zeros(capacity, dtype=np.int64)  # exact recency
        #: instruction clock at each entry's last age reset (see ``A``)
        self.age_base = np.zeros(capacity, dtype=np.int64)
        self._clock = 0

    @classmethod
    def from_spec(cls, spec: str, capacity: int) -> "ReplacementPolicy":
        """Instantiate a registered policy from its config-string name."""
        try:
            policy_cls = POLICIES[spec]
        except KeyError:
            raise ValueError(
                f"unknown policy {spec!r}; choose from {sorted(POLICIES)}")
        return policy_cls(capacity)

    @property
    def A(self) -> np.ndarray:
        """3-bit saturating ages, derived from the instruction clock.

        A fresh array on every read: it is exact for valid entries only,
        and writing into it changes nothing (use :meth:`reset_age`).
        """
        return np.minimum(self._clock - self.age_base, A_MAX)

    # -- event hooks --------------------------------------------------------
    def on_instruction(self) -> None:
        """One instruction accessed the register file: age everyone (by
        advancing the clock that ``A`` is derived from)."""
        self._clock += 1

    def reset_age(self, idx: int) -> None:
        """Zero entry ``idx``'s age without touching its other metadata."""
        self.age_base[idx] = self._clock

    def on_access(self, idx: int) -> None:
        """Entry ``idx`` was referenced by the current instruction."""
        self.age_base[idx] = self._clock
        self.C[idx] = 1  # speculative commit initialization (Section 5.1)
        self.T[idx] = 0  # belongs to the running thread by construction
        self.D[idx] = 0  # referenced again: no longer dead
        self.stamp[idx] = self._clock

    def on_insert(self, idx: int) -> None:
        self.on_access(idx)

    def on_flush(self, idxs) -> None:
        """Rollback queue resets the C bit of flushed in-flight registers."""
        for idx in idxs:
            self.C[idx] = 0

    def mark_dead(self, idx: int) -> None:
        """Commit-time liveness hint: this entry's value is never read
        again before redefinition.  Cleared by the next :meth:`on_access`."""
        self.D[idx] = 1

    def on_context_switch(self, owner: np.ndarray, valid: np.ndarray,
                          prev_tid: int, new_tid: int) -> None:
        """Update T bits per Section 5.1."""
        prev_mask = valid & (owner == prev_tid)
        other_mask = valid & (owner != prev_tid)
        self.T[prev_mask] = T_MAX
        np.maximum(self.T - 1, 0, out=self.T, where=other_mask)
        self.T[valid & (owner == new_tid)] = 0

    # -- eviction ------------------------------------------------------------
    def priority(self) -> np.ndarray:
        """Eviction priority per entry (higher = evict first)."""
        raise NotImplementedError

    def select_victim(self, candidates: np.ndarray) -> int | None:
        """Index of the victim among boolean mask ``candidates`` (None if empty)."""
        if not candidates.any():
            return None
        prio = np.where(candidates, self.priority(), np.int64(-1 << 60))
        return int(prio.argmax())

    # -- introspection -------------------------------------------------------
    def describe(self, idx: int) -> dict:
        """Replacement metadata of one entry (telemetry event args).

        Exposes the T/C/A/D fields and the entry's current eviction priority
        so exported eviction events show *why* the policy chose a victim.
        """
        return {"T": int(self.T[idx]), "C": int(self.C[idx]),
                "A": int(self.A[idx]), "D": int(self.D[idx]),
                "prio": int(self.priority()[idx])}


@register_policy
class PLRU(ReplacementPolicy):
    """Age-only pseudo-LRU, as in the NSF [41] — thrashes across threads."""

    name = "plru"

    def priority(self) -> np.ndarray:
        return self.A


@register_policy
class LRU(ReplacementPolicy):
    """Exact recency (perfect LRU) — still scheduling-oblivious."""

    name = "lru"

    def priority(self) -> np.ndarray:
        return self._clock - self.stamp


@register_policy
class MRTPLRU(ReplacementPolicy):
    """Most-Recent-Thread PLRU: T bits concatenated above the PLRU age."""

    name = "mrt-plru"
    uses_thread_bits = True

    def priority(self) -> np.ndarray:
        return (self.T << 3) | self.A


@register_policy
class MRTLRU(ReplacementPolicy):
    """MRT with exact ages (perfect variant of Figure 12)."""

    name = "mrt-lru"
    uses_thread_bits = True

    def priority(self) -> np.ndarray:
        return (self.T << 40) + (self._clock - self.stamp)


@register_policy
class LRC(ReplacementPolicy):
    """Least Recently Committed: T, then C, then A (the paper's policy)."""

    name = "lrc"
    uses_commit_bit = True
    uses_thread_bits = True

    def priority(self) -> np.ndarray:
        return (self.T << 4) | (self.C << 3) | self.A


@register_policy
class DeadFirstLRC(LRC):
    """LRC with compiler dead hints concatenated on top.

    A register the static liveness pass proved dead-on-commit outranks
    every live entry (the full LRC priority is 7 bits, so ``D`` sits at
    bit 7): the cache preferentially reuses slots whose values can never
    be read again, keeping live working sets resident longer.
    """

    name = "dead-first"
    uses_dead_hints = True

    def priority(self) -> np.ndarray:
        return (self.D << 7) | super().priority()


@register_policy
class DeadElideLRC(DeadFirstLRC):
    """Dead-first eviction plus BSI writeback elision.

    In addition to preferring dead victims, the VRMU skips the backing-
    store spill entirely when the evicted register is dead — its value is
    unreadable, so the writeback bandwidth and port occupancy are pure
    waste (the compiler-assisted RF-cache argument from PAPERS.md).
    """

    name = "dead-elide"
    elides_dead_writebacks = True


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Instantiate a policy by registered name (see :data:`POLICIES`)."""
    return ReplacementPolicy.from_spec(name, capacity)


@register_policy
class SRRIP(ReplacementPolicy):
    """Static Re-Reference Interval Prediction [33], adapted to registers.

    The paper argues (Section 7) that RRIP-class policies "sample cache
    sets to determine whether cache items are recency-friendly or averse
    based on prior access, which does not work for registers as the reuse
    distance depends on the instruction and context switch behavior."
    Implemented here so that claim can be measured: entries insert with a
    long predicted re-reference interval (RRPV = max-1), promote to 0 on a
    hit, and the victim is any entry at max RRPV (aging everyone when none
    is).  Scheduling-oblivious by construction.
    """

    name = "srrip"
    RRPV_MAX = 7  # reuse the 3-bit A field as the RRPV

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # RRIP does not age per instruction (aging happens at eviction
        # time), so the RRPV is a stored array, not a clock-derived age
        self.rrpv = np.zeros(capacity, dtype=np.int64)

    @property
    def A(self) -> np.ndarray:
        return self.rrpv

    def reset_age(self, idx: int) -> None:
        self.rrpv[idx] = 0

    def on_access(self, idx: int) -> None:
        super().on_access(idx)
        self.rrpv[idx] = 0                   # promoted on re-reference

    def on_insert(self, idx: int) -> None:
        super().on_insert(idx)
        self.rrpv[idx] = self.RRPV_MAX - 1   # long re-reference prediction

    def select_victim(self, candidates: np.ndarray) -> int | None:
        if not candidates.any():
            return None
        # age until some candidate reaches RRPV max, then evict it
        rrpv = self.rrpv
        while True:
            at_max = candidates & (rrpv >= self.RRPV_MAX)
            if at_max.any():
                return int(np.flatnonzero(at_max)[0])
            np.minimum(rrpv + 1, self.RRPV_MAX, out=rrpv, where=candidates)

    def priority(self) -> np.ndarray:
        return self.rrpv


@register_policy
class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement — the no-information floor.

    Deterministic (xorshift seeded at construction) so simulations stay
    reproducible.
    """

    name = "random"

    def __init__(self, capacity: int, seed: int = 0x9E3779B9) -> None:
        super().__init__(capacity)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x

    def select_victim(self, candidates: np.ndarray) -> int | None:
        idxs = np.flatnonzero(candidates)
        if not idxs.size:
            return None
        return int(idxs[self._next() % idxs.size])

    def priority(self) -> np.ndarray:
        # only used for introspection; selection is randomized
        return self.A
