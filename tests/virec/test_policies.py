"""Unit tests for the register-cache replacement policies (Section 4)."""

import numpy as np
import pytest

from repro.isa import Instruction, Opcode, X
from repro.virec.policies import (
    A_MAX,
    LRC,
    LRU,
    MRTLRU,
    MRTPLRU,
    PLRU,
    SRRIP,
    T_MAX,
    make_policy,
)
from repro.virec.tagstore import TagStore

from .test_vrmu_unit import make_vrmu


def all_valid(n):
    return np.ones(n, dtype=bool)


def test_make_policy_names():
    for name in ("plru", "lru", "mrt-plru", "mrt-lru", "lrc"):
        assert make_policy(name, 8).name == name
    with pytest.raises(ValueError):
        make_policy("belady", 8)
    with pytest.raises(ValueError):
        make_policy("plru", 0)


def test_plru_ages_saturate():
    p = PLRU(4)
    for _ in range(20):
        p.on_instruction()
    assert (p.A == A_MAX).all()
    # ages are derived from the instruction clock, so an evicted entry's
    # saturated age must not survive into its re-insert
    p.on_insert(2)
    assert p.A[2] == 0 and (p.A[[0, 1, 3]] == A_MAX).all()
    for expected in range(1, A_MAX + 3):
        p.on_instruction()
        assert p.A[2] == min(expected, A_MAX)
    # A is a derived copy: writing into it cannot change the policy
    p.A[2] = 0
    assert p.A[2] == A_MAX
    stamp = int(p.stamp[2])
    p.reset_age(2)
    assert p.A[2] == 0 and p.stamp[2] == stamp  # LRU recency untouched


def test_lazy_ages_match_eager_aging():
    """Random tag-store traffic: the derived ages of valid entries equal
    the per-instruction saturating increment they replace."""
    rng = np.random.default_rng(5)
    ts = TagStore(6, LRC(6))
    eager = np.zeros(6, dtype=np.int64)
    for now in range(1, 400):
        ts.on_instruction()
        np.minimum(eager + 1, A_MAX, out=eager, where=ts.valid)
        tid, reg = int(rng.integers(3)), int(rng.integers(8))
        slot = ts.lookup(tid, reg)
        if slot is None:
            slot = ts.free_slot()
            if slot is None:
                slot = ts.select_victim([], now)
                ts.evict(slot)
            ts.insert(slot, tid, reg, now)
        else:
            ts.touch(slot, is_write=False)
        eager[slot] = 0
        if rng.random() < 0.1:
            ts.policy.reset_age(slot)
        valid = ts.valid
        assert (ts.policy.A[valid] == eager[valid]).all()


def test_flush_resets_age_through_policy(monkeypatch):
    """VRMU.on_flush zeroes the flushed registers' ages via reset_age."""
    vrmu = make_vrmu(capacity=8)
    inst = Instruction(Opcode.ADD, rd=X(3), rn=X(1), rm=X(2))
    vrmu.access(0, inst, 0)
    for _ in range(A_MAX):
        vrmu.access(0, Instruction(Opcode.NOP), 0)
        vrmu.access(1, Instruction(Opcode.ADD, rd=X(5), rn=X(5), rm=X(5)), 0)
    ts = vrmu.tagstore
    slots = [ts.lookup(0, r) for r in (1, 2, 3)]
    assert (ts.policy.A[slots] == A_MAX).all()
    reset = []
    original = ts.policy.reset_age
    monkeypatch.setattr(ts.policy, "reset_age",
                        lambda idx: (reset.append(idx), original(idx)))
    vrmu.on_flush(0, [inst])
    assert sorted(reset) == sorted(slots)
    assert (ts.policy.A[slots] == 0).all()
    assert (ts.policy.C[slots] == 0).all()


def test_srrip_rrpv_is_stored_not_derived():
    """SRRIP keeps an eager RRPV: instructions do not age it, eviction
    sweeps do, and the flush reset promotes it to 0."""
    p = SRRIP(4)
    valid = all_valid(4)
    for i in range(4):
        p.on_insert(i)
    for _ in range(20):
        p.on_instruction()
    assert (p.A == SRRIP.RRPV_MAX - 1).all()
    p.on_access(1)
    assert p.select_victim(valid) == 0
    assert p.A.tolist() == [SRRIP.RRPV_MAX, 1, SRRIP.RRPV_MAX,
                            SRRIP.RRPV_MAX]
    p.reset_age(2)
    assert p.A[2] == 0 and p.A is p.rrpv


def test_plru_evicts_oldest():
    p = PLRU(4)
    v = all_valid(4)
    for i in range(4):
        p.on_instruction()
        p.on_access(i)
    # entry 0 accessed longest ago -> highest age -> victim
    assert p.select_victim(v) == 0


def test_lru_exact_recency():
    p = LRU(8)
    v = all_valid(8)
    order = [3, 1, 4, 0, 5, 2, 6, 7]
    for i in order:
        p.on_instruction()
        p.on_access(i)
    assert p.select_victim(v) == 3  # least recently used


def test_plru_fuzzes_old_ages_but_lru_does_not():
    """With 3-bit ages, accesses >7 instructions apart are indistinguishable."""
    plru, lru = PLRU(4), LRU(4)
    for pol in (plru, lru):
        pol.on_access(0)
        for _ in range(10):
            pol.on_instruction()
        pol.on_access(1)
        for _ in range(10):
            pol.on_instruction()
    # both 0 and 1 saturated for PLRU
    assert plru.A[0] == plru.A[1] == A_MAX
    # exact LRU still distinguishes them
    assert lru.priority()[0] > lru.priority()[1]


def test_mrt_plru_targets_most_recently_suspended_thread():
    """Figure 5: evict from the thread that will run furthest in the future."""
    p = MRTPLRU(6)
    valid = all_valid(6)
    owner = np.array([0, 0, 0, 1, 1, 1])
    # thread 0 was running and is now suspended; thread 1 takes over
    for i in range(6):
        p.on_access(i)
    p.on_context_switch(owner, valid, prev_tid=0, new_tid=1)
    assert (p.T[:3] == T_MAX).all()
    assert (p.T[3:] == 0).all()
    victim = p.select_victim(valid)
    assert victim < 3  # a register of the suspended thread


def test_t_bits_decrement_for_other_threads():
    p = MRTPLRU(4)
    valid = all_valid(4)
    owner = np.array([0, 1, 2, 3])
    p.on_context_switch(owner, valid, prev_tid=0, new_tid=1)
    assert p.T[0] == T_MAX
    p.on_context_switch(owner, valid, prev_tid=1, new_tid=2)
    assert p.T[1] == T_MAX
    assert p.T[0] == T_MAX - 1  # decremented
    assert p.T[2] == 0          # running thread
    # round-robin: oldest-suspended thread has the lowest T
    p.on_context_switch(owner, valid, prev_tid=2, new_tid=3)
    assert p.T[0] == T_MAX - 2


def test_lrc_prefers_committed_over_inflight():
    """Figure 6: same thread, same saturated age — C bit breaks the tie."""
    p = LRC(3)
    v = all_valid(3)
    for i in range(3):
        p.on_access(i)
    for _ in range(10):
        p.on_instruction()   # all ages saturate
    p.on_flush([0, 1])        # regs 0,1 were in flight when flushed
    assert p.C[0] == 0 and p.C[1] == 0 and p.C[2] == 1
    assert p.select_victim(v) == 2  # committed register evicted first


def test_lrc_thread_bits_dominate_commit_bit():
    p = LRC(4)
    valid = all_valid(4)
    owner = np.array([0, 0, 1, 1])
    for i in range(4):
        p.on_access(i)
    p.on_flush([2])  # an in-flight reg of thread 1
    p.on_context_switch(owner, valid, prev_tid=0, new_tid=1)
    # thread-0 registers (T=7) evicted before thread-1 even though committed
    assert p.select_victim(valid) in (0, 1)


def test_speculative_commit_initialization():
    p = LRC(2)
    p.on_access(0)
    assert p.C[0] == 1  # speculatively committed until a flush says otherwise


def test_select_victim_respects_candidates():
    p = PLRU(4)
    for _ in range(3):
        p.on_instruction()
    cand = np.array([False, True, False, False])
    assert p.select_victim(cand) == 1
    none = np.zeros(4, dtype=bool)
    assert p.select_victim(none) is None


def test_mrt_lru_orders_within_thread_exactly():
    p = MRTLRU(4)
    v = all_valid(4)
    owner = np.zeros(4, dtype=int)
    for i in (2, 0, 3, 1):
        p.on_instruction()
        p.on_access(i)
    assert p.select_victim(v) == 2


def test_policy_flag_metadata():
    assert LRC.uses_commit_bit and LRC.uses_thread_bits
    assert MRTPLRU.uses_thread_bits and not MRTPLRU.uses_commit_bit
    assert not PLRU.uses_thread_bits
