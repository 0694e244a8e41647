"""The vectorized mega-batch litmus backend (``--backend vector``).

The direct runner interprets one execution at a time: every store-buffer
decision is one scalar draw and one Python branch, which caps a worker
at a few thousand executions per second — far short of the paper's
~half-billion execution campaign.  This backend lowers an IR test to
*structure-of-arrays* form and advances thousands of independent
executions ("lanes") per vectorized operation:

* all random quantities come from **batched** ``Generator`` draws (one
  array draw per decision *kind*, not one scalar draw per decision);
* per-lane store-buffer and channel state lives in 2-D numpy arrays
  (``(locations, lanes)`` probability tables, ``(stores, lanes)``
  entry/commit-time stacks);
* fences and rmw atomics are masked lane operations;
* the forbidden-outcome condition is compiled to a boolean array
  expression over per-lane register values and final memory.

**The model.**  Instead of stepping the tick loop, the backend samples
the *event times* of the same operational model (see
:mod:`repro.gpu.memory`): per-tick Bernoulli gates become geometric
inter-event times, the head-vs-successor store race (swap probability
vs head drain probability per tick) becomes one geometric race with a
conditional outcome draw, and deferred-load resolution becomes a
sampled resolve time clipped by the program-order events (same-channel
FIFO, failed SB bypasses, fences, later same-address stores) that the
scalar core enforces operationally.  Within-tick commit order is
totally ordered by ``(tick, SM, buffer position)`` keys, mirroring the
scalar drain pump's sorted-SM sweep, so coherence tie-breaks (CoRR,
CoWW, SB at small distance) come out the same way.

**The statistical contract.**  The backend is *not* draw-identical to
the scalar core — it consumes a different stream in a different order —
so its correctness is established statistically rather than bit-wise
(the same move the formal-semantics literature makes when it replaces
executions with a declared model): ``tests/test_vector_backend.py``
checks SC-soundness of every registry test on this backend and
weak-rate *parity* against the direct backend per (test, chip,
environment) with the two-proportion tests of
:mod:`repro.testing.stats`.  Known, deliberate approximations (all
statistically invisible at parity-test power): threads with three or
more stores race them in consecutive pairs rather than through a full
queue scan, and stores separated by an rmw do not race each other.

**The determinism contract.**  Executions are processed in fixed-size
mega-batches of :data:`LANE_BLOCK` lanes; batch ``b`` always covers
global executions ``[b * LANE_BLOCK, (b + 1) * LANE_BLOCK)`` and seeds
its generator from ``(seed, chip, test, distance, "vector", b)``.
Sharding (``--jobs N``) distributes whole batches, so results are
bit-identical at any job count — the :mod:`repro.parallel` determinism
contract, at batch rather than execution granularity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..chips.profile import HardwareProfile
from ..errors import InvalidStressConfigError
from ..gpu.memory import _PARKED_DRAIN, memory_tables
from ..gpu.pressure import _THREADS_NORM, StressField
from ..stress.strategies import NoStress, TunedStress
from ..parallel import ParallelConfig
from ..rng import derive_seed, make_rng
from .ir import And, I_FENCE, I_LOAD, I_RMW, I_STORE, LocEq, Or, RegEq
from .results import LitmusResult
from .runner import (
    _EXEC_P,
    _MAX_START_DELAY,
    _ROUNDS,
    LitmusInstance,
    _run_backend,
)
from .tests import LitmusTest

#: Executions per mega-batch.  Fixed (never derived from the job count)
#: so that batch boundaries — and therefore every draw — are identical
#: under any sharding.
LANE_BLOCK = 4096

#: Sentinel tick for events that never happen (a zero-probability gate).
_NEVER = np.int64(1) << np.int64(40)
#: Cap on any single geometric draw, in ticks.  Far beyond the scalar
#: drain budget; keeps commit keys inside int64.
_GEOM_CAP = float(1 << 20)
#: Commit keys are ``tick * _TIE + rank`` where ``rank`` orders the
#: write events of one round thread-major — the scalar drain pump
#: sweeps SMs in ascending order, so same-tick commits land in SM
#: (= thread) order, then buffer (= program) order.
_TIE = np.int64(64)
#: Key sentinel mirroring :data:`_NEVER`.
_NEVER_KEY = _NEVER * _TIE


def _geometric(rng, p, n: int):
    """Ticks until the first success of a per-tick Bernoulli(p), >= 1.

    Accepts scalar or per-lane ``p``; ``p <= 0`` yields :data:`_NEVER`.
    Inverse-CDF sampling, so one uniform draw per lane per decision kind
    replaces the scalar core's one draw per tick per decision.
    """
    p = np.asarray(p, dtype=np.float64)
    u = rng.random(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(u) / np.log1p(-p)
    g = np.where(np.isfinite(g), g, 0.0)
    out = np.minimum(np.floor(g), _GEOM_CAP).astype(np.int64) + 1
    return np.where(p <= 0.0, _NEVER, out)


class _Op(NamedTuple):
    kind: str
    loc: int  # location index; -1 for fences
    value: int  # stored value (st/rmw)
    reg: str | None  # destination register (ld/rmw)


class _VectorPlan(NamedTuple):
    """Static per-(chip, instance) lowering, shared by every batch."""

    n_threads: int
    ops: tuple  # per thread: tuple[_Op, ...]
    addrs: tuple  # per location index
    chans: tuple
    ranks: dict  # (thread, op position) -> write rank, thread-major
    flip_ranks: dict  # same, under reversed SM assignment (randomise)
    pair_gate: dict  # (loc_a, loc_b) -> ("none",) | ("leak",) | ("swap", slot)
    chain_gate: dict  # (loc_a, loc_b) -> bool (loads stay ordered)
    swap_pairs: tuple  # (channel_a, channel_b) rows backing the swap slots
    leak: float
    cond: object
    cond_locs: tuple  # (location name, location index) pairs
    n_locs: int
    state_regs: tuple  # registers, sorted: the state-key order
    state_locs: tuple  # (name, index) of written locations, sorted


#: Plan cache, keyed by (chip cache token, instance) — the profile
#: itself may hold unhashable fields, its cache token is its identity.
_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 512


def _vector_plan(
    profile: HardwareProfile, instance: LitmusInstance
) -> _VectorPlan:
    key = (profile.cache_token, instance)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    test = instance.test
    addrs = instance.loc_addrs()
    chans = tuple(profile.channel(a) for a in addrs)
    min_dist = profile.store_store_min_distance
    leak = profile.store_swap_leak
    loc_index = {name: i for i, name in enumerate(test.locations)}

    ops = []
    for program in test.threads:
        row = []
        for ins in program:
            kind = ins[0]
            if kind == I_STORE:
                row.append(_Op(kind, loc_index[ins[1]], ins[2], None))
            elif kind == I_LOAD:
                row.append(_Op(kind, loc_index[ins[1]], 0, ins[2]))
            elif kind == I_RMW:
                row.append(_Op(kind, loc_index[ins[1]], ins[3], ins[2]))
            else:
                row.append(_Op(kind, -1, 0, None))
        ops.append(tuple(row))
    ops = tuple(ops)

    # Ranks order same-slot events: the scalar core sweeps threads (and
    # the drain pump sweeps SMs) in ascending order, so events sharing
    # a time slot land thread-major, program order within a thread.
    # They start at 1 so a key's remainder distinguishes ranked events
    # from bare pump-slot resolutions (the chain rule needs this).
    ranks: dict = {}
    rank = 1
    for t, row in enumerate(ops):
        for p, _ in enumerate(row):
            ranks[(t, p)] = rank
            rank += 1
    if rank > int(_TIE):
        raise ValueError(
            f"{test.name}: {rank - 1} events exceed the vector "
            f"backend's tie-break capacity of {int(_TIE) - 1}"
        )
    flip_ranks: dict = {}
    rank = 1
    for t in reversed(range(len(ops))):
        for p, _ in enumerate(ops[t]):
            flip_ranks[(t, p)] = rank
            rank += 1

    pair_gate: dict = {}
    chain_gate: dict = {}
    pair_index: dict = {}
    swap_pairs: list = []
    n_locs = len(addrs)
    for a in range(n_locs):
        for b in range(n_locs):
            close = abs(addrs[a] - addrs[b]) < min_dist
            chain_gate[(a, b)] = chans[a] == chans[b] or close
            if a == b:
                pair_gate[(a, b)] = ("none",)
            elif chans[a] == chans[b]:
                pair_gate[(a, b)] = ("leak",) if leak > 0.0 else ("none",)
            elif close:
                pair_gate[(a, b)] = ("none",)
            else:
                chp = (chans[a], chans[b])
                slot = pair_index.get(chp)
                if slot is None:
                    slot = len(swap_pairs)
                    pair_index[chp] = slot
                    swap_pairs.append(chp)
                pair_gate[(a, b)] = ("swap", slot)

    cond_locs = tuple(
        (name, loc_index[name]) for name in sorted(test.condition_locations)
    )
    plan = _VectorPlan(
        n_threads=len(ops),
        ops=ops,
        addrs=addrs,
        chans=chans,
        ranks=ranks,
        flip_ranks=flip_ranks,
        pair_gate=pair_gate,
        chain_gate=chain_gate,
        swap_pairs=tuple(swap_pairs),
        leak=leak,
        cond=test.forbidden,
        cond_locs=cond_locs,
        n_locs=n_locs,
        state_regs=tuple(sorted(test.registers)),
        state_locs=tuple(
            (name, loc_index[name])
            for name in sorted(test.written_locations)
        ),
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan


class _Tables(NamedTuple):
    """Per-lane probability tables at the instance's fixed channels."""

    drain: np.ndarray  # (locations, lanes)
    bypass: np.ndarray
    slow: np.ndarray
    resolve: np.ndarray
    swap: np.ndarray  # (swap slots, lanes)


def _field_row(profile, field, chans, pairs) -> tuple:
    """One lane's probability row: the tables at the plan's channels."""
    drain_p, swap_p, bypass_p, slow_p, resolve_p = memory_tables(
        profile, field, 1.0
    ).lists
    return (
        tuple(drain_p[c] for c in chans)
        + tuple(bypass_p[c] for c in chans)
        + tuple(slow_p[c] for c in chans)
        + tuple(resolve_p[c] for c in chans)
        + tuple(swap_p[a][b] for a, b in pairs)
    )


def _split_rows(arr: np.ndarray, n_chans: int) -> _Tables:
    L = n_chans
    return _Tables(
        drain=arr[0:L],
        bypass=arr[L : 2 * L],
        slow=arr[2 * L : 3 * L],
        resolve=arr[3 * L : 4 * L],
        swap=arr[4 * L :],
    )


def _tuned_tables(
    profile, instance, plan, spec, rng, n: int
) -> _Tables:
    """Vectorized ``sys-str`` lane tables.

    A :class:`~repro.gpu.pressure.StressField` from targeted stressing
    is a pure function of the stressed channel multiset and the boost,
    so instead of one Python-level ``build`` per lane, draw every
    lane's region picks and thread count in two array operations, dedup
    the (channels, boost) combinations — thread-count saturation and
    channel aliasing collapse thousands of lanes onto a few dozen — and
    compute the probability row once per distinct field.  The draws are
    distribution-identical to per-lane ``TunedStress.build``: a
    uniform ``spread``-subset of the regions and an independent uniform
    thread count.
    """
    cfg = spec.config
    regions = min(
        cfg.scratch_regions, instance.scratch_size // cfg.patch_size
    )
    if regions < cfg.spread:
        raise InvalidStressConfigError(
            f"scratchpad of {instance.scratch_size} words has only "
            f"{regions} regions; spread {cfg.spread} impossible"
        )
    if spec.threads_range is None:
        lo = profile.max_resident_threads // 2
        hi = profile.max_resident_threads
    else:
        lo, hi = spec.threads_range
    picks = np.argpartition(
        rng.random((n, regions)), cfg.spread - 1, axis=1
    )[:, : cfg.spread]
    if hi <= lo:
        threads = np.full(n, max(lo, 1))
    else:
        threads = rng.integers(lo, hi + 1, size=n)
    strength = profile.sequence_strength(cfg.sequence)
    sharing = 1.0 / (1.0 + 0.35 * (cfg.spread - 1))
    intensity = np.minimum(1.0, threads / cfg.spread / _THREADS_NORM)
    boost = strength * intensity * sharing

    base = instance.scratch_base
    chmap = np.asarray(
        [
            profile.channel(base + r * cfg.patch_size)
            for r in range(regions)
        ],
        dtype=np.int64,
    )
    lane_chans = np.sort(chmap[picks], axis=1)
    combo = np.concatenate(
        [lane_chans.astype(np.float64), boost[:, None]], axis=1
    )
    uniq, inverse = np.unique(combo, axis=0, return_inverse=True)
    rows = np.empty((len(uniq), 4 * len(plan.chans) + len(plan.swap_pairs)))
    for i, row in enumerate(uniq):
        press = np.zeros(profile.n_channels)
        b = row[-1]
        for ch in row[:-1]:
            press[int(ch)] += b
        field = StressField(profile, press)
        rows[i] = _field_row(profile, field, plan.chans, plan.swap_pairs)
    return _split_rows(rows[inverse].T.copy(), len(plan.chans))


def _lane_tables(
    profile: HardwareProfile,
    instance: LitmusInstance,
    plan: _VectorPlan,
    stress_spec,
    rng,
    n: int,
) -> _Tables:
    """Build one stress field per lane and gather its channel rows.

    ``sys-str`` and ``no-str`` take vectorized fast paths; any other
    spec falls back to invoking ``build`` once per lane — randomised
    choices vary per execution exactly as in the direct backend — with
    the expensive table computation shared across lanes whose fields
    coincide.
    """
    chans = plan.chans
    pairs = plan.swap_pairs
    if isinstance(stress_spec, TunedStress):
        return _tuned_tables(profile, instance, plan, stress_spec, rng, n)
    if isinstance(stress_spec, NoStress):
        row = np.asarray(
            _field_row(profile, StressField.zero(profile), chans, pairs)
        )
        return _split_rows(
            np.broadcast_to(row[:, None], (len(row), n)), len(chans)
        )
    build = stress_spec.build
    base, size = instance.scratch_base, instance.scratch_size
    cache: dict = {}
    rows = []
    for _ in range(n):
        field = build(profile, base, size, rng)
        key = (field.press_bytes, field.turbulence)
        row = cache.get(key)
        if row is None:
            row = _field_row(profile, field, chans, pairs)
            cache[key] = row
        rows.append(row)
    arr = np.asarray(rows, dtype=np.float64).T
    return _split_rows(arr, len(chans))


def _race_pair(plan, tab, s1, s2, rng, n):
    """Commit times for two consecutive same-thread stores.

    Phase A: the head alone rolls its drain gate from entry.  Phase B:
    once the successor is buffered and eligible, each tick first rolls
    the swap gate (cross-channel, distance-gated) and then the head's
    drain gate; the combined event is geometric with the conditional
    swap/drain split drawn once.  A swapped head is parked (drains at
    ``_PARKED_DRAIN`` times its rate), giving consumers the scalar
    core's window to observe the stale value.
    """
    d1 = tab.drain[s1["loc"]]
    d2 = tab.drain[s2["loc"]]
    gate = plan.pair_gate[(s1["loc"], s2["loc"])]
    if gate[0] == "swap":
        q = tab.swap[gate[1]]
    elif gate[0] == "leak":
        q = np.full(n, plan.leak)
    else:
        q = np.zeros(n)
    e1, e2 = s1["E"], s2["E"]
    head_free = e1 + _geometric(rng, d1, n)
    start = np.maximum(e1, e2)
    racing = head_free > start
    comb = q + (1.0 - q) * d1
    w = start + _geometric(rng, comb, n)
    swapped = racing & (rng.random(n) * comb < q)
    c1 = np.where(racing, w, head_free)
    parked = w - 1 + _geometric(rng, _PARKED_DRAIN * d1, n)
    c1 = np.where(swapped, parked, c1)
    c2 = np.where(
        racing,
        np.where(swapped, w, w - 1 + _geometric(rng, d2, n)),
        e2 + _geometric(rng, d2, n),
    )
    s1["C"], s2["C"] = c1, c2


def _round_weak(plan, tab, exec_p, flip, rng, n, states=None):
    """One vectorized round; True per lane on the forbidden outcome.

    ``states``, if given, is a list the round appends its per-lane
    final states to (see :func:`_state_rows`); recording draws
    nothing."""
    delays = rng.integers(0, _MAX_START_DELAY, size=(plan.n_threads, n))
    writes: list = [[] for _ in range(plan.n_locs)]
    reads = []  # (reg, loc, key threshold, forward mask, forwarded value)
    rmw_reads = []  # (reg, loc, key threshold)

    def rank_of(t, p):
        r = plan.ranks[(t, p)]
        if flip is None:
            return np.int64(r)
        return np.where(flip, np.int64(plan.flip_ranks[(t, p)]), np.int64(r))

    for t in range(plan.n_threads):
        row = plan.ops[t]
        p_exec = exec_p[t]
        prev = delays[t].astype(np.int64) - 1
        seg: list = []  # stores of the current race segment
        stores: list = []  # committed store records, program order
        loads: list = []  # processed loads: dicts with K/R/deferred
        raw_loads: list = []  # issued, not yet resolved: (pos, loc, tau)

        def close_segment():
            nonlocal seg
            prev_done = None
            i = 0
            while i < len(seg):
                s1 = seg[i]
                if prev_done is not None:
                    s1["E"] = np.maximum(s1["E"], prev_done)
                if i + 1 < len(seg):
                    s2 = seg[i + 1]
                    _race_pair(plan, tab, s1, s2, rng, n)
                    prev_done = np.maximum(s1["C"], s2["C"])
                    i += 2
                else:
                    s1["C"] = s1["E"] + _geometric(
                        rng, tab.drain[s1["loc"]], n
                    )
                    prev_done = s1["C"]
                    i += 1
            for rec in seg:
                rec["K"] = (2 * rec["C"] - 1) * _TIE + rank_of(
                    t, rec["pos"]
                )
            stores.extend(seg)
            seg = []

        def process_loads(fence_begin):
            """Resolve every issued-but-unprocessed load, program order.

            ``fence_begin`` is the begin tick of the fence closing this
            window (None at thread end): it resolves unconstrained slow
            loads and has already clamped store commits, which bounds
            the constrained branches.

            Keys live on a doubled time grid: the thread phase of tick
            ``t`` is slot ``2t``, the drain pump that follows it is slot
            ``2t + 1``.  A store with commit time ``C = E + Geom`` lands
            on pump ``C - 1`` (slot ``2C - 1``), so a phase-``t`` read
            sees ``C <= t`` and a deferred resolution on pump ``R`` sees
            ``C <= R`` — the scalar core's phase/deferred/pump step
            order, reproduced exactly.
            """
            for pos, loc, tau in raw_loads:
                ch = plan.chans[loc]
                tau_key = 2 * tau * _TIE + rank_of(t, pos)

                # (1) chain behind an earlier unresolved load (same
                # channel or closer than the reorder distance).  The
                # chained load resolves on the deferred pass right
                # after the earlier load's resolution slot.
                chained = np.zeros(n, dtype=bool)
                k_chain = np.zeros(n, dtype=np.int64)
                for lrec in loads:
                    if not plan.chain_gate[(lrec["loc"], loc)]:
                        continue
                    slot = lrec["K"] // _TIE
                    m = lrec["deferred"] & (slot >= 2 * tau) & ~chained
                    k_next = np.where(
                        slot % 2 == 0,
                        (slot + 1) * _TIE,
                        np.where(
                            lrec["K"] % _TIE > 0,
                            (slot + 2) * _TIE,
                            lrec["K"],
                        ),
                    )
                    k_chain = np.where(m, k_next, k_chain)
                    chained |= m

                # Own-store relations at issue time.  A store is
                # pending at phase ``tau`` when it entered earlier and
                # its commit pump has not yet run: E < tau <= C - 1.
                fwd = np.zeros(n, dtype=bool)
                fwd_val = np.zeros(n, dtype=np.int64)
                samech = np.zeros(n, dtype=bool)
                k_samech = np.full(n, _NEVER_KEY)
                any_pend = np.zeros(n, dtype=bool)
                bp = np.zeros(n)
                occ = np.full(n, np.int64(-1))  # last covered pump
                for rec in stores:
                    pend = (rec["E"] < tau) & (rec["C"] > tau)
                    if rec["loc"] == loc:
                        # (2) forwarding: latest same-address entry wins.
                        fwd_val = np.where(pend, rec["value"], fwd_val)
                        fwd |= pend
                    if plan.chans[rec["loc"]] == ch:
                        # (3) same-channel FIFO: the first own same-
                        # channel commit after issue resolves the load,
                        # reading memory just before that store lands.
                        samech |= pend
                        k_samech = np.where(
                            pend,
                            np.minimum(k_samech, rec["K"]),
                            k_samech,
                        )
                    any_pend |= pend
                    # (4) bypass rolls against the most recent pending
                    # store's channel (later records overwrite).
                    bp = np.where(pend, tab.bypass[rec["loc"]], bp)
                    occ = np.where(
                        pend, np.maximum(occ, rec["C"] - 1), occ
                    )

                # Failed bypass: wait until the buffer has no own
                # stores — later entries extend the occupancy window
                # when they arrive before it lapses; the load resolves
                # on the deferred pass after the last covered pump.
                for rec in stores:
                    joins = (rec["E"] >= tau) & (rec["E"] <= occ + 1)
                    occ = np.where(
                        joins, np.maximum(occ, rec["C"] - 1), occ
                    )
                k_blocked = (2 * occ + 3) * _TIE

                # Early-resolution triggers: a later own store to the
                # same address resolves the load at entry (reading the
                # pre-store memory); a later own commit on the load's
                # channel (or address) resolves it just before that
                # store's value lands.
                trig = np.full(n, _NEVER_KEY)
                for rec in stores:
                    if rec["pos"] < pos:
                        continue
                    if rec["loc"] == loc:
                        entry_key = 2 * rec["E"] * _TIE + rank_of(
                            t, rec["pos"]
                        )
                        trig = np.minimum(trig, entry_key)
                        trig = np.minimum(trig, rec["K"])
                    elif plan.chans[rec["loc"]] == ch:
                        trig = np.minimum(trig, rec["K"])

                # (5) unconstrained: slow roll, geometric resolution on
                # the deferred passes; a fence begin resolves the load
                # at its begin phase.
                u_bypass = rng.random(n)
                u_slow = rng.random(n)
                slow = u_slow < tab.slow[loc]
                r_slow = tau - 1 + _geometric(rng, tab.resolve[loc], n)
                k_slow = (2 * r_slow + 1) * _TIE
                k_slow = np.minimum(k_slow, trig)
                if fence_begin is not None:
                    k_slow = np.minimum(
                        k_slow,
                        2 * fence_begin * _TIE + rank_of(t, pos),
                    )

                bypass_ok = u_bypass < bp
                b_chain = chained
                b_fwd = ~b_chain & fwd
                b_samech = ~b_chain & ~fwd & samech
                b_block = (
                    ~b_chain & ~fwd & ~samech & any_pend & ~bypass_ok
                )
                b_free = ~b_chain & ~fwd & ~samech & ~b_block
                K = np.select(
                    [b_chain, b_fwd, b_samech, b_block],
                    [
                        np.minimum(k_chain, trig),
                        tau_key,
                        np.minimum(k_samech, trig),
                        np.minimum(k_blocked, trig),
                    ],
                    default=np.where(slow, k_slow, tau_key),
                )
                deferred = b_chain | b_samech | b_block | (b_free & slow)
                loads.append(
                    {"loc": loc, "K": K, "deferred": deferred}
                )
                reads.append((row[pos].reg, loc, K, b_fwd, fwd_val))
            raw_loads.clear()

        for pos, op in enumerate(row):
            tau = prev + _geometric(rng, p_exec, n)
            if op.kind == I_STORE:
                seg.append(
                    {"pos": pos, "loc": op.loc, "value": op.value, "E": tau}
                )
                prev = tau
            elif op.kind == I_LOAD:
                raw_loads.append((pos, op.loc, tau))
                prev = tau
            elif op.kind == I_FENCE:
                close_segment()
                # Priority FIFO drain: every still-buffered own store
                # commits on the pump right after the begin tick.
                for rec in stores:
                    drained = np.minimum(rec["C"], tau + 1)
                    rec["K"] = np.minimum(
                        rec["K"],
                        (2 * drained - 1) * _TIE
                        + rank_of(t, rec["pos"]),
                    )
                    rec["C"] = drained
                process_loads(tau)
                # Completion: the begin gate itself when nothing is
                # pending at the begin phase; otherwise the first later
                # gate at which everything has resolved.  The priority
                # drain and the begin-phase load resolution finish
                # before any later gate — only a load resolving on a
                # later deferred pass can force a retry, and only when
                # the next gate lands on the very next tick.
                pend0 = np.zeros(n, dtype=bool)
                late = np.zeros(n, dtype=bool)
                for rec in stores:
                    pend0 |= (rec["E"] < tau) & (rec["C"] > tau)
                for lrec in loads:
                    slot = lrec["K"] // _TIE
                    pend0 |= lrec["deferred"] & (slot >= 2 * tau + 1)
                    late |= lrec["deferred"] & (slot >= 2 * tau + 2)
                g1 = _geometric(rng, p_exec, n)
                done = np.where(
                    late & (g1 == 1),
                    tau + 1 + _geometric(rng, p_exec, n),
                    tau + g1,
                )
                prev = np.where(pend0, done, tau)
            else:  # rmw
                close_segment()
                pend_any = np.zeros(n, dtype=bool)
                max_c = np.full(n, np.int64(-1))
                bp = np.zeros(n)
                pend_masks = []
                for rec in stores:
                    if rec["loc"] == op.loc:
                        pend_masks.append(None)
                        continue
                    pend = (rec["E"] < tau) & (rec["C"] > tau)
                    pend_masks.append(pend)
                    pend_any |= pend
                    max_c = np.where(
                        pend, np.maximum(max_c, rec["C"]), max_c
                    )
                    bp = np.where(pend, tab.bypass[rec["loc"]], bp)
                bypassed = pend_any & (rng.random(n) < bp)
                waited = pend_any & ~bypassed
                # The waiting atomic retries its gate every tick and
                # executes at the first gate at which the cross-address
                # stores have drained (first free phase: max_c).
                exec_at = np.where(
                    waited, max_c - 1 + _geometric(rng, p_exec, n), tau
                )
                # A successful bypass parks the overtaken stores in the
                # congested queue: their remaining drain slows down.
                for rec, pend in zip(stores, pend_masks):
                    if pend is None:
                        # Coherence: same-address buffered stores are
                        # committed by the atomic itself, in order,
                        # just before its own read-modify-write.
                        rec["K"] = np.where(
                            rec["C"] > exec_at,
                            2 * exec_at * _TIE + rank_of(t, rec["pos"]),
                            rec["K"],
                        )
                        rec["C"] = np.minimum(rec["C"], exec_at)
                        continue
                    parked = tau + _geometric(
                        rng, _PARKED_DRAIN * tab.drain[rec["loc"]], n
                    )
                    hit = bypassed & pend
                    rec["C"] = np.where(hit, parked, rec["C"])
                    rec["K"] = np.where(
                        hit,
                        (2 * parked - 1) * _TIE
                        + rank_of(t, rec["pos"]),
                        rec["K"],
                    )
                key = 2 * exec_at * _TIE + rank_of(t, pos)
                writes[op.loc].append((key, op.value))
                rmw_reads.append((op.reg, op.loc, key))
                prev = exec_at

        close_segment()
        process_loads(None)
        for rec in stores:
            writes[rec["loc"]].append((rec["K"], rec["value"]))

    # Final memory and load values: per location, the visible write
    # with the greatest commit key wins (initial value 0).
    stacks: dict = {}
    for loc, events in enumerate(writes):
        if events:
            keys = np.stack([np.broadcast_to(k, (n,)) for k, _ in events])
            vals = np.asarray([v for _, v in events], dtype=np.int64)
            stacks[loc] = (keys, vals)

    def read_at(loc, K):
        entry = stacks.get(loc)
        if entry is None:
            return np.zeros(n, dtype=np.int64)
        keys, vals = entry
        visible = np.where(keys < K[None, :], keys, np.int64(-1))
        best = visible.argmax(axis=0)
        has = visible.max(axis=0) >= 0
        return np.where(has, vals[best], 0)

    regs: dict = {}
    for reg, loc, K, fwd, fwd_val in reads:
        value = read_at(loc, K)
        regs[reg] = np.where(fwd, fwd_val, value)
    for reg, loc, K in rmw_reads:
        regs[reg] = read_at(loc, K)
    final: dict = {}
    for name, loc in plan.cond_locs:
        entry = stacks.get(loc)
        if entry is None:
            final[name] = np.zeros(n, dtype=np.int64)
        else:
            keys, vals = entry
            final[name] = vals[keys.argmax(axis=0)]
    if states is not None:
        states.append(_state_rows(plan, regs, stacks, n))
    return _eval_cond(plan.cond, regs, final, n)


def _state_rows(plan, regs, stacks, n: int):
    """One round's final states as an ``(n, registers + written
    locations)`` matrix in :attr:`_VectorPlan.state_regs` /
    ``state_locs`` column order.  A location's final value is its write
    with the greatest commit key (initial 0 if never written)."""
    columns = [
        np.broadcast_to(np.asarray(regs[r]), (n,)) for r in plan.state_regs
    ]
    for _, loc in plan.state_locs:
        entry = stacks.get(loc)
        if entry is None:
            columns.append(np.zeros(n, dtype=np.int64))
        else:
            keys, vals = entry
            columns.append(vals[keys.argmax(axis=0)])
    return np.stack(columns, axis=1)


def _add_states(outcomes: dict, plan, rows: list) -> None:
    """Fold a batch's state matrices into the ``outcomes`` histogram,
    keyed like :func:`repro.axiom.model.observation_key` (the columns
    are already in sorted-name order)."""
    states, counts = np.unique(
        np.concatenate(rows, axis=0), axis=0, return_counts=True
    )
    n_regs = len(plan.state_regs)
    loc_names = tuple(name for name, _ in plan.state_locs)
    for row, count in zip(states.tolist(), counts.tolist()):
        key = (
            tuple(zip(plan.state_regs, row[:n_regs])),
            tuple(zip(loc_names, row[n_regs:])),
        )
        outcomes[key] = outcomes.get(key, 0) + count


def _eval_cond(cond, regs, final, n: int):
    """The forbidden outcome as a boolean lane-array expression."""
    if isinstance(cond, RegEq):
        value = regs.get(cond.reg)
        if value is None:
            return np.full(n, cond.value == 0)
        return value == cond.value
    if isinstance(cond, LocEq):
        value = final.get(cond.loc)
        if value is None:
            return np.full(n, cond.value == 0)
        return value == cond.value
    if isinstance(cond, And):
        out = np.ones(n, dtype=bool)
        for term in cond.terms:
            out &= _eval_cond(term, regs, final, n)
        return out
    if isinstance(cond, Or):
        out = np.zeros(n, dtype=bool)
        for term in cond.terms:
            out |= _eval_cond(term, regs, final, n)
        return out
    raise TypeError(f"not a condition: {cond!r}")


def _vector_span(
    profile: HardwareProfile,
    instance: LitmusInstance,
    stress_spec,
    seed: int,
    randomise: bool,
    start: int,
    stop: int,
    outcomes: dict | None = None,
) -> int:
    """Weak-behaviour count over executions ``[start, stop)``.

    ``start`` sits on a :data:`LANE_BLOCK` boundary.  Batch ``b`` covers
    executions ``[b * LANE_BLOCK, (b + 1) * LANE_BLOCK)`` and seeds its
    own generator from the experiment seed and ``b`` — never from
    shard-local state — so any batch-aligned partition yields identical
    statistics.  ``outcomes``, if given, receives every lane-round's
    final state; lanes always complete, so none is incomplete.
    """
    plan = _vector_plan(profile, instance)
    span_seed = derive_seed(
        seed, profile.short_name, instance.test.name, instance.distance,
        "vector",
    )
    weak = 0
    for lo in range(start, stop, LANE_BLOCK):
        n = min(stop, lo + LANE_BLOCK) - lo
        rng = make_rng(span_seed, lo // LANE_BLOCK)
        tab = _lane_tables(profile, instance, plan, stress_spec, rng, n)
        if randomise:
            flip = rng.random(n) < 0.5
            exec_p = rng.uniform(0.35, 0.95, size=(plan.n_threads, n))
        else:
            flip = None
            exec_p = [_EXEC_P] * plan.n_threads
        rows = None if outcomes is None else []
        weak_lanes = np.zeros(n, dtype=bool)
        for _ in range(_ROUNDS):
            weak_lanes |= _round_weak(plan, tab, exec_p, flip, rng, n, rows)
        weak += int(np.count_nonzero(weak_lanes))
        if rows is not None:
            _add_states(outcomes, plan, rows)
    return weak


def run_litmus_vector(
    profile: HardwareProfile,
    test: LitmusTest,
    distance: int,
    stress_spec,
    executions: int,
    seed: int = 0,
    randomise: bool = False,
    parallel: ParallelConfig | None = None,
    outcomes: bool = False,
) -> LitmusResult:
    """Run ``executions`` runs of ``T_distance`` on the vector backend.

    Drop-in signature-compatible with
    :func:`~repro.litmus.runner.run_litmus`; results carry
    ``backend="vector"`` and are validated against the direct backend
    statistically (see the module docstring).  ``parallel`` shards whole
    mega-batches across workers; serial and parallel runs are
    bit-identical.
    """
    return _run_backend(
        _vector_span, "vector", profile, test, distance, stress_spec,
        executions, seed, randomise, parallel, outcomes, block=LANE_BLOCK,
    )
