"""Fast litmus-test runner (the *direct* execution backend).

Litmus tests are a handful of scripted threads of a few memory
operations each, so they bypass the full SIMT engine and drive the
:class:`~repro.gpu.memory.MemorySystem` directly — the memory semantics
(and hence the observable weak behaviours) are identical, but millions
of executions become feasible, which the tuning pipeline needs (the
paper ran nearly half a billion).  The same IR also lowers onto the
engine (:mod:`repro.litmus.compile`); the two backends are compared by
the cross-backend parity tests.

Loads use the deferred issue/resolve API: a litmus test only inspects
its registers after the run, exactly like the paper's generated CUDA
tests, which is what allows LB-shaped reordering to be observed.
Fences map to the memory system's ``fence_begin``/``fence_done``
priority-drain protocol (the same calls the engine's fence op makes),
and ``rmw`` goes through the atomic pipeline.

Two-thread ld/st tests (MP, LB, SB and kin: the Sec. 3 tuning
workload) run each execution in one call of the native kernel
(:mod:`repro.litmus.native`), on a stream seeded in C, which it draws
exactly as :func:`_one_round` draws the numpy-seeded one.  Everything
else, every run that records outcomes, and every run on a host without
a C compiler goes through :func:`_one_round`, the general interpreter
and the kernel's test oracle.

The N threads are placed on N distinct SMs (the paper configures the
communicating threads in distinct blocks); chips model at least 8 SMs,
comfortably above the 4-thread idioms (IRIW).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from ..chips.profile import HardwareProfile
from ..gpu.addresses import AddressSpace
from ..gpu.events import STALL
from ..gpu.memory import MemorySystem, memory_tables, native_chip
from ..parallel import (
    SERIAL,
    LitmusShard,
    ParallelConfig,
    merge_litmus_shards,
    parallel_map,
    shard_ranges,
)
from ..rng import BufferedRNG, derive_seed, make_rng
from . import native
from .ir import LocEq, condition_dnf
from .results import LitmusResult
from .tests import LitmusTest

#: Word span reserved for the communication locations.
_COMM_SPAN = 512
#: Per-scheduling-slot probability that a thread issues its next op.
_EXEC_P = 0.7
#: Tick budgets for the issue and drain phases of one round.
_ISSUE_TICKS = 400
_DRAIN_TICKS = 400
#: Maximum random start stagger between the threads, in ticks.
_MAX_START_DELAY = 24
#: Litmus rounds per execution.  A real GPU litmus kernel launch tests
#: many independent instances at once; an execution is counted weak when
#: any of its rounds exhibits the weak outcome.
_ROUNDS = 8


@dataclass(frozen=True)
class LitmusInstance:
    """A litmus test at a concrete distance, as laid out in memory.

    Location 0 (``x``) sits at the base of the communication area;
    location ``i`` sits ``i * max(distance, 1)`` words above it
    (distance 0 means contiguous locations, per the paper's T_d
    notation, generalised to tests with three or more locations).
    """

    test: LitmusTest
    distance: int
    comm_base: int
    scratch_base: int
    scratch_size: int

    @classmethod
    def layout(
        cls,
        profile: HardwareProfile,
        test: LitmusTest,
        distance: int,
        scratch_size: int = 4096,
    ) -> "LitmusInstance":
        """Allocate the communication area and the stressing scratchpad.

        The scratchpad is aligned to a full channel period so scratchpad
        offset ``l`` always lands in channel ``profile.channel(l)`` —
        mirroring the stable (but uncontrollable) physical layout on real
        hardware.  Every backend lays its tests out here, so this is
        where a test with more threads than the chip has SMs is refused.
        """
        if distance < 0:
            raise ValueError("distance must be non-negative")
        if test.n_threads > profile.n_sms:
            raise ValueError(
                f"{test.name} needs {test.n_threads} SMs; "
                f"{profile.short_name} models {profile.n_sms}"
            )
        period = profile.patch_size * profile.n_channels
        space = AddressSpace()
        span = (len(test.locations) - 1) * max(distance, 1) + 2
        comm = space.alloc("comm", max(_COMM_SPAN, span), align=period)
        scratch = space.alloc("scratch", scratch_size, align=period)
        return cls(
            test=test,
            distance=distance,
            comm_base=comm.base,
            scratch_base=scratch.base,
            scratch_size=scratch.size,
        )

    def addr(self, loc: str) -> int:
        """Address of location ``loc`` under this instance's layout."""
        index = self.test.locations.index(loc)
        return self.comm_base + index * max(self.distance, 1)

    def loc_addrs(self) -> tuple[int, ...]:
        """Addresses of every location, in ``test.locations`` order."""
        step = max(self.distance, 1)
        return tuple(
            self.comm_base + i * step
            for i in range(len(self.test.locations))
        )


def _resolved_programs(instance: LitmusInstance) -> tuple[tuple, ...]:
    """The thread programs with location names resolved to addresses.

    Called once per (cached) round plan, so the per-operation
    ``instance.addr`` lookups of the original inner loop are paid once
    per instance instead of once per issued operation.
    """

    def resolve(program):
        out = []
        for ins in program:
            kind = ins[0]
            if kind == "st":
                out.append(("st", instance.addr(ins[1]), ins[2]))
            elif kind == "ld":
                out.append(("ld", instance.addr(ins[1]), ins[2]))
            elif kind == "rmw":
                out.append(("rmw", instance.addr(ins[1]), ins[2], ins[3]))
            else:  # fence — no address operand
                out.append(ins)
        return tuple(out)

    return tuple(resolve(program) for program in instance.test.threads)


def _exch(value):
    """The atomic-exchange update function for an rmw instruction."""
    return lambda _cur: value


def _is_two_thread_ldst(programs: tuple[tuple, ...]) -> bool:
    """True for the plain two-thread ld/st shape (MP/LB/SB, R, S, 2+2W
    and kin) — the tuning pipeline's hot workload, served by the
    native kernel."""
    return len(programs) == 2 and all(
        ins[0] == "st" or ins[0] == "ld"
        for program in programs
        for ins in program
    )


class _RoundPlan(NamedTuple):
    """Everything a round needs, precomputed once per instance:
    address-resolved programs, location addresses, the final-value
    queries of the condition, the compiled forbidden-outcome predicate
    and, for the two-thread ld/st shape only, the native kernel's plan
    words."""

    programs: tuple
    addrs: tuple
    final_locs: tuple  # ((location name, address), ...)
    pred: object  # f(regs, final) -> bool
    packed: bytes | None


_EMPTY_FINAL: dict = {}
_WORD_MIN = -(1 << 63)
_WORD_MAX = (1 << 63) - 1
#: Op and condition-leaf kinds of the plan words (``native.c``'s enums).
_OP_ST, _OP_LD = 0, 1
_LEAF_REG, _LEAF_LOC = 0, 1


def _packed_plan(test: LitmusTest, addrs: tuple) -> bytes:
    """The native kernel's plan words for a two-thread ld/st test (see
    ``native.c``): the round constants, the location addresses, each
    thread's ops over location and register indices, and the forbidden
    outcome in disjunctive normal form.  Values travel as 64-bit words,
    so a value outside that range raises ``ValueError``."""

    def word(value):
        if isinstance(value, int) and _WORD_MIN <= value <= _WORD_MAX:
            return value
        raise ValueError(
            f"{test.name}: value {value!r} is not a 64-bit integer"
        )

    slot = test.locations.index
    reg = test.registers.index
    dnf = condition_dnf(test.forbidden)
    words = [
        len(test.locations), len(test.registers), *map(len, test.threads),
        len(dnf), _ROUNDS, _ISSUE_TICKS, _DRAIN_TICKS, _MAX_START_DELAY,
        *addrs,
    ]
    for program in test.threads:
        for kind, loc, arg in program:
            if kind == "st":
                words += (_OP_ST, slot(loc), word(arg))
            else:
                words += (_OP_LD, slot(loc), reg(arg))
    for conj in dnf:
        words.append(len(conj))
        for leaf in conj:
            if isinstance(leaf, LocEq):
                words += (_LEAF_LOC, slot(leaf.loc), word(leaf.value))
            else:
                words += (_LEAF_REG, reg(leaf.reg), word(leaf.value))
    return array("q", words).tobytes()


@lru_cache(maxsize=4096)
def _round_plan(instance: LitmusInstance) -> _RoundPlan:
    programs = _resolved_programs(instance)
    addrs = instance.loc_addrs()
    test = instance.test
    loc_index = test.locations.index
    final_locs = tuple(
        (loc, addrs[loc_index(loc)]) for loc in test.condition_locations
    )
    return _RoundPlan(
        programs=programs,
        addrs=addrs,
        final_locs=final_locs,
        pred=test._predicate,
        packed=(
            _packed_plan(test, addrs)
            if _is_two_thread_ldst(programs)
            else None
        ),
    )


def _finish_round(plan: _RoundPlan, mem, regs, names, handles) -> bool:
    """Collect registers (and final locations, if the condition needs
    them) and evaluate the compiled forbidden-outcome predicate."""
    for name, handle in zip(names, handles):
        regs[name] = handle.value
    final = _EMPTY_FINAL
    if plan.final_locs:
        get = mem.mem.get
        final = {loc: get(addr, 0) for loc, addr in plan.final_locs}
    return bool(plan.pred(regs, final))


def _one_round(
    plan: _RoundPlan,
    mem: MemorySystem,
    sms,
    exec_p,
    rng,
) -> bool:
    """Run one litmus round; returns True on the forbidden outcome.

    The general N-thread interpreter: handles any thread count and the
    full instruction set (``st``/``ld``/``fence``/``rmw``).  On
    two-thread ld/st programs the native kernel consumes the random
    stream in the same order — one start-delay draw per thread, then
    per-tick exec-gate rolls in thread order, then the memory-system
    step (``rng`` must be a :class:`~repro.rng.BufferedRNG`; see the
    golden-statistics tests and ``tests/test_native_litmus.py``).
    """
    mset = mem.mem
    for a in plan.addrs:
        mset[a] = 0
    programs = plan.programs
    n_threads = len(programs)
    lens = [len(p) for p in programs]
    pcs = [0] * n_threads
    fencing = [False] * n_threads
    op_states: list[dict] = [{} for _ in range(n_threads)]
    regs: dict = {}
    names: list[str] = []
    handles: list = []
    write = mem.write
    issue = mem.issue_load

    # Random start stagger: on hardware the threads rarely hit their
    # critical instructions at the same instant; the stagger is what
    # lets one thread's reads land inside another's reorder window.
    # (Bounded draws straight off the pre-draw block consume the bit
    # stream identically to the original ``integers(0, d, size=n)`` —
    # numpy's bounded generation is per-element either way.)
    delays = [rng._lemire32(_MAX_START_DELAY) for _ in range(n_threads)]
    remaining = n_threads
    # Until the earliest thread's delay expires nothing can issue, no
    # probability is rolled, and the (empty) memory system's step only
    # advances its clock — so jump straight there.
    start_tick = min(delays)
    if start_tick:
        mem.tick += start_tick
    for tick in range(start_tick, _ISSUE_TICKS):
        if not remaining:
            break
        for t in range(n_threads):
            pc = pcs[t]
            if pc >= lens[t] or tick < delays[t]:
                continue
            i = rng._i
            if i < rng._n:
                rng._i = i + 1
                roll = rng._dbuf[i]
            else:
                roll = rng.random()
            if roll >= exec_p[t]:
                continue
            ins = programs[t][pc]
            kind = ins[0]
            if kind == "st":
                if write(sms[t], t, ins[1], ins[2]):
                    pcs[t] = pc + 1
            elif kind == "ld":
                names.append(ins[2])
                handles.append(issue(sms[t], t, ins[1]))
                pcs[t] = pc + 1
            elif kind == "fence":
                if not fencing[t]:
                    mem.fence_begin(t)
                    fencing[t] = True
                if mem.fence_done(sms[t], t):
                    fencing[t] = False
                    pcs[t] = pc + 1
            else:  # rmw — atomic exchange through the atomic pipeline
                state = op_states[t]
                old = mem.rmw(sms[t], t, ins[1], _exch(ins[3]), state)
                if old is not STALL:
                    regs[ins[2]] = old
                    state.clear()
                    pcs[t] = pc + 1
            if pcs[t] >= lens[t]:
                remaining -= 1
        mem.step()

    mem.drain_until(handles, _DRAIN_TICKS)
    mem.flush_all()
    # A fence still open when the issue window closed is satisfied by
    # the full drain; retire it so the fencing set does not leak into
    # the next round on the reused memory system.
    for t in range(n_threads):
        if fencing[t]:
            mem.fence_done(sms[t], t)

    return _finish_round(plan, mem, regs, names, handles)


def _recording_plan(
    plan: _RoundPlan, test: LitmusTest, outcomes: dict
) -> _RoundPlan:
    """``plan`` with a predicate that also adds each round's final state
    to ``outcomes``.

    The key has the :func:`repro.axiom.model.observation_key` shape:
    sorted register items, then the sorted final value of every written
    location.  A round whose loads did not all resolve within the tick
    budget counts under ``None`` instead.  The round functions stay
    untouched: they already hand the predicate every register and the
    final value of each ``final_locs`` entry, which here grows to cover
    the written locations.
    """
    written = test.written_locations
    final_locs = dict(plan.final_locs)
    final_locs.update(
        (loc, addr) for loc, addr in zip(test.locations, plan.addrs)
        if loc in written
    )
    n_regs = len(test.registers)
    pred = plan.pred

    def record(regs, final):
        key = None
        if len(regs) == n_regs:
            key = (
                tuple(sorted(regs.items())),
                tuple(sorted((loc, final[loc]) for loc in written)),
            )
        outcomes[key] = outcomes.get(key, 0) + 1
        return pred(regs, final)

    return plan._replace(final_locs=tuple(final_locs.items()), pred=record)


def _litmus_span(
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

    An execution is a batch of ``_ROUNDS`` rounds, like one kernel
    launch, and counts as weak when any round is.  Each execution draws
    from its own seed stream, derived from the experiment seed and the
    execution's *global* index — never from shard-local state — so any
    partition of the execution range yields the same statistics (the
    repro.parallel determinism contract).

    The generator is wrapped in :class:`~repro.rng.BufferedRNG` (block
    pre-draws of the identical stream) and one :class:`MemorySystem` is
    reset per execution instead of reallocated — both invisible to the
    statistics.

    ``outcomes``, if given, is a histogram every round's final state is
    added to (see :func:`_recording_plan`).  Executions then run all
    their rounds instead of stopping at the first weak one; the skipped
    rounds only consume the execution's own stream, so the weak count
    is the same.

    A two-thread ld/st test that records no outcomes runs each
    execution in one native kernel call when the kernel is available,
    on a :class:`~repro.litmus.native.NativeStream`: C seeds each
    execution's stream (no numpy generator is built), the stress spec
    draws from it through the same emulation, and the kernel continues
    it in place.  No :class:`MemorySystem` exists then; the probability
    tables are looked up, as ``MemorySystem.reset`` would, only when
    the stress field object changes.
    """
    weak = 0
    mem: MemorySystem | None = None
    scratch_base = instance.scratch_base
    scratch_size = instance.scratch_size
    plan = _round_plan(instance)
    if outcomes is not None:
        plan = _recording_plan(plan, instance.test, outcomes)
    lib = None
    if plan.packed is not None and outcomes is None:
        lib = native.kernel()
    n_threads = len(plan.programs)
    build = stress_spec.build
    # derive_seed is a left fold over the labels, so hoisting the
    # loop-invariant prefix yields the identical per-execution seed.
    span_seed = derive_seed(
        seed, profile.short_name, instance.test.name, instance.distance
    )
    if lib is not None:
        stream = native.NativeStream(lib, span_seed)
        chip, factors = native_chip(profile, plan.addrs)
        tables_field = tables = None
    for i in range(start, stop):
        if lib is not None:
            rng = stream.seed(i)
        else:
            rng = BufferedRNG(make_rng(span_seed, i))
        field = build(profile, scratch_base, scratch_size, rng)
        if lib is not None:
            if field is not tables_field:
                tables = memory_tables(profile, field, 1.0).packed
                tables_field = field
        elif mem is None:
            mem = MemorySystem(profile, field, rng)
        else:
            mem.reset(stress=field, rng=rng)
        sms = tuple(range(n_threads))
        if randomise and rng.random() < 0.5:
            sms = sms[::-1]
        if randomise:
            exec_p = tuple(
                rng.uniform(0.35, 0.95) for _ in range(n_threads)
            )
        else:
            exec_p = (_EXEC_P,) * n_threads
        if lib is not None:
            weak += stream.execute(
                plan.packed, chip, factors, tables, exec_p, sms[0]
            )
            continue
        hit = False
        for _ in range(_ROUNDS):
            if _one_round(plan, mem, sms, exec_p, rng):
                hit = True
                if outcomes is None:
                    break
        weak += hit
    return weak


def _run_shard(args: tuple) -> LitmusShard:
    """Process-pool worker: one shard of one backend's span."""
    (
        span, profile, instance, stress_spec, seed, randomise,
        start, stop, outcomes,
    ) = args
    sink = {} if outcomes else None
    weak = span(
        profile, instance, stress_spec, seed, randomise, start, stop, sink
    )
    return LitmusShard(start=start, stop=stop, weak=weak, outcomes=sink)


def _run_backend(
    span,
    backend: str,
    profile: HardwareProfile,
    test: LitmusTest,
    distance: int,
    stress_spec,
    executions: int,
    seed: int,
    randomise: bool,
    parallel: ParallelConfig | None,
    outcomes: bool,
    block: int = 1,
) -> LitmusResult:
    """The shared body of every backend's public runner.

    Lays ``test`` out at ``distance``, cuts the executions into shards
    of whole ``block``s (the vector backend's mega-batches; single
    executions elsewhere), runs ``span`` over each shard — in-process,
    or on a worker pool when ``parallel`` asks for one — and merges the
    shards into one :class:`LitmusResult`.  A worker pool is the
    shared one for the worker count, so successive runs spawn it once.
    ``span`` is called as
    ``span(profile, instance, stress_spec, seed, randomise, start, stop,
    sink)`` and seeds from global indices, so every sharding yields the
    same result, outcome histogram included.
    """
    config = parallel or SERIAL
    instance = LitmusInstance.layout(profile, test, distance)
    n_blocks = -(-executions // block)
    shards = parallel_map(
        _run_shard,
        [
            (
                span, profile, instance, stress_spec, seed, randomise,
                lo * block, min(hi * block, executions), outcomes,
            )
            for lo, hi in shard_ranges(n_blocks, config)
        ],
        config,
    )
    weak = merge_litmus_shards(shards, executions)
    histogram = None
    incomplete = 0
    if outcomes:
        merged = Counter()
        for shard in shards:
            merged.update(shard.outcomes)
        incomplete = merged.pop(None, 0)
        histogram = dict(merged)
    return LitmusResult(
        test=test.name,
        distance=distance,
        weak=weak,
        executions=executions,
        location=tuple(getattr(stress_spec, "locations", ()) or ()),
        backend=backend,
        outcomes=histogram,
        incomplete=incomplete,
    )


def run_litmus(
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
    """Run ``executions`` runs of test instance ``T_distance``.

    ``stress_spec`` must provide
    ``build(profile, scratch_base, scratch_size, rng) -> StressField``
    (see :mod:`repro.stress.strategies`); it is re-invoked per execution
    so that randomised choices (stressing thread count, random spread
    locations) vary between runs as in the paper.

    ``parallel`` shards the execution batch across worker processes;
    serial and parallel runs produce identical results because every
    execution is seeded from its global index.

    ``outcomes=True`` also records every round's final state into
    ``LitmusResult.outcomes`` and ``LitmusResult.incomplete``, at the
    same weak count.  Recording runs every round of every execution and
    keys each state, so it is off unless a caller reads the states.
    """
    return _run_backend(
        _litmus_span, "direct", profile, test, distance, stress_spec,
        executions, seed, randomise, parallel, outcomes,
    )
