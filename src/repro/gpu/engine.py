"""The execution engine: runs kernels over the weak memory subsystem.

One engine tick = the scheduler picks one warp (or a stress placeholder),
every active thread of that warp attempts one operation, and the memory
subsystem advances one drain step.  Kernel completion implies a full
flush (device-wide visibility), matching CUDA's end-of-kernel semantics.

Timing model: a device fence puts the issuing thread to sleep for the
chip's fence stall cost (on top of the real ticks spent waiting for the
drain), so fence delays overlap across threads and only lengthen the
kernel along its critical path.  Kernel runtime in cycles is simply the
tick count; the accumulated fence stall cycles additionally feed the
Sec. 6 energy model as low-activity cycles.

Hot-path notes (see docs/ARCHITECTURE.md "Hot path & determinism"):

* :meth:`Engine.run` builds or relaunches the grid in Python, then runs
  the whole launch in one call of the native core, ``engine.c``, a
  CPython extension compiled on the first run (never at import) by
  :func:`repro.cbuild.load`.  The core is a second implementation of
  :meth:`Engine._loop`, the Python tick loop below, and of the
  :class:`~repro.gpu.scheduler.WarpScheduler`; every
  :class:`~repro.gpu.memory.MemorySystem` operation the loop reaches
  runs in the C memory model ``memsys.h``.
  It resumes the kernel coroutines with ``PyIter_Send``, reads and
  writes ``MemorySystem.mem`` in place, and draws through numpy's
  ``bitgen_t`` of both generators exactly what ``random()``,
  ``integers(n)`` and ``dirichlet`` draw, so a
  :class:`~repro.rng.BufferedRNG` is synced once before the call and
  captured once after it.  It writes back the memory system's tick,
  counters and ``_fencing``, and the grid's and threads' state.
* ``_loop`` stays as the fallback, with a warning, where the core
  cannot be built or a stream is not numpy-backed, and as the oracle:
  tests force it by setting ``_core`` to ``None``.  This module and
  ``scheduler.py`` change with ``engine.c``, and ``memory.py`` with
  the memory model ``memsys.h`` that ``engine.c`` and
  ``repro/litmus/native.c`` include; ``tests/test_engine_core.py``
  and ``tests/test_native_litmus.py`` hold them equal.
* The tick loop is O(1) per tick outside the picked warp: kernel
  completion reads the grid's maintained live-thread counter, each
  thread carries its SM (no per-run key->SM dict), and warp runnability
  transitions are pushed to the scheduler's incremental runnable list.
* One burst loop does all per-op work: it holds the thread's current
  op, its sticky per-op scratch dict and the value to send in locals,
  resumes the coroutine with ``send`` and dispatches on the op kind
  with an if-chain in frequency order (load, noop, rmw, store, fence,
  barrier, issue, poll), writing the thread's state back once per
  burst.  It runs a flagged access's site fence in the next slot and
  spends an atomic's issue-latency slots before its read-modify-write.
* Each engine keeps the grid of every (kernel, launch config) it has
  run and relaunches it on the next run of that launch (fresh
  coroutines, per-run fields reset, the same block shuffle draw), so a
  batch builds thread, warp and block objects once per launch.
* None of this touches a random draw: the memory system and scheduler
  are called in the same order, so fixed-seed executions are
  bit-identical (pinned by the app-path golden statistics).
"""

from __future__ import annotations

import enum
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import cbuild
from ..chips.profile import HardwareProfile
from ..errors import KernelTimeoutError
from ..rng import BufferedRNG
from .events import (
    FENCE,
    OP_BARRIER,
    OP_FENCE,
    OP_ISSUE,
    OP_LOAD,
    OP_NOOP,
    OP_POLL,
    OP_RMW,
    OP_STORE,
    STALL,
)
from .grid import Grid, build_grid
from .kernel import Kernel, LaunchConfig
from .memory import MemorySystem, core_words
from .scheduler import _RESHUFFLE_PERIOD, WarpScheduler

#: Default tick budget per kernel (the paper's 30 s timeout analogue).
DEFAULT_MAX_TICKS = 400_000

#: Operations a thread may issue per scheduling turn.  Real warps issue
#: short instruction bursts back to back; without this, consecutive
#: program-order operations would be separated by a full scheduling
#: round-trip and weak-memory race windows would vanish.
BURST = 4

#: Issue latency of atomic read-modify-writes, in cycles.  GPU atomics
#: are considerably slower than plain accesses; the latency also gives
#: program-order-earlier buffered stores a head start on draining, which
#: is why unlock races are rare natively.
_ATOMIC_LATENCY = 2

_SOURCE = Path(__file__).with_name("engine.c")

#: The native core: the loaded extension, ``None`` when it cannot be
#: built here, or ``_UNSET`` before the first :func:`core` call.  Tests
#: force the Python loop by setting it to ``None``.
_UNSET = object()
_core = _UNSET
_warned_generator = False


def core():
    """The native core (``engine.c``), building it on the first call;
    ``None`` when it cannot be built here."""
    global _core
    if _core is _UNSET:
        _core = _load()
    return _core


def _load():
    import importlib.machinery
    import sysconfig

    flags = [f"-I{sysconfig.get_paths()['include']}"]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    return cbuild.load(
        _SOURCE, importlib.machinery.EXTENSION_SUFFIXES[0], _import,
        "running the Python tick loop", tuple(flags),
    )


def _import(path: str):
    import importlib.machinery
    import importlib.util

    loader = importlib.machinery.ExtensionFileLoader("repro.gpu._core", path)
    spec = importlib.util.spec_from_file_location(
        loader.name, path, loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _generators(eng_rng, mem_rng):
    """``(engine generator, memory generator, wrappers)`` for the core:
    the numpy generators it draws from and the distinct
    :class:`~repro.rng.BufferedRNG` wrappers around them; ``None`` (with
    a warning, once) when either stream is not numpy-backed."""
    global _warned_generator
    gens: list[np.random.Generator] = []
    wrappers: list[BufferedRNG] = []
    for rng in (eng_rng, mem_rng):
        gen = rng
        if isinstance(rng, BufferedRNG):
            gen = rng.gen
            if all(rng is not w for w in wrappers):
                wrappers.append(rng)
        if not isinstance(gen, np.random.Generator):
            if not _warned_generator:
                _warned_generator = True
                warnings.warn(
                    "the native engine core draws from numpy Generators; "
                    f"running the Python tick loop for {rng!r}",
                    RuntimeWarning,
                )
            return None
        gens.append(gen)
    return gens[0], gens[1], wrappers


class Outcome(enum.Enum):
    """How a kernel execution ended."""

    OK = "ok"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome and cost of one kernel execution."""

    outcome: Outcome
    ticks: int
    fence_stall_cycles: int
    n_fences: int
    n_swaps: int
    n_bypasses: int
    n_slow_loads: int

    @property
    def timed_out(self) -> bool:
        return self.outcome is Outcome.TIMEOUT

    @property
    def runtime_ticks(self) -> int:
        """Modelled runtime in cycles.

        Fence sleeps already unfold inside the tick count; the separate
        ``fence_stall_cycles`` tally is used by the energy model.
        """
        return self.ticks

    def merged(self, other: "ExecutionResult") -> "ExecutionResult":
        """Accumulate results across a multi-kernel application run."""
        worse = (
            Outcome.TIMEOUT
            if (self.timed_out or other.timed_out)
            else Outcome.OK
        )
        return ExecutionResult(
            outcome=worse,
            ticks=self.ticks + other.ticks,
            fence_stall_cycles=self.fence_stall_cycles
            + other.fence_stall_cycles,
            n_fences=self.n_fences + other.n_fences,
            n_swaps=self.n_swaps + other.n_swaps,
            n_bypasses=self.n_bypasses + other.n_bypasses,
            n_slow_loads=self.n_slow_loads + other.n_slow_loads,
        )


class Engine:
    """Drives a grid of kernel coroutines over a :class:`MemorySystem`.

    One instance may execute many runs back to back; the batch driver
    (:class:`repro.apps.base.ApplicationBatch`) re-points ``rng`` and
    ``n_stress_units`` between runs instead of reconstructing it.  The
    engine keeps the :class:`Grid` of every launch it has run, keyed by
    the kernel object's identity and its :class:`LaunchConfig`
    (kernels are not hashable: compiled litmus kernels carry a dict),
    and relaunches it on the next run of that launch.
    """

    __slots__ = (
        "chip",
        "memory",
        "rng",
        "max_ticks",
        "n_stress_units",
        "randomise",
        "raise_on_timeout",
        "_grids",
    )

    def __init__(
        self,
        chip: HardwareProfile,
        memory: MemorySystem,
        rng: "np.random.Generator | BufferedRNG",
        max_ticks: int = DEFAULT_MAX_TICKS,
        n_stress_units: int = 0,
        randomise: bool = False,
        raise_on_timeout: bool = False,
    ):
        self.chip = chip
        self.memory = memory
        self.rng = rng
        self.max_ticks = max_ticks
        self.n_stress_units = n_stress_units
        self.randomise = randomise
        self.raise_on_timeout = raise_on_timeout
        self._grids: dict[tuple[int, LaunchConfig], Grid] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        fence_sites: frozenset[str] = frozenset(),
    ) -> ExecutionResult:
        """Execute one kernel launch to completion (or timeout)."""
        randomise_rng = self.rng if self.randomise else None
        launch = (id(kernel), config)
        grid = self._grids.get(launch)
        if grid is None:
            grid = self._grids[launch] = build_grid(
                kernel,
                config,
                self.chip.n_sms,
                fence_sites=fence_sites,
                randomise_rng=randomise_rng,
            )
        else:
            # The geometry depends only on the config, and every
            # coroutine is re-instantiated from ``kernel``, so even a
            # recycled ``id`` relaunches correctly.
            grid.relaunch(kernel, self.chip.n_sms, fence_sites, randomise_rng)
        mem = self.memory
        swaps0, byp0, slow0 = mem.n_swaps, mem.n_bypasses, mem.n_slow_loads
        lib = core()
        draws = None
        if lib is not None and not (mem._n_buffered or mem._deferred):
            draws = _generators(self.rng, mem.rng)
        if draws is None:
            timed_out, ticks, fence_stalls, n_fences = self._loop(grid)
        else:
            timed_out, ticks, fence_stalls, n_fences = self._run_core(
                lib, grid, *draws
            )

        # The loop only exits with every thread finished or the tick
        # budget exhausted; live_threads() additionally cross-checks the
        # maintained counter against the done-flag scan under pytest.
        assert timed_out or grid.live_threads() == 0

        if timed_out and self.raise_on_timeout:
            raise KernelTimeoutError(self.max_ticks)
        return ExecutionResult(
            outcome=Outcome.TIMEOUT if timed_out else Outcome.OK,
            ticks=ticks,
            fence_stall_cycles=fence_stalls,
            n_fences=n_fences,
            n_swaps=mem.n_swaps - swaps0,
            n_bypasses=mem.n_bypasses - byp0,
            n_slow_loads=mem.n_slow_loads - slow0,
        )

    def _run_core(
        self,
        lib,
        grid: Grid,
        eng_gen: np.random.Generator,
        mem_gen: np.random.Generator,
        wrappers: list[BufferedRNG],
    ) -> tuple[bool, int, int, int]:
        """:meth:`_loop` in ``engine.c``, drawing from the generators
        behind the wrappers, which are synced once before the call and
        captured once after it."""
        mem = self.memory
        words, factors = core_words(mem.profile)
        n_units = len(grid.warps) + max(0, self.n_stress_units)
        alpha = np.full(n_units, 0.5) if self.randomise else None
        for rng in wrappers:
            rng._sync()
        try:
            return lib.run(
                grid, mem, eng_gen, mem_gen, alpha, self.n_stress_units,
                self.randomise, self.max_ticks,
                (
                    BURST, _ATOMIC_LATENCY, _RESHUFFLE_PERIOD,
                    self.chip.fence_stall_cycles, *words,
                ),
                factors, mem.tables.packed,
            )
        finally:
            for rng in wrappers:
                rng._capture()

    def _loop(self, grid: Grid) -> tuple[bool, int, int, int]:
        """Run the launched ``grid`` to completion or timeout and flush
        the memory system; returns ``(timed_out, ticks,
        fence_stall_cycles, n_fences)``.  The reference semantics
        ``engine.c`` is held to."""
        scheduler = WarpScheduler(
            grid.warps, self.n_stress_units, self.rng, self.randomise
        )
        mem = self.memory
        ticks = 0
        fence_stalls = 0
        n_fences = 0
        barrier_blocks: set[int] = set()
        timed_out = False
        max_ticks = self.max_ticks
        fence_cycles = self.chip.fence_stall_cycles
        pick = scheduler.pick
        note_unrunnable = scheduler.note_unrunnable
        step = mem.step
        read = mem.read
        write = mem.write
        rmw = mem.rmw

        while grid.n_live:
            ticks += 1
            if ticks > max_ticks:
                timed_out = True
                break
            warp = pick()
            if warp is not None:
                for thread in warp.threads:
                    if (
                        thread.sleep_until > ticks
                        or thread.done
                        or thread.at_barrier
                    ):
                        continue
                    sm = thread.sm
                    key = thread.key
                    op = thread.op
                    state = thread.op_state
                    value = thread.to_send
                    # Up to BURST ops.  A stalled op (STALL, full
                    # buffer, fence still draining) ends the burst and
                    # stays pending with its sticky ``state``; ``value``
                    # means nothing until it completes.  A completed op
                    # leaves ``op`` None and ``value`` the result to send
                    # on the next resume.
                    for _ in range(BURST):
                        if op is None:
                            try:
                                op = thread.gen.send(value)
                            except StopIteration:
                                thread.done = True
                                grid.n_live -= 1
                                warp.n_active -= 1
                                if not warp.n_active:
                                    note_unrunnable(warp)
                                break
                        kind = op[0]
                        if kind == OP_LOAD:
                            value = read(sm, key, op[1], state)
                            if value is STALL:
                                break
                            if state:
                                state.clear()
                            if op[2]:
                                # Site fence: it takes the next slot and
                                # sends the loaded value on when done.
                                op = (OP_FENCE, value)
                                continue
                        elif kind == OP_NOOP:
                            value = None
                        elif kind == OP_RMW:
                            spent = thread.latency
                            if spent < _ATOMIC_LATENCY:
                                # An issue-latency slot: the op stays.
                                thread.latency = spent + 1
                                continue
                            value = rmw(sm, key, op[1], op[2], state)
                            if value is STALL:
                                break
                            thread.latency = 0
                            if state:
                                state.clear()
                        elif kind == OP_STORE:
                            if not write(sm, key, op[1], op[2]):
                                break
                            if op[3]:
                                op = FENCE
                                continue
                            value = None
                        elif kind == OP_FENCE:
                            if "pending" not in state:
                                state["pending"] = mem.thread_pending(sm, key)
                                mem.fence_begin(key)
                            if not mem.fence_done(sm, key):
                                break
                            if state["pending"]:
                                # The fence actually waited on the write
                                # pipeline.
                                cost = fence_cycles
                            else:
                                # Nothing to drain: a fence after a load
                                # (or an already-drained store) costs
                                # almost nothing.
                                cost = 2
                            state.clear()
                            # The fencing thread waits out the pipeline
                            # flush from the next tick on; other warps
                            # keep running (fence stalls overlap across
                            # threads), and so does this burst.
                            thread.sleep_until = ticks + cost
                            fence_stalls += cost
                            n_fences += 1
                            value = op[1]
                        elif kind == OP_BARRIER:
                            thread.at_barrier = True
                            op = value = None
                            warp.n_active -= 1
                            if not warp.n_active:
                                note_unrunnable(warp)
                            barrier_blocks.add(warp.block_id)
                            break
                        elif kind == OP_ISSUE:
                            value = mem.issue_load(sm, key, op[1])
                        elif kind == OP_POLL:
                            value = mem.poll_load(op[1])
                            if value is STALL:
                                break
                        else:
                            raise ValueError(
                                f"unknown op {op!r} from thread {key}"
                            )
                        op = None
                    thread.op = op
                    thread.to_send = value
            step()
            if barrier_blocks:
                self._release_barriers(grid, scheduler, barrier_blocks)

        mem.flush_all()
        return timed_out, ticks, fence_stalls, n_fences

    def run_all(
        self,
        kernels: list[tuple[Kernel, LaunchConfig]],
        fence_sites: frozenset[str] = frozenset(),
    ) -> ExecutionResult:
        """Run several kernels back to back (multi-kernel applications)."""
        result: ExecutionResult | None = None
        for kernel, config in kernels:
            step = self.run(kernel, config, fence_sites)
            result = step if result is None else result.merged(step)
            if step.timed_out:
                break
        assert result is not None, "run_all needs at least one kernel"
        return result

    def _release_barriers(
        self, grid: Grid, scheduler: WarpScheduler, barrier_blocks: set[int]
    ) -> None:
        done = []
        for block_id in barrier_blocks:
            block = grid.blocks[block_id]
            if block.barrier_ready():
                for thread in block.release_barrier():
                    warp = thread.warp
                    if not warp.n_active:
                        scheduler.note_runnable(warp)
                    warp.n_active += 1
                    self.memory.drain_thread(block.sm, thread.key)
                done.append(block_id)
        barrier_blocks.difference_update(done)
