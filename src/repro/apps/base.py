"""Application abstraction and the shared execution driver.

An :class:`Application` packages:

* ``setup`` — allocate buffers, initialise memory, and return the kernel
  launches plus a post-condition checker;
* ``sites`` — every fence site in the code (one per global memory
  access), the starting set for empirical fence insertion;
* ``base_fences`` — the fences present in the original source (empty for
  fence-free applications and the ``-nf`` variants).

:func:`run_application` executes an application on a chip under a
testing environment: it appends a stressing scratchpad after the
application's buffers, compiles the stress into a pressure field, adds
stressing blocks to the scheduler, runs all kernels, and evaluates the
post-condition.  A timeout counts as an erroneous run (the paper's 30 s
timeout catches weak behaviours that break termination conditions).
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

from ..chips.profile import HardwareProfile
from ..gpu.addresses import AddressSpace, Buffer
from ..gpu.engine import Engine, ExecutionResult
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..rng import BufferedRNG, make_rng
from ..stress.strategies import NoStress, with_threads_range

#: Default per-kernel tick budget for applications (paper: 30 s timeout,
#: ~4x a native run).
APP_MAX_TICKS = 120_000

Checker = Callable[[MemorySystem], bool]
Launch = tuple[Kernel, LaunchConfig]


@dataclass(frozen=True)
class AppRun:
    """Outcome of one application execution."""

    ok: bool
    timed_out: bool
    result: ExecutionResult

    @property
    def erroneous(self) -> bool:
        """Paper semantics: post-condition failure or timeout."""
        return not self.ok


class Application(abc.ABC):
    """One case study of Table 4 (see module docstring)."""

    #: Short name used throughout the paper (e.g. ``cbe-dot``).
    name: str = ""
    #: One-line description (Table 4 column 2).
    description: str = ""
    #: Communication idiom (Table 4 column 3).
    communication: str = ""
    #: Post-condition (Table 4 column 4).
    postcondition: str = ""
    #: Fence sites present in the original application source.
    base_fences: frozenset[str] = frozenset()

    @abc.abstractmethod
    def sites(self) -> tuple[str, ...]:
        """All fence sites, in program order (paper Sec. 5: fences are
        sorted by code location for binary reduction)."""

    @abc.abstractmethod
    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        """Allocate and initialise buffers; return launches + checker."""

    # -- metadata used by tests and the experiment harness -------------
    def required_sites(self) -> frozenset[str]:
        """Ground-truth minimal fence set that suppresses the bug.

        This is *not* consulted by empirical fence insertion (which only
        runs tests); it exists so the test suite can validate what the
        insertion converges to.
        """
        return frozenset()

    def table4_row(self) -> dict[str, str]:
        return {
            "short name": self.name,
            "description": self.description,
            "communication": self.communication,
            "post-condition": self.postcondition,
        }


@dataclass(frozen=True)
class _Setup:
    """What one (application, chip) pair's runs share: ``setup``'s
    launches and checker, the host image it wrote, the stressing
    scratchpad and the application's warp and thread counts."""

    launches: tuple[Launch, ...]
    checker: Checker
    image: dict[int, object]
    scratch: Buffer
    app_warps: int
    app_threads: int


#: The set-up of every (application, ``chip.cache_token``) pair this
#: process has built a batch for (profiles are unhashable).
_SETUPS: dict[tuple[Application, tuple], _Setup] = {}


def _shared_setup(
    app: Application, chip: HardwareProfile, mem: MemorySystem
) -> _Setup:
    """The process's set-up of ``app`` on ``chip``; the first call for a
    pair runs ``app.setup`` against ``mem``.

    Sharing is safe because applications are registry singletons, a
    checker reads only the memory system it is passed, and nothing
    ``setup`` makes (kernels, buffers, the image) is mutated after it.
    """
    key = (app, chip.cache_token)
    setup = _SETUPS.get(key)
    if setup is None:
        # Buffers are allocated with cudaMalloc's 256-byte (64-word)
        # alignment, so distinct buffers occupy distinct patches.
        space = AddressSpace(default_align=64)
        launches, checker = app.setup(space, mem)
        scratch = space.alloc(
            "stress-scratchpad",
            4096,
            align=chip.patch_size * chip.n_channels,
        )
        setup = _SETUPS[key] = _Setup(
            launches=tuple(launches),
            checker=checker,
            image=dict(mem.mem),
            scratch=scratch,
            app_warps=sum(
                cfg.grid_dim * cfg.warps_per_block for _k, cfg in launches
            ),
            app_threads=max(cfg.n_threads for _k, cfg in launches),
        )
    return setup


class ApplicationBatch:
    """Reusable execution context for many runs of one (app, chip, env).

    A campaign cell, a fence-insertion reduction or a cost-study loop
    performs thousands of :func:`run_application`-shaped executions that
    differ only in seed (and, for insertion, the fence set).  Everything
    else is run-invariant:

    * ``app.setup`` runs once per process for each (application, chip)
      pair, and every batch of the pair shares what it made: the
      :class:`AddressSpace` layout (bump allocation is deterministic,
      so every run sees the same buffer bases), the host-initialised
      memory image (``setup`` writes are captured into a dict and
      replayed per run), the kernel launches, the post-condition
      checker and the stressing scratchpad and warp and thread counts;
    * each batch owns one :class:`MemorySystem` (restored via
      ``reset``) and one :class:`Engine` (re-pointed at each run's
      generator), and the engine relaunches the process's grid of
      each launch geometry (see :func:`repro.gpu.grid.build_grid`).

    Per run only the seed-derived :class:`BufferedRNG`, the stress field
    it draws, and the thread coroutines (instantiated when the engine
    relaunches a grid) are fresh.  The draw order is identical to a
    standalone :func:`run_application` — stress build, stress units, then the
    engine's tick stream — so ``run(seed)`` is bit-identical to a
    single run at the same seed (pinned by the app-path golden
    statistics in ``tests/test_golden_stats.py``).

    ``fence_sites`` is per-run rather than per-batch: fences only enter
    through the per-run kernel instantiation, which lets one batch serve
    an entire fence-insertion reduction across all its candidate sets.
    """

    def __init__(
        self,
        app: Application,
        chip: HardwareProfile,
        stress_spec=None,
        randomise: bool = False,
        max_ticks: int = APP_MAX_TICKS,
    ):
        if stress_spec is None:
            stress_spec = NoStress()
        self.app = app
        self.chip = chip
        self.randomise = randomise
        self.max_ticks = max_ticks

        # The memory system is created first so the pair's first set-up
        # can host-initialise through it; the construction-time
        # generator is a placeholder (``reset`` installs each run's
        # stream before any draw happens).
        mem = MemorySystem(chip, weak_scale=chip.app_sensitivity(app.name))
        self._setup = _shared_setup(app, chip, mem)
        self._mem = mem
        app_threads = self._setup.app_threads
        # Paper Sec. 4.2: stressing blocks are 15%-50% of the
        # application's blocks, so thread counts scale with the
        # application, not the chip.
        self._spec = with_threads_range(
            stress_spec,
            (max(8, app_threads // 6), max(16, app_threads // 2)),
        )
        self._engine = Engine(
            chip,
            mem,
            mem.rng,
            max_ticks=max_ticks,
            randomise=randomise,
        )

    def run(
        self, seed: int, fence_sites: frozenset[str] | None = None
    ) -> AppRun:
        """Execute the application once at ``seed``.

        ``fence_sites`` of ``None`` means "as shipped" (the
        application's ``base_fences``); pass an explicit set when
        experimenting with fence placements (Sec. 5 and Sec. 6).
        """
        app = self.app
        chip = self.chip
        if fence_sites is None:
            fence_sites = app.base_fences
        # BufferedRNG serves the memory system's and scheduler's scalar
        # draws from block pre-draws of the identical stream (see
        # repro.rng); delegated distributions sync the stream position
        # first, so every statistic matches the raw generator's.
        rng = BufferedRNG(make_rng(seed, "app", app.name, chip.short_name))
        setup = self._setup
        mem = self._mem
        mem.reset(rng=rng)
        mem.mem.update(setup.image)
        scratch = setup.scratch
        spec = self._spec
        mem.set_stress(spec.build(chip, scratch.base, scratch.size, rng))

        engine = self._engine
        engine.rng = rng
        engine.n_stress_units = spec.stress_units(setup.app_warps, rng)
        result = engine.run_all(
            setup.launches, fence_sites=frozenset(fence_sites)
        )
        ok = (not result.timed_out) and bool(setup.checker(mem))
        return AppRun(ok=ok, timed_out=result.timed_out, result=result)


def run_application(
    app: Application,
    chip: HardwareProfile,
    stress_spec=None,
    randomise: bool = False,
    seed: int = 0,
    fence_sites: frozenset[str] | None = None,
    max_ticks: int = APP_MAX_TICKS,
) -> AppRun:
    """Execute ``app`` once on ``chip`` under a testing environment.

    One-shot convenience over :class:`ApplicationBatch`; loops should
    build the batch themselves (or call :func:`run_application_batch`)
    so one memory system and engine serve every run (``app.setup``
    runs once per process either way).
    """
    batch = ApplicationBatch(
        app,
        chip,
        stress_spec=stress_spec,
        randomise=randomise,
        max_ticks=max_ticks,
    )
    return batch.run(seed, fence_sites=fence_sites)


def run_application_batch(
    app: Application,
    chip: HardwareProfile,
    seeds,
    stress_spec=None,
    randomise: bool = False,
    fence_sites: frozenset[str] | None = None,
    max_ticks: int = APP_MAX_TICKS,
) -> list[AppRun]:
    """Execute ``app`` once per seed in ``seeds``, with setup done once.

    Each element equals the :func:`run_application` result at the same
    seed bit for bit; only the shared setup work is amortised.
    """
    batch = ApplicationBatch(
        app,
        chip,
        stress_spec=stress_spec,
        randomise=randomise,
        max_ticks=max_ticks,
    )
    return [batch.run(seed, fence_sites=fence_sites) for seed in seeds]
