"""Empirical fence insertion — the paper's Algorithm 1.

Starting from a fence after every memory access, binary reduction
repeatedly tries to discard half of the remaining fences, then linear
reduction tries to discard fences one at a time; each removal is
accepted when the application shows no errors over ``I`` test-campaign
iterations under the aggressive ``sys-str+`` environment.  The final
candidate must pass a full empirical-stability check (the paper's
one-hour run; here ``Scale.stability_runs`` executions); on failure the
whole reduction restarts with a doubled iteration count.

The result is a *minimal empirically stable* fence set: removing any
single fence re-exposes erroneous behaviour under the testing
environment.  As the paper stresses, this hardens the application but
proves nothing — CheckApplication is testing, not verification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..apps.base import Application, ApplicationBatch
from ..apps.registry import get_application
from ..chips.profile import HardwareProfile
from ..errors import FenceInsertionError
from ..parallel import (
    SERIAL,
    CheckShard,
    ParallelConfig,
    merge_check_shards,
    parallel_map,
    shard_ranges,
)
from ..rng import derive_seed
from ..scale import DEFAULT, Scale
from ..stress.environment import TestingEnvironment
from ..stress.strategies import TunedStress
from ..tuning.pipeline import shipped_params
from .fence_sets import all_fences, split_fences, sorted_sites


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of empirical fence insertion for one chip/application.

    ``iterations_used`` is the per-candidate iteration count ``I`` of
    the *last reduction pass actually run* — the budget that produced
    ``reduced`` — whether or not that pass converged.
    """

    chip: str
    app: str
    initial_fences: int
    reduced: frozenset[str]
    iterations_used: int
    check_runs: int
    wall_seconds: float
    converged: bool

    def table6_row(self) -> dict[str, object]:
        return {
            "app": self.app,
            "init.": self.initial_fences,
            "red.": len(self.reduced),
            "time (mins)": round(self.wall_seconds / 60.0, 3),
        }


def _first_error(
    batch: ApplicationBatch, fences: frozenset[str], seed: int,
    base: int, start: int, stop: int,
) -> int | None:
    """Index of the first erroneous fence-check run in ``[start, stop)``.

    Run ``i`` uses the seed a serial check would use at counter value
    ``base + i + 1``, and the loop stops at its first error, so every
    caller traverses the same seed stream.  None when no run errs.
    """
    app, chip = batch.app.name, batch.chip.short_name
    for i in range(start, stop):
        result = batch.run(
            derive_seed(seed, "check", app, chip, base + i + 1),
            fence_sites=fences,
        )
        if result.erroneous:
            return i
    return None


def _check_shard(args: tuple) -> CheckShard:
    """Process-pool worker: fence-check runs ``[start, stop)``.

    The worker stops at its first error — later runs of the shard
    cannot change the merged verdict (the first erroneous index over
    all shards), so the speculation past a failure in an earlier shard
    is the only wasted work.  The shard's runs share one
    :class:`ApplicationBatch` (per-seed results identical to standalone
    runs).  The application travels by name, so every shard a worker
    runs takes the registry's object and with it the worker's memoised
    set-up.
    """
    app_name, chip, env, fences, seed, base, start, stop = args
    batch = ApplicationBatch(
        get_application(app_name), chip, stress_spec=env.strategy,
        randomise=env.randomise,
    )
    first = _first_error(batch, fences, seed, base, start, stop)
    return CheckShard(start=start, stop=stop, first_error=first)


class EmpiricalFenceInserter:
    """Algorithm 1, bound to one application and one chip."""

    def __init__(
        self,
        app: Application,
        chip: HardwareProfile,
        scale: Scale = DEFAULT,
        seed: int = 0,
        max_restarts: int = 4,
        parallel: ParallelConfig | None = None,
    ):
        self.app = app
        self.chip = chip
        self.scale = scale
        self.seed = seed
        self.max_restarts = max_restarts
        self.parallel = parallel or SERIAL
        self.environment = TestingEnvironment(
            strategy=TunedStress(shipped_params(chip.short_name)),
            randomise=True,
        )
        self.check_runs = 0
        self._check_counter = 0
        self._batch: ApplicationBatch | None = None

    @property
    def batch(self) -> ApplicationBatch:
        """One batch serves the whole serial reduction: the fence set is
        a per-run parameter of :meth:`ApplicationBatch.run`, so every
        candidate evaluation reuses the same memory system and engine.
        Built lazily — the parallel path never touches it (each
        ``_check_shard`` worker builds its own)."""
        if self._batch is None:
            self._batch = ApplicationBatch(
                self.app,
                self.chip,
                stress_spec=self.environment.strategy,
                randomise=self.environment.randomise,
            )
        return self._batch

    # -- the paper's CheckApplication / EmpiricallyStable ---------------
    def check_application(
        self, fences: frozenset[str], iterations: int
    ) -> bool:
        """True when A+F shows no errors over ``iterations`` runs.

        Candidate evaluation is the hot loop of Algorithm 1, so the run
        budget is sharded across the shared worker pool.  Each run's seed
        depends only on the check counter at call entry plus the run's
        index, and the counter advances by the number of runs a *serial*
        early-exiting loop would have performed (the first erroneous
        index plus one) — so serial and parallel reductions traverse
        identical seed streams and converge to identical fence sets.
        """
        base = self._check_counter
        if self.parallel.serial:
            first = _first_error(
                self.batch, fences, self.seed, base, 0, iterations
            )
        else:
            shards = parallel_map(
                _check_shard,
                [
                    (
                        self.app.name, self.chip, self.environment, fences,
                        self.seed, base, start, stop,
                    )
                    for start, stop in shard_ranges(
                        iterations, self.parallel
                    )
                ],
                self.parallel,
            )
            first = merge_check_shards(shards, iterations)
        performed = iterations if first is None else first + 1
        self._check_counter = base + performed
        self.check_runs += performed
        return first is None

    def empirically_stable(self, fences: frozenset[str]) -> bool:
        """The paper's one-hour stability check, at campaign scale."""
        return self.check_application(fences, self.scale.stability_runs)

    # -- reductions ------------------------------------------------------
    def binary_reduction(
        self, fences: frozenset[str], iterations: int
    ) -> frozenset[str]:
        while len(fences) > 1:
            first, second = split_fences(self.app, fences)
            if first and self.check_application(fences - first, iterations):
                fences = fences - first
            elif second and self.check_application(
                fences - second, iterations
            ):
                fences = fences - second
            else:
                return fences
        return fences

    def linear_reduction(
        self, fences: frozenset[str], iterations: int
    ) -> frozenset[str]:
        for fence in sorted_sites(self.app, fences):
            candidate = fences - {fence}
            if self.check_application(candidate, iterations):
                fences = candidate
        return fences

    # -- Algorithm 1 -------------------------------------------------------
    def run(self, initial_iterations: int = 32) -> InsertionResult:
        """Binary + linear reduction with the stability restart loop.

        Exhausting every restart is a legitimate outcome (the paper's
        24-hour timeout): the best candidate is returned with
        ``converged=False`` so callers — and the run ledger — can
        record the partial result.  Only the degenerate configuration
        ``max_restarts <= 0``, where the reduction loop would never
        run at all, raises.
        """
        if self.max_restarts <= 0:
            raise FenceInsertionError(
                f"fence insertion for {self.app.name} on "
                f"{self.chip.short_name} needs max_restarts >= 1 "
                f"(got {self.max_restarts}); the reduction loop would "
                "never run"
            )
        started = time.perf_counter()
        initial = all_fences(self.app)
        iterations = initial_iterations
        converged = False
        reduced = initial
        iterations_used = initial_iterations
        for _ in range(self.max_restarts):
            iterations_used = iterations
            after_binary = self.binary_reduction(initial, iterations)
            reduced = self.linear_reduction(after_binary, iterations)
            if self.empirically_stable(reduced):
                converged = True
                break
            iterations *= 2
        return InsertionResult(
            chip=self.chip.short_name,
            app=self.app.name,
            initial_fences=len(initial),
            reduced=reduced,
            iterations_used=iterations_used,
            check_runs=self.check_runs,
            wall_seconds=time.perf_counter() - started,
            converged=converged,
        )


def empirical_fence_insertion(
    app: Application,
    chip: HardwareProfile,
    scale: Scale = DEFAULT,
    seed: int = 0,
    initial_iterations: int = 32,
    max_restarts: int = 4,
    parallel: ParallelConfig | None = None,
    ledger=None,
) -> InsertionResult:
    """Run Algorithm 1 for one application on one chip.

    ``parallel`` shards every candidate fence-set evaluation across
    worker processes; the reduction path and final fence set are
    identical to a serial run (see ``check_application``).

    ``ledger`` (a :class:`~repro.store.RunLedger`) caches the whole
    insertion result: a recorded (chip, app, scale, seed) key is
    decoded instead of re-run, and a fresh run is appended atomically —
    unconverged outcomes included, so long campaigns never repeat a
    finished reduction.
    """
    from ..store import cached_or_run, insertion_key, records as store_records

    key = insertion_key(
        chip.short_name, app.name, scale.stability_runs,
        initial_iterations, max_restarts, seed,
    )

    def run() -> InsertionResult:
        inserter = EmpiricalFenceInserter(
            app, chip, scale=scale, seed=seed,
            max_restarts=max_restarts, parallel=parallel,
        )
        return inserter.run(initial_iterations=initial_iterations)

    return cached_or_run(
        ledger, key, run,
        store_records.encode_insertion, store_records.decode_insertion,
    )
