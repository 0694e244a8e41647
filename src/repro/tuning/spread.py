"""Spread finding (paper Sec. 3.4, Fig. 4).

Given the chip's critical patch size P and most effective sequence σ,
determine how many patch-sized regions to stress simultaneously.  For
each spread m, run C executions of ⟨T_d, σ@L_m⟩ per test and distance,
where L_m is a random m-subset of the scratchpad's patch-start
locations; the score of m is the weak-behaviour total over distances.
The selected spread is Pareto-optimal over the three litmus tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..chips.profile import HardwareProfile
from ..litmus import TUNING_TESTS
from ..litmus.units import litmus_unit
from ..parallel import SERIAL, ParallelConfig
from ..rng import derive_seed
from ..scale import DEFAULT, Scale
from ..store import litmus_grid_counts, litmus_key
from ..stress.config import StressConfig
from ..stress.strategies import TunedStress


@dataclass
class SpreadScores:
    """Per-test scores for each candidate spread (a Fig. 4 curve)."""

    chip: str
    tests: tuple[str, ...]
    scores: dict[int, dict[str, int]] = field(default_factory=dict)

    def series(self, test: str) -> list[tuple[int, int]]:
        """(spread, score) points for one test."""
        return [(m, s[test]) for m, s in sorted(self.scores.items())]

    def total(self, m: int) -> int:
        return sum(self.scores[m].values())


def score_spreads(
    chip: HardwareProfile,
    patch_size: int,
    sequence: tuple[str, ...],
    scale: Scale = DEFAULT,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
    ledger=None,
    submit: Callable | None = None,
) -> SpreadScores:
    """Score each spread 1..M for one chip.

    The (m × test × distance) grid fans out as litmus work units —
    across worker processes under ``parallel``, across machines under a
    distributed ``submit``; per-point seed derivation keeps the scores
    identical to a serial run.  ``ledger`` checkpoints each finished
    point for exact resumption.
    """
    config = parallel or SERIAL
    distances = tuple(
        range(0, scale.max_distance, scale.spread_distance_step)
    )
    scores = SpreadScores(
        chip=chip.short_name, tests=tuple(t.name for t in TUNING_TESTS)
    )
    spreads = tuple(range(1, scale.max_spread + 1))
    specs = {
        m: TunedStress(
            StressConfig(
                chip=chip.short_name,
                patch_size=patch_size,
                sequence=sequence,
                spread=m,
                scratch_regions=scale.max_spread,
            )
        )
        for m in spreads
    }
    grid = [
        (m, test, d) for m in spreads for test in TUNING_TESTS for d in distances
    ]
    units = [
        litmus_unit(
            key=litmus_key(
                chip.short_name, test.name,
                f"spread.m{m}.p{patch_size}.{'-'.join(sequence)}"
                f".r{scale.max_spread}",
                d, scale.spread_executions, seed,
            ),
            chip=chip.short_name,
            test=test.name,
            distance=d,
            stress_spec=specs[m],
            executions=scale.spread_executions,
            seed=derive_seed(seed, "spread", m, test.name, d),
            record_seed=seed,
        )
        for m, test, d in grid
    ]
    counts = litmus_grid_counts(units, config, ledger, submit)
    for m in spreads:
        scores.scores[m] = {t.name: 0 for t in TUNING_TESTS}
    for (m, test, _d), weak in zip(grid, counts):
        scores.scores[m][test.name] += weak
    return scores


def select_spread(scores: SpreadScores) -> int:
    """The Pareto-optimal spread (unique in the paper's experiments;
    total score breaks any tie deterministically)."""
    spreads = list(scores.scores)
    front = []
    for a in spreads:
        if not any(
            all(
                scores.scores[b][t] > scores.scores[a][t]
                for t in scores.tests
            )
            for b in spreads
            if b != a
        ):
            front.append(a)
    return max(front, key=lambda m: (scores.total(m), -m))
