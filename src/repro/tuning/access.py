"""Access-sequence selection (paper Sec. 3.3, Tab. 3).

Every sequence σ ∈ (ld|st)+ up to length N is scored per litmus test:
the number of weak behaviours of ⟨T_d, σ@l⟩ summed over all distances d
and all patch-start locations l (stressing several locations of one
patch is redundant once the critical patch size is known).

A sequence is *maximally effective* when it is Pareto-optimal over the
three tests.  Ties are broken by pairwise majority (most effective for
two of the three tests), then by total score.
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
from ..stress.strategies import FixedLocationStress
from ..stress.sequences import all_sequences, format_sequence

Sequence = tuple[str, ...]


@dataclass
class SequenceScores:
    """Per-test scores of every candidate access sequence."""

    chip: str
    tests: tuple[str, ...]
    scores: dict[Sequence, dict[str, int]] = field(default_factory=dict)

    def total(self, seq: Sequence) -> int:
        return sum(self.scores[seq].values())

    def ranking(self, test: str) -> list[tuple[Sequence, int]]:
        """Sequences ranked by descending score for one test (a Tab. 3
        column)."""
        return sorted(
            ((seq, s[test]) for seq, s in self.scores.items()),
            key=lambda kv: -kv[1],
        )

    def table3_rows(self, top: int = 3, bottom: int = 3) -> dict[str, list]:
        """Top/bottom ranked sequences per test, Tab. 3 style."""
        out = {}
        for test in self.tests:
            ranked = self.ranking(test)
            rows = [
                {"rank": i + 1, "sigma": format_sequence(seq), "score": score}
                for i, (seq, score) in enumerate(ranked)
            ]
            out[test] = rows[:top] + rows[-bottom:]
        return out


def score_sequences(
    chip: HardwareProfile,
    patch_size: int,
    scale: Scale = DEFAULT,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
    ledger=None,
    submit: Callable | None = None,
) -> SequenceScores:
    """Score every σ up to the scale's maximum length.

    The (σ × test × distance × location) grid is embarrassingly
    parallel; each point derives its own seed from its coordinates, so
    fanning the grid out as litmus work units — locally under
    ``parallel``, across machines under a distributed ``submit`` —
    leaves the scores bit-identical, and ``ledger`` checkpoints each
    finished point for exact resumption.
    """
    config = parallel or SERIAL
    locations = tuple(range(0, scale.max_location, patch_size))
    distances = tuple(range(0, scale.max_distance, scale.seq_distance_step))
    scores = SequenceScores(
        chip=chip.short_name, tests=tuple(t.name for t in TUNING_TESTS)
    )
    sequences = all_sequences(scale.max_sequence_length)
    grid = [
        (seq, test, d, l)
        for seq in sequences
        for test in TUNING_TESTS
        for d in distances
        for l in locations
    ]
    units = [
        litmus_unit(
            key=litmus_key(
                chip.short_name, test.name,
                f"seq.fix.l{l}.{'-'.join(seq)}", d, scale.seq_executions,
                seed,
            ),
            chip=chip.short_name,
            test=test.name,
            distance=d,
            stress_spec=FixedLocationStress((l,), seq),
            executions=scale.seq_executions,
            seed=derive_seed(seed, "seq", seq, test.name, d, l),
            record_seed=seed,
        )
        for seq, test, d, l in grid
    ]
    counts = litmus_grid_counts(units, config, ledger, submit)
    for seq in sequences:
        scores.scores[seq] = {t.name: 0 for t in TUNING_TESTS}
    for (seq, test, _d, _l), weak in zip(grid, counts):
        scores.scores[seq][test.name] += weak
    return scores


def pareto_front(scores: SequenceScores) -> list[Sequence]:
    """Sequences not dominated on all tests by any other sequence."""
    seqs = list(scores.scores)
    front = []
    for a in seqs:
        dominated = False
        for b in seqs:
            if b is a:
                continue
            if all(
                scores.scores[b][t] > scores.scores[a][t]
                for t in scores.tests
            ):
                dominated = True
                break
        if not dominated:
            front.append(a)
    return front


def select_sequence(scores: SequenceScores) -> Sequence:
    """The maximally effective sequence after tie-breaking.

    From the Pareto front, prefer the sequence that beats each rival on
    at least two of the three litmus tests (the paper's tie-break); fall
    back to the highest total score.
    """
    front = pareto_front(scores)
    if len(front) == 1:
        return front[0]

    def beats(a: Sequence, b: Sequence) -> int:
        return sum(
            1
            for t in scores.tests
            if scores.scores[a][t] > scores.scores[b][t]
        )

    majority_winners = [
        a
        for a in front
        if all(beats(a, b) >= 2 for b in front if b is not a)
    ]
    candidates = majority_winners or front
    return max(candidates, key=scores.total)
