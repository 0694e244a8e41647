"""Result records for litmus campaigns."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LitmusResult:
    """Outcome of ``executions`` runs of one litmus test instance.

    ``backend`` records which execution path produced the result: the
    ``"direct"`` memory-system fast path, the compiled SIMT ``"engine"``
    path (see :mod:`repro.litmus.compile`) or the ``"vector"``
    mega-batch path (see :mod:`repro.litmus.vector`).

    ``outcomes`` is None unless the run was asked to record final
    states (``outcomes=True`` on any runner).  It then maps each final
    state, keyed like :func:`repro.axiom.model.observation_key`, to the
    number of rounds that ended in it, and ``incomplete`` counts the
    rounds left out because a load did not resolve within the direct
    backend's tick budget.  Neither field is written to ledger records.
    """

    test: str
    distance: int
    weak: int
    executions: int
    location: tuple[int, ...] = ()
    backend: str = "direct"
    outcomes: dict | None = None
    incomplete: int = 0

    @property
    def rate(self) -> float:
        """Fraction of executions exhibiting the weak behaviour."""
        return self.weak / self.executions if self.executions else 0.0


@dataclass
class Tally:
    """Accumulates weak-behaviour counts keyed by arbitrary tuples.

    Used by the tuning pipeline to sum scores over distances and
    stressing locations (the paper's per-sequence and per-spread
    "scores").
    """

    counts: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, key, weak: int) -> None:
        self.counts[key] += weak

    def score(self, key) -> int:
        return self.counts.get(key, 0)

    def ranked(self) -> list[tuple[object, int]]:
        """Keys sorted by descending score."""
        return sorted(self.counts.items(), key=lambda kv: -kv[1])
