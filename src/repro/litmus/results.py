"""Result records for litmus campaigns."""

from __future__ import annotations

from dataclasses import dataclass


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
