"""Shard records and their reductions.

Workers return small frozen dataclasses covering a contiguous index
range; the merge functions validate that the shards tile the full range
exactly (no silent double counting or gaps) and reduce them to the
primitive statistics the domain modules fold into their existing
summary types (:class:`~repro.litmus.results.LitmusResult`,
:class:`~repro.testing.campaign.CampaignCell`).  This module stays free
of domain imports so every layer can depend on it without cycles.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import ReproError


def _check_coverage(shards, n: int, kind: str) -> None:
    """Ensure sorted ``shards`` exactly tile ``range(n)``."""
    expected = 0
    for shard in shards:
        if shard.start != expected or shard.stop < shard.start:
            raise ReproError(
                f"{kind} shards do not tile range({n}): got "
                f"[{shard.start}, {shard.stop}) at offset {expected}"
            )
        expected = shard.stop
    if expected != n:
        raise ReproError(
            f"{kind} shards cover {expected} of {n} work items"
        )


@dataclass(frozen=True)
class LitmusShard:
    """Weak-behaviour count for executions ``[start, stop)``.

    ``outcomes`` is the shard's final-state histogram when the run
    records one (rounds whose loads did not all resolve count under
    ``None``), so sharded histograms merge to the serial one."""

    start: int
    stop: int
    weak: int
    outcomes: dict | None = None


def merge_litmus_shards(
    shards: Iterable[LitmusShard], executions: int
) -> int:
    """Total weak count over all shards (validating full coverage)."""
    ordered = sorted(shards, key=lambda s: s.start)
    _check_coverage(ordered, executions, "litmus")
    return sum(s.weak for s in ordered)


@dataclass(frozen=True)
class CellShard:
    """Error statistics for campaign runs ``[start, stop)`` of one cell.

    ``cell`` identifies the (chip, app, environment) grid entry so a
    flattened campaign — every cell's shards interleaved in one work
    list — can be regrouped after the map.
    """

    cell: int
    start: int
    stop: int
    errors: int
    timeouts: int


def merge_cell_shards(
    shards: Iterable[CellShard], runs: int
) -> dict[int, tuple[int, int]]:
    """Reduce flattened campaign shards to per-cell ``(errors, timeouts)``.

    Each cell's shards must tile ``range(runs)`` exactly.
    """
    by_cell: dict[int, list[CellShard]] = {}
    for shard in shards:
        by_cell.setdefault(shard.cell, []).append(shard)
    merged: dict[int, tuple[int, int]] = {}
    for cell, cell_shards in by_cell.items():
        ordered = sorted(cell_shards, key=lambda s: s.start)
        _check_coverage(ordered, runs, f"campaign cell {cell}")
        merged[cell] = (
            sum(s.errors for s in ordered),
            sum(s.timeouts for s in ordered),
        )
    return merged


@dataclass(frozen=True)
class CheckShard:
    """Outcome of fence-check runs ``[start, stop)``.

    ``first_error`` is the lowest *global* run index in the shard whose
    execution was erroneous, or None when the whole shard passed.
    Workers may stop early past their first error — later runs of the
    shard cannot influence the merged verdict.
    """

    start: int
    stop: int
    first_error: int | None


def merge_check_shards(
    shards: Iterable[CheckShard], iterations: int
) -> int | None:
    """The first erroneous run index over the full budget, or None.

    This is exactly the run on which a serial early-exiting loop would
    have stopped, which is what lets the parallel check reproduce the
    serial seed stream (the check counter advances by the number of runs
    a serial execution would have performed).
    """
    ordered = sorted(shards, key=lambda s: s.start)
    _check_coverage(ordered, iterations, "check")
    firsts = [s.first_error for s in ordered if s.first_error is not None]
    return min(firsts) if firsts else None
