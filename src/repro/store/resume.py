"""Resume helpers: read-through caching over ledgered work lists.

The experiment layers all share one shape: a list of independent work
units, each with a deterministic content key, served by a submit
backend (the local pool or the distributed coordinator).
:func:`submit_units` overlays a :class:`~repro.store.ledger.RunLedger`
on that shape — already-ledgered keys are decoded instead of re-run,
missing keys run and checkpoint as their records stream in — which, by
the global-index seeding contract, reproduces a cold run bit for bit.
:func:`cached_or_run` does the same for one monolithic result.

The domain query wrappers at the bottom turn a ledger back into domain
objects for the reporting layer.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ReproError, ResultHookError
from ..parallel import (
    ParallelConfig,
    WorkUnit,
    run_units,
    shared_pool,
)
from . import records as rec
from .ledger import RunLedger


def missing_ranges(
    covered: list[tuple[int, int]], n: int
) -> list[tuple[int, int]]:
    """Complement of sorted disjoint ``covered`` ranges within
    ``[0, n)`` — the work a resumed run range still owes."""
    out = []
    position = 0
    for start, stop in covered:
        if start > position:
            out.append((position, start))
        position = max(position, stop)
    if position < n:
        out.append((position, n))
    return out


def submit_units(
    units: Sequence[WorkUnit],
    config: ParallelConfig,
    ledger: RunLedger | None,
    submit: Callable | None = None,
) -> list[rec.RunRecord]:
    """Execute work units through any backend, with ledger read-through.

    The one shape every grid layer shares: already-ledgered keys are
    returned straight from the ledger (zero simulation), the rest go to
    ``submit(units, config, on_record)`` — the local pool by default,
    the distributed coordinator when the caller passes one (see
    :mod:`repro.dist`) — and every fresh record checkpoints into the
    ledger the moment it streams back.  Records return in unit order.
    """
    results: list[rec.RunRecord | None] = [None] * len(units)
    pending: list[WorkUnit] = []
    pending_indices: list[int] = []
    for i, unit in enumerate(units):
        record = ledger.get(unit.key) if ledger is not None else None
        if record is not None:
            results[i] = record
        else:
            pending.append(unit)
            pending_indices.append(i)
    if pending:
        if submit is None:
            def submit(batch, cfg, on_record):
                return run_units(
                    batch, cfg, on_record, pool=shared_pool(cfg)
                )
        if ledger is not None:
            with ledger.writer() as checkpoint:

                def on_record(j: int, record: rec.RunRecord) -> None:
                    try:
                        checkpoint.write(record)
                    except Exception as exc:
                        raise ResultHookError(
                            index=j, key=pending[j].key, detail=str(exc)
                        ) from exc

                fresh = submit(pending, config, on_record)
        else:
            fresh = submit(pending, config, None)
        _validate_backend_return(pending, fresh)
        for j, record in zip(pending_indices, fresh):
            results[j] = record
    return results


def _validate_backend_return(
    pending: Sequence[WorkUnit], fresh: Sequence
) -> None:
    """A submit backend promises one record per unit, in unit order,
    under the unit's content key.  A backend that silently drops or
    reorders would otherwise surface much later as misattributed
    results; fail here, at the contract boundary, with a typed error."""
    if len(fresh) != len(pending):
        raise ReproError(
            f"submit backend returned {len(fresh)} records for "
            f"{len(pending)} pending units; a backend must return one "
            "record per unit (quarantined units must be repaired or "
            "raised, never silently omitted)"
        )
    for unit, record in zip(pending, fresh):
        if record is None or record.key != unit.key:
            got = None if record is None else record.key
            raise ReproError(
                f"submit backend returned record key {got!r} for unit "
                f"{unit.key!r}; records must come back in unit order "
                "under matching content keys"
            )


def litmus_grid_counts(
    units: Sequence[WorkUnit],
    config: ParallelConfig,
    ledger: RunLedger | None,
    submit: Callable | None = None,
) -> list[int]:
    """:func:`submit_units` reduced to the tuning grids' weak counts."""
    return [
        rec.decode_litmus(record).weak
        for record in submit_units(units, config, ledger, submit)
    ]


def cached_or_run(
    ledger: RunLedger | None,
    key: str,
    run: Callable[[], object],
    encode: Callable[[str, object], rec.RunRecord],
    decode: Callable[[rec.RunRecord], object],
):
    """One-item read-through cache for monolithic results (an insertion
    run, a cost measurement): decode when ledgered, otherwise run and
    atomically append."""
    if ledger is not None:
        record = ledger.get(key)
        if record is not None:
            return decode(record)
    result = run()
    if ledger is not None:
        ledger.append(encode(key, result))
    return result


# -- domain queries ----------------------------------------------------

def litmus_results(ledger: RunLedger, **filters) -> list:
    """Every ledgered :class:`LitmusResult` (payload-field filters)."""
    return [
        rec.decode_litmus(r) for r in ledger.records("litmus", **filters)
    ]


def campaign_cells(ledger: RunLedger, **filters) -> list:
    """Every ledgered :class:`CampaignCell` (payload-field filters)."""
    return [
        rec.decode_campaign_cell(r)
        for r in ledger.records("campaign", **filters)
    ]


def insertion_results(ledger: RunLedger, **filters) -> list:
    """Every ledgered :class:`InsertionResult`."""
    return [
        rec.decode_insertion(r)
        for r in ledger.records("insertion", **filters)
    ]


def cost_measurements(ledger: RunLedger, **filters) -> list:
    """Every ledgered :class:`CostMeasurement`."""
    return [
        rec.decode_cost(r) for r in ledger.records("cost", **filters)
    ]
