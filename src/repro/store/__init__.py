"""Persistent run ledger: durable, resumable experiment results.

The paper's tables are derived from archived campaign logs, not from
live hardware at paper-writing time; this package gives the
reproduction the same property.  Experiment layers write every
completed :class:`LitmusResult` / :class:`CampaignCell` /
:class:`InsertionResult` / :class:`CostMeasurement` (plus per-shard
campaign checkpoints) into an append-only JSONL ledger keyed by a
deterministic content key, and the reporting layer renders tables and
figures straight from the ledger — interrupted campaigns resume by
replaying only the missing keys, bit-identically to a cold run.

See ``docs/ARCHITECTURE.md`` ("The run ledger") for the format and the
resume semantics, and ``gpu-wmm experiment ... --out/--resume`` for the
CLI surface.
"""

from .ledger import (
    LEDGER_FORMAT,
    QUARANTINE_DIR,
    LedgerWriter,
    RunLedger,
    salvage_ledger,
    verify_ledger,
)
from .records import (
    RECORD_KINDS,
    RunRecord,
    campaign_cell_key,
    campaign_shard_key,
    content_key,
    cost_key,
    decode,
    insertion_key,
    litmus_key,
    stress_token,
)
from .resume import (
    cached_or_run,
    campaign_cells,
    cost_measurements,
    insertion_results,
    litmus_grid_counts,
    litmus_results,
    missing_ranges,
    submit_units,
)

__all__ = [
    "LEDGER_FORMAT",
    "QUARANTINE_DIR",
    "RunLedger",
    "LedgerWriter",
    "verify_ledger",
    "salvage_ledger",
    "RunRecord",
    "RECORD_KINDS",
    "content_key",
    "stress_token",
    "litmus_key",
    "campaign_cell_key",
    "campaign_shard_key",
    "insertion_key",
    "cost_key",
    "decode",
    "submit_units",
    "litmus_grid_counts",
    "missing_ranges",
    "cached_or_run",
    "litmus_results",
    "campaign_cells",
    "insertion_results",
    "cost_measurements",
]
