"""Campaign runner: chips × applications × testing environments.

The paper executes each (chip, application, environment) combination
repeatedly for one hour and records erroneous runs.  Here the wall-clock
budget is replaced by a run count (``Scale.campaign_runs``); the derived
statistics — error rate and the >5% *effectiveness* threshold — are the
same.

With a :class:`~repro.store.RunLedger` the campaign becomes durable and
resumable: every completed shard checkpoints into the ledger the moment
it streams back, finished cells are recorded whole, and a re-run over
the same ledger replays only the missing run ranges.  Because run ``i``
of a cell always draws from the seed stream derived from its *global*
index, the resumed statistics are bit-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..apps.base import Application, ApplicationBatch
from ..apps.registry import all_applications, get_application
from ..chips.profile import HardwareProfile
from ..chips.registry import get_chip
from ..parallel import (
    SERIAL,
    CellShard,
    ParallelConfig,
    WorkUnit,
    merge_cell_shards,
    register_executor,
    shard_ranges,
)
from ..rng import derive_seed
from ..scale import DEFAULT, Scale
from ..store import missing_ranges, submit_units
from ..store import records as store_records
from ..store.ledger import RunLedger
from ..stress.environment import TestingEnvironment, standard_environments
from ..stress.strategies import spec_from_json, spec_to_json
from ..tuning.pipeline import shipped_params


@dataclass(frozen=True)
class CampaignCell:
    """Error statistics for one (chip, application, environment)."""

    chip: str
    app: str
    environment: str
    errors: int
    timeouts: int
    runs: int

    @property
    def error_rate(self) -> float:
        return self.errors / self.runs if self.runs else 0.0


def campaign_unit(
    chip: HardwareProfile,
    app: Application,
    env: TestingEnvironment,
    runs: int,
    seed: int,
    start: int,
    stop: int,
) -> WorkUnit:
    """One campaign shard — runs ``[start, stop)`` of one cell — as a
    location-independent work unit (names and serialised specs only)."""
    return WorkUnit(
        kind="campaign-shard",
        key=store_records.campaign_shard_key(
            chip.short_name, app.name, env.name, runs, seed, start, stop
        ),
        spec={
            "chip": chip.short_name,
            "app": app.name,
            "environment": env.name,
            "stress": spec_to_json(env.strategy),
            "randomise": env.randomise,
            "runs": runs,
            "seed": seed,
            "start": start,
            "stop": stop,
        },
    )


def execute_campaign_unit(unit: WorkUnit) -> store_records.RunRecord:
    """Execute one campaign shard anywhere (pool child, remote worker).

    Run ``i`` of a cell always draws from the seed stream derived from
    its *global* index, so any sharding of the run range — and any
    placement of this unit — reproduces the serial statistics exactly.
    The shard's runs share one :class:`ApplicationBatch` (per-seed
    results identical to standalone runs).
    """
    s = unit.spec
    batch = ApplicationBatch(
        get_application(s["app"]),
        get_chip(s["chip"]),
        stress_spec=spec_from_json(s["stress"]),
        randomise=s["randomise"],
    )
    errors = 0
    timeouts = 0
    for i in range(s["start"], s["stop"]):
        result = batch.run(
            derive_seed(s["seed"], "campaign", s["environment"], i)
        )
        if result.erroneous:
            errors += 1
        if result.timed_out:
            timeouts += 1
    shard = CellShard(
        cell=0, start=s["start"], stop=s["stop"],
        errors=errors, timeouts=timeouts,
    )
    return store_records.encode_campaign_shard(
        unit.key, s["chip"], s["app"], s["environment"], s["runs"],
        s["seed"], shard,
    )


register_executor("campaign-shard", execute_campaign_unit)


def _ledgered_shards(
    ledger: RunLedger,
    chip: HardwareProfile,
    app: Application,
    env: TestingEnvironment,
    runs: int,
    seed: int,
    cell: int,
) -> list[CellShard]:
    """Checkpointed shards of one cell, re-homed onto grid index
    ``cell`` and reduced to a sorted non-overlapping set.

    Shards written at a different worker count can overlap; overlapping
    records are discarded (their ranges simply re-run) because partial
    counts cannot be split exactly.
    """
    decoded = [
        store_records.decode_campaign_shard(record, cell=cell)
        for record in ledger.records(
            "campaign-shard",
            chip=chip.short_name,
            app=app.name,
            environment=env.name,
            runs=runs,
            seed=seed,
        )
    ]
    kept: list[CellShard] = []
    end = 0
    for shard in sorted(decoded, key=lambda s: s.start):
        if shard.start >= end and shard.stop <= runs:
            kept.append(shard)
            end = shard.stop
    return kept


def _run_grid(
    grid: list[tuple[HardwareProfile, Application, TestingEnvironment]],
    runs: int,
    seed: int,
    config: ParallelConfig,
    ledger: RunLedger | None,
    submit: Callable | None = None,
) -> list[CampaignCell]:
    """Run (or resume) every cell of ``grid`` for ``runs`` executions.

    The whole grid is flattened into (cell × run chunk) work units and
    dispatched through one submit backend — the shared local pool by
    default, the distributed coordinator when ``submit`` is a
    :class:`~repro.dist.DistributedSubmit` — so small grids with slow
    cells still keep every worker busy; shard records are reduced back
    into per-cell :class:`CampaignCell` statistics that match a serial
    run bit for bit regardless of backend.  With a ledger, fully
    recorded cells are decoded outright, checkpointed shards shrink the
    remaining work to the missing run ranges, and fresh shards
    checkpoint as they complete.
    """
    cells: list[CampaignCell | None] = [None] * len(grid)
    cached_shards: list[CellShard] = []
    units: list[WorkUnit] = []
    unit_cell: dict[str, int] = {}
    for index, (chip, app, env) in enumerate(grid):
        covered: list[tuple[int, int]] = []
        if ledger is not None:
            record = ledger.get(
                store_records.campaign_cell_key(
                    chip.short_name, app.name, env.name, runs, seed
                )
            )
            if record is not None:
                cells[index] = store_records.decode_campaign_cell(record)
                continue
            done = _ledgered_shards(
                ledger, chip, app, env, runs, seed, index
            )
            cached_shards.extend(done)
            covered = [(s.start, s.stop) for s in done]
        for lo, hi in missing_ranges(covered, runs):
            for start, stop in shard_ranges(hi - lo, config):
                unit = campaign_unit(
                    chip, app, env, runs, seed, lo + start, lo + stop
                )
                unit_cell[unit.key] = index
                units.append(unit)
    fresh = [
        store_records.decode_campaign_shard(
            record, cell=unit_cell[record.key]
        )
        for record in submit_units(units, config, ledger, submit)
    ]
    merged = merge_cell_shards(cached_shards + fresh, runs)
    new_records = []
    for index, (chip, app, env) in enumerate(grid):
        if cells[index] is not None:
            continue
        errors, timeouts = merged.get(index, (0, 0))
        cell = CampaignCell(
            chip=chip.short_name,
            app=app.name,
            environment=env.name,
            errors=errors,
            timeouts=timeouts,
            runs=runs,
        )
        cells[index] = cell
        if ledger is not None:
            new_records.append(
                store_records.encode_campaign_cell(
                    store_records.campaign_cell_key(
                        chip.short_name, app.name, env.name, runs, seed
                    ),
                    cell,
                )
            )
    if ledger is not None and new_records:
        ledger.append(*new_records)
    return cells


def run_cell(
    app: Application,
    chip: HardwareProfile,
    env: TestingEnvironment,
    runs: int,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit: Callable | None = None,
) -> CampaignCell:
    """Run one campaign cell (one table entry of the raw data)."""
    config = parallel or SERIAL
    return _run_grid(
        [(chip, app, env)], runs, seed, config, ledger, submit
    )[0]


def run_campaign(
    chips: list[HardwareProfile],
    apps: list[Application] | None = None,
    environments: list[str] | None = None,
    scale: Scale = DEFAULT,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit: Callable | None = None,
) -> list[CampaignCell]:
    """Run the full Sec. 4 campaign grid.

    ``environments`` filters by name (e.g. ``["sys-str+", "no-str-"]``);
    None runs all eight.

    Under ``parallel`` the whole grid is flattened into (cell × run
    chunk) shards and dispatched to one worker pool, so small grids with
    slow cells still keep every worker busy; shard outputs are reduced
    back into per-cell :class:`CampaignCell` statistics that match a
    serial run bit for bit.

    ``ledger`` makes the campaign durable and resumable: completed
    shards and cells persist as they finish, and a repeat invocation
    over the same ledger replays only what is missing (see
    :mod:`repro.store`).

    ``submit`` swaps the execution backend — pass a
    :class:`~repro.dist.DistributedSubmit` to serve the grid to socket
    workers instead of the local pool; results are identical by the
    seeding contract.
    """
    config = parallel or SERIAL
    if apps is None:
        apps = all_applications()
    grid: list[tuple[HardwareProfile, Application, TestingEnvironment]] = []
    for chip in chips:
        envs = standard_environments(shipped_params(chip.short_name))
        if environments is not None:
            envs = [e for e in envs if e.name in environments]
        for app in apps:
            for env in envs:
                grid.append((chip, app, env))
    return _run_grid(
        grid, scale.campaign_runs, seed, config, ledger, submit
    )
