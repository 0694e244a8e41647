"""The four benchmark workloads, one paper artefact each.

Every workload calls public ``repro`` entry points with a fixed
experiment seed (``EXPERIMENT_SEED``), so every run simulates the same
work and its ground truth is comparable across runs.  The benchmark's
``--seed`` only shuffles the order in which a workload issues its
independent units (apps, tests); no simulated statistic depends on it.

``prepare`` does the once-per-process set-up a workload needs beyond
imports (a serial reference render, axiom verdicts); ``run`` is one
timed iteration and returns an :class:`Outcome` whose checks the driver
applies to every iteration.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.apps.base import ApplicationBatch
from repro.apps.registry import all_applications, get_application
from repro.axiom import condition_verdict
from repro.chips.registry import get_chip
from repro.costs.report import figure5_points
from repro.dist import DistributedSubmit
from repro.hardening.insertion import empirical_fence_insertion
from repro.litmus.tests import ALL_TESTS
from repro.parallel import run_units, shared_pool
from repro.reporting.experiments import survey
from repro.reporting import tables
from repro.scale import SMOKE
from repro.store import RunLedger
from repro.store import records as store_records
from repro.stress.environment import ENVIRONMENT_ORDER
from repro.testing.campaign import run_campaign
from repro.testing.summary import most_capable_environment, table5_summary
from repro.tuning.pipeline import shipped_params, tune_chip

EXPERIMENT_SEED = 0

#: Litmus conditions no execution may satisfy (axiomatically forbidden).
FORBIDDEN_TESTS = ("MP-FF", "LB-FF", "SB-FF", "CoRR", "CoWW")


@dataclass
class Outcome:
    """What one iteration produced, as the driver checks and counts it."""

    #: Simulated executions: litmus executions or application runs.
    sim_exec: int
    #: Weak litmus outcomes or erroneous application runs.
    exposed: int
    #: Ground-truth checks against the registry's hidden parameters.
    checks: list[bool]
    #: Reasons this iteration failed (empty when it is good).
    failures: list[str] = field(default_factory=list)
    #: Deterministic simulated statistics (JSON-able) for the digest.
    stats: object = None
    #: Per-layer counts read from the returned objects.
    counts: dict[str, float] = field(default_factory=dict)


class LitmusTally:
    """A ``submit`` backend that forwards to the default local backend
    (or ``inner``) and reads each returned litmus record."""

    def __init__(self, inner=None) -> None:
        self.inner = inner
        #: ``(test, chip, stress type, distance, weak, executions)``
        self.cells: list[tuple] = []

    def __call__(self, units, config, on_record):
        if self.inner is None:
            records = run_units(
                units, config, on_record, pool=shared_pool(config)
            )
        else:
            records = self.inner(units, config, on_record)
        for unit, record in zip(units, records):
            result = store_records.decode_litmus(record)
            spec = unit.spec
            self.cells.append((
                spec["test"], spec["chip"], spec["stress"]["type"],
                spec["distance"], result.weak, result.executions,
            ))
        return records

    @property
    def executions(self) -> int:
        return sum(cell[5] for cell in self.cells)

    @property
    def weak(self) -> int:
        return sum(cell[4] for cell in self.cells)


class AppTally:
    """Counts every ``ApplicationBatch.run`` and sums its simulated
    statistics.  Installed for the whole run of an application workload
    (about a microsecond per call against milliseconds per simulated
    run); :meth:`take` reads and resets the totals."""

    FIELDS = ("runs", "errors", "ticks", "fences", "swaps", "bypasses")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._original = ApplicationBatch.run
        tally = self.totals
        original = self._original

        def run(batch, *args, **kwargs):
            out = original(batch, *args, **kwargs)
            result = out.result
            tally["runs"] += 1
            tally["errors"] += 1 if out.erroneous else 0
            tally["ticks"] += result.ticks
            tally["fences"] += result.n_fences
            tally["swaps"] += result.n_swaps
            tally["bypasses"] += result.n_bypasses
            return out

        ApplicationBatch.run = run

    def take(self) -> dict[str, int]:
        out = dict(self.totals)
        for key in self.FIELDS:
            self.totals[key] = 0
        return out

    def close(self) -> None:
        ApplicationBatch.run = self._original


class Workload:
    name = ""
    why = ""
    #: Whether the workload's children count towards peak RSS.
    counts_children = False
    #: Fresh-interpreter set-up measurements besides the driver's own.
    setup_probes = 2
    #: Whether times are stated at the nominal host speed (see
    #: ``hostspeed``).  Only for work in the driver's own thread.
    gauged = True

    def __init__(
        self, order_seed: int, tiny: bool = False, scratch: str = "."
    ) -> None:
        self.rng = random.Random(order_seed)
        self.tiny = tiny
        #: Directory for the workload's temporary files.
        self.scratch = scratch
        self.apps_tally: AppTally | None = None

    def prepare(self) -> None:
        """Once-per-process set-up beyond imports (untimed as a sample,
        counted in ``setup_s``)."""

    def run(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything ``__init__`` installed."""
        if self.apps_tally is not None:
            self.apps_tally.close()


class Tune(Workload):
    name = "tune"
    why = (
        "Sec. 3 tuning (Table 2) on K20: litmus direct runner, stress "
        "field builds, memory tables and RNG do the work"
    )
    CHIP = "K20"

    def __init__(self, order_seed: int, **kwargs) -> None:
        super().__init__(order_seed, **kwargs)
        # Smoke with half the distances and sequences up to length 3:
        # about 2 s per iteration, and the same Table 2 row as smoke.
        self.scale = dataclasses.replace(
            SMOKE, name="smoke-d64-n3", distance_step=64,
            max_sequence_length=3,
        )
        if self.tiny:
            self.scale = dataclasses.replace(
                SMOKE, name="tiny", max_distance=96, max_location=64,
                executions=40, max_sequence_length=2, max_spread=3,
                seq_executions=4, spread_executions=4,
            )

    def run(self) -> Outcome:
        tally = LitmusTally()
        result = tune_chip(
            get_chip(self.CHIP), self.scale, EXPERIMENT_SEED, submit=tally
        )
        config = result.config
        truth = shipped_params(self.CHIP)
        text = tables.render_table(
            [config.table2_row()], title="Table 2 (benchmark subset)"
        )
        return Outcome(
            sim_exec=tally.executions,
            exposed=tally.weak,
            checks=[
                config.patch_size == truth.patch_size,
                config.sequence == truth.sequence,
                config.spread == truth.spread,
            ],
            stats={"cells": sorted(tally.cells), "text": text},
        )


class Campaign(Workload):
    name = "campaign"
    why = (
        "Sec. 4 campaign (Table 5) on K20 and 980 x 8 environments x all "
        "apps: SIMT engine dispatch, scheduler, kernels and grid builds"
    )
    CHIPS = ("K20", "980")
    #: Runs per cell (smoke has 24): about 2.5 s per iteration.
    RUNS = 2

    def __init__(self, order_seed: int, **kwargs) -> None:
        super().__init__(order_seed, **kwargs)
        self.apps = all_applications()
        self.rng.shuffle(self.apps)
        runs = 1 if self.tiny else self.RUNS
        self.scale = dataclasses.replace(
            SMOKE, name=f"smoke-r{runs}", campaign_runs=runs
        )
        self.environments = list(
            ENVIRONMENT_ORDER[:2] if self.tiny else ENVIRONMENT_ORDER
        )
        self.apps_tally = AppTally()

    def run(self) -> Outcome:
        chips = [get_chip(name) for name in self.CHIPS]
        cells = run_campaign(
            chips, apps=self.apps, environments=self.environments,
            scale=self.scale, seed=EXPERIMENT_SEED,
        )
        engine = self.apps_tally.take()
        runs = sum(cell.runs for cell in cells)
        errors = sum(cell.errors for cell in cells)
        failures = []
        if (engine["runs"], engine["errors"]) != (runs, errors):
            failures.append(
                f"campaign cells report {runs} runs/{errors} errors but "
                f"{engine['runs']}/{engine['errors']} application runs "
                "executed"
            )
        table = table5_summary(cells)
        rows = [
            {"chip": chip, **{
                env: str(table[(chip, env)]) for env in self.environments
            }}
            for chip in self.CHIPS
        ]
        capable = [
            most_capable_environment(table, chip) for chip in self.CHIPS
        ]
        return Outcome(
            sim_exec=runs,
            exposed=errors,
            checks=[env in ("sys-str+", "sys-str-") for env in capable],
            failures=failures,
            stats={
                "cells": sorted(
                    (c.chip, c.app, c.environment, c.errors, c.timeouts,
                     c.runs)
                    for c in cells
                ),
                "engine": engine,
                "text": tables.render_table(
                    rows, title="Table 5 (benchmark subset)"
                ),
            },
        )


class Harden(Workload):
    name = "harden"
    why = (
        "Sec. 5 fence insertion on Titan plus Sec. 6 costs on K20: one "
        "batch reused under shrinking fence sets, fence stalls dominate"
    )
    CHIP = "Titan"
    #: Fence-free apps whose reductions take 0.2-0.9 s each on Titan.
    APPS = ("cbe-dot", "ct-octree", "sdk-red-nf")
    COST_CHIP = "K20"
    COST_APPS = ("ct-octree", "sdk-red")

    def __init__(self, order_seed: int, **kwargs) -> None:
        super().__init__(order_seed, **kwargs)
        names = list(self.APPS[1:2] if self.tiny else self.APPS)
        self.rng.shuffle(names)
        self.apps = [get_application(name) for name in names]
        self.cost_apps = [
            get_application(name)
            for name in self.COST_APPS[: 1 if self.tiny else None]
        ]
        self.apps_tally = AppTally()

    def run(self) -> Outcome:
        chip = get_chip(self.CHIP)
        results = [
            empirical_fence_insertion(
                app, chip, scale=SMOKE, seed=EXPERIMENT_SEED,
                max_restarts=1 if self.tiny else 4,
            )
            for app in self.apps
        ]
        points = figure5_points(
            self.cost_apps, [get_chip(self.COST_CHIP)],
            # The fig5 experiment's run count at smoke.
            runs=2 if self.tiny else max(5, SMOKE.campaign_runs // 4),
            seed=EXPERIMENT_SEED,
        )
        engine = self.apps_tally.take()
        by_app = {r.app: r for r in results}
        table6 = tables.render_table(
            [
                {**by_app[name].table6_row(), "time (mins)": "-",
                 "reduced fences": ", ".join(sorted(by_app[name].reduced))}
                for name in sorted(by_app)
            ],
            title=f"Table 6 on {self.CHIP} (benchmark subset)",
        )
        fig5 = tables.render_table(
            [
                {"app": p.app, "strategy": p.strategy.value,
                 "no-fence ms": p.baseline_runtime_ms,
                 "fenced ms": p.fenced_runtime_ms}
                for p in sorted(
                    points, key=lambda p: (p.app, p.strategy.value)
                )
            ],
            title=f"Figure 5 points on {self.COST_CHIP} (benchmark subset)",
        )
        return Outcome(
            sim_exec=engine["runs"],
            exposed=engine["errors"],
            checks=[
                r.converged
                and r.reduced == get_application(r.app).required_sites()
                for r in results
            ],
            stats={
                "insertion": sorted(
                    (r.app, sorted(r.reduced), r.converged, r.check_runs,
                     r.iterations_used)
                    for r in results
                ),
                "engine": engine,
                "text": table6 + "\n" + fig5,
            },
            counts={
                "hardening.check_runs": sum(r.check_runs for r in results)
            },
        )


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, files in os.walk(root)
        for name in files
    )


class SurveyDist(Workload):
    name = "survey-dist"
    why = (
        "Litmus survey on the vector backend served to 2 local workers "
        "into a ledger: vector runner, dist coordinator and store"
    )
    counts_children = True
    setup_probes = 1
    # The call waits on worker processes that share the driver's CPUs;
    # a chunk timed in the driver would measure their contention.
    gauged = False
    CHIPS = ("K20", "Titan", "980")
    EXECUTIONS = 2000
    WORKERS = 2

    def __init__(self, order_seed: int, **kwargs) -> None:
        super().__init__(order_seed, **kwargs)
        names = [t.name for t in ALL_TESTS]
        self.rng.shuffle(names)
        self.tests = tuple(names)
        executions = 64 if self.tiny else self.EXECUTIONS
        self.scale = dataclasses.replace(
            SMOKE, name=f"smoke-x{executions}", executions=executions,
            litmus_backend="vector",
        )
        self.reference = ""
        self.verdicts: dict[str, str] = {}

    def _survey(self, **kwargs) -> str:
        return survey(
            scale=self.scale, seed=EXPERIMENT_SEED, chips=self.CHIPS,
            tests=self.tests, **kwargs,
        )

    def prepare(self) -> None:
        self.reference = self._survey()
        self.verdicts = {t.name: condition_verdict(t) for t in ALL_TESTS}

    def run(self) -> Outcome:
        tally = LitmusTally(DistributedSubmit(workers=self.WORKERS))
        root = tempfile.mkdtemp(prefix="ledger-", dir=self.scratch)
        log_path = os.path.join(self.scratch, "survey-dist-workers.log")
        try:
            ledger = RunLedger.open_or_create(root)
            # Worker subprocesses inherit stderr; keep their progress
            # lines out of the benchmark's output.
            with open(log_path, "ab") as log:
                saved = os.dup(2)
                os.dup2(log.fileno(), 2)
                try:
                    text = self._survey(ledger=ledger, submit=tally)
                finally:
                    os.dup2(saved, 2)
                    os.close(saved)
            ledger_bytes = _dir_bytes(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        failures = []
        if text != self.reference:
            failures.append("distributed render differs from the serial one")
        checks = []
        for test, chip, stress, _d, weak, _n in tally.cells:
            if test in FORBIDDEN_TESTS and weak:
                failures.append(
                    f"{test} on {chip} ({stress}) shows {weak} forbidden "
                    "weak outcomes"
                )
            if stress == "tuned":
                checks.append((weak > 0) == (self.verdicts[test] == "weak"))
        return Outcome(
            sim_exec=tally.executions,
            exposed=tally.weak,
            checks=checks,
            failures=failures,
            stats={
                "cells": sorted(tally.cells),
                "text": sorted(text.splitlines()),
            },
            counts={"store.ledger_bytes": ledger_bytes},
        )


WORKLOADS = {w.name: w for w in (Tune, Campaign, Harden, SurveyDist)}
