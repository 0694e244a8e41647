"""Per-experiment regeneration harness.

Each experiment id (table/figure of the paper) maps to a function that
reruns the experiment at a given scale and returns printable text.  The
benchmarks under ``benchmarks/`` and the CLI both route through here,
so every artefact of the paper is regenerable from one entry point:

>>> from repro.reporting.experiments import run_experiment
>>> print(run_experiment("table1"))              # doctest: +SKIP

Every experiment that simulates accepts a :class:`~repro.store.RunLedger`
(CLI: ``--out DIR`` / ``--resume DIR``).  Results stream into the ledger as
they complete, already-ledgered keys are decoded instead of re-run, and
a ledger holding every key of an experiment regenerates the table or
figure with **zero** simulation runs — the paper's own workflow of
deriving tables from archived campaign logs.
"""

from __future__ import annotations

import inspect
import os

from ..apps.registry import all_applications, table4_rows
from ..chips.registry import all_chips, get_chip, table1_rows
from ..costs.report import figure5_points, overhead_summary
from ..hardening.insertion import empirical_fence_insertion
from ..litmus import BACKENDS
from ..litmus.tests import ALL_TESTS, TUNING_TESTS, get_test
from ..litmus.units import litmus_unit
from ..stress.strategies import NoStress, TunedStress
from ..errors import LedgerError
from ..parallel import SERIAL, ParallelConfig
from ..scale import DEFAULT, Scale, get_scale
from ..store import RunLedger, litmus_key, stress_token, submit_units
from ..store import records as store_records
from ..stress.environment import ENVIRONMENT_ORDER
from ..stress.sequences import format_sequence
from ..testing.campaign import run_campaign
from ..testing.summary import table5_summary
from ..tuning.access import score_sequences, select_sequence
from ..tuning.patches import critical_patch_size, scan_patches
from ..tuning.pipeline import shipped_params, tune_chip
from ..tuning.spread import score_spreads
from .figures import render_bars, render_series
from .tables import render_table


def table1() -> str:
    """Table 1: the seven studied GPUs."""
    return render_table(
        table1_rows(), title="Table 1: the seven Nvidia GPUs we study"
    )


def figure3(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] = ("Titan", "C2075", "980"),
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Figure 3: patch finding bar strips for MP and LB."""
    out = []
    for name in chips:
        chip = get_chip(name)
        scan = scan_patches(
            chip, scale, seed, parallel=parallel, ledger=ledger,
            submit=submit,
        )
        patch, _per_test = critical_patch_size(scan)
        out.append(
            f"Figure 3 ({chip.name}): critical patch size {patch} "
            f"(truth: hidden hardware parameter)"
        )
        shown = [d for d in scan.distances if d in
                 (0, chip.patch_size, 2 * chip.patch_size)] or \
            list(scan.distances[:3])
        for test in ("MP", "LB"):
            for d in shown:
                out.append(
                    render_bars(scan.row(test, d), label=f"{test} d={d}")
                )
        out.append("")
    return "\n".join(out)


def table2(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] | None = None,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Table 2: tuned stressing parameters per chip (full pipeline)."""
    rows = []
    names = chips if chips is not None else tuple(
        c.short_name for c in all_chips()
    )
    for name in names:
        result = tune_chip(
            get_chip(name), scale, seed, parallel=parallel, ledger=ledger,
            submit=submit,
        )
        row = result.table2_row()
        truth = shipped_params(name)
        row["matches paper"] = (
            "yes"
            if (
                result.config.patch_size == truth.patch_size
                and result.config.sequence == truth.sequence
                and result.config.spread == truth.spread
            )
            else "no"
        )
        rows.append(row)
    return render_table(
        rows, title="Table 2: stressing parameters discovered per chip"
    )


def table3(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chip: str = "Titan",
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Table 3: access-sequence ranking snippet for Titan."""
    profile = get_chip(chip)
    scores = score_sequences(
        profile, profile.patch_size, scale, seed, parallel=parallel,
        ledger=ledger, submit=submit,
    )
    best = select_sequence(scores)
    out = [
        f"Table 3: snippet of sigmas and scores for {chip} "
        f"(selected: {format_sequence(best)})"
    ]
    for test, rows in scores.table3_rows().items():
        out.append(render_table(rows, title=f"-- {test} --"))
    return "\n".join(out)


def figure4(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] = ("980", "K20"),
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Figure 4: spread-finding score curves."""
    out = []
    for name in chips:
        chip = get_chip(name)
        scores = score_spreads(
            chip, chip.patch_size, chip.best_sequence, scale, seed,
            parallel=parallel, ledger=ledger, submit=submit,
        )
        series = {
            test.name: [
                (float(m), float(s))
                for m, s in scores.series(test.name)
            ]
            for test in TUNING_TESTS
        }
        out.append(
            render_series(
                series,
                title=f"Figure 4 ({chip.name}): score vs spread",
                x_label="spread",
                y_label="weak behaviours observed",
            )
        )
        out.append("")
    return "\n".join(out)


def table4() -> str:
    """Table 4: the application case studies."""
    return render_table(
        table4_rows(), title="Table 4: the case studies we consider"
    )


def table5(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] | None = None,
    environments: tuple[str, ...] | None = None,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Table 5: testing-environment effectiveness grid."""
    chip_objs = [
        get_chip(c)
        for c in (chips or tuple(c.short_name for c in all_chips()))
    ]
    env_names = list(environments or ENVIRONMENT_ORDER)
    cells = run_campaign(
        chip_objs, environments=env_names, scale=scale, seed=seed,
        parallel=parallel, ledger=ledger, submit=submit,
    )
    table = table5_summary(cells)
    rows = []
    for chip in chip_objs:
        row: dict[str, object] = {"chip": chip.short_name}
        for env in env_names:
            cell = table.get((chip.short_name, env))
            row[env] = str(cell) if cell else "-"
        rows.append(row)
    return render_table(
        rows,
        title=(
            "Table 5: effective/observed application counts per "
            "environment"
        ),
    )


def table6(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chip: str = "Titan",
    apps: tuple[str, ...] | None = None,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
) -> str:
    """Table 6: empirical fence insertion results."""
    from ..apps.registry import fence_free_applications, get_application

    targets = (
        [get_application(a) for a in apps]
        if apps
        else fence_free_applications()
    )
    rows = []
    for app in targets:
        result = empirical_fence_insertion(
            app, get_chip(chip), scale=scale, seed=seed,
            parallel=parallel, ledger=ledger,
        )
        row = result.table6_row()
        row["reduced fences"] = ", ".join(sorted(result.reduced))
        rows.append(row)
    return render_table(
        rows, title=f"Table 6: empirical fence insertion on {chip}"
    )


def figure5(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] | None = None,
    ledger: RunLedger | None = None,
) -> str:
    """Figure 5: fence cost scatter data and overhead summary.

    Cost measurement (Sec. 6) repeats runs until enough *passing*
    executions accumulate, a sequentially dependent loop, so it takes
    no ``parallel`` configuration and runs serially.
    """
    chip_objs = [
        get_chip(c)
        for c in (chips or tuple(c.short_name for c in all_chips()))
    ]
    apps = [a for a in all_applications() if not a.name.endswith("-nf")]
    points = figure5_points(
        apps, chip_objs, runs=max(5, scale.campaign_runs // 4),
        seed=seed, ledger=ledger,
    )
    rows = []
    for p in points:
        rows.append(
            {
                "chip": p.chip,
                "app": p.app,
                "strategy": p.strategy.value,
                "no-fence ms": round(p.baseline_runtime_ms, 3),
                "fenced ms": round(p.fenced_runtime_ms, 3),
                "runtime +%": round(p.runtime_overhead_pct, 1),
                "no-fence J": (
                    round(p.baseline_energy_j, 3)
                    if p.baseline_energy_j is not None
                    else "-"
                ),
                "fenced J": (
                    round(p.fenced_energy_j, 3)
                    if p.fenced_energy_j is not None
                    else "-"
                ),
            }
        )
    out = [render_table(rows, title="Figure 5: cost of fences (points)")]
    summary_rows = [
        {"strategy": strategy, **{k: round(v, 1) for k, v in s.items()}}
        for strategy, s in overhead_summary(points).items()
    ]
    out.append(render_table(summary_rows, title="Overhead summary"))
    return "\n".join(out)


def survey(
    scale: Scale = DEFAULT,
    seed: int = 0,
    chips: tuple[str, ...] = ("K20", "Titan", "980"),
    tests: tuple[str, ...] | None = None,
    backend: str | None = None,
    parallel: ParallelConfig | None = None,
    ledger: RunLedger | None = None,
    submit=None,
) -> str:
    """Extended litmus survey: the full test family across chips.

    Goes beyond the paper's MP/LB/SB triple: for every registered test
    (fenced variants, coherence tests, 3/4-thread idioms) and every
    selected chip, runs the chosen backend natively and under the
    chip's tuned ``sys-str`` stressing at distance ``2 x patch size``.
    Fenced variants should show strictly lower tuned rates than their
    unfenced bases; coherence tests should stay silent everywhere.

    ``backend`` picks the litmus runner (``direct``, ``engine`` or
    ``vector``); ``None`` defers to ``scale.litmus_backend``.  Ledger
    keys carry the backend, so surveys on different backends never
    satisfy each other's resume.

    The survey fans out as one litmus work unit per (test, chip,
    stressing) cell — across local pool workers under ``parallel``,
    across machines under a distributed ``submit`` — with identical
    tables either way (each cell runs at the experiment seed
    regardless of placement).
    """
    selected = (
        [get_test(name) for name in tests] if tests else list(ALL_TESTS)
    )
    if backend is None:
        backend = scale.litmus_backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown litmus backend {backend!r}; "
            f"choose from {', '.join(BACKENDS)}"
        )
    executions = max(20, scale.executions)
    chip_objs = [get_chip(c) for c in chips]
    config = parallel or SERIAL
    units = []
    for test in selected:
        for chip in chip_objs:
            distance = 2 * chip.patch_size
            for spec in (
                NoStress(),
                TunedStress(shipped_params(chip.short_name)),
            ):
                units.append(
                    litmus_unit(
                        key=litmus_key(
                            chip.short_name, test.name, stress_token(spec),
                            distance, executions, seed, backend=backend,
                        ),
                        chip=chip.short_name,
                        test=test.name,
                        distance=distance,
                        stress_spec=spec,
                        executions=executions,
                        seed=seed,
                        backend=backend,
                    )
                )
    results = [
        store_records.decode_litmus(record)
        for record in submit_units(units, config, ledger, submit)
    ]
    rows = []
    cursor = iter(results)
    for test in selected:
        row: dict[str, object] = {
            "test": test.name,
            "threads": test.n_threads,
        }
        for chip in chip_objs:
            native = next(cursor)
            tuned = next(cursor)
            row[f"{chip.short_name} no-str"] = native.weak
            row[f"{chip.short_name} sys-str"] = tuned.weak
        rows.append(row)
    return render_table(
        rows,
        title=(
            "Litmus survey: weak outcomes per test "
            f"(out of {executions} executions, d = 2 x patch size, "
            f"{backend} backend)"
        ),
    )


EXPERIMENTS = {
    "table1": table1,
    "survey": survey,
    "fig3": figure3,
    "table2": table2,
    "table3": table3,
    "fig4": figure4,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "fig5": figure5,
}


def experiment_params(name: str) -> frozenset[str]:
    """The keyword parameters experiment ``name`` declares.

    They say what the experiment accepts, so no list elsewhere has to:
    the run arguments it uses (``scale``, ``seed``, ``parallel``,
    ``ledger``, ``submit``) and the filters it takes (``chip`` or
    ``chips``, ``environments``, ``tests``, ``backend``, ``apps``).
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return frozenset(inspect.signature(fn).parameters)


#: Experiments that take a ``submit`` backend: their work fans out as
#: location-independent units and so can be served to distributed
#: workers (``--dist`` / ``coordinate``).  The rest are static renders
#: or sequentially dependent loops (fence insertion, cost measurement).
DISTRIBUTABLE = {
    name for name in EXPERIMENTS if "submit" in experiment_params(name)
}


def open_ledger(
    out: str | None = None, resume: str | None = None
) -> RunLedger | None:
    """Resolve the ``--out`` / ``--resume`` pair to a ledger (or None).

    ``resume`` opens an existing ledger (an error when absent, so typos
    never silently start a cold run); ``out`` opens or creates one.
    Passing both is allowed when they name the same directory.
    """
    if out is not None and resume is not None and (
        os.path.abspath(out) != os.path.abspath(resume)
    ):
        raise LedgerError(
            f"--out {out!r} and --resume {resume!r} name different "
            "directories; a run reads and writes one ledger"
        )
    if resume is not None:
        return RunLedger.open(resume)
    if out is not None:
        return RunLedger.open_or_create(out)
    return None


def run_experiment(
    name: str,
    scale: str | Scale = "smoke",
    seed: int = 0,
    jobs: int | None = None,
    out: str | None = None,
    resume: str | None = None,
    submit=None,
    **kwargs,
) -> str:
    """Regenerate one paper artefact by id (see ``EXPERIMENTS``).

    ``kwargs`` are the experiment's own filters.  The run arguments
    below reach only an experiment that declares them (see
    :func:`experiment_params`), so a static render such as ``table1``
    accepts and ignores them.

    ``jobs`` shards the experiment's run loops over worker processes
    (``0`` = one per CPU); the regenerated artefact is identical at any
    job count.  ``None`` runs serially.

    ``out`` / ``resume`` attach a run ledger (see :mod:`repro.store`):
    completed results persist as they stream in, already-ledgered keys
    are never re-simulated, and a complete ledger regenerates the
    artefact without a single simulation run — interrupted campaigns
    resume bit-identically.

    ``submit`` serves the experiment's work units through another
    backend, such as ``DistributedSubmit(workers=2)`` (see
    :mod:`repro.dist`), which spawns two local socket workers, or one
    that awaits remote workers.  Only ``DISTRIBUTABLE`` experiments
    take it; the artefact is byte-identical to a local run.
    """
    if isinstance(scale, str):
        scale = get_scale(scale)
    params = experiment_params(name)
    if submit is not None and "submit" not in params:
        raise ValueError(
            f"experiment {name!r} cannot run distributed; "
            f"distributable: {', '.join(sorted(DISTRIBUTABLE))}"
        )
    run_args = {
        "scale": scale,
        "seed": seed,
        "parallel": None if jobs is None else ParallelConfig(jobs=jobs),
        "ledger": open_ledger(out, resume),
        "submit": submit,
    }
    return EXPERIMENTS[name](
        **{k: v for k, v in run_args.items() if k in params}, **kwargs
    )
