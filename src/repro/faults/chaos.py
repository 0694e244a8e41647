"""The chaos harness: run a real experiment under a fault plan and
prove the output unharmed.

:func:`run_chaos` is the executable failure-model contract (CLI:
``gpu-wmm chaos``).  It renders the experiment serially (fault-free
reference), then re-runs it distributed with the plan armed on both
sides of the wire — the coordinator in-process, every spawned worker
via ``--faults`` — and drives the full hardening loop end to end:

* poison units exhaust their attempt budgets, are quarantined by the
  coordinator, and are *repaired* by :class:`ChaosSubmit` — re-executed
  serially with injection suppressed — so the experiment still renders;
* an injected coordinator restart severs every worker mid-campaign;
  workers ride it out with backoff-and-reconnect;
* injected ledger corruption is detected by
  :func:`~repro.store.ledger.verify_ledger`, repaired by
  :func:`~repro.store.ledger.salvage_ledger`, and the destroyed
  records are re-run through a resumed render.

The verdict is byte equality: the chaos render, and the post-salvage
resumed render, must equal the serial reference exactly.  Determinism
is part of the contract — the same plan and seed produce the same
injection trace (every firing logs its site and draw index), so a
chaos failure reproduces like any other bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..errors import QuarantineError, ReproError
from ..parallel.plan import WorkUnit, execute_unit
from .plan import FaultPlan
from .runtime import install, suppress_faults, uninstall


@dataclass
class ChaosSubmit:
    """A submit backend that survives quarantine.

    Wraps any distributable backend (normally a
    :class:`~repro.dist.DistributedSubmit`).  When the coordinator
    finishes with units parked in quarantine, the healthy records are
    kept and each quarantined unit is re-executed serially in this
    process with fault injection suppressed — proving the unit itself
    was sound and only the injected faults poisoned it — so the
    experiment completes with full coverage.  Every repair is recorded
    on ``quarantined`` (content key -> coordinator's reason) for the
    chaos report.
    """

    inner: Callable
    log: Callable[[str], None] = lambda message: None
    quarantined: dict = field(default_factory=dict)

    def __call__(
        self,
        units: Sequence[WorkUnit],
        config,
        on_record: Callable | None,
    ) -> list:
        try:
            return self.inner(units, config, on_record)
        except QuarantineError as exc:
            self.quarantined.update(exc.quarantined)
            merged = {record.key: record for record in exc.records}
            results = [merged.get(unit.key) for unit in units]
            with suppress_faults():
                for index, unit in enumerate(units):
                    if results[index] is not None:
                        continue
                    self.log(
                        f"repairing quarantined unit {unit.key!r} "
                        "serially (faults suppressed)"
                    )
                    record = execute_unit(unit)
                    results[index] = record
                    if on_record is not None:
                        on_record(index, record)
            return results


@dataclass
class ChaosReport:
    """Everything :func:`run_chaos` learned, for rendering and tests."""

    experiment: str
    plan: FaultPlan
    serial_text: str
    chaos_text: str
    #: Render after ledger salvage + resume; equals ``chaos_text`` when
    #: no ledger was attached.
    final_text: str
    identical: bool
    quarantined: dict
    #: The coordinator-side injection trace (site/kind/token/draw).
    trace: list
    ledger_problems: list
    salvage: dict | None

    def summary(self) -> str:
        lines = [
            f"chaos run: experiment={self.experiment} "
            f"plan={self.plan.name!r} seed={self.plan.seed}",
            f"  coordinator-side faults fired: {len(self.trace)}",
            f"  units quarantined and repaired: {len(self.quarantined)}",
        ]
        # Keys only: a reason names workers by connection id, in
        # arrival order, which differs from run to run (the
        # coordinator's stderr log carries it).
        for key in sorted(self.quarantined):
            lines.append(f"    {key}")
        if self.ledger_problems:
            lines.append(
                f"  ledger problems detected: {len(self.ledger_problems)}"
            )
            if self.salvage is not None:
                lines.append(
                    "  salvage: "
                    f"{len(self.salvage['quarantined_segments'])} "
                    f"segment(s) quarantined, "
                    f"{self.salvage['recovered']} record(s) recovered"
                )
        lines.append(
            "  output vs fault-free serial reference: "
            + ("IDENTICAL" if self.identical else "DIFFERS")
        )
        return "\n".join(lines)


def run_chaos(
    experiment: str,
    plan: FaultPlan,
    scale: str = "smoke",
    seed: int = 0,
    workers: int = 2,
    out: str | None = None,
    lease_timeout: float = 15.0,
    reconnect_timeout: float = 30.0,
    max_attempts: int = 3,
    log: Callable[[str], None] | None = None,
    **experiment_kwargs,
) -> ChaosReport:
    """Run ``experiment`` distributed under ``plan``; assert the output
    survives (see module docstring).  ``out`` attaches a run ledger,
    which additionally exercises detect-salvage-resume when the plan
    injects ledger damage.  Returns a :class:`ChaosReport`; raises
    :class:`~repro.errors.ReproError` only on harness misuse (unknown
    experiment, non-distributable experiment, fewer than one worker:
    a chaos run spawns its own workers and never waits for external
    ones), never on injected faults — a divergent output is reported,
    not raised, so callers and CI can print the diff.
    """
    from ..dist import DistributedSubmit
    from ..reporting.experiments import DISTRIBUTABLE, run_experiment
    from ..store.ledger import salvage_ledger, verify_ledger

    log = log or (lambda message: None)
    if experiment not in DISTRIBUTABLE:
        raise ReproError(
            f"experiment {experiment!r} cannot run under chaos (not "
            f"distributable); choose from {', '.join(sorted(DISTRIBUTABLE))}"
        )
    if workers < 1:
        raise ReproError(f"chaos needs at least 1 worker, got {workers}")

    log(f"chaos: rendering fault-free serial reference for {experiment}")
    uninstall()
    serial_text = run_experiment(
        experiment, scale=scale, seed=seed, **experiment_kwargs
    )

    # The plan travels to workers as a file; materialise it next to the
    # ledger (or a scratch dir the caller owns via ``out``).
    if out is not None:
        plan_dir = Path(out)
        plan_dir.mkdir(parents=True, exist_ok=True)
    else:
        import tempfile

        plan_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    plan_path = plan_dir / f"fault-plan-{plan.name}.json"
    plan.dump(plan_path)

    injector = install(plan, role="coordinator", log=log)
    chaos = ChaosSubmit(
        inner=DistributedSubmit(
            workers=workers,
            lease_timeout=lease_timeout,
            max_attempts=max_attempts,
            fault_plan=str(plan_path),
            reconnect_timeout=reconnect_timeout,
            log=log,
        ),
        log=log,
    )
    log(
        f"chaos: running {experiment} with {workers} worker(s) under "
        f"plan {plan.name!r} (seed {plan.seed})"
    )
    try:
        chaos_text = run_experiment(
            experiment, scale=scale, seed=seed, out=out, submit=chaos,
            **experiment_kwargs,
        )
        trace = list(injector.trace)
    finally:
        uninstall()

    # Detect-salvage-resume over the ledger, with injection off: the
    # damage was done during the run; recovery is production code.
    ledger_problems: list = []
    salvage: dict | None = None
    final_text = chaos_text
    if out is not None:
        ledger_problems = verify_ledger(out)
        if ledger_problems:
            log(
                f"chaos: ledger verify found {len(ledger_problems)} "
                "problem(s); salvaging"
            )
            salvage = salvage_ledger(out, log=log)
            log("chaos: re-rendering from the salvaged ledger")
        final_text = run_experiment(
            experiment, scale=scale, seed=seed, resume=out,
            **experiment_kwargs,
        )

    identical = chaos_text == serial_text and final_text == serial_text
    return ChaosReport(
        experiment=experiment,
        plan=plan,
        serial_text=serial_text,
        chaos_text=chaos_text,
        final_text=final_text,
        identical=identical,
        quarantined=dict(chaos.quarantined),
        trace=trace,
        ledger_problems=ledger_problems,
        salvage=salvage,
    )
