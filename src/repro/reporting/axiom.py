"""Rendering for the axiomatic oracle and the synthesis pass.

``gpu-wmm axiom <test>`` prints the verdict table — every conceivable
final state classified SC / weak / forbidden, with a witness execution
per allowed state — and ``gpu-wmm synth`` prints the synthesized tests
with ready-to-register IR, the backend soundness check and an optional
cross-chip survey.
"""

from __future__ import annotations

from ..axiom.model import (
    VERDICT_FORBIDDEN,
    VERDICT_SC,
    VERDICT_WEAK,
    AxiomReport,
    classify,
)
from ..axiom.synth import SynthReport
from ..litmus.ir import format_condition
from ..litmus.tests import LitmusTest
from ..litmus.runner import run_litmus
from ..stress.strategies import TunedStress
from ..tuning.pipeline import shipped_params
from .tables import render_table

_VERDICT_LABEL = {
    VERDICT_SC: "SC",
    VERDICT_WEAK: "WEAK",
    VERDICT_FORBIDDEN: "FORBIDDEN",
}

_CONDITION_GLOSS = {
    VERDICT_WEAK: (
        "a genuine relaxed-memory observable (weak-allowed, "
        "SC-unreachable)"
    ),
    VERDICT_FORBIDDEN: (
        "a negative check: no allowed execution satisfies it, every "
        "backend must stay silent"
    ),
    "sc-reachable": (
        "VACUOUS: already reachable under SC — not a weak-memory test"
    ),
}


def render_axiom_report(report: AxiomReport) -> str:
    """The verdict table for one test, with witnesses and the
    condition verdict."""
    test = report.test
    rows = []
    for outcome in report.outcomes:
        rows.append({
            "state": outcome.format_state(),
            "verdict": _VERDICT_LABEL[outcome.verdict],
            "witness": outcome.witness.format() if outcome.witness else "-",
        })
    lines = [
        f"{test.name}: {test.description}",
        f"  {test.pretty()}",
        "",
        render_table(
            rows,
            columns=("state", "verdict", "witness"),
            title=f"candidate final states ({len(rows)})",
        ),
        "",
        f"forbidden condition {format_condition(test.forbidden)}: "
        f"{_CONDITION_GLOSS[report.condition]}",
        "SC cross-check (full-fence model == brute-force enumerator): "
        + ("agree" if report.sc_agrees else "DISAGREE"),
    ]
    return "\n".join(lines)


def render_axiom_summary(tests) -> str:
    """One row per test: state counts per verdict and the condition
    verdict (the ``gpu-wmm axiom --all`` view)."""
    rows = []
    for test in tests:
        report = classify(test)
        sc = len(report.sc_states)
        weak_only = len(report.weak_states) - sc
        forbidden = len(report.forbidden_states)
        rows.append({
            "test": test.name,
            "sc": sc,
            "weak-only": weak_only,
            "forbidden": forbidden,
            "condition": report.condition,
            "sc-check": "agree" if report.sc_agrees else "DISAGREE",
        })
    return render_table(
        rows,
        columns=(
            "test", "sc", "weak-only", "forbidden", "condition", "sc-check"
        ),
        title="axiomatic verdicts (registry)",
    )


def emit_ir(test: LitmusTest) -> str:
    """Render a synthesized test as ready-to-register Python IR."""
    op_fmt = {
        "st": lambda ins: f"st({ins[1]!r}, {ins[2]})",
        "ld": lambda ins: f"ld({ins[1]!r}, {ins[2]!r})",
        "rmw": lambda ins: f"rmw({ins[1]!r}, {ins[2]!r}, {ins[3]})",
        "fence": lambda ins: "fence()",
    }

    def cond_src(cond) -> str:
        name = type(cond).__name__
        if name == "RegEq":
            return f"RegEq({cond.reg!r}, {cond.value})"
        if name == "LocEq":
            return f"LocEq({cond.loc!r}, {cond.value})"
        terms = ", ".join(cond_src(t) for t in cond.terms)
        return f"{name}({terms})"

    lines = [
        "LitmusTest(",
        f"    name={test.name!r},",
        f"    description={test.description!r},",
        "    threads=(",
    ]
    for program in test.threads:
        body = ", ".join(op_fmt[ins[0]](ins) for ins in program)
        lines.append(f"        ({body}),")
    lines += [
        "    ),",
        f"    forbidden={cond_src(test.forbidden)},",
        ")",
    ]
    return "\n".join(lines)


def synth_survey(tests, chips, executions: int, seed: int = 7) -> str:
    """Differential cross-chip survey of synthesized tests: weak rounds
    per chip on the direct backend at tuned stress."""
    rows = []
    for test in tests:
        row: dict = {"test": test.name}
        for chip in chips:
            spec = TunedStress(shipped_params(chip.short_name))
            result = run_litmus(
                chip, test, 2 * chip.patch_size, spec, executions,
                seed=seed,
            )
            row[chip.short_name] = f"{result.weak}/{executions}"
        rows.append(row)
    return render_table(
        rows,
        title=(
            f"cross-chip survey (weak executions / {executions}, "
            f"direct backend, tuned stress, seed {seed})"
        ),
    )


def render_synth_report(report: SynthReport, show_ir: bool = True) -> str:
    """Enumeration statistics plus each emitted test (novel tests with
    their ready-to-register IR)."""
    cfg = report.config
    lines = [
        f"synthesis bounds: {cfg.threads} threads, <= {cfg.max_ops} memory "
        f"ops/thread, {cfg.locations} locations, values 1..{cfg.values}, "
        f"rmw {'on' if cfg.rmw else 'off'}, "
        f"fences {'on' if cfg.fences else 'off'}",
        f"programs enumerated: {report.programs_enumerated}",
        f"  after communication pruning: {report.programs_pruned}",
        f"  after symmetry dedup: {report.programs_deduped}",
        f"  with a weak-allowed, SC-unreachable outcome: "
        f"{report.distinguishing}",
        f"emitted tests: {len(report.tests)}",
        f"novel tests: {len(report.novel)} "
        f"(not symmetry-equivalent to any registry test)",
        "",
    ]
    rows = [
        {
            "name": s.test.name,
            "program": s.test.pretty(),
            "registry": s.matches or "NOVEL",
        }
        for s in report.tests
    ]
    lines.append(render_table(
        rows, columns=("name", "program", "registry"),
        title="synthesized tests",
    ))
    if show_ir and report.novel:
        lines += ["", "ready-to-register IR (novel tests):"]
        for s in report.novel:
            lines += ["", emit_ir(s.test)]
    return "\n".join(lines)
