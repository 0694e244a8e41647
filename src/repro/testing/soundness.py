"""Simulator-soundness gate: the backends against the axiomatic model.

The axiomatic oracle (:mod:`repro.axiom`) declares which final states a
litmus test *can* have; the three execution backends (direct, engine,
vector) sample final states from the simulated memory system.  The gate
connects the two: it runs every test on every backend at fixed seeds,
collects *every* observed final state (not just forbidden-condition
hits: each backend's own run loop, with ``outcomes=True``), and checks
the invariants that make the empirical reproduction trustworthy:

* **soundness** — no backend ever produces an axiomatically forbidden
  state;
* **condition verdicts** — every registry test's forbidden predicate is
  either a genuine relaxed-memory observable (weak-allowed ∧
  SC-unreachable) or a deliberate negative check (forbidden outright:
  the fully-fenced and coherence tests, which the family tests assert
  stay silent on every backend);
* **SC cross-check** — the model's full-fence fragment equals the
  brute-force SC enumerator, and the SC reference chip only ever
  produces SC-allowed states;
* **non-vacuity** — rounds completed (the direct backend's tick budget
  never clipped an observation).

A violation of any invariant at the pinned seeds is a real bug in
either the simulator or the model — the gate fails CI rather than
explaining it away.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..axiom.model import VERDICT_FORBIDDEN, VERDICT_SC, classify
from ..chips import SC_REFERENCE, get_chip
from ..litmus import BACKENDS
from ..litmus.tests import ALL_TESTS
from ..stress.strategies import TunedStress
from ..tuning.pipeline import shipped_params

#: Registry tests whose forbidden predicate is a genuine weak-memory
#: observable (weak-allowed, SC-unreachable) …
WEAK_CONDITION_TESTS = (
    "MP", "LB", "SB", "MP-F0", "MP-F1", "R", "S", "2+2W",
    "WRC", "IRIW", "3.LB",
)
#: … and the negative checks whose predicate no allowed execution can
#: satisfy (the family tests assert these stay silent everywhere).
FORBIDDEN_CONDITION_TESTS = ("MP-FF", "LB-FF", "SB-FF", "CoRR", "CoWW")

#: Fixed-seed gate defaults: enough executions for the weak tests to
#: actually fire on the vector backend, cheap enough for tier-1.
DEFAULT_EXECUTIONS = {"direct": 40, "engine": 8, "vector": 2048}


@dataclass(frozen=True)
class BackendCheck:
    """One (test, backend) cell of the gate."""

    test: str
    backend: str
    chip: str
    distinct: int          # distinct final states observed
    rounds: int            # rounds observed in total
    weak: int              # executions with a forbidden-condition round
    incomplete: int
    forbidden: tuple       # observed states the model forbids

    @property
    def ok(self) -> bool:
        return not self.forbidden and self.incomplete == 0


@dataclass(frozen=True)
class GateReport:
    """Everything the soundness gate checked, with verdicts."""

    chip: str
    seed: int
    checks: tuple
    condition_verdicts: tuple   # (test name, verdict, expected, sc_agrees)
    sc_reference: tuple         # (test name, non-SC states observed)

    @property
    def violations(self) -> tuple:
        out = []
        for check in self.checks:
            for state in check.forbidden:
                out.append(
                    f"{check.test}/{check.backend}: forbidden state "
                    f"{state}"
                )
            if check.incomplete:
                out.append(
                    f"{check.test}/{check.backend}: {check.incomplete} "
                    f"incomplete rounds dropped"
                )
        for name, verdict, expected, sc_agrees in self.condition_verdicts:
            if verdict != expected:
                out.append(
                    f"{name}: condition verdict {verdict!r}, "
                    f"expected {expected!r}"
                )
            if not sc_agrees:
                out.append(
                    f"{name}: full-fence model disagrees with the SC "
                    f"enumerator"
                )
        for name, bad in self.sc_reference:
            if bad:
                out.append(
                    f"{name}: SC reference chip produced non-SC states "
                    f"{bad}"
                )
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.violations


def _expected_verdict(name: str) -> str:
    if name in FORBIDDEN_CONDITION_TESTS:
        return VERDICT_FORBIDDEN
    return "weak"


def soundness_gate(
    tests=ALL_TESTS,
    chip: str = "K20",
    backends=("direct", "engine", "vector"),
    seed: int = 7,
    executions: dict | None = None,
    check_sc_reference: bool = True,
) -> GateReport:
    """Run the full gate and return the report (see module docstring).

    ``executions`` overrides :data:`DEFAULT_EXECUTIONS` per backend.
    Distances follow the family tests' convention (two cache patches
    apart); stress is the chip's shipped tuned configuration.
    """
    profile = get_chip(chip)
    stress = TunedStress(shipped_params(profile.short_name))
    budget = dict(DEFAULT_EXECUTIONS)
    budget.update(executions or {})
    distance = 2 * profile.patch_size

    checks = []
    verdicts = []
    sc_ref = []
    for test in tests:
        report = classify(test)
        verdicts.append((
            test.name,
            report.condition,
            _expected_verdict(test.name),
            report.sc_agrees,
        ))
        for backend in backends:
            result = BACKENDS[backend](
                profile, test, distance, stress, budget[backend],
                seed=seed, outcomes=True,
            )
            bad = tuple(sorted(
                state for state in result.outcomes
                if report.verdict_of(dict(state[0]), dict(state[1]))
                == VERDICT_FORBIDDEN
            ))
            checks.append(BackendCheck(
                test=test.name,
                backend=backend,
                chip=profile.short_name,
                distinct=len(result.outcomes),
                rounds=sum(result.outcomes.values()) + result.incomplete,
                weak=result.weak,
                incomplete=result.incomplete,
                forbidden=bad,
            ))
        if check_sc_reference:
            ref_stress = TunedStress(
                shipped_params(SC_REFERENCE.short_name)
            )
            result = BACKENDS["direct"](
                SC_REFERENCE, test, 2 * SC_REFERENCE.patch_size,
                ref_stress, budget["direct"], seed=seed, outcomes=True,
            )
            non_sc = tuple(sorted(
                state for state in result.outcomes
                if report.verdict_of(dict(state[0]), dict(state[1]))
                != VERDICT_SC
            ))
            sc_ref.append((test.name, non_sc))

    return GateReport(
        chip=profile.short_name,
        seed=seed,
        checks=tuple(checks),
        condition_verdicts=tuple(verdicts),
        sc_reference=tuple(sc_ref),
    )
