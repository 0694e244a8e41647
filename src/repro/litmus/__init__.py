"""Litmus tests, their IR and the three execution backends.

The paper tunes its memory stress against the three classic weak-memory
litmus tests — message passing (MP), load buffering (LB) and store
buffering (SB) — configured with the communication locations in global
memory and the communicating threads in distinct blocks (Sec. 2, 3.1).
This package generalises that triple into a declarative IR
(:mod:`repro.litmus.ir`): N-thread programs of ``st``/``ld``/``fence``/
``rmw`` instructions with a declarative forbidden outcome, a registry of
fenced variants, coherence tests and 3/4-thread idioms
(:mod:`repro.litmus.tests`), a fast direct runner
(:mod:`repro.litmus.runner`), a compiled SIMT-engine backend
(:mod:`repro.litmus.compile`), a vectorized mega-batch backend
(:mod:`repro.litmus.vector`) and a brute-force SC oracle
(:mod:`repro.litmus.sc`).
"""

from .ir import (
    And,
    LocEq,
    Or,
    RegEq,
    evaluate,
    fence,
    format_condition,
    ld,
    rmw,
    st,
)
from .tests import (
    ALL_TESTS,
    FENCED_VARIANTS,
    LB,
    MP,
    SB,
    TUNING_TESTS,
    LitmusTest,
    get_test,
    test_names,
)
from .runner import LitmusInstance, run_litmus
from .compile import (
    CompiledLitmus,
    ParityReport,
    backend_parity,
    compile_test,
    run_litmus_compiled,
)
from .vector import run_litmus_vector
from .sc import forbidden_sc_reachable, sc_outcomes
from .results import LitmusResult, Tally

#: Runner dispatch: every litmus backend, keyed by its CLI/ledger name.
#: All three share one signature (chip, test, distance, stress_spec,
#: executions, *, seed, randomise, parallel, outcomes) and tag their
#: results with ``LitmusResult.backend`` so ledger keys never collide
#: across backends.  ``outcomes=True`` makes the result carry every
#: round's final state as well (the soundness gate's input).
BACKENDS = {
    "direct": run_litmus,
    "engine": run_litmus_compiled,
    "vector": run_litmus_vector,
}

__all__ = [
    "MP",
    "LB",
    "SB",
    "ALL_TESTS",
    "TUNING_TESTS",
    "FENCED_VARIANTS",
    "LitmusTest",
    "get_test",
    "test_names",
    "And",
    "Or",
    "RegEq",
    "LocEq",
    "evaluate",
    "format_condition",
    "st",
    "ld",
    "fence",
    "rmw",
    "LitmusInstance",
    "run_litmus",
    "CompiledLitmus",
    "compile_test",
    "run_litmus_compiled",
    "run_litmus_vector",
    "BACKENDS",
    "ParityReport",
    "backend_parity",
    "forbidden_sc_reachable",
    "sc_outcomes",
    "LitmusResult",
    "Tally",
]
