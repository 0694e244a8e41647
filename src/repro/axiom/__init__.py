"""Axiomatic weak-memory oracle and litmus-test synthesis.

The execution backends (:mod:`repro.litmus.runner`,
:mod:`repro.litmus.compile`, :mod:`repro.litmus.vector`) *sample* weak
behaviours from a simulated memory system; this package instead
*declares* which behaviours exist.  :mod:`repro.axiom.model` is a
herd-style static analysis over litmus IR programs: it enumerates
candidate executions symbolically (reads-from ``rf``, coherence ``co``,
derived from-reads ``fr``, program order ``po`` and fence-induced
order), applies a small declarative axiom set, and classifies every
final state of a test as SC-allowed, weak-allowed or forbidden — with a
witness execution for every allowed state.

Three consumers sit on top:

* the simulator-soundness gate (:mod:`repro.testing.soundness`), which
  asserts that no backend ever produces an axiomatically forbidden
  outcome at fixed seeds;
* bounded litmus-test synthesis (:mod:`repro.axiom.synth`), which
  enumerates two/three-thread programs over ``st``/``ld``/``rmw``/
  ``fence``, deduplicates them by symmetry canonicalisation
  (:mod:`repro.axiom.canon`) and keeps exactly the programs with a
  weak-allowed, SC-unreachable outcome;
* the ``gpu-wmm axiom`` / ``gpu-wmm synth`` CLI subcommands
  (rendered by :mod:`repro.reporting.axiom`).
"""

from .model import (
    FENCE_MODES,
    VERDICT_FORBIDDEN,
    VERDICT_SC,
    VERDICT_WEAK,
    AxiomReport,
    OutcomeVerdict,
    Witness,
    axiom_outcomes,
    classify,
    condition_verdict,
)
from .canon import canonical_key, canonical_program_key, canonicalize
from .synth import SynthConfig, SynthReport, Synthesized, synthesize

__all__ = [
    "FENCE_MODES",
    "VERDICT_SC",
    "VERDICT_WEAK",
    "VERDICT_FORBIDDEN",
    "Witness",
    "OutcomeVerdict",
    "AxiomReport",
    "axiom_outcomes",
    "classify",
    "condition_verdict",
    "canonicalize",
    "canonical_key",
    "canonical_program_key",
    "SynthConfig",
    "SynthReport",
    "Synthesized",
    "synthesize",
]
