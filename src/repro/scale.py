"""Experiment scale presets.

The paper ran roughly half a billion micro-benchmark executions and
one-hour-per-combination application campaigns on physical GPUs.  A pure
Python simulator cannot (and does not need to) match those sample sizes:
all the statistics the paper reports (weak-behaviour counts, the >5%
effectiveness threshold, Pareto fronts over litmus idioms) stabilise at far
smaller samples on the simulator.  This module centralises the knobs so
every harness can be run at ``smoke`` (CI), ``default`` (interactive) or
``paper`` (full grid) scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReproError


@dataclass(frozen=True)
class Scale:
    """Sample-size knobs for the experiment harness.

    Attributes mirror the paper's notation:

    * ``max_distance`` — ``D``, distances between communication locations.
    * ``distance_step`` — stride through ``[0, D)`` (paper uses 1).
    * ``max_location`` — ``L``, scratchpad locations considered.
    * ``location_step`` — stride through ``[0, L)`` (paper uses 1).
    * ``executions`` — ``C``, executions per test instance.
    * ``max_sequence_length`` — ``N``, maximum access-sequence length.
    * ``max_spread`` — ``M``, maximum number of stressed regions.
    * ``campaign_runs`` — executions per (chip, app, environment) cell,
      standing in for the paper's one-hour wall-clock budget.
    * ``stability_runs`` — executions for an ``EmpiricallyStable`` check.
    * ``litmus_backend`` — which litmus runner the survey-style
      experiments use (``direct``, ``engine`` or ``vector``).  The
      vector backend trades draw-identical scalar semantics for
      mega-batch throughput; its results are validated statistically
      (see :mod:`repro.litmus.vector`).
    """

    name: str
    max_distance: int
    distance_step: int
    max_location: int
    location_step: int
    executions: int
    max_sequence_length: int
    max_spread: int
    campaign_runs: int
    stability_runs: int
    # Sequence scoring (Sec. 3.3) and spread finding (Sec. 3.4) sweep
    # distances more coarsely than patch finding; these knobs control
    # their sub-grids.
    seq_distance_step: int = 64
    seq_executions: int = 32
    spread_distance_step: int = 64
    spread_executions: int = 48
    litmus_backend: str = "direct"

    def __post_init__(self) -> None:
        if self.litmus_backend not in ("direct", "engine", "vector"):
            raise ReproError(
                f"unknown litmus backend {self.litmus_backend!r}; "
                "choose from direct, engine, vector"
            )


SMOKE = Scale(
    name="smoke",
    max_distance=160,
    distance_step=32,
    max_location=160,
    location_step=16,
    executions=40,
    max_sequence_length=4,
    max_spread=8,
    campaign_runs=24,
    stability_runs=40,
    seq_distance_step=96,
    seq_executions=16,
    spread_distance_step=96,
    spread_executions=24,
)

DEFAULT = Scale(
    name="default",
    max_distance=256,
    distance_step=16,
    max_location=256,
    location_step=8,
    executions=64,
    max_sequence_length=5,
    max_spread=16,
    campaign_runs=40,
    stability_runs=80,
    seq_distance_step=64,
    seq_executions=32,
    spread_distance_step=64,
    spread_executions=48,
)

PAPER = Scale(
    name="paper",
    max_distance=256,
    distance_step=1,
    max_location=256,
    location_step=1,
    executions=1000,
    max_sequence_length=5,
    max_spread=64,
    campaign_runs=400,
    stability_runs=1000,
    seq_distance_step=1,
    seq_executions=1000,
    spread_distance_step=1,
    spread_executions=1000,
)

_PRESETS = {s.name: s for s in (SMOKE, DEFAULT, PAPER)}


def get_scale(name: str) -> Scale:
    """Look up a scale preset by name (``smoke``, ``default``, ``paper``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ReproError(
            f"unknown scale {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
