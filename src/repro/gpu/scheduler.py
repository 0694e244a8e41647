"""Warp scheduler.

Each engine tick the scheduler picks one schedulable unit: a real warp, or
a *stress placeholder* standing in for a warp of stressing threads.
Placeholders do no work when picked — their effect on the application is
the scheduling dilution real stressing blocks cause (their memory traffic
is modelled separately by the pressure field).

Under thread randomisation the scheduler samples warps non-uniformly from
weights that are re-drawn periodically, creating bursts in which some
warps lag far behind others.  This widens race windows — the modelled
effect of the paper's thread-id randomisation heuristic, which changes
which warps co-reside and progress together.

Hot-path notes (see docs/ARCHITECTURE.md "Hot path & determinism"):

* The weighted pick reproduces ``Generator.choice(n, p=weights)`` from
  its primitive draw: numpy's scalar choice-with-p consumes exactly one
  ``next_double`` and returns ``cdf.searchsorted(roll, side="right")``
  with ``cdf = p.cumsum(); cdf /= cdf[-1]`` (pinned by
  ``tests/test_rng.py``).  Doing that search here — against a cdf cached
  per weight redraw — consumes the identical stream, so the pick
  sequence is bit-for-bit unchanged while a threaded-through
  :class:`~repro.rng.BufferedRNG` keeps serving scalar draws from its
  pre-draw block instead of syncing for a delegated ``choice``.
* The non-runnable fallback no longer rebuilds ``[w for w in warps if
  w.n_active]`` per pick: the engine reports every warp runnability
  transition (thread finished, parked at or released from a barrier)
  and the scheduler maintains the runnable list incrementally, in warp
  order, so the fallback ``integers(len(runnable))`` draw and its
  indexing are unchanged.
* ``repro/gpu/engine.c`` reimplements the pick, the runnable list and
  the weight redraw (``dirichlet`` on the same generator, then the same
  cumsum and division) for the native engine core; a change here
  changes it too (``tests/test_engine_core.py`` holds them equal).
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter

import numpy as np

from ..rng import BufferedRNG
from .warp import Warp

#: Ticks between weight re-draws under randomisation.
_RESHUFFLE_PERIOD = 64

_BY_INDEX = attrgetter("index")


class WarpScheduler:
    """Randomised warp picker over real warps plus stress placeholders."""

    __slots__ = (
        "warps",
        "n_stress_units",
        "rng",
        "randomise",
        "_n_units",
        "_cdf",
        "_ticks_since_shuffle",
        "_runnable",
    )

    def __init__(
        self,
        warps: list[Warp],
        n_stress_units: int,
        rng: np.random.Generator | BufferedRNG,
        randomise: bool = False,
    ):
        self.warps = warps
        self.n_stress_units = max(0, n_stress_units)
        self.rng = rng
        self.randomise = randomise
        self._n_units = len(warps) + self.n_stress_units
        self._cdf: np.ndarray | None = None
        self._ticks_since_shuffle = 0
        # Runnable warps in grid order (all warps start with at least
        # one active thread).  The engine calls note_unrunnable /
        # note_runnable on the exact transitions, so membership always
        # equals ``[w for w in self.warps if w.n_active]``.
        self._runnable = list(warps)
        if randomise:
            self._redraw_weights()

    def _redraw_weights(self) -> None:
        raw = self.rng.dirichlet(np.full(self._n_units, 0.5))
        cdf = raw.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._ticks_since_shuffle = 0

    # ------------------------------------------------------------------
    # runnability transitions (driven by the engine)
    # ------------------------------------------------------------------
    def note_unrunnable(self, warp: Warp) -> None:
        """A warp's last active thread finished or parked at a barrier."""
        self._runnable.remove(warp)

    def note_runnable(self, warp: Warp) -> None:
        """A barrier release re-activated a warp with no active threads."""
        insort(self._runnable, warp, key=_BY_INDEX)

    # ------------------------------------------------------------------
    def pick(self) -> Warp | None:
        """Pick the unit to advance this tick; None = stress placeholder."""
        if self._n_units == 0:
            return None
        rng = self.rng
        if self.randomise:
            self._ticks_since_shuffle += 1
            if self._ticks_since_shuffle >= _RESHUFFLE_PERIOD:
                self._redraw_weights()
            # One next_double + cdf search == Generator.choice(n, p=w)
            # (see module docstring); same draw, no delegation.
            idx = int(self._cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(self._n_units))
        warps = self.warps
        if idx >= len(warps):
            return None
        warp = warps[idx]
        if not warp.n_active:
            # Fall back to any runnable warp so ticks are not wasted on
            # finished warps (keeps runtimes comparable across runs).
            runnable = self._runnable
            if not runnable:
                return None
            warp = runnable[int(rng.integers(len(runnable)))]
        return warp
