"""Patch finding (paper Sec. 3.2, Fig. 3).

For each litmus test T, distance d and scratchpad location l, run C
executions of ⟨T_d, l⟩ — test ``T_d`` with memory stress applied at
scratchpad location ``l`` — and count weak behaviours.  A maximal
contiguous run of locations each yielding more than ε weak behaviours is
an ε-patch; the critical patch size is the patch size P on which MP, LB
and SB agree (the P with the most ε-patches per test).

The stressing threads execute the paper's patch-probe loop: store to and
then load from location ``l``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..chips.profile import HardwareProfile
from ..litmus import TUNING_TESTS, LitmusTest
from ..litmus.units import litmus_unit
from ..parallel import SERIAL, ParallelConfig
from ..rng import derive_seed
from ..scale import DEFAULT, Scale
from ..store import litmus_grid_counts, litmus_key
from ..stress.strategies import FixedLocationStress

#: The access sequence used while probing patches (paper: "the thread
#: stores to and then loads from location l").
PROBE_SEQUENCE = ("st", "ld")

#: Candidate patch sizes the estimator snaps to (word counts; real chips
#: use 128- or 256-byte lines).
PATCH_CANDIDATES = (16, 32, 64, 128)


@dataclass
class PatchScan:
    """Raw weak-behaviour counts of a patch-finding campaign.

    ``counts[(test, d, l)]`` is the number of weak behaviours observed in
    ``executions`` runs of ⟨T_d, l⟩.
    """

    chip: str
    executions: int
    distances: tuple[int, ...]
    locations: tuple[int, ...]
    counts: dict[tuple[str, int, int], int] = field(default_factory=dict)

    def row(self, test: str, distance: int) -> list[int]:
        """Counts over all locations for one (test, distance) — one bar
        plot of Fig. 3."""
        return [self.counts[(test, distance, l)] for l in self.locations]


def scan_patches(
    chip: HardwareProfile,
    scale: Scale = DEFAULT,
    seed: int = 0,
    tests: tuple[LitmusTest, ...] = TUNING_TESTS,
    parallel: ParallelConfig | None = None,
    ledger=None,
    submit: Callable | None = None,
) -> PatchScan:
    """Run the ⟨T_d, l⟩ grid for one chip.

    Grid points are independent (each derives its own seed from its
    coordinates), so the whole grid fans out as litmus work units —
    across worker processes under ``parallel``, across machines under a
    distributed ``submit`` — with statistics identical to a serial run.
    With ``ledger`` every finished point persists as a litmus record,
    so an interrupted scan resumes at the first missing point.
    """
    config = parallel or SERIAL
    distances = tuple(range(0, scale.max_distance, scale.distance_step))
    locations = tuple(range(0, scale.max_location, scale.location_step))
    scan = PatchScan(
        chip=chip.short_name,
        executions=scale.executions,
        distances=distances,
        locations=locations,
    )
    grid = [
        (test, d, l) for test in tests for d in distances for l in locations
    ]
    units = [
        litmus_unit(
            key=litmus_key(
                chip.short_name, test.name, f"patch.fix.l{l}.st-ld", d,
                scale.executions, seed,
            ),
            chip=chip.short_name,
            test=test.name,
            distance=d,
            stress_spec=FixedLocationStress((l,), PROBE_SEQUENCE),
            executions=scale.executions,
            seed=derive_seed(seed, "patch", test.name, d, l),
            record_seed=seed,
        )
        for test, d, l in grid
    ]
    counts = litmus_grid_counts(units, config, ledger, submit)
    for (test, d, l), weak in zip(grid, counts):
        scan.counts[(test.name, d, l)] = weak
    return scan


def find_patches(
    row: list[int], locations: tuple[int, ...], epsilon: float
) -> list[tuple[int, int]]:
    """ε-patches of one (test, distance) row.

    Returns ``(start_location, size_in_words)`` for each maximal run of
    sampled locations whose counts all exceed ``epsilon``.  With a
    sampling stride the size is the covered span (stride-quantised), as
    close as the grid allows to the paper's word-exact definition.
    """
    if len(row) != len(locations):
        raise ValueError("row and locations must have equal length")
    stride = locations[1] - locations[0] if len(locations) > 1 else 1
    # Bridge single sub-threshold samples inside a run: with coarse
    # location sampling one noisy dip would otherwise split a patch.
    above = [value > epsilon for value in row]
    for i in range(1, len(above) - 1):
        if not above[i] and above[i - 1] and above[i + 1]:
            above[i] = True
    patches = []
    start = None
    for hot, loc in zip(above, locations):
        if hot:
            if start is None:
                start = loc
        elif start is not None:
            patches.append((start, loc - start))
            start = None
    if start is not None:
        patches.append((start, locations[-1] + stride - start))
    return patches


def _dominant_patch_size(
    scan: PatchScan, test: str, epsilon: float
) -> int | None:
    """The dominant patch size for one test, snapped to the candidate
    grid; None when the test shows no patches at all.

    Votes are weighted by the weak-behaviour mass inside each patch, so
    strong genuine patches outvote noise fragments — at the paper's
    word-exact sampling this coincides with counting patches.
    """
    sizes: Counter[int] = Counter()
    for d in scan.distances:
        row = scan.row(test, d)
        for start, size in find_patches(row, scan.locations, epsilon):
            snapped = min(PATCH_CANDIDATES, key=lambda c: abs(c - size))
            mass = sum(
                value
                for value, loc in zip(row, scan.locations)
                if start <= loc < start + size
            )
            sizes[snapped] += mass
    if not sizes:
        return None
    best_count = max(sizes.values())
    # Deterministic tie-break: the smallest size with the top mass.
    return min(s for s, c in sizes.items() if c == best_count)


def critical_patch_size(
    scan: PatchScan, epsilon: float | None = None
) -> tuple[int, dict[str, int | None]]:
    """Critical patch size of a chip from its patch scan.

    ``epsilon`` defaults to 5% of the execution count.  (The paper uses
    an absolute threshold of 3 per 1000 executions; our executions batch
    several rounds — like a litmus kernel launch testing many instances
    — which amplifies both signal and noise, so the threshold scales
    with the sample size.)

    Returns ``(patch_size, per_test_sizes)``.  Following the paper's
    Maxwell finding (MP patches only appear at very large distances), a
    test that exhibits *no* patches is excluded from the agreement
    requirement; the remaining tests must agree.
    """
    if epsilon is None:
        epsilon = max(1.0, 0.05 * scan.executions)
    per_test: dict[str, int | None] = {}
    tests = {t for (t, _d, _l) in scan.counts}
    for test in sorted(tests):
        per_test[test] = _dominant_patch_size(scan, test, epsilon)
    observed = [size for size in per_test.values() if size is not None]
    if not observed:
        raise ValueError(
            f"no ε-patches observed for chip {scan.chip}; "
            "increase executions or lower epsilon"
        )
    agreed = Counter(observed).most_common(1)[0][0]
    return agreed, per_test
