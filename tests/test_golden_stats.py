"""Golden-statistics regression tests for both execution cores.

The hot-path overhauls (litmus: cached probability tables, BufferedRNG
block pre-draws, O(1) buffer bookkeeping, memory-system reuse; SIMT
engine: batch application driver, O(1) tick loop, scheduler choice
emulation) promise to be **behaviour-preserving**: at a fixed seed the
optimized cores must reproduce the pre-refactor cores' results bit for
bit.  These tests pin fixed-seed statistics captured from the
pre-refactor implementations, so this and future performance PRs cannot
silently shift the model.

Litmus path, three layers of increasing sensitivity, each pinned on
both of the direct runner's round implementations (the native kernel
that runs two-thread ld/st executions, and the Python rounds with the
kernel forced off):

* exact weak counts over MP/LB/SB x three chips x {no-str, sys-str} at
  smoke scale (40 executions, seed 7, distance 2 x patch size);
* per-execution weak *fingerprints* (exactly which global execution
  indices were weak) for three cells — a count could survive two
  cancelling draw-order changes, the fingerprint cannot;
* serial vs ``jobs=N`` equality, which additionally exercises the
  repro.parallel global-index seeding contract through the new core.

Application (SIMT engine) path:

* per-run fingerprints — (erroneous, ticks, fences, swaps, bypasses)
  for every run of four (app, chip, env) cells captured from the
  pre-batch engine, and of every registered application on K20 sys-str
  both as shipped and with every fence site on (every engine tick
  consumes the scheduler stream, so the tick count alone pins the
  entire pick/draw history);
* batch-vs-single parity: ``ApplicationBatch``/``run_application_batch``
  must equal standalone ``run_application`` results exactly;
* a campaign cell serially and at ``jobs=N``, against pinned counts.

The values are tied to numpy's stable PCG64 stream (raw outputs,
``next_double``, the Lemire bounded-integer path, Floyd sampling and
the scalar choice-with-p search — unchanged since numpy 1.17).
"""

from __future__ import annotations

import pytest

from repro.apps.base import (
    ApplicationBatch,
    run_application,
    run_application_batch,
)
from repro.apps.registry import get_application
from repro.chips import get_chip
from repro.litmus import LB, MP, SB, get_test, native, run_litmus
from repro.litmus.runner import LitmusInstance, _litmus_span
from repro.parallel import ParallelConfig
from repro.rng import derive_seed
from repro.stress.environment import standard_environments
from repro.stress.strategies import NoStress, TunedStress
from repro.testing.campaign import run_cell
from repro.tuning.pipeline import shipped_params

_SEED = 7
_EXECUTIONS = 40

#: Weak counts captured from the pre-refactor core (seed commit) at
#: ``run_litmus(chip, test, 2 * patch_size, spec, executions=40, seed=7)``.
GOLDEN_WEAK = {
    ("K20", "MP", "no-str"): 0,
    ("K20", "LB", "no-str"): 0,
    ("K20", "SB", "no-str"): 0,
    ("K20", "MP", "sys-str"): 10,
    ("K20", "LB", "sys-str"): 3,
    ("K20", "SB", "sys-str"): 2,
    ("Titan", "MP", "no-str"): 0,
    ("Titan", "LB", "no-str"): 0,
    ("Titan", "SB", "no-str"): 0,
    ("Titan", "MP", "sys-str"): 5,
    ("Titan", "LB", "sys-str"): 4,
    ("Titan", "SB", "sys-str"): 1,
    ("980", "MP", "no-str"): 0,
    ("980", "LB", "no-str"): 0,
    ("980", "SB", "no-str"): 0,
    ("980", "MP", "sys-str"): 0,
    ("980", "LB", "sys-str"): 1,
    ("980", "SB", "sys-str"): 0,
}

#: Which of the 40 global execution indices were weak (pre-refactor
#: core, sys-str cells) — a much stronger invariant than the count.
GOLDEN_FINGERPRINTS = {
    ("K20", "MP"): (2, 3, 8, 9, 10, 19, 26, 31, 36, 39),
    ("Titan", "LB"): (3, 4, 19, 31),
    ("980", "MP"): (),
}

#: Weak count of the K20/MP sys-str cell under thread randomisation,
#: 600 executions, seed 7 (pre-refactor core).
GOLDEN_RANDOMISE_WEAK = 117


def _env_spec(chip_name: str, env: str):
    if env == "no-str":
        return NoStress()
    return TunedStress(shipped_params(chip_name))


def _both_paths(run):
    """``run()`` with the native kernel (where it builds), then with it
    forced off so the Python rounds run; each must give the pinned
    value."""
    with_kernel = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_kernel", None)
        return with_kernel, run()


@pytest.mark.parametrize(
    "chip_name,test_name,env",
    sorted(GOLDEN_WEAK),
    ids=lambda v: str(v),
)
def test_weak_counts_match_pre_refactor_core(chip_name, test_name, env):
    chip = get_chip(chip_name)
    golden = GOLDEN_WEAK[(chip_name, test_name, env)]
    assert _both_paths(
        lambda: run_litmus(
            chip,
            get_test(test_name),
            2 * chip.patch_size,
            _env_spec(chip_name, env),
            executions=_EXECUTIONS,
            seed=_SEED,
        ).weak
    ) == (golden, golden)


@pytest.mark.parametrize("chip_name,test_name", sorted(GOLDEN_FINGERPRINTS))
def test_weak_fingerprints_match_pre_refactor_core(chip_name, test_name):
    chip = get_chip(chip_name)
    spec = TunedStress(shipped_params(chip_name))
    instance = LitmusInstance.layout(
        chip, get_test(test_name), 2 * chip.patch_size
    )
    golden = GOLDEN_FINGERPRINTS[(chip_name, test_name)]
    assert _both_paths(
        lambda: tuple(
            i
            for i in range(_EXECUTIONS)
            if _litmus_span(chip, instance, spec, _SEED, False, i, i + 1)
        )
    ) == (golden, golden)


def test_randomised_weak_count_matches_pre_refactor_core():
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    instance = LitmusInstance.layout(chip, MP, 2 * chip.patch_size)
    assert _both_paths(
        lambda: _litmus_span(chip, instance, spec, _SEED, True, 0, 600)
    ) == (GOLDEN_RANDOMISE_WEAK, GOLDEN_RANDOMISE_WEAK)


@pytest.mark.parametrize("jobs", [2, 3])
def test_sharded_runs_match_golden_counts(jobs):
    """jobs=N must reproduce both the serial result and the golden
    value (global-index seeding through the optimized core)."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    golden = GOLDEN_WEAK[("K20", "MP", "sys-str")]
    assert _both_paths(
        lambda: run_litmus(
            chip,
            MP,
            2 * chip.patch_size,
            spec,
            executions=_EXECUTIONS,
            seed=_SEED,
            parallel=ParallelConfig(jobs=jobs),
        ).weak
    ) == (golden, golden)


def test_any_span_partition_matches_golden_count():
    """Shard boundaries cannot influence a single draw: every partition
    of the execution range sums to the same weak count."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    instance = LitmusInstance.layout(chip, MP, 2 * chip.patch_size)
    golden = GOLDEN_WEAK[("K20", "MP", "sys-str")]
    for bounds in ([0, 40], [0, 7, 40], [0, 13, 14, 31, 40]):
        assert _both_paths(
            lambda: sum(
                _litmus_span(chip, instance, spec, _SEED, False, a, b)
                for a, b in zip(bounds, bounds[1:])
            )
        ) == (golden, golden)


# ----------------------------------------------------------------------
# application (SIMT engine) path
# ----------------------------------------------------------------------

#: Per-run (erroneous, ticks, n_fences, n_swaps, n_bypasses) for runs
#: ``i in range(12)`` at seed ``derive_seed(7, "app-golden", app, chip,
#: env, i)``.  Keyed by (app, chip, env, randomise, fences), where
#: ``fences`` is "shipped" (the application's ``base_fences``) or
#: "all-sites" (a fence after every access, ``frozenset(app.sites())``,
#: the starting point of fence insertion).  The first four rows were
#: captured from the pre-batch engine; the K20 sys-str rows, which pin
#: every registered application under both fence sets, were captured
#: while kernels reached memory through ``yield from`` helper
#: generators.
GOLDEN_APP_FINGERPRINTS = {
    ("cbe-dot", "K20", "sys-str", True, "shipped"): (
        (0, 286, 0, 0, 0), (0, 330, 0, 0, 1), (0, 379, 0, 0, 0),
        (0, 287, 0, 0, 0), (1, 410, 0, 0, 1), (0, 429, 0, 0, 0),
        (0, 364, 0, 0, 0), (0, 334, 0, 0, 0), (0, 372, 0, 0, 0),
        (0, 288, 0, 0, 0), (0, 417, 0, 0, 0), (0, 286, 0, 0, 0),
    ),
    ("sdk-red-nf", "Titan", "sys-str", True, "shipped"): (
        (0, 90, 0, 0, 0), (0, 104, 0, 0, 0), (0, 82, 0, 0, 0),
        (0, 100, 0, 0, 0), (0, 94, 0, 0, 0), (0, 83, 0, 0, 0),
        (0, 103, 0, 0, 0), (0, 95, 0, 0, 0), (0, 84, 0, 0, 0),
        (0, 85, 0, 0, 0), (0, 99, 0, 0, 0), (0, 122, 0, 0, 0),
    ),
    ("tpo-tm", "980", "no-str", False, "shipped"): (
        (0, 758, 0, 0, 0), (0, 834, 0, 0, 0), (0, 656, 0, 0, 0),
        (0, 812, 0, 0, 0), (0, 834, 0, 0, 0), (0, 672, 0, 0, 0),
        (0, 767, 0, 0, 0), (0, 816, 0, 0, 0), (0, 763, 0, 0, 0),
        (0, 824, 0, 0, 0), (0, 713, 0, 0, 0), (0, 882, 0, 0, 0),
    ),
    ("ls-bh", "K20", "sys-str", True, "shipped"): (
        (0, 594, 44, 0, 2), (0, 721, 52, 0, 8), (1, 709, 60, 0, 3),
        (0, 789, 52, 0, 3), (0, 749, 44, 0, 3), (0, 686, 52, 0, 5),
        (0, 681, 44, 0, 2), (0, 762, 60, 0, 1), (0, 708, 52, 0, 1),
        (0, 958, 44, 0, 1), (1, 908, 44, 0, 1), (0, 776, 44, 0, 6),
    ),
    ("cbe-ht", "K20", "sys-str", True, "shipped"): (
        (1, 281, 0, 7, 1), (1, 273, 0, 8, 2), (0, 240, 0, 17, 7),
        (0, 372, 0, 12, 5), (1, 423, 0, 24, 4), (1, 746, 0, 33, 16),
        (1, 444, 0, 27, 4), (1, 363, 0, 26, 12), (0, 732, 0, 34, 0),
        (1, 358, 0, 13, 9), (1, 195, 0, 10, 7), (1, 414, 0, 29, 9),
    ),
    ("cbe-ht", "K20", "sys-str", True, "all-sites"): (
        (0, 517, 384, 0, 0), (0, 353, 384, 0, 0), (0, 680, 384, 0, 0),
        (0, 543, 384, 0, 0), (0, 542, 384, 0, 0), (0, 651, 384, 0, 0),
        (0, 436, 384, 0, 0), (0, 484, 384, 0, 0), (0, 558, 384, 0, 0),
        (0, 534, 384, 0, 0), (0, 651, 384, 0, 0), (0, 765, 384, 0, 0),
    ),
    ("cbe-dot", "K20", "sys-str", True, "all-sites"): (
        (0, 483, 3096, 0, 0), (0, 542, 3096, 0, 0), (0, 515, 3096, 0, 0),
        (0, 514, 3096, 0, 0), (0, 530, 3096, 0, 0), (0, 428, 3096, 0, 0),
        (0, 587, 3096, 0, 0), (0, 455, 3096, 0, 0), (0, 433, 3096, 0, 0),
        (0, 503, 3096, 0, 0), (0, 471, 3096, 0, 0), (0, 493, 3096, 0, 0),
    ),
    ("ct-octree", "K20", "sys-str", True, "shipped"): (
        (1, 110, 0, 12, 2), (1, 306, 0, 60, 8), (0, 74, 0, 9, 1),
        (1, 124, 0, 16, 3), (0, 56, 0, 4, 0), (0, 126, 0, 12, 2),
        (0, 112, 0, 2, 3), (0, 87, 0, 11, 2), (0, 45, 0, 5, 2),
        (0, 53, 0, 6, 2), (0, 323, 0, 48, 7), (1, 322, 0, 63, 8),
    ),
    ("ct-octree", "K20", "sys-str", True, "all-sites"): (
        (0, 135, 192, 0, 0), (0, 143, 192, 0, 0), (0, 88, 192, 0, 0),
        (0, 133, 192, 0, 0), (0, 102, 192, 0, 0), (0, 153, 192, 0, 0),
        (0, 151, 192, 0, 0), (0, 117, 192, 0, 0), (0, 85, 192, 0, 0),
        (0, 98, 192, 0, 0), (0, 116, 192, 1, 0), (0, 132, 192, 0, 0),
    ),
    ("tpo-tm", "K20", "sys-str", True, "shipped"): (
        (1, 919, 0, 0, 2), (0, 777, 0, 0, 0), (0, 1289, 0, 0, 0),
        (1, 1316, 0, 0, 6), (0, 1400, 0, 0, 0), (1, 1055, 0, 0, 5),
        (1, 1123, 0, 0, 6), (0, 708, 0, 0, 0), (0, 1287, 0, 0, 1),
        (0, 1073, 0, 0, 0), (0, 976, 0, 0, 0), (0, 1102, 0, 0, 0),
    ),
    ("tpo-tm", "K20", "sys-str", True, "all-sites"): (
        (0, 1711, 242, 0, 0), (0, 1852, 216, 0, 0), (0, 1723, 222, 0, 0),
        (0, 1716, 226, 0, 0), (0, 2031, 220, 0, 0), (0, 1563, 216, 0, 0),
        (0, 1936, 226, 0, 0), (0, 1288, 218, 0, 0), (0, 2012, 214, 0, 0),
        (0, 2123, 230, 0, 0), (0, 2208, 218, 0, 0), (0, 1370, 232, 0, 0),
    ),
    ("sdk-red", "K20", "sys-str", True, "shipped"): (
        (0, 127, 8, 0, 0), (0, 127, 8, 0, 0), (0, 155, 8, 0, 0),
        (0, 191, 8, 0, 0), (0, 146, 8, 0, 0), (0, 122, 8, 0, 0),
        (0, 121, 8, 0, 0), (0, 150, 8, 0, 0), (0, 172, 8, 0, 0),
        (0, 143, 8, 0, 0), (0, 140, 8, 0, 0), (0, 164, 8, 0, 0),
    ),
    ("sdk-red", "K20", "sys-str", True, "all-sites"): (
        (0, 221, 1041, 0, 0), (0, 190, 1041, 0, 0), (0, 215, 1041, 0, 0),
        (0, 245, 1041, 0, 0), (0, 197, 1041, 0, 0), (0, 181, 1041, 0, 0),
        (0, 182, 1041, 0, 0), (0, 213, 1041, 0, 0), (0, 234, 1041, 0, 0),
        (0, 199, 1041, 0, 0), (0, 190, 1041, 0, 0), (0, 233, 1041, 0, 0),
    ),
    ("sdk-red-nf", "K20", "sys-str", True, "shipped"): (
        (0, 81, 0, 0, 0), (0, 122, 0, 0, 0), (0, 117, 0, 0, 2),
        (0, 82, 0, 0, 0), (0, 78, 0, 0, 0), (0, 97, 0, 0, 0),
        (0, 102, 0, 0, 0), (0, 133, 0, 0, 0), (0, 83, 0, 0, 0),
        (0, 88, 0, 0, 0), (0, 112, 0, 0, 1), (0, 86, 0, 0, 0),
    ),
    ("sdk-red-nf", "K20", "sys-str", True, "all-sites"): (
        (0, 166, 1041, 0, 0), (0, 207, 1041, 0, 0), (0, 194, 1041, 0, 0),
        (0, 159, 1041, 0, 0), (0, 181, 1041, 0, 0), (0, 189, 1041, 0, 0),
        (0, 187, 1041, 0, 0), (0, 237, 1041, 0, 0), (0, 166, 1041, 0, 0),
        (0, 173, 1041, 0, 0), (0, 212, 1041, 0, 0), (0, 185, 1041, 0, 0),
    ),
    ("cub-scan", "K20", "sys-str", True, "shipped"): (
        (0, 317, 24, 0, 0), (0, 464, 24, 0, 0), (0, 485, 24, 1, 0),
        (0, 515, 24, 3, 0), (0, 322, 24, 0, 0), (0, 427, 24, 3, 0),
        (0, 454, 24, 0, 0), (0, 384, 24, 0, 0), (0, 385, 24, 5, 0),
        (0, 345, 24, 0, 0), (0, 382, 24, 0, 0), (0, 588, 24, 0, 0),
    ),
    ("cub-scan", "K20", "sys-str", True, "all-sites"): (
        (0, 486, 1286, 0, 0), (0, 688, 1356, 0, 0), (0, 581, 1293, 0, 0),
        (0, 709, 1384, 0, 0), (0, 598, 1305, 0, 0), (0, 620, 1341, 0, 0),
        (0, 619, 1365, 0, 0), (0, 637, 1340, 0, 0), (0, 646, 1348, 0, 0),
        (0, 482, 1278, 0, 0), (0, 523, 1336, 0, 0), (0, 642, 1370, 0, 0),
    ),
    ("cub-scan-nf", "K20", "sys-str", True, "shipped"): (
        (0, 311, 0, 0, 0), (1, 388, 0, 7, 0), (0, 328, 0, 4, 0),
        (0, 491, 0, 2, 0), (0, 340, 0, 3, 0), (1, 322, 0, 6, 0),
        (0, 399, 0, 4, 0), (0, 290, 0, 1, 0), (1, 322, 0, 8, 0),
        (0, 356, 0, 7, 0), (1, 381, 0, 6, 0), (1, 259, 0, 5, 0),
    ),
    ("cub-scan-nf", "K20", "sys-str", True, "all-sites"): (
        (0, 692, 1340, 0, 0), (0, 716, 1376, 0, 0), (0, 615, 1374, 0, 0),
        (0, 603, 1338, 0, 0), (0, 585, 1326, 0, 0), (0, 542, 1325, 0, 0),
        (0, 877, 1465, 0, 0), (0, 659, 1356, 0, 0), (0, 709, 1330, 0, 0),
        (0, 651, 1362, 0, 0), (0, 559, 1347, 0, 0), (0, 778, 1433, 0, 0),
    ),
    ("ls-bh", "K20", "sys-str", True, "all-sites"): (
        (0, 681, 364, 0, 0), (0, 859, 372, 0, 0), (0, 793, 380, 0, 0),
        (0, 669, 372, 0, 0), (0, 1020, 364, 0, 0), (0, 747, 372, 0, 0),
        (0, 698, 364, 0, 0), (0, 752, 380, 0, 0), (0, 1121, 372, 0, 0),
        (0, 899, 364, 0, 0), (0, 985, 364, 0, 0), (0, 791, 364, 0, 0),
    ),
    ("ls-bh-nf", "K20", "sys-str", True, "shipped"): (
        (0, 733, 0, 7, 7), (1, 1090, 0, 0, 17), (1, 728, 0, 3, 5),
        (1, 589, 0, 6, 6), (0, 497, 0, 0, 3), (1, 875, 0, 0, 17),
        (0, 490, 0, 0, 4), (0, 634, 0, 0, 1), (1, 620, 0, 0, 9),
        (0, 372, 0, 0, 1), (1, 561, 0, 12, 14), (0, 434, 0, 1, 5),
    ),
    ("ls-bh-nf", "K20", "sys-str", True, "all-sites"): (
        (0, 753, 372, 0, 0), (0, 763, 380, 0, 0), (0, 1009, 383, 0, 0),
        (0, 1078, 364, 0, 0), (0, 892, 372, 0, 0), (0, 696, 372, 0, 0),
        (0, 957, 380, 0, 0), (0, 910, 372, 0, 0), (0, 1069, 372, 0, 0),
        (0, 827, 364, 0, 0), (0, 1002, 378, 0, 0), (0, 939, 372, 0, 0),
    ),
}

#: ``run_cell(cbe-dot, K20, sys-str+, runs=16, seed=7)`` on the
#: pre-batch engine: (errors, timeouts).
GOLDEN_CAMPAIGN_CELL = (1, 0)


def _app_spec(chip_name: str, env: str):
    if env == "no-str":
        return NoStress()
    return TunedStress(shipped_params(chip_name))


def _app_fingerprint(run):
    result = run.result
    return (
        int(run.erroneous),
        result.ticks,
        result.n_fences,
        result.n_swaps,
        result.n_bypasses,
    )


def _golden_seeds(app_name, chip_name, env):
    return [
        derive_seed(7, "app-golden", app_name, chip_name, env, i)
        for i in range(12)
    ]


def _golden_fences(app, fences):
    return app.base_fences if fences == "shipped" else frozenset(app.sites())


def _golden_row_id(key):
    # Shipped-fence rows keep the (app, chip, env, randomise) ids they
    # had before the fence-set column existed.
    *cell, fences = key
    return "-".join(map(str, cell if fences == "shipped" else key))


_GOLDEN_APP_ROWS = pytest.mark.parametrize(
    "app_name,chip_name,env,randomise,fences",
    sorted(GOLDEN_APP_FINGERPRINTS),
    ids=[_golden_row_id(key) for key in sorted(GOLDEN_APP_FINGERPRINTS)],
)


@_GOLDEN_APP_ROWS
def test_app_fingerprints_match_pre_batch_engine(
    app_name, chip_name, env, randomise, fences
):
    """Single runs reproduce the pinned engine bit for bit.

    Every engine tick consumes the scheduler's stream, so an identical
    tick count at a fixed seed pins the entire pick/draw history; the
    fence/swap/bypass tallies additionally pin the memory-system draws.
    """
    app = get_application(app_name)
    chip = get_chip(chip_name)
    spec = _app_spec(chip_name, env)
    fence_sites = _golden_fences(app, fences)
    got = tuple(
        _app_fingerprint(
            run_application(
                app,
                chip,
                stress_spec=spec,
                randomise=randomise,
                seed=seed,
                fence_sites=fence_sites,
            )
        )
        for seed in _golden_seeds(app_name, chip_name, env)
    )
    key = (app_name, chip_name, env, randomise, fences)
    assert got == GOLDEN_APP_FINGERPRINTS[key]


@_GOLDEN_APP_ROWS
def test_batch_runs_equal_single_runs(
    app_name, chip_name, env, randomise, fences
):
    """run_application_batch == [run_application(seed) ...], exactly.

    AppRun and ExecutionResult are frozen dataclasses, so ``==`` compares
    every field — outcome, ticks and all statistics must agree.
    """
    app = get_application(app_name)
    chip = get_chip(chip_name)
    spec = _app_spec(chip_name, env)
    fence_sites = _golden_fences(app, fences)
    seeds = _golden_seeds(app_name, chip_name, env)
    golden = GOLDEN_APP_FINGERPRINTS[
        (app_name, chip_name, env, randomise, fences)
    ]
    batched = run_application_batch(
        app,
        chip,
        seeds,
        stress_spec=spec,
        randomise=randomise,
        fence_sites=fence_sites,
    )
    assert tuple(_app_fingerprint(r) for r in batched) == golden
    singles = [
        run_application(
            app,
            chip,
            stress_spec=spec,
            randomise=randomise,
            seed=seed,
            fence_sites=fence_sites,
        )
        for seed in seeds
    ]
    assert batched == singles


def test_batch_interleaved_fence_sets_stay_identical():
    """One batch serves many fence sets (the insertion access pattern):
    interleaving candidate sets must not perturb any run's result."""
    app = get_application("ls-bh")
    chip = get_chip("K20")
    spec = _app_spec("K20", "sys-str")
    seeds = _golden_seeds("ls-bh", "K20", "sys-str")[:6]
    fence_sets = [frozenset(), app.base_fences, frozenset(app.sites())]
    batch = ApplicationBatch(app, chip, stress_spec=spec, randomise=True)
    interleaved = [
        batch.run(seed, fence_sites=fence_sets[i % len(fence_sets)])
        for i, seed in enumerate(seeds)
    ]
    for i, seed in enumerate(seeds):
        single = run_application(
            app,
            chip,
            stress_spec=spec,
            randomise=True,
            seed=seed,
            fence_sites=fence_sets[i % len(fence_sets)],
        )
        assert interleaved[i] == single


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_cell_matches_pre_batch_engine(jobs):
    """A campaign cell reproduces the pinned counts serially and
    sharded (the batch driver inside each shard must not change any
    run's seed stream)."""
    env = next(
        e
        for e in standard_environments(shipped_params("K20"))
        if e.name == "sys-str+"
    )
    cell = run_cell(
        get_application("cbe-dot"),
        get_chip("K20"),
        env,
        runs=16,
        seed=7,
        parallel=ParallelConfig(jobs=jobs),
    )
    assert (cell.errors, cell.timeouts) == GOLDEN_CAMPAIGN_CELL


def test_all_three_tests_still_distinct():
    """Sanity guard: the three idioms remain distinct workloads (the
    golden table is not accidentally testing one program thrice)."""
    assert MP.threads[0] != LB.threads[0]
    assert SB.threads[0] != MP.threads[0]
    assert {t.name for t in (MP, LB, SB)} == {"MP", "LB", "SB"}
