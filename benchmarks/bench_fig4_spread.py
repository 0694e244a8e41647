"""Figure 4: spread finding for 980 and K20 (Sec. 3.4).

The spread-scoring grid is sharded across ``REPRO_BENCH_JOBS`` worker
processes; scores are identical at any job count.
"""

import pytest

from repro.chips import get_chip
from repro.reporting.figures import render_series
from repro.tuning.spread import score_spreads, select_spread


@pytest.mark.parametrize("chip_name", ["980", "K20"])
def test_fig4_spread(benchmark, tiny_scale, bench_parallel, chip_name):
    chip = get_chip(chip_name)
    scores = benchmark.pedantic(
        score_spreads,
        args=(chip, chip.patch_size, chip.best_sequence, tiny_scale),
        kwargs={"seed": 6, "parallel": bench_parallel},
        rounds=1,
        iterations=1,
    )
    series = {
        t: [(float(m), float(s)) for m, s in scores.series(t)]
        for t in scores.tests
    }
    print()
    print(render_series(
        series,
        title=f"Figure 4 ({chip.name}): score vs spread",
        x_label="spread",
        y_label="weak behaviours",
    ))
    best = select_spread(scores)
    print(f"selected spread: {best} (paper: 2)")
    assert best == 2
