"""Table 2: the full tuning pipeline rediscovers the shipped parameters.

Runs patch finding, sequence scoring and spread finding end to end for
one Kepler and one Fermi chip and checks the result against the paper's
Table 2 row (which our ``shipped_params`` mirrors).  The full 7-chip
table is available via ``gpu-wmm experiment table2 --scale default``.

The tuning grids are sharded across ``REPRO_BENCH_JOBS`` worker
processes; the discovered parameters are identical at any job count.
"""

import dataclasses

import pytest

from repro.chips import get_chip
from repro.reporting.tables import render_table
from repro.tuning import shipped_params, tune_chip


@pytest.mark.parametrize("chip_name", ["Titan", "C2075"])
def test_table2_pipeline(benchmark, tiny_scale, bench_parallel, chip_name):
    chip = get_chip(chip_name)
    scale = dataclasses.replace(
        tiny_scale,
        max_sequence_length=4 if chip_name in ("Titan", "C2075") else 5,
    )
    result = benchmark.pedantic(
        tune_chip, args=(chip, scale),
        kwargs={"seed": 5, "parallel": bench_parallel},
        rounds=1, iterations=1,
    )
    print()
    print(render_table([result.table2_row()],
                       title=f"Table 2 row ({chip_name})"))
    truth = shipped_params(chip_name)
    assert result.config.patch_size == truth.patch_size
    assert result.config.sequence == truth.sequence
    assert result.config.spread == truth.spread
