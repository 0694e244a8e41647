"""Table 3: access-sequence ranking snippet for Titan (Sec. 3.3).

The σ-scoring grid is sharded across ``REPRO_BENCH_JOBS`` worker
processes; scores are identical at any job count.
"""

import dataclasses

from repro.chips import get_chip
from repro.reporting.tables import render_table
from repro.stress.sequences import format_sequence
from repro.tuning.access import score_sequences, select_sequence


def test_table3_titan(benchmark, tiny_scale, bench_parallel):
    chip = get_chip("Titan")
    scale = dataclasses.replace(tiny_scale, max_sequence_length=4)
    scores = benchmark.pedantic(
        score_sequences, args=(chip, chip.patch_size, scale),
        kwargs={"seed": 5, "parallel": bench_parallel},
        rounds=1, iterations=1,
    )
    best = select_sequence(scores)
    print()
    print(f"selected sigma: {format_sequence(best)} (paper: ld st2 ld)")
    for test, rows in scores.table3_rows().items():
        print(render_table(rows, title=f"Table 3 snippet, {test}"))

    # The paper's qualitative findings:
    assert best == chip.best_sequence
    for test in scores.tests:
        ranked = scores.ranking(test)
        top_seq, top_score = ranked[0]
        bottom = ranked[-3:]
        # Store-only sequences rank at the bottom with near-zero scores.
        assert all(
            score <= max(2, 0.05 * max(top_score, 1))
            for _seq, score in bottom
        )
        assert any("ld" in seq for seq, _ in ranked[:3])
