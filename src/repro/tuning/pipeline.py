"""The full tuning pipeline: patch size -> sequence -> spread (Tab. 2).

``tune_chip`` reruns the paper's Sec. 3 micro-benchmark campaign against
a (simulated) chip and returns the discovered stressing parameters plus
the raw stage outputs.  ``shipped_params`` returns the library's bundled
tuning results — the analogue of the paper publishing Table 2 so users
need not spend the multi-hour tuning time per chip; the test suite and
the Table 2 benchmark verify that ``tune_chip`` rediscovers them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..chips.profile import HardwareProfile
from ..chips.registry import get_chip
from ..parallel import ParallelConfig
from ..scale import DEFAULT, Scale
from ..stress.config import StressConfig
from .access import SequenceScores, score_sequences, select_sequence
from .patches import PatchScan, critical_patch_size, scan_patches
from .spread import SpreadScores, score_spreads, select_spread

#: The spread the paper found optimal on every studied chip.
_SHIPPED_SPREAD = 2


@dataclass(frozen=True)
class TunedResult:
    """Outcome of the tuning pipeline for one chip."""

    config: StressConfig
    per_test_patch: dict[str, int | None]
    patch_scan: PatchScan
    sequence_scores: SequenceScores
    spread_scores: SpreadScores
    wall_seconds: float

    def table2_row(self) -> dict[str, object]:
        row = self.config.table2_row()
        row["~time (mins)"] = round(self.wall_seconds / 60.0, 2)
        return row


def tune_chip(
    chip: HardwareProfile,
    scale: Scale = DEFAULT,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
    ledger=None,
    submit=None,
) -> TunedResult:
    """Run patch finding, sequence scoring and spread finding in order.

    The three stages are sequential (each consumes the previous stage's
    selection), but every stage's search grid is sharded across worker
    processes under ``parallel`` — or served to distributed workers
    under ``submit`` (see :mod:`repro.dist`) — with results identical
    to a serial run.  ``ledger`` checkpoints every grid point of every
    stage, so a multi-hour tuning run killed mid-stage resumes at the
    first missing point (each point derives its seed from its own
    coordinates, so the resumed tables are bit-identical).
    """
    started = time.perf_counter()
    scan = scan_patches(
        chip, scale, seed, parallel=parallel, ledger=ledger, submit=submit,
    )
    patch, per_test = critical_patch_size(scan)
    seq_scores = score_sequences(
        chip, patch, scale, seed, parallel=parallel, ledger=ledger,
        submit=submit,
    )
    sequence = select_sequence(seq_scores)
    spread_scores = score_spreads(
        chip, patch, sequence, scale, seed, parallel=parallel,
        ledger=ledger, submit=submit,
    )
    spread = select_spread(spread_scores)
    config = StressConfig(
        chip=chip.short_name,
        patch_size=patch,
        sequence=sequence,
        spread=spread,
        scratch_regions=scale.max_spread,
    )
    return TunedResult(
        config=config,
        per_test_patch=per_test,
        patch_scan=scan,
        sequence_scores=seq_scores,
        spread_scores=spread_scores,
        wall_seconds=time.perf_counter() - started,
    )


def shipped_params(chip_name: str, scratch_regions: int = 64) -> StressConfig:
    """Bundled tuning results for a chip (the paper's Table 2).

    These are the parameters the tuning pipeline converges to; shipping
    them (as the paper ships Table 2) spares users the tuning time.
    """
    chip = get_chip(chip_name)
    return StressConfig(
        chip=chip.short_name,
        patch_size=chip.patch_size,
        sequence=chip.best_sequence,
        spread=_SHIPPED_SPREAD,
        scratch_regions=scratch_regions,
    )
