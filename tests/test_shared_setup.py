"""The set-up a process shares between runs.

Every launch of one :class:`LaunchConfig` runs on the process's one
:class:`~repro.gpu.grid.Grid` for it, and every
:class:`ApplicationBatch` of one (application, chip) pair takes
``app.setup``'s launches, checker, host image and stress scratchpad from
a per-process memo.  Neither may leak state from one run into another:

* a run of application A cut off mid-flight (threads holding a stalled
  op, parked at a barrier and asleep after a fence), then application B
  and another chip on the same geometry, then A again, each equal the
  same run made after emptying both caches, on the native core and on
  the Python tick loop;
* a second batch of a pair runs no ``setup`` and builds no grid, a chip
  with another scratch alignment gets its own set-up, and the
  applications' launches need one grid per distinct geometry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import base
from repro.apps.base import APP_MAX_TICKS, ApplicationBatch
from repro.apps.registry import all_applications, get_application
from repro.chips import get_chip
from repro.gpu import grid as grids
from repro.gpu.kernel import LaunchConfig
from repro.stress.strategies import TunedStress
from repro.tuning.pipeline import shipped_params

from test_engine_core import _both, _grid_state, _memory_state, needs_core

#: The launch geometry cbe-dot and cub-scan share.
_GEOMETRY = LaunchConfig(grid_dim=12, block_dim=16, warp_size=8)

#: (application, chip, tick budget): A cut off mid-flight, another
#: application on A's geometry, A on another chip, then A again.
_SEQUENCE = (
    ("cbe-dot", "K20", 250),
    ("cub-scan", "K20", APP_MAX_TICKS),
    ("cbe-dot", "Titan", APP_MAX_TICKS),
    ("cbe-dot", "K20", 250),
)


def _empty_caches():
    grids._GRIDS.clear()
    base._SETUPS.clear()


def _run(app_name, chip_name, max_ticks):
    """One randomised sys-str run with every fence site active: its
    ``AppRun``, memory state with next draws, and its grid's state."""
    app = get_application(app_name)
    chip = get_chip(chip_name)
    batch = ApplicationBatch(
        app, chip, stress_spec=TunedStress(shipped_params(chip_name)),
        randomise=True, max_ticks=max_ticks,
    )
    run = batch.run(1, fence_sites=frozenset(app.sites()))
    return (
        run,
        _memory_state(batch._mem, batch._mem.rng),
        _grid_state(grids._GRIDS[_GEOMETRY]),
    )


def _in_sequence():
    return [_run(*step) for step in _SEQUENCE]


def _each_from_empty_caches():
    out = []
    for step in _SEQUENCE:
        _empty_caches()
        out.append(_run(*step))
    return out


@needs_core
def test_runs_on_shared_grids_and_setups_equal_runs_from_empty_caches():
    core, python = _both(_in_sequence)
    cut_off, _memory, threads = core[0]
    assert cut_off.timed_out
    ticks = cut_off.result.ticks
    # (done, op, op_state, to_send, at_barrier, sleep_until, ...)
    assert any(t[1] is not None and t[2] for t in threads[:-1])
    assert any(t[4] for t in threads[:-1])
    assert any(t[5] > ticks for t in threads[:-1])
    assert any(t[0] for t in threads[:-1])
    assert not core[1][0].timed_out and not core[2][0].timed_out
    assert core == python
    alone_core, alone_python = _both(_each_from_empty_caches)
    assert core == alone_core
    assert python == alone_python


def _counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to log each call; returns the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_second_batch_runs_no_setup_and_builds_no_grid(monkeypatch):
    app = get_application("ls-bh")  # three launches of three geometries
    chip = get_chip("K20")
    first = ApplicationBatch(app, chip)
    first.run(1)
    setups = _counting(monkeypatch, type(app), "setup")
    builds = _counting(monkeypatch, grids, "_blocks")
    second = ApplicationBatch(app, chip, randomise=True)
    second.run(2)
    assert setups == [] and builds == []
    assert second._setup is first._setup
    assert second._mem is not first._mem
    assert second._engine is not first._engine


def test_chip_with_another_scratch_alignment_gets_its_own_setup(
    monkeypatch
):
    app = get_application("cbe-dot")
    chip = get_chip("K20")
    shared = ApplicationBatch(app, chip)._setup
    wide = dataclasses.replace(chip, patch_size=2 * chip.patch_size)
    setups = _counting(monkeypatch, type(app), "setup")
    batch = ApplicationBatch(app, wide)
    assert len(setups) == 1
    assert batch._setup is not shared
    scratch = batch._setup.scratch
    assert scratch.base % (wide.patch_size * wide.n_channels) == 0
    assert scratch.base != shared.scratch.base
    assert batch.run(3) == ApplicationBatch(app, wide).run(3)


def test_applications_need_one_grid_per_launch_geometry():
    _empty_caches()
    chip = get_chip("K20")
    geometries = set()
    for app in all_applications():
        batch = ApplicationBatch(app, chip)
        batch.run(4)
        geometries.update(config for _kernel, config in batch._setup.launches)
    assert len(geometries) == 7
    assert set(grids._GRIDS) == geometries


@pytest.mark.parametrize("app_name", ["cbe-dot", "ls-bh"])
def test_runs_leave_the_shared_image_as_setup_wrote_it(app_name):
    app = get_application(app_name)
    chip = get_chip("980")
    batch = ApplicationBatch(app, chip)
    image = dict(batch._setup.image)
    for seed in range(3):
        batch.run(seed, fence_sites=frozenset())
    _empty_caches()
    assert ApplicationBatch(app, chip)._setup.image == image
