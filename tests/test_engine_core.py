"""The native engine core against the Python tick loop.

``Engine.run`` runs each kernel launch through ``repro/gpu/engine.c``;
``Engine._loop``, the Python tick loop, is the fallback it replaces and
the oracle it is held to.  Both must consume the identical streams, so
every comparison below also takes each generator's next draws after
the run (a double and a bounded integer, so a pending 32-bit half word
counts too).  The Python side is forced by setting ``engine._core`` to
``None``.

* every registered application on all seven chips, under no-str and
  tuned sys-str, randomised and not, with shipped and all-sites fences,
  two seeds each: equal ``AppRun``s, final memory image, ``tick``,
  ``n_*`` counters, ``_fencing`` and next draws;
* timeouts with and without ``raise_on_timeout`` (thread states too),
  kernels that raise or yield a malformed op, a launch with more loads
  in flight than the deferred-load list first has room for, and
  distinct engine and memory generators as in ``tests/test_engine.py``;
* every ``GOLDEN_APP_FINGERPRINTS`` row and ``GOLDEN_CAMPAIGN_CELL`` on
  the Python loop (``tests/test_golden_stats.py`` runs them on the
  core);
* the artefacts only CI smokes reached: ``table6`` and ``fig5`` render
  byte-identically on both paths, and the ``--backend engine`` litmus
  path (the only user of issue/poll ops) gives identical weak counts
  and outcome histograms;
* the build is lazy, an edit of the shared ``memsys.h`` alone renames
  both cores' builds, and a failed build warns once and leaves the
  Python loop in charge with identical results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.apps.base import ApplicationBatch, run_application
from repro.apps.registry import all_applications, get_application
from repro.chips import all_chips, get_chip
from repro.errors import KernelTimeoutError
from repro.gpu import engine
from repro.gpu import grid as grids
from repro.gpu.addresses import AddressSpace
from repro.gpu.engine import Engine
from repro.gpu.events import OP_FENCE, OP_LOAD, OP_STORE
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import MemorySystem
from repro.litmus import ALL_TESTS, get_test
from repro.litmus.compile import run_litmus_compiled
from repro.parallel import ParallelConfig
from repro.reporting.experiments import figure5, table6
from repro.rng import derive_seed
from repro.scale import SMOKE
from repro.stress.environment import standard_environments
from repro.stress.strategies import NoStress, TunedStress, with_threads_range
from repro.testing.campaign import run_cell
from repro.tuning.pipeline import shipped_params

from test_golden_stats import (
    GOLDEN_APP_FINGERPRINTS,
    GOLDEN_CAMPAIGN_CELL,
    _app_fingerprint,
    _golden_fences,
    _golden_seeds,
)

_CHIPS = all_chips()
_APPS = all_applications()

needs_core = pytest.mark.skipif(
    engine.core() is None, reason="the engine core cannot be built here"
)


def _both(run):
    """``run()`` on the core, then on the Python loop."""
    on_core = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_core", None)
        return on_core, run()


def _spec(chip, env):
    if env == "no-str":
        return NoStress()
    return TunedStress(shipped_params(chip.short_name))


def _plain(value):
    """A comparable stand-in: op tuples keep their kind and operands but
    not their ``fn`` closures, which differ per instantiation."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if callable(value):
        return "fn"
    return value


def _memory_state(mem, *rngs):
    """What the two paths must leave equal in a memory system, then the
    next draws of ``rngs``."""
    state = [
        dict(mem.mem), mem.tick, mem.n_drains, mem.n_swaps,
        mem.n_bypasses, mem.n_slow_loads, set(mem._fencing),
    ]
    for rng in rngs:
        state += [rng.random(), int(rng.integers(0, 1000))]
    return state


def _grid_state(grid):
    """Every thread's engine-side state in ``grid``, then its live
    count."""
    return [
        (
            t.done, _plain(t.op), dict(t.op_state), _plain(t.to_send),
            t.at_barrier, t.sleep_until, t.latency, t.warp.n_active,
        )
        for t in grid.threads
    ] + [grid.n_live]


@contextlib.contextmanager
def _launch_states():
    """Yields a list that gets each launch's :func:`_grid_state` right
    after its ``Engine.run`` returns or raises, in launch order.  A
    snapshot per launch, because every launch of one geometry runs on
    the process's one grid for it."""
    states = []
    run = Engine.run

    def snapshot_run(self, kernel, config, *args, **kwargs):
        try:
            return run(self, kernel, config, *args, **kwargs)
        finally:
            states.append(_grid_state(grids._GRIDS[config]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", snapshot_run)
        yield states


def _batch_runs(app, chip, env, randomise, fences, max_ticks=None):
    kwargs = {} if max_ticks is None else {"max_ticks": max_ticks}
    batch = ApplicationBatch(
        app, chip, stress_spec=_spec(chip, env), randomise=randomise,
        **kwargs,
    )
    sites = app.base_fences if fences == "shipped" else frozenset(app.sites())
    out = []
    for i in range(2):
        seed = derive_seed(29, "engine-core", app.name, chip.short_name,
                           env, randomise, fences, i)
        with _launch_states() as states:
            run = batch.run(seed, fence_sites=sites)
        out.append((run, _memory_state(batch._mem, batch._mem.rng)))
        if max_ticks is not None:
            out.append(states)
    return out


@needs_core
@pytest.mark.parametrize("chip", _CHIPS, ids=lambda c: c.short_name)
def test_app_grid_matches_python_loop(chip):
    for app in _APPS:
        for env in ("no-str", "sys-str"):
            for randomise in (False, True):
                for fences in ("shipped", "all-sites"):
                    args = (app, chip, env, randomise, fences)
                    core, python = _both(lambda: _batch_runs(*args))
                    assert core == python, (app.name, env, randomise, fences)


@needs_core
@pytest.mark.parametrize("app_name", ["cbe-dot", "ls-bh", "sdk-red", "tpo-tm"])
def test_timed_out_runs_match_python_loop(app_name):
    """Launches cut off mid-flight leave identical memory, draws and
    per-thread state (pending op, op state, barrier, sleep, latency)."""
    app = get_application(app_name)
    chip = get_chip("K20")
    for max_ticks in (7, 40, 150):
        for randomise in (False, True):
            core, python = _both(lambda: _batch_runs(
                app, chip, "sys-str", randomise, "all-sites", max_ticks
            ))
            assert core == python, (max_ticks, randomise)
            assert core[0][0].timed_out


def _distinct_run(app_name, chip_name, seed, randomise, raise_on_timeout,
                  max_ticks=120_000):
    """One application launch sequence with distinct engine and memory
    generators (numpy ``Generator``s, no wrapper)."""
    app = get_application(app_name)
    chip = get_chip(chip_name)
    space = AddressSpace(default_align=64)
    mem = MemorySystem(chip, rng=np.random.default_rng(seed),
                       weak_scale=chip.app_sensitivity(app_name))
    launches, checker = app.setup(space, mem)
    scratch = space.alloc("stress-scratchpad", 4096,
                          align=chip.patch_size * chip.n_channels)
    spec = with_threads_range(TunedStress(shipped_params(chip_name)), (8, 16))
    mem.set_stress(spec.build(chip, scratch.base, scratch.size,
                              np.random.default_rng(seed + 7)))
    eng = Engine(chip, mem, np.random.default_rng(seed + 1),
                 max_ticks=max_ticks, n_stress_units=3, randomise=randomise,
                 raise_on_timeout=raise_on_timeout)
    with _launch_states() as states:
        try:
            result = eng.run_all(launches,
                                 fence_sites=frozenset(app.sites()))
            outcome = (result, bool(checker(mem)))
        except KernelTimeoutError as exc:
            outcome = (type(exc), str(exc))
    return outcome, _memory_state(mem, mem.rng, eng.rng), states


@needs_core
@pytest.mark.parametrize("randomise", [False, True])
@pytest.mark.parametrize("app_name", ["cbe-dot", "sdk-red", "ct-octree"])
def test_distinct_generators_match_python_loop(app_name, randomise):
    for seed in (3, 4):
        core, python = _both(
            lambda: _distinct_run(app_name, "Titan", seed, randomise, False)
        )
        assert core == python


@needs_core
@pytest.mark.parametrize("raise_on_timeout", [False, True])
def test_timeout_with_and_without_raising_matches_python_loop(
    raise_on_timeout
):
    core, python = _both(lambda: _distinct_run(
        "ls-bh", "K20", 5, True, raise_on_timeout, max_ticks=90
    ))
    assert core == python
    if raise_on_timeout:
        assert core[0][0] is KernelTimeoutError
    else:
        assert core[0][0].timed_out


_DATA = AddressSpace().alloc("data", 64)


def _bad_op(kind):
    """A kernel whose thread 5 stores, loads and then fails: ``kind``
    names how."""
    def kernel(ctx):
        g = ctx.global_tid()
        yield ctx.store(_DATA, g, g + 1)
        v = yield ctx.load(_DATA, (g + 3) % 16)
        yield ctx.atomic_add(_DATA, 40, 1)
        if g != 5:
            yield ctx.store(_DATA, 20 + g % 8, v)
            return
        if kind == "raise":
            raise RuntimeError(f"kernel failed after reading {v}")
        if kind == "rmw-raises":
            yield ctx.atomic_exch(_DATA, 41, 1)
            yield (ctx.atomic_cas(_DATA, 41, 1, 2)[0], _DATA.addr(41),
                   lambda cur: 1 / 0)
        yield {
            "unknown": ("bogus", 7),
            "not-subscriptable": 42,
            "short-load": (OP_LOAD,),
            "short-store": (OP_STORE, _DATA.addr(3), 1),
            "short-fence": (OP_FENCE,),
            "list-op": [OP_STORE, _DATA.addr(30), "listed", False],
            "float-address": (OP_LOAD, 3.0, False),
        }[kind]
        yield ctx.fence_device()
    return kernel


def _failing_run(kind, chip_name, randomise):
    chip = get_chip(chip_name)
    mem = MemorySystem(chip, rng=np.random.default_rng(11))
    spec = with_threads_range(TunedStress(shipped_params(chip_name)), (8, 16))
    mem.set_stress(spec.build(chip, 4096, 4096, np.random.default_rng(12)))
    eng = Engine(chip, mem, np.random.default_rng(13), n_stress_units=2,
                 randomise=randomise)
    with _launch_states() as states:
        try:
            outcome = eng.run(Kernel("bad", _bad_op(kind)),
                              LaunchConfig(4, 4, 2))
        except Exception as exc:  # compared across the two paths
            outcome = (type(exc), str(exc))
    return outcome, _memory_state(mem, mem.rng, eng.rng), states


@needs_core
@pytest.mark.parametrize("randomise", [False, True])
@pytest.mark.parametrize("kind", [
    "raise", "rmw-raises", "unknown", "not-subscriptable", "short-load",
    "short-store", "short-fence", "list-op",
])
def test_failing_kernels_match_python_loop(kind, randomise):
    """Equal exception types and messages, and the state written back
    up to the failure (the core drops the stores still buffered, which
    no caller reads after a failed launch)."""
    core, python = _both(lambda: _failing_run(kind, "K20", randomise))
    assert core == python
    if kind != "list-op":
        assert isinstance(core[0], tuple) and isinstance(core[0][0], type)


def _many_loads(ctx):
    """Each thread stores, then has 12 loads in flight at once: a launch
    of 16 threads defers far more loads than the list first has room
    for, so the core's list grows twice."""
    g = ctx.global_tid()
    yield ctx.store(_DATA, g % 32, g)
    handles = []
    for i in range(12):
        handles.append((yield ctx.issue_load(_DATA, (g + 5 * i) % 32)))
    for i, handle in enumerate(handles):
        value = yield ctx.await_load(handle)
        yield ctx.store(_DATA, 32 + (g + i) % 32, value)


@needs_core
@pytest.mark.parametrize("randomise", [False, True])
def test_growing_deferred_load_list_matches_python_loop(randomise):
    def run():
        chip = get_chip("K20")
        mem = MemorySystem(chip, rng=np.random.default_rng(21))
        spec = TunedStress(shipped_params("K20"))
        mem.set_stress(spec.build(chip, 4096, 4096, np.random.default_rng(22)))
        eng = Engine(chip, mem, np.random.default_rng(23), n_stress_units=2,
                     randomise=randomise)
        outcome = eng.run(Kernel("loads", _many_loads), LaunchConfig(4, 4, 2))
        return outcome, _memory_state(mem, mem.rng, eng.rng)

    core, python = _both(run)
    assert core == python
    assert core[1][5] > 0  # n_slow_loads: the deferred path ran


@needs_core
def test_non_int_address_is_refused():
    """The core takes addresses as 64-bit ints, as every op constructor
    makes them; the Python loop's behaviour on others is incidental."""
    outcome = _failing_run("float-address", "K20", False)[0]
    assert outcome == (TypeError,
                       "engine core: address 3.0 is not a 64-bit int")


@needs_core
@pytest.mark.parametrize(
    "app_name,chip_name,env,randomise,fences",
    sorted(GOLDEN_APP_FINGERPRINTS),
    ids=["-".join(map(str, key)) for key in sorted(GOLDEN_APP_FINGERPRINTS)],
)
def test_golden_app_fingerprints_on_python_loop(
    app_name, chip_name, env, randomise, fences, monkeypatch
):
    monkeypatch.setattr(engine, "_core", None)
    app = get_application(app_name)
    chip = get_chip(chip_name)
    got = tuple(
        _app_fingerprint(run_application(
            app, chip, stress_spec=_spec(chip, env), randomise=randomise,
            seed=seed, fence_sites=_golden_fences(app, fences),
        ))
        for seed in _golden_seeds(app_name, chip_name, env)
    )
    assert got == GOLDEN_APP_FINGERPRINTS[
        (app_name, chip_name, env, randomise, fences)
    ]


@needs_core
def test_golden_campaign_cell_on_python_loop(monkeypatch):
    monkeypatch.setattr(engine, "_core", None)
    env = next(
        e for e in standard_environments(shipped_params("K20"))
        if e.name == "sys-str+"
    )
    cell = run_cell(
        get_application("cbe-dot"), get_chip("K20"), env, runs=16, seed=7,
        parallel=ParallelConfig(jobs=1),
    )
    assert (cell.errors, cell.timeouts) == GOLDEN_CAMPAIGN_CELL


_TINY = dataclasses.replace(
    SMOKE, name="tiny", campaign_runs=8, stability_runs=8
)


def _blank_wall_clock(text: str) -> str:
    """Table 6's fourth field is wall clock (CI blanks it with awk)."""
    return "\n".join(
        " ".join(f for i, f in enumerate(line.split()) if i != 3)
        for line in text.splitlines()
    )


@needs_core
def test_table6_renders_identically_on_both_paths():
    core, python = _both(lambda: _blank_wall_clock(
        table6(scale=_TINY, chip="Titan", apps=("cbe-dot", "sdk-red-nf"))
    ))
    assert core == python
    assert "cbe-dot" in core


@needs_core
def test_fig5_renders_identically_on_both_paths():
    core, python = _both(lambda: figure5(scale=_TINY, chips=("C2050",)))
    assert core == python
    assert "Overhead summary" in core


@needs_core
@pytest.mark.parametrize("randomise", [False, True])
@pytest.mark.parametrize("name", [t.name for t in ALL_TESTS])
def test_engine_litmus_backend_matches_python_loop(name, randomise):
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    test = get_test(name)

    def run():
        result = run_litmus_compiled(
            chip, test, 2 * chip.patch_size, spec, 24, seed=3,
            randomise=randomise, outcomes=True,
        )
        return result.weak, result.outcomes

    core, python = _both(run)
    assert core == python


def test_core_builds_where_a_compiler_exists():
    """A broken build must not fall back to the Python loop silently on
    a host with a C compiler and the Python headers."""
    import sysconfig

    include = Path(sysconfig.get_paths()["include"]) / "Python.h"
    from repro import cbuild

    if cbuild.compiler() is not None and include.exists():
        assert engine.core() is not None


@needs_core
def test_editing_the_model_renames_both_builds(tmp_path, monkeypatch):
    """Both cores include ``memsys.h``, so an edit of the header alone
    gives each a new build name."""
    from repro import cbuild
    from repro.litmus import native

    (tmp_path / "litmus").mkdir()
    model = tmp_path / "gpu"
    model.mkdir()
    for source, into in ((native._SOURCE, tmp_path / "litmus"),
                         (engine._SOURCE, model),
                         (engine._SOURCE.with_name("memsys.h"), model)):
        (into / source.name).write_bytes(source.read_bytes())
    monkeypatch.setattr(native, "_SOURCE", tmp_path / "litmus" / "native.c")
    monkeypatch.setattr(native, "_MODEL", model)
    monkeypatch.setattr(engine, "_SOURCE", model / "engine.c")
    names = []
    monkeypatch.setattr(cbuild, "_open", lambda *args: names.append(args[3]))

    def build_names():
        native._load()
        engine._load()
        return names[-2:]

    before = build_names()
    with open(model / "memsys.h", "a") as header:
        header.write("/* edited */\n")
    after = build_names()
    assert [name.split("-")[0] for name in before] == ["native", "engine"]
    assert before[0] != after[0] and before[1] != after[1]


def test_processes_without_kernels_never_build_the_core():
    """Tuning (the direct litmus runner) and surveys on the vector
    backend neither compile nor map the core."""
    code = (
        "from repro.chips import get_chip\n"
        "from repro.gpu import engine\n"
        "from repro.litmus import MP, run_litmus, run_litmus_vector\n"
        "from repro.stress.strategies import TunedStress\n"
        "from repro.tuning.pipeline import shipped_params\n"
        "chip = get_chip('K20')\n"
        "spec = TunedStress(shipped_params('K20'))\n"
        "run_litmus(chip, MP, 64, spec, 30)\n"
        "run_litmus_vector(chip, MP, 64, spec, 64)\n"
        "print(engine._core is engine._UNSET)\n"
    )
    src = Path(engine.__file__).parents[2]
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.stdout.split() == ["True"]


@needs_core
def test_failed_build_warns_once_and_runs_python_loop(tmp_path, monkeypatch):
    source = tmp_path / "engine.c"
    source.write_text("#error deliberately broken\n")
    expected = run_application(
        get_application("cbe-dot"), get_chip("K20"),
        stress_spec=_spec(get_chip("K20"), "sys-str"), seed=5,
    )
    monkeypatch.setattr(engine, "_SOURCE", source)
    monkeypatch.setattr(engine, "_core", engine._UNSET)
    with pytest.warns(RuntimeWarning, match="deliberately broken"):
        first = run_application(
            get_application("cbe-dot"), get_chip("K20"),
            stress_spec=_spec(get_chip("K20"), "sys-str"), seed=5,
        )
    assert engine._core is None
    assert first == expected
    assert list((tmp_path / "__pycache__").iterdir()) == []


@needs_core
def test_generator_without_numpy_runs_python_loop_and_warns_once(
    monkeypatch
):
    """A stream the core cannot draw from (here a duck-typed wrapper)
    runs the Python loop with the stream's own results."""

    class Wrapped:
        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, name):
            return getattr(self.gen, name)

    def run(wrap):
        chip = get_chip("K20")
        mem = MemorySystem(chip, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        eng = Engine(chip, mem, Wrapped(rng) if wrap else rng,
                     n_stress_units=2, randomise=True)
        app = get_application("cbe-dot")
        launches, _checker = app.setup(AddressSpace(default_align=64), mem)
        return eng.run_all(launches), _memory_state(mem, mem.rng, rng)

    monkeypatch.setattr(engine, "_warned_generator", False)
    with pytest.warns(RuntimeWarning, match="numpy Generators"):
        wrapped = run(True)
    assert wrapped == run(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(True)
