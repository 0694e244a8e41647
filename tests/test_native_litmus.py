"""The native two-thread ld/st kernel against the Python rounds.

``repro.litmus.native`` runs each execution of a two-thread ld/st
litmus test in C, on a stream it seeds in C; ``runner._one_round`` on a
numpy-seeded ``BufferedRNG`` is the Python interpreter it replaces and
the oracle it is held to.  Both must draw the identical PCG64 stream,
so for every execution the weak flag *and* the stream position
afterwards must agree.  The position is compared through the next two
draws of the execution's own stream (a double and a bounded integer,
so a pending 32-bit half word counts too).

* a grid over every chip, every two-thread ld/st registry test, three
  stress shapes, six distances and randomise on/off;
* random two-thread ld/st programs with random forbidden outcomes;
* hand-written programs for the paths those seldom reach: store
  forwarding, a chained load resolved by its own store's commit, a
  full store buffer and a register never loaded;
* a stress spec whose draws the wrapper does not emulate, so the native
  stream delegates to numpy and takes the position back;
* C seeding against ``np.random.default_rng(derive_seed(...))``, and a
  kernel-path span that builds no numpy generator at all (the stream's
  draws are fuzzed against numpy in ``tests/test_rng.py``);
* the build is not allowed to fail silently where a compiler exists,
  falls back to a private directory in a read-only package, and leaves
  the Python rounds in charge when it cannot succeed.
"""

from __future__ import annotations

import random
import shutil
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rng
from repro import cbuild
from repro.chips import all_chips
from repro.litmus import ALL_TESTS, native, runner
from repro.litmus.ir import And, LocEq, Or, RegEq, ld, st as st_ins
from repro.litmus.runner import LitmusInstance, _litmus_span, _round_plan
from repro.litmus.tests import LitmusTest
from repro.rng import BufferedRNG, derive_seed
from repro.stress.strategies import (
    FixedLocationStress,
    NoStress,
    TunedStress,
)
from repro.tuning.pipeline import shipped_params

_CHIPS = all_chips()
_LDST2 = [
    t for t in ALL_TESTS
    if t.n_threads == 2
    and all(ins[0] in ("st", "ld") for p in t.threads for ins in p)
]

needs_kernel = pytest.mark.skipif(
    native.kernel() is None, reason="no C compiler on this host"
)


def _traces(profile, instance, spec, seed, randomise, executions, python):
    """Per execution: (weak, next random(), next integers(0, 1000))."""
    made = []

    class RecordingRNG(BufferedRNG):
        __slots__ = ()

        def __init__(self, gen):
            super().__init__(gen)
            made.append(self)

    class RecordingStream(native.NativeStream):
        __slots__ = ()

        def __init__(self, lib, span_seed):
            super().__init__(lib, span_seed)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "BufferedRNG", RecordingRNG)
        patch.setattr(native, "NativeStream", RecordingStream)
        if python:
            patch.setattr(native, "_kernel", None)
        flags = [
            _litmus_span(profile, instance, spec, seed, randomise, i, i + 1)
            for i in range(executions)
        ]
    assert len(made) == executions
    assert all(isinstance(rng, RecordingRNG) == python for rng in made)
    return [
        (flag, rng.random(), int(rng.integers(0, 1000)))
        for flag, rng in zip(flags, made)
    ]


def _specs(profile):
    patch = profile.patch_size
    return (
        NoStress(),
        TunedStress(shipped_params(profile.short_name)),
        FixedLocationStress(locations=(0, 2 * patch), sequence=("ld", "st")),
    )


def test_registry_shape_is_the_tuning_family():
    assert {t.name for t in _LDST2} == {
        "MP", "LB", "SB", "CoRR", "R", "S", "2+2W",
    }
    for test in _LDST2:
        assert _round_plan(
            LitmusInstance.layout(_CHIPS[0], test, 64)
        ).packed is not None


@needs_kernel
@pytest.mark.parametrize("chip", _CHIPS, ids=lambda c: c.short_name)
def test_grid_matches_python_rounds(chip):
    """All registry ld/st tests x three stress shapes x six distances x
    randomise off/on, ten executions per cell."""
    patch = chip.patch_size
    distances = (0, 1, patch // 2, patch, 2 * patch, 4 * patch)
    weak = 0
    for test in _LDST2:
        for spec in _specs(chip):
            for distance in distances:
                instance = LitmusInstance.layout(chip, test, distance)
                for randomise in (False, True):
                    args = (chip, instance, spec, 11, randomise, 10)
                    got = _traces(*args, python=False)
                    assert got == _traces(*args, python=True), (
                        chip.short_name, test.name, spec.name, distance,
                        randomise,
                    )
                    weak += sum(flag for flag, _, _ in got)
    assert weak > 0  # the grid reaches the forbidden outcome


#: Paths the registry and short random programs seldom reach, each with
#: a condition that reads the value the path decides: a load forwarded
#: from its own thread's buffered store; a load chained behind a slow
#: load and then resolved by its own store's commit (before the store
#: lands); and a thread too long to finish in the issue window, which
#: fills its store buffer and leaves its last register never loaded
#: (read as 0).
_RARE = (
    LitmusTest(
        "forward", "", ((st_ins("x", 1), ld("x", "r0")), (st_ins("x", 2),)),
        RegEq("r0", 0),
    ),
    LitmusTest(
        "chain", "",
        ((ld("y", "r0"), st_ins("x", 1), ld("x", "r1")), (st_ins("y", 1),)),
        RegEq("r1", 0),
    ),
    LitmusTest(
        "long", "",
        (
            tuple(st_ins("x", k % 3 + 1) for k in range(600))
            + (ld("y", "r0"),),
            (st_ins("y", 1), ld("x", "r1")),
        ),
        And(RegEq("r0", 0), RegEq("r1", 0)),
    ),
)


@needs_kernel
@pytest.mark.parametrize("test", _RARE, ids=lambda t: t.name)
def test_rare_paths_match_python_rounds(test):
    for chip in _CHIPS:
        for spec in _specs(chip)[1:]:
            for distance in (0, 1):
                instance = LitmusInstance.layout(chip, test, distance)
                args = (chip, instance, spec, 3, True, 10)
                assert _traces(*args, python=False) == _traces(
                    *args, python=True
                ), (chip.short_name, spec.name, distance)


_LOCS = ("x", "y", "z")


@st.composite
def ldst2_tests(draw):
    """Two threads of 1-6 ld/st ops over 2-3 locations, and a random
    forbidden outcome over their registers and locations."""
    locs = _LOCS[: draw(st.integers(2, 3))]
    threads = []
    regs = []
    for _ in range(2):
        program = []
        for _ in range(draw(st.integers(1, 6))):
            loc = draw(st.sampled_from(locs))
            if draw(st.booleans()):
                program.append(st_ins(loc, draw(st.integers(1, 3))))
            else:
                regs.append(f"r{len(regs)}")
                program.append(ld(loc, regs[-1]))
        threads.append(tuple(program))
    touched = sorted({ins[1] for p in threads for ins in p})

    def leaf():
        if regs and draw(st.booleans()):
            return RegEq(draw(st.sampled_from(regs)), draw(st.integers(0, 3)))
        return LocEq(draw(st.sampled_from(touched)), draw(st.integers(0, 3)))

    def cond(depth):
        if depth == 0 or draw(st.booleans()):
            return leaf()
        join = And if draw(st.booleans()) else Or
        return join(*(cond(depth - 1) for _ in range(draw(st.integers(1, 3)))))

    return LitmusTest("rand", "random ld/st", tuple(threads), cond(2))


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    test=ldst2_tests(),
    chip=st.sampled_from(_CHIPS),
    stressed=st.booleans(),
    randomise=st.booleans(),
    distance=st.sampled_from((0, 1, 32, 64, 256)),
)
def test_random_programs_match_python_rounds(
    test, chip, stressed, randomise, distance
):
    spec = (
        TunedStress(shipped_params(chip.short_name)) if stressed
        else NoStress()
    )
    instance = LitmusInstance.layout(chip, test, distance)
    args = (chip, instance, spec, 5, randomise, 6)
    assert _traces(*args, python=False) == _traces(*args, python=True)


def test_kernel_builds_where_a_compiler_exists():
    """A broken build must not fall back to the Python rounds silently
    on a host that has a C compiler."""
    if shutil.which("cc") or shutil.which("gcc"):
        assert native.kernel() is not None


@needs_kernel
def test_read_only_package_builds_privately(tmp_path, monkeypatch):
    """Where ``__pycache__`` cannot be written (here it is a file), the
    library is built in a private directory that is gone once loaded."""
    import tempfile

    package = tmp_path / "package"
    package.mkdir()
    source = package / "native.c"
    source.write_bytes(native._SOURCE.read_bytes())
    (package / "__pycache__").write_text("not a directory")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(native, "_SOURCE", source)
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert native._load() is not None
    assert sorted(p.name for p in package.iterdir()) == [
        "__pycache__", "native.c",
    ]
    assert list(private.iterdir()) == []


@needs_kernel
def test_failed_build_warns_and_runs_python_rounds(tmp_path, monkeypatch):
    source = tmp_path / "native.c"
    source.write_text("#error deliberately broken\n")
    monkeypatch.setattr(native, "_SOURCE", source)
    with pytest.warns(RuntimeWarning, match="deliberately broken"):
        assert native._load() is None
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_no_compiler_runs_python_rounds(monkeypatch):
    monkeypatch.setattr(cbuild, "compiler", lambda: None)
    assert native._load() is None


def test_values_beyond_64_bits_are_refused():
    test = LitmusTest(
        "wide", "", ((st_ins("x", 1 << 63), st_ins("y", 1)),
                     (ld("y", "r1"), ld("x", "r2"))),
        And(RegEq("r1", 1), RegEq("r2", 0)),
    )
    with pytest.raises(ValueError, match="64-bit"):
        _round_plan(LitmusInstance.layout(_CHIPS[0], test, 64))


@dataclass(frozen=True)
class _UnemulatedStress:
    """Tuned stress after draws the wrapper hands to numpy: a normal, a
    vector of integers and a ``uniform`` over an infinite range, which
    numpy refuses without drawing."""

    inner: TunedStress
    name: str = "unemulated"

    def build(self, profile, scratch_base, scratch_size, rng):
        rng.standard_normal()
        rng.integers(0, 5, size=3)
        with pytest.raises(OverflowError):
            rng.uniform(0.0, float("inf"))
        return self.inner.build(profile, scratch_base, scratch_size, rng)


@needs_kernel
def test_delegated_draws_match_python_rounds():
    for chip in _CHIPS:
        spec = _UnemulatedStress(TunedStress(shipped_params(chip.short_name)))
        instance = LitmusInstance.layout(chip, _LDST2[0], 2 * chip.patch_size)
        for randomise in (False, True):
            args = (chip, instance, spec, 13, randomise, 10)
            assert _traces(*args, python=False) == _traces(
                *args, python=True
            ), (chip.short_name, randomise)


def _fold_to(target: int, index: int) -> int:
    """A span seed whose ``derive_seed`` fold with ``index`` is
    ``target``: the fold's multiplier is odd, so it inverts."""
    mult = 6364136223846793005
    crc = zlib.crc32(repr(index).encode())
    return (target - crc - 1) * pow(mult, -1, 1 << 64) % (1 << 64)


@needs_kernel
def test_c_seeding_matches_numpy():
    """The seeded words are exactly the PCG64 state numpy seeds from
    ``derive_seed(span_seed, index)``, over 10,000 pairs: arbitrary
    seeds, indices up to 2**40, the fold 0 and folds below 2**32 (one
    32-bit entropy word)."""
    lib = native.kernel()
    gen = random.Random(28)
    pairs = [
        (gen.getrandbits(64), gen.randrange(1 << gen.choice((4, 20, 41))))
        for _ in range(7000)
    ]
    for index in (0, 1, 9, 10, 12345, (1 << 40) - 1, 1 << 40):
        pairs.append((_fold_to(0, index), index))
    for _ in range(3000):
        index = gen.randrange(1 << 40)
        pairs.append((_fold_to(gen.randrange(1 << 32), index), index))
    folds = [derive_seed(span_seed, index) for span_seed, index in pairs]
    assert folds.count(0) >= 7 and sum(f < 1 << 32 for f in folds) >= 3007
    stream = native.NativeStream(lib, 0)
    for span_seed, index in pairs:
        lib.repro_pcg64_seed(
            span_seed, index, stream.words, stream._raw, stream._dbuf, 0
        )
        state = np.random.default_rng(
            derive_seed(span_seed, index)
        ).bit_generator.state
        words = list(stream.words)
        assert (words[0] << 64 | words[1], words[2] << 64 | words[3]) == (
            state["state"]["state"], state["state"]["inc"],
        ), (span_seed, index)
        assert words[4:] == [0, 0]


def _refuse(*args, **kwargs):
    raise AssertionError("a numpy generator was built")


@needs_kernel
@pytest.mark.parametrize("randomise", (False, True))
def test_kernel_path_builds_no_numpy_generator(randomise, monkeypatch):
    chip = _CHIPS[0]
    spec = TunedStress(shipped_params(chip.short_name))
    instance = LitmusInstance.layout(chip, _LDST2[0], 2 * chip.patch_size)
    want = _litmus_span(chip, instance, spec, 5, randomise, 0, 200)
    for module, name in (
        (repro.rng, "make_rng"), (runner, "make_rng"),
        (np.random, "default_rng"), (np.random, "PCG64"),
        (np.random, "SeedSequence"),
    ):
        monkeypatch.setattr(module, name, _refuse)
    assert _litmus_span(chip, instance, spec, 5, randomise, 0, 200) == want
