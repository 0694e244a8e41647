"""Stressing strategies (paper Sec. 3 and Sec. 4.2).

Every strategy implements the *stress spec* protocol used by the litmus
runner and the application campaign::

    build(profile, scratch_base, scratch_size, rng) -> StressField
    stress_units(app_warps, rng) -> int   # scheduler dilution

``build`` is called once per execution, so randomised choices (number of
stressing threads, random spread locations) vary between runs exactly as
in the paper.

Stressing thread counts follow the paper's two regimes:

* litmus tuning — total threads between 50% and 100% of the chip's
  maximum resident threads (Sec. 3.2);
* application testing — stressing blocks between 15% and 50% of the
  application's blocks (Sec. 4.2), configured via ``threads_range``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..chips.profile import HardwareProfile
from ..errors import InvalidStressConfigError
from ..gpu.pressure import StressField
from .config import StressConfig

#: Mean sequence strength of uniformly random single accesses, as issued
#: by the rand-str strategy (a coin flip between one load and one store).
_RAND_STRENGTH = 0.5
#: Per-channel pressure exerted by walking an L2-sized scratchpad.
_CACHE_LEVEL = 0.26


def _sample_threads(
    profile: HardwareProfile,
    threads_range: tuple[int, int] | None,
    rng: np.random.Generator,
) -> int:
    if threads_range is None:
        lo = profile.max_resident_threads // 2
        hi = profile.max_resident_threads
    else:
        lo, hi = threads_range
    if hi <= lo:
        return max(lo, 1)
    return int(rng.integers(lo, hi + 1))


@dataclass(frozen=True)
class NoStress:
    """The ``no-str`` environment: run the application natively."""

    name: str = "no-str"

    def build(self, profile, scratch_base, scratch_size, rng) -> StressField:
        return StressField.zero(profile)

    def stress_units(self, app_warps: int, rng) -> int:
        return 0


@dataclass(frozen=True)
class FixedLocationStress:
    """Stress specific scratchpad offsets (tuning micro-benchmarks).

    This is the ⟨T_d, σ@l⟩ / ⟨T_d, σ@L⟩ shape from Sec. 3.2-3.4: the
    stressed locations are fixed, the thread count is random per run.
    """

    locations: tuple[int, ...]
    sequence: tuple[str, ...]
    threads_range: tuple[int, int] | None = None
    name: str = "fixed-str"

    def build(self, profile, scratch_base, scratch_size, rng) -> StressField:
        if any(loc < 0 or loc >= scratch_size for loc in self.locations):
            raise InvalidStressConfigError(
                f"stress locations {self.locations} outside scratchpad "
                f"of {scratch_size} words"
            )
        threads = _sample_threads(profile, self.threads_range, rng)
        return StressField.from_locations(
            profile,
            scratch_base,
            self.locations,
            profile.sequence_strength(self.sequence),
            threads,
        )

    def stress_units(self, app_warps: int, rng) -> int:
        return max(1, app_warps // 3)


@dataclass(frozen=True)
class TunedStress:
    """The ``sys-str`` strategy: per-chip tuned stressing (Sec. 3.5).

    Each execution stresses ``config.spread`` randomly chosen critical
    patch-sized regions of the scratchpad with the chip's most effective
    access sequence.
    """

    config: StressConfig
    threads_range: tuple[int, int] | None = None
    name: str = "sys-str"

    def build(self, profile, scratch_base, scratch_size, rng) -> StressField:
        regions = min(
            self.config.scratch_regions,
            scratch_size // self.config.patch_size,
        )
        if regions < self.config.spread:
            raise InvalidStressConfigError(
                f"scratchpad of {scratch_size} words has only {regions} "
                f"regions; spread {self.config.spread} impossible"
            )
        picks = rng.choice(regions, size=self.config.spread, replace=False)
        locations = [int(r) * self.config.patch_size for r in picks]
        threads = _sample_threads(profile, self.threads_range, rng)
        return StressField.from_locations(
            profile,
            scratch_base,
            locations,
            profile.sequence_strength(self.config.sequence),
            threads,
        )

    def stress_units(self, app_warps: int, rng) -> int:
        # Paper: stressing blocks are 15%-50% of the application blocks.
        frac = rng.uniform(0.15, 0.5)
        return max(1, int(round(frac * app_warps)))


@dataclass(frozen=True)
class RandomStress:
    """The ``rand-str`` strategy: random ops at random locations.

    Scatters accesses over the whole scratchpad, so no channel gets hot —
    the pressure is diffuse and mostly ineffective (paper Tab. 5).
    """

    threads_range: tuple[int, int] | None = None
    name: str = "rand-str"

    def build(self, profile, scratch_base, scratch_size, rng) -> StressField:
        threads = _sample_threads(profile, self.threads_range, rng)
        intensity = min(1.25, threads / 64.0)
        return StressField.diffuse(profile, _RAND_STRENGTH * intensity)

    def stress_units(self, app_warps: int, rng) -> int:
        frac = rng.uniform(0.15, 0.5)
        return max(1, int(round(frac * app_warps)))


@dataclass(frozen=True)
class CacheStress:
    """The ``cache-str`` strategy: walk an L2-sized scratchpad.

    Touches every channel at a moderate, even rate (cache thrashing);
    many hot channels means high dilution, so it is rarely effective —
    matching the paper's findings.
    """

    threads_range: tuple[int, int] | None = None
    name: str = "cache-str"

    def build(self, profile, scratch_base, scratch_size, rng) -> StressField:
        threads = _sample_threads(profile, self.threads_range, rng)
        level = _CACHE_LEVEL * min(1.0, threads / 128.0 + 0.5)
        return StressField.uniform(profile, level)

    def stress_units(self, app_warps: int, rng) -> int:
        frac = rng.uniform(0.15, 0.5)
        return max(1, int(round(frac * app_warps)))


#: Wire tags for the stress-spec codec, one per strategy class.
_SPEC_CLASSES = {
    "no": NoStress,
    "fixed": FixedLocationStress,
    "tuned": TunedStress,
    "random": RandomStress,
    "cache": CacheStress,
}
_SPEC_TAGS = {cls: tag for tag, cls in _SPEC_CLASSES.items()}


def _pair(value) -> tuple[int, int] | None:
    return None if value is None else (int(value[0]), int(value[1]))


def spec_to_json(spec) -> dict:
    """Serialise a stress spec to a JSON-safe dict.

    The codec exists so work units can cross process and machine
    boundaries as plain JSON (see :mod:`repro.parallel.plan`);
    :func:`spec_from_json` reconstructs a dataclass equal to the
    original, so seed-derived behaviour is identical on the far side.
    """
    try:
        tag = _SPEC_TAGS[type(spec)]
    except KeyError:
        raise InvalidStressConfigError(
            f"cannot serialise stress spec of type {type(spec).__name__}; "
            f"known: {', '.join(c.__name__ for c in _SPEC_TAGS)}"
        ) from None
    out: dict = {"type": tag}
    if isinstance(spec, FixedLocationStress):
        out["locations"] = list(spec.locations)
        out["sequence"] = list(spec.sequence)
    elif isinstance(spec, TunedStress):
        c = spec.config
        out["config"] = {
            "chip": c.chip,
            "patch_size": c.patch_size,
            "sequence": list(c.sequence),
            "spread": c.spread,
            "scratch_regions": c.scratch_regions,
        }
    if not isinstance(spec, NoStress) and spec.threads_range is not None:
        out["threads_range"] = list(spec.threads_range)
    return out


def spec_from_json(obj: dict):
    """Rebuild the stress spec serialised by :func:`spec_to_json`."""
    try:
        cls = _SPEC_CLASSES[obj["type"]]
    except (KeyError, TypeError):
        raise InvalidStressConfigError(
            f"malformed stress spec {obj!r}"
        ) from None
    if cls is NoStress:
        return NoStress()
    threads_range = _pair(obj.get("threads_range"))
    if cls is FixedLocationStress:
        return FixedLocationStress(
            locations=tuple(int(l) for l in obj["locations"]),
            sequence=tuple(str(s) for s in obj["sequence"]),
            threads_range=threads_range,
        )
    if cls is TunedStress:
        c = obj["config"]
        return TunedStress(
            config=StressConfig(
                chip=c["chip"],
                patch_size=c["patch_size"],
                sequence=tuple(str(s) for s in c["sequence"]),
                spread=c["spread"],
                scratch_regions=c["scratch_regions"],
            ),
            threads_range=threads_range,
        )
    return cls(threads_range=threads_range)


def with_threads_range(strategy, threads_range: tuple[int, int]):
    """Copy of ``strategy`` with an application-sized thread range."""
    if isinstance(strategy, NoStress):
        return strategy
    return replace(strategy, threads_range=threads_range)

