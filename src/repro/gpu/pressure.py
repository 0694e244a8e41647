"""Memory pressure exerted by stressing threads.

The paper's stressing threads hammer scratchpad locations that are
completely disjoint from the application's data, so their only coupling to
the application is through contention inside the memory subsystem.  We
model that coupling directly: a stress configuration is compiled into a
static per-channel *pressure field* for the duration of one execution
(stressing runs for at least the whole kernel in the paper, so a constant
field is the right steady-state picture).

Pressure on a channel raises the drain latency of stores to that channel
and the probability of cross-channel reordering (see
:mod:`repro.gpu.memory`).  The number of *hot* channels (pressure above
the chip's threshold) selects a turbulence multiplier — the mechanism
behind the paper's finding that stressing exactly two patch-sized regions
is optimal (Tab. 2, Fig. 4).

A field is immutable once built (``press`` is marked read-only), which is
what lets the hot path share it: the zero field is cached per chip, the
derived quantities (``turbulence``, ``press_bytes``) are computed at most
once per field, and :mod:`repro.gpu.memory` keys its probability-table
LRU on ``(chip, press_bytes, turbulence, weak_scale)``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from ..chips.profile import HardwareProfile

#: Stressing threads per location at which pressure saturates.
_THREADS_NORM = 16.0
#: Cap on per-channel pressure.
_PRESSURE_CAP = 1.8
#: Turbulence attainable by diffuse (sub-threshold) pressure.
_DIFFUSE_FACTOR = 0.15

#: Cached zero fields, keyed by chip identity (``no-str`` builds one per
#: execution; it never changes, so one shared read-only instance per
#: chip suffices).
_ZERO_FIELDS: dict[tuple, "StressField"] = {}

#: Interned fields, keyed by (chip, pressure shape).  Stress specs
#: rebuild their field every execution, but the pressure vector is a
#: function of a handful of discrete inputs (channel multiset and
#: per-location boost, or a uniform level), so whole grids revisit a few
#: dozen shapes; sharing the immutable instance also preserves its
#: cached ``turbulence``/``press_bytes`` and lets
#: ``MemorySystem.reset`` skip the table lookup on identity.
_FIELD_CACHE: "OrderedDict[tuple, StressField]" = OrderedDict()
_FIELD_CACHE_MAX = 512


def lru_get(cache: OrderedDict, key, build, maxsize: int):
    """Bounded-LRU lookup: return ``cache[key]``, building and
    inserting it on a miss and evicting the least recently used entry
    past ``maxsize`` (shared by the field and probability-table
    caches)."""
    value = cache.get(key)
    if value is None:
        cache[key] = value = build()
        if len(cache) > maxsize:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _interned(key: tuple, build) -> "StressField":
    return lru_get(_FIELD_CACHE, key, build, _FIELD_CACHE_MAX)


def _intensity(threads_per_location: float) -> float:
    """Thread-count saturation: beyond ~2 warps per location, extra
    stressing threads add no pressure (the access sequence's strength is
    what differentiates configurations, as in the paper's Tab. 3)."""
    return min(1.0, threads_per_location / _THREADS_NORM)


class StressField:
    """Static per-channel pressure for one execution."""

    def __init__(self, profile: HardwareProfile, press: np.ndarray):
        press = np.asarray(press, dtype=np.float64)
        if press.shape != (profile.n_channels,):
            raise ValueError(
                f"pressure array must have shape ({profile.n_channels},)"
            )
        self.profile = profile
        if press.min() < 0.0 or press.max() > _PRESSURE_CAP:
            press = np.clip(press, 0.0, _PRESSURE_CAP)
        elif press.flags.writeable:
            # Own a copy rather than freezing the caller's array in
            # place; already-read-only inputs (interned fields) are
            # shared as-is.
            press = press.copy()
        press.setflags(write=False)
        self.press = press

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, profile: HardwareProfile) -> "StressField":
        """No stress (the paper's ``no-str`` environment)."""
        field = _ZERO_FIELDS.get(profile.cache_token)
        if field is None:
            field = cls(profile, np.zeros(profile.n_channels))
            _ZERO_FIELDS[profile.cache_token] = field
        return field

    @classmethod
    def from_locations(
        cls,
        profile: HardwareProfile,
        scratchpad_base: int,
        locations: Iterable[int],
        sequence_strength: float,
        n_stress_threads: int,
    ) -> "StressField":
        """Pressure from targeted stressing (the ``sys-str`` shape).

        ``locations`` are word offsets into the scratchpad; the stressing
        threads are divided evenly between them (paper Sec. 3.4).
        """
        locations = list(locations)
        if not locations or n_stress_threads <= 0:
            return cls.zero(profile)
        per_location = n_stress_threads / len(locations)
        # Stressing warps share issue bandwidth: every additional
        # simultaneously stressed region dilutes the pressure each
        # one exerts (this is what bends the paper's Fig. 4 curves
        # back down after the optimum).
        sharing = 1.0 / (1.0 + 0.35 * (len(locations) - 1))
        boost = sequence_strength * _intensity(per_location) * sharing
        # The field depends only on the channel multiset and the boost
        # (repeated same-value adds are order-independent), so intern.
        channels = sorted(
            profile.channel(scratchpad_base + loc) for loc in locations
        )
        key = (profile.cache_token, tuple(channels), boost)

        def build():
            press = np.zeros(profile.n_channels)
            for ch in channels:
                press[ch] += boost
            return cls(profile, press)

        return _interned(key, build)

    @classmethod
    def uniform(
        cls, profile: HardwareProfile, level: float
    ) -> "StressField":
        """Equal pressure on every channel (the ``cache-str`` shape).

        An L2-sized scratchpad walked by every stressing block touches
        every channel at a moderate, even rate.
        """
        return _interned(
            (profile.cache_token, "uniform", level),
            lambda: cls(profile, np.full(profile.n_channels, level)),
        )

    @classmethod
    def diffuse(
        cls, profile: HardwareProfile, total: float
    ) -> "StressField":
        """Total pressure spread thinly (the ``rand-str`` shape).

        Random single-word accesses scatter over all channels, so no
        channel individually gets hot.
        """
        level = total / profile.n_channels
        return _interned(
            (profile.cache_token, "uniform", level),
            lambda: cls(profile, np.full(profile.n_channels, level)),
        )

    # ------------------------------------------------------------------
    # derived quantities (computed at most once per immutable field)
    # ------------------------------------------------------------------
    @cached_property
    def press_bytes(self) -> bytes:
        """Raw pressure vector — the hashable part of cache keys."""
        return self.press.tobytes()

    @cached_property
    def hot_channels(self) -> int:
        """Channels whose pressure exceeds the chip threshold."""
        return int(np.sum(self.press > self.profile.pressure_threshold))

    @cached_property
    def turbulence(self) -> float:
        """Reordering multiplier induced by this field (see module doc)."""
        hot = self.hot_channels
        if hot > 0:
            return self.profile.turbulence(hot)
        total = float(self.press.sum())
        if total <= 0.0:
            return 0.0
        saturation = self.profile.pressure_threshold * self.profile.n_channels
        return _DIFFUSE_FACTOR * min(1.0, total / saturation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cells = ", ".join(f"{p:.2f}" for p in self.press)
        return f"StressField({self.profile.short_name}, [{cells}])"
