"""Hardware profiles: hidden weak-memory personality of each GPU.

A :class:`HardwareProfile` plays the role of the physical silicon in the
paper.  It encodes, per chip:

* memory geometry — the *critical patch size* (words per channel block,
  which the paper's Sec. 3.2 micro-benchmarks discover empirically; 128 or
  256 bytes, i.e. 32 or 64 words, on real Nvidia parts), the number of
  memory channels, SM count and occupancy limits;
* weak-memory behaviour — baseline reordering probabilities, per-channel
  stress sensitivity, the chip's response to stressing access sequences
  and to the number of simultaneously stressed regions;
* timing and power — clock rate, fence stall cost, idle/active power.

Nothing outside :mod:`repro.gpu` and :mod:`repro.chips` should reach into
these fields: the experiment layers interact with a chip only by running
simulated programs, preserving the paper's black-box methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..rng import make_rng

#: Kinds of memory access a stressing sequence may contain.
ACCESS_KINDS = ("ld", "st")


@dataclass(frozen=True)
class HardwareProfile:
    """Hidden silicon model for one GPU (see module docstring)."""

    # -- identity (paper Table 1) -------------------------------------
    name: str
    short_name: str
    architecture: str
    released: int

    # -- memory geometry ----------------------------------------------
    patch_size: int
    n_channels: int
    n_sms: int
    max_resident_threads: int
    l2_words: int
    store_buffer_capacity: int

    # -- weak-memory behaviour ----------------------------------------
    seed: int
    reorder_base: float
    store_swap_leak: float
    store_store_min_distance: int
    load_delay_base: float
    reorder_gain: float
    load_delay_gain: float
    latency_gain: float
    cross_channel_weight: float
    pressure_threshold: float
    turbulence_factors: tuple[float, ...]
    best_sequence: tuple[str, ...]
    sequence_affinity: float
    sensitivity_floor: float
    app_bias: dict[str, float] = field(default_factory=dict)

    # -- timing / power -------------------------------------------------
    clock_ghz: float = 0.8
    fence_stall_cycles: int = 12
    idle_watts: float = 30.0
    active_watts: float = 110.0
    supports_power: bool = False

    def __post_init__(self) -> None:
        # Precompute the address→channel arithmetic.  With power-of-two
        # patch sizes and channel counts the mapping reduces to a shift
        # and a mask; the Fermi chips (C2075, C2050) have 6 channels and
        # take the division form on every address.
        # (``object.__setattr__`` because the dataclass is frozen.)
        if _is_pow2(self.patch_size) and _is_pow2(self.n_channels):
            shift = self.patch_size.bit_length() - 1
            mask = self.n_channels - 1
        else:
            shift = None
            mask = None
        object.__setattr__(self, "channel_shift", shift)
        object.__setattr__(self, "channel_mask", mask)
        # Hashable identity token for caches keyed by the chip's
        # weak-memory personality (see repro.gpu.memory's table cache).
        # The profile itself is unhashable (``app_bias`` is a dict).
        object.__setattr__(
            self,
            "cache_token",
            (
                self.name,
                self.short_name,
                self.seed,
                self.patch_size,
                self.n_channels,
                self.n_sms,
                self.sensitivity_floor,
                self.reorder_base,
                self.store_swap_leak,
                self.store_store_min_distance,
                self.load_delay_base,
                self.reorder_gain,
                self.load_delay_gain,
                self.latency_gain,
                self.cross_channel_weight,
                self.pressure_threshold,
                self.turbulence_factors,
            ),
        )

    # ------------------------------------------------------------------
    # memory geometry helpers
    # ------------------------------------------------------------------
    def channel(self, addr: int) -> int:
        """Map a word address to its memory channel.

        Addresses within one critical-patch-sized block share a channel,
        which is what makes the paper's "patches" emerge: stressing any
        location of a patch pressures the same channel.
        """
        if self.channel_shift is not None:
            return (addr >> self.channel_shift) & self.channel_mask
        return (addr // self.patch_size) % self.n_channels

    @property
    def sensitivity(self) -> np.ndarray:
        """Per-channel stress sensitivity in ``[0, 1]``.

        Some channels are nearly insensitive (the silent patches visible
        in the paper's Fig. 3); the pattern is a fixed function of the
        chip's personality seed.
        """
        return _sensitivity_array(
            self.seed, self.n_channels, self.sensitivity_floor
        )

    # ------------------------------------------------------------------
    # stress response
    # ------------------------------------------------------------------
    def sequence_strength(self, seq: tuple[str, ...]) -> float:
        """Stress intensity multiplier for an access sequence.

        Encodes the paper's Sec. 3.3 observations: store-only sequences
        are nearly useless, mixed load/store sequences are strong, each
        chip has a microarchitectural preference peaking at its Tab. 2
        sequence, and sequences equivalent under rotation may behave
        differently (position-dependent jitter).
        """
        return _sequence_strength(
            self.seed, self.best_sequence, self.sequence_affinity, seq
        )

    def turbulence(self, n_hot_channels: int) -> float:
        """Reordering multiplier given the number of congested channels.

        Encodes the spread response of Sec. 3.4: arbitration between
        exactly two hot channels maximises reordering; more hot channels
        spread traffic too thin, a single hot channel is less effective,
        and with none only the native leak remains.
        """
        idx = min(n_hot_channels, len(self.turbulence_factors) - 1)
        return self.turbulence_factors[idx]

    def app_sensitivity(self, app_name: str) -> float:
        """Per-application bias of this chip (silicon personality)."""
        return self.app_bias.get(app_name, 1.0)

    # ------------------------------------------------------------------
    # timing / power helpers
    # ------------------------------------------------------------------
    def ticks_to_ms(self, ticks: int) -> float:
        """Convert engine ticks to (modelled) kernel milliseconds."""
        return ticks / (self.clock_ghz * 1.0e4)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@lru_cache(maxsize=4096)
def _sequence_strength(
    seed: int,
    best: tuple[str, ...],
    affinity: float,
    seq: tuple[str, ...],
) -> float:
    """Memoized body of :meth:`HardwareProfile.sequence_strength`.

    A pure function of the chip personality and the sequence; the jitter
    draws from its own derived stream, so memoization cannot perturb any
    experiment stream.  Stressing strategies call this once per litmus
    execution, which made it a measurable hot-path constant.
    """
    if not seq or any(kind not in ACCESS_KINDS for kind in seq):
        raise ValueError(f"invalid access sequence {seq!r}")
    n_ld = sum(1 for kind in seq if kind == "ld")
    n_st = len(seq) - n_ld
    if n_ld == 0:
        base = 0.012 + 0.002 * n_st
    elif n_st == 0:
        base = 0.28 + 0.02 * n_ld
    else:
        base = 0.62 + 0.22 * min(n_ld, n_st) / len(seq)
    bonus = 0.0
    if seq == best:
        bonus = affinity
    elif _is_rotation(seq, best):
        bonus = 0.35 * affinity
    elif sorted(seq) == sorted(best):
        bonus = 0.22 * affinity
    prefix = _common_prefix(seq, best)
    bonus += 0.015 * prefix
    jitter = make_rng(seed, "seq", seq).uniform(-0.025, 0.025)
    return max(base + bonus + jitter, 0.001)


def _is_rotation(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(doubled[i : i + len(a)] == a for i in range(len(b)))


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


@lru_cache(maxsize=None)
def _sensitivity_array(
    seed: int, n_channels: int, floor: float
) -> np.ndarray:
    rng = make_rng(seed, "channel-sensitivity")
    raw = rng.uniform(0.0, 1.0, n_channels)
    # Channels below the floor are nearly (not exactly) insensitive:
    # the silent patches of Fig. 3 sit at the noise level, not at zero.
    sens = np.where(raw < floor, 0.05, np.maximum(raw, 0.45))
    if np.count_nonzero(sens > 0.1) < 2:
        # Guarantee at least two responsive channels so stressing is
        # always able to find an effective patch.
        sens[int(np.argmax(raw))] = max(raw.max(), 0.6)
        sens[(int(np.argmax(raw)) + 1) % n_channels] = 0.55
    sens.setflags(write=False)
    return sens
