"""The litmus-test registry: the paper's MP/LB/SB triple (Fig. 2) plus
fenced variants, coherence tests and 3/4-thread idioms.

Every test is an instance of :class:`LitmusTest` over the declarative IR
of :mod:`repro.litmus.ir`: N thread programs of ``st``/``ld``/``fence``/
``rmw`` instructions over named locations, and a declarative forbidden
outcome (register/location equalities under conjunction/disjunction)
instead of an opaque callable.  The predicate is compiled from the
condition at evaluation time, so tests remain pure picklable values and
cross process boundaries when campaigns are sharded (repro.parallel).

``TUNING_TESTS`` pins the Sec. 3 tuning pipeline to the paper's original
MP/LB/SB triple — the tuning tables and golden statistics are invariant
under registry growth.  ``ALL_TESTS`` is the full family.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from .ir import (
    And,
    RegEq,
    LocEq,
    compile_condition,
    condition_locations,
    fence,
    format_condition,
    ld,
    st,
    validate_test,
)

_EMPTY_FINAL: dict = {}

Instruction = tuple
Program = tuple[Instruction, ...]


@dataclass(frozen=True)
class LitmusTest:
    """An N-thread litmus test with a declarative forbidden outcome."""

    name: str
    description: str
    threads: tuple[Program, ...]
    forbidden: object

    def __post_init__(self) -> None:
        validate_test(self)

    # Pickle only the declarative fields: the cached derived structure
    # (including the compiled predicate closure) is rebuilt on demand,
    # so tests stay pure data values across process boundaries.
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    # -- derived structure ---------------------------------------------
    @cached_property
    def registers(self) -> tuple[str, ...]:
        """Registers written by loads/rmws, in program order."""
        regs = []
        for program in self.threads:
            for ins in program:
                if ins[0] in ("ld", "rmw"):
                    regs.append(ins[2])
        return tuple(regs)

    @cached_property
    def locations(self) -> tuple[str, ...]:
        """Locations in first-appearance order; index 0 is ``x`` (laid
        out at the base of the communication area), index ``i`` sits
        ``i * max(distance, 1)`` words above it (the paper's T_d
        layout, generalised to three or more locations)."""
        locs = []
        for program in self.threads:
            for ins in program:
                if ins[0] != "fence" and ins[1] not in locs:
                    locs.append(ins[1])
        return tuple(locs)

    @cached_property
    def written_locations(self) -> tuple[str, ...]:
        """Locations some ``st``/``rmw`` writes: the locations whose
        final value a state key records.  Every state key sorts its
        items, so the order here is immaterial."""
        written = {
            ins[1]
            for program in self.threads
            for ins in program
            if ins[0] in ("st", "rmw")
        }
        return tuple(loc for loc in self.locations if loc in written)

    @cached_property
    def condition_locations(self) -> tuple[str, ...]:
        """Locations whose final value the forbidden outcome queries."""
        return tuple(
            loc
            for loc in self.locations
            if loc in condition_locations(self.forbidden)
        )

    @cached_property
    def _predicate(self):
        return compile_condition(self.forbidden)

    def weak(self, regs: dict, final: dict | None = None) -> bool:
        """The forbidden-outcome predicate, compiled from the condition."""
        if final is None:
            if self.condition_locations:
                raise ValueError(
                    f"{self.name}'s condition references final location "
                    "values; pass the final memory valuation"
                )
            final = _EMPTY_FINAL
        return self._predicate(regs, final)

    def pretty(self) -> str:
        """One-line program + condition rendering for listings."""
        progs = " || ".join(
            "; ".join(
                ":".join(str(part) for part in ins) for ins in program
            )
            for program in self.threads
        )
        return f"{progs}  forbid({format_condition(self.forbidden)})"


# ----------------------------------------------------------------------
# the family
# ----------------------------------------------------------------------
MP = LitmusTest(
    name="MP",
    description=(
        "Message passing: T1 writes data x then flag y; T2 reads flag "
        "then data.  Weak: flag observed set but data stale."
    ),
    threads=(
        (st("x", 1), st("y", 1)),
        (ld("y", "r1"), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 0)),
)

LB = LitmusTest(
    name="LB",
    description=(
        "Load buffering: each thread loads one location then stores the "
        "other.  Weak: both loads observe the other thread's store."
    ),
    threads=(
        (ld("x", "r1"), st("y", 1)),
        (ld("y", "r2"), st("x", 1)),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 1)),
)

SB = LitmusTest(
    name="SB",
    description=(
        "Store buffering: each thread stores one location then loads the "
        "other.  Weak: both loads miss the other thread's store."
    ),
    threads=(
        (st("x", 1), ld("y", "r1")),
        (st("y", 1), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 0), RegEq("r2", 0)),
)

MP_F0 = LitmusTest(
    name="MP-F0",
    description=(
        "MP with a fence between the writer's data and flag stores; the "
        "read side stays unfenced, so stale reads remain possible."
    ),
    threads=(
        (st("x", 1), fence(), st("y", 1)),
        (ld("y", "r1"), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 0)),
)

MP_F1 = LitmusTest(
    name="MP-F1",
    description=(
        "MP with a fence between the reader's flag and data loads; the "
        "write side stays unfenced, so write reordering remains possible."
    ),
    threads=(
        (st("x", 1), st("y", 1)),
        (ld("y", "r1"), fence(), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 0)),
)

MP_FF = LitmusTest(
    name="MP-FF",
    description=(
        "MP fully fenced on both sides — the paper's repair; the weak "
        "outcome should vanish."
    ),
    threads=(
        (st("x", 1), fence(), st("y", 1)),
        (ld("y", "r1"), fence(), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 0)),
)

LB_FF = LitmusTest(
    name="LB-FF",
    description="LB with a fence between each thread's load and store.",
    threads=(
        (ld("x", "r1"), fence(), st("y", 1)),
        (ld("y", "r2"), fence(), st("x", 1)),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 1)),
)

SB_FF = LitmusTest(
    name="SB-FF",
    description="SB with a fence between each thread's store and load.",
    threads=(
        (st("x", 1), fence(), ld("y", "r1")),
        (st("y", 1), fence(), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 0), RegEq("r2", 0)),
)

CoRR = LitmusTest(
    name="CoRR",
    description=(
        "Coherence, read-read: two program-ordered loads of one location "
        "must not observe its writes out of order."
    ),
    threads=(
        (st("x", 1),),
        (ld("x", "r1"), ld("x", "r2")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 0)),
)

CoWW = LitmusTest(
    name="CoWW",
    description=(
        "Coherence, write-write: two program-ordered stores to one "
        "location must commit in order (the final value is the last)."
    ),
    threads=((st("x", 1), st("x", 2)),),
    forbidden=LocEq("x", 1),
)

R = LitmusTest(
    name="R",
    description=(
        "Store-order test R: writer stores x then y; rival stores y "
        "then reads x.  Weak: rival's y wins yet its read misses x."
    ),
    threads=(
        (st("x", 1), st("y", 1)),
        (st("y", 2), ld("x", "r1")),
    ),
    forbidden=And(LocEq("y", 2), RegEq("r1", 0)),
)

S = LitmusTest(
    name="S",
    description=(
        "Store-order test S: writer stores x=2 then flag y; rival reads "
        "the flag then stores x=1.  Weak: flag seen yet x=2 survives."
    ),
    threads=(
        (st("x", 2), st("y", 1)),
        (ld("y", "r1"), st("x", 1)),
    ),
    forbidden=And(LocEq("x", 2), RegEq("r1", 1)),
)

W2PLUS2 = LitmusTest(
    name="2+2W",
    description=(
        "Two threads each store both locations in opposite orders.  "
        "Weak: both locations retain the respective *first* store."
    ),
    threads=(
        (st("x", 1), st("y", 2)),
        (st("y", 1), st("x", 2)),
    ),
    forbidden=And(LocEq("x", 1), LocEq("y", 1)),
)

WRC = LitmusTest(
    name="WRC",
    description=(
        "Write-to-read causality (3 threads): T2 forwards T1's write via "
        "y; T3 sees the flag but misses the original write."
    ),
    threads=(
        (st("x", 1),),
        (ld("x", "r1"), st("y", 1)),
        (ld("y", "r2"), ld("x", "r3")),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 1), RegEq("r3", 0)),
)

IRIW = LitmusTest(
    name="IRIW",
    description=(
        "Independent reads of independent writes (4 threads): two "
        "readers observe two unrelated writes in opposite orders."
    ),
    threads=(
        (st("x", 1),),
        (st("y", 1),),
        (ld("x", "r1"), ld("y", "r2")),
        (ld("y", "r3"), ld("x", "r4")),
    ),
    forbidden=And(
        RegEq("r1", 1), RegEq("r2", 0), RegEq("r3", 1), RegEq("r4", 0)
    ),
)

LB3 = LitmusTest(
    name="3.LB",
    description=(
        "Three-thread load buffering ring: each thread loads one "
        "location and stores the next.  Weak: all three loads observe "
        "the future."
    ),
    threads=(
        (ld("x", "r1"), st("y", 1)),
        (ld("y", "r2"), st("z", 1)),
        (ld("z", "r3"), st("x", 1)),
    ),
    forbidden=And(RegEq("r1", 1), RegEq("r2", 1), RegEq("r3", 1)),
)

#: The paper's original triple; the Sec. 3 tuning pipeline is pinned to
#: these (and only these) so its tables and golden statistics are
#: invariant under registry growth.
TUNING_TESTS = (MP, LB, SB)

#: The full registry, tuning triple first.
ALL_TESTS = (
    MP,
    LB,
    SB,
    MP_F0,
    MP_F1,
    MP_FF,
    LB_FF,
    SB_FF,
    CoRR,
    CoWW,
    R,
    S,
    W2PLUS2,
    WRC,
    IRIW,
    LB3,
)

#: Base test of each fenced variant (used by tests and reporting to
#: check that fences strictly reduce weak rates).
FENCED_VARIANTS = {
    "MP-F0": "MP",
    "MP-F1": "MP",
    "MP-FF": "MP",
    "LB-FF": "LB",
    "SB-FF": "SB",
}

_BY_NAME = {t.name.upper(): t for t in ALL_TESTS}

#: Separator punctuation that varies between shells, filters and papers
#: (``2+2W`` vs ``2.2W`` vs ``2-2W``); lookup treats them all alike.
_SEPARATORS = str.maketrans("", "", "+.-")


def _canon(name: str) -> str:
    """Case-folded name with separator punctuation removed."""
    return name.upper().translate(_SEPARATORS)


_BY_CANON: dict[str, LitmusTest] = {}
for _test in ALL_TESTS:
    _key = _canon(_test.name)
    if _key in _BY_CANON:
        raise AssertionError(
            f"litmus registry names {_BY_CANON[_key].name!r} and "
            f"{_test.name!r} collide under punctuation-insensitive lookup"
        )
    _BY_CANON[_key] = _test


def test_names() -> tuple[str, ...]:
    """Canonical registry names, in registry order."""
    return tuple(t.name for t in ALL_TESTS)


def get_test(name: str) -> LitmusTest:
    """Look up a registered test by name.

    Lookup is case-insensitive and tolerant of the separator
    punctuation the family names carry: ``2.2w``, ``2-2w`` and ``22w``
    all resolve to ``2+2W``, and ``3lb`` to ``3.LB``.
    """
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        pass
    try:
        return _BY_CANON[_canon(name)]
    except KeyError:
        raise ValueError(
            f"unknown litmus test {name!r}; choose from "
            f"{list(test_names())}"
        ) from None
