"""The declarative litmus intermediate representation.

A litmus test is a tuple of short thread *programs* over named
communication locations plus a declarative *forbidden outcome* — the
final register/location valuation that sequential consistency rules out
but weak machines may exhibit.  Instructions are plain tuples and
conditions are frozen dataclasses, so every test is a pure picklable
value: tests cross process boundaries unchanged when litmus campaigns
are sharded (see :mod:`repro.parallel`), and the same description drives
both execution backends (the direct memory-system fast path in
:mod:`repro.litmus.runner` and the compiled SIMT-engine path in
:mod:`repro.litmus.compile`) as well as the brute-force SC enumerator in
:mod:`repro.litmus.sc`.

Instructions (``loc`` is a location name such as ``"x"``; ``reg`` a
register name such as ``"r1"``)::

    ("st", loc, value)        store ``value`` to ``loc``
    ("ld", loc, reg)          load ``loc`` into ``reg``
    ("fence",)                device fence: order prior accesses
    ("rmw", loc, reg, value)  atomic exchange: ``reg`` <- old, loc <- value

Conditions are built from :class:`RegEq` / :class:`LocEq` leaves joined
by :class:`And` / :class:`Or`; :func:`evaluate` interprets a condition
over a final register file and memory valuation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConditionTooLargeError

#: Instruction mnemonics (shared with :mod:`repro.gpu.events` where the
#: compiled backend reuses the same strings for engine ops).
I_STORE = "st"
I_LOAD = "ld"
I_FENCE = "fence"
I_RMW = "rmw"

_KNOWN = frozenset((I_STORE, I_LOAD, I_FENCE, I_RMW))


def st(loc: str, value: int) -> tuple:
    """``("st", loc, value)`` — store ``value`` to ``loc``."""
    return (I_STORE, loc, value)


def ld(loc: str, reg: str) -> tuple:
    """``("ld", loc, reg)`` — load ``loc`` into ``reg``."""
    return (I_LOAD, loc, reg)


def fence() -> tuple:
    """``("fence",)`` — device fence."""
    return (I_FENCE,)


def rmw(loc: str, reg: str, value: int) -> tuple:
    """``("rmw", loc, reg, value)`` — atomic exchange."""
    return (I_RMW, loc, reg, value)


# ----------------------------------------------------------------------
# forbidden-outcome conditions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegEq:
    """``reg == value`` over the final register file."""

    reg: str
    value: int


@dataclass(frozen=True)
class LocEq:
    """``loc == value`` over final (flushed) memory."""

    loc: str
    value: int


@dataclass(frozen=True)
class And:
    """Conjunction of sub-conditions."""

    terms: tuple

    def __init__(self, *terms):
        # Accept And(a, b, c) while keeping the dataclass frozen/hashable.
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Or:
    """Disjunction of sub-conditions."""

    terms: tuple

    def __init__(self, *terms):
        object.__setattr__(self, "terms", tuple(terms))


Condition = object  # RegEq | LocEq | And | Or


def evaluate(cond, regs: dict, final: dict | None = None) -> bool:
    """Interpret ``cond`` over registers and final memory values.

    ``final`` maps location names to their post-run committed values; it
    may be omitted for conditions that never mention locations (the
    common register-only case).
    """
    if isinstance(cond, RegEq):
        return regs.get(cond.reg, 0) == cond.value
    if isinstance(cond, LocEq):
        if final is None:
            raise ValueError(
                f"condition references location {cond.loc!r} but no "
                "final memory valuation was supplied"
            )
        return final.get(cond.loc, 0) == cond.value
    if isinstance(cond, And):
        return all(evaluate(t, regs, final) for t in cond.terms)
    if isinstance(cond, Or):
        return any(evaluate(t, regs, final) for t in cond.terms)
    raise TypeError(f"not a condition: {cond!r}")


def compile_condition(cond):
    """Compile a condition into a fast ``f(regs, final) -> bool`` closure.

    Draw-free and semantically identical to :func:`evaluate` (with a
    supplied ``final``); the litmus runner evaluates the forbidden
    outcome once per round — hundreds of millions of times in a tuning
    campaign — so the recursive interpreter is folded away up front.
    The closure is rebuilt per process and never pickled; the test
    itself stays a pure data value.
    """
    if isinstance(cond, RegEq):
        reg, value = cond.reg, cond.value
        return lambda regs, final: regs.get(reg, 0) == value
    if isinstance(cond, LocEq):
        loc, value = cond.loc, cond.value
        return lambda regs, final: final.get(loc, 0) == value
    if isinstance(cond, And):
        fns = tuple(compile_condition(t) for t in cond.terms)
        if len(fns) == 2:
            f0, f1 = fns
            return lambda regs, final: f0(regs, final) and f1(regs, final)
        return lambda regs, final: all(f(regs, final) for f in fns)
    if isinstance(cond, Or):
        fns = tuple(compile_condition(t) for t in cond.terms)
        if len(fns) == 2:
            f0, f1 = fns
            return lambda regs, final: f0(regs, final) or f1(regs, final)
        return lambda regs, final: any(f(regs, final) for f in fns)
    raise TypeError(f"not a condition: {cond!r}")


#: Conjunctions :func:`condition_dnf` may produce before it refuses.
DNF_MAX_TERMS = 4096


def condition_dnf(cond) -> tuple:
    """``cond`` in disjunctive normal form: a tuple of conjunctions, each
    a tuple of :class:`RegEq`/:class:`LocEq` leaves.

    The condition holds exactly when every leaf of some conjunction
    holds, reading an absent register or location as 0, as
    :func:`evaluate` does; ``And()`` is one empty conjunction (true) and
    ``Or()`` none (false).  A condition whose form would exceed
    ``DNF_MAX_TERMS`` conjunctions raises
    :class:`~repro.errors.ConditionTooLargeError`; it is never
    truncated.
    """
    if isinstance(cond, (RegEq, LocEq)):
        return ((cond,),)
    if isinstance(cond, Or):
        out: list = []
        for term in cond.terms:
            out.extend(condition_dnf(term))
            if len(out) > DNF_MAX_TERMS:
                raise ConditionTooLargeError(
                    format_condition(cond), DNF_MAX_TERMS
                )
        return tuple(out)
    if isinstance(cond, And):
        out = [()]
        for term in cond.terms:
            sub = condition_dnf(term)
            if len(out) * len(sub) > DNF_MAX_TERMS:
                raise ConditionTooLargeError(
                    format_condition(cond), DNF_MAX_TERMS
                )
            out = [a + b for a in out for b in sub]
        return tuple(out)
    raise TypeError(f"not a condition: {cond!r}")


def condition_registers(cond) -> frozenset:
    """Register names a condition mentions."""
    if isinstance(cond, RegEq):
        return frozenset((cond.reg,))
    if isinstance(cond, LocEq):
        return frozenset()
    return frozenset().union(
        *(condition_registers(t) for t in cond.terms)
    )


def condition_locations(cond) -> frozenset:
    """Location names a condition mentions (final-value queries)."""
    if isinstance(cond, LocEq):
        return frozenset((cond.loc,))
    if isinstance(cond, RegEq):
        return frozenset()
    return frozenset().union(
        *(condition_locations(t) for t in cond.terms)
    )


def format_condition(cond) -> str:
    """Human-readable rendering, litmus-style: ``r1=1 & r2=0``."""
    if isinstance(cond, RegEq):
        return f"{cond.reg}={cond.value}"
    if isinstance(cond, LocEq):
        return f"[{cond.loc}]={cond.value}"
    if isinstance(cond, And):
        return " & ".join(format_condition(t) for t in cond.terms)
    joined = " | ".join(format_condition(t) for t in cond.terms)
    return f"({joined})"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_program(program: tuple) -> None:
    """Raise ``ValueError`` for a malformed thread program."""
    for ins in program:
        if not isinstance(ins, tuple) or not ins:
            raise ValueError(f"instruction must be a non-empty tuple: {ins!r}")
        kind = ins[0]
        if kind not in _KNOWN:
            raise ValueError(
                f"unknown instruction kind {kind!r}; "
                f"choose from {sorted(_KNOWN)}"
            )
        arity = {I_STORE: 3, I_LOAD: 3, I_FENCE: 1, I_RMW: 4}[kind]
        if len(ins) != arity:
            raise ValueError(
                f"{kind!r} instruction takes {arity - 1} operands: {ins!r}"
            )


def validate_test(test) -> None:
    """Structural checks shared by the registry and user-built tests.

    * every thread program is well formed;
    * register names are unique across threads (the final register file
      is one flat namespace, as in the paper's generated CUDA tests);
    * the forbidden condition only mentions registers written by some
      ``ld``/``rmw`` and locations touched by some instruction.
    """
    if not test.threads:
        raise ValueError(f"litmus test {test.name!r} has no threads")
    seen_regs: set = set()
    for program in test.threads:
        validate_program(program)
        for ins in program:
            if ins[0] in (I_LOAD, I_RMW):
                reg = ins[2]
                if reg in seen_regs:
                    raise ValueError(
                        f"register {reg!r} written by two threads in "
                        f"{test.name!r}"
                    )
                seen_regs.add(reg)
    unknown_regs = condition_registers(test.forbidden) - seen_regs
    if unknown_regs:
        raise ValueError(
            f"condition of {test.name!r} mentions unwritten registers "
            f"{sorted(unknown_regs)}"
        )
    unknown_locs = condition_locations(test.forbidden) - set(test.locations)
    if unknown_locs:
        raise ValueError(
            f"condition of {test.name!r} mentions untouched locations "
            f"{sorted(unknown_locs)}"
        )
