"""Property-based tests for the declarative litmus IR.

Random well-formed programs must validate, and the condition
evaluators — the recursive :func:`~repro.litmus.ir.evaluate`
interpreter, the :func:`~repro.litmus.ir.compile_condition` closure
the hot loops use and the :func:`~repro.litmus.ir.condition_dnf` form
the native litmus kernel evaluates — must agree on every final state.  Hypothesis drives
both: the generator below builds arbitrary multi-thread programs with
globally unique registers and forbidden conditions drawn only from
written registers and touched locations, exactly the well-formedness
contract :func:`~repro.litmus.ir.validate_test` enforces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConditionTooLargeError
from repro.litmus.ir import (
    DNF_MAX_TERMS,
    And,
    LocEq,
    Or,
    RegEq,
    compile_condition,
    condition_dnf,
    condition_locations,
    condition_registers,
    evaluate,
    fence,
    format_condition,
    ld,
    rmw,
    st as st_ins,
    validate_test,
)
from repro.litmus.tests import LitmusTest

_LOCS = ("x", "y", "z", "w")
_VALUES = st.integers(0, 3)


@st.composite
def programs(draw):
    """Thread programs with globally unique registers.

    Returns ``(threads, written_regs, touched_locs)``; the register
    counter is global so the one-flat-namespace invariant holds by
    construction.
    """
    n_threads = draw(st.integers(1, 4))
    threads = []
    written = []
    touched = set()
    counter = 0
    for _ in range(n_threads):
        n_ins = draw(st.integers(1, 4))
        program = []
        for _ in range(n_ins):
            kind = draw(st.sampled_from(("st", "ld", "fence", "rmw")))
            if kind == "fence":
                program.append(fence())
                continue
            loc = draw(st.sampled_from(_LOCS))
            touched.add(loc)
            if kind == "st":
                program.append(st_ins(loc, draw(_VALUES)))
                continue
            counter += 1
            reg = f"r{counter}"
            written.append(reg)
            if kind == "ld":
                program.append(ld(loc, reg))
            else:
                program.append(rmw(loc, reg, draw(_VALUES)))
        threads.append(tuple(program))
    return tuple(threads), tuple(written), tuple(sorted(touched))


@st.composite
def conditions(draw, regs, locs):
    """A random condition over the given registers and locations."""
    leaves = []
    if regs:
        leaves.append(
            st.builds(RegEq, st.sampled_from(regs), _VALUES)
        )
    if locs:
        leaves.append(
            st.builds(LocEq, st.sampled_from(locs), _VALUES)
        )
    leaf = st.one_of(*leaves)
    cond = st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(
                lambda terms: And(*terms),
                st.lists(children, min_size=1, max_size=3),
            ),
            st.builds(
                lambda terms: Or(*terms),
                st.lists(children, min_size=1, max_size=3),
            ),
        ),
        max_leaves=8,
    )
    return draw(cond)


@st.composite
def well_formed_tests(draw):
    threads, regs, locs = draw(programs())
    # A test needs at least one observable: retry via filter otherwise.
    if not regs and not locs:
        threads = threads[:-1] + (threads[-1] + (st_ins("x", 1),),)
        locs = ("x",)
    forbidden = draw(conditions(regs=regs, locs=locs))
    return LitmusTest(
        name="prop",
        description="",
        threads=threads,
        forbidden=forbidden,
    )


@st.composite
def final_states(draw, test):
    regs = {
        r: draw(_VALUES) for r in condition_registers(test.forbidden)
    }
    final = {loc: draw(_VALUES) for loc in test.locations}
    return regs, final


class TestWellFormedPrograms:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_generated_tests_validate(self, data):
        # LitmusTest.__post_init__ runs validate_test; constructing one
        # must succeed, and re-validating must stay silent.
        test = data.draw(well_formed_tests())
        validate_test(test)
        assert test.n_threads == len(test.threads)
        assert set(condition_registers(test.forbidden)) <= set(
            test.registers
        )
        assert set(condition_locations(test.forbidden)) <= set(
            test.locations
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_structure_accessors_cover_program(self, data):
        test = data.draw(well_formed_tests())
        for program in test.threads:
            for ins in program:
                if ins[0] in ("st", "ld", "rmw"):
                    assert ins[1] in test.locations
                if ins[0] in ("ld", "rmw"):
                    assert ins[2] in test.registers


class TestEvaluatorAgreement:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compiled_condition_agrees_with_interpreter(self, data):
        test = data.draw(well_formed_tests())
        compiled = compile_condition(test.forbidden)
        regs, final = data.draw(final_states(test))
        assert compiled(regs, final) == evaluate(
            test.forbidden, regs, final
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_weak_matches_interpreter(self, data):
        # LitmusTest.weak is the cached compiled closure the runners
        # call; it must agree with the interpreter too.
        test = data.draw(well_formed_tests())
        regs, final = data.draw(final_states(test))
        assert test.weak(regs, final) == evaluate(
            test.forbidden, regs, final
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_missing_entries_default_to_zero(self, data):
        # Both evaluators treat unwritten registers and untouched
        # locations as zero-valued.
        test = data.draw(well_formed_tests())
        compiled = compile_condition(test.forbidden)
        empty_final = {loc: 0 for loc in test.locations}
        assert compiled({}, empty_final) == evaluate(
            test.forbidden, {}, empty_final
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_format_round_trips_structure(self, data):
        # Rendering never crashes and mentions every leaf it contains.
        test = data.draw(well_formed_tests())
        text = format_condition(test.forbidden)
        for reg in condition_registers(test.forbidden):
            assert reg in text
        for loc in condition_locations(test.forbidden):
            assert f"[{loc}]" in text


def _dnf_holds(dnf, regs: dict, final: dict) -> bool:
    def value(leaf):
        if isinstance(leaf, RegEq):
            return regs.get(leaf.reg, 0)
        return final.get(leaf.loc, 0)

    return any(
        all(value(leaf) == leaf.value for leaf in conj) for conj in dnf
    )


class TestConditionDNF:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dnf_agrees_with_interpreter(self, data):
        # Valuations drop random registers and locations, which both
        # forms must read as zero.
        test = data.draw(well_formed_tests())
        dnf = condition_dnf(test.forbidden)
        regs, final = data.draw(final_states(test))
        regs = {r: v for r, v in regs.items() if data.draw(st.booleans())}
        final = {k: v for k, v in final.items() if data.draw(st.booleans())}
        assert all(
            isinstance(leaf, (RegEq, LocEq)) for conj in dnf for leaf in conj
        )
        assert _dnf_holds(dnf, regs, final) == evaluate(
            test.forbidden, regs, final
        )

    def test_empty_connectives(self):
        assert condition_dnf(And()) == ((),)
        assert condition_dnf(Or()) == ()
        assert condition_dnf(And(Or(), RegEq("r1", 1))) == ()

    def test_size_bound_raises_instead_of_truncating(self):
        pair = Or(RegEq("r1", 0), RegEq("r2", 1))
        assert len(condition_dnf(And(*[pair] * 12))) == DNF_MAX_TERMS
        with pytest.raises(ConditionTooLargeError) as info:
            condition_dnf(And(*[pair] * 13))
        assert isinstance(info.value, ValueError)
        assert info.value.bound == DNF_MAX_TERMS
        leaves = [RegEq("r1", v) for v in range(DNF_MAX_TERMS + 1)]
        assert len(condition_dnf(Or(*leaves[:-1]))) == DNF_MAX_TERMS
        with pytest.raises(ConditionTooLargeError):
            condition_dnf(Or(*leaves))
