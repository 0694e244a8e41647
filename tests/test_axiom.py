"""The axiomatic model against the registry and the SC enumerator."""

from __future__ import annotations

import pytest

from repro.axiom.model import (
    MAX_CANDIDATES,
    VERDICT_FORBIDDEN,
    VERDICT_SC,
    VERDICT_WEAK,
    axiom_outcomes,
    classify,
    condition_verdict,
    observation_key,
)
from repro.litmus.ir import And, RegEq, fence, ld, rmw, st
from repro.litmus.sc import sc_outcomes
from repro.litmus.tests import ALL_TESTS, LitmusTest, get_test
from repro.testing.soundness import (
    FORBIDDEN_CONDITION_TESTS,
    WEAK_CONDITION_TESTS,
)


def test_expectation_lists_cover_registry():
    assert sorted(WEAK_CONDITION_TESTS + FORBIDDEN_CONDITION_TESTS) == \
        sorted(t.name for t in ALL_TESTS)


@pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
def test_full_fence_model_equals_sc_enumerator(test):
    """Shasha–Snir: acyclic(po ∪ com) characterises SC reachability,
    so the model with a full fence set must agree exactly with the
    brute-force interleaver."""
    assert axiom_outcomes(test, "full") == frozenset(sc_outcomes(test))


@pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
def test_fence_modes_are_monotone(test):
    """More fences ⇒ fewer behaviours: SC ⊆ weak ⊆ fence-free."""
    assert axiom_outcomes(test, "full") \
        <= axiom_outcomes(test, "program") \
        <= axiom_outcomes(test, "none")


@pytest.mark.parametrize("name", WEAK_CONDITION_TESTS)
def test_weak_family_conditions_are_weak_not_sc(name):
    """Every weak-family forbidden outcome is weak-allowed and
    SC-unreachable — the registry ships no vacuous weak test."""
    assert condition_verdict(get_test(name)) == VERDICT_WEAK


@pytest.mark.parametrize("name", FORBIDDEN_CONDITION_TESTS)
def test_negative_tests_are_axiomatically_forbidden(name):
    """The fully-fenced and coherence tests are negative checks: no
    allowed execution (weak or SC) satisfies their condition, matching
    the family tests that assert them silent on every backend."""
    assert condition_verdict(get_test(name)) == VERDICT_FORBIDDEN


def test_classification_verdicts_partition_the_state_table():
    report = classify(get_test("MP"))
    verdicts = {o.format_state(): o.verdict for o in report.outcomes}
    assert verdicts == {
        "r1=0 r2=0 [x]=1 [y]=1": VERDICT_SC,
        "r1=0 r2=1 [x]=1 [y]=1": VERDICT_SC,
        "r1=1 r2=0 [x]=1 [y]=1": VERDICT_WEAK,
        "r1=1 r2=1 [x]=1 [y]=1": VERDICT_SC,
    }


def test_every_allowed_state_has_a_witness():
    for name in ("MP", "IRIW", "CoRR", "2+2W"):
        report = classify(get_test(name))
        for outcome in report.outcomes:
            if outcome.verdict == VERDICT_FORBIDDEN:
                assert outcome.witness is None
            else:
                assert outcome.witness is not None
                assert outcome.witness.format()


def test_mp_weak_witness_reads_stale_data():
    report = classify(get_test("MP"))
    weak = [o for o in report.outcomes if o.verdict == VERDICT_WEAK]
    assert len(weak) == 1
    rf = dict(weak[0].witness.rf)
    assert rf["T1.0 ld y->r1"] == "T0.1 st y=1"
    assert rf["T1.1 ld x->r2"] == "init x=0"


def test_verdict_of_projects_extra_locations():
    report = classify(get_test("MP"))
    # Observed finals may carry cond-only or scratch locations; they
    # are projected onto the model's written locations.
    assert report.verdict_of(
        {"r1": 1, "r2": 0}, {"x": 1, "y": 1}
    ) == VERDICT_WEAK
    assert report.verdict_of(
        {"r1": 0, "r2": 0}, {"x": 1, "y": 1}
    ) == VERDICT_SC
    # A value outside the conceivable table is forbidden outright.
    assert report.verdict_of(
        {"r1": 7, "r2": 0}, {"x": 1, "y": 1}
    ) == VERDICT_FORBIDDEN
    # An incomplete store (x never reached 1) is forbidden too.
    assert report.verdict_of(
        {"r1": 0, "r2": 0}, {"x": 0, "y": 1}
    ) == VERDICT_FORBIDDEN


def test_observation_key_matches_sc_shape():
    test = get_test("MP")
    key = observation_key(test, {"r2": 0, "r1": 1}, {"y": 1, "x": 1})
    assert key == ((("r1", 1), ("r2", 0)), (("x", 1), ("y", 1)))
    assert test.written_locations == ("x", "y")


def test_rmw_atomicity_forbids_intervening_write():
    """Two rmws on one location can never both read the initial value:
    atomicity forces each to read its immediate co-predecessor."""
    test = LitmusTest(
        name="2RMW",
        description="competing atomic exchanges",
        threads=(
            (rmw("x", "r1", 1),),
            (rmw("x", "r2", 2),),
        ),
        forbidden=And(RegEq("r1", 0), RegEq("r2", 0)),
    )
    assert condition_verdict(test) == VERDICT_FORBIDDEN
    # Exactly one rmw wins the race, even without any fence.
    outcomes = axiom_outcomes(test, "none")
    assert outcomes == frozenset({
        ((("r1", 0), ("r2", 1)), (("x", 2),)),
        ((("r1", 2), ("r2", 0)), (("x", 1),)),
    })


def test_fenced_mp_loses_its_weak_state():
    """Adding both fences to MP removes exactly the weak state — the
    declarative counterpart of test_fully_fenced_variants_silent."""
    mp = get_test("MP")
    mp_ff = get_test("MP-FF")
    assert axiom_outcomes(mp, "program") - axiom_outcomes(mp_ff, "program")
    assert axiom_outcomes(mp_ff, "program") == axiom_outcomes(mp, "full")


def test_single_fence_does_not_restore_sc():
    """One-sided fencing (MP-F0/MP-F1) still admits the weak state:
    the fence order alone has no cycle through a single pair."""
    for name in ("MP-F0", "MP-F1"):
        test = get_test(name)
        assert axiom_outcomes(test, "program") \
            == axiom_outcomes(get_test("MP"), "program")


def test_candidate_explosion_guard():
    threads = tuple(
        (st("x", 1), st("y", 1), st("z", 1),
         ld("x", f"ra{i}"), ld("y", f"rb{i}"), ld("z", f"rc{i}"))
        for i in range(4)
    )
    big = LitmusTest(
        name="big",
        description="beyond the candidate budget",
        threads=threads,
        forbidden=RegEq("ra0", 1),
    )
    with pytest.raises(ValueError, match="candidate executions"):
        axiom_outcomes(big)
    assert MAX_CANDIDATES > 0


def test_unknown_fence_mode_rejected():
    with pytest.raises(ValueError, match="fence mode"):
        axiom_outcomes(get_test("MP"), "bogus")


def test_fences_are_not_events():
    """A fence contributes order, not an event: the state universe of
    MP and MP-FF is identical."""
    mp, mp_ff = get_test("MP"), get_test("MP-FF")
    assert axiom_outcomes(mp, "none") == axiom_outcomes(mp_ff, "none")
    assert fence() == ("fence",)
