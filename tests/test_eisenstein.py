"""Tests for pole conditions, holomorphy verdicts, and residue outcomes of
the global block data."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.core_types import LContext, TriBool
from apackets.eisenstein import (
    EisensteinVerdict,
    GlobalJord,
    ResidueOutcome,
    VerdictKind,
    eisenstein_verdict,
    global_pole_conditions,
    residue_verdict,
)

from _helpers import residue_over_completions

T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN


def _ctx(**kwargs):
    return LContext(universe={"rho", "rho2", "rho3"}, **kwargs)


# --- global datum --------------------------------------------------------------


def test_global_jord_contains():
    # Condition 1 at s0 >= 1 is membership of (rho, 2*s0 - 1).
    jord = GlobalJord((("rho", 3), ("rho2", 4)))
    assert global_pole_conditions(jord, "rho", 4, _ctx())[0] is True
    assert global_pole_conditions(jord, "rho", 5, _ctx())[0] is False
    assert global_pole_conditions(jord, "rho3", 4, _ctx())[0] is False


def test_global_jord_rejects_bad_size():
    with pytest.raises(ValueError):
        GlobalJord((("rho", 0),))


# --- the two pole conditions ------------------------------------------------------


def test_conditions_half_integral_point():
    jord = GlobalJord((("rho", 3),))
    cond1, cond2 = global_pole_conditions(jord, "rho", 4, _ctx())
    assert cond1 is True  # (rho, 2*2 - 1) = (rho, 3) is present
    assert cond2 is T  # no size-4 pairs: vacuously true


def test_conditions_vanishing_central_value():
    jord = GlobalJord((("rho", 3), ("rho2", 3)))
    ctx = _ctx(vanishing=[("rho", "rho2")])
    cond1, cond2 = global_pole_conditions(jord, "rho", 3, ctx)
    assert cond1 is False  # (rho, 2) absent
    assert cond2 is F  # the size-3 partner rho2 has vanishing central value


def test_conditions_at_one_half_use_pole_declaration():
    jord = GlobalJord((("rho", 3),))
    cond1, cond2 = global_pole_conditions(
        jord, "rho", 1, _ctx(rg_pole_at_1=["rho"])
    )
    assert (cond1, cond2) == (True, T)  # no size-1 pairs
    cond1, _ = global_pole_conditions(jord, "rho", 1, _ctx())
    assert cond1 is False


def test_conditions_below_one_half_raise():
    jord = GlobalJord((("rho", 3),))
    with pytest.raises(ValueError):
        global_pole_conditions(jord, "rho", -1, _ctx())
    with pytest.raises(ValueError):
        global_pole_conditions(jord, "rho", 0, _ctx())


def test_conditions_undeclared_label_raises():
    jord = GlobalJord((("rho", 3),))
    with pytest.raises(ValueError):
        global_pole_conditions(jord, "zz", 2, _ctx())


def test_conditions_unknown_central_value_propagates():
    # rho2 appears with size 2*s0 but no declaration covers (rho, rho2).
    jord = GlobalJord((("rho", 1), ("rho2", 2)))
    cond1, cond2 = global_pole_conditions(jord, "rho", 2, _ctx())
    assert cond1 is True  # (rho, 1) present
    assert cond2 is U


def test_conditions_mixed_central_values_follow_kleene():
    jord = GlobalJord((("rho", 1), ("rho2", 2), ("rho3", 2)))
    ctx = _ctx(vanishing=[("rho", "rho2")])
    _, cond2 = global_pole_conditions(jord, "rho", 2, ctx)
    assert cond2 is F  # False beats the unknown (rho, rho3) pair


# --- verdicts ---------------------------------------------------------------------


def test_verdict_pole_when_both_hold():
    jord = GlobalJord((("rho", 3),))
    v = eisenstein_verdict(jord, "rho", 4, _ctx())
    assert v.kind is VerdictKind.POLE_ORDER_AT_MOST_ONE
    assert (v.cond1, v.cond2) == (True, T)


def test_verdict_holomorphic_on_failed_condition():
    jord = GlobalJord((("rho", 3), ("rho2", 3)))
    ctx = _ctx(vanishing=[("rho", "rho2")])
    v = eisenstein_verdict(jord, "rho", 3, ctx)
    assert v.kind is VerdictKind.HOLOMORPHIC
    assert (v.cond1, v.cond2) == (False, F)


def test_verdict_unknown_condition_stays_visible():
    jord = GlobalJord((("rho", 1), ("rho2", 2)))
    v = eisenstein_verdict(jord, "rho", 2, _ctx())
    assert v.kind is VerdictKind.HOLOMORPHIC
    assert (v.cond1, v.cond2) == (True, U)


def test_verdict_cond1_false_cond2_true():
    jord = GlobalJord((("rho2", 4),))
    ctx = _ctx(nonvanishing=[("rho", "rho2")])
    v = eisenstein_verdict(jord, "rho", 4, ctx)
    assert v.kind is VerdictKind.HOLOMORPHIC
    assert (v.cond1, v.cond2) == (False, T)


# --- residues ---------------------------------------------------------------------


def _pole_verdict():
    return EisensteinVerdict(VerdictKind.POLE_ORDER_AT_MOST_ONE, True, T)


def _holo_verdict():
    return EisensteinVerdict(VerdictKind.HOLOMORPHIC, False, T)


def test_residue_requires_pole():
    assert residue_verdict(_holo_verdict(), []) is ResidueOutcome.NO_RESIDUE
    assert residue_verdict(_holo_verdict(), [T, T]) is ResidueOutcome.NO_RESIDUE


def test_residue_all_places_nonvanishing():
    assert residue_verdict(_pole_verdict(), [T, T, T]) is ResidueOutcome.RESIDUE_IS_PI_PLUS
    assert residue_verdict(_pole_verdict(), []) is ResidueOutcome.RESIDUE_IS_PI_PLUS


def test_residue_vanishing_place_kills():
    assert residue_verdict(_pole_verdict(), [T, F, T]) is ResidueOutcome.NO_RESIDUE


def test_residue_unknown_place_undetermined():
    assert residue_verdict(_pole_verdict(), [T, U]) is ResidueOutcome.UNDETERMINED


def test_residue_false_beats_unknown():
    assert residue_verdict(_pole_verdict(), [U, F]) is ResidueOutcome.NO_RESIDUE


# --- invariants --------------------------------------------------------------------


def test_declaring_more_facts_never_weakens_cond2():
    """Strengthening the context can only move cond2 out of Unknown."""
    jord = GlobalJord((("rho", 1), ("rho2", 2), ("rho3", 2)))
    base = _ctx()
    _, before = global_pole_conditions(jord, "rho", 2, base)
    assert before is U
    for extra, expect in [
        ({"nonvanishing": [("rho", "rho2"), ("rho", "rho3")]}, T),
        ({"vanishing": [("rho", "rho2")]}, F),
    ]:
        _, after = global_pole_conditions(jord, "rho", 2, _ctx(**extra))
        assert after is expect


@settings(max_examples=100)
@given(
    st.permutations([("rho", 1), ("rho2", 2), ("rho3", 2), ("rho", 3)]),
    st.integers(1, 4),
)
def test_conditions_ignore_pair_order(pairs, s0_x2):
    ctx = _ctx(rg_pole_at_1=["rho"], nonvanishing=[("rho", "rho2")])
    base = global_pole_conditions(GlobalJord(tuple(pairs)), "rho", s0_x2, ctx)
    for perm in itertools.permutations(pairs):
        assert global_pole_conditions(GlobalJord(tuple(perm)), "rho", s0_x2, ctx) == base


def test_residue_against_every_completion_of_the_unknown_facts():
    """The command's residue against ``residue_over_completions``.

    The oracle's two-valued cond1 and cond2 restate the docstring of
    ``global_pole_conditions``, and its two-valued residue restates the rule
    of ``residue_verdict``. The independent part is the lifting to three
    values: the oracle enumerates every completion of the unknown central
    values and ``u`` places, and answers undetermined when they disagree.

    The slice: labels r and s; each of the three central pairs declared
    nonzero, zero or unknown; the pole at 1 for no label, r, or r and s;
    every global datum of 0-2 pairs with b <= 3; rho = r; s0_x2 1-4; one
    place t, f or u. The two agree outside one class: cond1 true, cond2
    unknown and no place f, where the command says no_residue and the
    completions split (ROADMAP item 11). The test pins that class exactly.
    """
    facts = (T, F, U)
    central_pairs = (("r", "r"), ("r", "s"), ("s", "s"))
    data = [pairs for n in range(3)
            for pairs in itertools.combinations_with_replacement(
                [(rho2, b) for rho2 in ("r", "s") for b in (1, 2, 3)], n)]
    cases = differ = 0
    for declared in itertools.product(facts, repeat=3):
        central = dict(zip(central_pairs, declared))
        for poles in ((), ("r",), ("r", "s")):
            ctx = LContext(
                universe={"r", "s"},
                rg_pole_at_1=poles,
                nonvanishing=[pair for pair in central if central[pair] is T],
                vanishing=[pair for pair in central if central[pair] is F],
            )
            for pairs, s0_x2, place in itertools.product(data, range(1, 5), facts):
                verdict = eisenstein_verdict(GlobalJord(pairs), "r", s0_x2, ctx)
                got = residue_verdict(verdict, [place])
                want = residue_over_completions(pairs, "r", s0_x2, central, poles, [place])
                gap = verdict.cond1 and verdict.cond2 is U and place is not F
                where = (pairs, s0_x2, declared, poles, place)
                if gap:
                    assert (got, want) == (
                        ResidueOutcome.NO_RESIDUE, ResidueOutcome.UNDETERMINED), where
                else:
                    assert got is want, where
                cases += 1
                differ += gap
    assert (cases, differ) == (27216, 684)
