"""Tests for exponent words modulo commutation, the chain condition, and the
irreducibility criteria."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.jordan import ArthurParameter, JordanBlock
from apackets.jacquet import (
    IrredVerdict,
    JacSequence,
    irreducible_cuspidal_twist,
    jac_nonvanishing_necessary,
    jac_normal_form,
)

from _helpers import blk, commutation_class_min, greedy_normal_form, h, h2, sp, sp_param


# --- commutation and normal form --------------------------------------------------


def test_jac_normal_form_examples():
    nf = jac_normal_form(JacSequence("r", (h(3), h(1))))
    assert nf.exponents == (h(1), h(3))
    nf = jac_normal_form(JacSequence("r", (h(2), h(1))))
    assert nf.exponents == (h(2), h(1))
    nf = jac_normal_form(JacSequence("r", (h2(5), h2(1), h2(7))))
    assert nf.exponents == (h2(1), h2(5), h2(7))


def test_jac_normal_form_keeps_label_and_empty():
    nf = jac_normal_form(JacSequence("rho9", ()))
    assert nf.rho == "rho9"
    assert nf.exponents == ()


@settings(max_examples=200)
@given(st.lists(st.integers(-6, 6), max_size=6))
def test_jac_normal_form_is_class_minimum(doubles):
    seq = JacSequence("r", tuple(doubles))
    nf = jac_normal_form(seq)
    got = nf.exponents
    assert got == commutation_class_min(tuple(doubles))
    assert sorted(got) == sorted(doubles)  # permutation of the input
    assert jac_normal_form(nf) == nf  # idempotent


def test_jac_normal_form_matches_greedy_oracle():
    # Words too long for the class search: the cubic greedy is the oracle.
    rng = random.Random(20091)
    for _ in range(2000):
        word = tuple(rng.randint(-8, 8) for _ in range(rng.randint(0, 12)))
        nf = jac_normal_form(JacSequence("r", word))
        assert nf.exponents == greedy_normal_form(word), word


# --- chain condition ---------------------------------------------------------------


def test_chain_condition_two_step():
    psi = sp_param([blk("r", 4, 2), blk("r", 8, 2)])
    assert jac_nonvanishing_necessary(psi, "r", h(1), h(4)) is True


def test_chain_condition_single_block_fails():
    psi = sp_param([blk("r", 4, 2)])
    assert jac_nonvanishing_necessary(psi, "r", h(1), h(4)) is False


def test_chain_condition_no_starting_block():
    psi = sp_param([blk("r", 4, 2), blk("r", 8, 2)])
    assert jac_nonvanishing_necessary(psi, "r", h(2), h(4)) is False


def test_chain_condition_negative_start():
    psi = sp_param([blk("r", 2, 4)])
    assert jac_nonvanishing_necessary(psi, "r", h(-1), h(2)) is True
    assert jac_nonvanishing_necessary(psi, "r", h(1), h(2)) is False


def test_chain_condition_ignores_other_labels():
    psi = ArthurParameter(sp(17), (blk("r", 4, 2), blk("rs", 8, 2)))
    assert jac_nonvanishing_necessary(psi, "r", h(1), h(4)) is False


def test_chain_condition_rejects_twisted_blocks():
    psi = ArthurParameter(
        sp(8), (JordanBlock("r", 2, 2, Fraction(1, 4)),)
    )
    with pytest.raises(ValueError) as err:
        jac_nonvanishing_necessary(psi, "r", h(1), h(1))
    assert str(err.value) == "twisted block (r,2,2;x=1/4) in chain search"


def test_segment_mixed_class_raises():
    # Ends differing by a non-integer: the segment check fires first, even
    # on a parameter whose twisted block the chain search would reject.
    twisted = ArthurParameter(sp(8), (JordanBlock("r", 2, 2, Fraction(1, 4)),))
    for psi in (sp_param([blk("r", 4, 2)]), twisted):
        with pytest.raises(ValueError) as err:
            jac_nonvanishing_necessary(psi, "r", h(0), h2(1))
        assert str(err.value) == "segment endpoints must differ by an integer, got [0, 1/2]"


def test_segment_str():
    # The segment error message prints each end as 'n' or 'k/2', in order.
    psi = sp_param([blk("r", 4, 2)])
    for start_x2, stop_x2, shown in (
        (h(1), h2(3), "[1, 3/2]"),
        (h2(1), h(2), "[1/2, 2]"),
        (h2(-5), h(-1), "[-5/2, -1]"),
    ):
        with pytest.raises(ValueError) as err:
            jac_nonvanishing_necessary(psi, "r", start_x2, stop_x2)
        assert str(err.value) == f"segment endpoints must differ by an integer, got {shown}"


# --- irreducibility ----------------------------------------------------------------


def test_irreducible_cuspidal_twist_examples():
    psi = sp_param([blk("r", 2, 2)])
    assert irreducible_cuspidal_twist(psi, "r", h(3)) is IrredVerdict.IRREDUCIBLE
    assert irreducible_cuspidal_twist(psi, "r", h(1)) is IrredVerdict.UNKNOWN
    assert irreducible_cuspidal_twist(psi, "r", h(-3)) is IrredVerdict.IRREDUCIBLE


def test_irreducible_cuspidal_twist_vacuous():
    psi = sp_param([blk("rs", 3, 3)])
    assert irreducible_cuspidal_twist(psi, "r", h2(1)) is IrredVerdict.IRREDUCIBLE


def test_irreducible_cuspidal_twist_matches_fraction_oracle():
    # A and B in exact halves straight from the block sizes, so a threshold
    # carried over into doubled units with the wrong constant shows up.
    xs = [Fraction(k, 2) for k in range(-10, 11) if k != 0]
    for a, b, x in itertools.product(range(1, 9), range(1, 9), xs):
        A, B = Fraction(a + b, 2) - 1, Fraction(abs(a - b), 2)
        want = A < abs(x) - 1 or B > abs(x)
        got = irreducible_cuspidal_twist(sp_param([blk("r", a, b)]), "r", h2(int(2 * x)))
        assert (got is IrredVerdict.IRREDUCIBLE) == want, (a, b, x)


def test_irreducible_cuspidal_twist_rejects_twisted_blocks():
    twisted = JordanBlock("r", 2, 2, Fraction(1, 4))
    psi = ArthurParameter(sp(8), (blk("r", 5, 1), twisted))  # (r,5,1) does not decide
    with pytest.raises(ValueError) as err:
        irreducible_cuspidal_twist(psi, "r", h(1))
    assert str(err.value) == "twisted block (r,2,2;x=1/4) in irreducibility check"
    # A twisted block of another label is not read.
    psi = ArthurParameter(sp(8), (JordanBlock("rs", 2, 2, Fraction(1, 4)), blk("r", 5, 1)))
    assert irreducible_cuspidal_twist(psi, "r", h(1)) is IrredVerdict.IRREDUCIBLE


def test_irreducible_cuspidal_twist_stops_at_the_deciding_block():
    # (r,2,2) decides UNKNOWN at x = 1; the twisted block after it is never read.
    psi = ArthurParameter(sp(8), (blk("r", 2, 2), JordanBlock("r", 2, 2, Fraction(1, 4))))
    assert irreducible_cuspidal_twist(psi, "r", h(1)) is IrredVerdict.UNKNOWN


def test_irreducible_cuspidal_twist_zero_raises():
    psi = sp_param([blk("r", 2, 2)])
    with pytest.raises(ValueError):
        irreducible_cuspidal_twist(psi, "r", h(0))
