"""The pole-criterion table against the interval route of ``_helpers``, plus
their coincidence with the per-block obstruction conditions re-derived
independently here."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.core_types import MINUS, PLUS
from apackets.jordan import Quadruple, to_quadruple
from apackets.lfactors import pole_contribution_table, r_order
from _helpers import blk, h, h2, pole_contribution_interval, soodd_param

# --- the table route and the interval route --------------------------------


def test_table_examples():
    # zeta0 = -, zeta = +: never a pole.
    assert (
        pole_contribution_table(
            Quadruple(4, 2, PLUS), Quadruple(4, 2, MINUS)
        )
        == 0
    )
    # zeta0 = +, zeta = -, (A,B) = (2,1) against (A0,B0) = (2,1): pole.
    assert (
        pole_contribution_table(
            Quadruple(4, 2, MINUS), Quadruple(4, 2, PLUS)
        )
        == 1
    )
    # zeta0 = +, zeta = +, (2,2) against (2,1): B > B0, no pole.
    assert (
        pole_contribution_table(
            Quadruple(4, 4, PLUS), Quadruple(4, 2, PLUS)
        )
        == 0
    )


def test_interval_examples():
    assert pole_contribution_interval(2, 4, 4, 2) == 1
    assert pole_contribution_interval(1, 1, 1, 2) == 0
    assert pole_contribution_interval(3, 3, 3, 4) == 0


def test_interval_rejects_bad_sizes():
    with pytest.raises(ValueError):
        pole_contribution_interval(0, 1, 1, 2)
    with pytest.raises(ValueError):
        pole_contribution_interval(1, 1, 1, 1)  # b0 < 2


def test_mixed_integrality_class_case():
    # (a,b) = (2,4) against (a0,b0) = (2,3): the raw table inequalities hold
    # but A - A0 is not an integer, so no shift in the progression matches.
    assert pole_contribution_interval(2, 4, 2, 3) == 0
    q = to_quadruple(2, 4)
    t = to_quadruple(2, 3)
    assert (q.A_x2 - t.A_x2) % 2 == 1
    assert pole_contribution_table(q, t) == 0


def test_routes_agree_small_grid():
    for a in range(1, 9):
        for b in range(1, 9):
            q = to_quadruple(a, b)
            for a0 in range(1, 9):
                for b0 in range(2, 9):
                    t = to_quadruple(a0, b0)
                    assert pole_contribution_table(q, t) == pole_contribution_interval(
                        a, b, a0, b0
                    ), (a, b, a0, b0)


# --- pole-order sums ----------------------------------------------------------


def test_r_order_single_block():
    psi = soodd_param([blk("r", 2, 4)])
    assert r_order(psi, "r", 4, h2(1)) == -1


def test_r_order_no_matching_label():
    psi = soodd_param([blk("rs", 2, 4)])
    assert r_order(psi, "r", 4, h2(1)) == 0


def test_r_order_multiplicity():
    psi = soodd_param([blk("r", 2, 4), blk("r", 2, 4)])
    assert r_order(psi, "r", 4, h2(1)) == -2


def test_r_order_rejects_bad_inputs():
    psi = soodd_param([blk("r", 2, 4)])
    with pytest.raises(ValueError):
        r_order(psi, "r", 0, h2(1))
    with pytest.raises(ValueError):
        r_order(psi, "r", 4, h(0))
    with pytest.raises(ValueError):
        r_order(psi, "r", 4, h(-1))


def test_r_order_rejects_twisted_blocks():
    from fractions import Fraction

    from apackets.jordan import JordanBlock

    psi = soodd_param([JordanBlock("r", 2, 4, Fraction(1, 4))])
    with pytest.raises(ValueError) as err:
        r_order(psi, "r", 4, h2(1))
    assert str(err.value) == "twisted block (r,2,4;x=1/4) passed to pole-order sum"


def test_r_order_zero_when_s0_not_half_integral_size():
    # s0 = 1/2 makes b0 = 2; a block of the other integrality class cannot
    # contribute.
    psi = soodd_param([blk("r", 2, 3)])
    assert r_order(psi, "r", 4, h2(1)) == 0


# --- coincidence with the independently re-derived obstruction conditions ------
#
# The obstruction conditions below are written directly from the case analysis
# over (zeta, zeta0), independent of the package's table implementation:
#
#   zeta = +, zeta0 = + :  B <= B0  and  B0 < A0  and  A0 <= A
#   zeta = +, zeta0 = - :  impossible
#   zeta = -, zeta0 = + :  B <= A0 <= A
#   zeta = -, zeta0 = - :  B0 <= B <= A0 <= A
#
# A same-label block hits an obstruction iff it contributes a pole, so
# r_order == 0 must coincide with "no block hits an obstruction".


def _obstruction_hit(q: Quadruple, t: Quadruple) -> bool:
    # The generator keeps every block in the target's integrality class
    # (as good parity does), which is the domain these conditions describe.
    A, B, zeta = q.A_x2, q.B_x2, q.zeta
    A0, B0, zeta0 = t.A_x2, t.B_x2, t.zeta
    if zeta == PLUS and zeta0 == PLUS:
        return B <= B0 and B0 < A0 and A0 <= A
    if zeta == PLUS and zeta0 == MINUS:
        return False
    if zeta == MINUS and zeta0 == PLUS:
        return B <= A0 and A0 <= A
    return B0 <= B <= A0 and A0 <= A


@st.composite
def _psi_and_target(draw):
    a0 = draw(st.integers(1, 6))
    b0 = draw(st.integers(2, 6))
    parity = (a0 + b0) % 2
    n = draw(st.integers(1, 3))
    sizes = []
    for _ in range(n):
        a = draw(st.integers(1, 6))
        # keep a + b in the same parity class as a0 + b0, as good parity does
        b_choices = [b for b in range(1, 7) if (a + b) % 2 == parity]
        b = draw(st.sampled_from(b_choices))
        sizes.append((a, b))
    return sizes, a0, b0


@settings(max_examples=300)
@given(_psi_and_target())
def test_order_zero_iff_no_obstruction(case):
    sizes, a0, b0 = case
    psi = soodd_param([blk("r", a, b) for a, b in sizes])
    s0 = h2(b0 - 1)
    target = to_quadruple(a0, b0)
    order = r_order(psi, "r", a0, s0)
    hits = [
        _obstruction_hit(to_quadruple(a, b), target) for a, b in sizes
    ]
    assert (order == 0) == (not any(hits))
    assert order == -sum(hits)


def test_obstruction_oracle_strictness_is_automatic():
    # In the (+,+) cell the strict B0 < A0 never excludes a real target:
    # zeta0 = + forces A0 - B0 = b0 - 1 >= 1.
    for a0 in range(1, 17):
        for b0 in range(2, 17):
            t = to_quadruple(a0, b0)
            if t.zeta == PLUS:
                assert t.A_x2 - t.B_x2 >= 2
