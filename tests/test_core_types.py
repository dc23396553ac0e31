"""Half-integers, signs, labels, groups, and declared facts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apackets.core_types import (
    MINUS,
    PLUS,
    CuspidalLabel,
    GroupKind,
    GroupType,
    LContext,
    Parity,
    TriBool,
    Violation,
    check_sign,
    halfint_str,
    kleene_and,
    parse_halfint,
    parse_sign,
    sign_str,
)
from _helpers import h, h2


# --- signs -----------------------------------------------------------------


def test_check_sign_accepts_plus_minus_one():
    assert check_sign(PLUS) == 1
    assert check_sign(MINUS) == -1


@pytest.mark.parametrize("bad", [0, 2, -2, True, False, "+"])
def test_check_sign_rejects_everything_else(bad):
    with pytest.raises((ValueError, TypeError)):
        check_sign(bad)


def test_sign_str():
    assert sign_str(PLUS) == "+"
    assert sign_str(MINUS) == "-"


def test_parse_sign():
    assert parse_sign("+") == PLUS
    assert parse_sign("+1") == PLUS
    assert parse_sign("-") == MINUS
    assert parse_sign("-1") == MINUS
    with pytest.raises(ValueError):
        parse_sign("0")


# --- half-integers ----------------------------------------------------------


def test_halfint_basics():
    assert halfint_str(h2(3)) == "3/2"
    assert halfint_str(h2(-1)) == "-1/2"
    assert halfint_str(h(2)) == "2"
    assert halfint_str(h(-2)) == "-2"
    assert halfint_str(0) == "0"


@given(st.integers(-1000, 1000))
def test_parse_halfint_roundtrip(d):
    assert parse_halfint(halfint_str(d)) == d


def test_parse_halfint_forms():
    assert parse_halfint("3/2") == 3
    assert parse_halfint("-5/2") == -5
    assert parse_halfint("4") == 8
    assert parse_halfint(" -2 ") == -4
    assert parse_halfint("-4/2") == -4


# --- labels, parities, groups ------------------------------------------------


def test_parity_signs():
    assert Parity.ORTHOGONAL.sign == PLUS
    assert Parity.SYMPLECTIC.sign == MINUS


def test_cuspidal_label_validation():
    CuspidalLabel("a", 1, True, Parity.ORTHOGONAL)
    CuspidalLabel("b", 3, False, None)
    with pytest.raises(ValueError):
        CuspidalLabel("", 1, True)
    with pytest.raises(ValueError):
        CuspidalLabel("a", 0, True)
    with pytest.raises(ValueError):
        CuspidalLabel("a", 1, False, Parity.ORTHOGONAL)


def test_group_type_required_parity():
    so = GroupType(GroupKind.SO_ODD, 4)
    s = GroupType(GroupKind.SP, 5)
    oe = GroupType(GroupKind.O_EVEN, 6)
    assert so.required_parity is Parity.SYMPLECTIC
    assert s.required_parity is Parity.ORTHOGONAL
    assert oe.required_parity is Parity.ORTHOGONAL


def test_group_type_validation():
    with pytest.raises(ValueError):
        GroupType(GroupKind.SP, 0)
    with pytest.raises(ValueError):
        GroupType(GroupKind.SP, 4, epsilon=0)
    with pytest.raises(TypeError):
        GroupType("Sp", 4)


# --- three-valued logic -------------------------------------------------------


def test_kleene_and():
    T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
    assert kleene_and([]) is T
    assert kleene_and([T, T]) is T
    assert kleene_and([T, U]) is U
    assert kleene_and([U, F]) is F
    assert kleene_and([F, U]) is F
    assert kleene_and([T, F, T]) is F


# --- declared analytic facts ---------------------------------------------------


def _ctx():
    return LContext.build(
        universe=["rho1", "rho2", "rho3"],
        rg_pole_at_1=["rho1"],
        nonvanishing=[("rho1", "rho2")],
        vanishing=[("rho1", "rho1")],
    )


def test_lcontext_query_symmetry_nonzero():
    ctx = _ctx()
    assert ctx.query_central("rho1", "rho2") is TriBool.TRUE
    assert ctx.query_central("rho2", "rho1") is TriBool.TRUE


def test_lcontext_undeclared_pair_is_unknown():
    ctx = _ctx()
    assert ctx.query_central("rho2", "rho3") is TriBool.UNKNOWN


def test_lcontext_declared_vanishing():
    ctx = _ctx()
    assert ctx.query_central("rho1", "rho1") is TriBool.FALSE


def test_lcontext_rg_pole():
    ctx = _ctx()
    assert ctx.has_rg_pole_at_1("rho1") is True
    assert ctx.has_rg_pole_at_1("rho2") is False


def test_lcontext_unknown_label_raises():
    ctx = _ctx()
    with pytest.raises(ValueError):
        ctx.query_central("rho1", "nope")
    with pytest.raises(ValueError):
        ctx.has_rg_pole_at_1("nope")


def test_lcontext_build_validation():
    with pytest.raises(ValueError):
        LContext.build(["a"], rg_pole_at_1=["b"])
    with pytest.raises(ValueError):
        LContext.build(["a"], nonvanishing=[("a", "b")])
    with pytest.raises(ValueError):
        LContext.build(
            ["a", "b"], nonvanishing=[("a", "b")], vanishing=[("b", "a")]
        )


def test_violation_str():
    v = Violation("SomeCode", "detail here")
    assert str(v) == "[SomeCode] detail here"
