"""Blocks, quadruple coordinates, parity classification, decomposition,
and structural parameter validation."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apackets.core_types import MINUS, PLUS, GroupKind
from apackets.jordan import (
    ArthurParameter,
    JordanBlock,
    Quadruple,
    decompose,
    from_quadruple,
    good_parity,
    to_quadruple,
    validate_parameter,
)
from _helpers import (
    blk,
    decompose_by_search,
    label,
    so_odd,
    soodd_param,
    sp,
    standard_labels,
)

LABELS = standard_labels()


# --- quadruple coordinates ----------------------------------------------------


def test_to_quadruple_examples():
    assert to_quadruple(3, 1) == Quadruple(2, 2, PLUS)
    assert to_quadruple(1, 3) == Quadruple(2, 2, MINUS)
    assert to_quadruple(2, 2) == Quadruple(2, 0, PLUS)
    assert to_quadruple(3, 4) == Quadruple(5, 1, MINUS)  # A = 5/2, B = 1/2


def test_from_quadruple_examples():
    assert from_quadruple(2, 2, PLUS) == (3, 1)
    assert from_quadruple(2, 0, PLUS) == (2, 2)
    assert from_quadruple(5, 1, MINUS) == (3, 4)


def test_to_quadruple_rejects_bad_sizes():
    with pytest.raises(ValueError):
        to_quadruple(0, 1)
    with pytest.raises(ValueError):
        to_quadruple(1, 0)


def test_from_quadruple_rejects_bad_coordinates():
    # Coordinates are doubled; the messages print them as halves.
    with pytest.raises(ValueError, match="got A=1, B=2$"):
        from_quadruple(2, 4, PLUS)  # A < B
    with pytest.raises(ValueError, match="got A=1, B=-1/2$"):
        from_quadruple(2, -1, PLUS)  # B < 0
    with pytest.raises(ValueError, match="got A=3/2, B=1$"):
        from_quadruple(3, 2, PLUS)  # A - B not an integer
    with pytest.raises(ValueError):
        from_quadruple(2, 0, MINUS)  # zeta must be + at B = 0
    with pytest.raises(ValueError):
        from_quadruple(2, 2, 0)  # not a sign


@given(st.integers(1, 50), st.integers(1, 50))
def test_quadruple_roundtrip(a, b):
    q = to_quadruple(a, b)
    assert from_quadruple(q.A_x2, q.B_x2, q.zeta) == (a, b)


@given(st.integers(1, 50), st.integers(1, 50))
def test_quadruple_shape_invariants(a, b):
    q = to_quadruple(a, b)
    assert q.B_x2 >= 0
    assert q.A_x2 >= q.B_x2
    assert q.A_x2 + q.B_x2 == 2 * (max(a, b) - 1)
    assert q.zeta * (a - b) >= 0
    if a == b:
        assert q.zeta == PLUS


# --- blocks ---------------------------------------------------------------------


def test_block_twist_coercion_and_bounds():
    assert blk("r", 1, 1).twist == Fraction(0)
    with pytest.raises(ValueError):
        JordanBlock("r", 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        JordanBlock("r", 1, 1, Fraction(-3, 4))
    with pytest.raises(ValueError):
        JordanBlock("r", 0, 1)


@pytest.mark.parametrize(
    "twist, ok",
    [(Fraction(49, 100), True), (Fraction(-49, 100), True), ("-1/3", True), (0, True),
     (Fraction(-1, 2), False), ("1/2", False), (1, False), (Fraction(-7, 3), False)],
)
def test_block_twist_bound_is_strict_on_both_sides(twist, ok):
    if ok:
        block = JordanBlock("r", 1, 1, twist)
        assert type(block.twist) is Fraction and block.twist == Fraction(twist)
    else:
        message = f"twist must satisfy |x| < 1/2, got {Fraction(twist)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            JordanBlock("r", 1, 1, twist)


@pytest.mark.parametrize("twist", [Fraction(0), Fraction(1, 3), Fraction(-1, 4), "2/5"])
def test_block_coordinates_match_to_quadruple(twist):
    for a in range(1, 12):
        for b in range(1, 12):
            block = JordanBlock("r", a, b, twist)
            q = to_quadruple(a, b)
            assert (block.A_x2, block.B_x2, block.zeta) == (q.A_x2, q.B_x2, q.zeta), (a, b)


def test_block_equality_hash_and_repr_ignore_coordinates():
    compared = [f.name for f in dataclasses.fields(JordanBlock) if f.compare]
    assert compared == ["rho", "a", "b", "twist"]
    block = JordanBlock("r", 3, 4)
    assert block == JordanBlock("r", 3, 4, Fraction(0)) == JordanBlock("r", 3, 4, "0")
    assert hash(block) == hash(("r", 3, 4, Fraction(0)))
    # Same A and B, other zeta; same coordinates, other label or twist.
    assert block != JordanBlock("r", 4, 3)
    assert block != JordanBlock("rs", 3, 4) and block != JordanBlock("r", 3, 4, Fraction(1, 3))
    assert repr(block) == "JordanBlock(rho='r', a=3, b=4, twist=Fraction(0, 1))"


def test_block_dim_multiplier():
    assert blk("r", 3, 4).dim_multiplier() == 12


def test_standard_dim():
    psi = soodd_param([blk("r", 2, 1), blk("rs", 1, 1)])
    assert psi.standard_dim(LABELS) == 1 * 2 + 2 * 1
    with pytest.raises(ValueError):
        ArthurParameter(so_odd(2), (blk("nope", 1, 1),)).standard_dim(LABELS)


# --- good parity -----------------------------------------------------------------


def test_good_parity_examples():
    g = so_odd(4)
    assert good_parity(blk("r", 2, 1), g, LABELS) is True
    assert good_parity(blk("r", 1, 1), g, LABELS) is False
    assert good_parity(blk("u", 2, 1), g, LABELS) is False  # not self-dual


def test_good_parity_twisted_is_false():
    g = so_odd(4)
    assert good_parity(JordanBlock("r", 2, 1, Fraction(1, 4)), g, LABELS) is False


def test_good_parity_requires_declared_parity():
    g = so_odd(4)
    with pytest.raises(ValueError):
        good_parity(blk("w", 2, 1), g, LABELS)
    with pytest.raises(ValueError):
        good_parity(blk("nope", 2, 1), g, LABELS)


@given(st.integers(1, 12), st.integers(1, 12))
def test_good_parity_swap_invariance(a, b):
    for g in (so_odd(4), sp(4)):
        assert good_parity(blk("r", a, b), g, LABELS) == good_parity(
            blk("r", b, a), g, LABELS
        )


@given(st.integers(1, 12), st.integers(1, 12))
def test_good_parity_for_dim1_orthogonal_label(a, b):
    # SOodd wants a symplectic product: exactly one even size.
    so_good = good_parity(blk("r", a, b), so_odd(4), LABELS)
    assert so_good == ((a % 2 == 0) != (b % 2 == 0))
    # Sp wants an orthogonal product: sizes of equal parity.
    sp_good = good_parity(blk("r", a, b), sp(4), LABELS)
    assert sp_good == ((a % 2) == (b % 2))


# --- decomposition ---------------------------------------------------------------


def test_decompose_all_good_parity():
    # Jord_bp comes back in the parameter's order, not sorted.
    psi = soodd_param([blk("r", 4, 1), blk("r", 2, 1)])
    assert decompose(psi, LABELS) == (blk("r", 4, 1), blk("r", 2, 1))


def test_decompose_twisted_pair_distinct_labels():
    psi = soodd_param(
        [
            JordanBlock("u", 2, 1, Fraction(1, 4)),
            JordanBlock("v", 2, 1, Fraction(-1, 4)),
        ]
    )
    assert decompose(psi, LABELS) == ()


def test_decompose_twisted_pair_self_dual_label():
    psi = soodd_param(
        [
            JordanBlock("r", 2, 1, Fraction(1, 4)),
            JordanBlock("r", 2, 1, Fraction(-1, 4)),
        ]
    )
    assert decompose(psi, LABELS) == ()


def test_decompose_bad_parity_double_copy():
    # (r,1,1) has orthogonal product, wrong for SOodd: pairs with its copy.
    psi = soodd_param([blk("r", 1, 1), blk("r", 2, 1), blk("r", 1, 1)])
    assert decompose(psi, LABELS) == (blk("r", 2, 1),)


def test_decompose_unpairable_raises():
    psi = soodd_param([JordanBlock("r", 2, 1, Fraction(1, 4))])
    with pytest.raises(ValueError):
        decompose(psi, LABELS)
    psi2 = soodd_param([blk("r", 1, 1)])  # lone bad-parity block
    with pytest.raises(ValueError):
        decompose(psi2, LABELS)


def test_decompose_undeclared_twisted_label_is_a_value_error():
    psi = ArthurParameter(
        so_odd(4), (JordanBlock("nope", 2, 1, Fraction(1, 4)), JordanBlock("nope", 2, 1, Fraction(-1, 4)))
    )
    with pytest.raises(ValueError, match="unknown label: 'nope'"):
        decompose(psi, LABELS)


# Self-dual labels (bad parity at (1,1) and (2,2) for SOodd) and two families of
# non-self-dual labels, so classes hold several labels.
PAIRING_LABELS = {
    "r": label("r"),
    "rs": label("rs", dim=2, parity="symplectic"),
    **{f"n{i}": label(f"n{i}", dim=2, self_dual=False, parity=None) for i in range(5)},
    **{f"m{i}": label(f"m{i}", dim=1, self_dual=False, parity=None) for i in range(3)},
}
_TWISTS = (0, 0, 0, Fraction(1, 4), Fraction(-1, 4), Fraction(1, 3), Fraction(-1, 3))


def _random_partner(rng: random.Random, b: JordanBlock) -> JordanBlock:
    lab = PAIRING_LABELS[b.rho]
    if lab.self_dual:
        return JordanBlock(b.rho, b.a, b.b, -b.twist)
    others = [o.id for o in PAIRING_LABELS.values() if not o.self_dual and o.dim == lab.dim and o.id != b.rho]
    return JordanBlock(rng.choice(others), b.a, b.b, -b.twist)


def _random_pairing_parameter(rng: random.Random) -> ArthurParameter:
    mode = rng.randrange(3)
    if mode < 2:
        # Mixed labels, sizes and twists; in mode 1 each block gets a partner.
        blocks = [
            JordanBlock(rng.choice(list(PAIRING_LABELS)), rng.randint(1, 2), rng.randint(1, 2), rng.choice(_TWISTS))
            for _ in range(rng.randint(0, 10 // (mode + 1)))
        ]
        if mode == 1:
            blocks += [_random_partner(rng, b) for b in blocks]
            rng.shuffle(blocks)
    else:
        # One (a, b) on a few non-self-dual labels: large classes, often with a
        # label holding half of the class.
        k = rng.randint(1, 5)
        blocks = [
            JordanBlock(f"n{rng.randrange(k)}", 1, 1, rng.choice((0, 0, Fraction(1, 4), Fraction(-1, 4))))
            for _ in range(rng.randint(0, 10))
        ]
    dim = sum(PAIRING_LABELS[b.rho].dim * b.a * b.b for b in blocks)
    return ArthurParameter(so_odd(max(dim, 1) + rng.choice((0, 0, 1))), tuple(blocks))


def test_decompose_and_validate_match_search_oracle():
    rng = random.Random(2009)
    pairable = 0
    for _ in range(4000):
        psi = _random_pairing_parameter(rng)
        try:
            expected = decompose_by_search(psi, PAIRING_LABELS)
        except ValueError:
            expected = None
            with pytest.raises(ValueError, match="contragredient pairs"):
                decompose(psi, PAIRING_LABELS)
        else:
            pairable += 1
            assert decompose(psi, PAIRING_LABELS) == expected, psi.blocks
        codes = [v.code for v in validate_parameter(psi, PAIRING_LABELS)]
        dim = sum(PAIRING_LABELS[b.rho].dim * b.a * b.b for b in psi.blocks)
        assert codes == ["DimensionMismatch"] * (dim != psi.group.rank_dim) + [
            "UnpairedBlock"
        ] * (expected is None), psi.blocks
    assert 1000 < pairable < 3000


def _distinct_labels_parameter(count: int):
    labels = {f"d{i:02}": label(f"d{i:02}", dim=2, self_dual=False, parity=None) for i in range(count)}
    blocks = tuple(blk(lid, 2, 1) for lid in labels)
    return ArthurParameter(so_odd(4 * count), blocks), labels


def test_forty_distinct_labels_pair_up():
    psi, labels = _distinct_labels_parameter(40)
    assert validate_parameter(psi, labels) == []
    assert decompose(psi, labels) == ()


def test_forty_one_distinct_labels_do_not_pair_up():
    # An odd set of distinct labels: a search over the matchings takes
    # exponential time here.
    psi, labels = _distinct_labels_parameter(41)
    vs = validate_parameter(psi, labels)
    assert [(v.code, v.message) for v in vs] == [
        ("UnpairedBlock", "blocks cannot be grouped into contragredient pairs (near (d00,2,1))")
    ]
    with pytest.raises(ValueError, match="contragredient pairs"):
        decompose(psi, labels)


def test_unpaired_block_names_the_class_that_fails():
    # The (r,1,1) copies pair with each other; the odd set of w labels does not.
    labels = {"r": label("r"), **{f"w{i}": label(f"w{i}", self_dual=False, parity=None) for i in range(3)}}
    blocks = (blk("r", 1, 1), blk("r", 1, 1), blk("r", 2, 1)) + tuple(blk(f"w{i}", 2, 3) for i in range(3))
    vs = validate_parameter(ArthurParameter(so_odd(22), blocks), labels)
    assert [(v.code, v.message) for v in vs] == [
        ("UnpairedBlock", "blocks cannot be grouped into contragredient pairs (near (w0,2,3))")
    ]


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        min_size=0,
        max_size=3,
    ),
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        min_size=0,
        max_size=2,
    ),
)
def test_decompose_partition_law(good_sizes, pair_sizes):
    # Build a parameter from good-parity blocks plus constructed dual pairs.
    blocks = []
    for a, b in good_sizes:
        if (a % 2 == 0) != (b % 2 == 0):
            blocks.append(blk("r", a, b))
    for a, b in pair_sizes:
        blocks.append(JordanBlock("u", a, b, Fraction(1, 4)))
        blocks.append(JordanBlock("v", a, b, Fraction(-1, 4)))
    if not blocks:
        blocks.append(blk("r", 2, 1))
    psi = soodd_param(blocks)
    # Jord_bp is the untwisted blocks; the constructed pairs are set aside.
    assert decompose(psi, LABELS) == tuple(b for b in blocks if b.twist == 0)


# --- structural validation ----------------------------------------------------------


def test_validate_parameter_clean():
    psi = soodd_param([blk("r", 3, 2), blk("r", 1, 2)])
    assert validate_parameter(psi, LABELS) == []


def test_validate_parameter_dimension_mismatch():
    psi = ArthurParameter(so_odd(5), (blk("r", 2, 1),))  # sums to 2, group wants 5
    vs = validate_parameter(psi, LABELS)
    assert [v.code for v in vs] == ["DimensionMismatch"]


def test_validate_parameter_unpaired_twisted_block():
    psi = ArthurParameter(
        so_odd(2), (JordanBlock("r", 2, 1, Fraction(1, 4)),)
    )
    vs = validate_parameter(psi, LABELS)
    assert "UnpairedBlock" in [v.code for v in vs]


def test_validate_parameter_unknown_label_suppresses_dim_check():
    psi = ArthurParameter(so_odd(5), (blk("nope", 2, 2),))
    vs = validate_parameter(psi, LABELS)
    assert [v.code for v in vs] == ["UnknownLabel"]


def test_validate_parameter_insufficient_declaration():
    psi = ArthurParameter(so_odd(4), (blk("w", 2, 2),))
    vs = validate_parameter(psi, LABELS)
    assert [v.code for v in vs] == ["InsufficientDeclaration"]


def test_validate_parameter_returns_multiple():
    psi = ArthurParameter(so_odd(99), (blk("r", 1, 1),))
    codes = sorted(v.code for v in validate_parameter(psi, LABELS))
    assert codes == ["DimensionMismatch", "UnpairedBlock"]
