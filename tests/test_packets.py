"""Packet coordinates (t, eta), admissible-order validation, and the
canonical order construction."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.core_types import MINUS, PLUS
from apackets.jordan import to_quadruple
from apackets.packets import (
    PSI_PLUS_SIDE,
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    admissible_pairs,
    block_sign,
    canonical_order,
    check_constraint1,
    count_params,
    derive_prime_block,
    enumerate_params,
    locate_pivot,
    validate_order,
    validate_params,
)
from apackets.transfer import apply_transfer
from _helpers import (
    blk,
    canonical_blocks,
    canonical_order_by_remove,
    closed_form_count,
    pivot_block,
    sign_dp_count,
    validate_order_all_pairs,
)

# --- the range condition and block signs -------------------------------------


def test_block_sign_examples():
    assert block_sign(1, 1, 0, PLUS) == PLUS
    assert block_sign(2, 2, 1, PLUS) == PLUS
    assert block_sign(2, 2, 0, MINUS) == MINUS


def test_block_sign_rejects_range_violations():
    with pytest.raises(ValueError):
        block_sign(2, 2, 1, MINUS)  # 2t = min forces eta = +
    with pytest.raises(ValueError):
        block_sign(2, 2, 2, PLUS)  # t too large
    with pytest.raises(ValueError):
        block_sign(2, 2, -1, PLUS)


def test_check_constraint1():
    assert check_constraint1(3, 4, 0, MINUS) is None
    assert check_constraint1(3, 4, 1, PLUS) is None
    assert check_constraint1(3, 4, 2, PLUS) is not None  # t > floor(3/2)
    assert check_constraint1(4, 4, 2, MINUS) is not None  # top of range, eta -
    assert check_constraint1(4, 4, 2, PLUS) is None
    with pytest.raises(ValueError):
        check_constraint1(3, 4, 0, 0)


def test_admissible_pairs():
    assert admissible_pairs(1, 1) == ((0, PLUS), (0, MINUS))
    assert admissible_pairs(1, 2) == ((0, PLUS), (0, MINUS))
    assert admissible_pairs(2, 2) == ((0, PLUS), (0, MINUS), (1, PLUS))
    assert admissible_pairs(3, 4) == ((0, PLUS), (0, MINUS), (1, PLUS), (1, MINUS))


# --- parameter validation ------------------------------------------------------


def test_validate_params_clean():
    assert validate_params([blk("r", 1, 1)], PacketParams((0,), (PLUS,)), PLUS) == []


def test_validate_params_sign_condition():
    vs = validate_params([blk("r", 1, 1)], PacketParams((0,), (MINUS,)), PLUS)
    assert [v.code for v in vs] == ["Constraint2"]


def test_validate_params_range_condition():
    vs = validate_params([blk("r", 2, 2)], PacketParams((1,), (MINUS,)), PLUS)
    assert [v.code for v in vs] == ["Constraint1"]


def test_validate_params_length_mismatch_raises():
    with pytest.raises(ValueError):
        validate_params([blk("r", 1, 1)], PacketParams((0, 0), (PLUS, PLUS)), PLUS)


# PacketParams checks nothing itself: the two functions that read packet
# coordinates check them. Three blocks whose pivot for _TARGET is position 0,
# so a fault at position 1 is found only by a check of every entry.
_THREE_BLOCKS = (blk("r", 4, 1), blk("r", 2, 1), blk("r", 6, 1))
_TARGET = TargetTriple("r", 4, 3)


def _readers(params):
    """validate_params and apply_transfer on ``params``, each as a thunk."""
    return (
        lambda: validate_params(_THREE_BLOCKS, params, PLUS),
        lambda: apply_transfer(_THREE_BLOCKS, params, _TARGET),
    )


def test_packet_params_validation():
    for t, eta, message in [
        ((0, 0), (PLUS, PLUS, PLUS), "t covers 2 blocks, order has 3"),
        ((0, 0, 0), (PLUS, MINUS), "eta covers 2 blocks, order has 3"),
        ((0,), (PLUS, MINUS), "t covers 1 blocks, order has 3"),
    ]:
        for read in _readers(PacketParams(t, eta)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read()


@pytest.mark.parametrize("bad", [0, 2, True, False, "+", [1], None])
def test_packet_params_names_the_first_bad_sign(bad):
    # True equals PLUS and a list cannot be hashed; both are still no sign.
    for read in _readers(PacketParams((0, 0, 0), (PLUS, bad, MINUS))):
        with pytest.raises(ValueError, match=re.escape(f"not a sign (+1/-1): {bad!r}")):
            read()


# --- enumeration -----------------------------------------------------------------


def test_enumerate_single_odd_block():
    found = enumerate_params([blk("r", 1, 1)], PLUS)
    assert found == (PacketParams((0,), (PLUS,)),)
    assert len(enumerate_params([blk("r", 1, 1)], PLUS)) == 1


def test_enumerate_single_even_block_plus():
    found = enumerate_params([blk("r", 2, 2)], PLUS)
    assert found == (PacketParams((1,), (PLUS,)),)


def test_enumerate_single_even_block_minus():
    found = enumerate_params([blk("r", 2, 2)], MINUS)
    assert found == (
        PacketParams((0,), (PLUS,)),
        PacketParams((0,), (MINUS,)),
    )
    assert len(enumerate_params([blk("r", 2, 2)], MINUS)) == 2


def test_enumerate_lexicographic_order():
    found = enumerate_params([blk("r", 1, 2), blk("r", 1, 2)], PLUS)
    # each block admits (0,+), (0,-); the sign product must be +
    assert found == (
        PacketParams((0, 0), (PLUS, PLUS)),
        PacketParams((0, 0), (MINUS, MINUS)),
    )


def _brute_force(blocks, epsilon):
    """Independent enumeration: all raw (t, eta) per block, filtered by the
    two constraints written out directly."""
    per_block = []
    for b in blocks:
        m = min(b.a, b.b)
        opts = []
        for t in range(m // 2 + 1):
            for eta in (PLUS, MINUS):
                if 2 * t == m and eta == MINUS:
                    continue
                opts.append((t, eta))
        per_block.append(opts)
    out = []
    for choice in itertools.product(*per_block):
        sign = 1
        for b, (t, eta) in zip(blocks, choice):
            m = min(b.a, b.b)
            sign *= (eta ** m) * ((-1) ** (m // 2 + t))
        if sign == epsilon:
            out.append(choice)
    return out


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4
    ),
    st.sampled_from([PLUS, MINUS]),
)
def test_enumeration_matches_brute_force(sizes, epsilon):
    blocks = [blk("r", a, b) for a, b in sizes]
    found = enumerate_params(blocks, epsilon)
    expected = _brute_force(blocks, epsilon)
    got = [tuple(zip(p.t, p.eta)) for p in found]
    assert sorted(got) == sorted(expected)
    # every enumerated assignment passes validation
    for p in found:
        assert validate_params(blocks, p, epsilon) == []


@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4
    )
)
def test_count_partition(sizes):
    blocks = [blk("r", a, b) for a, b in sizes]
    total = 1
    for a, b in sizes:
        total *= len(admissible_pairs(a, b))
    assert len(enumerate_params(blocks, PLUS)) + len(enumerate_params(blocks, MINUS)) == total


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=4),
    st.sampled_from([PLUS, MINUS]),
)
def test_enumeration_order_matches_brute_force(sizes, epsilon):
    blocks = [blk("r", a, b) for a, b in sizes]
    found = enumerate_params(blocks, epsilon)
    assert [tuple(zip(p.t, p.eta)) for p in found] == _brute_force(blocks, epsilon)
    for p in found:
        assert type(p.t) is type(p.eta) is tuple
        assert all(type(e) is int and e in (PLUS, MINUS) for e in p.eta)
        assert validate_params(blocks, p, epsilon) == []


def test_enumerate_empty_block_list():
    assert enumerate_params([], PLUS) == (PacketParams((), ()),)
    assert enumerate_params([], MINUS) == ()
    assert _brute_force([], PLUS) == [()] and _brute_force([], MINUS) == []


# --- counting without enumeration ---------------------------------------------------


@settings(max_examples=150)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=40),
    st.sampled_from([PLUS, MINUS]),
)
def test_count_matches_closed_form(sizes, epsilon):
    blocks = [blk("r", a, b) for a, b in sizes]
    assert count_params(blocks, epsilon) == sign_dp_count(sizes, epsilon)


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=5),
    st.sampled_from([PLUS, MINUS]),
)
def test_count_matches_enumeration(sizes, epsilon):
    blocks = [blk("r", a, b) for a, b in sizes]
    count = count_params(tuple(blocks), epsilon)
    assert count == len(enumerate_params(blocks, epsilon))
    assert count == closed_form_count(sizes, epsilon)


def test_count_params_of_a_huge_block_is_exact():
    # m = 10^18 is divisible by 4: its 10^18 + 1 pairs hold one more + than -.
    huge = blk("r", 10**18 + 1, 10**18)
    assert count_params([huge], PLUS) == 5 * 10**17 + 1
    assert count_params([huge], MINUS) == 5 * 10**17
    # (r,2,2) has 3 pairs, one more - than +.
    assert count_params([huge, blk("r", 2, 2)], PLUS) == (3 * (10**18 + 1) - 1) // 2


def test_count_params_rejects_bad_sign():
    with pytest.raises(ValueError):
        count_params([blk("r", 1, 1)], 0)


# --- target triples and the shrunken block ---------------------------------------


def test_target_triple_validation():
    with pytest.raises(ValueError):
        TargetTriple("r", 0, 3)
    with pytest.raises(ValueError):
        TargetTriple("r", 1, 1)


def test_target_triple_exceptional_flag():
    assert TargetTriple("r", 3, 4).is_exceptional is True
    assert TargetTriple("r", 5, 3).is_exceptional is False
    assert TargetTriple("r", 1, 2).is_exceptional is True


def test_derive_prime_block_examples():
    assert derive_prime_block(4, 2) is None
    q = derive_prime_block(3, 4)
    assert (q.A_x2, q.B_x2, q.zeta) == (3, 1, PLUS)
    assert derive_prime_block(5, 3) == to_quadruple(5, 1)
    for a0, b0 in ((0, 3), (3, 1)):
        message = f"need a0 >= 1 and b0 >= 2, got ({a0}, {b0})"
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_prime_block(a0, b0)


def test_derive_prime_block_zeta_override():
    # a0 = b0 - 2: the shrunken block is square but keeps zeta = -.
    q = derive_prime_block(2, 4)
    assert (q.A_x2, q.B_x2, q.zeta) == (2, 0, MINUS)


def test_prime_block_coordinates_grid():
    for a0 in range(1, 13):
        for b0 in range(3, 13):
            t = TargetTriple("r", a0, b0)
            tq, pq = to_quadruple(t.a0, t.b0), derive_prime_block(t.a0, t.b0)
            assert pq.A_x2 == tq.A_x2 - 2
            if a0 == b0 - 1:
                assert tq.B_x2 == 1 and pq.B_x2 == 1
                assert (tq.zeta, pq.zeta) == (MINUS, PLUS)
            elif a0 == b0 - 2:
                assert pq.zeta == MINUS
                assert pq.B_x2 == tq.B_x2 - 2
            else:
                assert pq.zeta == tq.zeta
                assert pq.B_x2 == tq.B_x2 + 2 * tq.zeta  # B0 +- 1


def test_target_triple_blocks():
    # Both blocks are built once; validate_order reads the shrunken block's
    # A and B where derive_prime_block's are meant.
    for a0 in range(1, 13):
        for b0 in range(2, 13):
            t = TargetTriple("r", a0, b0)
            assert t.plus == blk("r", a0, b0)
            if b0 == 2:
                assert t.prime is None
                continue
            pq = derive_prime_block(a0, b0)
            assert t.prime == blk("r", a0, b0 - 2)
            assert (t.prime.A_x2, t.prime.B_x2) == (pq.A_x2, pq.B_x2)


# --- pivot location -----------------------------------------------------------------


def test_locate_pivot_none_when_no_shrunken_block():
    assert locate_pivot([blk("r", 1, 1)], TargetTriple("r", 4, 2), PSI_SIDE) is None


def test_locate_pivot_absent_raises():
    with pytest.raises(ValueError):
        locate_pivot([blk("r", 1, 1)], TargetTriple("r", 5, 3), PSI_SIDE)


def test_locate_pivot_highest_copy_normal_case():
    blocks = [blk("r", 5, 1), blk("r", 5, 1)]
    assert locate_pivot(blocks, TargetTriple("r", 5, 3), PSI_SIDE) == 1


def test_locate_pivot_lowest_copy_exceptional_and_plus_side():
    blocks = [blk("r", 3, 2), blk("r", 3, 2)]
    assert locate_pivot(blocks, TargetTriple("r", 3, 4), PSI_SIDE) == 0
    plus = [blk("r", 3, 4), blk("r", 3, 4)]
    assert locate_pivot(plus, TargetTriple("r", 3, 4), PSI_PLUS_SIDE) == 0


def test_locate_pivot_bad_side():
    with pytest.raises(ValueError):
        locate_pivot([blk("r", 3, 2)], TargetTriple("r", 3, 4), "nope")


@pytest.mark.parametrize("check", [locate_pivot, validate_order, canonical_order])
def test_unknown_side_is_refused(check):
    with pytest.raises(ValueError) as exc:
        check([blk("r", 3, 2)], TargetTriple("r", 3, 4), "x")
    assert str(exc.value) == "unknown side: 'x'"


# --- order validation ----------------------------------------------------------------


def test_validate_order_canonical_example():
    # target (r,5,3): prime block (5,1); ascending-A order with the pivot
    # placed after the blocks with A <= A'0.
    target = TargetTriple("r", 5, 3)
    order = [blk("r", 1, 1), blk("r", 5, 1), blk("r", 6, 4)]
    assert validate_order(order, target, PSI_SIDE) == []


def test_validate_order_pp1():
    # (r,6,4) contributes a pole against (r,5,3) and must sit above the pivot.
    target = TargetTriple("r", 5, 3)
    order = [blk("r", 6, 4), blk("r", 5, 1)]
    assert [v.code for v in validate_order(order, target, PSI_SIDE)] == ["Pp1"]


def test_validate_order_condition0():
    # target (r,9,5): (r,8,2) has zeta = +, A < A0, B = B0 + 1 and sits above
    # the pivot: the only violation is Condition0.
    target = TargetTriple("r", 9, 5)
    order = [blk("r", 9, 3), blk("r", 8, 2)]
    assert [v.code for v in validate_order(order, target, PSI_SIDE)] == [
        "Condition0"
    ]


def test_validate_order_p_monotonicity():
    # strictly smaller (A, B) same zeta must sit below
    target = TargetTriple("r", 5, 3)
    order = [blk("r", 6, 2), blk("r", 5, 1), blk("r", 3, 1)]
    codes = [v.code for v in validate_order(order, target, PSI_SIDE)]
    assert "P" in codes


def test_validate_order_exceptional_minimality():
    target = TargetTriple("r", 2, 3)  # b0 = a0 + 1
    bad = [blk("r", 3, 2), blk("r", 2, 1)]
    assert [v.code for v in validate_order(bad, target, PSI_SIDE)] == [
        "ExceptionalMinimality"
    ]
    good = [blk("r", 2, 1), blk("r", 3, 2)]
    assert validate_order(good, target, PSI_SIDE) == []


def test_validate_order_limit1():
    # Block with A = A0, same zeta, B > B'0 must sit above the pivot.
    # target (r,5,3): A0=3, B0=1, zeta0=+; prime (5,1) = (2,2,+).
    # (r,7,1): A=3, B=3 > B'0=2, zeta=+ -> Limit1 when below the pivot.
    target = TargetTriple("r", 5, 3)
    order = [blk("r", 7, 1), blk("r", 5, 1)]
    codes = [v.code for v in validate_order(order, target, PSI_SIDE)]
    assert "Limit1" in codes
    ok = [blk("r", 5, 1), blk("r", 7, 1)]
    assert validate_order(ok, target, PSI_SIDE) == []


def test_validate_order_limit2():
    # Block with A = A'0, same zeta, B < B0 must sit below the pivot.
    # target (r,7,3): A0=4, B0=2, zeta0=+; prime (7,1) = (3,3,+).
    # (r,4,4): A=3=A'0, B=0 < B0=2 -> Limit2 when above the pivot.
    target = TargetTriple("r", 7, 3)
    order = [blk("r", 7, 1), blk("r", 4, 4)]
    codes = [v.code for v in validate_order(order, target, PSI_SIDE)]
    assert "Limit2" in codes
    ok = [blk("r", 4, 4), blk("r", 7, 1)]
    assert validate_order(ok, target, PSI_SIDE) == []


def test_validate_order_limit3_plus():
    # zeta0 = +: block with B = B0 and A < A'0 must sit below the pivot.
    # target (r,7,3): B0=2; (r,4,2): A=2 < A'0=3, B=1... need B=B0=2:
    # (r,5,1)? B=2, A=2: contributor? (+,+): B<=B0<=A0<=A: 2<=2<=4<=2 no.
    # Use (r,5,1): A=2, B=2, zeta=+.
    target = TargetTriple("r", 7, 3)
    order = [blk("r", 7, 1), blk("r", 5, 1)]
    codes = [v.code for v in validate_order(order, target, PSI_SIDE)]
    assert "Limit3" in codes
    ok = [blk("r", 5, 1), blk("r", 7, 1)]
    assert validate_order(ok, target, PSI_SIDE) == []


def test_validate_order_limit4_minus():
    # zeta0 = -: block with B = B'0 and A < A0 must sit below the pivot.
    # target (r,3,7): A0=4, B0=2, zeta0=-; prime (3,5) = (3,1,-).
    # (r,2,4): A=2, B=1=B'0, zeta=- and A < A0 -> must sit below.
    target = TargetTriple("r", 3, 7)
    order = [blk("r", 3, 5), blk("r", 2, 4)]
    codes = [v.code for v in validate_order(order, target, PSI_SIDE)]
    assert "Limit4" in codes
    ok = [blk("r", 2, 4), blk("r", 3, 5)]
    assert validate_order(ok, target, PSI_SIDE) == []


def test_validate_order_psi_plus_side():
    target = TargetTriple("r", 5, 3)
    order = [blk("r", 1, 1), blk("r", 5, 3), blk("r", 6, 4)]
    assert validate_order(order, target, PSI_PLUS_SIDE) == []


# --- canonical order -------------------------------------------------------------------


# A b0 = 2 target on the small side has no pivot: canonical_order is the plain sort.
_NO_PIVOT = TargetTriple("r", 1, 2)


def test_canonical_order_plain_sort():
    # (1,7) has A = 3; (3,1) has A = 1: ascending A.
    jord = [blk("r", 1, 7), blk("r", 3, 1)]
    out = canonical_order(jord, _NO_PIVOT, PSI_SIDE)
    assert out == [1, 0]
    assert canonical_blocks(jord, _NO_PIVOT, PSI_SIDE) == (blk("r", 3, 1), blk("r", 1, 7))


def test_canonical_order_duplicates_adjacent_and_deterministic():
    blocks = [blk("r", 2, 1), blk("r", 4, 1), blk("r", 2, 1)]
    out1 = canonical_order(blocks, _NO_PIVOT, PSI_SIDE)
    out2 = canonical_order(tuple(blocks), _NO_PIVOT, PSI_SIDE)
    assert out1 == out2
    assert out1 == [0, 2, 1]  # equal blocks keep their input order
    assert canonical_blocks(blocks, _NO_PIVOT, PSI_SIDE) == (
        blk("r", 2, 1), blk("r", 2, 1), blk("r", 4, 1)
    )


def test_canonical_order_with_target_passes_validation():
    target = TargetTriple("r", 5, 3)
    jord = [blk("r", 6, 4), blk("r", 5, 1), blk("r", 1, 1)]
    assert canonical_order(jord, target, PSI_SIDE) == [2, 1, 0]
    out = canonical_blocks(jord, target, PSI_SIDE)
    assert out == (blk("r", 1, 1), blk("r", 5, 1), blk("r", 6, 4))
    assert validate_order(out, target, PSI_SIDE) == []


def test_canonical_order_exceptional_puts_pivot_first():
    target = TargetTriple("r", 3, 4)
    jord = [blk("r", 2, 1), blk("r", 3, 2)]
    assert canonical_order(jord, target, PSI_SIDE) == [1, 0]
    out = canonical_blocks(jord, target, PSI_SIDE)
    assert out == (blk("r", 3, 2), blk("r", 2, 1))
    assert validate_order(out, target, PSI_SIDE) == []


def test_canonical_order_missing_pivot_raises():
    # The same message as validate_order's: both ask locate_pivot.
    target = TargetTriple("r", 5, 3)
    message = "required block (r,5,1) absent from the order"
    with pytest.raises(ValueError, match=re.escape(message)):
        canonical_order([blk("r", 1, 1)], target, PSI_SIDE)
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_order([blk("r", 1, 1)], target, PSI_SIDE)


def test_canonical_order_b0_two_is_plain_sort():
    target = TargetTriple("r", 4, 2)
    jord = [blk("r", 6, 1), blk("r", 2, 1)]
    assert canonical_order(jord, target, PSI_SIDE) == [1, 0]
    out = canonical_blocks(jord, target, PSI_SIDE)
    assert out == (blk("r", 2, 1), blk("r", 6, 1))
    assert validate_order(out, target, PSI_SIDE) == []


def test_canonical_order_psi_plus_side():
    target = TargetTriple("r", 5, 3)
    jord = [blk("r", 6, 4), blk("r", 5, 3), blk("r", 1, 1)]
    assert canonical_order(jord, target, PSI_PLUS_SIDE) == [2, 1, 0]
    out = canonical_blocks(jord, target, PSI_PLUS_SIDE)
    assert out == (blk("r", 1, 1), blk("r", 5, 3), blk("r", 6, 4))
    assert validate_order(out, target, PSI_PLUS_SIDE) == []


# canonical_order takes locate_pivot's copy of the pivot block; the former
# code took out the first equal copy. Copies are equal values, so the two
# must put the same blocks in the same places, however many copies there are.


@st.composite
def _pivot_copies_case(draw):
    """A target (normal, exceptional b0 = a0 + 1, or b0 = 2), a side, and a
    shuffled block list of mixed labels, twists and repeats holding that
    side's pivot block plus 0-3 extra copies of it."""
    a0 = draw(st.integers(1, 6))
    target = TargetTriple("r", a0, draw(st.sampled_from([2, a0 + 1, a0 + 2, a0 + 5])))
    side = draw(st.sampled_from([PSI_SIDE, PSI_PLUS_SIDE]))
    sizes = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=8)
    blocks = [blk("r", a, b) for a, b in draw(sizes)]
    blocks += [blk("rs", a, b) for a, b in draw(sizes)[:2]]
    blocks += [blk("r", a, b, Fraction(1, 4)) for a, b in draw(sizes)[:2]]
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=3)) if blocks else []
    pivot = pivot_block(target, side)
    if pivot is not None:
        blocks += [pivot] * draw(st.integers(1, 4))
    return draw(st.permutations(blocks)), target, side


@settings(max_examples=400, deadline=None)
@given(_pivot_copies_case())
def test_canonical_order_matches_list_remove_oracle(case):
    blocks, target, side = case
    out = canonical_order(blocks, target, side)
    assert sorted(out) == list(range(len(blocks)))
    ordered = tuple(blocks[k] for k in out)
    assert ordered == canonical_order_by_remove(blocks, target, side)
    # The index reported at the pivot's place is locate_pivot's copy, and
    # equal blocks keep their input order, that copy included.
    pivot = locate_pivot(blocks, target, side)
    if pivot is not None:
        assert out[locate_pivot(ordered, target, side)] == pivot
    assert all(i < j for i, j in itertools.combinations(out, 2) if blocks[i] == blocks[j])


# Random good-parity multisets: canonical_order output always validates.


@st.composite
def _jord_and_target(draw):
    a0 = draw(st.integers(1, 6))
    b0 = draw(st.integers(2, 7))
    parity = (a0 + b0) % 2
    n = draw(st.integers(0, 4))
    blocks = []
    for _ in range(n):
        a = draw(st.integers(1, 7))
        b_choices = [b for b in range(1, 8) if (a + b) % 2 == parity]
        blocks.append(blk("r", a, draw(st.sampled_from(b_choices))))
    return blocks, TargetTriple("r", a0, b0)


@settings(max_examples=200)
@given(_jord_and_target())
def test_canonical_order_always_validates(case):
    blocks, target = case
    # small side needs the shrunken block present when b0 > 2
    psi_blocks = list(blocks)
    prime = target.prime
    if prime is not None:
        psi_blocks.append(prime)
    out = canonical_blocks(psi_blocks, target, PSI_SIDE)
    assert validate_order(out, target, PSI_SIDE) == [], (psi_blocks, target)

    plus_blocks = list(blocks) + [target.plus]
    out_plus = canonical_blocks(plus_blocks, target, PSI_PLUS_SIDE)
    assert validate_order(out_plus, target, PSI_PLUS_SIDE) == [], (
        plus_blocks,
        target,
    )


@settings(max_examples=100)
@given(_jord_and_target())
def test_inserting_sorted_block_never_breaks_p(case):
    """Adding one more block at its sorted position keeps monotonicity."""
    blocks, target = case
    psi_blocks = list(blocks)
    prime = target.prime
    if prime is not None:
        psi_blocks.append(prime)
    out = list(canonical_blocks(psi_blocks, target, PSI_SIDE))

    extra = blk("r", 3, 2 if (target.a0 + target.b0) % 2 == 1 else 1)
    from apackets.packets import _canonical_key

    keys = [_canonical_key(b) for b in out]
    pos = sum(1 for k in keys if k <= _canonical_key(extra))
    out.insert(pos, extra)
    codes = [v.code for v in validate_order(out, target, PSI_SIDE)]
    assert "P" not in codes


# The sweep against the all-pairs oracle, on orders mixing labels, twists,
# duplicates, both sides, exceptional targets (b0 = a0 + 1) and b0 = 2.


def _random_order_case(rng):
    a0 = rng.randint(1, 6)
    target = TargetTriple("r", a0, rng.choice([2, a0 + 1, rng.randint(2, 8)]))
    side = rng.choice([PSI_SIDE, PSI_PLUS_SIDE])
    blocks = [blk("r", rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(0, 14))]
    blocks += [blk("rs", rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 2)):  # a twisted contragredient pair
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        x = Fraction(rng.choice([-1, 1]), rng.choice([3, 4, 5]))
        blocks += [blk("u", a, b, x), blk("v", a, b, -x)]
    if rng.random() < 0.3:  # twisted blocks on the target's own label
        blocks += [blk("r", rng.randint(1, 6), rng.randint(1, 6), Fraction(1, 4)) for _ in range(2)]
    blocks += rng.sample(blocks, min(len(blocks), rng.randint(0, 3)))  # duplicates
    pivot = pivot_block(target, side)
    if pivot is not None:
        blocks += [pivot] * rng.randint(1, 2)
    if rng.random() < 0.5:
        return list(canonical_blocks(blocks, target, side)), target, side
    rng.shuffle(blocks)
    return blocks, target, side


def test_validate_order_matches_all_pairs_oracle():
    rng = random.Random(20090)
    codes = set()
    for _ in range(1500):
        blocks, target, side = _random_order_case(rng)
        got = validate_order(blocks, target, side)
        assert got == validate_order_all_pairs(blocks, target, side), (blocks, target, side)
        codes.update(v.code for v in got)
    assert codes == {
        "P", "Pp1", "Pp2", "ExceptionalMinimality", "Condition0",
        "Limit1", "Limit2", "Limit3", "Limit4",
    }
