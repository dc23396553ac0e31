"""Tests for block enlargement: parameter, order, and packet-coordinate
transport."""

import itertools
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.core_types import MINUS, PLUS, GroupType
from apackets.jordan import ArthurParameter, JordanBlock
from apackets.packets import (
    PSI_PLUS_SIDE,
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    admissible_pairs,
    block_sign,
    check_constraint1,
    locate_pivot,
    validate_order,
)
from apackets.transfer import (
    apply_transfer,
    build_psi_plus,
    check_sign_identity,
    transfer_params,
)

from _helpers import (
    blk,
    canonical_blocks,
    label,
    soodd_param,
    sp,
    sp_param,
    standard_labels,
    transfer_params_by_cases,
)

LABELS = standard_labels()


# --- packet-coordinate transport -----------------------------------------------


def test_transfer_params_normal_branch():
    assert transfer_params(0, MINUS, 5, 3) == (1, MINUS)
    assert transfer_params(0, PLUS, 5, 3) == (1, PLUS)
    assert transfer_params(0, PLUS, 3, 6) == (0, PLUS)
    assert transfer_params(1, MINUS, 3, 6) == (1, MINUS)


def test_transfer_params_exceptional_branch():
    # b0 = a0 + 1: the top-of-range input keeps its t, otherwise eta = +
    # bumps t and flips the sign while eta = - keeps t and flips to +.
    assert transfer_params(1, PLUS, 3, 4) == (1, PLUS)
    assert transfer_params(0, PLUS, 3, 4) == (1, MINUS)
    assert transfer_params(0, MINUS, 3, 4) == (0, PLUS)


def test_transfer_params_exceptional_canonicalization():
    # a0 even: the bumped t reaches min(a0, b0)/2, so the sign snaps to +.
    assert transfer_params(1, PLUS, 4, 5) == (2, PLUS)
    assert transfer_params(1, MINUS, 4, 5) == (1, PLUS)
    assert transfer_params(0, PLUS, 2, 3) == (1, PLUS)
    assert transfer_params(0, MINUS, 2, 3) == (0, PLUS)


def test_transfer_params_fresh_block_defaults():
    assert transfer_params(0, PLUS, 4, 2) == (1, PLUS)
    assert transfer_params(0, PLUS, 1, 2) == (0, PLUS)
    # The inputs are ignored when the shrunken block does not exist.
    assert transfer_params(99, MINUS, 4, 2) == (1, PLUS)


def test_transfer_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        transfer_params(1, PLUS, 1, 4)  # t0 over the (1, 2) range
    with pytest.raises(ValueError):
        transfer_params(0, PLUS, 0, 3)
    with pytest.raises(ValueError):
        transfer_params(0, PLUS, 3, 1)
    with pytest.raises(ValueError):
        transfer_params(1, MINUS, 5, 4)  # 2t = min at the source forces +


def test_transfer_params_output_is_admissible_and_injective():
    for a0 in range(1, 9):
        for b0 in range(3, 9):
            pairs = admissible_pairs(a0, b0 - 2)
            images = [transfer_params(t0, eta0, a0, b0) for t0, eta0 in pairs]
            for t_plus, eta_plus in images:
                assert check_constraint1(a0, b0, t_plus, eta_plus) is None
            assert len(set(images)) == len(images)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_transfer_params_matches_case_oracle():
    # Every admissible (t0, eta0), and for b0 = 2 the inputs it ignores,
    # inadmissible ones included; out-of-range inputs must fail alike.
    for a0 in range(1, 12):
        for b0 in range(2, 14):
            m = min(a0, b0 - 2)
            pairs = [
                (t0, eta0)
                for t0 in range(m // 2 + 1)
                for eta0 in (PLUS, MINUS)
                if not (2 * t0 == m and eta0 == MINUS)
            ]
            if b0 == 2:
                pairs += [(t0, eta0) for t0 in (-1, 1, 2, 99) for eta0 in (PLUS, MINUS)]
                pairs.append((0, MINUS))
            else:
                pairs += [(-1, PLUS), (m // 2 + 1, PLUS)]
                if m % 2 == 0:
                    pairs.append((m // 2, MINUS))
            for t0, eta0 in pairs:
                args = (t0, eta0, a0, b0)
                got = _outcome(transfer_params, *args)
                assert got == _outcome(transfer_params_by_cases, *args), args
                if b0 > 2 and check_constraint1(a0, b0 - 2, t0, eta0) is None:
                    assert isinstance(got, tuple), args
    for args in [(0, PLUS, 0, 3), (0, PLUS, 3, 1), (0, PLUS, 0, 2)]:
        assert _outcome(transfer_params, *args) == _outcome(transfer_params_by_cases, *args)


def test_check_sign_identity_examples():
    assert check_sign_identity(3, 5, 0, PLUS) is True
    assert check_sign_identity(4, 5, 1, MINUS) is True
    assert check_sign_identity(3, 4, 0, MINUS) is True
    assert check_sign_identity(4, 2, 0, PLUS) is True


def test_check_sign_identity_grid():
    for a0 in range(1, 11):
        for b0 in range(2, 11):
            if b0 == 2:
                assert check_sign_identity(a0, 2, 0, PLUS)
                continue
            for t0, eta0 in admissible_pairs(a0, b0 - 2):
                assert check_sign_identity(a0, b0, t0, eta0), (a0, b0, t0, eta0)


# --- enlarged parameter ----------------------------------------------------------


def _sp_labels():
    labels = standard_labels()
    labels["r2"] = label("r2")
    return labels


def test_build_psi_plus_replaces_block():
    labels = _sp_labels()
    psi = sp_param([blk("r", 3, 3), blk("r2", 1, 1)], labels)
    assert psi.group.rank_dim == 10
    plus = build_psi_plus(psi, TargetTriple("r", 3, 5), labels)
    assert plus.group.rank_dim == 16
    assert plus.group.kind == psi.group.kind
    assert plus.blocks == (blk("r", 3, 5), blk("r2", 1, 1))
    assert plus.standard_dim(labels) == 16


def test_build_psi_plus_replaces_first_copy():
    psi = sp_param([blk("r", 3, 3), blk("r", 3, 3), blk("r", 1, 1)])
    plus = build_psi_plus(psi, TargetTriple("r", 3, 5), LABELS)
    assert plus.blocks == (blk("r", 3, 5), blk("r", 3, 3), blk("r", 1, 1))


def test_build_psi_plus_appends_fresh_block():
    labels = _sp_labels()
    psi = sp_param([blk("r", 3, 3), blk("r2", 1, 1)], labels)
    plus = build_psi_plus(psi, TargetTriple("r", 4, 2), labels)
    assert plus.blocks == (blk("r", 3, 3), blk("r2", 1, 1), blk("r", 4, 2))
    assert plus.group.rank_dim == 18
    assert plus.standard_dim(labels) == 18


def test_build_psi_plus_so_odd():
    psi = soodd_param([blk("r", 2, 1)])
    plus = build_psi_plus(psi, TargetTriple("r", 2, 3), LABELS)
    assert plus.blocks == (blk("r", 2, 3),)
    assert plus.group.rank_dim == 6


def test_build_psi_plus_missing_prime_block():
    psi = sp_param([blk("r", 3, 3)])
    with pytest.raises(ValueError):
        build_psi_plus(psi, TargetTriple("r", 5, 3), LABELS)


def test_build_psi_plus_bad_parity_target():
    psi = sp_param([blk("r", 3, 3)])
    with pytest.raises(ValueError):
        build_psi_plus(psi, TargetTriple("r", 2, 3), LABELS)


def test_build_psi_plus_dimension_mismatch():
    psi = ArthurParameter(sp(11), (blk("r", 3, 3),))
    with pytest.raises(ValueError):
        build_psi_plus(psi, TargetTriple("r", 3, 5), LABELS)


def test_build_psi_plus_unknown_label():
    psi = sp_param([blk("r", 3, 3)])
    with pytest.raises(ValueError):
        build_psi_plus(psi, TargetTriple("zz", 3, 5), LABELS)


# --- order transport -------------------------------------------------------------


def _four_block_order():
    target = TargetTriple("r", 4, 3)
    blocks = [blk("r", 2, 1), blk("r", 2, 3), blk("r", 4, 1), blk("r", 4, 3)]
    return blocks, target


def _reduced_blocks(ordered_plus, target):
    """Small-side order read back from the enlarged side: the enlarged
    side's pivot goes back to the shrunken block (b0 > 2)."""
    blocks = list(ordered_plus)
    blocks[locate_pivot(blocks, target, PSI_PLUS_SIDE)] = target.prime
    return tuple(blocks)


def _transported_order(blocks, target, insert_position=None):
    """The order half of apply_transfer, with all-zero coordinates."""
    params = PacketParams(t=(0,) * len(blocks), eta=(PLUS,) * len(blocks))
    return apply_transfer(blocks, params, target, insert_position)[0]


def test_reduced_order_inverts_induced():
    blocks, target = _four_block_order()
    assert _reduced_blocks(_transported_order(blocks, target), target) == tuple(blocks)


def test_apply_transfer_position_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        _transported_order([blk("r", 2, 1)], TargetTriple("r", 4, 2), insert_position=3)


@settings(max_examples=150)
@given(
    st.integers(1, 5),
    st.integers(3, 7),
    st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=3),
)
def test_apply_transfer_replaces_only_the_pivot(a0, b0, extra_sizes):
    target = TargetTriple("r", a0, b0)
    parity = (a0 + b0) % 2
    blocks = [blk("r", a, b) for a, b in extra_sizes if (a + b) % 2 == parity]
    blocks.append(target.prime)
    ordered = canonical_blocks(blocks, target, PSI_SIDE)
    pivot = locate_pivot(ordered, target, PSI_SIDE)
    # t grows with the position where the block's range allows, so a shifted
    # coordinate would show.
    t = tuple(min(k, min(b.a, b.b) // 2) for k, b in enumerate(ordered))
    params = PacketParams(t=t, eta=(PLUS,) * len(ordered))
    new_order, new_params, position = apply_transfer(ordered, params, target)
    expected = list(ordered)
    expected[pivot] = target.plus
    assert new_order == tuple(expected)
    assert [x for k, x in enumerate(new_params.t) if k != pivot] == [
        x for k, x in enumerate(t) if k != pivot
    ]
    # The reported position holds the enlarged block and the pivot's
    # transported coordinates.
    assert position == pivot
    assert new_order[position] == target.plus
    assert (new_params.t[position], new_params.eta[position]) == transfer_params(
        t[pivot], PLUS, a0, b0
    )


@settings(max_examples=150)
@given(
    st.integers(1, 5),
    st.integers(3, 7),
    st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=3),
)
def test_reduced_of_induced_is_identity(a0, b0, extra_sizes):
    target = TargetTriple("r", a0, b0)
    parity = (a0 + b0) % 2
    blocks = [blk("r", a, b) for a, b in extra_sizes if (a + b) % 2 == parity]
    blocks.append(target.prime)
    ordered = canonical_blocks(blocks, target, PSI_SIDE)
    back = _reduced_blocks(_transported_order(ordered, target), target)
    assert back == ordered


# --- full transport --------------------------------------------------------------


def test_apply_transfer_example():
    blocks, target = _four_block_order()
    params = PacketParams(t=(0, 1, 0, 1), eta=(PLUS, PLUS, PLUS, PLUS))
    new_order, new_params, position = apply_transfer(blocks, params, target)
    assert position == 2
    assert new_order == (
        blk("r", 2, 1),
        blk("r", 2, 3),
        blk("r", 4, 3),
        blk("r", 4, 3),
    )
    assert new_params.t == (0, 1, 1, 1)
    assert new_params.eta == (PLUS, PLUS, PLUS, PLUS)


@settings(max_examples=100)
@given(
    st.integers(1, 5),
    st.integers(3, 7),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=3),
)
def test_apply_transfer_scans_for_the_pivot_once(a0, b0, copies, extra_sizes):
    target = TargetTriple("r", a0, b0)
    parity = (a0 + b0) % 2
    blocks = [blk("r", a, b) for a, b in extra_sizes if (a + b) % 2 == parity]
    blocks += [target.prime] * copies
    ordered = canonical_blocks(blocks, target, PSI_SIDE)
    params = PacketParams(t=(0,) * len(blocks), eta=(PLUS,) * len(blocks))
    expected = list(ordered)
    expected[locate_pivot(ordered, target, PSI_SIDE)] = target.plus
    with mock.patch("apackets.transfer.locate_pivot", wraps=locate_pivot) as spy:
        new_order, _, _ = apply_transfer(ordered, params, target)
    assert spy.call_count == 1
    assert new_order == tuple(expected)


def test_apply_transfer_fresh_block():
    blocks = [blk("r", 2, 1), blk("r", 4, 1)]
    params = PacketParams(t=(0, 0), eta=(MINUS, PLUS))
    target = TargetTriple("r", 4, 2)
    new_order, new_params, position = apply_transfer(blocks, params, target, insert_position=1)
    assert new_order == (blk("r", 2, 1), blk("r", 4, 2), blk("r", 4, 1))
    assert new_params.t == (0, 1, 0)
    assert new_params.eta == (MINUS, PLUS, PLUS)
    # The reported position is the fresh block's, with the coordinates the
    # rule gives the empty shrunken block.
    assert position == 1
    assert new_order[position] == target.plus
    assert (new_params.t[position], new_params.eta[position]) == transfer_params(0, PLUS, 4, 2)


def test_apply_transfer_fresh_block_requires_position():
    with pytest.raises(ValueError, match="explicit insert_position is required"):
        apply_transfer(
            [blk("r", 4, 1)],
            PacketParams(t=(0,), eta=(PLUS,)),
            TargetTriple("r", 4, 2),
        )


def test_apply_transfer_length_mismatch():
    with pytest.raises(ValueError):
        apply_transfer(
            [blk("r", 4, 1)],
            PacketParams(t=(0, 0), eta=(PLUS, PLUS)),
            TargetTriple("r", 4, 3),
        )


def test_apply_transfer_is_order_independent():
    """Transport the same packet member along every admissible order and
    report (without failing) if the outcomes disagree."""
    target = TargetTriple("r", 5, 3)
    blocks = [blk("r", 5, 1), blk("r", 1, 1), blk("r", 3, 1)]
    member = {
        blk("r", 5, 1): (0, MINUS),
        blk("r", 1, 1): (0, MINUS),
        blk("r", 3, 1): (0, PLUS),
    }
    outcomes = set()
    admissible = 0
    for perm in itertools.permutations(blocks):
        if validate_order(list(perm), target, PSI_SIDE):
            continue
        admissible += 1
        params = PacketParams(
            t=tuple(member[b][0] for b in perm),
            eta=tuple(member[b][1] for b in perm),
        )
        new_order, new_params, _ = apply_transfer(list(perm), params, target)
        outcome = frozenset(
            (str(b), t, eta)
            for b, t, eta in zip(new_order, new_params.t, new_params.eta)
        )
        outcomes.add(outcome)
    assert admissible >= 1
    if len(outcomes) > 1:
        warnings.warn(
            f"transport outcome depends on the chosen order: {sorted(map(sorted, outcomes))}"
        )
