"""Tests for infinitesimal-character multisets, regularity, and the
Gamma-factor pole orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.archimedean import (
    ArchBlock,
    arch_lfactor_order,
    combined_inf_char,
    inf_char,
    is_regular,
    normalization_order,
)

from _helpers import h, h2


# --- blocks ------------------------------------------------------------------


def test_arch_block_validation():
    ArchBlock(1, 1)
    ArchBlock(3, 2, ell=7)
    with pytest.raises(ValueError):
        ArchBlock(0, 1)
    with pytest.raises(ValueError):
        ArchBlock(1, 0)


def test_annotation_is_inert():
    plain, tagged = ArchBlock(3, 2), ArchBlock(3, 2, ell=5)
    assert inf_char([plain]) == inf_char([tagged])
    assert normalization_order([2], [plain], h(1)) == normalization_order(
        [2], [tagged], h(1)
    )


# --- infinitesimal characters ---------------------------------------------------


def test_inf_char_shifted_pair():
    assert inf_char([ArchBlock(3, 2)]) == (3, 1, -1, -3)


def test_inf_char_single_copy_at_size_one():
    assert inf_char([ArchBlock(1, 3)]) == (2, 0, -2)


def test_inf_char_two_blocks():
    entries = inf_char([ArchBlock(5, 1), ArchBlock(1, 3)])
    assert entries == (4, 2, 0, -2, -4)
    assert is_regular(entries)


def test_inf_char_entry_count():
    for a_delta in range(1, 6):
        for b in range(1, 6):
            copies = 1 if a_delta == 1 else 2
            assert len(inf_char([ArchBlock(a_delta, b)])) == copies * b


def test_combined_inf_char_examples():
    entries = combined_inf_char([ArchBlock(1, 3)], 1, h(1))
    assert entries == (2, 2, 0, -2, -2)
    assert not is_regular(entries)

    entries = combined_inf_char([ArchBlock(3, 2)], 1, h(3))
    assert entries == (6, 3, 1, -1, -3, -6)
    assert is_regular(entries)

    entries = combined_inf_char([], 2, h2(1))
    assert entries == (2, 0, 0, -2)
    assert not is_regular(entries)


def test_combined_inf_char_rejects_bad_tau():
    with pytest.raises(ValueError):
        combined_inf_char([], 0, h(1))


def test_is_regular():
    assert is_regular([]) is True
    assert is_regular([h(1), h(0), h(-1)]) is True
    assert is_regular([h(1), h(1)]) is False
    assert is_regular([h2(1), h(1)]) is True  # different classes never collide


# --- Gamma-factor orders ----------------------------------------------------------


def test_arch_lfactor_order_examples():
    assert arch_lfactor_order(1, 1, 3, h(1)) == -1
    assert arch_lfactor_order(2, 2, 1, h(1)) == 0
    assert arch_lfactor_order(3, 1, 5, h(1)) == -1


def test_arch_lfactor_order_double_pole():
    # Both Gamma arguments nonpositive integers: base = -2, sizes (2, 2)
    # give arguments -2 and 0.
    assert arch_lfactor_order(2, 2, 2, h2(-1)) == -2


def test_arch_lfactor_order_rejects_bad_sizes():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            arch_lfactor_order(*bad, h(1))


def test_arch_lfactor_order_range():
    for a_tau in range(1, 7):
        for a_delta in range(1, 7):
            for b in range(1, 7):
                for d in range(-8, 9):
                    order = arch_lfactor_order(a_tau, a_delta, b, d)
                    assert order in (0, -1, -2)
                    if a_tau == 1 or a_delta == 1:
                        assert order in (0, -1)


def test_normalization_order_examples():
    assert normalization_order([1], [ArchBlock(1, 3)], h(1)) == -1
    assert normalization_order([], [ArchBlock(1, 3)], h(1)) == 0
    assert normalization_order([1], [], h(1)) == 0


def test_normalization_order_sums_pairs():
    blocks = [ArchBlock(1, 3), ArchBlock(3, 2)]
    total = normalization_order([1, 2], blocks, h(1))
    split = sum(
        arch_lfactor_order(a_tau, blk.a_delta, blk.b, h(1))
        for a_tau in (1, 2)
        for blk in blocks
    )
    assert total == split


def test_normalization_order_rejects_nonpositive_s0():
    with pytest.raises(ValueError):
        normalization_order([1], [ArchBlock(1, 1)], h(0))
    with pytest.raises(ValueError):
        normalization_order([1], [ArchBlock(1, 1)], h(-2))


@settings(max_examples=250)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 8),
)
def test_regular_combined_character_means_no_pole(a_tau, a_delta, b, s0_x2):
    block = ArchBlock(a_delta, b)
    if is_regular(combined_inf_char([block], a_tau, s0_x2)):
        assert arch_lfactor_order(a_tau, a_delta, b, s0_x2) == 0
