"""Archimedean bookkeeping: infinitesimal-character multisets, regularity,
and pole orders of the Gamma-factor products in the normalization."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .core_types import Value, halfint_str


class ArchBlock(Value):
    """An archimedean block: discrete-series size a_delta, length b, and an
    opaque annotation ell that no operation consumes."""

    __slots__ = ("a_delta", "b", "ell")

    def __init__(self, a_delta: int, b: int, ell: int | None = None):
        if a_delta < 1 or b < 1:
            raise ValueError(f"block sizes must be >= 1, got ({a_delta}, {b})")
        self.a_delta = a_delta
        self.b = b
        self.ell = ell


def _inf_char_doubles(blocks: Iterable[ArchBlock]) -> list[int]:
    """Doubled infinitesimal-character entries of the blocks, unsorted.

    Each block contributes the segment of b entries centered at 0, shifted
    by +-(a_delta - 1)/2 (a single unshifted copy when a_delta = 1).
    """
    doubles: list[int] = []
    for blk in blocks:
        shift = blk.a_delta - 1
        for e in range(blk.b - 1, -blk.b, -2):  # (b-1)/2, (b-3)/2, ..., -(b-1)/2
            if shift == 0:
                doubles.append(e)
            else:
                doubles.append(e + shift)
                doubles.append(e - shift)
    return doubles


def inf_char(blocks: Iterable[ArchBlock]) -> tuple[int, ...]:
    """Doubled infinitesimal-character multiset of the blocks, sorted descending."""
    return tuple(sorted(_inf_char_doubles(blocks), reverse=True))


def combined_inf_char(
    blocks: Iterable[ArchBlock], a_tau: int, s0_x2: int
) -> tuple[int, ...]:
    """Doubled infinitesimal character of the blocks together with the twisted
    pair of size-a_tau entries at +-(a_tau-1)/2 + s0 and their negatives.

    The two twisted entries coincide when a_tau = 1 and are then counted
    once (before mirroring).
    """
    if a_tau < 1:
        raise ValueError(f"a_tau must be >= 1, got {a_tau}")
    twisted = {s0_x2 + (a_tau - 1), s0_x2 - (a_tau - 1)}
    doubles = [*_inf_char_doubles(blocks), *twisted, *(-d for d in twisted)]
    return tuple(sorted(doubles, reverse=True))


def is_regular(entries_x2: Iterable[int]) -> bool:
    """Whether the multiset of entries has no repetition."""
    return all(c == 1 for c in Counter(entries_x2).values())


def arch_lfactor_order(a_tau: int, a_delta: int, b: int, s0_x2: int) -> int:
    """Pole order (<= 0) of the Gamma-factor pair for (a_tau, a_delta, b) at s0.

    The two Gamma arguments are s0 - (b-1)/2 + |a_tau - a_delta|/2 and
    s0 - (b-1)/2 + (a_tau + a_delta)/2 - 1; they coincide when either size
    is 1 and only one is kept. Each kept nonpositive-integer argument
    contributes -1.
    """
    if a_tau < 1 or a_delta < 1 or b < 1:
        raise ValueError(
            f"sizes must be >= 1, got a_tau={a_tau}, a_delta={a_delta}, b={b}"
        )
    base = s0_x2 - (b - 1)
    args = [base + abs(a_tau - a_delta), base + a_tau + a_delta - 2]
    if a_tau == 1 or a_delta == 1:
        args = args[:1]
    return -sum(1 for d in args if d % 2 == 0 and d <= 0)


def normalization_order(
    tau_sizes: Sequence[int], blocks: Sequence[ArchBlock], s0_x2: int
) -> int:
    """Total pole order of the archimedean normalization at s0 > 0: the sum
    of arch_lfactor_order over every (tau size, block) pair."""
    if s0_x2 <= 0:
        raise ValueError(f"s0 must be positive, got {halfint_str(s0_x2)}")
    for a_tau in tau_sizes:
        if a_tau < 1:
            raise ValueError(f"a_tau must be >= 1, got {a_tau}")
    total = 0
    for a_tau in tau_sizes:
        for blk in blocks:
            total += arch_lfactor_order(a_tau, blk.a_delta, blk.b, s0_x2)
    return total
