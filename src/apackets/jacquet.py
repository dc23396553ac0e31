"""Jacquet-functor words modulo commutation, the chain criterion for their
nonvanishing, and sufficient irreducibility criteria."""

from __future__ import annotations

import enum
import heapq
from typing import NamedTuple

from .core_types import halfint_str
from .jordan import ArthurParameter, untwisted_blocks


class JacSequence(NamedTuple):
    """A word of doubled Jacquet exponents along one cuspidal label."""

    rho: str
    exponents: tuple[int, ...]


# Adjacent exponents x, y may be swapped exactly when |x - y| > 1: doubled
# exponents at most this far apart do not commute.
_NONCOMMUTING_SPREAD_X2 = 2


def jac_normal_form(seq: JacSequence) -> JacSequence:
    """Lexicographically smallest word in the commutation class of ``seq``.

    The class minimum is the least linear extension of the order that the
    word puts on its non-commuting pairs (Cartier-Foata), so Kahn's
    topological sort with a min-heap on (value, position) builds it. Each
    letter waits only for the last earlier occurrence of each value that
    does not commute with it; the earlier ones follow by transitivity, since
    equal letters never commute. O(n log n) for n letters.
    """
    word = seq.exponents
    waits = [0] * len(word)
    after: list[list[int]] = [[] for _ in word]
    last: dict[int, int] = {}
    for i, d in enumerate(word):
        for v in range(d - _NONCOMMUTING_SPREAD_X2, d + _NONCOMMUTING_SPREAD_X2 + 1):
            j = last.get(v)
            if j is not None:
                after[j].append(i)
                waits[i] += 1
        last[d] = i
    ready = [(d, i) for i, d in enumerate(word) if waits[i] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        d, i = heapq.heappop(ready)
        out.append(d)
        for k in after[i]:
            waits[k] -= 1
            if waits[k] == 0:
                heapq.heappush(ready, (word[k], k))
    return JacSequence(seq.rho, tuple(out))


def jac_nonvanishing_necessary(
    psi: ArthurParameter, rho: str, start_x2: int, stop_x2: int
) -> bool:
    """Necessary chain condition for Jac along the segment [start, stop],
    the progression of step 1, to be nonzero.

    Looks for blocks (rho, A_1, B_1, zeta_1), ..., (rho, A_v, B_v, zeta_v)
    with zeta_1 B_1 = start, A_v >= |stop|, and B_{i+1} <= A_i + 1 along the
    chain. True means "possibly nonzero"; False is conclusive vanishing.
    Ends that differ by a non-integer raise before any block is read.

    The blocks a chain reaches are the starting blocks and every block with
    B <= (largest A reached) + 1, so one pass over the blocks sorted by B
    finds the largest reachable A. O(n log n).
    """
    if (start_x2 - stop_x2) % 2 != 0:
        raise ValueError(
            "segment endpoints must differ by an integer, "
            f"got [{halfint_str(start_x2)}, {halfint_str(stop_x2)}]"
        )
    blocks = list(untwisted_blocks(psi, rho, "in chain search"))

    reach = max((blk.A_x2 for blk in blocks if blk.zeta * blk.B_x2 == start_x2), default=None)
    if reach is None:
        return False
    for blk in sorted(blocks, key=lambda blk: blk.B_x2):
        if blk.B_x2 > reach + 2:
            break
        reach = max(reach, blk.A_x2)
    return reach >= abs(stop_x2)


class IrredVerdict(enum.Enum):
    """Outcome of a sufficient irreducibility criterion."""

    IRREDUCIBLE = "irreducible"
    UNKNOWN = "unknown"


def irreducible_cuspidal_twist(
    psi: ArthurParameter, rho: str, x_x2: int
) -> IrredVerdict:
    """Sufficient criterion for the x-twisted cuspidal induction to stay
    irreducible: every same-label block has A < |x| - 1 or B > |x|.

    x = 0 is outside the criterion's scope and raises.
    """
    abs_x = abs(x_x2)
    if abs_x == 0:
        raise ValueError("x must be nonzero")
    for blk in untwisted_blocks(psi, rho, "in irreducibility check"):
        if blk.A_x2 >= abs_x - 2 and blk.B_x2 <= abs_x:
            return IrredVerdict.UNKNOWN
    return IrredVerdict.IRREDUCIBLE
