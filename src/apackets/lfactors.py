"""Rankin-Selberg shift sets and pole orders of the normalization factor.

Two independent routes decide whether a block contributes a pole: an
interval-membership criterion on shifted exponents, and a case table over
quadruple coordinates. They agree on the full parameter grid (the
acceptance suite checks this exhaustively).
"""

from __future__ import annotations

from .core_types import MINUS, PLUS, halfint_str
from .jordan import ArthurParameter, JordanBlock, Quadruple, to_quadruple, untwisted_blocks


def pole_contribution_interval(a: int, b: int, a0: int, b0: int) -> int:
    """1 if the factor for (a,b) against (a0,b0) has a pole at s=(b0-1)/2.

    Membership of (b-1)/2 - (b0-1)/2 in the integer-stepped shift set of
    (a0, a): between |a-a0|/2 and (a+a0)/2 - 1 and in the same integrality
    class.
    """
    if min(a, b, a0) < 1 or b0 < 2:
        raise ValueError(f"need a,b,a0 >= 1 and b0 >= 2, got ({a},{b},{a0},{b0})")
    val = b - b0  # doubled value of (b-1)/2 - (b0-1)/2
    lo = abs(a - a0)
    hi = a + a0 - 2
    return int((val - lo) % 2 == 0 and lo <= val <= hi)


def pole_contribution_table(block: Quadruple | JordanBlock, target: Quadruple | JordanBlock) -> int:
    """Table route for the same pole criterion, over quadruple coordinates
    (a block's own A_x2, B_x2 and zeta serve as well).

    Cases on (zeta, zeta0); blocks whose A differs from the target's A by a
    non-integer lie outside every shift progression and contribute 0.
    """
    A, B, zeta = block.A_x2, block.B_x2, block.zeta
    A0, B0, zeta0 = target.A_x2, target.B_x2, target.zeta
    if (A - A0) % 2 != 0:
        return 0
    if zeta == PLUS and zeta0 == PLUS:
        hit = B <= B0 <= A0 <= A
    elif zeta == PLUS and zeta0 == MINUS:
        hit = False
    elif zeta == MINUS and zeta0 == PLUS:
        hit = B <= A0 <= A
    else:
        hit = B0 <= B <= A0 <= A
    return int(hit)


def r_order(psi: ArthurParameter, rho: str, a0: int, s0_x2: int) -> int:
    """Pole order (<= 0) of the normalization factor for (rho, a0) at s0.

    Sums -1 per same-label block contributing a pole at s0 = (b0-1)/2, that
    is at the size b0 = s0_x2 + 1 >= 2. Blocks are expected untwisted; a
    twisted same-label block raises.
    """
    if a0 < 1:
        raise ValueError(f"a0 must be >= 1, got {a0}")
    b0 = s0_x2 + 1
    if b0 < 2:
        raise ValueError(f"s0 must be positive, got {halfint_str(s0_x2)}")
    target = to_quadruple(a0, b0)
    blocks = untwisted_blocks(psi, rho, "passed to pole-order sum")
    return -sum(pole_contribution_table(blk, target) for blk in blocks)
