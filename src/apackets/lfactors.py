"""Pole orders of the normalization factor, by one case table over quadruple
coordinates; ``tests/_helpers.py::pole_contribution_interval`` checks it."""

from __future__ import annotations

from .core_types import MINUS, PLUS, halfint_str
from .jordan import ArthurParameter, JordanBlock, Quadruple, to_quadruple, untwisted_blocks


def pole_contribution_table(block: Quadruple | JordanBlock, target: Quadruple | JordanBlock) -> int:
    """1 if the block's factor against the target's has a pole at s=(b0-1)/2,
    by cases on (zeta, zeta0); a block whose A differs from A0 by a non-integer
    lies outside every shift progression. A block serves as its own quadruple."""
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
