"""Shared factories for the test suite.

The standard label universe used across tests:

  r    dim 1, self-dual, orthogonal   (the workhorse label)
  rs   dim 2, self-dual, symplectic
  u,v  dim 2, not self-dual           (a contragredient pair)
  w    dim 1, self-dual, parity undeclared

Good-parity bookkeeping for the dim-1 orthogonal label ``r``:
  * an SOodd-group block (r, a, b) has good parity iff exactly one of a, b
    is even (the sign product must come out symplectic);
  * an Sp- or Oeven-group block (r, a, b) has good parity iff a and b have
    the same parity (the product must come out orthogonal).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from apackets.core_types import (
    CuspidalLabel,
    GroupKind,
    GroupType,
    HalfInt,
    Parity,
)
from apackets.jordan import ArthurParameter, JordanBlock


def h(n: int) -> HalfInt:
    """The half-integer equal to the whole number n."""
    return HalfInt(2 * n)


def h2(k: int) -> HalfInt:
    """The half-integer k/2."""
    return HalfInt(k)


def label(
    lid: str,
    dim: int = 1,
    self_dual: bool = True,
    parity: str | None = "orthogonal",
) -> CuspidalLabel:
    par = None
    if parity is not None:
        par = Parity.ORTHOGONAL if parity == "orthogonal" else Parity.SYMPLECTIC
    return CuspidalLabel(id=lid, dim=dim, self_dual=self_dual, parity=par)


def standard_labels() -> dict[str, CuspidalLabel]:
    return {
        "r": label("r", dim=1),
        "rs": label("rs", dim=2, parity="symplectic"),
        "u": label("u", dim=2, self_dual=False, parity=None),
        "v": label("v", dim=2, self_dual=False, parity=None),
        "w": label("w", dim=1, self_dual=True, parity=None),
    }


def so_odd(m: int, epsilon: int = 1) -> GroupType:
    return GroupType(GroupKind.SO_ODD, m, epsilon)


def sp(m: int, epsilon: int = 1) -> GroupType:
    return GroupType(GroupKind.SP, m, epsilon)


def o_even(m: int, epsilon: int = 1) -> GroupType:
    return GroupType(GroupKind.O_EVEN, m, epsilon)


def blk(rho: str, a: int, b: int, twist: Fraction | int = 0) -> JordanBlock:
    return JordanBlock(rho=rho, a=a, b=b, twist=Fraction(twist))


def auto_param(
    kind: GroupKind,
    blocks: list[JordanBlock] | tuple[JordanBlock, ...],
    labels: dict[str, CuspidalLabel] | None = None,
    epsilon: int = 1,
) -> ArthurParameter:
    """Parameter whose group dimension is computed from the blocks, so the
    dimension identity holds by construction."""
    labels = labels if labels is not None else standard_labels()
    total = sum(labels[b.rho].dim * b.a * b.b for b in blocks)
    return ArthurParameter(
        group=GroupType(kind, total, epsilon), blocks=tuple(blocks)
    )


def soodd_param(blocks, labels=None, epsilon: int = 1) -> ArthurParameter:
    return auto_param(GroupKind.SO_ODD, blocks, labels, epsilon)


def sp_param(blocks, labels=None, epsilon: int = 1) -> ArthurParameter:
    return auto_param(GroupKind.SP, blocks, labels, epsilon)


def sign_excess(a: int, b: int) -> int:
    """Sum of the block signs eta^m * (-1)^(m//2 + t), m = min(a, b), over the
    range rule 0 <= t <= m//2 (eta = + when 2t = m), written out directly."""
    m = min(a, b)
    return sum(
        (eta ** m) * (-1) ** (m // 2 + t)
        for t in range(m // 2 + 1)
        for eta in (1, -1)
        if not (2 * t == m and eta == -1)
    )


def closed_form_count(sizes, epsilon: int) -> int:
    """Packet size for sign ``epsilon`` over blocks of the given (a, b):
    (prod(m + 1) + epsilon * prod(excess)) / 2, since the two signs' counts
    sum to the number of choices and differ by the product of the excesses."""
    total = prod(min(a, b) + 1 for a, b in sizes)
    diff = prod(sign_excess(a, b) for a, b in sizes)
    assert (total + epsilon * diff) % 2 == 0
    return (total + epsilon * diff) // 2
