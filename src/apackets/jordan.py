"""Jordan blocks, quadruple coordinates, good parity (which defines
Jord_bp), and structural validation of a parameter."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .core_types import (
    MINUS,
    PLUS,
    CuspidalLabel,
    GroupType,
    Violation,
    check_sign,
    halfint_str,
)


@dataclass(frozen=True, slots=True)
class Quadruple:
    """Coordinates (A, B, zeta) of a block, A and B doubled: A_x2 = a+b-2,
    B_x2 = |a-b|, zeta = sign(a-b)."""

    A_x2: int
    B_x2: int
    zeta: int

    def __post_init__(self) -> None:
        check_sign(self.zeta)


def _coordinates(a: int, b: int) -> tuple[int, int, int]:
    """(A_x2, B_x2, zeta) of the block sizes (a, b); zeta=+ when a=b."""
    if a < 1 or b < 1:
        raise ValueError(f"block sizes must be >= 1, got ({a}, {b})")
    return a + b - 2, abs(a - b), PLUS if a >= b else MINUS


def to_quadruple(a: int, b: int) -> Quadruple:
    """Quadruple coordinates of the block sizes (a, b); zeta=+ when a=b."""
    return Quadruple(*_coordinates(a, b))


def from_quadruple(A_x2: int, B_x2: int, zeta: int) -> tuple[int, int]:
    """Inverse of to_quadruple on doubled coordinates; raises on coordinates
    outside the image."""
    check_sign(zeta)
    halves = f"A={halfint_str(A_x2)}, B={halfint_str(B_x2)}"
    if B_x2 < 0 or A_x2 < B_x2:
        raise ValueError(f"need A >= B >= 0, got {halves}")
    if (A_x2 - B_x2) % 2 != 0:
        raise ValueError(f"A - B must be an integer, got {halves}")
    if B_x2 == 0 and zeta == MINUS:
        raise ValueError("zeta must be + when B = 0")
    big, small = (A_x2 + B_x2) // 2 + 1, (A_x2 - B_x2) // 2 + 1
    return (big, small) if zeta == PLUS else (small, big)


ZERO_TWIST = Fraction(0)  # the twist of every untwisted block
_setattr = object.__setattr__  # how a frozen block sets its own fields, bound once


@dataclass(frozen=True, slots=True)
class JordanBlock:
    """One factor rho |det|^x x sp(a) x sp(b); twist x is an exact rational.
    A_x2, B_x2, zeta are to_quadruple(a, b)'s, set once, outside == and hash."""

    rho: str
    a: int
    b: int
    twist: Fraction = ZERO_TWIST
    A_x2: int = field(init=False, repr=False, compare=False)
    B_x2: int = field(init=False, repr=False, compare=False)
    zeta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        A_x2, B_x2, zeta = _coordinates(self.a, self.b)
        _setattr(self, "A_x2", A_x2)
        _setattr(self, "B_x2", B_x2)
        _setattr(self, "zeta", zeta)
        twist = self.twist
        if type(twist) is not Fraction:
            twist = Fraction(twist)
            _setattr(self, "twist", twist)
        # |x| < 1/2 on the reduced numerator and (positive) denominator.
        if 2 * abs(twist.numerator) >= twist.denominator:
            raise ValueError(f"twist must satisfy |x| < 1/2, got {twist}")

    def __str__(self) -> str:
        if self.twist == 0:
            return f"({self.rho},{self.a},{self.b})"
        return f"({self.rho},{self.a},{self.b};x={self.twist})"


def _sp_parity_sign(k: int) -> int:
    """Parity sign of the k-dimensional sp factor: symplectic iff k is even."""
    return MINUS if k % 2 == 0 else PLUS


@dataclass(frozen=True)
class ArthurParameter:
    """A multiset of Jordan blocks attached to a classical group."""

    group: GroupType
    blocks: tuple[JordanBlock, ...]

    def standard_dim(self, labels: Mapping[str, CuspidalLabel]) -> int:
        total = 0
        for blk in self.blocks:
            if blk.rho not in labels:
                raise ValueError(f"unknown label: {blk.rho!r}")
            total += labels[blk.rho].dim * blk.a * blk.b
        return total


def untwisted_blocks(psi: ArthurParameter, rho: str, where: str) -> Iterator[JordanBlock]:
    """The label's blocks, lazily and in order; a twisted one raises, naming
    the block and ``where`` it was passed."""
    for blk in psi.blocks:
        if blk.rho != rho:
            continue
        if blk.twist != 0:
            raise ValueError(f"twisted block {blk} {where}")
        yield blk


def good_parity(
    block: JordanBlock, group: GroupType, labels: Mapping[str, CuspidalLabel]
) -> bool:
    """Whether the (unitary) block factors through the group's dual side.

    True iff the block is untwisted, its label is self-dual, and the parity
    of label x sp(a) x sp(b) matches the parity the group requires. A
    self-dual label with no declared parity cannot be classified and raises.
    """
    if block.rho not in labels:
        raise ValueError(f"unknown label: {block.rho!r}")
    if block.twist != 0:
        return False
    label = labels[block.rho]
    if not label.self_dual:
        return False
    if label.parity is None:
        raise ValueError(f"label {label.id!r} is self-dual but declares no parity")
    product = label.parity.sign * _sp_parity_sign(block.a) * _sp_parity_sign(block.b)
    return product == group.required_parity.sign


def _block_sort_key(block: JordanBlock) -> tuple:
    return (block.rho, block.a, block.b, block.twist)


def _pairing_classes(
    blocks: Sequence[JordanBlock], labels: Mapping[str, CuspidalLabel]
) -> None:
    """Raise, naming the least block of the first class that cannot pair up,
    unless the blocks group into contragredient pairs; partners share a class.

    Partners have equal (a, b) and opposite twists; a self-dual label pairs
    only with itself, any other with a distinct non-self-dual label of equal
    dimension. So a class of n blocks pairs up iff n is even, n/2 of them
    have the positive twist if it is twisted, and no label holds more than
    n/2 of them if it is not self-dual (Hall's condition)."""
    classes: dict[tuple, list[JordanBlock]] = {}
    for blk in sorted(blocks, key=_block_sort_key):
        label = labels[blk.rho]
        key = (blk.a, blk.b, abs(blk.twist), blk.rho if label.self_dual else label.dim)
        classes.setdefault(key, []).append(blk)
    for cls in classes.values():
        half, odd = divmod(len(cls), 2)
        positive = sum(blk.twist > 0 for blk in cls)
        heaviest = max(Counter(blk.rho for blk in cls).values())
        if odd or (cls[0].twist and positive != half) or (
            heaviest > half and not labels[cls[0].rho].self_dual
        ):
            raise ValueError(f"blocks cannot be grouped into contragredient pairs (near {cls[0]})")


def validate_parameter(
    psi: ArthurParameter, labels: Mapping[str, CuspidalLabel]
) -> list[Violation]:
    """Structural checks: dimension identity and dual-pairing of the non
    good-parity part. Returns violations instead of raising."""
    violations: list[Violation] = []

    rest: list[JordanBlock] = []
    classifiable = True
    for blk in psi.blocks:
        if blk.rho not in labels:
            violations.append(
                Violation("UnknownLabel", f"block {blk} uses undeclared label {blk.rho!r}")
            )
            classifiable = False
            continue
        try:
            is_bp = good_parity(blk, psi.group, labels)
        except ValueError as exc:
            violations.append(Violation("InsufficientDeclaration", str(exc)))
            classifiable = False
            continue
        if not is_bp:
            rest.append(blk)

    if classifiable:
        total = psi.standard_dim(labels)
        if total != psi.group.rank_dim:
            violations.append(
                Violation(
                    "DimensionMismatch",
                    f"blocks sum to dimension {total}, group requires {psi.group.rank_dim}",
                )
            )
        try:
            _pairing_classes(rest, labels)
        except ValueError as exc:
            violations.append(Violation("UnpairedBlock", str(exc)))

    return violations
