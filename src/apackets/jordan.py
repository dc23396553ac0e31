"""Jordan blocks, quadruple coordinates, parity bookkeeping, and the
decomposition of a parameter into good / bad-parity / nonunitary parts."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core_types import (
    MINUS,
    PLUS,
    CuspidalLabel,
    GroupType,
    HalfInt,
    Violation,
    check_sign,
    sign_str,
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

    def __str__(self) -> str:
        return f"(A={HalfInt(self.A_x2)}, B={HalfInt(self.B_x2)}, zeta={sign_str(self.zeta)})"


def to_quadruple(a: int, b: int) -> Quadruple:
    """Quadruple coordinates of the block sizes (a, b); zeta=+ when a=b."""
    if a < 1 or b < 1:
        raise ValueError(f"block sizes must be >= 1, got ({a}, {b})")
    return Quadruple(a + b - 2, abs(a - b), PLUS if a >= b else MINUS)


def from_quadruple(A_x2: int, B_x2: int, zeta: int) -> tuple[int, int]:
    """Inverse of to_quadruple on doubled coordinates; raises on coordinates
    outside the image."""
    check_sign(zeta)
    halves = f"A={HalfInt(A_x2)}, B={HalfInt(B_x2)}"
    if B_x2 < 0 or A_x2 < B_x2:
        raise ValueError(f"need A >= B >= 0, got {halves}")
    if (A_x2 - B_x2) % 2 != 0:
        raise ValueError(f"A - B must be an integer, got {halves}")
    if B_x2 == 0 and zeta == MINUS:
        raise ValueError("zeta must be + when B = 0")
    big, small = (A_x2 + B_x2) // 2 + 1, (A_x2 - B_x2) // 2 + 1
    return (big, small) if zeta == PLUS else (small, big)


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class JordanBlock:
    """One factor rho |det|^x x sp(a) x sp(b); twist x is an exact rational."""

    rho: str
    a: int
    b: int
    twist: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError(f"block sizes must be >= 1, got ({self.a}, {self.b})")
        if not isinstance(self.twist, Fraction):
            object.__setattr__(self, "twist", Fraction(self.twist))
        if abs(self.twist) >= _HALF:
            raise ValueError(f"twist must satisfy |x| < 1/2, got {self.twist}")

    def quadruple(self) -> Quadruple:
        return to_quadruple(self.a, self.b)

    def dim_multiplier(self) -> int:
        """Contribution a*b to the standard dimension, per unit of dim(rho)."""
        return self.a * self.b

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def standard_dim(self, labels: Mapping[str, CuspidalLabel]) -> int:
        total = 0
        for blk in self.blocks:
            if blk.rho not in labels:
                raise ValueError(f"unknown label: {blk.rho!r}")
            total += labels[blk.rho].dim * blk.dim_multiplier()
        return total


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


def _dual_partner_ok(
    one: JordanBlock, other: JordanBlock, labels: Mapping[str, CuspidalLabel]
) -> bool:
    """Whether ``other`` can be the contragredient partner of ``one``."""
    if (one.a, one.b) != (other.a, other.b):
        return False
    if one.twist + other.twist != 0:
        return False
    l1, l2 = labels[one.rho], labels[other.rho]
    if l1.self_dual:
        return other.rho == one.rho
    return (not l2.self_dual) and l2.id != l1.id and l2.dim == l1.dim


def _pair_up(
    blocks: Sequence[JordanBlock], labels: Mapping[str, CuspidalLabel]
) -> list[tuple[JordanBlock, JordanBlock]]:
    """Group blocks into contragredient pairs, or raise naming a leftover block.

    Deterministic backtracking over the sorted multiset; partner candidates
    are tried in sorted order.
    """
    items = sorted(blocks, key=_block_sort_key)

    def solve(remaining: list[JordanBlock]) -> list[tuple[JordanBlock, JordanBlock]] | None:
        if not remaining:
            return []
        first, rest = remaining[0], remaining[1:]
        tried: set[JordanBlock] = set()
        for idx, cand in enumerate(rest):
            if cand in tried:
                continue
            tried.add(cand)
            if not _dual_partner_ok(first, cand, labels):
                continue
            sub = solve(rest[:idx] + rest[idx + 1 :])
            if sub is not None:
                return [(first, cand)] + sub
        return None

    result = solve(items)
    if result is None:
        raise ValueError(
            f"blocks cannot be grouped into contragredient pairs (near {items[0]})"
        )
    return result


@dataclass(frozen=True)
class Decomposition:
    """Parts of a parameter: good-parity blocks, one representative per dual
    pair of bad-parity unitary blocks, and the positive-twist representatives
    of the nonunitary pairs."""

    bp: tuple[JordanBlock, ...]
    mp_half: tuple[JordanBlock, ...]
    nu_pos: tuple[JordanBlock, ...]


def decompose(
    psi: ArthurParameter, labels: Mapping[str, CuspidalLabel]
) -> Decomposition:
    """Split a parameter into its good-parity / bad-parity / nonunitary parts.

    Raises if any block outside the good-parity part cannot be matched with
    a contragredient partner of the opposite twist.
    """
    bp: list[JordanBlock] = []
    rest: list[JordanBlock] = []
    for blk in psi.blocks:
        if blk.twist == 0 and good_parity(blk, psi.group, labels):
            bp.append(blk)
        else:
            rest.append(blk)

    mp_half: list[JordanBlock] = []
    nu_pos: list[JordanBlock] = []
    for one, other in _pair_up(rest, labels):
        if one.twist == 0:
            rep = min(one, other, key=_block_sort_key)
            mp_half.append(rep)
        else:
            rep = one if one.twist > 0 else other
            nu_pos.append(rep)

    return Decomposition(
        bp=tuple(sorted(bp, key=_block_sort_key)),
        mp_half=tuple(sorted(mp_half, key=_block_sort_key)),
        nu_pos=tuple(sorted(nu_pos, key=_block_sort_key)),
    )


def validate_parameter(
    psi: ArthurParameter, labels: Mapping[str, CuspidalLabel]
) -> list[Violation]:
    """Structural checks: dimension identity and dual-pairing of the non
    good-parity part. Returns violations instead of raising."""
    violations: list[Violation] = []

    total = 0
    rest: list[JordanBlock] = []
    classifiable = True
    for blk in psi.blocks:
        if blk.rho not in labels:
            violations.append(
                Violation("UnknownLabel", f"block {blk} uses undeclared label {blk.rho!r}")
            )
            classifiable = False
            continue
        total += labels[blk.rho].dim * blk.dim_multiplier()
        try:
            is_bp = blk.twist == 0 and good_parity(blk, psi.group, labels)
        except ValueError as exc:
            violations.append(Violation("InsufficientDeclaration", str(exc)))
            classifiable = False
            continue
        if not is_bp:
            rest.append(blk)

    if classifiable and total != psi.group.rank_dim:
        violations.append(
            Violation(
                "DimensionMismatch",
                f"blocks sum to dimension {total}, group requires {psi.group.rank_dim}",
            )
        )

    if classifiable:
        try:
            _pair_up(rest, labels)
        except ValueError as exc:
            violations.append(Violation("UnpairedBlock", str(exc)))

    return violations
