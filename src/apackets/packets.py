"""Packet parameters (t, eta) over an ordered multiset of Jordan blocks, the
admissible-order conditions relative to an enlargement target, and the
canonical order construction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core_types import MINUS, PLUS, Violation, check_sign, sign_str
from .jordan import JordanBlock, Quadruple, to_quadruple
from .lfactors import pole_contribution_table

PSI_SIDE = "psi"
PSI_PLUS_SIDE = "psi_plus"


@dataclass(frozen=True, slots=True)
class TargetTriple:
    """The block (rho, a0, b0) whose size is being enlarged from b0-2 to b0."""

    rho: str
    a0: int
    b0: int

    def __post_init__(self) -> None:
        if self.a0 < 1:
            raise ValueError(f"a0 must be >= 1, got {self.a0}")
        if self.b0 < 2:
            raise ValueError(f"b0 must be >= 2, got {self.b0}")

    def quadruple(self) -> Quadruple:
        return to_quadruple(self.a0, self.b0)

    def prime_quadruple(self) -> Quadruple | None:
        return derive_prime_block(self.a0, self.b0)

    def prime_block(self) -> JordanBlock | None:
        """The shrunken block (rho, a0, b0-2) present on the small side."""
        if self.b0 == 2:
            return None
        return JordanBlock(self.rho, self.a0, self.b0 - 2)

    def plus_block(self) -> JordanBlock:
        """The enlarged block (rho, a0, b0)."""
        return JordanBlock(self.rho, self.a0, self.b0)

    def pivot_block(self, side: str) -> JordanBlock | None:
        """The block whose designated copy is the pivot on ``side``: the
        shrunken block on the small side (None when b0 = 2), the enlarged
        block on the enlarged side."""
        if side == PSI_SIDE:
            return self.prime_block()
        if side == PSI_PLUS_SIDE:
            return self.plus_block()
        raise ValueError(f"unknown side: {side!r}")

    @property
    def is_exceptional(self) -> bool:
        """The corner b0 = a0 + 1, where the shrunken and enlarged blocks
        share B = 1/2 and swap zeta."""
        return self.b0 == self.a0 + 1

    def __str__(self) -> str:
        return f"({self.rho},{self.a0},{self.b0})"


def derive_prime_block(a0: int, b0: int) -> Quadruple | None:
    """Quadruple of the shrunken block (a0, b0-2), or None when b0 = 2.

    Uses the sign convention that keeps the enlargement case analysis
    uniform: zeta' = - when a0 = b0 - 2 even though B' = 0 there.
    """
    if a0 < 1 or b0 < 2:
        raise ValueError(f"need a0 >= 1 and b0 >= 2, got ({a0}, {b0})")
    if b0 == 2:
        return None
    quad = to_quadruple(a0, b0 - 2)
    if a0 == b0 - 2:
        return Quadruple(quad.A_x2, quad.B_x2, MINUS)
    return quad


def check_constraint1(a: int, b: int, t: int, eta: int) -> str | None:
    """Range condition on (t, eta): detail message if violated, else None.

    Requires 0 <= t <= floor(min(a,b)/2), and eta = + when 2t = min(a,b).
    """
    check_sign(eta)
    m = min(a, b)
    if t < 0 or t > m // 2:
        return f"t={t} outside [0, {m // 2}] for block sizes ({a}, {b})"
    if 2 * t == m and eta != PLUS:
        return f"eta must be + when 2t = min(a,b) = {m}, got {sign_str(eta)}"
    return None


def _raw_sign(a: int, b: int, t: int, eta: int) -> int:
    m = min(a, b)
    return (eta ** m) * ((-1) ** (m // 2 + t))


def block_sign(a: int, b: int, t: int, eta: int) -> int:
    """The block's factor eta^min(a,b) * (-1)^(floor(min(a,b)/2) + t) in the
    sign product; raises when (t, eta) violates the range condition."""
    detail = check_constraint1(a, b, t, eta)
    if detail is not None:
        raise ValueError(detail)
    return _raw_sign(a, b, t, eta)


def admissible_pairs(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """All (t, eta) satisfying the range condition, t ascending, + before -."""
    m = min(a, b)
    pairs: list[tuple[int, int]] = []
    for t in range(m // 2 + 1):
        pairs.append((t, PLUS))
        if 2 * t != m:
            pairs.append((t, MINUS))
    return tuple(pairs)


@dataclass(frozen=True)
class PacketParams:
    """Packet coordinates: one (t, eta) per block, aligned with the order."""

    t: tuple[int, ...]
    eta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", tuple(self.t))
        object.__setattr__(self, "eta", tuple(self.eta))
        if len(self.t) != len(self.eta):
            raise ValueError(
                f"t and eta lengths differ: {len(self.t)} vs {len(self.eta)}"
            )
        for e in self.eta:
            check_sign(e)

    def __len__(self) -> int:
        return len(self.t)


def validate_params(
    blocks: Sequence[JordanBlock], params: PacketParams, epsilon: int
) -> list[Violation]:
    """Check the per-block range condition and the total sign condition."""
    check_sign(epsilon)
    if len(params) != len(blocks):
        raise ValueError(
            f"params cover {len(params)} blocks, order has {len(blocks)}"
        )
    violations: list[Violation] = []
    product = PLUS
    for pos, (blk, t, eta) in enumerate(zip(blocks, params.t, params.eta)):
        detail = check_constraint1(blk.a, blk.b, t, eta)
        if detail is not None:
            violations.append(
                Violation("Constraint1", f"position {pos}, block {blk}: {detail}")
            )
        product *= _raw_sign(blk.a, blk.b, t, eta)
    if product != epsilon:
        violations.append(
            Violation(
                "Constraint2",
                f"sign product is {sign_str(product)}, group requires {sign_str(epsilon)}",
            )
        )
    return violations


def _signed_pairs(blk: JordanBlock) -> tuple[tuple[int, int, int], ...]:
    """The block's admissible (t, eta), each with its block sign."""
    return tuple(
        (t, eta, _raw_sign(blk.a, blk.b, t, eta)) for t, eta in admissible_pairs(blk.a, blk.b)
    )


def count_params(blocks: Sequence[JordanBlock], epsilon: int) -> int:
    """How many packet parameters pass both conditions, without listing them.

    A two-state sign DP: (plus, minus) counts the choices on the blocks seen
    so far whose sign product is + or -. O(sum of min(a, b)) exact int work.
    """
    check_sign(epsilon)
    plus, minus = 1, 0
    for blk in blocks:
        signs = [s for _, _, s in _signed_pairs(blk)]
        b_plus, b_minus = signs.count(PLUS), signs.count(MINUS)
        plus, minus = plus * b_plus + minus * b_minus, plus * b_minus + minus * b_plus
    return plus if epsilon == PLUS else minus


def enumerate_params(blocks: Sequence[JordanBlock], epsilon: int) -> tuple[PacketParams, ...]:
    """All packet parameters passing both conditions, in lexicographic order
    of the per-block (t, eta) choices.

    Only members are built: each choice on all blocks but the last is
    completed by exactly those (t, eta) of the last block whose sign makes
    the product epsilon.
    """
    check_sign(epsilon)
    if not blocks:
        return (PacketParams((), ()),) if epsilon == PLUS else ()
    *head, last = [_signed_pairs(blk) for blk in blocks]
    # completing[s]: the last block's choices that make the product epsilon
    # after a head whose sign product is s.
    completing = {
        s: [(t, eta) for t, eta, sign in last if sign * s == epsilon] for s in (PLUS, MINUS)
    }
    found: list[PacketParams] = []
    for choice in itertools.product(*head):
        product = PLUS
        for _, _, sign in choice:
            product *= sign
        ts = tuple(t for t, _, _ in choice)
        etas = tuple(eta for _, eta, _ in choice)
        for t, eta in completing[product]:
            found.append(PacketParams(ts + (t,), etas + (eta,)))
    return tuple(found)


def locate_pivot(
    blocks: Sequence[JordanBlock], target: TargetTriple, side: str = PSI_SIDE
) -> int | None:
    """Index of the designated copy of the target's own block in the list.

    On the small side the pivot is the shrunken block (highest copy in the
    normal case, lowest in the exceptional case); on the enlarged side it is
    the enlarged block (always the lowest copy). Returns None only on the
    small side when b0 = 2 (no shrunken block exists); raises when the
    required block is absent.
    """
    pivot_block = target.pivot_block(side)
    if pivot_block is None:
        return None
    indices = [i for i, blk in enumerate(blocks) if blk == pivot_block]
    if not indices:
        raise ValueError(f"required block {pivot_block} absent from the order")
    if side == PSI_PLUS_SIDE or target.is_exceptional:
        return indices[0]
    return indices[-1]


def validate_order(
    blocks: Sequence[JordanBlock], target: TargetTriple, side: str = PSI_SIDE
) -> list[Violation]:
    """Check an order against the admissibility conditions for the target.

    Positions are ascending: index i < j means block i is below block j.
    ``side`` says whether the list is the small side (contains the shrunken
    block when b0 > 2) or the enlarged side (contains the enlarged block).
    """
    tq = target.quadruple()
    pq = target.prime_quadruple()
    pivot = locate_pivot(blocks, target, side)
    quads = [blk.quadruple() for blk in blocks]
    violations: list[Violation] = []

    # Monotonicity: same label, same zeta, strictly larger A and B must sit higher.
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            bi, bj = blocks[i], blocks[j]
            if bi.rho != bj.rho or bi.twist != bj.twist:
                continue
            qi, qj = quads[i], quads[j]
            if qi.zeta == qj.zeta and qi.A_x2 > qj.A_x2 and qi.B_x2 > qj.B_x2:
                violations.append(
                    Violation(
                        "P",
                        f"block {bi} at position {i} sits below strictly smaller {bj} at {j}",
                    )
                )

    relevant = [
        (i, quads[i])
        for i, blk in enumerate(blocks)
        if blk.rho == target.rho and blk.twist == 0 and i != pivot
    ]
    contributors = [
        i for i, q in relevant if pole_contribution_table(q, tq) == 1
    ]

    if pivot is not None:
        for i in contributors:
            if i < pivot:
                violations.append(
                    Violation(
                        "Pp1",
                        f"pole-contributing block at position {i} sits below the pivot at {pivot}",
                    )
                )

    for i, q in relevant:
        if q.A_x2 >= tq.A_x2:
            continue
        for j in contributors:
            if j != i and i > j:
                violations.append(
                    Violation(
                        "Pp2",
                        f"block at position {i} with A < A0 sits above pole-contributing block at {j}",
                    )
                )

    if target.is_exceptional and pivot is not None and pivot != 0:
        violations.append(
            Violation(
                "ExceptionalMinimality",
                f"target has b0 = a0 + 1; the pivot must be minimal, found at position {pivot}",
            )
        )

    if tq.zeta == PLUS and pivot is not None:
        for i, q in relevant:
            if q.zeta == PLUS and q.A_x2 < tq.A_x2 and i > pivot and not (q.B_x2 > tq.B_x2 + 2):
                violations.append(
                    Violation(
                        "Condition0",
                        f"block at position {i} above the pivot has A < A0 but B <= B0 + 1",
                    )
                )

    if target.b0 > 2 and not target.is_exceptional and pivot is not None:
        assert pq is not None
        for i, q in relevant:
            if q.zeta != tq.zeta:
                continue
            if q.A_x2 == tq.A_x2 and q.B_x2 > pq.B_x2 and i < pivot:
                violations.append(
                    Violation(
                        "Limit1",
                        f"block at position {i} with A = A0 and B > B'0 must sit above the pivot",
                    )
                )
            if q.A_x2 == pq.A_x2 and q.B_x2 < tq.B_x2 and i > pivot:
                violations.append(
                    Violation(
                        "Limit2",
                        f"block at position {i} with A = A'0 and B < B0 must sit below the pivot",
                    )
                )
            if q.B_x2 == tq.B_x2:
                if tq.zeta == PLUS and q.A_x2 < pq.A_x2 and i > pivot:
                    violations.append(
                        Violation(
                            "Limit3",
                            f"block at position {i} with B = B0 and A < A'0 must sit below the pivot",
                        )
                    )
                if tq.zeta == MINUS and q.A_x2 >= tq.A_x2 and i < pivot:
                    violations.append(
                        Violation(
                            "Limit3",
                            f"block at position {i} with B = B0 and A >= A0 must sit above the pivot",
                        )
                    )
            if q.B_x2 == pq.B_x2:
                if tq.zeta == PLUS and q.A_x2 > tq.A_x2 and i < pivot:
                    violations.append(
                        Violation(
                            "Limit4",
                            f"block at position {i} with B = B'0 and A > A0 must sit above the pivot",
                        )
                    )
                if tq.zeta == MINUS and q.A_x2 < tq.A_x2 and i > pivot:
                    violations.append(
                        Violation(
                            "Limit4",
                            f"block at position {i} with B = B'0 and A < A0 must sit below the pivot",
                        )
                    )

    return violations


def _canonical_key(block: JordanBlock) -> tuple:
    q = block.quadruple()
    return (q.A_x2, q.B_x2, 0 if q.zeta == MINUS else 1, block.rho, block.twist)


def canonical_order(
    blocks: Iterable[JordanBlock], target: TargetTriple | None = None, side: str = PSI_SIDE
) -> tuple[JordanBlock, ...]:
    """Deterministic admissible order: A ascending with fixed tie-breaks,
    the pivot placed by its A-threshold (minimal in the exceptional case).

    With no target, this is just the plain sort.
    """
    pivot_block = None if target is None else target.pivot_block(side)
    if pivot_block is None:  # no target, or small side with b0 = 2: nothing to place
        return tuple(sorted(blocks, key=_canonical_key))
    rest = list(blocks)
    try:
        rest.remove(pivot_block)
    except ValueError:
        raise ValueError(f"required block {pivot_block} absent from Jord") from None
    rest.sort(key=_canonical_key)

    if target.is_exceptional:
        pos = 0
    elif side == PSI_SIDE:
        pq = target.prime_quadruple()
        assert pq is not None
        pos = sum(1 for blk in rest if blk.quadruple().A_x2 <= pq.A_x2)
    else:
        tq = target.quadruple()
        pos = sum(1 for blk in rest if blk.quadruple().A_x2 < tq.A_x2)
    rest.insert(pos, pivot_block)
    return tuple(rest)
