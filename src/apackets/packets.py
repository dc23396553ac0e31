"""Packet parameters (t, eta) over an ordered multiset of Jordan blocks, the
admissible-order conditions relative to an enlargement target, and the
canonical order construction."""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple, Sequence

from .core_types import MINUS, PLUS, Violation, check_sign, sign_str
from .jordan import JordanBlock, Quadruple, to_quadruple
from .lfactors import pole_contribution_table

PSI_SIDE = "psi"
PSI_PLUS_SIDE = "psi_plus"


class TargetTriple:
    """The block (rho, a0, b0) whose size is being enlarged from b0-2 to b0:
    ``plus`` is the enlarged block (rho, a0, b0), ``prime`` the shrunken block
    (rho, a0, b0-2) on the small side, None when b0 = 2."""

    __slots__ = ("rho", "a0", "b0", "plus", "prime")

    def __init__(self, rho: str, a0: int, b0: int):
        if a0 < 1:
            raise ValueError(f"a0 must be >= 1, got {a0}")
        if b0 < 2:
            raise ValueError(f"b0 must be >= 2, got {b0}")
        self.rho = rho
        self.a0 = a0
        self.b0 = b0
        self.plus = JordanBlock(rho, a0, b0)
        self.prime = None if b0 == 2 else JordanBlock(rho, a0, b0 - 2)

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


class PacketParams(NamedTuple):
    """Packet coordinates: one (t, eta) per block, aligned with the order.
    It checks nothing itself: ``validate_params`` and ``apply_transfer``
    check coverage and signs where they read them."""

    t: tuple[int, ...]
    eta: tuple[int, ...]

    def check_covers(self, blocks: Sequence[JordanBlock]) -> None:
        """Raise unless t and eta each hold one entry per block of the order."""
        for name, values in zip(self._fields, self):
            if len(values) != len(blocks):
                raise ValueError(f"{name} covers {len(values)} blocks, order has {len(blocks)}")


def validate_params(
    blocks: Sequence[JordanBlock], params: PacketParams, epsilon: int
) -> list[Violation]:
    """Check the per-block range condition and the total sign condition."""
    check_sign(epsilon)
    params.check_covers(blocks)
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


def count_params(blocks: Sequence[JordanBlock], epsilon: int) -> int:
    """How many packet parameters pass both conditions, without listing them:
    (prod(m + 1) + epsilon * prod(excess)) / 2 over the blocks, m = min(a, b),
    since a block's m + 1 admissible (t, eta) have signs summing to its
    excess, 0 for odd m and (-1)^(m/2) for even m. O(1) int ops per block."""
    check_sign(epsilon)
    total = excess = 1
    for blk in blocks:
        m = min(blk.a, blk.b)
        total *= m + 1
        excess *= 0 if m % 2 else MINUS if m % 4 == 2 else PLUS
    return (total + epsilon * excess) // 2


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
    # Each block's admissible (t, eta), each with its block sign.
    *head, last = [
        [(t, eta, _raw_sign(blk.a, blk.b, t, eta)) for t, eta in admissible_pairs(blk.a, blk.b)]
        for blk in blocks
    ]
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

    On the small side the pivot is ``target.prime`` (highest copy in the
    normal case, lowest in the exceptional case); on the enlarged side it is
    ``target.plus`` (always the lowest copy). Returns None only on the
    small side when b0 = 2 (no shrunken block exists); raises when the
    required block is absent.
    """
    if side not in (PSI_SIDE, PSI_PLUS_SIDE):
        raise ValueError(f"unknown side: {side!r}")
    pivot_block = target.prime if side == PSI_SIDE else target.plus
    if pivot_block is None:
        return None
    indices = [i for i, blk in enumerate(blocks) if blk == pivot_block]
    if not indices:
        raise ValueError(f"required block {pivot_block} absent from the order")
    if side == PSI_PLUS_SIDE or target.is_exceptional:
        return indices[0]
    return indices[-1]


def _monotonicity_violations(blocks: Sequence[JordanBlock]) -> list[Violation]:
    """The P violations: a block sitting below a strictly smaller one (smaller
    A and smaller B) of the same label, twist and zeta; i ascending, then j.

    Within each (rho, twist, zeta) class a right-to-left sweep keeps a Fenwick
    tree of the least B over the ranks of A seen so far, which flags every
    position with some violation; only flagged positions are compared with
    the later ones. O(n log n) plus one scan of its class per flagged block.
    """
    classes: dict[tuple, list[tuple[int, int, int]]] = {}
    for i, blk in enumerate(blocks):
        # The twist as its reduced numerator and denominator: hashing a
        # Fraction is slow.
        key = (blk.rho, blk.zeta, blk.twist.numerator, blk.twist.denominator)
        classes.setdefault(key, []).append((i, blk.A_x2, blk.B_x2))
    pairs: list[tuple[int, int]] = []
    for members in classes.values():
        rank = {a: r for r, a in enumerate(sorted({a for _, a, _ in members}), 1)}
        size = len(rank) + 1
        least_b = [max(b for _, _, b in members)] * size  # Fenwick tree of prefix minima
        flagged: list[int] = []
        for k in range(len(members) - 1, -1, -1):
            _, a, b = members[k]
            r = rank[a] - 1  # the ranks of strictly smaller A
            while r:
                if least_b[r] < b:
                    flagged.append(k)
                    break
                r -= r & -r
            r = rank[a]
            while r < size:
                if b < least_b[r]:
                    least_b[r] = b
                r += r & -r
        for k in flagged:
            i, a, b = members[k]
            pairs.extend((i, j) for j, a_j, b_j in members[k + 1 :] if a > a_j and b > b_j)
    pairs.sort()
    return [
        Violation(
            "P", f"block {blocks[i]} at position {i} sits below strictly smaller {blocks[j]} at {j}"
        )
        for i, j in pairs
    ]


# The limit conditions of a normal target (b0 > 2, b0 != a0 + 1) on a block of
# its label and zeta, in report order: code, target zeta (None: both), test on
# (q, tq, pq), the side of the pivot the block must sit on, what the block has.
_LIMITS = (
    ("Limit1", None, lambda q, tq, pq: q.A_x2 == tq.A_x2 and q.B_x2 > pq.B_x2,
     "above", "A = A0 and B > B'0"),
    ("Limit2", None, lambda q, tq, pq: q.A_x2 == pq.A_x2 and q.B_x2 < tq.B_x2,
     "below", "A = A'0 and B < B0"),
    ("Limit3", PLUS, lambda q, tq, pq: q.B_x2 == tq.B_x2 and q.A_x2 < pq.A_x2,
     "below", "B = B0 and A < A'0"),
    ("Limit3", MINUS, lambda q, tq, pq: q.B_x2 == tq.B_x2 and q.A_x2 >= tq.A_x2,
     "above", "B = B0 and A >= A0"),
    ("Limit4", PLUS, lambda q, tq, pq: q.B_x2 == pq.B_x2 and q.A_x2 > tq.A_x2,
     "above", "B = B'0 and A > A0"),
    ("Limit4", MINUS, lambda q, tq, pq: q.B_x2 == pq.B_x2 and q.A_x2 < tq.A_x2,
     "below", "B = B'0 and A < A0"),
)


def validate_order(
    blocks: Sequence[JordanBlock], target: TargetTriple, side: str = PSI_SIDE
) -> list[Violation]:
    """Check an order against the admissibility conditions for the target.

    Positions are ascending: index i < j means block i is below block j.
    ``side`` says whether the list is the small side (contains the shrunken
    block when b0 > 2) or the enlarged side (contains the enlarged block).
    """
    # pq's A and B (all that _LIMITS reads) are derive_prime_block's.
    tq, pq = target.plus, target.prime
    pivot = locate_pivot(blocks, target, side)
    violations = _monotonicity_violations(blocks)

    relevant = [
        (i, blk)
        for i, blk in enumerate(blocks)
        if blk.rho == target.rho and blk.twist == 0 and i != pivot
    ]
    contributors = [
        i for i, q in relevant if pole_contribution_table(q, tq) == 1
    ]

    if pivot is not None:
        for i in contributors[: bisect.bisect_left(contributors, pivot)]:
            violations.append(
                Violation(
                    "Pp1",
                    f"pole-contributing block at position {i} sits below the pivot at {pivot}",
                )
            )

    for i, q in relevant:
        if q.A_x2 >= tq.A_x2:
            continue
        for j in contributors[: bisect.bisect_left(contributors, i)]:
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
        limits = [row for row in _LIMITS if row[1] in (None, tq.zeta)]
        for i, q in relevant:
            if q.zeta != tq.zeta:
                continue
            sits = "below" if i < pivot else "above"
            for code, _, applies, required, has in limits:
                if required != sits and applies(q, tq, pq):
                    message = f"block at position {i} with {has} must sit {required} the pivot"
                    violations.append(Violation(code, message))

    return violations


def _canonical_key(block: JordanBlock) -> tuple:
    return (block.A_x2, block.B_x2, 0 if block.zeta == MINUS else 1, block.rho, block.twist)


def canonical_order(
    blocks: Sequence[JordanBlock], target: TargetTriple, side: str = PSI_SIDE
) -> list[int]:
    """Deterministic admissible order, as indices into ``blocks``: A ascending
    with fixed tie-breaks (equal blocks keep their input order), and
    ``locate_pivot``'s copy of the pivot placed by its A-threshold (minimal in
    the exceptional case); the plain sort when there is no pivot (b0 = 2)."""
    keys = [_canonical_key(blk) for blk in blocks]
    order = sorted(range(len(blocks)), key=keys.__getitem__)
    pivot = locate_pivot(blocks, target, side)
    if pivot is None:
        return order
    order.remove(pivot)

    if target.is_exceptional:
        pos = 0
    else:  # order is sorted by A: above A <= A'0 on the small side, A < A0 on the enlarged
        find = bisect.bisect_right if side == PSI_SIDE else bisect.bisect_left
        pos = find(order, blocks[pivot].A_x2, key=lambda k: blocks[k].A_x2)
    order.insert(pos, pivot)
    return order
