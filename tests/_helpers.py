"""Shared factories and brute-force oracles for the test suite.

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

from apackets.cli import canonical_json
from apackets.core_types import (
    MINUS,
    PLUS,
    CuspidalLabel,
    GroupKind,
    GroupType,
    Parity,
    Violation,
    check_sign,
    halfint_str,
    sign_str,
)
from apackets.jordan import ArthurParameter, JordanBlock, good_parity, to_quadruple
from apackets.packets import (
    PSI_SIDE,
    TargetTriple,
    admissible_pairs,
    block_sign,
    canonical_order,
    check_constraint1,
    derive_prime_block,
    enumerate_params,
    locate_pivot,
)


def h(n: int) -> int:
    """The whole number n as a doubled half-integer."""
    return 2 * n


def h2(k: int) -> int:
    """The half-integer k/2 as a doubled int."""
    return k


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


def packet_list_json(blocks, epsilon: int) -> str:
    """The answer of `packet --list`: its payload as one dict per member,
    written by canonical_json. The oracle of the command's line templates."""
    return canonical_json(
        {
            "epsilon": sign_str(epsilon),
            "params": [
                {"t": list(p.t), "eta": [sign_str(e) for e in p.eta]}
                for p in enumerate_params(blocks, epsilon)
            ],
        }
    )


def closed_form_count(sizes, epsilon: int) -> int:
    """Packet size for sign ``epsilon`` over blocks of the given (a, b):
    (prod(m + 1) + epsilon * prod(excess)) / 2, since the two signs' counts
    sum to the number of choices and differ by the product of the excesses."""
    total = prod(min(a, b) + 1 for a, b in sizes)
    diff = prod(sign_excess(a, b) for a, b in sizes)
    assert (total + epsilon * diff) % 2 == 0
    return (total + epsilon * diff) // 2


def sign_dp_count(sizes, epsilon: int) -> int:
    """Packet size for sign ``epsilon`` by a two-state DP over the blocks:
    (plus, minus) counts the choices so far whose sign product is + or -.
    O(sum of min(a, b)) work, from each block's admissible pairs."""
    plus, minus = 1, 0
    for a, b in sizes:
        signs = [block_sign(a, b, t, eta) for t, eta in admissible_pairs(a, b)]
        b_plus, b_minus = signs.count(PLUS), signs.count(MINUS)
        plus, minus = plus * b_plus + minus * b_minus, plus * b_minus + minus * b_plus
    return plus if epsilon == PLUS else minus


# --- second routes: the interval pole criterion, the inverse of to_quadruple ----


def pole_contribution_interval(a: int, b: int, a0: int, b0: int) -> int:
    """1 if the factor for (a,b) against (a0,b0) has a pole at s=(b0-1)/2.

    Membership of (b-1)/2 - (b0-1)/2 in the integer-stepped shift set of
    (a0, a): between |a-a0|/2 and (a+a0)/2 - 1 and in the same integrality
    class. The oracle of ``lfactors.pole_contribution_table``.
    """
    if min(a, b, a0) < 1 or b0 < 2:
        raise ValueError(f"need a,b,a0 >= 1 and b0 >= 2, got ({a},{b},{a0},{b0})")
    val = b - b0  # doubled value of (b-1)/2 - (b0-1)/2
    lo = abs(a - a0)
    hi = a + a0 - 2
    return int((val - lo) % 2 == 0 and lo <= val <= hi)


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


# --- exhaustive-search oracle for contragredient pairing -----------------------


def _sort_key(block: JordanBlock) -> tuple:
    return (block.rho, block.a, block.b, block.twist)


def _dual_partner_ok(one: JordanBlock, other: JordanBlock, labels) -> bool:
    """Whether ``other`` can be the contragredient partner of ``one``."""
    if (one.a, one.b) != (other.a, other.b):
        return False
    if one.twist + other.twist != 0:
        return False
    l1, l2 = labels[one.rho], labels[other.rho]
    if l1.self_dual:
        return other.rho == one.rho
    return (not l2.self_dual) and l2.id != l1.id and l2.dim == l1.dim


def pair_up_by_search(blocks, labels) -> list[tuple[JordanBlock, JordanBlock]]:
    """Group blocks into contragredient pairs, or raise ValueError.

    Deterministic backtracking over the sorted multiset; partner candidates
    are tried in sorted order. Exponential on unpairable inputs, so keep it
    to about ten blocks.
    """
    items = sorted(blocks, key=_sort_key)

    def solve(remaining):
        if not remaining:
            return []
        first, rest = remaining[0], remaining[1:]
        tried = set()
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
        raise ValueError("blocks cannot be grouped into contragredient pairs")
    return result


def pairs_up_by_search(psi: ArthurParameter, labels) -> bool:
    """Whether the blocks outside Jord_bp (the good-parity blocks) group into
    contragredient pairs, by ``pair_up_by_search``."""
    try:
        pair_up_by_search([b for b in psi.blocks if not good_parity(b, psi.group, labels)], labels)
    except ValueError:
        return False
    return True


# --- brute-force oracles for the Jacquet normal form --------------------------


def commutation_class_min(word: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest word reachable from ``word`` (doubled exponents) by adjacent
    swaps of letters more than 1 apart: a search of the whole class."""
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                if abs(w[i] - w[i + 1]) > 2:
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return min(seen)


def greedy_normal_form(word: tuple[int, ...]) -> tuple[int, ...]:
    """The class minimum by the cubic greedy: repeatedly emit the smallest
    letter that commutes past everything before it."""
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for idx, letter in enumerate(remaining):
            if any(abs(letter - remaining[j]) <= 2 for j in range(idx)):
                continue
            if best is None or letter < remaining[best]:
                best = idx
        out.append(remaining.pop(best))
    return tuple(out)


def respects_commutation_order(word, result) -> bool:
    """Whether ``result`` permutes ``word`` and keeps every pair of letters at
    most 1 apart (doubled: 2) in their order in ``word``."""
    if sorted(word) != sorted(result):
        return False
    # Equal letters never commute, so the k-th copy of a value in the word is
    # the k-th copy in the result.
    slots: dict[int, list[int]] = {}
    for pos, d in enumerate(result):
        slots.setdefault(d, []).append(pos)
    copies = {d: iter(ps) for d, ps in slots.items()}
    pos_of = [next(copies[d]) for d in word]
    # A letter after the last earlier copy of each value within 2 is after
    # every earlier copy, since the copies keep their order.
    last: dict[int, int] = {}
    for i, d in enumerate(word):
        if any(v in last and pos_of[last[v]] > pos_of[i] for v in range(d - 2, d + 3)):
            return False
        last[d] = i
    return True


# --- case-by-case oracle for packet-coordinate transport ------------------------


def transfer_params_by_cases(t0: int, eta0: int, a0: int, b0: int) -> tuple[int, int]:
    """The transport of (t, eta) written as separate cases: the fresh block
    (b0 = 2) with its own rule, and three rows at the exceptional corner."""
    if a0 < 1 or b0 < 2:
        raise ValueError(f"need a0 >= 1 and b0 >= 2, got ({a0}, {b0})")
    if b0 == 2:
        zeta0 = PLUS if a0 >= b0 else MINUS
        t_plus = 1 if zeta0 == PLUS else 0
        eta_plus = PLUS
    else:
        detail = check_constraint1(a0, b0 - 2, t0, eta0)
        if detail is not None:
            raise ValueError(detail)
        if b0 == a0 + 1:
            m_small = b0 - 2
            if 2 * t0 == m_small:
                t_plus, eta_plus = t0, PLUS
            elif eta0 == PLUS:
                t_plus, eta_plus = t0 + 1, MINUS
            else:
                t_plus, eta_plus = t0, PLUS
        else:
            zeta0 = PLUS if a0 >= b0 else MINUS
            t_plus = t0 + 1 if zeta0 == PLUS else t0
            eta_plus = eta0
    if 2 * t_plus == min(a0, b0):
        eta_plus = PLUS
    return t_plus, eta_plus


# --- brute-force oracle for order validation -----------------------------------


def validate_order_all_pairs(blocks, target: TargetTriple, side: str = PSI_SIDE) -> list[Violation]:
    """The admissible-order conditions checked the direct way: every pair of
    positions for the monotonicity (P) and Pp2 conditions."""
    tq = to_quadruple(target.a0, target.b0)
    pq = derive_prime_block(target.a0, target.b0)
    pivot = locate_pivot(blocks, target, side)
    quads = [to_quadruple(b.a, b.b) for b in blocks]
    violations = []

    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            bi, bj = blocks[i], blocks[j]
            if bi.rho != bj.rho or bi.twist != bj.twist:
                continue
            qi, qj = quads[i], quads[j]
            if qi.zeta == qj.zeta and qi.A_x2 > qj.A_x2 and qi.B_x2 > qj.B_x2:
                violations.append(
                    Violation("P", f"block {bi} at position {i} sits below strictly smaller {bj} at {j}")
                )

    relevant = [
        (i, quads[i])
        for i, b in enumerate(blocks)
        if b.rho == target.rho and b.twist == 0 and i != pivot
    ]
    contributors = [
        i for i, _ in relevant
        if pole_contribution_interval(blocks[i].a, blocks[i].b, target.a0, target.b0) == 1
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


# --- the pivot copy found by list.remove: the former canonical_order ----------


def _canonical_key_by_quadruple(block: JordanBlock) -> tuple:
    q = to_quadruple(block.a, block.b)
    return (q.A_x2, q.B_x2, 0 if q.zeta == MINUS else 1, block.rho, block.twist)


def canonical_order_by_remove(blocks, target: TargetTriple, side: str = PSI_SIDE):
    """canonical_order as it was before it asked locate_pivot for the pivot:
    take out the first copy equal to the pivot block, sort the rest, and put
    the copy back at the pivot's A-threshold. Coordinates come from
    to_quadruple and derive_prime_block, not from the blocks' own fields."""
    pivot_block = target.pivot_block(side)
    if pivot_block is None:  # small side with b0 = 2: nothing to place
        return tuple(sorted(blocks, key=_canonical_key_by_quadruple))
    rest = list(blocks)
    try:
        rest.remove(pivot_block)
    except ValueError:
        raise ValueError(f"required block {pivot_block} absent from Jord") from None
    rest.sort(key=_canonical_key_by_quadruple)
    if target.is_exceptional:
        pos = 0
    elif side == PSI_SIDE:
        pq = derive_prime_block(target.a0, target.b0)
        pos = sum(1 for b in rest if to_quadruple(b.a, b.b).A_x2 <= pq.A_x2)
    else:
        tq = to_quadruple(target.a0, target.b0)
        pos = sum(1 for b in rest if to_quadruple(b.a, b.b).A_x2 < tq.A_x2)
    rest.insert(pos, pivot_block)
    return tuple(rest)


def canonical_blocks(blocks, target: TargetTriple, side: str = PSI_SIDE) -> tuple:
    """The blocks at the positions canonical_order returns, in that order."""
    return tuple(blocks[k] for k in canonical_order(blocks, target, side))
