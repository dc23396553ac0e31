"""Answers the benchmark checks every query against.

Each oracle is written from the mathematical rule it checks, in plain
integers (half-integers as doubled ints), and imports nothing from
``apackets``: the code under test is never its own reference.
"""

from __future__ import annotations

import heapq
from math import prod


def pairs(a: int, b: int) -> list[tuple[int, int]]:
    """Admissible (t, eta) of one block: 0 <= t <= m//2, eta = + when 2t = m."""
    m = min(a, b)
    return [(t, e) for t in range(m // 2 + 1) for e in (1, -1) if not (2 * t == m and e == -1)]


def in_range(a: int, b: int, t: int, eta: int) -> bool:
    m = min(a, b)
    return eta in (1, -1) and 0 <= t <= m // 2 and not (2 * t == m and eta == -1)


def sign(a: int, b: int, t: int, eta: int) -> int:
    """The block's factor eta^m * (-1)^(m//2 + t) in the packet sign product."""
    m = min(a, b)
    return (eta if m % 2 else 1) * (-1 if (m // 2 + t) % 2 else 1)


def excess(a: int, b: int) -> int:
    """Members of one block with sign + minus those with sign -."""
    return sum(sign(a, b, t, e) for t, e in pairs(a, b))


def candidates(sizes: list[tuple[int, int]]) -> int:
    return prod(min(a, b) + 1 for a, b in sizes)


def packet_count(sizes: list[tuple[int, int]], epsilon: int) -> int:
    """(prod(m+1) + epsilon * prod(excess)) / 2 members of sign epsilon."""
    return (candidates(sizes) + epsilon * prod(excess(a, b) for a, b in sizes)) // 2


def member_ok(sizes: list[tuple[int, int]], t: list[int], eta: list[int], epsilon: int) -> bool:
    """Range rule on every block and sign product equal to epsilon."""
    if not (len(t) == len(eta) == len(sizes)):
        return False
    total = 1
    for (a, b), ti, ei in zip(sizes, t, eta):
        if not in_range(a, b, ti, ei):
            return False
        total *= sign(a, b, ti, ei)
    return total == epsilon


def quad2(a: int, b: int) -> tuple[int, int, int]:
    """Doubled (A, B) and zeta of the block sizes (a, b)."""
    return a + b - 2, abs(a - b), 1 if a >= b else -1


def pole_order(sizes: list[tuple[int, int]], a0: int, s0_x2: int) -> int:
    """Minus the number of blocks whose shift set (a0, a) holds (b-1)/2 - s0.

    Criterion-1 route: (b-1)/2 - (b0-1)/2 lies in |a-a0|/2, ..., (a+a0)/2 - 1
    stepping by 1, with b0 = 2*s0 + 1.
    """
    b0 = s0_x2 + 1
    if b0 < 2:
        return 0
    hits = 0
    for a, b in sizes:
        val, lo, hi = b - b0, abs(a - a0), a + a0 - 2
        hits += (val - lo) % 2 == 0 and lo <= val <= hi
    return -hits


def normal_form(word_x2: list[int]) -> list[int]:
    """Least word in the commutation class: Kahn's sort, min-heap on (value, index).

    Letters x, y commute iff |x - y| > 1, so letter i waits for the last
    earlier occurrence of each doubled value within 2 of its own.
    """
    n = len(word_x2)
    waits = [0] * n
    after: list[list[int]] = [[] for _ in range(n)]
    last: dict[int, int] = {}
    for i, d in enumerate(word_x2):
        for v in range(d - 2, d + 3):
            j = last.get(v)
            if j is not None:
                after[j].append(i)
                waits[i] += 1
        last[d] = i
    heap = [(d, i) for i, d in enumerate(word_x2) if waits[i] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        d, i = heapq.heappop(heap)
        out.append(d)
        for k in after[i]:
            waits[k] -= 1
            if waits[k] == 0:
                heapq.heappush(heap, (word_x2[k], k))
    return out


def respects_order(word_x2: list[int], result: list[int]) -> bool:
    """Whether ``result`` permutes ``word_x2`` keeping every non-commuting pair in order."""
    if sorted(word_x2) != sorted(result):
        return False
    # Equal letters never commute, so the k-th copy of a letter in the word
    # is the k-th copy in the result.
    slots: dict[int, list[int]] = {}
    for p, d in enumerate(result):
        slots.setdefault(d, []).append(p)
    copies = {d: iter(ps) for d, ps in slots.items()}
    pos_of = [next(copies[d]) for d in word_x2]
    # Checking each letter against the last earlier letter of every value
    # within 2 covers every non-commuting pair by transitivity.
    last: dict[int, int] = {}
    for i, d in enumerate(word_x2):
        for v in range(d - 2, d + 3):
            j = last.get(v)
            if j is not None and pos_of[j] > pos_of[i]:
                return False
        last[d] = i
    return True


def chain_possible(quads: list[tuple[int, int, int]], x_x2: int, y_x2: int) -> bool:
    """Whether blocks chain from zeta*B = x up to some A >= |y|, each next B <= A + 1."""
    marked = [q[2] * q[1] == x_x2 for q in quads]
    stack = [q for q, m in zip(quads, marked) if m]
    while stack:
        A, _, _ = stack.pop()
        if A >= abs(y_x2):
            return True
        for k, q in enumerate(quads):
            if not marked[k] and q[1] <= A + 2:
                marked[k] = True
                stack.append(q)
    return False


def irreducible(quads: list[tuple[int, int, int]], x_x2: int) -> bool:
    """Every block has A < |x| - 1 or B > |x|."""
    ax = abs(x_x2)
    return all(A < ax - 2 or B > ax for A, B, _ in quads)
