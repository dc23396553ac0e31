"""Jacquet-functor words modulo commutation, the chain criterion for their
nonvanishing, and sufficient irreducibility criteria."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core_types import HalfInt
from .jordan import ArthurParameter


@dataclass(frozen=True, slots=True)
class Segment:
    """The arithmetic progression of step 1 from ``start`` to ``stop``."""

    start: HalfInt
    stop: HalfInt

    def __post_init__(self) -> None:
        if (self.start.doubled - self.stop.doubled) % 2 != 0:
            raise ValueError(
                f"segment endpoints must differ by an integer, got [{self.start}, {self.stop}]"
            )

    def __str__(self) -> str:
        return f"[{self.start}, {self.stop}]"


@dataclass(frozen=True)
class JacSequence:
    """A word of Jacquet exponents along one cuspidal label."""

    rho: str
    exponents: tuple[HalfInt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))


def jac_commutes(x_x2: int, y_x2: int) -> bool:
    """Adjacent exponents x, y (doubled) may be swapped exactly when |x - y| > 1."""
    return abs(x_x2 - y_x2) > 2


def jac_normal_form(seq: JacSequence) -> JacSequence:
    """Lexicographically smallest word in the commutation class of ``seq``.

    Greedy: repeatedly emit the smallest exponent that commutes past
    everything before it.
    """
    remaining = [e.doubled for e in seq.exponents]
    out: list[int] = []
    while remaining:
        best_idx = None
        for idx, letter in enumerate(remaining):
            if any(not jac_commutes(letter, remaining[j]) for j in range(idx)):
                continue
            if best_idx is None or letter < remaining[best_idx]:
                best_idx = idx
        assert best_idx is not None  # idx 0 always qualifies
        out.append(remaining.pop(best_idx))
    return JacSequence(seq.rho, tuple(HalfInt(d) for d in out))


def jac_nonvanishing_necessary(
    psi: ArthurParameter, rho: str, seg: Segment
) -> bool:
    """Necessary chain condition for Jac along ``seg`` to be nonzero.

    Looks for blocks (rho, A_1, B_1, zeta_1), ..., (rho, A_v, B_v, zeta_v)
    with zeta_1 B_1 = start, A_v >= |stop|, and B_{i+1} <= A_i + 1 along the
    chain. True means "possibly nonzero"; False is conclusive vanishing.
    """
    quads = []
    for blk in psi.blocks:
        if blk.rho != rho:
            continue
        if blk.twist != 0:
            raise ValueError(f"twisted block {blk} in chain search (decompose first)")
        quads.append(blk.quadruple())

    x, abs_y = seg.start.doubled, abs(seg.stop.doubled)
    frontier = [i for i, q in enumerate(quads) if q.zeta * q.B_x2 == x]
    seen = set(frontier)
    while frontier:
        nxt = []
        for i in frontier:
            if quads[i].A_x2 >= abs_y:
                return True
            for j, q in enumerate(quads):
                if j not in seen and q.B_x2 <= quads[i].A_x2 + 2:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return False


class IrredVerdict(enum.Enum):
    """Outcome of a sufficient irreducibility criterion."""

    IRREDUCIBLE = "irreducible"
    UNKNOWN = "unknown"


def irreducible_cuspidal_twist(
    psi: ArthurParameter, rho: str, x: HalfInt
) -> IrredVerdict:
    """Sufficient criterion for the x-twisted cuspidal induction to stay
    irreducible: every same-label block has A < |x| - 1 or B > |x|.

    x = 0 is outside the criterion's scope and raises.
    """
    abs_x = abs(x.doubled)
    if abs_x == 0:
        raise ValueError("x must be nonzero")
    for blk in psi.blocks:
        if blk.rho != rho:
            continue
        if blk.twist != 0:
            raise ValueError(f"twisted block {blk} in irreducibility check")
        q = blk.quadruple()
        if q.A_x2 < abs_x - 2 or q.B_x2 > abs_x:
            continue
        return IrredVerdict.UNKNOWN
    return IrredVerdict.IRREDUCIBLE
