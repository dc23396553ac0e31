"""Holomorphy and residue verdicts for the degenerate Eisenstein series
attached to a global block datum, from declared analytic facts."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .core_types import LContext, TriBool, Value, kleene_and

RationalLike = Union[Fraction, int]


class GlobalJord(Value):
    """Global block datum: pairs (label id, size b)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, int], ...]):
        for rho, b in pairs:
            if b < 1:
                raise ValueError(f"size must be >= 1, got ({rho!r}, {b})")
        self.pairs = pairs


class VerdictKind(enum.Enum):
    """Shape of the pole statement the conditions support."""

    HOLOMORPHIC = "holomorphic"
    POLE_ORDER_AT_MOST_ONE = "pole_order_at_most_one"


class ResidueOutcome(enum.Enum):
    """What the residue at s0 can be said to be."""

    NO_RESIDUE = "no_residue"
    RESIDUE_IS_PI_PLUS = "residue_is_pi_plus"
    UNDETERMINED = "undetermined"


class EisensteinVerdict(NamedTuple):
    """Verdict kind together with the two condition evaluations behind it."""

    kind: VerdictKind
    cond1: bool
    cond2: TriBool


def global_pole_conditions(
    jord: GlobalJord, rho: str, s0: RationalLike, ctx: LContext
) -> tuple[bool, TriBool]:
    """The two conditions governing a pole at s0 >= 1/2.

    Condition 1: at s0 = 1/2, the degree-two factor of rho has its pole at 1;
    at half-integral s0 >= 1, the pair (rho, 2*s0 - 1) lies in the datum.
    Condition 2: for every (rho', 2*s0) in the datum, the central value of
    the pair (rho, rho') is nonzero — three-valued, vacuously true.
    Non-half-integral s0 makes both conditions false; s0 < 1/2 raises.
    """
    s = Fraction(s0)
    if s < Fraction(1, 2):
        raise ValueError(f"s0 must be >= 1/2, got {s}")
    if rho not in ctx.universe:
        raise ValueError(f"undeclared label: {rho!r}")
    if s.denominator > 2:
        return False, TriBool.FALSE
    two_s0 = int(2 * s)

    if s == Fraction(1, 2):
        cond1 = ctx.has_rg_pole_at_1(rho)
    else:
        cond1 = (rho, two_s0 - 1) in jord.pairs

    central = [ctx.query_central(rho, rho2) for rho2, b2 in jord.pairs if b2 == two_s0]
    return cond1, kleene_and(central)


def eisenstein_verdict(
    jord: GlobalJord, rho: str, s0: RationalLike, ctx: LContext
) -> EisensteinVerdict:
    """Pole-order-at-most-one exactly when both conditions definitively hold;
    holomorphic otherwise (an Unknown second condition stays visible)."""
    cond1, cond2 = global_pole_conditions(jord, rho, s0, ctx)
    if cond1 and cond2 is TriBool.TRUE:
        kind = VerdictKind.POLE_ORDER_AT_MOST_ONE
    else:
        kind = VerdictKind.HOLOMORPHIC
    return EisensteinVerdict(kind=kind, cond1=cond1, cond2=cond2)


def residue_verdict(
    verdict: EisensteinVerdict, local_nonvanishing: Iterable[TriBool]
) -> ResidueOutcome:
    """Combine the pole verdict with local nonvanishing facts.

    A holomorphic verdict or any definitely-vanishing place kills the
    residue; all places definitely nonvanishing identify it (vacuously so
    with no places); anything else is undetermined.
    """
    places = tuple(local_nonvanishing)
    if verdict.kind is VerdictKind.HOLOMORPHIC or TriBool.FALSE in places:
        return ResidueOutcome.NO_RESIDUE
    if all(p is TriBool.TRUE for p in places):
        return ResidueOutcome.RESIDUE_IS_PI_PLUS
    return ResidueOutcome.UNDETERMINED
