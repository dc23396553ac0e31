"""Half-integers, signs, cuspidal labels, group types, declared analytic
facts, and the base of the checked value classes, shared by every other
module.

A half-integer x is the doubled int 2x, in the package and at its API alike
(names end in ``_x2``); ``parse_halfint`` and ``halfint_str`` convert it from
and to 'n' or 'k/2'. No value changes once built and all arithmetic is exact;
no floating point is used anywhere in the package.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

PLUS = 1
MINUS = -1

_SIGN_TO_STR = {PLUS: "+", MINUS: "-"}


def check_sign(value: int) -> int:
    """Return ``value`` unchanged if it is +1 or -1, else raise ValueError."""
    if value is not True and value is not False and value in (PLUS, MINUS):
        return value
    raise ValueError(f"not a sign (+1/-1): {value!r}")


def sign_str(value: int) -> str:
    """Render a sign as '+' or '-'."""
    return _SIGN_TO_STR[check_sign(value)]


def parse_sign(text: str) -> int:
    """Parse '+', '-', '+1', '-1' into +1 or -1."""
    if text in ("+", "+1"):
        return PLUS
    if text in ("-", "-1"):
        return MINUS
    raise ValueError(f"not a sign: {text!r}")


def halfint_str(doubled: int) -> str:
    """Render the half-integer ``doubled / 2`` as 'n' or 'k/2'."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def parse_halfint(text: str) -> int:
    """Parse 'n' or 'k/2' (optionally signed) into the doubled int."""
    text = text.strip()
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


class Parity(enum.Enum):
    """Self-dual type of a cuspidal label (type of its dual-side image)."""

    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"

    @property
    def sign(self) -> int:
        return PLUS if self is Parity.ORTHOGONAL else MINUS


class Value:
    """Base of the checked value classes: ``==``, ``hash`` and ``repr`` over
    the fields named in ``__slots__``, equal only to the same class. Nothing
    freezes the fields; the package assigns them only in ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CuspidalLabel(Value):
    """An opaque cuspidal datum: identifier, dimension, and duality facts."""

    __slots__ = ("id", "dim", "self_dual", "parity")

    def __init__(self, id: str, dim: int, self_dual: bool, parity: Parity | None = None):
        if not id:
            raise ValueError("label id must be nonempty")
        if dim < 1:
            raise ValueError(f"label dimension must be >= 1, got {dim}")
        if parity is not None and not self_dual:
            raise ValueError(f"label {id!r}: parity declared but not self-dual")
        self.id = id
        self.dim = dim
        self.self_dual = self_dual
        self.parity = parity


class GroupKind(enum.Enum):
    """Kind of classical group, named by its dual-side standard representation."""

    SO_ODD = "SOodd"
    SP = "Sp"
    O_EVEN = "Oeven"


class GroupType(Value):
    """A classical group given by kind, dual standard dimension, and a sign."""

    __slots__ = ("kind", "rank_dim", "epsilon")

    def __init__(self, kind: GroupKind, rank_dim: int, epsilon: int = PLUS):
        if not isinstance(kind, GroupKind):
            raise TypeError(f"kind must be a GroupKind, got {kind!r}")
        if rank_dim < 1:
            raise ValueError(f"rank_dim must be >= 1, got {rank_dim}")
        self.kind = kind
        self.rank_dim = rank_dim
        self.epsilon = check_sign(epsilon)

    @property
    def required_parity(self) -> Parity:
        """Parity every good-parity block's product must attain."""
        if self.kind is GroupKind.SO_ODD:
            return Parity.SYMPLECTIC
        return Parity.ORTHOGONAL


class TriBool(enum.Enum):
    """Three-valued truth for verdicts that may rest on undeclared facts."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def kleene_and(values: Iterable[TriBool]) -> TriBool:
    """Three-valued conjunction: any FALSE wins, else any UNKNOWN, else TRUE."""
    result = TriBool.TRUE
    for v in values:
        if v is TriBool.FALSE:
            return TriBool.FALSE
        if v is TriBool.UNKNOWN:
            result = TriBool.UNKNOWN
    return result


def _normalized_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class LContext(Value):
    """Declared analytic facts about a universe of cuspidal labels.

    Records which labels have the degree-two pole at 1, and which unordered
    pairs have nonvanishing/vanishing central value. Everything undeclared
    is Unknown.
    """

    __slots__ = ("universe", "rg_pole_at_1", "nonvanishing_pairs", "vanishing_pairs")

    def __init__(
        self,
        universe: Iterable[str],
        rg_pole_at_1: Iterable[str] = (),
        nonvanishing: Iterable[tuple[str, str]] = (),
        vanishing: Iterable[tuple[str, str]] = (),
    ):
        uni = frozenset(universe)
        pole = frozenset(rg_pole_at_1)
        nonzero = frozenset(_normalized_pair(a, b) for a, b in nonvanishing)
        zero = frozenset(_normalized_pair(a, b) for a, b in vanishing)
        for rho in pole:
            if rho not in uni:
                raise ValueError(f"undeclared label in rg_pole_at_1: {rho!r}")
        for a, b in nonzero | zero:
            if a not in uni or b not in uni:
                raise ValueError(f"undeclared label in central-value pair: ({a!r}, {b!r})")
        clash = nonzero & zero
        if clash:
            raise ValueError(f"pairs declared both nonvanishing and vanishing: {sorted(clash)}")
        self.universe = uni
        self.rg_pole_at_1 = pole
        self.nonvanishing_pairs = nonzero
        self.vanishing_pairs = zero

    def query_central(self, rho: str, rho2: str) -> TriBool:
        """Whether the central value of the unordered pair (rho, rho2) is
        declared nonzero (TRUE), declared zero (FALSE) or undeclared."""
        for r in (rho, rho2):
            if r not in self.universe:
                raise ValueError(f"undeclared label: {r!r}")
        pair = _normalized_pair(rho, rho2)
        if pair in self.nonvanishing_pairs:
            return TriBool.TRUE
        if pair in self.vanishing_pairs:
            return TriBool.FALSE
        return TriBool.UNKNOWN

    def has_rg_pole_at_1(self, rho: str) -> bool:
        if rho not in self.universe:
            raise ValueError(f"undeclared label: {rho!r}")
        return rho in self.rg_pole_at_1


class Violation(NamedTuple):
    """A named check failure with a human-readable detail message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"
