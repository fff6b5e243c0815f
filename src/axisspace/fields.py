"""Exact scalar arithmetic over the two supported fields: Q and GF(p).

Scalars are plain Python values in canonical form -- ``fractions.Fraction``
(always reduced) over the rationals, and residues in ``range(p)`` over a
prime field.  A :class:`FieldCtx` bundles the operations so every other
module can stay field-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import FieldMismatch, FieldNotFinite, NotPrime

Scalar = Union[Fraction, int]

RATIONALS = "rationals"
PRIME = "prime"

# Fractions are immutable, so every rational zero and one can be these two
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Ambient field: the rationals or GF(p) for a prime p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == PRIME:
            if self.p is None or not _is_prime(self.p):
                raise NotPrime(f"modulus {self.p!r} is not prime")
        elif self.kind != RATIONALS:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- constructors --------------------------------------------------

    @staticmethod
    def rationals() -> "FieldCtx":
        return FieldCtx(RATIONALS)

    @staticmethod
    def prime_field(p: int) -> "FieldCtx":
        return FieldCtx(PRIME, p)

    # -- basic queries -------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.kind == RATIONALS

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self.kind == RATIONALS else 0

    @property
    def one(self) -> Scalar:
        return _Q_ONE if self.kind == RATIONALS else 1 % self.p

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONALS else f"GF({self.p})"

    # -- canonicalisation ----------------------------------------------

    def of(self, value) -> Scalar:
        """Coerce an int, Fraction or string into canonical form."""
        if self.kind == RATIONALS:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, str):
            value = int(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        return int(value) % self.p

    # -- arithmetic ----------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == RATIONALS else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == RATIONALS else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == RATIONALS else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == RATIONALS else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == RATIONALS:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- enumeration and printing ---------------------------------------

    def nonzero_elements(self) -> Iterator[Scalar]:
        """All nonzero scalars; only available over a finite field."""
        if self.kind == RATIONALS:
            raise FieldNotFinite("cannot enumerate the nonzero rationals")
        return iter(range(1, self.p))

    def elements(self) -> Iterator[Scalar]:
        if self.kind == RATIONALS:
            raise FieldNotFinite("cannot enumerate the rationals")
        return iter(range(self.p))

    def format(self, a: Scalar) -> str:
        return str(a)

    def parse(self, text: str) -> Scalar:
        return self.of(text)


def check_same_field(a: FieldCtx, b: FieldCtx) -> None:
    if a is not b and a != b:
        raise FieldMismatch(f"mixed field contexts {a} and {b}")
