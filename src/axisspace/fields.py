"""Exact scalar arithmetic over the two supported fields: Q and GF(p).

A field is fixed by its modulus: none for the rationals, a prime ``p`` for
GF(p).  Scalars are plain Python values in canonical form --
``fractions.Fraction`` (always reduced) over the rationals, and residues in
``range(p)`` over a prime field.  A :class:`FieldCtx` bundles the
operations so every other module can stay field-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import FieldMismatch, FieldNotFinite, NotPrime

Scalar = Union[Fraction, int]

# Fractions are immutable, so every rational zero and one can be these two
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class FieldCtx:
    """Ambient field, fixed by its modulus ``p``: Q when ``p`` is None,
    GF(p) when ``p`` is a prime ``int``."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not (type(self.p) is int and _is_prime(self.p)):
            raise NotPrime(f"modulus {self.p!r} is not prime")

    # -- constructors --------------------------------------------------

    @staticmethod
    def rationals() -> "FieldCtx":
        return FieldCtx()

    @staticmethod
    def prime_field(p: int) -> "FieldCtx":
        return FieldCtx(p)

    # -- basic queries -------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return _Q_ONE if self.p is None else 1

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    # -- canonicalisation ----------------------------------------------

    def of(self, value) -> Scalar:
        """Coerce an int, Fraction or string into canonical form."""
        if self.p is None:
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
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- enumeration ---------------------------------------------------

    def nonzero_elements(self) -> Iterator[Scalar]:
        """All nonzero scalars; only available over a finite field."""
        if self.p is None:
            raise FieldNotFinite("cannot enumerate the nonzero rationals")
        return iter(range(1, self.p))

    def elements(self) -> Iterator[Scalar]:
        if self.p is None:
            raise FieldNotFinite("cannot enumerate the rationals")
        return iter(range(self.p))


def check_same_field(a: FieldCtx, b: FieldCtx) -> None:
    if a is not b and a != b:
        raise FieldMismatch(f"mixed field contexts {a} and {b}")
