"""Exact scalar arithmetic over the two supported fields: Q and GF(p).

A field is fixed by its modulus: none for the rationals, a prime ``p`` for
GF(p).  Scalars are plain Python values in canonical form --
``fractions.Fraction`` (always reduced) over the rationals, and residues in
``range(p)`` over a prime field.  A :class:`FieldCtx` bundles the
operations so every other module can stay field-agnostic.

A modulus is certified prime by Miller-Rabin to the 13 prime bases 2 .. 41,
which is exact below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson
and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp.
2017); a larger modulus is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import FieldMismatch, FieldNotFinite, NotPrime

Scalar = Union[Fraction, int]

# Fractions are immutable, so every rational zero, one and minus one can be
# these three
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)
_Q_MINUS_ONE = Fraction(-1)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n`` below ``_CERTIFIED_BELOW``."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Ambient field, fixed by its modulus ``p``: Q when ``p`` is None,
    GF(p) when ``p`` is a prime ``int``."""

    p: int | None = None

    def __post_init__(self):
        if type(self.p) is int and self.p >= _CERTIFIED_BELOW:
            raise NotPrime(f"modulus {self.p} is too large to certify as prime (limit {_CERTIFIED_BELOW})")
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

    @property
    def minus_one(self) -> Scalar:
        return _Q_MINUS_ONE if self.p is None else self.p - 1

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
