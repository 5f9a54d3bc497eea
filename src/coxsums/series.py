"""Truncated formal power series in t with exact rational coefficients.

A :class:`TruncatedSeries` stores the coefficients of ``t**0 .. t**order``
as `Fraction`s and nothing beyond; every operation is exact and pure.
The product of two series truncates to the shorter operand, so the
result never pretends to more precision than its inputs.

Reciprocals come from the recurrence
b_k = -(a_1 b_{k-1} + ... + a_k b_0) / a_0, and rational powers from J.C.P.
Miller's recurrence, always on the branch with constant term 1.  Miller's
recurrence runs on integer numerators: weighted_scale finds an integer u
that makes every a_j u**j an integer (the Todd pass of coxsums.todd shares
it), and each coefficient of the power becomes a Fraction once.  The
formal log and exp stay public; no other operation goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from .errors import ConstantTermNotOne, NonzeroConstantTerm, ZeroConstantTerm

Scalar = Union[int, Fraction]


def weighted_scale(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """A_1 .. A_n and u, A_i = x_i u**i, from x_i = y_i / d_i (d_i > 0) for i = 1..n.

    The pairs may come from any iterable, a generator included, and need not
    be in lowest terms.  The integer u is grown greedily, one x_i at a time:
    where d = d_i / gcd(y_i, d_i) does not divide u**i, u gains the least
    factor that makes it divide, d / gcd(d, u**i).  Then each
    A_i = y_i u**i / d_i is an exact division.
    """
    pairs, u = list(pairs), 1
    for i, (y, d) in enumerate(pairs, 1):
        d //= gcd(y, d)
        if d != 1 and (r := pow(u, i, d)):
            u *= d // gcd(d, r)
    scaled, ui = [], 1
    for y, d in pairs:
        ui *= u
        scaled.append(y * ui // d)
    return scaled, u


class TruncatedSeries:
    """A power series known exactly up to and including ``t**order``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar], order: int | None = None):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            del coeffs[order + 1 :]
            coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedSeries([{inner}])"

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self._coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(out)
        scalar = Fraction(other)
        return TruncatedSeries([scalar * c for c in self._coeffs])

    # -- transcendental operations ---------------------------------------

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; the constant term must be 1."""
        if self[0] != 1:
            raise ConstantTermNotOne(f"log needs constant term 1, got {self[0]}")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * self[k]
            for j in range(1, k):
                acc -= self[j] * (k - j) * out[k - j]
            out[k] = acc / k
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; the constant term must be 0."""
        if self[0] != 0:
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {self[0]}")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if self[j]:
                    acc += j * self[j] * out[k - j]
            out[k] = acc / k
        return TruncatedSeries(out)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        a = self._coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        out = [1 / a[0]]
        for k in range(1, len(a)):
            acc = sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
            out.append(-acc * out[0])
        return TruncatedSeries(out)

    def pow(self, exponent: Scalar) -> "TruncatedSeries":
        """Raise to a rational power on the branch with constant term 1.

        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): b_0 = 1 and
        k b_k = sum_{j=1..k} ((e+1) j - k) a_j b_{k-j}.  It runs on
        integers: with A_j = a_j u**j (weighted_scale), e + 1 = P/Q and
        b_k = B_k / (k! (Q u)**k),
        B_k = sum_j (P j - Q k) A_j B_{k-j} (k-1)!/(k-j)! Q**(j-1).
        """
        a = self._coeffs
        if a[0] != 1:
            raise ConstantTermNotOne(f"pow needs constant term 1, got {a[0]}")
        e1 = Fraction(exponent) + 1
        p, q = e1.numerator, e1.denominator
        big_a, u = weighted_scale((c.numerator, c.denominator) for c in a[1:])
        big_b, out = [1], [Fraction(1)]
        scale = 1  # k! (Q u)**k
        for k in range(1, len(a)):
            acc, carry = 0, 1  # carry = (k-1)!/(k-j)! Q**(j-1)
            for j in range(1, k + 1):
                x = big_a[j - 1]
                if x:
                    acc += (p * j - q * k) * x * big_b[k - j] * carry
                carry *= (k - j) * q
            big_b.append(acc)
            scale *= k * q * u
            out.append(Fraction(acc, scale))
        return TruncatedSeries(out)
