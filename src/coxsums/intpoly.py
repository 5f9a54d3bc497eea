"""Dense integer-coefficient polynomials in one variable q.

Coefficients are stored with no trailing zeros; the zero polynomial is
the empty tuple.  Division is exact long division over the integers --
a nonzero remainder (or a non-integer quotient step) is an error, never
a rounding.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotAPolynomial


class IntPolynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls([0] * degree + [coeff])

    @classmethod
    def one_minus_power(cls, v: int) -> "IntPolynomial":
        """The factor 1 - q**v."""
        if v < 1:
            raise ValueError("exponent must be >= 1")
        return cls([1] + [0] * (v - 1) + [-1])

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "IntPolynomial":
        """Sum of q**e over a multiset of nonnegative exponents."""
        exps = list(exponents)
        if not exps:
            return cls()
        coeffs = [0] * (max(exps) + 1)
        for e in exps:
            if e < 0:
                raise ValueError("exponents must be >= 0")
            coeffs[e] += 1
        return cls(coeffs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1  # -1 for the zero polynomial

    def coefficient(self, n: int) -> int:
        return self._coeffs[n] if 0 <= n < len(self._coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for n, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if n == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                term = f"{head}q" if n == 1 else f"{head}q^{n}"
            parts.append(("-" if c < 0 else "+", term))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return IntPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return IntPolynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self or not other:
            return IntPolynomial()
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    out[i + j] += a * b
        return IntPolynomial(out)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self / divisor, or NotAPolynomial."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPolynomial()
        rem = list(self._coeffs)
        div = divisor._coeffs
        lead = div[-1]
        dd = divisor.degree
        if self.degree < dd:
            raise NotAPolynomial(f"({self}) is not divisible by ({divisor})")
        quot = [0] * (self.degree - dd + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dd]
            if c % lead != 0:
                raise NotAPolynomial(f"({self}) is not divisible by ({divisor})")
            q = c // lead
            quot[k] = q
            if q:
                for j, b in enumerate(div):
                    rem[k + j] -= q * b
        if any(rem):
            raise NotAPolynomial(f"({self}) is not divisible by ({divisor})")
        return IntPolynomial(quot)

    def exponents(self) -> list[int]:
        """Degrees with nonzero coefficient, with multiplicity when possible.

        Only meaningful for polynomials with nonnegative coefficient at
        every degree (sums of monomials q**e).
        """
        out: list[int] = []
        for n, c in enumerate(self._coeffs):
            if c < 0:
                raise ValueError("polynomial is not a sum of monomials")
            out.extend([n] * c)
        return out


def one_minus_power_product(vs: Iterable[int]) -> IntPolynomial:
    """prod(1 - q**v, v in vs), one in-place pass c_k -= c_{k-v} per factor."""
    c = [1]
    for v in vs:
        if v < 1:
            raise ValueError("exponent must be >= 1")
        c += [0] * v
        for k in range(len(c) - 1, v - 1, -1):
            c[k] -= c[k - v]
    return IntPolynomial(c)


def poly_from_factors(
    m1_shift: int, v_plus: Iterable[int], v_minus: Iterable[int]
) -> IntPolynomial:
    """Reduce q**m1 * prod(1-q**v, v in V+) / prod(1-q**v, v in V-).

    Raises NotAPolynomial when the denominator does not divide exactly.
    """
    if m1_shift < 1:
        raise ValueError("shift exponent must be >= 1")
    numerator = IntPolynomial.monomial(m1_shift) * one_minus_power_product(v_plus)
    return numerator.exact_div(one_minus_power_product(v_minus))
