"""Sparse integer-coefficient polynomials in one variable q.

A polynomial is a map from degree to nonzero coefficient, kept in
increasing degree order; the zero polynomial is the empty map.  Every
operation works on the terms only, so q - q**(10**6) costs two terms,
not a million.  Division is exact long division over the integers, top
term by top term -- a nonzero remainder (or a non-integer quotient
step) is an error, never a rounding.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable

from .errors import NotAPolynomial


class IntPolynomial:
    __slots__ = ("_terms",)

    def __init__(self, coefficients: Iterable[int] = ()):
        """The polynomial with the given dense coefficient list c_0, c_1, ..."""
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        self._terms = {n: c for n, c in enumerate(coeffs) if c}

    @classmethod
    def _from_terms(cls, terms: dict[int, int]) -> "IntPolynomial":
        poly = cls.__new__(cls)
        poly._terms = {n: terms[n] for n in sorted(terms) if terms[n]}
        return poly

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls._from_terms({degree: coeff})

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "IntPolynomial":
        """Sum of q**e over a multiset of nonnegative exponents."""
        counts = Counter(exponents)
        if any(e < 0 for e in counts):
            raise ValueError("exponents must be >= 0")
        return cls._from_terms(counts)

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Dense coefficients c_0..c_degree, with no trailing zeros."""
        dense = [0] * (self.degree + 1)
        for n, c in self._terms.items():
            dense[n] = c
        return tuple(dense)

    @property
    def degree(self) -> int:
        return next(reversed(self._terms), -1)  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for n, c in self._terms.items():
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

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        terms: dict[int, int] = {}
        for i, a in self._terms.items():
            for j, b in other._terms.items():
                terms[i + j] = terms.get(i + j, 0) + a * b
        return IntPolynomial._from_terms(terms)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self / divisor, or NotAPolynomial."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        dd = divisor.degree
        lead = divisor._terms[dd]
        rem = dict(self._terms)
        # Max-heap of the remainder's degrees; entries whose term has since
        # cancelled are skipped when they surface.
        heap = [-n for n in rem]
        heapq.heapify(heap)
        quot: dict[int, int] = {}
        while rem:
            top = -heapq.heappop(heap)
            if top not in rem:
                continue
            c = rem[top]
            if top < dd or c % lead != 0:
                raise NotAPolynomial(f"({self}) is not divisible by ({divisor})")
            k, q = top - dd, c // lead
            quot[k] = q
            for j, b in divisor._terms.items():
                n = k + j
                if n not in rem:
                    heapq.heappush(heap, -n)
                c = rem.pop(n, 0) - q * b
                if c:
                    rem[n] = c
        return IntPolynomial._from_terms(quot)


def one_minus_power_product(
    vs: Iterable[int], start: IntPolynomial | None = None
) -> IntPolynomial:
    """start * prod(1 - q**v, v in vs), with start defaulting to 1.

    Each factor is one pass over a plain dict of the terms, c_n -= c_{n-v}
    from a snapshot of the previous product, so no IntPolynomial is built
    per factor; the terms are sorted, and zeros dropped, once at the end.
    """
    terms = {0: 1} if start is None else dict(start._terms)
    for v in vs:
        if v < 1:
            raise ValueError("exponent must be >= 1")
        for n, c in list(terms.items()):
            terms[n + v] = terms.get(n + v, 0) - c
    return IntPolynomial._from_terms(terms)


def poly_from_factors(
    m1_shift: int, v_plus: Iterable[int], v_minus: Iterable[int]
) -> IntPolynomial:
    """Reduce q**m1 * prod(1-q**v, v in V+) / prod(1-q**v, v in V-).

    Raises NotAPolynomial when the denominator does not divide exactly.
    """
    if m1_shift < 1:
        raise ValueError("shift exponent must be >= 1")
    numerator = one_minus_power_product(v_plus, IntPolynomial.monomial(m1_shift))
    return numerator.exact_div(one_minus_power_product(v_minus))
