"""Sparse polynomials with integer coefficients in c_1, c_2, ...

A polynomial is a dict from exponent tuple to nonzero int: the tuple
(e_1, ..., e_k) stands for c_1**e_1 * ... * c_k**e_k, with trailing
zeros dropped, so a polynomial has one form however many variables the
computation that built it used.  The Todd pass runs over this ring to
give M_k * Td_k as polynomials; every coefficient stays an integer.
"""

from __future__ import annotations

from operator import add


def _times(e: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    if len(e) < len(f):
        e, f = f, e
    return tuple(map(add, e, f)) + e[len(f):]


class MPoly:
    """An element of Z[c_1, c_2, ...]; ints mix in as constants."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def variable(cls, i: int) -> MPoly:
        """c_i, for i >= 1."""
        if i < 1:
            raise ValueError("variables are numbered from 1")
        return cls({(0,) * (i - 1) + (1,): 1})

    @staticmethod
    def _lift(other) -> MPoly:
        return other if isinstance(other, MPoly) else MPoly({(): other})

    def __add__(self, other) -> MPoly:
        if not isinstance(other, (MPoly, int)):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in MPoly._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MPoly:
        if not isinstance(other, (MPoly, int)):
            return NotImplemented
        return self + -MPoly._lift(other)

    def __rsub__(self, other) -> MPoly:
        return -self + other

    def __mul__(self, other) -> MPoly:
        if isinstance(other, int):
            return MPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                g = _times(e, f)
                terms[g] = terms.get(g, 0) + c * d
        return MPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = MPoly({(): 1})
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, d: int) -> tuple[MPoly, MPoly]:
        """Coefficientwise floor division by a nonzero int, and the remainder."""
        if not isinstance(d, int):
            return NotImplemented
        pairs = {e: divmod(c, d) for e, c in self.terms.items()}
        return (
            MPoly({e: q for e, (q, _) in pairs.items()}),
            MPoly({e: r for e, (_, r) in pairs.items()}),
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        """MPoly({...}) over the terms in the order of __str__, so a polynomial has
        one repr however it was built, and eval gives it back."""
        terms = {e: self.terms[e] for e in sorted(self.terms, reverse=True)}
        return f"MPoly({terms!r})"

    def __str__(self) -> str:
        """Terms by decreasing exponent tuple, e.g. '-c1**4 + 4*c1**2*c2 - c4'."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [
                f"c{i}" if k == 1 else f"c{i}**{k}" for i, k in enumerate(e, 1) if k
            ]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {'*'.join(factors)}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]
