"""Classification data for the irreducible finite Coxeter types.

Covers type parsing, canonical labels, exponents, dual partitions and
the parameter sets (r, h, gamma, d, nu, alpha, beta, A, B, V+, V-) that
drive every computation downstream.  No root-system geometry lives
here: roots and reflection groups are never constructed.  A type is
canonical once it is built: ``CoxeterType`` stores B_n as C_n and
I2(3..6) as A2, C2, H2, G2, the form every function below reads.

Parameter profiles
------------------
Most types have a single parameter set.  The dihedral family carries
two published parameterizations, so three profiles are exposed:

* ``standard``      -- the classification-table values; H2 keeps its
                       original d=2, nu=1.  Odd I2(m) with m >= 7 has no
                       workable standard row and raises ProfileMismatch.
* ``redefined``     -- d = m/2, nu = 0 for every dihedral-family type
                       (I2(m), m >= 4, including H2 = I2(5)); half-integer
                       entries then appear in both V+ and V- and cancel.
* ``h2-original``   -- like the default: redefined for I2(m >= 7), the
                       original d=2, nu=1 row for H2.

When no profile is given, plain I2 types use ``redefined`` and every
named family (including H2) uses ``standard``.

The parameters are built on integers: d is an integer or, in the
dihedral family, a half-integer, so ``parameters`` forms 2d, 2alpha and
the doubled multisets 2V+ and 2V-, and turns each output field into a
``Fraction`` once at the end.

Table entries
-------------
The infinite families A, B/C, D and I2 are given by formulas in the rank
(or m).  Each exceptional type E6, E7, E8, F4, G2, H2, H3, H4 is one row
of ``_EXCEPTIONAL`` -- its exponents, h, gamma, 2d and nu -- and every
function below reads that row rather than a branch of its own.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import gt, lt, sub
from typing import NamedTuple

from .errors import InternalMismatch, ParseError, ProfileMismatch, RangeError

PROFILES = ("standard", "redefined", "h2-original")

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "H", "I2")

# The lowest index of each infinite family; the exceptional types are the
# keys of _EXCEPTIONAL.
_MIN_INDEX = {"A": 1, "B": 2, "C": 2, "D": 4, "I2": 3}

# The named type each small dihedral label is stored as (B_n is stored as C_n).
_ALIASES = {("I2", 3): ("A", 2), ("I2", 4): ("C", 2), ("I2", 5): ("H", 2), ("I2", 6): ("G", 2)}

# The most digits a label's index may have: Python's default int-string limit,
# or the interpreter's own limit where that is lower.
_MAX_INDEX_DIGITS = 4300

# An error message writes a number of more than this many digits, a type's
# index among them, by its digit count.
_MAX_ECHO_DIGITS = 20

# A label that cannot be parsed is echoed in the error message up to this many
# characters, and named by its length beyond: room for any joint label whose
# indices have up to _MAX_ECHO_DIGITS digits.
_MAX_ECHO_LABEL = 64


class _Row(NamedTuple):
    """The table entries of one exceptional type."""

    exponents: tuple[int, ...]
    h: int
    gamma: int
    d2: int  # 2d
    nu: int


# One row per exceptional type, in catalog order.  H2 = I2(5) holds its
# standard (2d, nu) = (4, 1); its redefined profile takes the dihedral
# rule d = h/2, nu = 0 instead.
_EXCEPTIONAL = {
    ("E", 6): _Row((1, 4, 5, 7, 8, 11), 12, 144, 6, 0),
    ("E", 7): _Row((1, 5, 7, 9, 11, 13, 17), 18, 324, 8, 0),
    ("E", 8): _Row((1, 7, 11, 13, 17, 19, 23, 29), 30, 900, 12, 0),
    ("F", 4): _Row((1, 5, 7, 11), 12, 162, 8, 0),
    ("G", 2): _Row((1, 5), 6, 48, 6, 0),
    ("H", 2): _Row((1, 4), 5, 31, 4, 1),
    ("H", 3): _Row((1, 5, 9), 10, 124, 8, 0),
    ("H", 4): _Row((1, 11, 19, 29), 30, 1116, 20, 0),
}


@dataclass(frozen=True)
class CoxeterType:
    """An irreducible type tag, canonical once built: family plus rank (or m for I2)."""

    family: str
    index: int

    def __post_init__(self):
        f, n = self.family, self.index
        if type(n) is not int:
            raise TypeError(f"type index must be an int, not {type(n).__name__}")
        if f not in _FAMILIES:
            raise RangeError(f"unknown family {f!r}")
        lowest = _MIN_INDEX.get(f)
        ok = (f, n) in _EXCEPTIONAL if lowest is None else n >= lowest
        if not ok:
            label = f"I2({brief(n)})" if f == "I2" else f"{f}{brief(n)}"
            raise RangeError(f"{label} is outside the classification")
        f, n = _ALIASES.get((f, n), ("C" if f == "B" else f, n))
        object.__setattr__(self, "family", f)
        object.__setattr__(self, "index", n)

    @property
    def rank(self) -> int:
        return 2 if self.family == "I2" else self.index

    @property
    def coxeter_number(self) -> int:
        f, n = self.family, self.index
        if f == "A":
            return n + 1
        if f == "C":
            return 2 * n
        if f == "D":
            return 2 * n - 2
        if f == "I2":
            return n
        return _EXCEPTIONAL[(f, n)].h

    @property
    def is_crystallographic(self) -> bool:
        return self.family not in ("H", "I2")

    @property
    def name(self) -> str:
        if self.family == "I2":
            return f"I2({self.index})"
        if self.family == "C":
            return f"C{self.index}/B{self.index}"
        return f"{self.family}{self.index}"

    def __str__(self) -> str:
        return self.name


_SIMPLE_RE = re.compile(r"^([A-Za-z])\s*(\d+)$")
_I2_RE = re.compile(r"^[Ii]\s*2\s*\(\s*(\d+)\s*\)$")
_DIGITS_RE = re.compile(r"\d+")


def brief(value: int | CoxeterType) -> str:
    """A number or a type as an error message writes it: a number of more than
    _MAX_ECHO_DIGITS digits by its digit count, as <2000 digits>, and a type with
    such an index by its family and that count, as A<2000 digits>."""
    n = value.index if isinstance(value, CoxeterType) else value
    if n < 10**_MAX_ECHO_DIGITS:
        return str(value)
    digits = (n.bit_length() - 1) * 3 // 10  # below the digit count
    while 10**digits <= n:
        digits += 1
    shown = f"<{digits} digits>"
    return value.name.replace(str(n), shown) if isinstance(value, CoxeterType) else shown


def _unparsable(text: str) -> ParseError:
    """The error for a label that does not parse: text echoed, or, past
    _MAX_ECHO_LABEL characters, named by its length."""
    if len(text) > _MAX_ECHO_LABEL:
        return ParseError(f"cannot parse a type label of {len(text)} characters")
    return ParseError(f"cannot parse type {text!r}")


def parse_type(text: str) -> CoxeterType:
    """Parse a type label such as 'E8', 'b3', 'C5/B5' or 'I2(7)'."""
    s = text.strip()
    # Refused before int() reads it, and named by length, not echoed.
    limit = min(_MAX_INDEX_DIGITS, sys.get_int_max_str_digits() or _MAX_INDEX_DIGITS)
    digits = max(map(len, _DIGITS_RE.findall(s)), default=0)
    if digits > limit:
        raise ParseError(f"type index has {digits} digits; the limit is {limit}")
    if "/" in s:
        # Joint labels like C5/B5 round-trip when both halves agree.
        halves = s.split("/")
        if len(halves) == 2:
            try:
                left, right = map(parse_type, halves)
            except ParseError:
                raise _unparsable(text) from None
            if left == right:
                return left
        raise _unparsable(text)
    m = _I2_RE.match(s)
    if m:
        return CoxeterType("I2", int(m.group(1)))
    m = _SIMPLE_RE.match(s)
    if m:
        family = m.group(1).upper()
        if family not in _FAMILIES:
            raise _unparsable(text)
        return CoxeterType(family, int(m.group(2)))
    raise _unparsable(text)


@dataclass(frozen=True)
class ExponentList:
    """Nondecreasing list of exponents m_1 <= ... <= m_r."""

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if not v:
            raise ValueError("empty exponent list")
        if v[0] < 1 or any(map(gt, v, islice(v, 1, None))):
            raise ValueError("exponents must be positive and nondecreasing")

    @property
    def rank(self) -> int:
        return len(self.values)

    @property
    def coxeter_number(self) -> int:
        return self.values[-1] + 1


def exponents(t: CoxeterType) -> ExponentList:
    """The sorted exponent list of an irreducible type."""
    f, n = t.family, t.index
    if f == "A":
        vals = tuple(range(1, n + 1))
    elif f == "C":
        vals = tuple(range(1, 2 * n, 2))
    elif f == "D":
        vals = tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    elif f == "I2":
        vals = (1, n - 1)
    else:
        vals = _EXCEPTIONAL[(f, n)].exponents
    return ExponentList(vals)


@dataclass(frozen=True)
class DualPartition:
    """k_j = number of exponents >= j, for j = 1 .. h-1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        k = self.counts
        if any(map(lt, k, islice(k, 1, None))) or (k and k[-1] < 0):
            raise ValueError("dual partition must be nonincreasing and nonnegative")


def dual_partition(e: ExponentList) -> DualPartition:
    """k_j = r - i on each run m_i < j <= m_{i+1} (m_0 = 0): one repeat per
    exponent gap, so no height is searched for."""
    v = e.values
    gaps = map(sub, v, (0, *v))
    counts = tuple(chain.from_iterable(map(repeat, range(len(v), 0, -1), gaps)))
    return DualPartition(counts)


def gamma_invariant(t: CoxeterType) -> int:
    """The table constant gamma (equals h**2 for the simply-laced types)."""
    f, n = t.family, t.index
    if f == "A":
        return (n + 1) ** 2
    if f == "C":
        return 4 * n * n + 2 * n - 2
    if f == "D":
        return (2 * n - 2) ** 2
    if f == "I2":
        return 2 * n * n - 5 * n + 6
    return _EXCEPTIONAL[(f, n)].gamma


@dataclass(frozen=True)
class ParameterSet:
    """The tuple (r, h, gamma, d, nu, alpha, beta, A, B, V+, V-) for one type."""

    r: int
    h: int
    gamma: int
    d: Fraction
    nu: int
    alpha: Fraction
    beta: Fraction
    A: Fraction
    B: Fraction
    V_plus: tuple[Fraction, ...]
    V_minus: tuple[Fraction, ...]


def cancelled(params: ParameterSet) -> tuple[list[Fraction], list[Fraction]]:
    """V+ and V- with one copy of each common entry removed from each side,
    the multiset difference of each side with their intersection."""
    plus, minus = list(params.V_plus), list(params.V_minus)
    for v in params.V_plus:
        if v in minus:
            minus.remove(v)
            plus.remove(v)
    return plus, minus


# Families where the table leaves beta (for A1 also alpha) arbitrary.
_ARBITRARY_BETA = ("A", "C", "G", "H2", "H3", "I2")


def _profile_for(t: CoxeterType, profile: str | None) -> str:
    """Resolve a requested profile to 'standard' or 'redefined' for t; every
    profile of an I2 type resolves to 'redefined'."""
    if profile in (None, "h2-original"):
        return "redefined" if t.family == "I2" else "standard"
    if profile == "standard":
        if t.family != "I2":
            return "standard"
        if t.index % 2 == 1:
            raise ProfileMismatch(
                f"{brief(t)} has no standard parameter row; use profile 'redefined'"
            )
        return "redefined"  # an even I2's standard row is the dihedral rule
    if profile == "redefined":
        if t.family == "I2" or (t.family, t.index) == ("H", 2):
            return "redefined"
        return "standard"
    raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")


def _twice_d_nu(t: CoxeterType, concrete: str) -> tuple[int, int]:
    """(2d, nu): d is an integer, or a half-integer in the dihedral family."""
    f, n = t.family, t.index
    if f == "A":
        return 2, 1 if n == 1 else n
    if f == "C":
        return 4, n - 2
    if f == "D":
        return 4, n - 4
    if concrete == "redefined":
        # The dihedral rule, for I2(m) and redefined H2: d = m/2 = h/2.
        return t.coxeter_number, 0
    row = _EXCEPTIONAL[(f, n)]
    return row.d2, row.nu


def _second_exponent(t: CoxeterType) -> int:
    """m_2 of a type of rank >= 2, in O(1): no exponent list is built."""
    f = t.family
    if f == "A":
        return 2
    if f in ("C", "D"):
        return 3
    if f == "I2":
        return t.index - 1
    return _EXCEPTIONAL[(f, t.index)].exponents[1]


def _half(x: int) -> Fraction:
    return Fraction(x // 2) if x % 2 == 0 else Fraction(x, 2)


def _remove_one(values: list[int], x: int) -> list[int]:
    out = list(values)
    out.remove(x)
    return out


def parameters(
    t: CoxeterType,
    profile: str | None = None,
    beta: Fraction | int | None = None,
) -> ParameterSet:
    """Full parameter set for a type under the chosen profile.

    ``beta`` overrides the table's pinned value in the families where
    that slot is arbitrary (it then replaces the pinned entry in both
    V+ and V-); for the other types it is rejected.

    Every entry is formed doubled, as an integer (2d, 2alpha, 2V+, 2V-),
    and halved into a ``Fraction`` once; r, h, gamma and nu stay ints.
    """
    concrete = _profile_for(t, profile)
    r = t.rank
    h = t.coxeter_number
    gamma = gamma_invariant(t)
    d2, nu = _twice_d_nu(t, concrete)

    # V- = {d, 2d-2+nu}, V+ = {4d-4+d*nu, h-d-(d-1)*nu}, doubled:
    # 2V- = {2d, 4d-4+2nu}, 2V+ = {8d-8+2d*nu, 2h-2d-(2d-2)*nu}.
    v_minus = sorted([d2, 2 * d2 - 4 + 2 * nu])
    v_plus = sorted([4 * d2 - 8 + d2 * nu, 2 * h - d2 - (d2 - 2) * nu])

    alpha2 = 2 if r == 1 else 2 * (_second_exponent(t) - 1)
    if alpha2 not in v_minus:
        raise InternalMismatch(f"internal table error for {t.name}")
    # d, alpha and the pinned beta are entries of V-, and share its Fractions.
    vm = tuple(map(_half, v_minus))
    i = v_minus.index(alpha2)
    d, alpha, pinned_beta = vm[v_minus.index(d2)], vm[i], vm[1 - i]

    key = f"{t.family}{t.index}" if t.family == "H" else t.family
    arbitrary = key in _ARBITRARY_BETA
    if beta is not None:
        if not arbitrary:
            raise ValueError(f"beta is determined for type {brief(t)}")
        beta_val = Fraction(beta)
        if beta_val <= 0:
            raise ValueError("beta must be positive")
        a_fixed = _half(_remove_one(v_plus, v_minus[1 - i])[0])
        vp = tuple(sorted([a_fixed, beta_val]))
        vm = tuple(sorted([alpha, beta_val]))
    else:
        beta_val = pinned_beta
        vp = tuple(map(_half, v_plus))

    return ParameterSet(
        r=r,
        h=h,
        gamma=gamma,
        d=d,
        nu=nu,
        alpha=alpha,
        beta=beta_val,
        A=vp[0],
        B=vp[1],
        V_plus=vp,
        V_minus=vm,
    )


def profile_parameters(t: CoxeterType) -> tuple[tuple[str, ParameterSet], ...]:
    """(profile, parameter set) for each profile that yields one for t,
    deduplicated by value: each concrete profile is built once, and the two
    concrete profiles of a type give different sets (only H2 has both)."""
    out: list[tuple[str, ParameterSet]] = []
    built: set[str] = set()
    for prof in ("standard", "redefined"):
        try:
            concrete = _profile_for(t, prof)
        except ProfileMismatch:
            continue
        if concrete not in built:
            built.add(concrete)
            out.append((prof, parameters(t, prof)))
    return tuple(out)


def applicable_profiles(t: CoxeterType) -> tuple[str, ...]:
    """Profiles that yield a parameter set for t, deduplicated by value."""
    return tuple(prof for prof, _ in profile_parameters(t))


def catalog(max_rank: int, max_m: int) -> list[CoxeterType]:
    """Every type with rank <= max_rank plus I2(m) for m <= max_m.

    Deterministic order: A, C, D, the exceptional types in _EXCEPTIONAL
    order (E, F4, G2, H), then I2; each type once, at its first place.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if max_m < 3:
        raise ValueError("max_m must be >= 3")
    raw: list[CoxeterType] = []
    raw.extend(CoxeterType("A", n) for n in range(1, max_rank + 1))
    raw.extend(CoxeterType("C", n) for n in range(2, max_rank + 1))
    raw.extend(CoxeterType("D", n) for n in range(4, max_rank + 1))
    raw.extend(CoxeterType(*key) for key in _EXCEPTIONAL if key[1] <= max_rank)
    raw.extend(CoxeterType("I2", m) for m in range(3, max_m + 1))
    return list(dict.fromkeys(raw))
