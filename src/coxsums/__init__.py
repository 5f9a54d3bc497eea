"""Exact power sums of Coxeter exponents and root heights.

Everything is computed over exact rationals: truncated formal power
series, Todd polynomial values, Bernoulli/Faulhaber sums, and the
classification tables of the irreducible finite Coxeter types, plus a
verifier that checks every identity the library relies on.
"""

from .catalog import (
    PROFILES,
    CoxeterType,
    DualPartition,
    ExponentList,
    ParameterSet,
    applicable_profiles,
    catalog,
    dual_partition,
    exponents,
    gamma_invariant,
    parameters,
    parse_type,
)
from .errors import (
    ConstantTermNotOne,
    CoxError,
    InternalMismatch,
    NonzeroConstantTerm,
    NotAPolynomial,
    ParseError,
    ProfileMismatch,
    RangeError,
    WrongFamily,
    ZeroConstantTerm,
)
from .intpoly import IntPolynomial, poly_from_factors
from .powersums import (
    PowerSumResult,
    heightsum_closed,
    heightsum_direct,
    powersum_closed,
    powersum_direct,
    powersum_todd,
    powersum_todd_upto,
)
from .series import TruncatedSeries
from .todd import (
    bernoulli_polynomial,
    faulhaber,
    gamma_series,
    p_factor,
    todd_values,
)
from .verify import CheckReport, build_tasks, run_all, t_transform

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ConstantTermNotOne",
    "CoxError",
    "CoxeterType",
    "DualPartition",
    "ExponentList",
    "IntPolynomial",
    "InternalMismatch",
    "NonzeroConstantTerm",
    "NotAPolynomial",
    "PROFILES",
    "ParameterSet",
    "ParseError",
    "PowerSumResult",
    "ProfileMismatch",
    "RangeError",
    "TruncatedSeries",
    "WrongFamily",
    "ZeroConstantTerm",
    "applicable_profiles",
    "bernoulli_polynomial",
    "build_tasks",
    "catalog",
    "dual_partition",
    "exponents",
    "faulhaber",
    "gamma_invariant",
    "gamma_series",
    "heightsum_closed",
    "heightsum_direct",
    "p_factor",
    "parameters",
    "parse_type",
    "poly_from_factors",
    "powersum_closed",
    "powersum_direct",
    "powersum_todd",
    "powersum_todd_upto",
    "run_all",
    "t_transform",
    "todd_values",
]
