"""The host-speed reference: a fixed piece of exact arithmetic.

The benchmark runs on shared hosts whose speed drifts by up to about
2x over seconds to minutes, while the code and the inputs stay the
same.  ``child.py`` therefore times this kernel between the ops of a
repetition and scales every op's latency by ``NOMINAL_MS / ref_ms``,
where ``ref_ms`` is the kernel's time around that op.  The reported
times are the times the ops would take on a host where the kernel
takes ``NOMINAL_MS``; the raw times are kept in the details.

The kernel is plain ``fractions`` code, not coxsums code, so no change
to coxsums can change it.  It does the kind of arithmetic that
dominates coxsums: it multiplies two truncated power series with
coefficients a few hundred bits long, and takes the exponential of a
series, whose coefficients grow as it goes.  Both parts are needed:
timed between the ops of ``todd-deep`` on a busy host, the product
alone left the scaled times of one seed 11% apart from fastest to
slowest repetition, product and exponential 5 to 7%, against 40% for
the raw times.  The cyclic garbage collector is off while it runs, so
the size of the heap that coxsums has built does not slow it down.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the kernel's time on the 2-vCPU host the benchmark was written
# on, at its quietest.  Any fixed value would do: only figures of two
# commits measured on one host are meant to be compared.
NOMINAL_MS = 6.0
REPEATS = 2

_ORDER = 22
_A = [Fraction(3 ** (k + 100) + k, 7 ** (k + 40) + 1) for k in range(_ORDER)]
_B = [Fraction(5 ** (k + 80) - k, 11 ** (k + 30) + 3) for k in range(_ORDER)]
_EXP_ORDER = 32
# k * a_k of a series a with a_0 = 0, for exp(a)' = a' exp(a).
_DA = [k * Fraction((-1) ** k * (k + 1), k * k + 3) for k in range(_EXP_ORDER)]


def _kernel() -> Fraction:
    product = [sum(_A[i] * _B[k - i] for i in range(k + 1)) for k in range(_ORDER)]
    e = [Fraction(1)]
    for k in range(1, _EXP_ORDER):
        e.append(sum(_DA[j] * e[k - j] for j in range(1, k + 1)) / k)
    return product[-1] + e[-1]


def ref_ms() -> float:
    """The kernel's best time of ``REPEATS``, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1000


def warm_up() -> None:
    """One untimed pass, so that the first timed one pays no first-call costs."""
    _kernel()
