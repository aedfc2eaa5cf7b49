"""Exact big-number arithmetic for the counting expressions.

Transcendental quantities (e^{-n}, log n) are carried as rigorous
rational brackets at one fixed precision, 24 significant decimal digits:
decimal exp/ln are correctly rounded to it (always half-even, whatever
the context rounding says), so widening that value by one unit in the
last place on each side gives guaranteed lower and upper rational
bounds.  Every comparison against an exact integer count uses the
conservative side of the bracket, so no check can pass or fail on
rounding direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import InvalidQueryError
from .paths import EllCycle, _window_count


@dataclass(frozen=True)
class RationalBracket:
    """Exact rational lower/upper bounds on a real quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidQueryError(f"bracket lower bound {self.lo} exceeds upper {self.hi}")

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def surely_le(self, value) -> bool:
        """True only if the bracketed quantity is certainly <= value."""
        return self.hi <= Fraction(value)

    def surely_ge(self, value) -> bool:
        return self.lo >= Fraction(value)

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


# significant decimal digits of every exp/ln evaluation (64 bits and a margin)
_DIGITS = 24


def _ulp_bracket(d: Decimal) -> Tuple[Fraction, Fraction]:
    """Widen a correctly rounded decimal by one unit in the last place.

    Decimal exp/ln always round half-even, so the true value lies
    strictly within one ulp of d in either direction.
    """
    ulp = Fraction(Decimal(1).scaleb(d.adjusted() - _DIGITS + 1))
    return Fraction(d) - ulp, Fraction(d) + ulp


def exp_neg_bracket(n: int) -> Tuple[Fraction, Fraction]:
    """Rigorous rational bracket of e^{-n} for integer n >= 0."""
    if n < 0:
        raise InvalidQueryError("n must be non-negative")
    if n == 0:
        return Fraction(1), Fraction(1)
    return _ulp_bracket(Context(prec=_DIGITS).exp(Decimal(-n)))


def _ln_int_bracket(p: int) -> Tuple[Fraction, Fraction]:
    if p == 1:
        return Fraction(0), Fraction(0)
    return _ulp_bracket(Context(prec=_DIGITS).ln(Decimal(p)))


def log_bracket(x) -> RationalBracket:
    """Rigorous rational bracket of ln(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise InvalidQueryError(f"log bracket needs x > 0, got {x}")
    # ln(p/q) = ln p - ln q, combining the conservative sides
    lo_p, hi_p = _ln_int_bracket(x.numerator)
    lo_q, hi_q = _ln_int_bracket(x.denominator)
    return RationalBracket(lo_p - hi_q, hi_p - lo_q)


def multinomial(n: int, sizes: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (n_1! ... n_r!)."""
    sizes = tuple(sizes)
    if any(s < 0 for s in sizes):
        raise InvalidQueryError("sizes must be non-negative")
    if sum(sizes) != n:
        raise InvalidQueryError(f"sizes sum to {sum(sizes)}, expected {n}")
    out = 1
    remaining = n
    for s in sizes:
        out *= math.comb(remaining, s)
        remaining -= s
    return out


def log_growth_bound(n: int, C, t: Optional[int] = None) -> RationalBracket:
    """Log bracket of exp((1 - 1/t) n log n - C n); t omitted means the
    plain exp(n log n - C n) cycle-count bound."""
    if n < 1:
        raise InvalidQueryError("n must be >= 1")
    if t is not None and t < 1:
        raise InvalidQueryError(f"t must be >= 1, got {t}")
    C = Fraction(C)
    if C < 0:
        raise InvalidQueryError("C must be >= 0")
    factor = Fraction(1) if t is None else 1 - Fraction(1, t)
    logn = log_bracket(n)
    scale = factor * n
    lo = logn.lo * scale - C * n
    hi = logn.hi * scale - C * n
    return RationalBracket(lo, hi)


def expected_random_count(
    n: int, k: int, ell: int, delta, budget: Optional[int] = None
) -> Fraction:
    """Psi_{k,ell}(n, delta), exactly: the expected Hamilton ell-cycle
    count in the binomial random k-graph, as (complete-host count) *
    delta^|E(W)|.

    The Hamilton ell-cycles of K_n^(k) are the images of one of them, W
    (its layout, `EllCycle.layout`, on 0..n-1 as a host), under the n!
    permutations, so there are n!/|Aut(W)| of them, and |Aut(W)| =
    (n/phases) * N_W with N_W the orbit count on W (`paths._orbit_count`,
    which states the argument for any cyclic layout, read through the
    cache that `paths.count_copies` divides by); at (48, 4, 2) N_W is
    2^25, from 2 orderings found.  That search is a subtree of the one
    that would enumerate K_n's cycles, so `budget` bounds it as it would
    the enumeration.  |E(W)| is W's number of distinct windows.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise InvalidQueryError(f"delta = {delta} must lie in [0, 1]")
    if n < 0:
        raise InvalidQueryError(f"vertex count n={n} must be >= 0")
    windows, phases = EllCycle.layout(k, ell, n)
    if n < k:
        return Fraction(0)
    count = math.factorial(n) // (n // phases * _window_count(windows, phases, budget))
    return count * delta ** len(set(map(frozenset, windows)))
