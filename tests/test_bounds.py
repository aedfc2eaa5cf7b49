"""Directed-rounding brackets and exact counting arithmetic."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    BudgetExceededError,
    DivisibilityError,
    InvalidQueryError,
    RationalBracket,
    complete,
    enumerate_hamilton_ell_cycles,
    exp_neg_bracket,
    expected_random_count,
    log_bracket,
    multinomial,
    log_growth_bound,
)
from spancount import paths
from spancount.factors import matching_count_closed_form
from spancount.paths import _Budget, _cycle_orders, _windows


class TestRationalBracket:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidQueryError):
            RationalBracket(Fraction(2), Fraction(1))

    def test_safe_comparisons(self):
        b = RationalBracket(Fraction(1, 3), Fraction(1, 2))
        assert b.surely_le(1)
        assert not b.surely_le(Fraction(2, 5))
        assert b.surely_ge(Fraction(1, 4))
        assert not b.surely_ge(Fraction(2, 5))
        assert Fraction(2, 5) in b


class TestExpBracket:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100))
    def test_contains_true_value(self, n):
        lo, hi = exp_neg_bracket(n)
        assert lo <= hi
        # float reference sits inside a slightly widened bracket
        ref = Fraction(math.exp(-n)) if n < 700 else Fraction(0)
        assert lo <= ref * (1 + Fraction(1, 10 ** 12)) + Fraction(1, 10 ** 300)
        assert hi >= ref * (1 - Fraction(1, 10 ** 12))

    def test_exp_zero(self):
        lo, hi = exp_neg_bracket(0)
        assert lo == hi == 1


class TestLogBracket:
    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 1000), max_value=1000))
    def test_contains_float_log(self, x):
        b = log_bracket(x)
        ref = math.log(x)
        assert float(b.lo) <= ref + 1e-9
        assert float(b.hi) >= ref - 1e-9

    def test_log_one_exact(self):
        b = log_bracket(1)
        assert b.lo <= 0 <= b.hi
        assert float(b.hi - b.lo) < 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidQueryError):
            log_bracket(0)


class TestMultinomial:
    def test_known_values(self):
        assert multinomial(8, (4, 4)) == 70
        assert multinomial(6, (2, 2, 2)) == 90
        assert multinomial(5, (5,)) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_factorial_identity(self, sizes):
        n = sum(sizes)
        denom = 1
        for s in sizes:
            denom *= math.factorial(s)
        assert multinomial(n, sizes) == math.factorial(n) // denom

    def test_sum_mismatch(self):
        with pytest.raises(InvalidQueryError):
            multinomial(5, (2, 2))


class TestLogGrowthBound:
    def test_cycle_form(self):
        # n log n - C n at n=10, C=2
        b = log_growth_bound(10, 2)
        ref = 10 * math.log(10) - 20
        assert float(b.lo) <= ref <= float(b.hi) + 1e-12

    def test_factor_form(self):
        b = log_growth_bound(10, 1, t=5)
        ref = (1 - 1 / 5) * 10 * math.log(10) - 10
        assert float(b.lo) - 1e-9 <= ref <= float(b.hi) + 1e-9

    def test_monotone_in_C(self):
        weak = log_growth_bound(50, 1)
        strong = log_growth_bound(50, 3)
        assert strong.hi < weak.lo

    def test_returns_a_bracket(self):
        assert type(log_growth_bound(10, 2)) is RationalBracket

    @pytest.mark.parametrize("t", [0, -1])
    def test_rejects_t_below_one(self, t):
        # t = 0 divided by zero, and t = -1 gave the factor 1 - 1/t = 2
        with pytest.raises(InvalidQueryError):
            log_growth_bound(10, 1, t=t)


# every (n, k, ell) with 2 <= k <= 5, 0 <= ell < k, k <= n <= 8 and (k-ell) | n
SMALL_CYCLES = [
    (n, k, ell)
    for k in range(2, 6)
    for ell in range(k)
    for n in range(k, 9)
    if n % (k - ell) == 0
]


def enumeration_nodes(n, k, ell):
    """Search nodes that enumerating K_n^(k)'s Hamilton ell-cycles spends:
    the least budget under which the enumeration completes."""
    limit = 10 ** 12
    budget = _Budget(limit)
    gap = k - ell
    for _ in _cycle_orders(complete(n, k), ((1 << n) - 1,), _windows(k, gap, n, True), gap, budget):
        pass
    return limit - budget.remaining


def count_nodes(H, ell):
    """The least budget under which counting H's Hamilton ell-cycles
    completes: the most nodes that one of its searches (H's own, then
    W's, each with the whole budget) spends."""
    spent = {}
    spend = _Budget.spend

    def spy(self):
        spent[self] = spent.get(self, 0) + 1
        spend(self)

    paths._window_count.cache_clear()
    with mock.patch.object(_Budget, "spend", spy):
        enumerate_hamilton_ell_cycles(H, ell)
    paths._window_count.cache_clear()
    return max(spent.values())


class TestExpectedRandomCount:
    def test_K5_half(self):
        # complete 5-cycle count 12, five edges at density 1/2: 12/32
        assert expected_random_count(5, 2, 1, Fraction(1, 2)) == Fraction(3, 8)

    def test_density_one_is_complete_count(self):
        assert expected_random_count(6, 2, 1, Fraction(1)) == 60

    def test_density_zero(self):
        assert expected_random_count(6, 2, 1, Fraction(0)) == 0

    @pytest.mark.parametrize("n,k,ell,delta", [
        (5, 2, 1, "1/2"), (6, 2, 1, 1), (6, 2, 1, 0), (2, 3, 2, 1),
    ])
    def test_returns_an_exact_fraction(self, n, k, ell, delta):
        assert type(expected_random_count(n, k, ell, delta)) is Fraction

    def test_rejects_bad_density(self):
        with pytest.raises(InvalidQueryError):
            expected_random_count(5, 2, 1, Fraction(3, 2))

    def test_one_window_cycle_has_one_edge(self):
        # at n = k every window is the whole vertex set: one edge, not n/(k-ell)
        assert expected_random_count(3, 3, 2, Fraction(1, 2)) == Fraction(1, 2)
        assert expected_random_count(4, 4, 3, Fraction(1, 2)) == Fraction(1, 2)
        assert expected_random_count(4, 4, 2, Fraction(1, 3)) == Fraction(1, 3)

    def test_query_errors(self):
        with pytest.raises(InvalidQueryError):
            expected_random_count(6, 3, 3, Fraction(1, 2))
        with pytest.raises(InvalidQueryError):
            expected_random_count(6, 3, -1, Fraction(1, 2))
        with pytest.raises(DivisibilityError):
            expected_random_count(7, 3, 1, Fraction(1, 2))
        assert expected_random_count(2, 3, 2, Fraction(1, 2)) == 0

    def test_grid_holds_the_points_where_class_products_fail(self):
        # n! / (2q * product of window-class factorials) is wrong exactly here
        points = {(4, 3, 1), (4, 3, 2), (6, 4, 1), (5, 4, 3), (8, 5, 1), (6, 5, 2), (6, 5, 4)}
        assert points <= set(SMALL_CYCLES)

    @pytest.mark.parametrize("n,k,ell", SMALL_CYCLES)
    def test_orbit_count_is_the_enumerated_count(self, n, k, ell):
        want = enumerate_hamilton_ell_cycles(complete(n, k), ell)
        assert expected_random_count(n, k, ell, 1) == want

    @pytest.mark.parametrize("n,k,ell,want", [
        # enumerated once on K_10^(k); too slow to enumerate in the suite
        (10, 2, 1, 181440), (10, 3, 1, 362880), (10, 4, 2, 11340), (10, 5, 3, 362880),
    ])
    def test_orbit_count_at_n10(self, n, k, ell, want):
        assert expected_random_count(n, k, ell, 1) == want

    @pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (9, 3), (8, 4), (12, 4), (15, 3), (15, 5)])
    def test_zero_cycles_of_the_complete_host_are_its_matchings(self, n, k):
        # at ell = 0 a window class is a whole edge
        assert expected_random_count(n, k, 0, 1) == matching_count_closed_form(n, k)

    def test_window_host_count_at_48_4_2(self):
        # N_W = 2^25: positions 2i and 2i+1 lie in the same two windows
        n, q = 48, 24
        count = expected_random_count(n, 4, 2, 1)
        assert math.factorial(n) == q * 2 ** 25 * count

    def test_24_5_1_fits_a_million_nodes(self):
        assert expected_random_count(24, 5, 1, 1, budget=1_000_000) > 0

    @pytest.mark.parametrize("n,k,ell", SMALL_CYCLES)
    def test_fits_any_budget_the_enumeration_fits(self, n, k, ell):
        # the listing walks the whole tree; the count, which searches half of
        # it where the layout has a reflection, stops at its own least budget
        nodes = enumeration_nodes(n, k, ell)
        K = complete(n, k)
        enumerate_hamilton_ell_cycles(K, ell, mode="list", budget=nodes)
        with pytest.raises(BudgetExceededError):
            enumerate_hamilton_ell_cycles(K, ell, mode="list", budget=nodes - 1)
        least = count_nodes(K, ell)
        assert least <= nodes
        enumerate_hamilton_ell_cycles(K, ell, budget=least)
        with pytest.raises(BudgetExceededError):
            enumerate_hamilton_ell_cycles(K, ell, budget=least - 1)
        assert expected_random_count(n, k, ell, 1, budget=nodes) > 0

    @pytest.mark.parametrize("n,ell", [(9, 2), (8, 1)])
    def test_the_count_spends_at_most_55_percent_of_the_enumeration(self, n, ell):
        # the reflection halves the count's tree, bar the phases and mirror
        # pairs it cannot split
        assert 100 * count_nodes(complete(n, 3), ell) <= 55 * enumeration_nodes(n, 3, ell)
