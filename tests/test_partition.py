"""Size vectors, random bisection, degree events, and goodness checks."""

import math
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from spancount import (
    ConstructionError,
    GoodnessReport,
    GoodnessSpec,
    HypergeometricParams,
    InvalidQueryError,
    Partition,
    SizeVector,
    block_size_tree,
    check_good,
    complete,
    degree_meets_threshold,
    derive_seed,
    empty,
    estimate_good_probability,
    gen_random,
    hypergeometric_tail_bound,
    random_bisection,
    sample_hypergeometric,
    size_vector,
    wilson_interval,
)
from spancount.partition import draw_bisection

import random


class TestSizeVector:
    def test_even_split(self):
        sv = size_vector(96, 6, 2, 3)
        assert sv.sizes == (12,) * 8 and sv.r == 8

    def test_larger_m_gives_fewer_blocks(self):
        sv = size_vector(96, 12, 2, 3)
        assert sv.sizes == (24,) * 4

    def test_uneven_split(self):
        sv = size_vector(100, 6, 1, 3)
        assert sorted(sv.sizes, reverse=True) == [13, 13, 13, 13, 12, 12, 12, 12]
        assert sv.n == 100

    def test_single_block(self):
        sv = size_vector(10, 4, 1, 2)
        assert sv.sizes == (10,)

    def test_divisor_respected(self):
        sv = size_vector(36, 6, 2, 3)
        assert all(s % 2 == 0 for s in sv.sizes)

    def test_divisor_must_divide_n(self):
        with pytest.raises(ConstructionError):
            size_vector(35, 6, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 12))
    def test_construction_invariants(self, m, q):
        # n a multiple of the divisor, large enough for one block
        divisor = 1
        n = max(2 * m, m * q)
        sv = size_vector(n, m, divisor, 2)
        r = sv.r
        assert r & (r - 1) == 0
        assert 2 * m <= n / r < 4 * m
        assert all(m <= s <= 5 * m for s in sv.sizes)
        assert max(sv.sizes) - min(sv.sizes) <= 4
        assert sv.n == n

    def test_check_reports_violation(self):
        with pytest.raises(ConstructionError):
            SizeVector((4, 4, 4), 2, 1).check(2)  # r=3 not a power of two
        with pytest.raises(ConstructionError):
            SizeVector((1, 7), 2, 1).check(2)  # 1 below m
        with pytest.raises(ConstructionError):
            SizeVector((3, 5), 2, 2).check(2)  # sizes not divisor multiples


class TestBlockSizeTree:
    def test_partial_sums(self):
        sv = size_vector(96, 12, 2, 3)
        tree = block_size_tree(sv)
        assert tree[0] == [96]
        assert tree[1] == [48, 48]
        assert tree[-1] == list(sv.sizes)
        for level in tree:
            assert sum(level) == 96

    def test_parent_child_consistency(self):
        sv = size_vector(100, 12, 1, 3)
        tree = block_size_tree(sv)
        for i in range(len(tree) - 1):
            for j, parent in enumerate(tree[i]):
                assert parent == tree[i + 1][2 * j] + tree[i + 1][2 * j + 1]


class TestThresholds:
    def brute_meets(self, d, delta, gamma, m, e):
        # reference with high-precision decimal fractional powers
        getcontext().prec = 60
        thr = (Decimal(delta.numerator) / delta.denominator
               + Decimal(gamma.numerator) / gamma.denominator) * m \
            - 2 * Decimal(m) ** (Decimal(e - 1) / e)
        return Decimal(d) >= thr

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 200), st.sampled_from([3, 4]))
    def test_exact_matches_decimal_reference(self, d, m, e):
        spec = GoodnessSpec(Fraction(1, 2), Fraction(3, 10))
        got = degree_meets_threshold(d, spec, m, e)
        ref = self.brute_meets(d, spec.delta, spec.gamma, m, e)
        # the decimal reference is only approximate at exact equality;
        # tolerate disagreement within one unit of degree
        if got != ref:
            assert self.brute_meets(d + 1, spec.delta, spec.gamma, m, e) or \
                not self.brute_meets(d - 1, spec.delta, spec.gamma, m, e)


def _implication_holds(trace):
    """F_{i-1,j} implies both child events E_{i,2j} and E_{i,2j+1}."""
    for i in range(1, trace.s + 1):
        for j, frec in enumerate(trace.refinements[i - 1]):
            if frec.holds and not frec.clamped:
                if not (trace.events[i][2 * j].holds and trace.events[i][2 * j + 1].holds):
                    return False
    return True


class TestBisection:
    def test_deterministic(self):
        H = gen_random(16, 2, 0.6, seed=5)
        sv = size_vector(16, 4, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        p1, t1 = random_bisection(H, sv, spec, seed=42)
        p2, t2 = random_bisection(H, sv, spec, seed=42)
        assert p1.blocks == p2.blocks
        assert t1 == t2
        p3, _ = random_bisection(H, sv, spec, seed=43)
        assert p3.blocks != p1.blocks

    def test_leaf_sizes_match_size_vector(self):
        H = complete(24, 3)
        sv = size_vector(24, 6, 2, 3)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        part, trace = random_bisection(H, sv, spec, seed=0)
        assert part.sizes() == sv.sizes
        assert [len(b) for b in trace.level_blocks[-1]] == list(sv.sizes)

    def test_blocks_partition_vertices(self):
        H = complete(20, 2)
        sv = size_vector(20, 4, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        part, _ = random_bisection(H, sv, spec, seed=9)
        assert part.vertex_set() == frozenset(range(20))

    def test_refinement_implication_on_sample(self):
        spec = GoodnessSpec(Fraction(1, 2), Fraction(3, 10))
        for seed in range(20):
            for H in (complete(16, 2), gen_random(16, 2, 0.7, seed=1)):
                sv = size_vector(H.n, 4, 1, H.k)
                _, trace = random_bisection(H, sv, spec, seed=seed)
                assert _implication_holds(trace)

    def test_events_all_hold_on_complete(self):
        # complete host: degree of U into a block is |block - U|, far above
        # any positive threshold at these sizes
        H = complete(16, 2)
        sv = size_vector(16, 4, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(3, 10))
        _, trace = random_bisection(H, sv, spec, seed=3)
        for level in trace.events:
            assert all(rec.holds for rec in level)

    def test_draws_ordered_partitions_uniformly(self):
        # each ordered partition with sizes (2, 2, 2, 2) is the result of
        # exactly one sequence of uniform splits, so all M = 8!/2!^4 = 2,520
        # are equally likely; 20 draws each on average, from fixed seeds
        sv = SizeVector((2, 2, 2, 2), 2, 1)
        M = math.factorial(8) // 2 ** 4
        counts = Counter(tuple(draw_bisection(empty(8, 2), sv, seed)[-1]) for seed in range(20 * M))
        assert len(counts) == M
        chi2 = sum((c - 20) ** 2 for c in counts.values()) / 20
        # the 99.9% quantile of chi-square with M - 1 degrees of freedom, by
        # the Wilson-Hilferty approximation; 3.0902 is the normal one
        df = M - 1
        assert chi2 < df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3

    def test_events_fail_on_empty(self):
        # block size 48 with delta+gamma = 4/5: threshold is positive
        # (0.8 * 48 > 2 * 48^(3/4)), so the empty host must fail level 0
        H = empty(48, 2)
        sv = size_vector(48, 24, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(3, 10))
        _, trace = random_bisection(H, sv, spec, seed=3)
        assert not trace.events[0][0].clamped
        assert not trace.level_event(0)


class TestPartition:
    def test_disjointness_enforced(self):
        with pytest.raises(InvalidQueryError):
            Partition(((0, 1), (1, 2)))

    def test_block_of(self):
        P = Partition(((0, 2), (1, 3)))
        assert P.block_of() == {0: 0, 2: 0, 1: 1, 3: 1}


class TestGoodness:
    def test_complete_host_ratio(self):
        H = complete(24, 3)
        P = Partition(tuple(tuple(range(i, i + 6)) for i in range(0, 24, 6)))
        report = check_good(H, P, Fraction(1, 2))
        assert report.good
        # worst U has two vertices inside the block: ratio (6-2)/6
        assert report.min_ratio == Fraction(2, 3)

    def test_empty_host_bad(self):
        H = empty(12, 2)
        P = Partition(((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)))
        report = check_good(H, P, Fraction(1, 2))
        assert not report.good and report.min_ratio == 0

    @pytest.mark.parametrize("blocks", [((0, 1, 2, 3, 4, 5), ()), ((), (0, 1, 2), (3, 4, 5))])
    def test_an_empty_block_is_an_invalid_query(self, blocks):
        # its ratio d(U, V_i) / |V_i| would divide by zero
        with pytest.raises(InvalidQueryError, match=f"block {blocks.index(())} is empty"):
            check_good(complete(6, 3), Partition(blocks), Fraction(1, 2))

    @pytest.mark.parametrize("delta", [Fraction(-1), Fraction(3, 2)])
    def test_delta_outside_zero_one_is_an_invalid_query(self, delta):
        with pytest.raises(InvalidQueryError, match=r"must lie in \[0, 1\]"):
            check_good(empty(6, 3), Partition(((0, 1, 2), (3, 4, 5))), delta)

    def test_size_mismatch_fails_p1(self):
        H = complete(12, 2)
        P = Partition(((0, 1, 2, 3), tuple(range(4, 12))))
        assert not check_good(H, P, Fraction(1, 2), sizes=(6, 6)).good


def _reference_degrees(H, blocks, i, block):
    """(U, d(U, block)) for U in blocks i-1, i and i+1, from H.degree."""
    r = len(blocks)
    hood = set(blocks[(i - 1) % r]) | set(blocks[i]) | set(blocks[(i + 1) % r])
    for U in combinations(sorted(hood), H.k - 1):
        yield U, H.degree(set(U), set(block) - set(U))


def _reference_event(H, blocks, i, block, spec, e):
    """(holds, clamped): every U meets the threshold; it is met at d = 0."""
    m = len(block)
    holds = all(
        degree_meets_threshold(d, spec, m, e) for _, d in _reference_degrees(H, blocks, i, block)
    )
    return holds, degree_meets_threshold(0, spec, m, e)


def _reference_goodness(H, P, delta, max_violations):
    violations, ratios, truncated = [], [], False
    for i, block in enumerate(P.blocks):
        for U, d in _reference_degrees(H, P.blocks, i, block):
            ratios.append(Fraction(d, len(block)))
            if ratios[-1] < delta:
                if len(violations) < max_violations:
                    violations.append((i, U))
                else:
                    truncated = True
    return GoodnessReport(not violations and not truncated, violations, min(ratios), truncated)


@st.composite
def _bisection_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2 * k, {2: 48, 3: 24, 4: 14}[k]))
    m = draw(st.integers(1, n // 2))
    H = gen_random(n, k, draw(st.sampled_from([0.3, 0.7, 0.9, 1.0])), draw(st.integers(0, 99)))
    delta = draw(st.sampled_from([Fraction(2, 5), Fraction(13, 20), Fraction(9, 10)]))
    return H, size_vector(n, m, 1, k), GoodnessSpec(delta, Fraction(1, 10))


class TestDegreeKernel:
    """Events and goodness reports against references built from H.degree."""

    @settings(max_examples=120, deadline=None)
    @given(_bisection_cases(), st.integers(0, 99), st.sampled_from([0, 1, 3, 50]))
    @example((gen_random(48, 2, 0.5, 0), size_vector(48, 6, 1, 2),
              GoodnessSpec(Fraction(9, 10), Fraction(1, 10))), 0, 1)
    @example((gen_random(48, 2, 0.97, 2), size_vector(48, 12, 1, 2),
              GoodnessSpec(Fraction(9, 10), Fraction(1, 10))), 3, 50)
    # a level-1 refinement whose verdict needs U outside the children's
    # own neighbourhood but inside the parent's
    @example((gen_random(48, 2, 0.4, 0), size_vector(48, 6, 1, 2),
              GoodnessSpec(Fraction(9, 10), Fraction(1, 10))), 2, 3)
    def test_events_and_goodness_match_reference(self, case, seed, cap):
        H, sv, spec = case
        part, trace = random_bisection(H, sv, spec, seed)
        levels = trace.level_blocks
        assert part == Partition(levels[-1])
        for i, blocks in enumerate(levels):
            want = [(j, *_reference_event(H, blocks, j, b, spec, 4)) for j, b in enumerate(blocks)]
            assert [(rec.index, rec.holds, rec.clamped) for rec in trace.events[i]] == want
            assert [(rec.level, rec.size) for rec in trace.events[i]] == [
                (i, len(b)) for b in blocks
            ]
        for i in range(1, trace.s + 1):
            parents, children = levels[i - 1], levels[i]
            for j, rec in enumerate(trace.refinements[i - 1]):
                pair = [_reference_event(H, parents, j, children[2 * j + c], spec, 3)
                        for c in (0, 1)]
                assert (rec.level, rec.index, rec.size) == (i - 1, j, len(parents[j]))
                assert rec.holds == (pair[0][0] and pair[1][0])
                assert rec.clamped == (pair[0][1] or pair[1][1])
        target = spec.delta + spec.gamma / 2
        assert check_good(H, part, target, max_violations=cap) == _reference_goodness(
            H, part, target, cap
        )

    def test_first_example_has_substantive_events(self):
        # n = 48, delta + gamma = 1: the level-0 event is substantive and
        # holds, and the level-0 refinement is substantive and fails
        H = gen_random(48, 2, 0.5, 0)
        spec = GoodnessSpec(Fraction(9, 10), Fraction(1, 10))
        _, trace = random_bisection(H, size_vector(48, 6, 1, 2), spec, 0)
        assert (trace.events[0][0].holds, trace.events[0][0].clamped) == (True, False)
        assert (trace.refinements[0][0].holds, trace.refinements[0][0].clamped) == (False, False)


class TestHypergeometric:
    def test_bound_value(self):
        params = HypergeometricParams(60, 30, 30, 5.0)
        assert hypergeometric_tail_bound(params) == pytest.approx(2 * math.exp(-5 / 3))

    def test_sampling_mean(self):
        params = HypergeometricParams(60, 30, 30, 5.0)
        rng = random.Random(0)
        draws = [sample_hypergeometric(params, rng) for _ in range(2000)]
        assert sum(draws) / len(draws) == pytest.approx(15.0, abs=0.2)

    def test_invalid_params(self):
        with pytest.raises(InvalidQueryError):
            HypergeometricParams(10, 20, 5, 1.0)


class TestEstimation:
    def test_wilson_interval_known(self):
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4901, abs=1e-3)
        assert high == pytest.approx(0.9433, abs=1e-3)

    @pytest.mark.parametrize("trials, high", [
        (1, 0.7934506856227626), (3, 0.5614970317550455), (6, 0.39033428790216534),
        (100, 0.03699349820698568),
    ])
    def test_wilson_no_successes_has_lower_end_zero(self, trials, high):
        # rounding once left a positive lower end; the upper end keeps its bytes
        assert wilson_interval(0, trials) == (0.0, high)

    @pytest.mark.parametrize("trials", [1, 6, 10, 16, 1000])
    def test_wilson_all_successes_has_upper_end_one(self, trials):
        # rounding once left the upper end off 1, above it at 16 and 1000
        assert wilson_interval(trials, trials)[1] == 1.0

    def test_wilson_contains_phat(self):
        for s, t in [(0, 10), (5, 10), (10, 10)]:
            low, high = wilson_interval(s, t)
            assert low - 1e-12 <= s / t <= high + 1e-12

    def test_estimate_deterministic_and_bounded(self):
        H = complete(16, 2)
        sv = size_vector(16, 4, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        a = estimate_good_probability(H, sv, spec, trials=20, seed=7)
        b = estimate_good_probability(H, sv, spec, trials=20, seed=7)
        assert a == b
        assert a.wilson_low <= a.fraction <= a.wilson_high

    def test_complete_host_always_good_at_moderate_delta(self):
        # blocks of size 4, worst ratio (4-1)/4; target 0.55 passes
        H = complete(16, 2)
        sv = size_vector(16, 4, 1, 2)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        est = estimate_good_probability(H, sv, spec, trials=10, seed=1)
        assert est.fraction == 1.0


class TestSeedSchedule:
    def test_stable_values(self):
        assert derive_seed(0, "trial", 0) == derive_seed(0, "trial", 0)
        assert derive_seed(0, "trial", 0) != derive_seed(0, "trial", 1)
        assert derive_seed(0, "trial", 0) != derive_seed(0, "stitch", 0)
        assert derive_seed(1, "trial", 0) != derive_seed(0, "trial", 0)

    def test_frozen_value(self):
        # pinned: a change here breaks reproducibility of all reports
        assert derive_seed(0, "trial", 0) == 10244856438248327828
