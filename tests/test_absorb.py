"""Absorbing-path predicates and good-set classification.

`reference_classify` is `classify_set`'s count as it was before it shared
one inner search among the candidates with the same first ell vertices
and interior: a first-hit path search per candidate.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    AbsorberConfig,
    EllPath,
    InvalidQueryError,
    InvalidStructureError,
    can_absorb,
    classify_set,
    complete,
    empty,
    gen_random,
    validate_ell_path,
)
from spancount import absorb
from spancount.hypergraphs import Hypergraph, vertex_mask
from spancount.paths import _Budget, _ordered_search, _orderings, _search_path, _windows


def perm(n, t):
    return math.factorial(n) // math.factorial(n - t)


class TestCanAbsorb:
    def test_empty_sets_identity(self):
        H = complete(7, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        assert can_absorb(H, P, []) is P

    def test_witness_on_complete(self):
        H = complete(9, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        Q = can_absorb(H, P, [{5, 6}])
        assert Q is not None
        assert set(Q.order) == {0, 1, 2, 3, 4, 5, 6}
        assert (Q.order[0], Q.order[-1]) == (P.order[0], P.order[-1])
        assert validate_ell_path(H, Q)

    def test_two_sets(self):
        H = complete(11, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        Q = can_absorb(H, P, [{5, 6}, {7, 8}])
        assert Q is not None and set(Q.order) == set(range(9))

    def test_no_witness_in_sparse(self):
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        H = Hypergraph(8, 3, P.windows())
        assert can_absorb(H, P, [{5, 6}]) is None

    def test_invalid_path_rejected(self):
        H = empty(7, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        with pytest.raises(InvalidStructureError):
            can_absorb(H, P, [{5, 6}])

    def test_wrong_set_size_rejected(self):
        H = complete(9, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        with pytest.raises(InvalidQueryError):
            can_absorb(H, P, [{5}])

    def test_overlapping_sets_rejected(self):
        H = complete(9, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        with pytest.raises(InvalidQueryError):
            can_absorb(H, P, [{0, 5}])
        with pytest.raises(InvalidQueryError):
            can_absorb(H, P, [{5, 6}, {6, 7}])

    @pytest.mark.parametrize("S", [{5, 9}, {5, 7}, {-1, 5}])
    def test_vertices_outside_the_host_rejected(self, S):
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        with pytest.raises(InvalidQueryError, match=r"vertices of the host, 0\.\.6"):
            can_absorb(complete(7, 3), P, [S])

    def test_overlapping_ends_rejected(self):
        # a 5-vertex 3-path of a 4-graph: its first and last 3 vertices share vertex 2
        P = EllPath(range(5), 4, 3)
        with pytest.raises(InvalidStructureError, match="disjoint"):
            can_absorb(complete(7, 4), P, [{5}])


class TestClassifySet:
    def test_complete_host_count_closed_form(self):
        # on a complete host every ordered t-sequence avoiding S is an
        # absorbing path: count = perm(n - (k - ell), t)
        H = complete(8, 3)
        cfg = AbsorberConfig(Fraction(1, 1000), 3)
        count, good = classify_set(H, {0, 1}, cfg, 1)
        assert count == perm(6, 3)
        assert good

    def test_complete_host_longer_paths(self):
        H = complete(9, 3)
        cfg = AbsorberConfig(Fraction(1, 1000), 5)
        count, good = classify_set(H, {0, 1}, cfg, 1)
        assert count == perm(7, 5)
        assert good

    def test_empty_host_zero(self):
        H = empty(8, 3)
        cfg = AbsorberConfig(Fraction(1, 1000), 3)
        count, good = classify_set(H, {0, 1}, cfg, 1)
        assert count == 0 and not good

    def test_threshold_is_exact(self):
        # beta tuned so the decision sits exactly at the count
        H = complete(8, 3)
        count, _ = classify_set(H, {0, 1}, AbsorberConfig(Fraction(1, 10 ** 9), 3), 1)
        at = Fraction(count, 8 ** 3)
        assert classify_set(H, {0, 1}, AbsorberConfig(at, 3), 1)[1]
        assert not classify_set(H, {0, 1}, AbsorberConfig(at + Fraction(1, 8 ** 6), 3), 1)[1]

    def test_divisibility_of_t(self):
        H = complete(8, 3)
        with pytest.raises(InvalidQueryError):
            classify_set(H, {0, 1}, AbsorberConfig(Fraction(1, 1000), 4), 1)

    @pytest.mark.parametrize("H", [gen_random(8, 4, 0.9, 1), empty(8, 4)],
                             ids=["dense", "edgeless"])
    def test_ends_that_would_overlap_are_rejected_on_every_host(self, H):
        # k = 4, ell = 3: a 5-vertex path's first and last 3 vertices overlap
        with pytest.raises(InvalidQueryError, match=r"t_abs = 5 < 2\*ell = 6"):
            classify_set(H, {0}, AbsorberConfig(Fraction(1, 1000), 5), 3)

    @pytest.mark.parametrize("S", [(0, 99), (0, 14), (-1, 3)])
    def test_vertices_outside_the_host_rejected(self, S):
        cfg = AbsorberConfig(Fraction(1, 1000), 5)
        with pytest.raises(InvalidQueryError, match=r"vertices of the host, 0\.\.13"):
            classify_set(complete(14, 3), S, cfg, 1)

    @pytest.mark.parametrize("t", [12, 100])
    def test_no_search_when_no_path_can_avoid_S(self, t):
        # t_abs vertices outside S need t_abs <= n - (k-ell) = 11: the answer
        # comes before a search could spend the budget
        cfg = AbsorberConfig(Fraction(1, 1000), t)
        assert classify_set(gen_random(12, 3, 0.9, 1), (0,), cfg, 2, budget=1000) == (0, False)

    def test_a_path_on_every_vertex_outside_S_still_counts(self):
        H = complete(6, 3)
        assert classify_set(H, (0,), AbsorberConfig(Fraction(1, 1000), 5), 2) == (perm(5, 5), True)
        assert classify_set(H, (0,), AbsorberConfig(Fraction(1, 1000), 6), 2) == (0, False)

    def test_wrong_set_size(self):
        H = complete(8, 3)
        with pytest.raises(InvalidQueryError):
            classify_set(H, {0, 1, 2}, AbsorberConfig(Fraction(1, 1000), 3), 1)

    def test_monotone_under_edge_addition(self):
        import itertools
        import random

        rng = random.Random(0)
        base = Hypergraph(7, 3, [])
        missing = list(itertools.combinations(range(7), 3))
        rng.shuffle(missing)
        cfg = AbsorberConfig(Fraction(1, 1000), 3)
        prev = 0
        edges = []
        for e in missing[:12]:
            edges.append(e)
            count, _ = classify_set(Hypergraph(7, 3, edges), {0, 1}, cfg, 1)
            assert count >= prev
            prev = count


def is_ell_path(H, seq, ell):
    k = H.k
    return all(H.has_edge(seq[i:i + k]) for i in range(0, len(seq) - k + 1, k - ell))


def brute_force_count(H, S, ell, t):
    """Ordered t-tuples of V minus S that are ell-paths of H and have some
    order of the interior of V(P) + S between P's end tuples that is an
    ell-path too, by trying every permutation."""
    rest = [v for v in range(H.n) if v not in S]
    count = 0
    for P in itertools.permutations(rest, t):
        if not is_ell_path(H, P, ell):
            continue
        a, b = P[:ell], P[t - ell:]
        interior = set(P[ell:t - ell]) | set(S)
        if any(is_ell_path(H, a + q + b, ell) for q in itertools.permutations(interior)):
            count += 1
    return count


@pytest.mark.parametrize("k, ell, t", [
    (2, 1, 3), (3, 1, 3), (3, 1, 5), (3, 2, 4), (4, 1, 4), (4, 2, 4), (4, 3, 6),
])
def test_classify_set_matches_brute_force(k, ell, t):
    cfg = AbsorberConfig(Fraction(1, 1000), t)
    for seed in range(6):
        H = gen_random(6 + seed % 3, k, 0.7, seed)
        for S in itertools.islice(itertools.combinations(range(H.n), k - ell), 3):
            count, _ = classify_set(H, S, cfg, ell)
            assert count == brute_force_count(H, S, ell, t), (seed, S)


def reference_classify(H, S, ell, t):
    """The count of ordered t-vertex absorbing paths for S, one first-hit
    search from each candidate's first to its last ell vertices through S
    and its interior."""
    k = H.k
    s_mask = vertex_mask(S)
    allowed = (((1 << H.n) - 1) & ~s_mask,) * t
    count = 0
    layout = _windows(k, k - ell, t, False)
    for order in _orderings(_ordered_search(H, layout, allowed, _Budget(None), [-1] * t)):
        interior = s_mask | vertex_mask(order[ell:t - ell])
        if _search_path(H, ell, order[:ell], order[t - ell:], interior, None) is not None:
            count += 1
    return count


# every (k, ell) with 1 <= ell < k <= 4, at t = 2*ell (or k, if larger) and at
# the next t past it; at (4, 2) both end positions lie in the last window only,
# so they form one class of the inner search
CASES = [
    (2, 1, 2), (2, 1, 3), (3, 1, 3), (3, 1, 5), (3, 2, 4), (3, 2, 5),
    (4, 1, 4), (4, 1, 7), (4, 2, 4), (4, 2, 6), (4, 3, 6), (4, 3, 7),
]


@pytest.mark.parametrize("k, ell, t", CASES)
@settings(max_examples=8, deadline=None)
@given(extra=st.integers(0, 1), p=st.sampled_from([0.5, 0.8, 1.0]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_classify_set_matches_per_candidate_reference(k, ell, t, extra, p, seed, data):
    # a host just big enough for a candidate path beside S, or a little bigger
    n = min(t + k - ell + extra, 10)
    H = gen_random(n, k, p, seed)
    S = data.draw(st.sets(st.integers(0, n - 1), min_size=k - ell, max_size=k - ell))
    cfg = AbsorberConfig(Fraction(1, 1000), t)
    assert classify_set(H, S, cfg, ell)[0] == reference_classify(H, S, ell, t)


def test_one_inner_search_per_prefix_and_interior(monkeypatch):
    # the benchmark's oracles absorber run: n = 14, k = 3, p = 0.8, ell = 2, t = 4
    H = gen_random(14, 3, 0.8, 5)
    S, ell, t = (0,), 2, 4
    calls = []

    def spy(H, layout, allowed, budget, links=None):
        items = list(_ordered_search(H, layout, allowed, budget, links))
        calls.append((tuple(allowed), items))
        return iter(items)

    monkeypatch.setattr(absorb, "_ordered_search", spy)
    count, _ = classify_set(H, S, AbsorberConfig(Fraction(1, 1000), t), ell)
    assert count == reference_classify(H, S, ell, t)
    (outer, found), inner = calls[0], [allowed for allowed, _ in calls[1:]]
    assert len(outer) == t
    # an inner search pins its first ell positions to the prefix and draws the
    # next ones from the interior mask: no (prefix, interior) pair twice
    keys = [(allowed[:ell], allowed[ell]) for allowed in inner]
    assert len(set(keys)) == len(keys)
    orders = list(_orderings(found))
    pairs = {(o[:ell], frozenset(o[ell:t - ell])) for o in orders}
    assert 0 < len(inner) <= len(pairs) < len(orders)
    # the outer search yields the candidates that share their first t-1
    # vertices as one mask: each prefix once
    prefixes = [prefix for prefix, _ in found]
    assert all(len(prefix) == t - 1 for prefix in prefixes)
    assert len(set(prefixes)) == len(prefixes) < len(orders)


@pytest.mark.parametrize("k, ell, t, n, p, seed, S", [
    (3, 2, 5, 7, 0.9, 508480, (6,)),
    (3, 1, 5, 9, 0.5, 709727, (3, 7)),
    # both end positions form one class
    (4, 2, 6, 10, 0.5, 318104, (4, 7)),
])
def test_the_inner_search_stops_on_distinct_ends_only(k, ell, t, n, p, seed, S):
    # an inner search finds the same end again through another interior
    # ordering; counting such repeats towards the stop would end it before
    # every end is found, and these counts would come out short
    H = gen_random(n, k, p, seed)
    assert classify_set(H, S, AbsorberConfig(Fraction(1, 1000), t), ell)[0] == reference_classify(
        H, S, ell, t)
