"""F-factor search, exact counting, and the matching / 0-cycle relation."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    BudgetExceededError,
    DivisibilityError,
    FactorDecomposition,
    FactorSpec,
    InvalidQueryError,
    Partition,
    complete,
    count_f_factors,
    empty,
    factor_census,
    find_f_factor,
    gen_random,
    matching_count_closed_form,
    matching_zero_cycle_relation,
    single_edge_spec,
    stitch_factor,
    verify_decomposition,
)
from spancount import paths
from spancount.factors import _canonical_copies, _factors
from spancount.hypergraphs import Hypergraph, vertex_mask


def planted_blocks(n, k, t):
    """Disjoint complete blocks of size t as a k-graph on n vertices."""
    edges = []
    for start in range(0, n, t):
        edges.extend(itertools.combinations(range(start, start + t), k))
    return Hypergraph(n, k, edges)


def reference_copies(H, spec, available, anchor):
    """Copies of F through `anchor` by brute force: every ordering of every
    t-set of `available` plus the anchor, keeping the first, and so least,
    injection per (vertex set, edge image), with its vertex set's mask."""
    found = {}
    pool = [v for v in available if v != anchor]
    for rest in itertools.combinations(pool, spec.t - 1):
        vset = tuple(sorted((anchor,) + rest))
        for perm in itertools.permutations(vset):
            image = [tuple(sorted(perm[v] for v in e)) for e in spec.F.edges]
            if all(H.has_edge(e) for e in image):
                found.setdefault((vset, frozenset(image)), perm)
    return sorted((found[key], vertex_mask(key[0])) for key in found)


def reference_census(H, spec):
    """The F-factors of H by brute force over set partitions of V(H) into
    t-sets: each part carries one copy per distinct edge image of F on it,
    represented by its least injection, and a factor is the tuple of its
    copies ordered by least vertex.  Returns their number and the least
    such tuple, or None."""
    least = {}

    def copies(part):
        if part not in least:
            found = {}
            for perm in itertools.permutations(part):  # in lexicographic order
                image = frozenset(tuple(sorted(perm[v] for v in e)) for e in spec.F.edges)
                if all(H.has_edge(e) for e in image):
                    found.setdefault(image, perm)
            least[part] = sorted(found.values())
        return least[part]

    def factors(rest):
        if not rest:
            yield ()
            return
        for mates in itertools.combinations(rest[1:], spec.t - 1):
            left = tuple(v for v in rest[1:] if v not in mates)
            for injection in copies(rest[:1] + mates):
                for tail in factors(left):
                    yield (injection,) + tail

    found = list(factors(tuple(range(H.n))))
    return len(found), min(found, default=None)


def reference_stitch_factor(H, P, spec, budget):
    """Per-block F-factors found on each block relabelled to 0..|V_i|-1 by
    hand, mapped back and unioned; None if a block has none."""
    copies = []
    for block in P.blocks:
        glob = sorted(block)
        local = {v: i for i, v in enumerate(glob)}
        sub = Hypergraph(len(glob), H.k, [[local[v] for v in e] for e in H.edges
                                         if local.keys() >= set(e)])
        dec = find_f_factor(sub, spec, budget)
        if dec is None:
            return None
        copies.extend(tuple(glob[v] for v in c) for c in dec.copies)
    return FactorDecomposition(tuple(copies))


def outcome(f, *args):
    """What a call returns, or the type of the error it raises."""
    try:
        return f(*args)
    except (DivisibilityError, BudgetExceededError) as exc:
        return type(exc)


@st.composite
def patterns(draw, k):
    """A random k-graph F with t <= k+2 vertices and at least one edge."""
    t = draw(st.integers(k, k + 2))
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(t), k))),
                         min_size=1))
    return FactorSpec(Hypergraph(t, k, edges))


class TestMatchingCounts:
    @pytest.mark.parametrize("n,k,expected", [(6, 3, 10), (9, 3, 280), (4, 2, 3), (6, 2, 15)])
    def test_complete_hosts(self, n, k, expected):
        assert count_f_factors(complete(n, k), single_edge_spec(k)) == expected
        assert matching_count_closed_form(n, k) == expected

    def test_closed_form_formula(self):
        for n, k in [(6, 3), (8, 2), (8, 4), (12, 3)]:
            q = n // k
            ref = math.factorial(n) // (math.factorial(k) ** q * math.factorial(q))
            assert matching_count_closed_form(n, k) == ref

    def test_empty_host(self):
        assert count_f_factors(empty(6, 3), single_edge_spec(3)) == 0
        assert find_f_factor(empty(6, 3), single_edge_spec(3)) is None

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            find_f_factor(complete(7, 3), single_edge_spec(3))


class TestFactorSearch:
    def test_planted_recovery(self):
        H = planted_blocks(12, 3, 4)
        spec = FactorSpec(complete(4, 3))
        dec = find_f_factor(H, spec)
        assert dec is not None
        assert sorted(map(frozenset, dec.vertex_sets())) == [
            frozenset(range(0, 4)), frozenset(range(4, 8)), frozenset(range(8, 12))
        ]
        assert count_f_factors(H, spec) == 1

    def test_found_factor_verifies(self):
        H = complete(8, 2)
        dec = find_f_factor(H, single_edge_spec(2))
        assert verify_decomposition(H, single_edge_spec(2), dec)

    def test_nontrivial_pattern(self):
        # pattern: 2-graph path on 3 vertices (two edges)
        F = Hypergraph(3, 2, [(0, 1), (1, 2)])
        spec = FactorSpec(F)
        count = count_f_factors(complete(6, 2), spec)
        # decompositions of K_6 into two vertex-disjoint 3-paths:
        # C(6,3)/2 vertex splits x 3 path edge-sets per triple each
        assert count == 10 * 3 * 3

    def test_pattern_needs_edges(self):
        with pytest.raises(InvalidQueryError):
            FactorSpec(empty(3, 2))

    def test_uniformity_mismatch(self):
        with pytest.raises(InvalidQueryError):
            find_f_factor(complete(6, 3), single_edge_spec(2))

    def test_budget_exhaustion_raises(self):
        # a perfect matching of K_6^(3) spends a node at the root and one after its first edge
        assert find_f_factor(complete(6, 3), single_edge_spec(3), budget=2) is not None
        with pytest.raises(BudgetExceededError):
            find_f_factor(complete(6, 3), single_edge_spec(3), budget=1)


class TestCanonicalCopies:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_permutation_reference(self, data):
        k = data.draw(st.integers(1, 3))
        spec = data.draw(patterns(k))
        n = data.draw(st.integers(spec.t, 9))
        H = gen_random(n, k, data.draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        available = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        for anchor in range(n):
            # the anchor is the least vertex of each copy, as in the factor search
            for pool in ([v for v in available if v > anchor], range(anchor, n)):
                assert _canonical_copies(H, spec, vertex_mask(pool), anchor) == reference_copies(
                    H, spec, pool, anchor
                )

    @pytest.mark.parametrize("spec, searches", [
        (single_edge_spec(4), 1),
        (FactorSpec(Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])), 3),
    ], ids=["single-edge-k4", "two-triples"])
    def test_one_search_per_window_class(self, spec, searches):
        # the anchor is pinned only at the first vertex of each window class
        # of F: the single edge is one class, {0, 1}, {2}, {3} are three
        H = gen_random(9, spec.F.k, 0.7, seed=4)
        spy = mock.Mock(wraps=paths._ordered_search)
        with mock.patch("spancount.factors._ordered_search", spy):
            for anchor in range(9):
                spy.reset_mock()
                found = _canonical_copies(H, spec, vertex_mask(range(anchor, 9)), anchor)
                assert spy.call_count == searches
                assert found == reference_copies(H, spec, range(anchor, 9), anchor)


class TestFactorCensus:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_set_partition_reference(self, data):
        k = data.draw(st.integers(1, 3))
        spec = data.draw(patterns(k))
        n = spec.t * data.draw(st.integers(1, 9 // spec.t))
        H = gen_random(n, k, data.draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        count, dec = factor_census(H, spec)
        want, first = reference_census(H, spec)
        assert count == want
        assert (None if dec is None else dec.copies) == first


def nodes_spent(f, *args):
    """What f(*args) returns and the budget nodes it spends, unbudgeted."""
    spent = []
    spend = paths._Budget.spend

    def spy(self):
        spent.append(None)
        spend(self)

    with mock.patch.object(paths._Budget, "spend", spy):
        return f(*args, None), len(spent)


class TestBudgetedViews:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_budgets_bound_census_and_first_factor_exactly(self, data):
        # find_f_factor stops spending at its first factor, factor_census at
        # the end of the search: each succeeds on exactly the nodes it spends
        k = data.draw(st.integers(1, 3))
        spec = data.draw(patterns(k))
        n = spec.t * data.draw(st.integers(1, 9 // spec.t))
        H = gen_random(n, k, data.draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        spent = {}
        for f in (factor_census, find_f_factor):
            result, spent[f] = nodes_spent(f, H, spec)
            assert f(H, spec, spent[f]) == result
            if spent[f]:
                with pytest.raises(BudgetExceededError):
                    f(H, spec, spent[f] - 1)
        # the search spends these nodes up to its first factor, or to its end
        first = nodes_spent(lambda budget: next(_factors(H, spec, budget), None))[1]
        assert spent[find_f_factor] == first <= spent[factor_census]


class TestVerifyDecomposition:
    def test_pattern_of_another_uniformity_raises(self):
        dec = FactorDecomposition(((0, 1, 2),))
        with pytest.raises(InvalidQueryError, match="pattern uniformity 2 != host uniformity 3"):
            verify_decomposition(complete(3, 3), single_edge_spec(2), dec)

    def test_rejects_overlap(self):
        H = complete(4, 2)
        dec = FactorDecomposition(((0, 1), (1, 2)))
        assert not verify_decomposition(H, single_edge_spec(2), dec)

    def test_rejects_non_cover(self):
        H = complete(4, 2)
        dec = FactorDecomposition(((0, 1),))
        assert not verify_decomposition(H, single_edge_spec(2), dec)

    def test_rejects_missing_edge(self):
        H = Hypergraph(4, 2, [(0, 1)])
        dec = FactorDecomposition(((0, 1), (2, 3)))
        assert not verify_decomposition(H, single_edge_spec(2), dec)


class TestStitchFactor:
    def test_disjoint_complete_blocks(self):
        # blocks of size 2t stitched into per-block F-factors
        H = planted_blocks(12, 3, 6)
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        spec = single_edge_spec(3)
        dec = stitch_factor(H, P, spec)
        assert dec is not None
        assert verify_decomposition(H, spec, dec)
        # each copy stays inside one block
        for copy in dec.copies:
            assert len({v // 6 for v in copy}) == 1

    def test_block_divisibility(self):
        H = complete(10, 3)
        P = Partition((tuple(range(5)), tuple(range(5, 10))))
        with pytest.raises(DivisibilityError):
            stitch_factor(H, P, single_edge_spec(3))

    def test_failing_block_returns_none(self):
        H = planted_blocks(12, 3, 6)
        # second block has no edges in this sparser host
        H2 = Hypergraph(12, 3, [e for e in H.edges if max(e) < 6])
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        assert stitch_factor(H2, P, single_edge_spec(3)) is None

    @pytest.mark.parametrize("blocks", [
        ((0, 1, 2), (3, 4, 5)),  # misses 6..8
        ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),  # beyond the host
    ])
    def test_partition_must_cover_the_host(self, blocks):
        with pytest.raises(InvalidQueryError):
            stitch_factor(complete(9, 3), Partition(blocks), single_edge_spec(3))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_relabelled_blocks(self, data):
        k = data.draw(st.integers(2, 3))
        spec = data.draw(patterns(k).filter(lambda s: s.t <= k + 1))
        n = spec.t * data.draw(st.integers(1, 10 // spec.t))
        H = gen_random(n, k, data.draw(st.sampled_from([0.5, 0.8, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        order = data.draw(st.permutations(range(n)))
        step = data.draw(st.sampled_from([spec.t, spec.t, 1]))  # mostly blocks F can tile
        cuts = sorted(c * step for c in data.draw(st.sets(st.integers(1, n), max_size=2))
                      if c * step < n)
        P = Partition(tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])))
        budget = data.draw(st.sampled_from([None, 1, 2, 4, 12]))
        want = outcome(reference_stitch_factor, H, P, spec, budget)
        assert outcome(stitch_factor, H, P, spec, budget) == want


class TestMatchingCycleRelation:
    def test_K9(self):
        rel = matching_zero_cycle_relation(complete(9, 3))
        assert rel.matchings == 280
        # (n/k - 1)!/2 = 1 ordered arrangements per matching
        assert rel.zero_cycle_orderings == 280
        assert rel.ratio_check

    def test_K6_2graph(self):
        rel = matching_zero_cycle_relation(complete(6, 2))
        assert rel.matchings == 15
        assert rel.zero_cycle_orderings == 15  # (3-1)!/2 = 1
        assert rel.ratio_check

    def test_K8_2graph(self):
        rel = matching_zero_cycle_relation(complete(8, 2))
        assert rel.matchings == 105
        assert rel.zero_cycle_orderings == 105 * 3  # (4-1)!/2 = 3
        assert rel.ratio_check

    def test_requires_enough_vertices(self):
        with pytest.raises(InvalidQueryError):
            matching_zero_cycle_relation(complete(6, 3))
