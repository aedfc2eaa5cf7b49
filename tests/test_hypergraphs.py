"""Degree queries, serialization, and generators against brute-force oracles."""

import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    GoodnessSpec,
    Hypergraph,
    InvalidQueryError,
    complete,
    dirac_threshold,
    empty,
    gen_random,
)


def brute_degree(H, U, S):
    """Reference: edges containing U with remaining vertices inside S."""
    U = set(U)
    S = set(S)
    return sum(1 for e in H.edges if U <= set(e) and set(e) - U <= S)


@st.composite
def random_hosts(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 8))
    all_edges = list(itertools.combinations(range(n), k))
    edges = [e for e in all_edges if draw(st.booleans())]
    return Hypergraph(n, k, edges)


class TestConstruction:
    def test_edges_canonicalized(self):
        H = Hypergraph(4, 2, [(1, 0), (0, 1), (2, 3)])
        assert H.edges == frozenset({(0, 1), (2, 3)})
        assert H.num_edges() == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidQueryError):
            Hypergraph(4, 2, [(0, 0)])
        with pytest.raises(InvalidQueryError):
            Hypergraph(4, 2, [(0, 4)])
        with pytest.raises(InvalidQueryError):
            Hypergraph(4, 3, [(0, 1)])

    def test_complete_and_empty_sizes(self):
        assert complete(6, 3).num_edges() == 20
        assert empty(6, 3).num_edges() == 0
        assert complete(5, 2).num_edges() == 10

    def test_equality_and_hash(self):
        a = Hypergraph(4, 2, [(0, 1)])
        b = Hypergraph(4, 2, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Hypergraph(4, 2, [(0, 2)])

    def test_pickle_roundtrip(self):
        H = complete(6, 3)
        assert pickle.loads(pickle.dumps(H)) == H


class TestDegrees:
    @settings(max_examples=60, deadline=None)
    @given(random_hosts(), st.data())
    def test_degree_matches_brute_force(self, H, data):
        U = data.draw(
            st.sets(st.integers(0, H.n - 1), min_size=1, max_size=H.k - 1)
        )
        S = data.draw(st.sets(st.integers(0, H.n - 1), max_size=H.n))
        assert H.degree(U, S - U) == brute_degree(H, U, S - U)

    def test_codegree_set(self):
        H = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3)])
        assert H.codegree_set((0, 1)) == {2, 3}
        assert H.codegree_set((0, 4)) == set()

    def test_codegree_set_is_a_copy(self):
        H = complete(6, 3)
        H.codegree_set((0, 1)).clear()
        assert H.codegree_set((0, 1)) == {2, 3, 4, 5}
        assert H.degree((0, 1), range(2, 6)) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_codegree_index_matches_brute_force(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 9))
        p = data.draw(st.floats(0, 1))
        H = gen_random(n, k, p, seed=data.draw(st.integers(0, 2**32)))
        for U in itertools.combinations(range(n), k - 1):
            rest = set(range(n)) - set(U)
            assert H.codegree_set(U) == {v for v in rest if H.has_edge(U + (v,))}
            S = data.draw(st.sets(st.sampled_from(sorted(rest))))
            assert H.degree(U, S) == brute_degree(H, U, S)

    def test_min_codegree_complete(self):
        # every (k-1)-set extends to all n-(k-1) other vertices
        assert complete(7, 3).min_codegree() == 5
        assert complete(6, 2).min_codegree() == 5

    @settings(max_examples=40, deadline=None)
    @given(random_hosts())
    def test_min_d_degree_brute(self, H):
        for d in range(1, H.k):
            ref = min(
                sum(1 for e in H.edges if set(D) <= set(e))
                for D in itertools.combinations(range(H.n), d)
            )
            assert H.min_d_degree(d) == ref

    def test_min_d_degree_within_must_hold_d_host_vertices(self):
        H = complete(6, 3)
        with pytest.raises(InvalidQueryError):
            H.min_d_degree(1, within=[0, 6])
        with pytest.raises(InvalidQueryError):
            H.min_d_degree(2, within=[0])


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(random_hosts())
    def test_edge_list_roundtrip(self, H):
        assert Hypergraph.from_edge_list(H.to_edge_list()) == H

    @settings(max_examples=30, deadline=None)
    @given(random_hosts())
    def test_json_roundtrip(self, H):
        assert Hypergraph.from_json(H.to_json()) == H


class TestDiracThreshold:
    # ell | notation: 1/2 when (k-ell) divides k, else the fractional value
    TABLE = {
        (2, 1): Fraction(1, 2),
        (3, 1): Fraction(1, 4),
        (3, 2): Fraction(1, 2),
        (4, 1): Fraction(1, 6),
        (4, 2): Fraction(1, 2),
        (4, 3): Fraction(1, 2),
        (5, 1): Fraction(1, 8),
        (5, 2): Fraction(1, 6),
        (5, 3): Fraction(1, 6),
        (5, 4): Fraction(1, 2),
        (6, 1): Fraction(1, 10),
        (6, 2): Fraction(1, 8),
        (6, 3): Fraction(1, 2),
        (6, 4): Fraction(1, 2),
        (6, 5): Fraction(1, 2),
        (7, 1): Fraction(1, 12),
        (7, 2): Fraction(1, 10),
        (7, 3): Fraction(1, 8),
        (7, 4): Fraction(1, 9),
        (7, 5): Fraction(1, 8),
        (7, 6): Fraction(1, 2),
    }

    def test_table(self):
        for (k, ell), expected in self.TABLE.items():
            assert dirac_threshold(k, ell) == expected

    def test_exact_type(self):
        assert isinstance(dirac_threshold(3, 1), Fraction)


class TestGenerators:
    def test_gen_random_deterministic(self):
        a = gen_random(10, 3, 0.4, seed=11)
        b = gen_random(10, 3, 0.4, seed=11)
        assert a == b
        assert a != gen_random(10, 3, 0.4, seed=12)

    def test_gen_random_extremes(self):
        assert gen_random(8, 3, 1.0, seed=0) == complete(8, 3)
        assert gen_random(8, 3, 0.0, seed=0) == empty(8, 3)


class TestGoodnessSpec:
    def test_coerces_to_fractions(self):
        spec = GoodnessSpec("1/2", "1/10")
        assert spec.delta == Fraction(1, 2) and spec.gamma == Fraction(1, 10)

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidQueryError):
            GoodnessSpec(Fraction(1, 2), Fraction(0))
        with pytest.raises(InvalidQueryError):
            GoodnessSpec(Fraction(3, 4), Fraction(1, 2))
