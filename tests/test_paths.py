"""Path/cycle structures, validators, and exact solvers against oracles."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    BudgetExceededError,
    DivisibilityError,
    EllCycle,
    EllPath,
    EndPair,
    InvalidStructureError,
    PowerCycle,
    clique_graph,
    complete,
    empty,
    enumerate_hamilton_ell_cycles,
    find_clique,
    find_hamilton_ell_path,
    gen_random,
    validate_ell_cycle,
    validate_ell_path,
    validate_power_cycle,
)
from spancount.hypergraphs import Hypergraph


class TestStructures:
    def test_path_windows_stride(self):
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        assert P.windows() == [(0, 1, 2), (2, 3, 4)]
        assert P.ends().a == (0,) and P.ends().b == (4,)

    def test_tight_path_windows(self):
        P = EllPath((0, 1, 2, 3), 3, 2)
        assert P.windows() == [(0, 1, 2), (1, 2, 3)]

    def test_cycle_windows_wrap(self):
        C = EllCycle((0, 1, 2, 3), 2, 1)
        assert set(C.edge_set()) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_path_divisibility_enforced(self):
        with pytest.raises(InvalidStructureError):
            EllPath((0, 1, 2, 3), 3, 1)  # (k-ell)=2 does not divide t-ell=3

    def test_cycle_divisibility_enforced(self):
        with pytest.raises(InvalidStructureError):
            EllCycle((0, 1, 2, 3, 4), 3, 1)  # 2 does not divide 5

    def test_repeated_vertices_rejected(self):
        with pytest.raises(InvalidStructureError):
            EllPath((0, 1, 0), 3, 1)

    def test_end_pair_disjoint(self):
        with pytest.raises(InvalidStructureError):
            EndPair((0, 1), (1, 2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_consecutive_windows_share_ell(self, k, data):
        ell = data.draw(st.integers(0, k - 1))
        steps = data.draw(st.integers(1, 4))
        t = ell + (k - ell) * steps
        P = EllPath(tuple(range(t)), k, ell)
        ws = P.windows()
        for a, b in zip(ws, ws[1:]):
            assert len(set(a) & set(b)) == ell


class TestValidators:
    def test_path_in_host(self):
        H = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
        assert validate_ell_path(H, EllPath((0, 1, 2, 3, 4), 3, 1))
        assert not validate_ell_path(H, EllPath((0, 1, 3, 2, 4), 3, 1))

    def test_cycle_in_host(self):
        C = EllCycle((0, 1, 2, 3, 4, 5), 2, 1)
        H = Hypergraph(6, 2, C.edge_set())
        assert validate_ell_cycle(H, C)
        assert not validate_ell_cycle(H, EllCycle((0, 2, 4, 1, 3, 5), 2, 1))

    def test_uniformity_mismatch_raises(self):
        with pytest.raises(InvalidStructureError):
            validate_ell_path(complete(5, 2), EllPath((0, 1, 2), 3, 1))

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidStructureError):
            validate_ell_cycle(complete(4, 2), EllCycle((0, 1, 2, 9), 2, 1))

    def test_power_cycle_cliques(self):
        assert validate_power_cycle(complete(6, 2), PowerCycle(tuple(range(6)), 3, 2))
        C6 = Hypergraph(6, 2, EllCycle(tuple(range(6)), 2, 1).edge_set())
        assert not validate_power_cycle(C6, PowerCycle(tuple(range(6)), 3, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    def test_power_t_equals_k_matches_tight(self, n, rnd):
        # a t=k power window is a single edge: same predicate as ell=k-1
        k = 2
        H = gen_random(n, k, 0.6, seed=rnd.randrange(10 ** 6))
        order = list(range(n))
        rnd.shuffle(order)
        assert validate_power_cycle(H, PowerCycle(tuple(order), k, k)) == \
            validate_ell_cycle(H, EllCycle(tuple(order), k, k - 1))


class TestHamiltonPath:
    def test_planted_path_found(self):
        P = EllPath(tuple(range(7)), 3, 1)
        H = Hypergraph(7, 3, P.windows())
        found = find_hamilton_ell_path(H, 1, EndPair((0,), (6,)))
        assert found is not None and validate_ell_path(H, found)

    def test_no_path_in_empty(self):
        assert find_hamilton_ell_path(empty(7, 3), 1, EndPair((0,), (6,))) is None

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            find_hamilton_ell_path(complete(6, 3), 1, EndPair((0,), (5,)))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            find_hamilton_ell_path(complete(11, 3), 1, EndPair((0,), (10,)), budget=2)


class TestEnumeration:
    # (n-1)!/2 distinct Hamilton cycles of the complete graph
    @pytest.mark.parametrize("n,expected", [(5, 12), (6, 60), (7, 360)])
    def test_complete_graph_counts(self, n, expected):
        assert enumerate_hamilton_ell_cycles(complete(n, 2), 1) == expected
        assert expected == math.factorial(n - 1) // 2

    def test_tight_cycle_K4(self):
        # all 4 triples present; every cyclic order gives the same edge set
        assert enumerate_hamilton_ell_cycles(complete(4, 3), 2) == 1

    def test_planted_cycle_unique(self):
        C = EllCycle(tuple(range(8)), 3, 1)
        H = Hypergraph(8, 3, C.edge_set())
        cycles = enumerate_hamilton_ell_cycles(H, 1, mode="list")
        assert len(cycles) == 1
        assert cycles[0].edge_set() == C.edge_set()

    def test_list_mode_valid_and_distinct(self):
        cycles = enumerate_hamilton_ell_cycles(complete(6, 2), 1, mode="list")
        assert len({c.edge_set() for c in cycles}) == 60
        for c in cycles:
            assert validate_ell_cycle(complete(6, 2), c)

    def test_zero_cycles_are_matchings(self):
        # 0-cycle edge sets = perfect matchings: K_6 2-graph has 15
        assert enumerate_hamilton_ell_cycles(complete(6, 2), 0) == 15

    def test_empty_host(self):
        assert enumerate_hamilton_ell_cycles(empty(6, 2), 1) == 0

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            enumerate_hamilton_ell_cycles(complete(7, 3), 1)


class TestCliques:
    def test_clique_graph_complete(self):
        K = clique_graph(complete(6, 2), 4)
        assert K.num_edges() == 15  # C(6,4)

    def test_clique_graph_monotone(self):
        H = gen_random(8, 2, 0.7, seed=3)
        K3 = clique_graph(H, 3)
        for e in clique_graph(H, 4).edges:
            for sub in itertools.combinations(e, 3):
                assert K3.has_edge(sub)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2), st.randoms(use_true_random=False))
    def test_clique_graph_matches_brute_force(self, k, extra, rnd):
        H = gen_random(8, k, 0.7, seed=rnd.randrange(10 ** 6))
        within = sorted(rnd.sample(range(8), rnd.randrange(9)))
        t = k + extra
        expected = {
            s for s in itertools.combinations(within, t)
            if all(H.has_edge(sub) for sub in itertools.combinations(s, k))
        }
        assert clique_graph(H, t, within).edges == expected

    def test_find_clique(self):
        assert find_clique(complete(7, 2), 5) == (0, 1, 2, 3, 4)
        C6 = Hypergraph(6, 2, EllCycle(tuple(range(6)), 2, 1).edge_set())
        assert find_clique(C6, 3) is None
