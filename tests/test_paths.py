"""Path/cycle structures, validators, and exact solvers against oracles."""

import itertools
import math
import operator
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from spancount import (
    BudgetExceededError,
    DivisibilityError,
    EllCycle,
    EllPath,
    InvalidStructureError,
    PowerCycle,
    complete,
    empty,
    enumerate_hamilton_ell_cycles,
    gen_random,
    validate_ell_cycle,
    validate_ell_path,
    validate_power_cycle,
)
from spancount.absorb import can_absorb
from spancount.hypergraphs import Hypergraph, vertex_mask
from spancount.paths import _Budget, _orbit_count, _search_path, _window_count, count_copies


class TestStructures:
    def test_path_windows_stride(self):
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        assert P.windows() == [(0, 1, 2), (2, 3, 4)]

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
    # the path search the absorbers run, pinned at both ends and spanning H
    def test_planted_path_found(self):
        P = EllPath(tuple(range(7)), 3, 1)
        H = Hypergraph(7, 3, P.windows())
        found = _search_path(H, 1, (0,), (6,), vertex_mask(range(1, 6)), None)
        assert found is not None and (found[0], found[-1]) == (0, 6)
        assert validate_ell_path(H, EllPath(found, 3, 1))

    def test_no_path_in_empty(self):
        assert _search_path(empty(7, 3), 1, (0,), (6,), vertex_mask(range(1, 6)), None) is None

    def test_budget_exhaustion_raises(self):
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        with pytest.raises(BudgetExceededError):
            can_absorb(complete(11, 3), P, [{5, 6}], budget=2)


@st.composite
def cycle_hosts(draw):
    """(H, ell): a random host with 0 <= ell < k <= 5 on n <= 10 vertices,
    (k-ell) | n, edgeless at p = 0; dense hosts only below n = 9, where
    list mode has at most a few thousand cycles to hold."""
    k = draw(st.integers(2, 5))
    ell = draw(st.integers(0, k - 1))
    n = draw(st.sampled_from([n for n in range(k, 11) if n % (k - ell) == 0]))
    p = draw(st.sampled_from([0.0, 0.3, 0.5] + [0.8, 1.0] * (n < 9)))
    return gen_random(n, k, p, draw(st.integers(0, 1 << 16))), ell


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

    @settings(max_examples=150, deadline=None)
    @given(cycle_hosts())
    @example((complete(4, 4), 0))  # n = k and ell = 0: every window is the one edge
    @example((complete(6, 4), 2))  # k < n < 2k
    @example((empty(9, 3), 2))
    def test_orbit_count_is_the_number_of_edge_sets(self, case):
        # count mode divides weighted orderings; list mode keys them by edge set
        H, ell = case
        listed = enumerate_hamilton_ell_cycles(H, ell, mode="list")
        assert enumerate_hamilton_ell_cycles(H, ell) == len(listed)

    def test_the_window_host_is_not_searched_without_a_cycle(self):
        # the one-edge host's search spends 54 nodes, the window host's 134
        H = Hypergraph(10, 3, [(0, 1, 2)])
        assert enumerate_hamilton_ell_cycles(H, 1, budget=54) == 0
        with pytest.raises(BudgetExceededError):
            enumerate_hamilton_ell_cycles(H, 1, budget=53)
        with pytest.raises(BudgetExceededError):
            _orbit_count(*EllCycle.layout(3, 1, 10), 54)
        assert _orbit_count(*EllCycle.layout(3, 1, 10), 134) == 2
        with pytest.raises(BudgetExceededError):
            _orbit_count(*EllCycle.layout(3, 1, 10), 133)


@st.composite
def power_hosts(draw):
    """(H, t): a random host with 2 <= k <= 4, k <= t <= 5 and t <= n <= 8."""
    k = draw(st.integers(2, 4))
    t = draw(st.integers(k, 5))
    n = draw(st.integers(t, 8))
    p = draw(st.sampled_from([0.7, 0.9, 1.0]))
    return gen_random(n, k, p, draw(st.integers(0, 1 << 16))), t


def brute_force_power_count(H, t):
    """The distinct edge sets of the (t-k+1)th powers of Hamilton tight
    cycles of H, read off all n! orderings: every k-subset of every cyclic
    t-window of an ordering must be an edge."""
    n, k = H.n, H.k
    edges = set(map(frozenset, H.edges))
    windows = [[(i + j) % n for j in range(t)] for i in range(n)]
    subsets = {c for w in windows for c in itertools.combinations(sorted(w), k)}
    getters = [operator.itemgetter(*c) for c in subsets]
    found = set()
    for order in itertools.permutations(range(n)):
        image = frozenset(frozenset(get(order)) for get in getters)
        if image <= edges:
            found.add(image)
    return len(found)


class TestPowerCount:
    @settings(max_examples=40, deadline=None)
    @given(power_hosts())
    @example((complete(8, 2), 3))  # the square of a Hamilton cycle in K_8
    @example((complete(6, 3), 5))  # k < t < n
    @example((empty(7, 3), 4))
    def test_orbit_count_over_the_power_layout_is_the_brute_force_count(self, case):
        H, t = case
        count = count_copies(H, *PowerCycle.layout(H.k, t, H.n))
        assert count == brute_force_power_count(H, t)
        if t == H.k:  # a tight cycle: the power layout has the tight cycle's windows
            assert count == enumerate_hamilton_ell_cycles(H, H.k - 1)


class TestAnyOrderView:
    def test_a_second_count_reuses_the_view_and_never_sorts(self):
        H = gen_random(9, 3, 0.9, 2)
        windows, phases = EllCycle.layout(3, 2, 9)
        _window_count(windows, phases, None)  # so that each count below searches H alone
        spend = _Budget.spend

        def counted():
            spent = []

            def spy(self):
                spent.append(1)
                spend(self)

            with mock.patch.object(_Budget, "spend", spy):
                return count_copies(H, windows, phases), len(spent)

        first = counted()
        size = len(H._any_order())
        assert size and first[1]
        assert counted() == first
        assert len(H._any_order()) == size
        # every key the count looks up is in the view now, so nothing sorts
        with mock.patch("builtins.sorted", side_effect=AssertionError("a window test sorted")):
            assert counted() == first
