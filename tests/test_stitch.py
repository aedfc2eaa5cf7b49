"""Partition-respecting predicates and stitched cycle construction."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    DivisibilityError,
    EllCycle,
    GoodnessSpec,
    InvalidQueryError,
    Partition,
    PowerCycle,
    complete,
    enumerate_hamilton_ell_cycles,
    gen_random,
    is_respecting,
    lower_bound_count,
    multinomial,
    random_bisection,
    respecting_multiplicity,
    size_vector,
    stitch_cycle,
    stitch_power_cycle,
    validate_ell_cycle,
    validate_power_cycle,
)
from spancount.hypergraphs import Hypergraph


class TestIsRespecting:
    def test_consecutive_arcs(self):
        C = EllCycle((0, 1, 2, 3, 4, 5), 2, 1)
        assert is_respecting(C, Partition(((0, 1, 2), (3, 4, 5))))
        assert is_respecting(C, Partition(((3, 4, 5), (0, 1, 2))))

    def test_interleaved_blocks_rejected(self):
        C = EllCycle((0, 3, 1, 4, 2, 5), 2, 1)
        assert not is_respecting(C, Partition(((0, 1, 2), (3, 4, 5))))

    def test_reversed_direction_accepted(self):
        C = EllCycle((2, 1, 0, 5, 4, 3), 2, 1)
        assert is_respecting(C, Partition(((0, 1, 2), (3, 4, 5))))

    def test_block_order_matters(self):
        # with three blocks any arrangement is a rotation or reflection;
        # four blocks can genuinely break the cyclic block order
        C = EllCycle(tuple(range(8)), 2, 1)
        assert is_respecting(C, Partition(((0, 1), (2, 3), (4, 5), (6, 7))))
        assert not is_respecting(C, Partition(((0, 1), (4, 5), (2, 3), (6, 7))))

    def test_single_block_trivial(self):
        C = EllCycle((0, 3, 1, 4, 2, 5), 2, 1)
        assert is_respecting(C, Partition((tuple(range(6)),)))

    def test_span_mismatch_raises(self):
        C = EllCycle((0, 1, 2, 3), 2, 1)
        with pytest.raises(InvalidQueryError):
            is_respecting(C, Partition(((0, 1), (2, 3), (4, 5))))

    def test_empty_block_rejected(self):
        # an empty block occupies no arc, so the other blocks' arcs alone
        # do not make the cycle respect the partition
        C = EllCycle((0, 1, 2, 3), 2, 1)
        assert not is_respecting(C, Partition(((0, 1), (), (2, 3))))


def _ordered_partitions(vertices, sizes):
    """Every ordered partition of `vertices` into blocks of the given sizes."""
    if not sizes:
        yield ()
        return
    for first in itertools.combinations(vertices, sizes[0]):
        rest = [v for v in vertices if v not in first]
        for blocks in _ordered_partitions(rest, sizes[1:]):
            yield (first,) + blocks


class TestMultiplicity:
    def test_two_equal_blocks_on_hexagon(self):
        C = EllCycle(tuple(range(6)), 2, 1)
        # 2 directions x 6 rotations produce 12 ordered partitions, each
        # counted once; opposite cuts coincide, leaving 6
        assert respecting_multiplicity(C, (3, 3)) == 6

    def test_brute_force_agreement(self):
        C = EllCycle((0, 2, 4, 1, 3, 5), 2, 1)
        got = respecting_multiplicity(C, (3, 3))
        # independent brute force over all ordered (3,3) partitions
        import itertools

        ref = 0
        for first in itertools.combinations(range(6), 3):
            second = tuple(v for v in range(6) if v not in first)
            try:
                if is_respecting(C, Partition((first, second))):
                    ref += 1
            except InvalidQueryError:
                pass
        assert got == ref

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_counts_the_partitions_that_is_respecting_accepts(self, data):
        n = data.draw(st.integers(2, 7))
        C = EllCycle(data.draw(st.permutations(range(n))), 2, 1)
        r = data.draw(st.integers(1, 3))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=r - 1)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        accepted = sum(
            is_respecting(C, Partition(blocks)) for blocks in _ordered_partitions(range(n), sizes)
        )
        assert accepted == respecting_multiplicity(C, sizes)

    def test_bounded_by_2n(self):
        C = EllCycle(tuple(range(8)), 2, 1)
        for sizes in ((4, 4), (2, 2, 2, 2), (8,), (2, 6), (3, 5)):
            assert respecting_multiplicity(C, sizes) <= 2 * 8


class TestStitchCycle:
    def test_complete_host(self):
        H = complete(24, 3)
        P = Partition(tuple(tuple(range(i, i + 12)) for i in range(0, 24, 12)))
        cert = stitch_cycle(H, P, 1)
        assert cert is not None
        cycle = cert.cycle()
        assert validate_ell_cycle(H, cycle)
        assert is_respecting(cycle, P)
        assert set(cycle.order) == set(range(24))

    def test_single_block_partition(self):
        H = complete(12, 3)
        cert = stitch_cycle(H, Partition((tuple(range(12)),)), 1)
        assert cert is not None and validate_ell_cycle(H, cert.cycle())

    def test_tight_cycle_on_dense_random(self):
        H = gen_random(20, 3, 0.9, seed=2)
        P = Partition((tuple(range(10)), tuple(range(10, 20))))
        cert = stitch_cycle(H, P, 2)
        assert cert is not None
        assert validate_ell_cycle(H, cert.cycle())
        assert is_respecting(cert.cycle(), P)

    def test_sparse_host_partition_with_a_cycle(self):
        # a sparse host whose partition has a respecting tight cycle, for
        # example (1, 6, 5, 0, 3, 8, 2, 9, 7, 4); sampling stitch points at
        # random misses it
        H = gen_random(10, 3, 0.6, 1)
        P = Partition(((0, 1, 3, 5, 6), (2, 4, 7, 8, 9)))
        cert = stitch_cycle(H, P, 2)
        assert cert is not None
        assert validate_ell_cycle(H, cert.cycle()) and is_respecting(cert.cycle(), P)

    def test_divisibility_enforced(self):
        H = complete(14, 3)
        P = Partition((tuple(range(7)), tuple(range(7, 14))))
        with pytest.raises(DivisibilityError):
            stitch_cycle(H, P, 1)  # (k-ell)=2 does not divide 7

    def test_fewer_vertices_than_a_cycle_needs(self):
        H = complete(6, 3)
        with pytest.raises(InvalidQueryError):
            stitch_cycle(H, Partition(((0, 1),)), 1)  # an ell-cycle needs k vertices
        with pytest.raises(InvalidQueryError):
            stitch_power_cycle(H, Partition(((0, 1, 2),)), 4)  # a power needs t
        with pytest.raises(InvalidQueryError):
            stitch_cycle(H, Partition(((0, 1, 2, 3), ())), 1)  # an empty block has no arc

    def test_sparse_host_returns_none(self):
        H = Hypergraph(12, 3, [(0, 1, 2)])
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        assert stitch_cycle(H, P, 1) is None

    def test_deterministic_given_seed(self):
        H = complete(24, 3)
        P = Partition(tuple(tuple(range(i, i + 12)) for i in range(0, 24, 12)))
        a = stitch_cycle(H, P, 1, seed=9)
        b = stitch_cycle(H, P, 1, seed=9)
        assert a.order == b.order and a.to_json() == b.to_json()


class TestStitchProperties:
    """Small random hosts, every 1 <= ell < k <= 4."""

    @staticmethod
    def draw_k_ell(data):
        k = data.draw(st.integers(2, 4))
        return k, data.draw(st.integers(1, k - 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stitched_cycles_validate(self, data):
        k, ell = self.draw_k_ell(data)
        gap = k - ell
        size = gap * data.draw(st.integers(-(-k // gap), 4))
        n = size * data.draw(st.integers(1, 3))
        H = gen_random(n, k, data.draw(st.sampled_from([0.85, 0.95, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        order = data.draw(st.permutations(range(n)))
        P = Partition(tuple(tuple(sorted(order[i:i + size])) for i in range(0, n, size)))
        cert = stitch_cycle(H, P, ell)
        if cert is not None:
            assert validate_ell_cycle(H, cert.cycle())
            assert is_respecting(cert.cycle(), P)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_single_block_search_matches_enumerator(self, data):
        k, ell = self.draw_k_ell(data)
        n = data.draw(st.sampled_from([m for m in range(k + ell, 9) if m % (k - ell) == 0]))
        H = gen_random(n, k, data.draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        cert = stitch_cycle(H, Partition((tuple(range(n)),)), ell)
        assert (cert is not None) == (enumerate_hamilton_ell_cycles(H, ell) > 0)
        if cert is not None:
            assert validate_ell_cycle(H, cert.cycle())

    def test_window_phase_when_gap_does_not_divide_ell(self):
        # k=3, ell=1: the windows may start at either phase of the arcs
        H = gen_random(24, 3, 0.97, 6)
        sv = size_vector(24, 6, 2, 3)
        part, _ = random_bisection(H, sv, GoodnessSpec(Fraction(1, 2), Fraction(1, 10)), seed=0)
        cert = stitch_cycle(H, part, 1)
        assert cert is not None
        assert validate_ell_cycle(H, cert.cycle()) and is_respecting(cert.cycle(), part)

    def test_single_block_proof_costs_no_more_than_the_enumerator(self):
        # no tight cycle exists; the enumerator proves it in 3,111 nodes,
        # and the one-block stitcher runs the same pinned search
        H = gen_random(10, 3, 0.45, 2)
        assert enumerate_hamilton_ell_cycles(H, 2, budget=3111) == 0
        assert stitch_cycle(H, Partition((tuple(range(10)),)), 2, node_budget=3111) is None

    def test_single_block_tries_every_root(self):
        # the only Hamilton 1-cycle needs vertex 0 at an odd position
        H = Hypergraph(6, 3, EllCycle((1, 0, 2, 3, 4, 5), 3, 1).windows())
        cert = stitch_cycle(H, Partition((tuple(range(6)),)), 1)
        assert cert is not None and validate_ell_cycle(H, cert.cycle())


def _respecting_ordering_exists(P, n, structure, valid):
    """Brute force over every ordering of range(n): does one of them
    form a valid structure that respects P?"""
    for order in itertools.permutations(range(n)):
        C = structure(order)
        if is_respecting(C, P) and valid(C):
            return True
    return False


def _draw_partition(data, n, gap):
    """An ordered partition of range(n) into blocks whose sizes gap divides."""
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.sampled_from(range(gap, n, gap)), max_size=3)))
    ends = [0] + cuts + [n]
    return Partition(tuple(tuple(order[a:b]) for a, b in zip(ends, ends[1:])))


class TestRespectingSearchIsExact:
    """The search finds a P-respecting structure exactly when one of the
    n! orderings of V is one, for every 1 <= ell < k <= 4."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_ell_cycles_match_brute_force(self, data):
        k = data.draw(st.integers(2, 4))
        ell = data.draw(st.integers(1, k - 1))
        gap = k - ell
        n = data.draw(st.sampled_from([m for m in range(k, 9) if m % gap == 0]))
        H = gen_random(n, k, data.draw(st.sampled_from([0.4, 0.6, 0.8, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        P = _draw_partition(data, n, gap)
        cert = stitch_cycle(H, P, ell)
        exists = _respecting_ordering_exists(
            P, n, lambda order: EllCycle(order, k, ell), lambda C: validate_ell_cycle(H, C)
        )
        assert (cert is not None) == exists
        if cert is not None:
            assert validate_ell_cycle(H, cert.cycle()) and is_respecting(cert.cycle(), P)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_power_cycles_match_brute_force(self, data):
        k = data.draw(st.integers(2, 3))
        t = data.draw(st.integers(k, 4))
        n = data.draw(st.integers(t, 8))
        H = gen_random(n, k, data.draw(st.sampled_from([0.5, 0.7, 0.9, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        P = _draw_partition(data, n, 1)
        cert = stitch_power_cycle(H, P, t)
        exists = _respecting_ordering_exists(
            P, n, lambda order: PowerCycle(order, t, k), lambda C: validate_power_cycle(H, C)
        )
        assert (cert is not None) == exists
        if cert is not None:
            C = cert.power_cycle()
            assert validate_power_cycle(H, C) and is_respecting(C, P)


class TestStitchPowerCycle:
    def test_complete_host(self):
        H = complete(18, 2)
        P = Partition((tuple(range(9)), tuple(range(9, 18))))
        cert = stitch_power_cycle(H, P, 3)
        assert cert is not None
        assert validate_power_cycle(H, cert.power_cycle())
        assert is_respecting(cert.power_cycle(), P)

    def test_single_block(self):
        H = complete(8, 2)
        cert = stitch_power_cycle(H, Partition((tuple(range(8)),)), 3)
        assert cert is not None and validate_power_cycle(H, cert.power_cycle())

    def test_no_cliques_returns_none(self):
        C = EllCycle(tuple(range(12)), 2, 1)
        H = Hypergraph(12, 2, C.edge_set())  # triangle-free
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        assert stitch_power_cycle(H, P, 3) is None


class TestPipeline:
    def test_bisect_then_stitch(self):
        H = complete(24, 3)
        sv = size_vector(24, 6, 2, 3)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        part, _ = random_bisection(H, sv, spec, seed=11)
        cert = stitch_cycle(H, part, 1)
        assert cert is not None
        assert is_respecting(cert.cycle(), part)


class TestLowerBound:
    def test_frozen_value_k8(self):
        sv = size_vector(8, 2, 1, 2)
        lb = lower_bound_count(8, sv)
        # e^{-8} / 16 * multinomial(8; sizes)
        expected = math.exp(-8) / 16 * multinomial(8, sv.sizes)
        assert lb.lo <= Fraction(expected).limit_denominator(10 ** 12) <= lb.hi \
            or abs(lb.midpoint_float() - expected) < 1e-12

    def test_bracket_tightness(self):
        sv = size_vector(16, 4, 1, 2)
        lb = lower_bound_count(16, sv)
        assert 0 <= float(lb.hi - lb.lo) < 1e-15 * float(lb.hi) + 1e-30

    def test_size_mismatch(self):
        sv = size_vector(8, 2, 1, 2)
        with pytest.raises(InvalidQueryError):
            lower_bound_count(10, sv)
