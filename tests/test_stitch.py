"""Partition-respecting predicates and stitched cycle construction."""

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

    def test_bounded_by_2n(self):
        C = EllCycle(tuple(range(8)), 2, 1)
        for sizes in ((4, 4), (2, 2, 2, 2), (8,), (2, 6), (3, 5)):
            assert respecting_multiplicity(C, sizes) <= 2 * 8


class TestStitchCycle:
    def test_complete_host(self):
        H = complete(24, 3)
        P = Partition(tuple(tuple(range(i, i + 12)) for i in range(0, 24, 12)))
        cert = stitch_cycle(H, P, 1, seed=5)
        assert cert is not None
        cycle = cert.cycle()
        assert validate_ell_cycle(H, cycle)
        assert is_respecting(cycle, P)
        assert set(cycle.order) == set(range(24))

    def test_single_block_partition(self):
        H = complete(12, 3)
        cert = stitch_cycle(H, Partition((tuple(range(12)),)), 1, seed=0)
        assert cert is not None and validate_ell_cycle(H, cert.cycle())

    def test_tight_cycle_on_dense_random(self):
        H = gen_random(20, 3, 0.9, seed=2)
        P = Partition((tuple(range(10)), tuple(range(10, 20))))
        cert = stitch_cycle(H, P, 2, seed=1)
        if cert is not None:
            assert validate_ell_cycle(H, cert.cycle())
            assert is_respecting(cert.cycle(), P)

    def test_divisibility_enforced(self):
        H = complete(14, 3)
        P = Partition((tuple(range(7)), tuple(range(7, 14))))
        with pytest.raises(DivisibilityError):
            stitch_cycle(H, P, 1)  # (k-ell)=2 does not divide 7

    def test_sparse_host_returns_none(self):
        H = Hypergraph(12, 3, [(0, 1, 2)])
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        assert stitch_cycle(H, P, 1, junction_budget=3) is None

    def test_deterministic_given_seed(self):
        H = complete(24, 3)
        P = Partition(tuple(tuple(range(i, i + 12)) for i in range(0, 24, 12)))
        a = stitch_cycle(H, P, 1, seed=9)
        b = stitch_cycle(H, P, 1, seed=9)
        assert a.order == b.order and a.junctions == b.junctions


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
        size = -(-(2 * ell + gap) // gap) * gap  # smallest block stitch_cycle accepts
        n = size * data.draw(st.integers(1, 3))
        H = gen_random(n, k, data.draw(st.sampled_from([0.85, 0.95, 1.0])),
                       seed=data.draw(st.integers(0, 10 ** 6)))
        order = data.draw(st.permutations(range(n)))
        P = Partition(tuple(tuple(sorted(order[i:i + size])) for i in range(0, n, size)))
        cert = stitch_cycle(H, P, ell, junction_budget=3, seed=data.draw(st.integers(0, 99)))
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
        # k=3, ell=1: each block path's windows start at the previous junction
        H = gen_random(24, 3, 0.97, 6)
        sv = size_vector(24, 6, 2, 3)
        part, _ = random_bisection(H, sv, GoodnessSpec(Fraction(1, 2), Fraction(1, 10)), seed=0)
        cert = stitch_cycle(H, part, 1, seed=0)
        assert cert is not None
        assert validate_ell_cycle(H, cert.cycle()) and is_respecting(cert.cycle(), part)

    def test_single_block_tries_every_root(self):
        # the only Hamilton 1-cycle needs vertex 0 at an odd position
        H = Hypergraph(6, 3, EllCycle((1, 0, 2, 3, 4, 5), 3, 1).windows())
        cert = stitch_cycle(H, Partition((tuple(range(6)),)), 1)
        assert cert is not None and validate_ell_cycle(H, cert.cycle())


class TestStitchPowerCycle:
    def test_complete_host(self):
        H = complete(18, 2)
        P = Partition((tuple(range(9)), tuple(range(9, 18))))
        cert = stitch_power_cycle(H, P, 3, seed=4)
        assert cert is not None
        assert validate_power_cycle(H, cert.power_cycle())
        assert is_respecting(cert.power_cycle(), P)

    def test_single_block(self):
        H = complete(8, 2)
        cert = stitch_power_cycle(H, Partition((tuple(range(8)),)), 3, seed=0)
        assert cert is not None and validate_power_cycle(H, cert.power_cycle())

    def test_no_cliques_returns_none(self):
        C = EllCycle(tuple(range(12)), 2, 1)
        H = Hypergraph(12, 2, C.edge_set())  # triangle-free
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        assert stitch_power_cycle(H, P, 3, junction_budget=2) is None


class TestPipeline:
    def test_bisect_then_stitch(self):
        H = complete(24, 3)
        sv = size_vector(24, 6, 2, 3)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        part, _ = random_bisection(H, sv, spec, seed=11)
        cert = stitch_cycle(H, part, 1, seed=11)
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
