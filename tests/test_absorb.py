"""Absorbing-path predicates and good-set classification."""

import itertools
import math
from fractions import Fraction

import pytest

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
from spancount.hypergraphs import Hypergraph


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
