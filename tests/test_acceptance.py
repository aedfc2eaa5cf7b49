"""Acceptance gate: twelve go/no-go checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Each check is exact or uses the stated tolerance; none is
weakened to fit the implementation.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from spancount import (
    AbsorberConfig,
    EllCycle,
    EllPath,
    GoodnessSpec,
    HypergeometricParams,
    Partition,
    SizeVector,
    can_absorb,
    check_good,
    classify_set,
    complete,
    count_f_factors,
    derive_seed,
    dirac_threshold,
    enumerate_hamilton_ell_cycles,
    find_f_factor,
    gen_random,
    hypergeometric_tail_bound,
    is_respecting,
    lower_bound_count,
    matching_count_closed_form,
    random_bisection,
    respecting_multiplicity,
    sample_hypergeometric,
    single_edge_spec,
    size_vector,
    stitch_cycle,
    stitch_factor,
    validate_ell_cycle,
    validate_power_cycle,
    verify_decomposition,
)
from spancount.factors import FactorSpec
from spancount.hypergraphs import Hypergraph
from spancount.paths import PowerCycle
from spancount.cli import main as cli_main


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS", flush=True)


def test_01_threshold_table():
    with criterion(1, "threshold table"):
        for k in range(2, 8):
            for ell in range(1, k):
                gap = k - ell
                if k % gap == 0:
                    expected = Fraction(1, 2)
                else:
                    expected = Fraction(1, -(-k // gap) * gap)
                assert dirac_threshold(k, ell) == expected
        assert dirac_threshold(2, 1) == Fraction(1, 2)
        assert dirac_threshold(3, 1) == Fraction(1, 4)
        assert dirac_threshold(4, 1) == Fraction(1, 6)


def test_02_enumeration_vs_closed_form():
    with criterion(2, "cycle counts on complete 2-graphs"):
        for n, expected in [(5, 12), (6, 60), (7, 360), (8, 2520)]:
            assert enumerate_hamilton_ell_cycles(complete(n, 2), 1) == expected
            assert expected == math.factorial(n - 1) // 2


def test_03_matching_counts():
    with criterion(3, "perfect matching counts"):
        for n, expected in [(6, 10), (9, 280)]:
            assert count_f_factors(complete(n, 3), single_edge_spec(3)) == expected
            assert matching_count_closed_form(n, 3) == expected


def test_04_stitcher_soundness():
    with criterion(4, "stitcher soundness over seeded pipelines"):
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        target = spec.delta + spec.gamma / 2
        sv = size_vector(36, 6, 1, 3)
        returned = 0
        for p_num, host_seed in [(90, 1), (95, 2)]:
            H = gen_random(36, 3, p_num / 100, seed=host_seed)
            for trial in range(50):
                part, _ = random_bisection(H, sv, spec,
                                           seed=derive_seed(p_num, "bisect", trial))
                if not check_good(H, part, target, sizes=sv.sizes,
                                  max_violations=1).good:
                    continue
                cert = stitch_cycle(H, part, 2)
                if cert is None:
                    continue
                returned += 1
                cycle = cert.cycle()
                assert validate_ell_cycle(H, cycle)
                assert is_respecting(cycle, part)
        assert returned > 0
        # complete host: every good partition must stitch
        H = complete(36, 3)
        attempts = successes = 0
        for trial in range(10):
            part, _ = random_bisection(H, sv, spec, seed=derive_seed(7, "bisect", trial))
            if not check_good(H, part, target, sizes=sv.sizes, max_violations=1).good:
                continue
            attempts += 1
            cert = stitch_cycle(H, part, 2)
            if cert is not None:
                cycle = cert.cycle()
                assert validate_ell_cycle(H, cycle) and is_respecting(cycle, part)
                successes += 1
        assert attempts > 0 and successes == attempts


def _compatible_size_vectors(n, k, gap):
    """Ordered size tuples: r a power of two, blocks >= max(k, gap),
    divisible by gap, spread at most 2k."""
    out = []
    r = 1
    while r <= n:
        low = max(k, gap)
        parts = [s for s in range(low, n + 1) if s % gap == 0]
        for sizes in itertools.product(parts, repeat=r):
            if sum(sizes) == n and max(sizes) - min(sizes) <= 2 * k:
                out.append(sizes)
        r *= 2
    return out


def test_05_respecting_multiplicity_bound():
    with criterion(5, "respecting multiplicity <= 2n"):
        planted = EllCycle(tuple(range(12)), 3, 1)
        hosts = [
            (complete(5, 2), 1), (complete(6, 2), 1), (complete(7, 2), 1),
            (complete(6, 3), 1),
            (Hypergraph(12, 3, planted.edge_set()), 1),
        ]
        for H, ell in hosts:
            gap = H.k - ell
            cycles = enumerate_hamilton_ell_cycles(H, ell, mode="list")
            size_tuples = _compatible_size_vectors(H.n, H.k, gap)
            assert size_tuples
            for C in cycles:
                for sizes in size_tuples:
                    assert respecting_multiplicity(C, sizes) <= 2 * H.n


def test_06_bisection_trace_logic():
    with criterion(6, "trace implication and leaf sizes, 10^4 traces"):
        spec = GoodnessSpec(Fraction(1, 2), Fraction(3, 10))
        grid = []
        for p in (3, 5, 8, 10):
            grid.append((gen_random(16, 2, p / 10, seed=p), size_vector(16, 4, 1, 2), 2000))
        grid.append((gen_random(12, 3, 0.8, seed=4), size_vector(12, 3, 1, 3), 1000))
        grid.append((complete(12, 3), size_vector(12, 3, 1, 3), 1000))
        total = 0
        for H, sv, trials in grid:
            for trial in range(trials):
                part, trace = random_bisection(H, sv, spec, seed=trial)
                assert part.sizes() == sv.sizes
                for i in range(1, trace.s + 1):
                    for j, frec in enumerate(trace.refinements[i - 1]):
                        if frec.holds and not frec.clamped:
                            assert trace.events[i][2 * j].holds
                            assert trace.events[i][2 * j + 1].holds
                total += 1
        assert total == 10 ** 4


def test_07_hypergeometric_bound():
    with criterion(7, "hypergeometric tail vs bound"):
        params = HypergeometricParams(60, 30, 30, 5.0)
        bound = hypergeometric_tail_bound(params)
        assert bound == 2 * math.exp(-5 / 3)
        rng = random.Random(123)
        mean = 15.0
        hits = sum(
            1
            for _ in range(10 ** 5)
            if abs(sample_hypergeometric(params, rng) - mean) >= 5.0
        )
        assert hits / 10 ** 5 <= bound


def test_08_count_bound_consistency():
    with criterion(8, "lower bounds below the exact count"):
        exact = 2520
        m = 2
        checked = 0
        for sizes in _compatible_size_vectors(8, 2, 1):
            r = len(sizes)
            if not all(m <= s <= 5 * m for s in sizes):
                continue
            if not 2 * m <= 8 / r < 4 * m:
                continue
            sv = SizeVector(sizes, m, 1)
            sv.check(2)
            assert lower_bound_count(8, sv).surely_le(exact)
            checked += 1
        assert checked > 0


def test_09_power_cycle_reduction():
    with criterion(9, "power t=k matches tight validation"):
        rng = random.Random(99)
        done = 0
        while done < 10 ** 3:
            k = rng.choice((2, 3))
            n = rng.randrange(max(5, k + 2), 11)
            H = gen_random(n, k, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10 ** 6))
            order = list(range(n))
            rng.shuffle(order)
            a = validate_power_cycle(H, PowerCycle(tuple(order), k, k))
            b = validate_ell_cycle(H, EllCycle(tuple(order), k, k - 1))
            assert a == b
            done += 1


def test_10_absorption_definitions():
    with criterion(10, "absorption identity, positivity, monotonicity"):
        H = complete(9, 3)
        P = EllPath((0, 1, 2, 3, 4), 3, 1)
        assert can_absorb(H, P, []) is P
        cfg = AbsorberConfig(Fraction(1, 1000), 3)
        for n in (8, 10):
            Hc = complete(n, 3)
            for S in itertools.combinations(range(n), 2):
                count, _ = classify_set(Hc, S, cfg, 1)
                assert count > 0
        rng = random.Random(5)
        all_triples = list(itertools.combinations(range(7), 3))
        for chain in range(100):
            rng.shuffle(all_triples)
            edges = all_triples[:rng.randrange(4, 12)]
            prev = -1
            for extra in all_triples[len(edges):len(edges) + 4]:
                edges = edges + [extra]
                count, _ = classify_set(Hypergraph(7, 3, edges), (0, 1), cfg, 1)
                assert count >= prev
                prev = count


def test_11_factor_stitching():
    with criterion(11, "factor stitching on block hosts"):
        t = 3
        edges = []
        for start in range(0, 12, 2 * t):
            edges.extend(itertools.combinations(range(start, start + 2 * t), 3))
        H = Hypergraph(12, 3, edges)
        P = Partition((tuple(range(6)), tuple(range(6, 12))))
        spec = single_edge_spec(3)
        dec = stitch_factor(H, P, spec)
        assert dec is not None and verify_decomposition(H, spec, dec)
        for copy in dec.copies:
            assert len({v // 6 for v in copy}) == 1
        # planted-factor recovery: unique decomposition found exactly
        blocks = []
        planted_edges = []
        for start in range(0, 12, 4):
            blocks.append(frozenset(range(start, start + 4)))
            planted_edges.extend(itertools.combinations(range(start, start + 4), 3))
        Hp = Hypergraph(12, 3, planted_edges)
        fspec = FactorSpec(complete(4, 3))
        found = find_f_factor(Hp, fspec)
        assert sorted(found.vertex_sets()) == sorted(blocks)
        assert count_f_factors(Hp, fspec) == 1


def test_12_determinism(tmp_path):
    with criterion(12, "byte-identical reports under reruns"):
        host = tmp_path / "host.txt"
        assert cli_main(["generate", "--family", "binomial", "--n", "24", "--k", "3",
                         "--p", "0.9", "--seed", "6", "--out", str(host)]) == 0
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / f"stitch-{tag}.json"
            assert cli_main(["stitch", "--input", str(host), "--ell", "2", "--m", "6",
                             "--delta", "1/2", "--gamma", "1/10", "--trials", "5",
                             "--seed", "3", "--out", str(out)]) == 0
            pairs.append(out.read_bytes())
        assert pairs[0] == pairs[1]
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / f"part-{tag}.csv"
            assert cli_main(["partition", "--input", str(host), "--m", "6", "--ell", "2",
                             "--delta", "1/2", "--gamma", "1/10", "--trials", "10",
                             "--seed", "4", "--format", "csv", "--out", str(out)]) == 0
            pairs.append(out.read_bytes())
        assert pairs[0] == pairs[1]
        report = json.loads((tmp_path / "stitch-a.json").read_text())
        assert report["config"]["params"]["seed"] == 3
