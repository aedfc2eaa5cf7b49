"""Degree queries, serialization, and generators against brute-force oracles."""

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    GoodnessSpec,
    Hypergraph,
    InvalidQueryError,
    Partition,
    check_good,
    complete,
    dirac_threshold,
    empty,
    enumerate_hamilton_ell_cycles,
    gen_random,
    random_bisection,
    size_vector,
    stitch_cycle,
    stitch_power_cycle,
)
from spancount import hypergraphs
from spancount.cli import main
from spancount.hypergraphs import _edge_masks, _indicator_masks
from spancount.paths import PowerCycle, count_copies


def brute_degree(H, U, S):
    """Reference: edges containing U with remaining vertices inside S."""
    U = set(U)
    S = set(S)
    return sum(1 for e in H.edges if U <= set(e) and set(e) - U <= S)


@st.composite
def random_hosts(draw):
    k = draw(st.integers(2, 5))
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
            st.sets(st.integers(0, H.n - 1), min_size=H.k - 1, max_size=H.k - 1)
        )
        S = data.draw(st.sets(st.integers(0, H.n - 1), max_size=H.n))
        assert H.degree(U, S - U) == brute_degree(H, U, S - U)

    @pytest.mark.parametrize("U", [(), (0,), (0, 1, 2)], ids=["empty", "one", "k"])
    def test_degree_needs_k_minus_1_vertices(self, U):
        # the only degree is the codegree: any |U| other than k-1 raises
        with pytest.raises(InvalidQueryError, match="codegree needs"):
            complete(6, 3).degree(U, range(3, 6))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_codegree_index_matches_brute_force(self, data):
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(k, 9))
        p = data.draw(st.floats(0, 1))
        H = gen_random(n, k, p, seed=data.draw(st.integers(0, 2**32)))
        for U in itertools.combinations(range(n), k - 1):
            rest = set(range(n)) - set(U)
            assert H.degree(U, rest) == sum(H.has_edge(U + (v,)) for v in rest)
            S = data.draw(st.sets(st.sampled_from(sorted(rest))))
            assert H.degree(U, S) == brute_degree(H, U, S)

    def test_degree_queries_never_walk_the_edge_set(self):
        hosts = [gen_random(9, k, 0.7, seed=k) for k in range(2, 6)]
        want = [brute_degree(H, range(H.k - 1), range(H.k - 1, 9)) for H in hosts]

        def walked(self):
            raise AssertionError("a degree query walked the edge set")

        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        P = Partition((tuple(range(0, 9, 2)), tuple(range(1, 9, 2))))
        with mock.patch.object(Hypergraph, "edges", property(walked)):
            for H, degree in zip(hosts, want):
                assert H.degree(range(H.k - 1), range(H.k - 1, 9)) == degree
                assert check_good(H, P, Fraction(1, 2)).min_ratio is not None
                part, _ = random_bisection(H, size_vector(9, 2, 1, H.k), spec, seed=1)
                assert part.vertex_set() == frozenset(range(9))


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(random_hosts())
    def test_edge_list_roundtrip(self, H):
        assert Hypergraph.from_edge_list(H.to_edge_list()) == H


@st.composite
def canonical_faulty_and_perturbed(draw):
    """(n, k, edges, canonical, faulty, perturbed): `canonical` is laid out
    exactly as `to_edge_list` writes, with some lines repeated; `faulty` keeps
    that layout but has one drawn fault; `perturbed` is the same host as
    `canonical` with tabs, blank lines, permuted vertices and a leading zero."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    p = draw(st.sampled_from([0, 0.1, 0.5, 0.9, 1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < p]
    rows = sorted(edges + rng.sample(edges, min(len(edges), draw(st.integers(0, 3)))))
    canonical = "".join(f"{' '.join(map(str, e))}\n" for e in [(n, k)] + rows)
    lines = [f"{n}\t{k}", ""] + ["\t".join(map(str, rng.sample(e, k))) for e in rows]
    if rows:
        lines[2] = "0" + lines[2]
    fault = draw(st.sampled_from(["none", "reversed row", "repeated vertex", "leading zero",
                                  "vertex n", "shuffled lines", "repeated lines"]))
    bad = [list(map(str, e)) for e in rows] or [list(map(str, range(k)))]
    i, j = rng.randrange(len(bad)), rng.randrange(k)
    if fault == "reversed row":
        bad[i].reverse()
    elif fault == "repeated vertex":
        bad[i][j] = bad[i][j - 1]
    elif fault == "leading zero":
        bad[i][j] = "0" + bad[i][j]
    elif fault == "vertex n":
        bad[i][j] = str(n + rng.randrange(3))
    elif fault == "shuffled lines":
        rng.shuffle(bad)
    elif fault == "repeated lines":
        bad += rng.sample(bad, min(len(bad), 3))
    faulty = f"{n} {k}\n" + "".join(" ".join(row) + "\n" for row in bad)
    return n, k, edges, canonical, faulty, "\n".join(lines) + "\n"


def loaded(text):
    """What `from_edge_list` makes of text: the host's n, k and masks, or
    the message it raises."""
    try:
        H = Hypergraph.from_edge_list(text)
    except InvalidQueryError as exc:
        return str(exc)
    return H.n, H.k, H._conbr


class TestCanonicalText:
    """Text as `to_edge_list` writes it takes a tokenizing fast path, which
    streams a dense host into the edge indicator; any other text is read
    line by line.  Both give the same host, or the same message."""

    @settings(max_examples=200, deadline=None)
    @given(canonical_faulty_and_perturbed())
    def test_both_loader_paths_agree(self, case):
        n, k, edges, canonical, faulty, perturbed = case
        ref = Hypergraph(n, k, edges)
        assert Hypergraph._from_canonical_text(perturbed) is None
        slow = Hypergraph.from_edge_list(perturbed)
        with mock.patch.object(Hypergraph, "_from_canonical_text", return_value=None):
            assert loaded(canonical) == loaded(perturbed)
            want = loaded(faulty)
        # the fast path builds k tables of n vertex names only when the input
        # holds at least n entries, and an edgeless text is read line by line;
        # the thresholds patched down stream every other text into the indicator
        rows = canonical.count("\n") - 1
        stream = {"_CELLS_PER_EDGE": max(n, 1) ** k, "_EDGES_PER_SET": 0}
        for thresholds in ({}, stream):
            for chunk in (1, 7, hypergraphs._CHUNK):
                # a chunk ends at the first newline `chunk` characters on
                with mock.patch.multiple(hypergraphs, _CHUNK=chunk, **thresholds), \
                        mock.patch.object(hypergraphs, "_indicator_masks",
                                          wraps=hypergraphs._indicator_masks) as read:
                    fast = Hypergraph._from_canonical_text(canonical)
                    assert (fast is None) == (not rows or n > k * rows)
                    assert fast is None or fast._conbr == ref._conbr
                    if thresholds:
                        assert read.called == (fast is not None)
                    assert loaded(faulty) == want
        fast = Hypergraph.from_edge_list(canonical)
        assert fast._conbr == slow._conbr == ref._codegree_neighbours()
        assert fast.edges == slow.edges == ref.edges
        assert fast.to_edge_list().encode() == slow.to_edge_list().encode()
        assert fast.to_edge_list() == ref.to_edge_list()

    def test_generated_dense_text_streams_into_the_indicator(self, tmp_path, capsys):
        out = tmp_path / "b.txt"
        assert main(["generate", "--family", "binomial", "--n", "96", "--k", "3", "--p", "0.97",
                     "--seed", "11", "--out", str(out)]) == 0
        edges = json.loads(capsys.readouterr().out)["results"]["edges"]
        ref = gen_random(96, 3, 0.97, 11)
        reread = AssertionError("the text was read line by line")
        with mock.patch.object(Hypergraph, "_entries_by_line", side_effect=reread), \
                mock.patch.object(hypergraphs, "_masks", wraps=hypergraphs._masks) as columns:
            H = Hypergraph.from_edge_list(out.read_text())
        # the column builder saw only the edgeless host, which has no columns
        assert [call.args for call in columns.call_args_list] == [(96, [])]
        assert H == ref and H._conbr == ref._conbr
        assert H.num_edges() == edges

    @settings(max_examples=200, deadline=None)
    @given(canonical_faulty_and_perturbed())
    def test_indicator_builder_equals_the_per_edge_loop(self, case):
        _, k, edges, _, _, _ = case
        if edges:
            top = max(map(max, edges)) + 1
            S = bytearray(b"0") * top**k
            for e in edges:
                S[sum(v * top ** (k - 1 - i) for i, v in enumerate(e))] = ord("1")
            assert _indicator_masks(S, top, k) == _edge_masks(list(zip(*edges)))

    @pytest.mark.parametrize("n, k, p, builder", [
        (9, 3, 0.9, _edge_masks),  # an oracles host: about 6 edge bits per pair
        (96, 3, 0.97, _indicator_masks),  # a stitch host: about 91 bits per pair
    ], ids=["oracles-n9k3", "stitch-n96k3"])
    def test_the_builder_is_picked_by_cells_per_edge_and_bits_per_set(self, n, k, p, builder):
        other = ({_edge_masks, _indicator_masks} - {builder}).pop()
        with mock.patch.object(hypergraphs, other.__name__, side_effect=AssertionError(other)):
            assert gen_random(n, k, p, 1).num_edges() > 0

    @pytest.mark.parametrize("build, text, edge", [
        (Hypergraph.from_edge_list, "1000000000 3\n0 1 2\n", (0, 1, 2)),
        (Hypergraph.from_edge_list, "3000 2\n0 2999\n", (0, 2999)),
        (lambda _: Hypergraph(10**9, 3, [(0, 1, 2)]), "1000000000 3\n0 1 2\n", (0, 1, 2)),
    ], ids=["n-beyond-the-entries", "sparse", "constructed"])
    def test_memory_is_bounded_by_the_input(self, build, text, edge):
        # neither a table of n vertex names nor a 9 MB edge indicator, to
        # build the host or to write it back
        tracemalloc.start()
        try:
            H = build(text)
            written = H.to_edge_list()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert H.edges == {edge} and written == text

    def test_a_dense_load_holds_no_entry_list(self):
        # the indicator (0.9 MB), its masks and one chunk's columns, about
        # 1.4 MB: a list of the text's 415k entries and the k column lists
        # cut from it peak at 9.2 MB
        text = gen_random(96, 3, 0.97, 11).to_edge_list()
        tracemalloc.start()
        try:
            H = Hypergraph.from_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20
        assert H.to_edge_list() == text


@st.composite
def edge_list_texts(draw):
    """(n, k, edges, text): the host's edge list with its lines shuffled, the
    vertices of each line permuted, some lines repeated and blank lines between."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    edges = [e for e in itertools.combinations(range(n), k) if draw(st.booleans())]
    lines = [
        draw(st.sampled_from([" ", "  ", "\t"])).join(map(str, draw(st.permutations(e))))
        for e in edges
        for _ in range(draw(st.integers(1, 2)))
    ]
    text = [f"{n} {k}"]
    for line in draw(st.permutations(lines)):
        text += draw(st.lists(st.sampled_from(["", "  "]), max_size=1)) + [line]
    return n, k, edges, "\n".join(text) + "\n"


def bad_queries(n, k):
    """Vertex tuples that are never edges: a negative vertex, vertex n, a
    repeated vertex, the wrong arity and the empty tuple."""
    return [
        (-1,) + tuple(range(k - 1)),
        tuple(range(-k, 0)),
        tuple(range(k - 1)) + (n,),
        (0,) * max(k, 2),
        tuple(range(k + 1)),
        tuple(range(k - 1)),
        (),
    ]


class TestParsedHost:
    """A host parsed from an edge list keeps only its codegree masks."""

    @settings(max_examples=150, deadline=None)
    @given(edge_list_texts(), st.data())
    def test_parsed_host_equals_constructed_host(self, case, data):
        n, k, edges, text = case
        H = Hypergraph.from_edge_list(text)
        ref = Hypergraph(n, k, edges)
        # mask-only queries first, while H has no edge set
        for e in itertools.combinations(range(n), k):
            assert H.has_edge(e) == ref.has_edge(e)
            assert H.has_edge(reversed(e)) == ref.has_edge(e)
        for G in (H, ref):
            for q in bad_queries(n, k):
                assert G.has_edge(q) is False
        for U in itertools.combinations(range(n), k - 1):
            rest = sorted(set(range(n)) - set(U))
            assert H.degree(U, rest) == ref.degree(U, rest)
            S = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
            assert H.degree(U, S) == ref.degree(U, S)
        shipped = pickle.loads(pickle.dumps(H))
        assert shipped == ref
        # the derived edge set
        assert H.edges == ref.edges
        assert H.num_edges() == ref.num_edges()
        assert H == ref and hash(H) == hash(ref)
        assert H.to_edge_list().encode() == ref.to_edge_list().encode()
        if k == 2 and n >= 1:
            U = (data.draw(st.integers(0, n - 1)),)
            S = set(range(n)) - set(U)
            assert H.degree(U, S) == ref.degree(U, S)
        assert pickle.loads(pickle.dumps(H)) == ref

    def test_pipeline_never_derives_the_edge_set(self):
        def derived(self):
            raise AssertionError("the pipeline derived the edge set")

        with mock.patch.object(Hypergraph, "edges", property(derived)):
            H = Hypergraph.from_edge_list(complete(24, 3).to_edge_list())
            sv = size_vector(24, 6, 1, 3)
            spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
            part, _ = random_bisection(H, sv, spec, seed=3)
            assert check_good(H, part, spec.delta + spec.gamma / 2, sizes=sv.sizes).good
            assert stitch_cycle(H, part, 2) is not None
            assert stitch_power_cycle(H, part, 4) is not None
            small = Hypergraph.from_edge_list(complete(7, 3).to_edge_list())
            assert enumerate_hamilton_ell_cycles(small, 2) == 360
            edgeless = Hypergraph.from_edge_list("6 3\n")
            assert enumerate_hamilton_ell_cycles(edgeless, 2) == 0


@st.composite
def single_edges(draw):
    """(n, k, edge): k in 1..4 vertices in any order, either an edge of
    0..n-1, or with one vertex repeated or moved outside 0..n-1."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 9))
    edge = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    fault = draw(st.sampled_from(["none", "outside"] + ["repeated"] * (k >= 2)))
    if fault == "outside":
        edge[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-1, n, n + 5]))
    elif fault == "repeated":
        i, j = draw(st.permutations(range(k)))[:2]
        edge[i] = edge[j]
    return n, k, tuple(edge)


class TestOneValidator:
    """`Hypergraph(n, k, edges)` and `from_edge_list` run the same checks."""

    @settings(max_examples=200, deadline=None)
    @given(single_edges())
    def test_both_constructors_accept_and_reject_alike(self, case):
        n, k, edge = case
        text = f"{n} {k}\n{' '.join(map(str, edge))}\n"
        if len(set(edge)) == k and 0 <= min(edge) and max(edge) < n:
            assert Hypergraph(n, k, [edge])._conbr == Hypergraph.from_edge_list(text)._conbr
            return
        with pytest.raises(InvalidQueryError) as built:
            Hypergraph(n, k, [edge])
        with pytest.raises(InvalidQueryError) as parsed:
            Hypergraph.from_edge_list(text)
        assert str(built.value) == str(parsed.value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10 ** 6), st.data())
    def test_one_reversed_row_gives_the_sorted_host(self, k, seed, data):
        H = gen_random(data.draw(st.integers(k + 1, 12)), k, 0.5, seed)
        rows = sorted(H.edges)
        if not rows:
            return
        i = data.draw(st.integers(0, len(rows) - 1))
        reversed_rows = rows[:i] + [rows[i][::-1]] + rows[i + 1:]
        assert Hypergraph(H.n, k, reversed_rows)._conbr == H._conbr
        text = f"{H.n} {k}\n" + "".join(" ".join(map(str, e)) + "\n" for e in reversed_rows)
        assert Hypergraph.from_edge_list(text)._conbr == H._conbr

    def test_a_later_unsorted_row_with_a_repeat_is_named(self):
        with pytest.raises(InvalidQueryError, match=r"edge \(1, 1, 2\) is not a set of 3"):
            Hypergraph(4, 3, [(2, 1, 0), (0, 1, 3), (2, 1, 1), (1, 1, 3)])


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


@st.composite
def view_hosts(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 7))
    edges = [e for e in itertools.combinations(range(n), k) if draw(st.booleans())]
    return Hypergraph(n, k, edges)


class TestAnyOrderView:
    @settings(max_examples=80, deadline=None)
    @given(view_hosts())
    def test_every_ordering_reads_its_sorted_mask(self, H):
        view = H._any_order()
        for t in itertools.permutations(range(H.n), H.k - 1):
            assert view[t] == H._conbr.get(tuple(sorted(t)), 0)
        assert H._any_order() is view

    @settings(max_examples=80, deadline=None)
    @given(view_hosts())
    def test_a_filled_view_changes_no_host_query(self, H):
        shipped = pickle.dumps(H)
        # the tight cycle's search fills the view of any host with an edge
        count_copies(H, *PowerCycle.layout(H.k, H.k, H.n))
        assert bool(H._any_order()) == bool(H._conbr)
        fresh = Hypergraph(H.n, H.k, sorted(H.edges))
        assert H == fresh and hash(H) == hash(fresh)
        assert H.edges == fresh.edges and H.num_edges() == fresh.num_edges()
        assert H.to_edge_list() == fresh.to_edge_list()
        assert pickle.dumps(H) == shipped
        assert pickle.loads(shipped)._view is None


class TestGenerators:
    def test_complete_lists_every_k_subset(self):
        for n, k in ((6, 3), (5, 1), (4, 4), (2, 3), (0, 2)):
            assert complete(n, k).edges == frozenset(itertools.combinations(range(n), k))

    def test_complete_with_a_huge_k_is_edgeless_under_a_cap(self):
        # combinations(range(3), 10**9) allocates 10**9 indices before it finds
        # that there is no 10**9-subset, which a 400 MB address cap refuses
        code = (
            "import resource\n"
            "cap, hard = 400 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))\n"
            "from spancount.hypergraphs import complete\n"
            "H = complete(3, 10**9)\n"
            "print(H.n, H.k, H.num_edges())"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout) == (0, "3 1000000000 0\n"), out.stderr

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
