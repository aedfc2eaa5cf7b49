"""Command-line interface: determinism, formats, and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    EllCycle,
    GoodnessSpec,
    Hypergraph,
    Partition,
    complete,
    derive_seed,
    gen_random,
    random_bisection,
    size_vector,
    stitch_cycle,
)
from spancount import cli, paths
from spancount.cli import _flatten, main


def run(tmp_path, *argv):
    return main(list(argv))


@pytest.fixture
def host(tmp_path):
    path = tmp_path / "host.txt"
    assert main(["generate", "--family", "binomial", "--n", "16", "--k", "3",
                 "--p", "0.8", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def _generated(family, *argv):
    """The file that `generate --family family` writes, and its report's edge count."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as report:
        out = Path(tmp) / "g.txt"
        assert main(["generate", "--family", family, *argv, "--out", str(out)]) == 0
        text = out.read_text()
    return text, json.loads(report.getvalue())["results"]["edges"]


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["generate", "--family", "binomial", "--n", "20", "--k", "3",
                         "--p", "1/2", "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_binomial_bytes_are_pinned(self, tmp_path):
        # every generated workload host goes through this path: its bytes must not move
        out = tmp_path / "g.txt"
        assert main(["generate", "--family", "binomial", "--n", "24", "--k", "3",
                     "--p", "1/2", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "eb8f4204dc3776f98f7d5727890e5be4f5b55cfc2fe106a958bee31087f0116f")

    @pytest.mark.parametrize("argv, digest", [
        (["binomial", "--n", "12", "--k", "4", "--p", "0.6", "--seed", "1"],
         "422d38c45e6f0f5a5094f21a22722e0ea4d57db7395edb040234025cab26e726"),
        (["binomial", "--n", "10", "--k", "2", "--p", "1/2", "--seed", "3"],
         "7aaae63f33122c0f72e8008acdd73e8421e36d5b6a03ae8a165ba495911d978f"),
        (["binomial", "--n", "7", "--k", "1", "--p", "1/2", "--seed", "2"],
         "9e74eb28a5f779f061b21cdfae303861ccef38d4e6601ba048ae9a173fec5f4b"),
        (["complete", "--n", "9", "--k", "4"],
         "0df6e31f1810445a579725d973bfc9d6e100b9d16d03e6841db48c56e77644bb"),
    ], ids=["n12k4", "n10k2", "n7k1", "complete-n9k4"])
    def test_more_bytes_are_pinned(self, tmp_path, argv, digest):
        # digests of files written by building the whole host and serializing it
        out = tmp_path / "g.txt"
        assert main(["generate", "--family", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), extra=st.integers(0, 6),
           p=st.sampled_from(["0", "1/2", "0.97", "1"]), seed=st.integers(0, 2**32))
    def test_streamed_binomial_is_the_built_host(self, k, extra, p, seed):
        # the oracle builds the host from every k-subset drawn in lexicographic order
        n = k + extra
        rng = random.Random(seed)
        expected = Hypergraph(
            n, k, [e for e in combinations(range(n), k) if rng.random() < float(Fraction(p))]
        ).to_edge_list()
        text, edges = _generated("binomial", "--n", str(n), "--k", str(k), "--p", p,
                                 "--seed", str(seed))
        assert text == expected
        assert gen_random(n, k, float(Fraction(p)), seed).to_edge_list() == expected
        assert edges == Hypergraph.from_edge_list(text).num_edges()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 9), k=st.integers(1, 5))
    def test_streamed_complete_is_the_built_host(self, n, k):
        text, edges = _generated("complete", "--n", str(n), "--k", str(k))
        assert text == complete(n, k).to_edge_list()
        if n < k:
            assert text == f"{n} {k}\n"
        assert edges == math.comb(n, k)

    @pytest.mark.parametrize("argv, message", [
        (["binomial", "--n", "5", "--k", "0"], "uniformity k=0 must be >= 1"),
        (["binomial", "--n", "2", "--k", "3"], "need n >= k, got n=2, k=3"),
        (["binomial", "--n", "-1", "--k", "1"], "need n >= k, got n=-1, k=1"),
        (["binomial", "--n", "5", "--k", "2", "--p", "2"], "probability p=2.0 out of [0, 1]"),
        (["binomial", "--n", "5", "--k", "2", "--p", "x"],
         "--p must be a rational number, got 'x'"),
        (["complete", "--n", "-1", "--k", "2"], "vertex count n=-1 must be >= 0"),
    ], ids=["k-zero", "n-below-k", "n-minus-1", "p-above-1", "p-not-a-number",
            "complete-n-minus-1"])
    def test_bad_input_is_2_and_makes_no_file(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.txt"
        assert main(["generate", "--family", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_never_overwrites(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        args = ["generate", "--family", "complete", "--n", "6", "--k", "2",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 2  # exclusive create refuses the second write

    def test_planted_cycle_needs_ell(self, tmp_path):
        assert main(["generate", "--family", "planted-cycle", "--n", "8", "--k", "3",
                     "--out", str(tmp_path / "x.txt")]) == 2


class TestReports:
    def test_json_report_deterministic(self, host, tmp_path):
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert main(["partition", "--input", host, "--m", "4", "--ell", "1",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "5",
                         "--seed", "9", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_csv_matches_json_fields(self, host, tmp_path):
        jout, cout = tmp_path / "r.json", tmp_path / "r.csv"
        base = ["partition", "--input", host, "--m", "4", "--ell", "1",
                "--delta", "1/2", "--gamma", "1/10", "--trials", "3", "--seed", "1"]
        assert main(base + ["--out", str(jout)]) == 0
        assert main(base + ["--out", str(cout), "--format", "csv"]) == 0
        report = json.loads(jout.read_text())
        report["config"]["params"]["format"] = "csv"  # only the format flag differs
        with open(cout) as fh:
            header, row = list(csv.reader(fh))
        assert dict(zip(header, row)) == _flatten(report)

    def test_report_embeds_config(self, tmp_path):
        hostfile = tmp_path / "pc.txt"
        assert main(["generate", "--family", "planted-cycle", "--n", "10", "--k", "3",
                     "--ell", "1", "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["count", "--input", str(hostfile), "--ell", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["command"] == "count"
        assert report["config"]["params"]["ell"] == 1
        assert "count" in report["results"]

    def test_reused_parser_leaks_no_defaults(self, tmp_path, capsys):
        # one parser serves every command of a process: generate's
        # report_to_stdout must not send a later count's report to stdout
        assert cli.build_parser() is cli.build_parser()
        hostfile, out = tmp_path / "k6.txt", tmp_path / "r.json"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(hostfile)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["command"] == "generate"
        assert main(["count", "--input", str(hostfile), "--ell", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["results"]["count"] == 60


class TestStitchCommand:
    def test_pipeline_and_worker_equivalence(self, tmp_path):
        hostfile = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(hostfile)]) == 0
        outs = []
        for name, workers in (("w1.json", "1"), ("w2.json", "2")):
            out = tmp_path / name
            assert main(["stitch", "--input", str(hostfile), "--ell", "1", "--m", "6",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "4",
                         "--seed", "2", "--workers", workers, "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        # worker count is config, not results: outcomes must agree
        assert outs[0]["results"] == outs[1]["results"]
        assert outs[0]["results"]["stitch_successes"] == 4
        cert = outs[0]["results"]["sample_certificate"]
        assert sorted(cert["order"]) == list(range(24))

        # a random host, with chunks of unequal size and a single trial
        binomial = tmp_path / "b24.txt"
        assert main(["generate", "--family", "binomial", "--n", "24", "--k", "3",
                     "--p", "0.97", "--seed", "4", "--out", str(binomial)]) == 0

        def results(trials, workers):
            out = tmp_path / f"b-{trials}-{workers}.json"
            assert main(["stitch", "--input", str(binomial), "--ell", "1", "--m", "6",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", str(trials),
                         "--seed", "5", "--workers", str(workers), "--out", str(out)]) == 0
            return json.loads(out.read_text())["results"]

        for trials, workers in ((4, 2), (3, 2), (1, 2)):
            assert results(trials, workers) == results(trials, 1)

    def test_the_pool_starts_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        # an inline stand-in for the pool records its size and starts no process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        hostfile = tmp_path / "k12.txt"
        assert main(["generate", "--family", "complete", "--n", "12", "--k", "3",
                     "--out", str(hostfile)]) == 0

        def results(workers):
            out = tmp_path / f"w{workers}.json"
            assert main(["stitch", "--input", str(hostfile), "--ell", "2", "--m", "3",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "2",
                         "--workers", str(workers), "--out", str(out)]) == 0
            return json.loads(out.read_text())["results"]

        assert results(1000) == results(1)
        assert sizes == [2]

    def test_a_worker_payload_ships_no_filled_view(self, monkeypatch):
        # a host whose any-order view a search has filled pickles as its masks
        # alone, so each worker fills a view of its own
        H = complete(12, 3)
        assert stitch_cycle(H, Partition((tuple(range(12)),)), 2) is not None
        filled = len(H._any_order())
        shipped = []

        class PicklingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                for item in items:
                    copy = pickle.loads(pickle.dumps(item))
                    assert copy[0] == H and copy[0]._view is None
                    shipped.append(copy[0])
                    yield fn(copy)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(cli, "_load_host", lambda path: H)
        assert main(["stitch", "--input", "k12.txt", "--ell", "2", "--m", "3", "--delta", "1/2",
                     "--gamma", "1/10", "--trials", "2", "--workers", "2"]) == 0
        assert len(shipped) == 2 and all(G._view for G in shipped)
        assert len(H._any_order()) == filled

    def test_verify_roundtrip(self, tmp_path):
        hostfile = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["stitch", "--input", str(hostfile), "--ell", "1", "--m", "6",
                     "--delta", "1/2", "--gamma", "1/10", "--trials", "1",
                     "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["results"]["sample_certificate"]
        struct = tmp_path / "struct.json"
        struct.write_text(json.dumps({"type": "ell-cycle", "ell": cert["param"],
                                      "order": cert["order"], "blocks": cert["blocks"]}))
        vout = tmp_path / "v.json"
        assert main(["verify", "--input", str(hostfile), "--structure", str(struct),
                     "--out", str(vout)]) == 0
        assert json.loads(vout.read_text())["results"]["valid"] is True


class TestExitCodes:
    def test_missing_input_is_2(self, tmp_path):
        assert main(["count", "--input", str(tmp_path / "nope.txt"), "--ell", "1"]) == 2

    def test_budget_exhaustion_is_3(self, host):
        assert main(["count", "--input", host, "--ell", "1", "--budget", "2"]) == 3

    def test_bad_structure_type_is_2(self, host, tmp_path):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"type": "mystery"}))
        assert main(["verify", "--input", host, "--structure", str(struct)]) == 2

    def test_non_integer_vertex_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 3\n0 1 x\n")
        assert main(["count", "--input", str(bad), "--ell", "2"]) == 2

    @pytest.mark.parametrize("text", [
        "6 3\n0 1\n",
        "6 3\n0 1 2 3\n",
        "6 3\n0 1 1\n",
        "6 3\n0 1 6\n",
        "6 3\n-1 0 1\n",
        "6 3\n0 1 2.5\n",
        "6\n0 1 2\n",
        "6 3 1\n0 1 2\n",
        "6 k\n0 1 2\n",
        "6 0\n",
        "-1 3\n",
        "",
        "\n  \n\n",
    ], ids=["k-1-entries", "k+1-entries", "repeated-vertex", "vertex-n", "vertex-minus-1",
            "non-integer-entry", "one-field-header", "three-field-header",
            "non-integer-header", "k-zero", "n-minus-1", "empty", "blank-lines-only"])
    def test_malformed_edge_list_is_2(self, tmp_path, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["count", "--input", str(bad), "--ell", "2"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("4 3\n0 1 2 3\n1 2\n", "edge line '0 1 2 3' does not hold 3 vertices"),
        ("4 3\n0 1 2\n1 2 4\n", "edge (1, 2, 4) has vertices outside 0..3"),
        ("4 3\n0 1 2\n-1 0 1\n", "edge (-1, 0, 1) has vertices outside 0..3"),
        ("4 3\n0 1 2\n1 1 2\n", "edge (1, 1, 2) is not a set of 3 distinct vertices"),
        ("4 3\n0 1 2\n0 1 x\n", "edge list entries must be integers"),
    ], ids=["k+1-beside-k-1-entries", "vertex-n", "vertex-minus-1", "repeated-vertex",
            "non-integer-entry"])
    def test_malformed_text_laid_out_canonically_names_its_fault(self, tmp_path, capsys,
                                                                 text, message):
        # each text holds at least n entries, so its tokens are looked up
        # before it is read again line by line
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["count", "--input", str(bad), "--ell", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("text, edges", [
        ("6 3\n0 1 2\n\n   \n1 2 3\n", [(0, 1, 2), (1, 2, 3)]),
        ("6 3\n2 0 1\n3 5 4\n", [(0, 1, 2), (3, 4, 5)]),
        ("6 3\n0 1 2\n1 2 3\n0 1 2\n2 1 0\n", [(0, 1, 2), (1, 2, 3)]),
        ("6 3\n", []),
        ("6 3\n0 1 2\n1 2 3", [(0, 1, 2), (1, 2, 3)]),
    ], ids=["blank-lines-between-edges", "unsorted-line", "duplicated-line", "header-only",
            "no-final-newline"])
    def test_lenient_edge_list_loads_the_canonical_host(self, tmp_path, text, edges):
        path = tmp_path / "host.txt"
        path.write_text(text)
        out = tmp_path / "r.json"
        assert main(["count", "--input", str(path), "--ell", "2", "--out", str(out)]) == 0
        H = cli._load_host(str(path))
        assert H == Hypergraph(6, 3, edges)
        assert H.to_edge_list() == "6 3\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)

    def test_non_numeric_delta_is_2(self, tmp_path):
        k6 = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(k6)]) == 0
        assert main(["count", "--input", str(k6), "--ell", "2", "--delta", "abc"]) == 2

    def test_structure_without_order_is_2(self, host, tmp_path):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"type": "ell-cycle", "ell": 1}))
        assert main(["verify", "--input", host, "--structure", str(struct)]) == 2

    def test_partition_without_delta_is_2(self, host, tmp_path):
        struct = tmp_path / "s.json"
        blocks = [list(range(8)), list(range(8, 16))]
        struct.write_text(json.dumps({"type": "partition", "blocks": blocks}))
        assert main(["verify", "--input", host, "--structure", str(struct)]) == 2

    @pytest.mark.parametrize("structure", [
        {"type": "ell-cycle", "ell": 1, "order": ["a", "b", "c", "d", "e", "f"]},
        {"type": "ell-cycle", "ell": "1", "order": [0, 1, 2, 3, 4, 5]},
        {"type": "decomposition", "copies": [[0, 1, "a"], [3, 4, 5]]},
        {"type": "partition", "delta": "1/2", "blocks": [[0, 1, 2], 5]},
        {"type": "decomposition", "pattern": ["3 3", "0 1 2"], "copies": [[0, 1, 2], [3, 4, 5]]},
        {"type": "decomposition", "pattern": 3, "copies": [[0, 1, 2], [3, 4, 5]]},
    ], ids=["string-order", "string-ell", "string-copy", "int-block", "list-pattern",
            "int-pattern"])
    def test_non_integer_structure_field_is_2(self, tmp_path, structure):
        k6 = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(k6)]) == 0
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(structure))
        assert main(["verify", "--input", str(k6), "--structure", str(struct)]) == 2

    def test_decomposition_pattern_of_another_uniformity_is_2(self, tmp_path, capsys):
        # verify rejects the pattern as factors --pattern does, with the same message
        k6 = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(k6)]) == 0
        pattern = tmp_path / "p.txt"
        pattern.write_text("3 2\n0 1\n")
        capsys.readouterr()
        assert main(["factors", "--input", str(k6), "--pattern", str(pattern)]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: pattern uniformity 2 != host uniformity 3")
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(
            {"type": "decomposition", "copies": [[0, 1, 2]], "pattern": "3 2\n0 1\n"}))
        assert main(["verify", "--input", str(k6), "--structure", str(struct)]) == 2
        assert capsys.readouterr().err == message

    def test_partition_with_an_empty_block_is_2(self, tmp_path, capsys):
        k6 = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(k6)]) == 0
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(
            {"type": "partition", "blocks": [[0, 1, 2, 3, 4, 5], []], "delta": "1/2"}))
        assert main(["verify", "--input", str(k6), "--structure", str(struct)]) == 2
        assert capsys.readouterr().err.startswith("error: block 1 is empty")

    @pytest.mark.parametrize("delta", ["-1", "3/2"])
    def test_partition_delta_outside_zero_one_is_2(self, tmp_path, capsys, delta):
        # the edgeless host makes every partition good at a negative delta
        h = tmp_path / "e6.txt"
        h.write_text("6 3\n")
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(
            {"type": "partition", "blocks": [[0, 1, 2], [3, 4, 5]], "delta": delta}))
        assert main(["verify", "--input", str(h), "--structure", str(struct)]) == 2
        assert capsys.readouterr().err.startswith(f"error: delta = {delta} must lie in [0, 1]")

    def test_zero_trials_is_2(self, host):
        assert main(["stitch", "--input", host, "--ell", "2", "--m", "2", "--delta", "1/2",
                     "--gamma", "1/10", "--trials", "0"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_2(self, host, workers):
        assert main(["stitch", "--input", host, "--ell", "2", "--m", "2", "--delta", "1/2",
                     "--gamma", "1/10", "--trials", "1", "--workers", workers]) == 2

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_2(self, tmp_path, limit):
        k7 = tmp_path / "k7.txt"
        assert main(["generate", "--family", "complete", "--n", "7", "--k", "3",
                     "--out", str(k7)]) == 0
        assert main(["absorb-classify", "--input", str(k7), "--ell", "2", "--t", "4",
                     "--limit", limit]) == 2

    @pytest.mark.parametrize("ell", ["5", "3", "0"])
    def test_absorb_ell_outside_one_to_k_is_2(self, tmp_path, capsys, ell):
        k7 = tmp_path / "k7.txt"
        assert main(["generate", "--family", "complete", "--n", "7", "--k", "3",
                     "--out", str(k7)]) == 0
        capsys.readouterr()
        assert main(["absorb-classify", "--input", str(k7), "--ell", ell, "--t", "4"]) == 2
        assert "--ell" in capsys.readouterr().err

    def test_exact_count_counts_the_stitched_power(self, tmp_path):
        # a tight cycle has no 4-clique, so it holds no power with t = 4
        tight = tmp_path / "c8.txt"
        tight.write_text(Hypergraph(8, 3, EllCycle(range(8), 3, 2).windows()).to_edge_list())
        argv = ["stitch", "--input", str(tight), "--m", "3", "--delta", "1/2",
                "--gamma", "1/10", "--trials", "1", "--exact-count"]
        for t, count in (("4", 0), ("3", 1)):  # t = k: the tight cycle itself
            out = tmp_path / f"r{t}.json"
            assert main(argv + ["--t", t, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["results"]["exact_count"] == count

    def test_stitch_budget_exhaustion_is_3(self, tmp_path):
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        argv = ["stitch", "--input", str(k24), "--ell", "1", "--m", "6", "--delta", "1/2",
                "--gamma", "1/10", "--trials", "2"]
        assert main(argv + ["--budget", "23"]) == 3  # 24 positions, one node each
        assert main(argv + ["--budget", "24"]) == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stitch_budget_exhaustion_names_the_trial(self, tmp_path, capsys, workers):
        # trials 0-2 stitch within 24 nodes, trial 3 needs 34
        path = tmp_path / "h.txt"
        assert main(["generate", "--family", "binomial", "--n", "24", "--k", "3",
                     "--p", "0.9", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["stitch", "--input", str(path), "--ell", "2", "--m", "6", "--delta", "0",
                "--gamma", "1/10", "--seed", "1", "--trials", "4", "--workers", workers]
        assert main(argv + ["--budget", "30"]) == 3
        err = capsys.readouterr().err
        assert err == "error: search budget 30 exhausted in stitch trial 3; result invalid\n"
        assert main(argv + ["--budget", "34", "--out", str(tmp_path / "r.json")]) == 0

    @staticmethod
    def stitch_hosts(tmp_path):
        """A tight 3-cycle on 8 vertices, where no trial is good, and K_24^(3)."""
        tight = tmp_path / "c8.txt"
        tight.write_text(Hypergraph(8, 3, EllCycle(range(8), 3, 2).windows()).to_edge_list())
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        return tight, k24

    def test_power_below_k_is_2_on_every_host(self, tmp_path):
        # rejected at the parse boundary, whether or not a trial is good
        for hostfile in self.stitch_hosts(tmp_path):
            assert main(["stitch", "--input", str(hostfile), "--t", "2", "--m", "3",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "1"]) == 2

    def test_power_beyond_n_is_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # checked before any trial, so the exit code does not hang on a partition being good
        hostfile = tmp_path / "h.txt"
        assert main(["generate", "--family", "binomial", "--n", "24", "--k", "3",
                     "--p", "0.9", "--seed", "1", "--out", str(hostfile)]) == 0
        capsys.readouterr()

        def no_trial(payload):
            raise AssertionError("a stitch trial ran")

        monkeypatch.setattr(cli, "_stitch_trial", no_trial)
        argv = ["stitch", "--input", str(hostfile), "--t", "30", "--m", "6", "--gamma", "1/10"]
        for extra in (["--delta", "1/2", "--trials", "1"], ["--delta", "0", "--trials", "3"]):
            assert main(argv + extra) == 2
            assert capsys.readouterr().err == "error: --t must lie in 3..24, got 30\n"

    @pytest.mark.parametrize("ell", ["3", "0", "-1"])
    def test_ell_outside_one_to_k_is_2_on_every_host(self, tmp_path, ell):
        for hostfile in self.stitch_hosts(tmp_path):
            assert main(["stitch", "--input", str(hostfile), "--ell", ell, "--m", "3",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["stitch", "--t", "4", "--ell", "9"],
        ["partition", "--ell", "2", "--divisor", "3"],
    ], ids=["stitch-t", "partition-divisor"])
    def test_ell_beside_the_option_it_would_override_is_2(self, tmp_path, argv):
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        assert main(argv + ["--input", str(k24), "--m", "6", "--delta", "1/2",
                            "--gamma", "1/10", "--trials", "1"]) == 2

    @pytest.mark.parametrize("n, t", [(9, "0"), (9, "-3"), (8, "2")])
    def test_planted_factor_below_k_is_2(self, tmp_path, n, t):
        assert main(["generate", "--family", "planted-factor", "--n", str(n), "--k", "3",
                     "--t", t, "--out", str(tmp_path / "f.txt")]) == 2

    @pytest.mark.parametrize("divisor", ["0", "-2"])
    def test_divisor_below_one_is_2(self, tmp_path, divisor):
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        assert main(["partition", "--input", str(k24), "--m", "6", "--delta", "1/2",
                     "--gamma", "1/10", "--trials", "1", "--divisor", divisor]) == 2

    @pytest.mark.parametrize("command", ["generate", "partition", "verify"])
    def test_budget_without_a_search_is_rejected(self, host, tmp_path, command):
        argv = {
            "generate": ["generate", "--family", "complete", "--n", "6", "--k", "3",
                         "--out", str(tmp_path / "g.txt")],
            "partition": ["partition", "--input", host, "--m", "2", "--delta", "1/2",
                          "--gamma", "1/10", "--trials", "1"],
            "verify": ["verify", "--input", host, "--structure", str(tmp_path / "s.json")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["count", "stitch", "factors", "absorb-classify"])
    def test_budget_below_zero_is_2_before_any_search(self, host, command):
        argv = {
            "count": ["count", "--input", host, "--ell", "1"],
            "stitch": ["stitch", "--input", host, "--ell", "2", "--m", "2", "--delta", "1/2",
                       "--gamma", "1/10", "--trials", "1"],
            "factors": ["factors", "--input", host],
            "absorb-classify": ["absorb-classify", "--input", host, "--ell", "2", "--t", "4"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "-1"])
        assert exc.value.code == 2
        assert cli.build_parser().parse_args(argv + ["--budget", "0"]).budget == 0

    @pytest.mark.parametrize("ell", ["-1", "3"])
    def test_partition_ell_outside_zero_to_k_is_2(self, tmp_path, capsys, ell):
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        capsys.readouterr()
        assert main(["partition", "--input", str(k24), "--m", "6", "--delta", "1/2",
                     "--gamma", "1/10", "--trials", "1", "--ell", ell]) == 2
        assert capsys.readouterr().err == f"error: --ell must lie in 0..2, got {ell}\n"


def _capped(tmp_path, *argv):
    """The CLI run on `argv` in a subprocess whose address space is capped
    at 400 MB, so that an allocation that grows with k fails there."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys\n"
        "cap, hard = 400 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))\n"
        "from spancount.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


class TestHugeUniformity:
    # a header's k sizes nothing that the host does not hold: a host with no
    # edge builds no column per position, so k = 10^9 fits under the cap

    @pytest.mark.parametrize("argv, message", [
        (["count", "--ell", "1"], "(k-ell)=999999999 must divide n=3"),
        (["stitch", "--ell", "1", "--m", "1", "--delta", "1/2", "--gamma", "1/10"],
         "(k-ell)=999999999 must divide n=3"),
        (["factors"], "|F| = 1000000000 must divide the 3 vertices to cover"),
    ], ids=["count", "stitch", "factors"])
    def test_commands_on_a_huge_k_header_exit_2(self, tmp_path, argv, message):
        (tmp_path / "h.txt").write_text("3 1000000000\n")
        out = _capped(tmp_path, argv[0], "--input", "h.txt", *argv[1:])
        assert (out.returncode, out.stderr) == (2, f"error: {message}\n")

    def test_generate_absorb_classify_and_partition_give_the_edgeless_host(self, tmp_path):
        out = _capped(tmp_path, "generate", "--family", "complete", "--n", "3",
                      "--k", "1000000000", "--out", "h.txt")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["results"]["edges"] == 0
        assert (tmp_path / "h.txt").read_text() == "3 1000000000\n"
        out = _capped(tmp_path, "absorb-classify", "--input", "h.txt", "--ell", "1", "--t", "5")
        assert out.returncode == 0, out.stderr
        results = json.loads(out.stdout)["results"]
        assert (results["classified"], results["good_sets"]) == ([], 0)
        # the goodness scan has no (k-1)-set to read, so the one trial is vacuously good
        out = _capped(tmp_path, "partition", "--input", "h.txt", "--m", "1", "--delta", "1/2",
                      "--gamma", "1/10", "--trials", "1")
        assert out.returncode == 0, out.stderr
        results = json.loads(out.stdout)["results"]
        assert (results["trials"], results["successes"]) == (1, 1)


class TestRationalOptions:
    # Python prints an int of at most 4,300 digits, so a report can hold no more
    @pytest.mark.parametrize("beta", ["1e-5000", "1e-100000000"])
    def test_huge_beta_is_2(self, host, capsys, monkeypatch, beta):
        # 1e-5000 failed as the report printed it, and 1e-100000000 took
        # longer than 10 s to build, so the text is checked before any build
        def no_build(*args):
            raise AssertionError("the option was built")

        monkeypatch.setattr(cli, "Fraction", no_build)
        assert main(["absorb-classify", "--input", host, "--ell", "1", "--t", "3",
                     "--beta", beta, "--limit", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: --beta must have at most 4300 digits in its numerator and denominator,"
            f" got {beta!r}\n")

    def test_huge_delta_is_2(self, host, capsys):
        assert main(["count", "--input", host, "--ell", "2", "--delta", "1e-100000000"]) == 2
        assert "--delta must have at most 4300 digits" in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [
        ("1e-4299", Fraction(1, 10 ** 4299)), ("25e-4301", Fraction(1, 4 * 10 ** 4299)),
        ("0e4301", Fraction(0)), ("1.5E2", Fraction(150)),
    ])
    def test_largest_values_pass(self, text, value):
        assert cli._fraction(text, "--p") == value

    @pytest.mark.parametrize("text", ["1e-4300", "1e4300", "3/" + "7" * 4301, "0e99999999"])
    def test_values_past_4300_digits_are_refused(self, text):
        with pytest.raises(cli.InvalidQueryError):
            cli._fraction(text, "--p")


class TestStitchTrial:
    def test_stitches_the_random_bisection_partition(self, monkeypatch):
        H = complete(24, 3)
        sv = size_vector(24, 3, 2, 3)
        spec = GoodnessSpec(Fraction(1, 2), Fraction(1, 10))
        stitched = []
        monkeypatch.setattr(cli, "stitch_cycle", lambda H, part, ell, **kw: stitched.append(part))
        for trial in range(3):
            payload = (H, sv, spec.delta + spec.gamma / 2, False, 2, 11, trial, None)
            assert cli._stitch_trial(payload) == (True, False, None)
            seed = derive_seed(11, "bisect", trial)
            assert stitched[-1] == random_bisection(H, sv, spec, seed)[0]


class TestCountCommand:
    def test_delta_outside_zero_one_is_2_before_any_search(self, host, capsys):
        # a one-node budget would run out in the host's own search first
        argv = ["count", "--input", host, "--ell", "2", "--budget", "1"]
        assert main(argv + ["--delta", "3/2"]) == 2
        assert capsys.readouterr().err == "error: --delta must lie in [0, 1], got 3/2\n"

    @pytest.mark.parametrize("text, ell, delta", [
        # Psi's denominator has 6,001 digits, past what str() prints
        (None, "2", "1e-1000"),
        # Psi = 199!/2, about 10^372, past the largest float
        ("200 2\n", "1", "1"),
    ], ids=["text", "float"])
    def test_psi_past_the_report_is_2(self, tmp_path, capsys, text, ell, delta):
        hostfile = tmp_path / "h.txt"
        if text is None:
            assert main(["generate", "--family", "binomial", "--n", "12", "--k", "4",
                         "--p", "0.3", "--seed", "4", "--out", str(hostfile)]) == 0
        else:
            hostfile.write_text(text)
        capsys.readouterr()
        assert main(["count", "--input", str(hostfile), "--ell", ell, "--delta", delta]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: Psi at --delta {delta} does not fit in the report")

    def test_budget_exhaustion_names_the_search(self, host, tmp_path, capsys):
        assert main(["count", "--input", host, "--ell", "1", "--budget", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: search budget 2 exhausted in the host's cycle search; result invalid\n")
        # an edgeless host needs no search of its own, so Psi's search on W runs out
        edgeless = tmp_path / "edgeless.txt"
        edgeless.write_text("16 3\n")
        assert main(["count", "--input", str(edgeless), "--ell", "1", "--delta", "1/2",
                     "--budget", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: search budget 1 exhausted in the cycle search on W, the window layout as"
            " a host; result invalid\n")

    def test_delta_searches_the_window_host_once(self, tmp_path, monkeypatch):
        # count's denominator and Psi read the same count on W
        k8 = tmp_path / "k8.txt"
        assert main(["generate", "--family", "complete", "--n", "8", "--k", "3",
                     "--out", str(k8)]) == 0
        hosts = []
        cycle_orders = paths._cycle_orders

        def spy(H, *args):
            hosts.append(H)
            return cycle_orders(H, *args)

        monkeypatch.setattr(paths, "_cycle_orders", spy)
        paths._window_count.cache_clear()
        assert main(["count", "--input", str(k8), "--ell", "1", "--delta", "1/2"]) == 0
        W = Hypergraph(8, 3, paths._windows(3, 2, 8, True))
        assert hosts == [complete(8, 3), W]

    def test_expected_random_count_beyond_enumeration(self, tmp_path):
        # the host is W, so its own search and the one on W (count's denominator,
        # which Psi shares) each spend 778 nodes; enumerating K_24^(3)'s
        # Hamilton 1-cycles would exhaust the budget
        hostfile = tmp_path / "pc.txt"
        assert main(["generate", "--family", "planted-cycle", "--n", "24", "--k", "3",
                     "--ell", "1", "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["count", "--input", str(hostfile), "--ell", "1", "--delta", "1/2",
                     "--budget", "2000", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["count"] == 1
        # 24!/24 Hamilton 1-cycles in K_24^(3), each with 12 edges
        assert results["expected_random"]["exact"] == "6311527524141840000"
        assert Fraction(results["expected_random"]["exact"]) == (
            Fraction(math.factorial(24), 24) / 2 ** 12)


class TestFactorsCommand:
    def test_planted_factor_recovered(self, tmp_path):
        hostfile = tmp_path / "pf.txt"
        assert main(["generate", "--family", "planted-factor", "--n", "9", "--k", "3",
                     "--t", "3", "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["factors", "--input", str(hostfile), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["factor_found"] is True
        assert report["results"]["count"] == 1

    def test_relation_flag(self, tmp_path):
        hostfile = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "2",
                     "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["factors", "--input", str(hostfile), "--relation",
                     "--out", str(out)]) == 0
        rel = json.loads(out.read_text())["results"]["matching_zero_cycle"]
        assert rel == {"matchings": 15, "zero_cycle_orderings": 15, "ratio_check": True}


class TestAbsorbCommand:
    def test_classify_complete(self, tmp_path):
        hostfile = tmp_path / "k8.txt"
        assert main(["generate", "--family", "complete", "--n", "8", "--k", "3",
                     "--out", str(hostfile)]) == 0
        out = tmp_path / "r.json"
        assert main(["absorb-classify", "--input", str(hostfile), "--ell", "1",
                     "--t", "3", "--limit", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["good_sets"] == 3
        assert all(c["count"] == 120 for c in report["results"]["classified"])

    @pytest.mark.parametrize("t, beta", [("400", "1/1000"), ("300", "1")])
    def test_threshold_beyond_a_float_is_2_before_any_search(
        self, tmp_path, capsys, monkeypatch, t, beta
    ):
        # 11^400 / 1000 and 11^300 are past the largest float; the size is
        # checked before the value is built, and no set is classified
        hostfile = tmp_path / "h.txt"
        assert main(["generate", "--family", "binomial", "--n", "11", "--k", "3",
                     "--p", "0.8", "--seed", "3", "--out", str(hostfile)]) == 0
        capsys.readouterr()

        def no_search(*args, **kwargs):
            raise AssertionError("classify_set ran")

        monkeypatch.setattr(cli, "classify_set", no_search)
        assert main(["absorb-classify", "--input", str(hostfile), "--ell", "2", "--t", t,
                     "--beta", beta, "--limit", "1"]) == 2
        assert "does not fit in a float" in capsys.readouterr().err

    def test_paths_longer_than_the_vertices_outside_S_count_0(self, tmp_path, capsys):
        hostfile = tmp_path / "h.txt"
        assert main(["generate", "--family", "binomial", "--n", "12", "--k", "3",
                     "--p", "0.9", "--seed", "1", "--out", str(hostfile)]) == 0
        capsys.readouterr()
        assert main(["absorb-classify", "--input", str(hostfile), "--ell", "2",
                     "--t", "100"]) == 0
        classified = json.loads(capsys.readouterr().out)["results"]["classified"]
        assert [c["count"] for c in classified] == [0] * 12

    def test_threshold_at_the_float_limit(self):
        # 2^1023 is a float and 2^1024 is not: the bound is the value's, not its logarithm's
        assert cli._threshold(Fraction(1), 2, 1023) == 2.0 ** 1023
        assert cli._threshold(Fraction(1, 2), 2, 1024) == 2.0 ** 1023
        with pytest.raises(cli.InvalidQueryError, match="does not fit in a float"):
            cli._threshold(Fraction(1), 2, 1024)
        # the limit is the least value that float() rounds past the largest float
        assert cli._threshold(Fraction(cli._FLOAT_LIMIT - 1), 1, 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(Fraction(cli._FLOAT_LIMIT))
        with pytest.raises(cli.InvalidQueryError, match="does not fit in a float"):
            cli._threshold(Fraction(cli._FLOAT_LIMIT), 1, 1)


def test_runtime_imports_only_the_standard_library():
    # numpy and friends may be installed; the package must not reach for them
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules)\n"
        "import spancount, spancount.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "spancount" in out
    allowed = set(sys.stdlib_module_names) | {"spancount", "__main__", "__mp_main__"}
    assert [m for m in out if m not in allowed] == []
