"""Command-line interface: determinism, formats, and exit codes."""

import csv
import json
from fractions import Fraction

import pytest

from spancount import (
    EllCycle,
    GoodnessSpec,
    Hypergraph,
    complete,
    derive_seed,
    random_bisection,
    size_vector,
)
from spancount import cli
from spancount.cli import _flatten, main


def run(tmp_path, *argv):
    return main(list(argv))


@pytest.fixture
def host(tmp_path):
    path = tmp_path / "host.txt"
    assert main(["generate", "--family", "binomial", "--n", "16", "--k", "3",
                 "--p", "0.8", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["generate", "--family", "binomial", "--n", "20", "--k", "3",
                         "--p", "1/2", "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
    ], ids=["string-order", "string-ell", "string-copy", "int-block"])
    def test_non_integer_structure_field_is_2(self, tmp_path, structure):
        k6 = tmp_path / "k6.txt"
        assert main(["generate", "--family", "complete", "--n", "6", "--k", "3",
                     "--out", str(k6)]) == 0
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(structure))
        assert main(["verify", "--input", str(k6), "--structure", str(struct)]) == 2

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

    def test_exact_count_of_a_power_beyond_k_is_2(self, tmp_path):
        # a tight cycle has no 4-clique, so it holds no power with t = 4
        tight = tmp_path / "c8.txt"
        tight.write_text(Hypergraph(8, 3, EllCycle(range(8), 3, 2).windows()).to_edge_list())
        argv = ["stitch", "--input", str(tight), "--m", "3", "--delta", "1/2",
                "--gamma", "1/10", "--trials", "1", "--exact-count"]
        assert main(argv + ["--t", "4"]) == 2
        out = tmp_path / "r.json"
        assert main(argv + ["--t", "3", "--out", str(out)]) == 0  # t = k: tight cycles
        assert json.loads(out.read_text())["results"]["exact_count"] == 1

    def test_stitch_budget_exhaustion_is_3(self, tmp_path):
        k24 = tmp_path / "k24.txt"
        assert main(["generate", "--family", "complete", "--n", "24", "--k", "3",
                     "--out", str(k24)]) == 0
        argv = ["stitch", "--input", str(k24), "--ell", "1", "--m", "6", "--delta", "1/2",
                "--gamma", "1/10", "--trials", "2"]
        assert main(argv + ["--budget", "23"]) == 3  # 24 positions, one node each
        assert main(argv + ["--budget", "24"]) == 0

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

    @pytest.mark.parametrize("ell", ["3", "0", "-1"])
    def test_ell_outside_one_to_k_is_2_on_every_host(self, tmp_path, ell):
        for hostfile in self.stitch_hosts(tmp_path):
            assert main(["stitch", "--input", str(hostfile), "--ell", ell, "--m", "3",
                         "--delta", "1/2", "--gamma", "1/10", "--trials", "1"]) == 2

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
