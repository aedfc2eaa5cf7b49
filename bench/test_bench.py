"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spancount import GoodnessSpec, complete, random_bisection, size_vector, stitch_cycle  # noqa: E402
from spancount.hypergraphs import Hypergraph  # noqa: E402

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _generated(directory, name, seed):
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        workloads.generate(workloads.WORKLOADS[name], seed)
    finally:
        os.chdir(cwd)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_workload_inputs_are_deterministic_in_the_seed(tmp_path):
    first = _generated(tmp_path / "a", "oracles", 7)
    assert first == _generated(tmp_path / "b", "oracles", 7)
    assert first != _generated(tmp_path / "c", "oracles", 8)
    stitch = workloads.WORKLOADS["stitch"]
    assert workloads.rotation(stitch, 7, 2) == workloads.rotation(stitch, 7, 2)
    assert workloads.rotation(stitch, 7, 2) != workloads.rotation(stitch, 8, 2)
    assert workloads.rotation(stitch, 7, 1) != workloads.rotation(stitch, 7, 2)


def _certificate():
    H = complete(24, 3)
    sv = size_vector(24, 6, 1, 3)
    part, _ = random_bisection(H, sv, GoodnessSpec(Fraction(1, 2), Fraction(1, 10)), seed=3)
    cert = json.loads(stitch_cycle(H, part, 2, seed=3).to_json())
    assert checks.certificate_problems(H, cert) == []
    return H, cert


def test_output_check_flags_a_corrupted_certificate():
    H, cert = _certificate()
    report = {"config": {"command": "stitch"},
              "results": {"sample_certificate": cert, "stitch_successes": 1}}
    argv = ["stitch", "--input", "host.txt"]
    assert checks.report_problems(argv, report, lambda path: H) == []

    # swap two vertices from the middle of different blocks' arcs: every window
    # is still an edge of the complete host, but the arcs are broken up
    order = cert["order"]
    i, j = len(order) // 4, 3 * len(order) // 4
    block_of = {v: b for b, block in enumerate(cert["blocks"]) for v in block}
    assert block_of[order[i]] != block_of[order[j]]
    order[i], order[j] = order[j], order[i]
    assert checks.report_problems(argv, report, lambda path: H)

    # drop one window's edge from the host
    H2, cert2 = _certificate()
    window = tuple(sorted(cert2["order"][:3]))
    sparse = Hypergraph(H2.n, H2.k, H2.edges - {window})
    assert checks.certificate_problems(sparse, cert2)


def test_output_check_flags_a_bad_factor_and_relation():
    H = complete(6, 3)
    argv = ["factors", "--input", "host.txt"]
    good = {"config": {"command": "factors"},
            "results": {"copies": [[0, 1, 2], [3, 4, 5]], "factor_found": True, "count": 10,
                        "matching_zero_cycle": {"ratio_check": True}}}
    assert checks.report_problems(argv, good, lambda path: H) == []
    overlapping = json.loads(json.dumps(good))
    overlapping["results"]["copies"] = [[0, 1, 2], [2, 4, 5]]
    assert checks.report_problems(argv, overlapping, lambda path: H)
    ratio = json.loads(json.dumps(good))
    ratio["results"]["matching_zero_cycle"]["ratio_check"] = False
    assert checks.report_problems(argv, ratio, lambda path: H)


def _final_line(capsys, trace):
    assert run.main(["--workload", "oracles", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"], "\n".join(lines[:-1])


def test_benchmark_json_records_each_workload_and_why():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in workloads.TIMED
    ]


@pytest.mark.parametrize("trace, key, table", [
    (0, "end_to_end", run.END_TO_END),
    (1, "per_layer", tracing.PER_LAYER),
])
def test_every_named_metric_is_printed(capsys, trace, key, table):
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
    assert declared == {name: spec[:2] for name, spec in table.items()}
    metrics, text = _final_line(capsys, trace)
    assert list(metrics) == list(declared)
    for name, (unit, _) in declared.items():
        assert metrics[name]["unit"] == unit
        assert name in text


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stitch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
