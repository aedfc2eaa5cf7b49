"""spancount benchmark: seeded CLI workloads driven in-process through `spancount.cli.main`.

One workload per run, in a fresh process:

    python3 bench/run.py --workload stitch --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client.  It generates its hosts
with `spancount generate` (set-up, timed several times and reported as
the median), then issues its fixed rotation of commands back to back,
in whole rotations, and stops at the rotation boundary nearest to
`--seconds`.  Afterwards every
report is re-verified with the library's own checkers; a command fails
if it raises, exits non-zero or fails that check.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, and with
`--trace 1` the per-layer metrics of a run whose layer boundaries are
wrapped (see tracing.py).  Spans of a traced run are written to
`.bench_out/` under the checkout.

Every workload, untraced and traced, with an environment block:

    python3 bench/run.py --all --seed 1 --seconds 50

The program is imported from the checkout's own `src/`; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "op_s.tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),  # after set-up and the first rotation
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import spancount from this checkout's src/, never from anywhere else."""
    package = SRC / "spancount"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no spancount package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spancount

    if Path(spancount.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"spancount was imported from {spancount.__file__}")
    return spancount


# -- one command -----------------------------------------------------------


def run_command(cli, argv, tracer=None):
    """Run one CLI command in-process; (seconds, report text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    if tracer is not None:
        tracer.enter("cli.main", True)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            error = f"exit {code}: {err.getvalue().strip()}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # a crash of the program under test is a failed command
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.leave()
    return perf_counter() - t0, out.getvalue(), error


# -- statistics ------------------------------------------------------------


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples beyond
    it once there are 100 samples; below that, too few for one, the 90th."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n
    pos = 0.9 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 90.0


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one workload run --------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    """Set up, loop, check; returns the result record (see main for its output)."""
    from spancount import Hypergraph, cli

    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cwd = os.getcwd()
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        # set-up: generate every host, several times; the last copy is used
        setups = []
        for i in range(wl.setup_repeats):
            directory = tmp / f"setup{i}"
            directory.mkdir()
            os.chdir(directory)
            gc.collect()
            t0 = perf_counter()
            workloads.generate(wl, seed)
            setups.append(perf_counter() - t0)

        tracer = instrumentation = None
        if trace:
            tracer = tracing.Tracer()
            instrumentation = tracing.Instrumentation(tracer)
            instrumentation.install()
        records = []  # (label, argv, seconds, report text, error)
        rotations = 0
        rotation_s = []
        t_loop = perf_counter()
        try:
            while True:
                t_rotation = perf_counter()
                for label, argv in workloads.rotation(wl, seed, rotations):
                    gc.collect()
                    if tracer is not None:
                        tracer.op = label
                    dt, text, error = run_command(cli, argv, tracer)
                    records.append((label, argv, dt, text, error))
                rotations += 1
                if rotations == 1:
                    # later rotations repeat the same kinds of command; their
                    # peak differs only by heap fragmentation
                    rss = peak_rss_mb()
                rotation_s.append(perf_counter() - t_rotation)
                # stop at the rotation boundary nearest to the deadline
                if perf_counter() - t_loop + statistics.median(rotation_s) / 2 >= seconds:
                    break
        finally:
            if instrumentation is not None:
                instrumentation.restore()

        # output check, outside the timed loop
        hosts = {}

        def load(path):
            if path not in hosts:
                hosts[path] = Hypergraph.from_edge_list(Path(path).read_text())
            return hosts[path]

        failures = []
        for label, argv, dt, text, error in records:
            if error is None:
                try:
                    problems = checks.report_problems(argv, json.loads(text), load)
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
                error = "; ".join(problems) or None
            if error is not None:
                failures.append((label, error))
        hosts.clear()
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # only when no other run is using it

    first = records[: len(wl.ops)]
    digest = hashlib.sha256(
        b"".join(label.encode() + b"\0" + text.encode() + b"\0" for label, _, _, text, _ in first)
    ).hexdigest()
    times = [r[2] for r in records]
    per_rotation = len(wl.ops)
    rotation_rates = [
        per_rotation / sum(times[i : i + per_rotation]) for i in range(0, len(times), per_rotation)
    ]
    by_label = {}
    for label, _, dt, _, _ in records:
        by_label.setdefault(label, []).append(dt)
    tail_value, tail_pct = tail(times)
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "commands": len(records),
        "rotations": rotations,
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest,
        "setup_runs": len(setups),
        "tail_percentile": tail_pct,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rotation_rates),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
            "peak_rss_mb": rss,
        },
        "failed_frac": len(failures) / len(records),
        "label_p50": {label: statistics.median(ts) for label, ts in by_label.items()},
    }
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer, len(records))
        result["self_sum_s"] = sum(tracing.layer_self_times(tracer).values())
        result["command_s"] = tracer.inclusive["cli.main"]
        result["not_instrumented"] = instrumentation.missing
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(str(spans))
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def print_result(result):
    """Human-readable lines for one run (everything but the final JSON line)."""
    n = result["commands"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{n} commands in {result['rotations']} rotations  failed {result['failed']}")
    for label, error in result["failures"]:
        print(f"  failed [{label}]: {error[:300]}")
    print(f"digest {result['digest']}  (reports of the first rotation)")
    print("  median seconds per command: " + "  ".join(
        f"{label} {t:.3f}" for label, t in result["label_p50"].items()))
    if result["trace"]:
        import tracing

        for name, value in result["per_layer"].items():
            unit, _, moves, where = tracing.PER_LAYER[name]
            print(f"  {name:30s} {value:14.6g} {unit:6s} per command; moves {moves} on {where}")
        print(f"  layer self times sum to {result['self_sum_s']:.4f} s; "
              f"traced command time {result['command_s']:.4f} s")
        if result["not_instrumented"]:
            print(f"  not instrumented (absent): {', '.join(result['not_instrumented'])}")
        print(f"  spans written to {result['spans_file']}")
        return
    samples = {
        "setup_s": f"median of {result['setup_runs']} set-ups",
        "ops_per_s": f"median of {result['rotations']} rotations",
        "op_s.p50": f"p50 of {n} commands",
        "op_s.tail": f"p{result['tail_percentile']:.1f} of {n} commands",
        "peak_rss_mb": "set-up and first rotation",
    }
    for name, value in result["end_to_end"].items():
        print(f"  {name:14s} {value:12.6g} {END_TO_END[name][0]:6s} {samples[name]}")
    print(f"  {'failed_frac':14s} {result['failed_frac']:12.6g} {'ratio':6s} "
          f"{result['failed']} of {n} commands")


def final_line(result):
    import tracing

    if result["trace"]:
        metrics, table = result["per_layer"], tracing.PER_LAYER
    else:
        metrics, table = result["end_to_end"], END_TO_END
    units = {name: spec[0] for name, spec in table.items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["commands"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


# -- the full report -----------------------------------------------------------


def run_all(seed, seconds):
    """Every workload in its own process, untraced then traced, plus an environment block."""
    import workloads

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    print("environment")
    print(f"  python     {platform.python_version()} ({platform.python_implementation()})")
    print(f"  platform   {platform.platform()}")
    print(f"  cpu_count  {os.cpu_count()}")
    print(f"  commit     {commit}")
    print(f"  seed       {seed}   seconds {seconds}")
    results = {}
    for name in workloads.TIMED + workloads.EXTRA:
        for trace in (0, 1) if name in workloads.TIMED else (0,):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace), "--details"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results[name, trace] = json.loads(lines[-2])
    print("\nend-to-end metrics (untraced runs)")
    print(f"  {'workload':12s} {'metric':14s} {'value':>12s} unit    samples")
    for name in workloads.TIMED + workloads.EXTRA:
        r = results[name, 0]
        n = r["commands"]
        rows = dict(r["end_to_end"], failed_frac=r["failed_frac"])
        for metric, value in rows.items():
            unit = END_TO_END.get(metric, ("ratio",))[0]
            count = {
                "setup_s": f"median of {r['setup_runs']} set-ups",
                "ops_per_s": f"median of {r['rotations']} rotations",
                "op_s.tail": f"p{r['tail_percentile']:.1f} of {n} commands",
                "peak_rss_mb": "set-up and first rotation",
                "failed_frac": f"{r['failed']} of {n} commands",
            }.get(metric, f"{n} commands")
            print(f"  {name:12s} {metric:14s} {value:12.6g} {unit:7s} {count}")
    print("\nper workload")
    for name in workloads.TIMED + workloads.EXTRA:
        r = results[name, 0]
        print(f"  {name:12s} commands {r['commands']:4d}  rotations {r['rotations']:3d}  "
              f"failed {r['failed']}  digest {r['digest'][:16]}")
        for label, error in r["failures"]:
            print(f"    failed [{label}]: {error[:200]}")
    print("\ntracing overhead (traced minus untraced mean command time)")
    for name in workloads.TIMED:
        plain = 1 / results[name, 0]["end_to_end"]["ops_per_s"]
        t = results[name, 1]
        traced = t["per_layer"]["cli.command_s"]
        selfs = t["self_sum_s"] / t["commands"]
        print(f"  {name:12s} untraced {plain:.4f} s  traced {traced:.4f} s  overhead "
              f"{traced - plain:+.4f} s  layer self times sum {selfs:.4f} s per command")
    print("\nper-layer metrics (traced runs, per command)")
    import tracing

    print(f"  {'metric':30s} " + " ".join(f"{n:>12s}" for n in workloads.TIMED))
    for metric, (unit, _, moves, where) in tracing.PER_LAYER.items():
        cells = " ".join(f"{results[n, 1]['per_layer'][metric]:12.5g}" for n in workloads.TIMED)
        print(f"  {metric:30s} {cells}  {unit}; moves {moves} on {where}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload of workloads.WORKLOADS")
    parser.add_argument("--all", action="store_true", help="run every workload and report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", action="store_true",
                        help="print the full result record before the final line")
    args = parser.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.all:
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_result(result)
    if args.details:
        print(json.dumps(result))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
