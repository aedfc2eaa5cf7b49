"""Batch command-line front-end with reproducible, seeded reports.

Every report embeds its full run configuration; re-running the same
configuration byte-reproduces the report.  A single root seed feeds a
keyed-hash schedule (see partition.derive_seed) so each stage and trial
draws independent, individually re-runnable randomness.  Reports are
append-only: output paths are opened exclusively and never overwritten.

Exit codes: 0 success, 2 invalid input, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from .absorb import AbsorberConfig, classify_set
from .bounds import expected_random_count
from .errors import BudgetExceededError, InvalidQueryError, SpancountError
from .factors import (
    FactorDecomposition,
    FactorSpec,
    factor_census,
    matching_zero_cycle_relation,
    single_edge_spec,
    verify_decomposition,
)
from .hypergraphs import GoodnessSpec, Hypergraph, complete, gen_random
from .partition import (
    Partition,
    check_good,
    derive_seed,
    draw_bisection,
    estimate_good_probability,
    size_vector,
)
from .paths import (
    EllCycle,
    EllPath,
    PowerCycle,
    enumerate_hamilton_ell_cycles,
    validate_windows,
)
from .stitch import is_respecting, lower_bound_count, stitch_cycle, stitch_power_cycle


# -- report plumbing -----------------------------------------------------


def _flatten(d: Dict, prefix: str = "") -> Dict[str, str]:
    flat: Dict[str, str] = {}
    for key, value in d.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = json.dumps(value)
    return flat


def emit_report(report: Dict, out: Optional[str], fmt: str) -> None:
    """Write the report as JSON or as a two-row CSV with dotted keys.

    The CSV cells are JSON-encoded values of the flattened report, so
    both formats carry identical fields and values.
    """
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        flat = _flatten(report)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        # exclusive create: reports are never silently overwritten
        with open(out, "x") as fh:
            fh.write(text)


def _config(args: argparse.Namespace, command: str) -> Dict:
    skip = {"func", "out", "command", "report_to_stdout"}
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }
    return {"tool": "spancount", "version": __version__, "command": command, "params": params}


def _load_host(path: str) -> Hypergraph:
    with open(path) as fh:
        return Hypergraph.from_edge_list(fh.read())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidQueryError(message)


def _fraction(text: str, option: str) -> Fraction:
    """A rational option value such as 1/2 or 0.97."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidQueryError(f"{option} must be a rational number, got {text!r}") from None


# -- generate ------------------------------------------------------------


def cmd_generate(args) -> Dict:
    planted = None
    if args.family == "complete":
        H = complete(args.n, args.k)
    elif args.family == "binomial":
        H = gen_random(args.n, args.k, float(_fraction(args.p, "--p")), args.seed)
    elif args.family == "planted-cycle":
        _require(args.ell is not None, "planted-cycle needs --ell")
        cycle = EllCycle(tuple(range(args.n)), args.k, args.ell)
        H = Hypergraph(args.n, args.k, cycle.windows())
        planted = {"type": "ell-cycle", "ell": args.ell, "order": list(cycle.order)}
    else:  # planted-factor
        _require(args.t is not None, "planted-factor needs --t")
        _require(args.n % args.t == 0, f"t = {args.t} must divide n = {args.n}")
        edges = []
        copies = []
        for start in range(0, args.n, args.t):
            block = list(range(start, start + args.t))
            copies.append(block)
            edges.extend(itertools.combinations(block, args.k))
        H = Hypergraph(args.n, args.k, edges)
        planted = {"type": "decomposition", "t": args.t, "copies": copies}
    with open(args.out, "x") as fh:
        fh.write(H.to_edge_list())
    report = {
        "config": _config(args, "generate"),
        "results": {"n": H.n, "k": H.k, "edges": H.num_edges(), "path": args.out},
    }
    if planted is not None:
        report["results"]["planted"] = planted
    return report


# -- partition -----------------------------------------------------------


def cmd_partition(args) -> Dict:
    H = _load_host(args.input)
    divisor = args.divisor
    if divisor is None:
        divisor = H.k - args.ell if args.ell is not None else 1
    sv = size_vector(H.n, args.m, divisor, H.k)
    spec = GoodnessSpec(_fraction(args.delta, "--delta"), _fraction(args.gamma, "--gamma"))
    est = estimate_good_probability(H, sv, spec, args.trials, args.seed)
    return {
        "config": _config(args, "partition"),
        "results": {
            "sizes": list(sv.sizes),
            "r": sv.r,
            "goodness_fraction": est.fraction,
            "wilson_low": est.wilson_low,
            "wilson_high": est.wilson_high,
            "successes": est.successes,
            "trials": est.trials,
            "level_conditional": [list(pair) for pair in est.level_conditional],
        },
    }


# -- stitch (the full pipeline) ------------------------------------------


def _stitch_trial(payload) -> tuple:
    """One pipeline trial: bisect, check goodness, stitch.

    Top-level function so worker processes can unpickle it; returns
    (good, stitched, certificate JSON or None).
    """
    H, sv, target, power_mode, param, root_seed, trial, budget = payload
    part = Partition(tuple(draw_bisection(H, sv, derive_seed(root_seed, "bisect", trial))[-1]))
    report = check_good(H, part, target, sizes=sv.sizes, max_violations=1)
    if not report.good:
        return (False, False, None)
    if power_mode:
        cert = stitch_power_cycle(H, part, param, node_budget=budget)
    else:
        cert = stitch_cycle(H, part, param, node_budget=budget)
    return (True, cert is not None, cert.to_json() if cert is not None else None)


def cmd_stitch(args) -> Dict:
    H = _load_host(args.input)
    power_mode = args.t is not None
    _require(
        power_mode or args.ell is not None,
        "stitch needs --ell (ell-cycles) or --t (powers of tight cycles)",
    )
    _require(not power_mode or args.t >= H.k, f"--t must be >= k = {H.k}, got {args.t}")
    _require(
        power_mode or 1 <= args.ell < H.k, f"--ell must be >= 1 and < k = {H.k}, got {args.ell}"
    )
    _require(args.trials >= 1, "--trials must be >= 1")
    _require(args.workers >= 1, "--workers must be >= 1")
    _require(
        not (args.exact_count and power_mode) or args.t == H.k,
        f"--exact-count counts Hamilton tight cycles, so with --t it needs t = k = {H.k}",
    )
    divisor = 1 if power_mode else H.k - args.ell
    sv = size_vector(H.n, args.m, divisor, H.k)
    spec = GoodnessSpec(_fraction(args.delta, "--delta"), _fraction(args.gamma, "--gamma"))
    target = spec.delta + spec.gamma / 2
    param = args.t if power_mode else args.ell

    payloads = [
        (H, sv, target, power_mode, param, args.seed, trial, args.budget)
        for trial in range(args.trials)
    ]
    if args.workers > 1:
        # one chunk per worker: a chunk is pickled once, so its trials share
        # one copy of H and the codegree index its first trial builds
        chunksize = -(-args.trials // args.workers)
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(_stitch_trial, payloads, chunksize=chunksize))
    else:
        outcomes = [_stitch_trial(p) for p in payloads]

    good_count = sum(1 for good, _, _ in outcomes if good)
    stitched = sum(1 for _, ok, _ in outcomes if ok)
    sample_cert = next((json.loads(c) for _, _, c in outcomes if c is not None), None)

    lb = lower_bound_count(H.n, sv)
    results = {
        "sizes": list(sv.sizes),
        "trials": args.trials,
        "good_partitions": good_count,
        "goodness_fraction": good_count / args.trials,
        "stitch_attempts": good_count,
        "stitch_successes": stitched,
        "stitch_success_rate": (stitched / good_count) if good_count else 0.0,
        "lower_bound": {"lo": str(lb.lo), "hi": str(lb.hi), "float": lb.midpoint_float()},
        "sample_certificate": sample_cert,
    }
    if args.exact_count:
        ell = H.k - 1 if power_mode else args.ell
        results["exact_count"] = enumerate_hamilton_ell_cycles(H, ell, budget=args.budget)
    return {"config": _config(args, "stitch"), "results": results}


# -- count ---------------------------------------------------------------


def cmd_count(args) -> Dict:
    H = _load_host(args.input)
    delta = None if args.delta is None else _fraction(args.delta, "--delta")
    count = enumerate_hamilton_ell_cycles(H, args.ell, mode="count", budget=args.budget)
    results = {"n": H.n, "k": H.k, "ell": args.ell, "count": count}
    if delta is not None:
        psi = expected_random_count(H.n, H.k, args.ell, delta, budget=args.budget)
        results["expected_random"] = {
            "exact": str(psi.exact_value),
            "float": float(psi.exact_value),
        }
    return {"config": _config(args, "count"), "results": results}


# -- factors -------------------------------------------------------------


def cmd_factors(args) -> Dict:
    H = _load_host(args.input)
    spec = FactorSpec(_load_host(args.pattern)) if args.pattern else single_edge_spec(H.k)
    count, dec = factor_census(H, spec, budget=args.budget)
    results = {
        "n": H.n,
        "k": H.k,
        "pattern_vertices": spec.t,
        "factor_found": dec is not None,
        "copies": [list(c) for c in dec.copies] if dec else None,
        "count": count,
    }
    if args.relation:
        rel = matching_zero_cycle_relation(H, budget=args.budget)
        results["matching_zero_cycle"] = {
            "matchings": rel.matchings,
            "zero_cycle_orderings": rel.zero_cycle_orderings,
            "ratio_check": rel.ratio_check,
        }
    return {"config": _config(args, "factors"), "results": results}


# -- absorb-classify -----------------------------------------------------


def cmd_absorb_classify(args) -> Dict:
    H = _load_host(args.input)
    cfg = AbsorberConfig(_fraction(args.beta, "--beta"), args.t)
    _require(args.limit is None or args.limit >= 1, "--limit must be >= 1")
    sets = list(itertools.combinations(range(H.n), H.k - args.ell))[:args.limit]
    classified = []
    for S in sets:
        count, good = classify_set(H, S, cfg, args.ell, budget=args.budget)
        classified.append({"set": list(S), "count": count, "good": good})
    results = {
        "n": H.n,
        "k": H.k,
        "ell": args.ell,
        "t_abs": args.t,
        "beta": str(cfg.beta),
        "threshold": float(cfg.beta * H.n ** args.t),
        "classified": classified,
        "good_sets": sum(1 for c in classified if c["good"]),
    }
    return {"config": _config(args, "absorb-classify"), "results": results}


# -- verify --------------------------------------------------------------


def cmd_verify(args) -> Dict:
    H = _load_host(args.input)
    with open(args.structure) as fh:
        data = json.load(fh)
    _require(isinstance(data, dict), "structure JSON must be an object")
    kind = data.get("type") or data.get("kind")

    def field(*names):
        """The value of the first of `names` that the structure has."""
        for name in names:
            if name in data:
                return data[name]
        raise InvalidQueryError(f"{kind} structure needs {' or '.join(names)}")

    def integers(depth: int, *names):
        """field(*names) as an int (depth 0) or as tuples of ints nested `depth` deep."""

        def check(value, level: int):
            if level == 0:
                _require(type(value) is int, f"{kind} {names[0]} must hold only integers")
                return value
            _require(isinstance(value, list), f"{kind} {names[0]} must be a list")
            return tuple(check(v, level - 1) for v in value)

        return check(field(*names), depth)

    if kind in ("ell-path", "ell-cycle", "power-cycle"):
        order = integers(1, "order")
        if kind == "ell-path":
            structure = EllPath(order, H.k, integers(0, "ell"))
        elif kind == "ell-cycle":
            structure = EllCycle(order, H.k, integers(0, "ell", "param"))
        else:
            structure = PowerCycle(order, integers(0, "t", "param"), H.k)
        valid = validate_windows(H, structure)
        if valid and kind != "ell-path" and "blocks" in data:
            valid = is_respecting(structure, Partition(integers(2, "blocks")))
    elif kind == "decomposition":
        if "pattern" in data:
            spec = FactorSpec(Hypergraph.from_edge_list(data["pattern"]))
        else:
            spec = single_edge_spec(H.k)
        valid = verify_decomposition(H, spec, FactorDecomposition(integers(2, "copies")))
    elif kind == "partition":
        part = Partition(integers(2, "blocks"))
        valid = check_good(H, part, _fraction(str(field("delta")), "delta")).good
    else:
        raise SpancountError(f"unknown structure type {kind!r}")
    return {"config": _config(args, "verify"), "results": {"type": kind, "valid": bool(valid)}}


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spancount",
        description="Partitions, stitched Hamilton structures, and exact counts "
        "in dense uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seeded=True, report=True, searches=True):
        if report:
            p.add_argument("--out", help="report path (stdout if omitted); never overwritten")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if searches:
            p.add_argument("--budget", type=int, help="search node budget")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("generate", help="write a hypergraph edge-list file")
    g.add_argument("--family", required=True,
                   choices=("complete", "binomial", "planted-cycle", "planted-factor"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--ell", type=int, help="overlap for planted-cycle")
    g.add_argument("--t", type=int, help="block size for planted-factor")
    g.add_argument("--p", type=str, default="1/2", help="edge probability for binomial")
    g.add_argument("--out", required=True, help="edge-list path; never overwritten")
    common(g, report=False, searches=False)
    g.set_defaults(func=cmd_generate, report_to_stdout=True)

    p = sub.add_parser("partition", help="estimate goodness probability of random partitions")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, help="block sizes forced divisible by k-ell")
    p.add_argument("--divisor", type=int, help="explicit block size divisor")
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--gamma", type=str, required=True)
    p.add_argument("--trials", type=int, default=100)
    common(p, searches=False)
    p.set_defaults(func=cmd_partition)

    s = sub.add_parser("stitch", help="full pipeline: bisect, check goodness, stitch")
    s.add_argument("--input", required=True)
    s.add_argument("--ell", type=int)
    s.add_argument("--t", type=int, help="window width: stitch powers of tight cycles")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--delta", type=str, required=True)
    s.add_argument("--gamma", type=str, required=True)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--workers", type=int, default=1, help="trial-level parallelism")
    s.add_argument("--exact-count", action="store_true",
                   help="also run the exact cycle enumerator for comparison")
    common(s)
    s.set_defaults(func=cmd_stitch)

    c = sub.add_parser("count", help="exact Hamilton ell-cycle enumeration")
    c.add_argument("--input", required=True)
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--delta", type=str,
                   help="also report the expected count in a random host at this density")
    common(c, seeded=False)
    c.set_defaults(func=cmd_count)

    f = sub.add_parser("factors", help="find and count F-factors")
    f.add_argument("--input", required=True)
    f.add_argument("--pattern", help="edge-list file for the pattern F; default: single edge")
    f.add_argument("--relation", action="store_true",
                   help="also check the matching / 0-cycle relation")
    common(f, seeded=False)
    f.set_defaults(func=cmd_factors)

    a = sub.add_parser("absorb-classify", help="classify (k-ell)-sets by absorbing path count")
    a.add_argument("--input", required=True)
    a.add_argument("--ell", type=int, required=True)
    a.add_argument("--t", type=int, required=True, help="absorber path vertex count")
    a.add_argument("--beta", type=str, default="1/1000", help="good-set density parameter")
    a.add_argument("--limit", type=int, help="classify only the first N sets")
    common(a, seeded=False)
    a.set_defaults(func=cmd_absorb_classify)

    v = sub.add_parser("verify", help="validate a structure JSON against a host")
    v.add_argument("--input", required=True)
    v.add_argument("--structure", required=True)
    common(v, seeded=False, searches=False)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        out = None if getattr(args, "report_to_stdout", False) else args.out
        emit_report(report, out, args.format)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpancountError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
