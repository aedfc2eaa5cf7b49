"""Output check: re-verify what a command reports with the library's own checkers.

A command whose report fails any check here counts as failed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from spancount import Hypergraph
from spancount.errors import SpancountError
from spancount.factors import FactorDecomposition, single_edge_spec, verify_decomposition
from spancount.partition import Partition
from spancount.paths import EllCycle, PowerCycle, validate_ell_cycle, validate_power_cycle
from spancount.stitch import is_respecting


def certificate_problems(H: Hypergraph, cert: Dict) -> List[str]:
    """Why a stitched certificate is not a valid partition-respecting cycle of H."""
    try:
        part = Partition(tuple(tuple(b) for b in cert["blocks"]))
        if cert["kind"] == "ell-cycle":
            cycle = EllCycle(tuple(cert["order"]), cert["k"], cert["param"])
            valid = validate_ell_cycle(H, cycle)
        elif cert["kind"] == "power-cycle":
            cycle = PowerCycle(tuple(cert["order"]), cert["param"], cert["k"])
            valid = validate_power_cycle(H, cycle)
        else:
            return [f"unknown certificate kind {cert['kind']!r}"]
        if not valid:
            return ["certificate has a window that is not an edge of the host"]
        if not is_respecting(cycle, part):
            return ["certificate does not respect its partition"]
    except (SpancountError, KeyError, TypeError) as exc:
        return [f"malformed certificate: {type(exc).__name__}: {exc}"]
    return []


def report_problems(argv: List[str], report: Dict, load: Callable[[str], Hypergraph]) -> List[str]:
    """Problems in one command's parsed report; `load` maps an input path to its host."""
    command = argv[0]
    if report.get("config", {}).get("command") != command:
        return [f"report is not a {command} report"]
    results = report["results"]
    host = argv[argv.index("--input") + 1]
    problems: List[str] = []
    if command == "stitch":
        cert = results["sample_certificate"]
        if (cert is None) != (results["stitch_successes"] == 0):
            problems.append("sample certificate disagrees with the success count")
        if cert is not None:
            problems += certificate_problems(load(host), cert)
    elif command == "factors":
        copies = results["copies"]
        if (copies is not None) != results["factor_found"] or results["factor_found"] != (
            results["count"] > 0
        ):
            problems.append("factor_found, copies and count disagree")
        if copies is not None:
            H = load(host)
            dec = FactorDecomposition(tuple(tuple(c) for c in copies))
            if not verify_decomposition(H, single_edge_spec(H.k), dec):
                problems.append("reported factor is not a decomposition of the host")
        relation = results.get("matching_zero_cycle")
        if relation is not None and relation["ratio_check"] is not True:
            problems.append("matching / 0-cycle ratio check is false")
    elif command == "partition":
        if not 0 <= results["successes"] <= results["trials"]:
            problems.append("successes outside [0, trials]")
    return problems
