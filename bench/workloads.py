"""Seeded workloads: the hosts each one generates and the commands it cycles.

Every input is derived from the workload seed.  Hosts are `binomial`
hosts written by `spancount generate`; each command's own `--seed` is
derived from the workload seed, the rotation and the command's slot, so
a rerun with the same seed issues the same commands on the same files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import List, Tuple

from spancount import cli

# The stitching parameters every stitch and partition command shares.
PIPELINE = ("--delta", "1/2", "--gamma", "1/10")


@dataclass(frozen=True)
class Host:
    """One generated host: its file stem and its `generate` parameters."""

    name: str
    n: int
    k: int
    p: str


@dataclass(frozen=True)
class Op:
    """One slot of a rotation.

    `argv` names its hosts by stem; `seeded` commands get a derived `--seed`.
    """

    label: str
    argv: Tuple[str, ...]
    seeded: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hosts: Tuple[Host, ...]
    ops: Tuple[Op, ...]
    host_sets: int  # rotation r reads host set r % host_sets
    setup_repeats: int  # setup_s is the median over this many set-ups


def _stitch(label, host, *extra):
    return Op(label, ("stitch", "--input", host, "--m", "6") + PIPELINE + extra, True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stitch",
            why="full pipeline per command: host load and index build, bisection with "
            "substantive degree events, goodness scan, stitching of ell-cycles and cycle powers",
            hosts=(
                Host("n96k3", 96, 3, "0.97"),
                Host("n48k4", 48, 4, "0.97"),
                Host("n128k3", 128, 3, "0.97"),
            ),
            ops=(
                _stitch("a", "n96k3", "--ell", "2", "--trials", "8"),
                _stitch("b", "n48k4", "--ell", "3", "--trials", "4"),
                _stitch("c", "n96k3", "--t", "4", "--trials", "4"),
                _stitch("d", "n96k3", "--ell", "2", "--trials", "8", "--workers", "2"),
                # one trial per command: mostly the per-command host load and index build
                _stitch("e96", "n96k3", "--ell", "2", "--trials", "1"),
                _stitch("e48", "n48k4", "--ell", "2", "--trials", "1"),
                # n=128 is the smallest desk-scale host whose degree events are
                # substantive rather than clamped, and `partition` is the only
                # command that reports the bisection's event trace
                Op(
                    "p",
                    ("partition", "--input", "n128k3", "--m", "8", "--ell", "2", "--trials", "6")
                    + PIPELINE,
                    True,
                ),
            ),
            host_sets=1,
            setup_repeats=5,
        ),
        Workload(
            name="oracles",
            why="exhaustive enumeration, factor, absorber and bounds code on tiny "
            "hosts, where the index and partition layers do almost no work",
            hosts=(
                Host("n9k3", 9, 3, "0.9"),
                Host("n8k3", 8, 3, "0.9"),
                Host("n9k3s", 9, 3, "0.8"),
                Host("n12k4", 12, 4, "0.6"),
                Host("n14k3", 14, 3, "0.8"),
            ),
            # `count --ell 2` on n9k3 runs inside the psi command, which adds the
            # enumeration of K_9^(3); an odd number of slots keeps the median
            # command inside one kind instead of between two
            ops=(
                Op("count1", ("count", "--input", "n8k3", "--ell", "1"), False),
                Op("psi", ("count", "--input", "n9k3", "--ell", "2", "--delta", "9/10"), False),
                Op("relation", ("factors", "--input", "n9k3s", "--relation"), False),
                Op("factors", ("factors", "--input", "n12k4"), False),
                Op(
                    "absorb",
                    ("absorb-classify", "--input", "n14k3", "--ell", "2", "--t", "4",
                     "--limit", "5"),
                    False,
                ),
            ),
            # the commands' cost varies by host by up to a half: a fresh host set
            # for every rotation of a run averages that out
            host_sets=16,
            setup_repeats=15,
        ),
        # Not a timed workload: the stitch rotation's partition command on its
        # own, so that the full report shows it apart from the stitch commands.
        Workload(
            name="partition",
            why="the bisection's degree events on the smallest host where they are substantive",
            hosts=(Host("n128k3", 128, 3, "0.97"),),
            ops=(
                Op(
                    "partition",
                    ("partition", "--input", "n128k3", "--m", "8", "--ell", "2", "--trials", "6")
                    + PIPELINE,
                    True,
                ),
            ),
            host_sets=1,
            setup_repeats=5,
        ),
        # Not a timed workload: ell-cycle stitching where (k-ell) does not
        # divide ell, which the stitcher gets wrong on non-complete hosts.
        # The full report runs it so that those failures stay visible.
        Workload(
            name="stitch_ell1",
            why="ell=1 stitching, where (k-ell) does not divide ell",
            hosts=(Host("n96k3", 96, 3, "0.97"), Host("n48k4", 48, 4, "0.97")),
            ops=(
                _stitch("ell1_96", "n96k3", "--ell", "1", "--trials", "1"),
                _stitch("ell1_48", "n48k4", "--ell", "1", "--trials", "1"),
            ),
            host_sets=1,
            setup_repeats=1,
        ),
    )
}

TIMED = ("stitch", "oracles")
# run untimed by the full report only
EXTRA = ("partition", "stitch_ell1")


def derive(seed: int, *keys) -> int:
    """A 63-bit seed determined by the workload seed and the keys."""
    text = ":".join(str(x) for x in (seed,) + keys)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def host_file(host: str, host_set: int) -> str:
    return f"{host}.{host_set}.txt"


def generate(workload: Workload, seed: int) -> None:
    """Write every host file of the workload into the current directory."""
    for s in range(workload.host_sets):
        for h in workload.hosts:
            argv = [
                "generate", "--family", "binomial", "--n", str(h.n), "--k", str(h.k),
                "--p", h.p, "--seed", str(derive(seed, "host", h.name, s)),
                "--out", host_file(h.name, s),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0 or not os.path.exists(host_file(h.name, s)):
                raise RuntimeError(f"generate failed with exit code {code}: {argv}")


def rotation(workload: Workload, seed: int, r: int) -> List[Tuple[str, List[str]]]:
    """The (label, argv) commands of rotation r; host stems become file names."""
    host_set = r % workload.host_sets
    stems = {h.name for h in workload.hosts}
    commands = []
    for i, op in enumerate(workload.ops):
        argv = [host_file(a, host_set) if a in stems else a for a in op.argv]
        if op.seeded:
            argv += ["--seed", str(derive(seed, "op", r, i))]
        commands.append((op.label, argv))
    return commands
