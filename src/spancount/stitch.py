"""Assembling partition-respecting Hamilton structures.

Given a good partition (V_1, ..., V_r), pick a junction tuple v_i in
each block, solve each H[V_i + previous junction] for a Hamilton
ell-path between consecutive junctions, and concatenate
L_1 v_1 L_2 v_2 ... L_r v_r into a Hamilton ell-cycle whose blocks
occupy consecutive arcs.  A power of a tight cycle is the same
construction with ell = t-1 in the t-clique graph.  Junction tuples
are retried under a budget: the asymptotic guarantees that make
arbitrary junctions work do not hold at desk scale, so failed
per-block solves trigger reselection.

Every returned certificate is validated before it leaves this module.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .bounds import RationalBracket, exp_neg_bracket, multinomial
from .errors import DivisibilityError, InvalidQueryError
from .hypergraphs import Hypergraph
from .partition import Partition, SizeVector
from .paths import (
    EllCycle,
    PowerCycle,
    _Budget,
    _cliques,
    _search_cycle,
    _search_path,
    clique_graph,
    validate_ell_cycle,
    validate_power_cycle,
)


@dataclass(frozen=True)
class RespectingCertificate:
    """A partition-respecting cycle plus the junctions that built it."""

    order: Tuple[int, ...]
    partition: Partition
    junctions: Tuple[Tuple[int, ...], ...]
    segments: Tuple[Tuple[int, ...], ...]
    kind: str  # "ell-cycle" or "power-cycle"
    k: int
    param: int  # ell for ell-cycles, window width t for power cycles

    def cycle(self) -> EllCycle:
        if self.kind != "ell-cycle":
            raise InvalidQueryError("certificate does not hold an ell-cycle")
        return EllCycle(self.order, self.k, self.param)

    def power_cycle(self) -> PowerCycle:
        if self.kind != "power-cycle":
            raise InvalidQueryError("certificate does not hold a power cycle")
        return PowerCycle(self.order, self.param, self.k)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "k": self.k,
                "param": self.param,
                "order": list(self.order),
                "blocks": [list(b) for b in self.partition.blocks],
                "junctions": [list(j) for j in self.junctions],
            }
        )


def is_respecting(C, P: Partition) -> bool:
    """True iff the blocks appear as consecutive arcs, in cyclic block
    order, for one of the two directions of C.

    C may be any object with a cyclic `.order` tuple (EllCycle,
    PowerCycle, or a certificate view); only the ordering matters.
    """
    if set(C.order) != set(P.vertex_set()):
        raise InvalidQueryError("cycle must span exactly the partition's vertices")
    block_of = P.block_of()
    for direction in (C.order, C.order[::-1]):
        ids = [block_of[v] for v in direction]
        runs = _cyclic_runs(ids)
        if len(runs) == P.r and _is_cyclic_shift_of_range(runs, P.r):
            return True
        if P.r == 1 and len(runs) == 1:
            return True
    return False


def _cyclic_runs(ids: Sequence[int]) -> List[int]:
    """Collapse cyclically-consecutive equal entries into one per run."""
    runs: List[int] = []
    for x in ids:
        if not runs or runs[-1] != x:
            runs.append(x)
    if len(runs) > 1 and runs[0] == runs[-1]:
        runs.pop()
    return runs


def _is_cyclic_shift_of_range(runs: Sequence[int], r: int) -> bool:
    start = runs[0]
    return all(runs[i] == (start + i) % r for i in range(len(runs)))


def respecting_multiplicity(C: EllCycle, sv) -> int:
    """Exact number of ordered partitions with the given block sizes
    that C respects, over both directions and all rotations."""
    sizes = tuple(sv.sizes) if isinstance(sv, SizeVector) else tuple(sv)
    n = len(C.order)
    if sum(sizes) != n:
        raise InvalidQueryError(f"sizes sum to {sum(sizes)}, cycle has {n} vertices")
    seen = set()
    for direction in (C.order, C.order[::-1]):
        for rot in range(n):
            seq = direction[rot:] + direction[:rot]
            blocks = []
            pos = 0
            for size in sizes:
                blocks.append(frozenset(seq[pos:pos + size]))
                pos += size
            seen.add(tuple(blocks))
    return len(seen)


# -- the stitch loop ------------------------------------------------------


def stitch_cycle(
    H: Hypergraph,
    P: Partition,
    ell: int,
    junction_budget: int = 20,
    node_budget: Optional[int] = None,
    seed: int = 0,
) -> Optional[RespectingCertificate]:
    """Build a P-respecting Hamilton ell-cycle, or None.

    Each attempt samples one junction ell-tuple per block, solves every
    H[V_i + previous junction] for a Hamilton ell-path between the
    junctions, and concatenates.  Up to `junction_budget` attempts.
    """
    k = H.k
    if not 1 <= ell < k:
        raise InvalidQueryError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    gap = k - ell
    for block in P.blocks:
        if len(block) % gap != 0:
            raise DivisibilityError(
                f"(k-ell)={gap} must divide every block size, got {len(block)}"
            )
        if len(block) < 2 * ell + gap:
            raise InvalidQueryError(
                f"block of size {len(block)} too small for junctions (need >= {2 * ell + gap})"
            )

    def sample_junctions(rng: random.Random) -> List[Tuple[int, ...]]:
        return [tuple(rng.sample(block, ell)) for block in P.blocks]

    found = _stitch(P, ell, gap, lambda pool: H, sample_junctions,
                    junction_budget, node_budget, seed)
    return _certified(H, P, "ell-cycle", ell, found)


def stitch_power_cycle(
    H: Hypergraph,
    P: Partition,
    t: int,
    junction_budget: int = 20,
    node_budget: Optional[int] = None,
    seed: int = 0,
) -> Optional[RespectingCertificate]:
    """Build a P-respecting (t-k+1)th power of a Hamilton tight cycle.

    This is a Hamilton (t-1)-cycle of the t-clique graph, stitched like
    an ell-cycle: junctions are (t-1)-cliques found inside each block,
    and per-block solves are Hamilton tight paths in the t-clique graph
    of V_i + previous junction.
    """
    if t < H.k:
        raise InvalidQueryError(f"window width t={t} must be >= k={H.k}")
    for block in P.blocks:
        if len(block) < 2 * (t - 1) + 1:
            raise InvalidQueryError(
                f"block of size {len(block)} too small to host (t-1)-clique junctions"
            )

    def sample_junctions(rng: random.Random) -> Optional[List[Tuple[int, ...]]]:
        junctions = []
        for block in P.blocks:
            cliques = _all_cliques(H, t - 1, block)
            if not cliques:
                return None
            junctions.append(rng.choice(cliques))
        return junctions

    found = _stitch(P, t - 1, 1, lambda pool: clique_graph(H, t, pool), sample_junctions,
                    junction_budget, node_budget, seed)
    return _certified(H, P, "power-cycle", t, found)


def _stitch(
    P: Partition,
    ell: int,
    gap: int,
    host_for: Callable[[Sequence[int]], Hypergraph],
    sample_junctions: Callable[[random.Random], Optional[List[Tuple[int, ...]]]],
    junction_budget: int,
    node_budget: Optional[int],
    seed: int,
) -> Optional[Tuple[Tuple[int, ...], tuple, tuple]]:
    """(cycle order, junctions, segments) of an ell-cycle that respects P
    in the hosts `host_for(pool)`, whose edges have ell + gap vertices;
    None if every attempt fails or a block has no junction."""
    rng = random.Random(seed)
    if P.r == 1:
        # single block: no junctions to stitch, solve the cycle directly
        block = P.blocks[0]
        order = _search_cycle(host_for(block), ell, block, _Budget(node_budget))
        if order is None:
            return None
        return order, (order[-ell:],), (order[:-ell],)
    for _ in range(junction_budget):
        junctions = sample_junctions(rng)
        if junctions is None:
            return None
        segments = _solve_blocks(host_for, P, junctions, ell, node_budget)
        if segments is None:
            continue
        order = tuple(v for seg, j in zip(segments, junctions) for v in seg + j)
        # block path i's windows start at junction i-1, so the cycle's windows
        # start ell places before L_1; rotate that phase to position 0
        shift = (-ell) % gap
        return order[shift:] + order[:shift], tuple(junctions), tuple(segments)
    return None


def _solve_blocks(
    host_for: Callable[[Sequence[int]], Hypergraph],
    P: Partition,
    junctions: Sequence[Tuple[int, ...]],
    ell: int,
    node_budget: Optional[int],
) -> Optional[List[Tuple[int, ...]]]:
    """Per-block Hamilton ell-paths from the previous junction to this
    block's junction; returns the interior segments L_i, or None."""
    segments = []
    for i, block in enumerate(P.blocks):
        prev = junctions[i - 1]
        pool = sorted(set(block) | set(prev))
        total = len(pool)
        order = _search_path(
            host_for(pool), ell, prev, junctions[i], total, pool, _Budget(node_budget)
        )
        if order is None:
            return None
        # strip the shared end tuples: the cycle gets L_i + v_i per block
        segments.append(order[ell:total - ell])
    return segments


def _certified(
    H: Hypergraph, P: Partition, kind: str, param: int, found
) -> Optional[RespectingCertificate]:
    """The certificate of a stitched order, validated against H and P."""
    if found is None:
        return None
    order, junctions, segments = found
    cert = RespectingCertificate(order, P, junctions, segments, kind, H.k, param)
    if kind == "ell-cycle":
        structure, valid = cert.cycle(), validate_ell_cycle
    else:
        structure, valid = cert.power_cycle(), validate_power_cycle
    if not valid(H, structure) or not is_respecting(structure, P):
        raise AssertionError(f"stitched {kind} failed validation; construction bug")
    return cert


def _all_cliques(H: Hypergraph, size: int, within: Sequence[int]) -> List[Tuple[int, ...]]:
    """All `size`-sets of `within` spanning k-uniform cliques of H, lexicographic."""
    return list(_cliques(H, size, within))


# -- counting lower bound ------------------------------------------------


def lower_bound_count(n: int, sv: SizeVector, precision_bits: int = 64) -> RationalBracket:
    """Directed-rounding bracket of e^{-n} / (2n) * multinomial(n; sizes)."""
    if sv.n != n:
        raise InvalidQueryError(f"size vector sums to {sv.n}, expected {n}")
    mult = multinomial(n, sv.sizes)
    e_lo, e_hi = exp_neg_bracket(n, precision_bits)
    scale = Fraction(mult, 2 * n)
    return RationalBracket(e_lo * scale, e_hi * scale)
