"""Assembling partition-respecting Hamilton structures.

A cycle respects an ordered partition (V_1, ..., V_r) when, read in
one of its two directions, its block ids are a rotation of the arc
layout: |V_1| copies of 1, then |V_2| copies of 2, and so on.  One
exact search decides whether such a cycle exists: it confines each
position to the block of the arc that covers it, then fills the
positions so that every window of the structure is an edge.  The
search's phases are the positions where V_1's arc may start: k-ell of
them for an ell-cycle, whose window layout repeats with period k-ell,
and one for a power of a tight cycle, whose layout (every k-subset of
every cyclic t-window) repeats with period 1.  The forward direction is
enough, since reversing either structure gives another one of the same
kind.  So a stitcher returning None means that no P-respecting
structure exists.

Every returned certificate is validated before it leaves this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .bounds import RationalBracket, exp_neg_bracket, multinomial
from .errors import DivisibilityError, InvalidQueryError
from .hypergraphs import Hypergraph
from .partition import Partition, SizeVector
from .paths import (
    EllCycle,
    PowerCycle,
    _Budget,
    _power_windows,
    _search_cycle,
    _windows,
    validate_windows,
)


@dataclass(frozen=True)
class RespectingCertificate:
    """A cycle ordering that respects its partition."""

    order: Tuple[int, ...]
    partition: Partition
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
            }
        )


def is_respecting(C, P: Partition) -> bool:
    """True iff, for one of the two directions of C, some rotation of
    its block ids is the arc layout of P: the blocks appear as
    consecutive arcs in cyclic block order.  A partition with an empty
    block is respected by no cycle.

    C may be any object with a cyclic `.order` tuple (EllCycle,
    PowerCycle, or a certificate view); only the ordering matters.
    This judges one vertex ordering, not a cycle's edge set: when
    k - 2*ell >= 2, one cycle has orderings that are not rotations or
    reflections of each other, and they can respect different
    partitions (see `respecting_multiplicity`).
    """
    if set(C.order) != set(P.vertex_set()):
        raise InvalidQueryError("cycle must span exactly the partition's vertices")
    if not all(P.blocks):
        return False
    layout = [i for i, B in enumerate(P.blocks) for _ in B]
    block_of = P.block_of()
    for direction in (C.order, C.order[::-1]):
        ids = [block_of[v] for v in direction]
        if any(ids[s:] + ids[:s] == layout for s in range(len(ids))):
            return True
    return False


def respecting_multiplicity(C: EllCycle, sv) -> int:
    """Exact number of ordered partitions with the given block sizes
    that the ordering C.order respects, over both directions and all
    rotations.

    This counts for one vertex ordering, not for a cycle's edge set.
    `EllCycle(range(9), 4, 1)` with sizes (6, 3) respects 9 ordered
    partitions, but the same edge set has 48 orderings, and together
    they respect 18.
    """
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


# -- the respecting search ------------------------------------------------


def stitch_cycle(
    H: Hypergraph,
    P: Partition,
    ell: int,
    node_budget: Optional[int] = None,
    seed: int = 0,
) -> Optional[RespectingCertificate]:
    """A P-respecting Hamilton ell-cycle on P's vertices, or None if
    none exists.

    The search is exact and deterministic; `seed` is accepted for
    compatibility and ignored.  `node_budget` bounds the search over all
    phases together; BudgetExceededError is raised when it runs out.
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
    n = _span(P, k)
    order = _search_cycle(H, P.blocks, _windows(k, gap, n, True), gap, _Budget(node_budget))
    return _certified(H, P, "ell-cycle", ell, order)


def stitch_power_cycle(
    H: Hypergraph,
    P: Partition,
    t: int,
    node_budget: Optional[int] = None,
) -> Optional[RespectingCertificate]:
    """A P-respecting (t-k+1)th power of a Hamilton tight cycle on P's
    vertices (every cyclic t-window spans a k-uniform clique of H), or
    None if none exists.  BudgetExceededError is raised when the search
    spends more than `node_budget` nodes."""
    if t < H.k:
        raise InvalidQueryError(f"window width t={t} must be >= k={H.k}")
    n = _span(P, t)
    order = _search_cycle(H, P.blocks, _power_windows(H.k, t, n), 1, _Budget(node_budget))
    return _certified(H, P, "power-cycle", t, order)


def _span(P: Partition, least: int) -> int:
    """The number of vertices of P, which a cycle needs to be at least
    `least`; every block must be nonempty to occupy an arc."""
    n = sum(P.sizes())
    if n < least or not all(P.blocks):
        raise InvalidQueryError(
            f"need nonempty blocks and at least {least} vertices, got sizes {P.sizes()}"
        )
    return n


def _certified(
    H: Hypergraph, P: Partition, kind: str, param: int, order: Optional[Tuple[int, ...]]
) -> Optional[RespectingCertificate]:
    """The certificate of a found order, validated against H and P."""
    if order is None:
        return None
    cert = RespectingCertificate(order, P, kind, H.k, param)
    structure = cert.cycle() if kind == "ell-cycle" else cert.power_cycle()
    if not validate_windows(H, structure) or not is_respecting(structure, P):
        raise AssertionError(f"stitched {kind} failed validation; construction bug")
    return cert


# -- counting lower bound ------------------------------------------------


def lower_bound_count(n: int, sv: SizeVector, precision_bits: int = 64) -> RationalBracket:
    """Directed-rounding bracket of e^{-n} / (2n) * multinomial(n; sizes)."""
    if sv.n != n:
        raise InvalidQueryError(f"size vector sums to {sv.n}, expected {n}")
    mult = multinomial(n, sv.sizes)
    e_lo, e_hi = exp_neg_bracket(n, precision_bits)
    scale = Fraction(mult, 2 * n)
    return RationalBracket(e_lo * scale, e_hi * scale)
