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

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from .bounds import RationalBracket, exp_neg_bracket, multinomial
from .errors import DivisibilityError, InvalidQueryError
from .hypergraphs import Hypergraph, vertex_mask
from .partition import Partition, SizeVector
from .paths import EllCycle, PowerCycle, _Budget, _search_cycle, validate_windows


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


def _arcs(order: Tuple[int, ...], sizes: Sequence[int]) -> Iterator[Tuple[frozenset, ...]]:
    """For each of the two directions of the cyclic `order` and each
    start, the vertex sets of its consecutive arcs of the given sizes.
    An empty block occupies no arc, so a size 0 gives nothing."""
    if any(size < 0 for size in sizes):
        raise InvalidQueryError(f"block sizes must be >= 0, got {tuple(sizes)}")
    if sum(sizes) != len(order):
        raise InvalidQueryError(f"sizes sum to {sum(sizes)}, cycle has {len(order)} vertices")
    if not all(sizes):
        return
    cuts = list(itertools.accumulate(sizes, initial=0))
    for direction in (order, order[::-1]):
        for start in range(len(order)):
            seq = direction[start:] + direction[:start]
            yield tuple(frozenset(seq[a:b]) for a, b in zip(cuts, cuts[1:]))


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
    return tuple(map(frozenset, P.blocks)) in _arcs(C.order, P.sizes())


def respecting_multiplicity(C: EllCycle, sv) -> int:
    """Exact number of ordered partitions with the given block sizes
    that the ordering C.order respects, over both directions and all
    rotations.  A partition with an empty block is respected by no
    ordering (see `is_respecting`), so any size 0 gives 0.

    This counts for one vertex ordering, not for a cycle's edge set.
    `EllCycle(range(9), 4, 1)` with sizes (6, 3) respects 9 ordered
    partitions, but the same edge set has 48 orderings, and together
    they respect 18.
    """
    return len(set(_arcs(C.order, sv.sizes if isinstance(sv, SizeVector) else tuple(sv))))


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
    if not 1 <= ell < H.k:
        raise InvalidQueryError(f"need 1 <= ell < k, got ell={ell}, k={H.k}")
    return _stitch(H, P, "ell-cycle", ell, node_budget)


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
    return _stitch(H, P, "power-cycle", t, node_budget)


def _stitch(
    H: Hypergraph, P: Partition, kind: str, param: int, node_budget: Optional[int]
) -> Optional[RespectingCertificate]:
    """The certificate of the first P-respecting cycle of `kind` with
    parameter `param` that the search finds, validated against H and P,
    or None.  P's blocks must be nonempty, span at least k vertices (t
    for a power), and have sizes that the layout's phase count (k-ell
    for an ell-cycle) divides, so that every arc starts at a phase."""
    n, ell_cycle = sum(P.sizes()), kind == "ell-cycle"
    least = H.k if ell_cycle else param
    if n < least or not all(P.blocks):
        raise InvalidQueryError(
            f"need nonempty blocks and at least {least} vertices, got sizes {P.sizes()}"
        )
    windows, phases = (EllCycle if ell_cycle else PowerCycle).layout(H.k, param, n)
    if any(size % phases for size in P.sizes()):
        raise DivisibilityError(f"the phase count {phases} (k-ell) must divide every block"
                                f" size, got sizes {P.sizes()}")
    order = _search_cycle(H, [*map(vertex_mask, P.blocks)], windows, phases, _Budget(node_budget))
    if order is None:
        return None
    cert = RespectingCertificate(order, P, kind, H.k, param)
    structure = cert.cycle() if ell_cycle else cert.power_cycle()
    if not validate_windows(H, structure) or not is_respecting(structure, P):
        raise AssertionError(f"stitched {kind} failed validation; construction bug")
    return cert


# -- counting lower bound ------------------------------------------------


def lower_bound_count(n: int, sv: SizeVector) -> RationalBracket:
    """Directed-rounding bracket of e^{-n} / (2n) * multinomial(n; sizes)."""
    if sv.n != n:
        raise InvalidQueryError(f"size vector sums to {sv.n}, expected {n}")
    mult = multinomial(n, sv.sizes)
    e_lo, e_hi = exp_neg_bracket(n)
    scale = Fraction(mult, 2 * n)
    return RationalBracket(e_lo * scale, e_hi * scale)
