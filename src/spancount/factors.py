"""Exact F-factor search, counting, and factor stitching.

An F-factor is a set of vertex-disjoint copies of a pattern k-graph F
covering every vertex of the host.  Copies are canonicalized by their
vertex set together with the edge image in the host, and decompositions
are sets of canonical copies, so counting never multiplies by pattern
automorphisms or by the order copies were found in.  The copies of F
through a vertex come from the shared ordered-window search of `paths`,
with F's edges as the window layout.

Backtracking always covers the smallest uncovered vertex next, which
eliminates permutation overcounting of the copies during enumeration;
like the whole search layer it keeps vertex sets as bitmasks, so no node
builds a set.  The search can be restricted to a vertex set, so factor
stitching searches each block of a partition on the host itself, in its
own labels.  Every decomposition that leaves this module has been
checked against the host with `verify_decomposition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import DivisibilityError, InvalidQueryError
from .hypergraphs import Hypergraph, complete, vertex_mask
from .partition import Partition
from .paths import (
    _Budget,
    _ordered_search,
    _orderings,
    _pinned,
    _plan,
    enumerate_hamilton_ell_cycles,
)


@dataclass(frozen=True)
class FactorSpec:
    """The pattern k-graph F; t is its vertex count."""

    F: Hypergraph

    def __post_init__(self):
        if not self.F.edges:
            raise InvalidQueryError("pattern F must have at least one edge")

    @property
    def t(self) -> int:
        return self.F.n


def single_edge_spec(k: int) -> FactorSpec:
    """F = one edge on k vertices; factors are perfect matchings."""
    return FactorSpec(complete(k, k))


@dataclass(frozen=True)
class FactorDecomposition:
    """Vertex-disjoint injections of V(F) into V(H) covering V(H).

    Each copy is the injection as a tuple: copy[i] is the host vertex
    that F's vertex i maps to.
    """

    copies: Tuple[Tuple[int, ...], ...]

    def vertex_sets(self) -> List[frozenset]:
        return [frozenset(c) for c in self.copies]


def _check_uniformity(H: Hypergraph, spec: FactorSpec) -> None:
    if spec.F.k != H.k:
        raise InvalidQueryError(f"pattern uniformity {spec.F.k} != host uniformity {H.k}")


def verify_decomposition(H: Hypergraph, spec: FactorSpec, dec: FactorDecomposition) -> bool:
    """Independent check: disjointness, coverage, edge preservation; a
    pattern of another uniformity than H's raises."""
    _check_uniformity(H, spec)
    covered: set = set()
    for copy in dec.copies:
        if len(copy) != spec.t or len(set(copy)) != spec.t:
            return False
        if covered & set(copy):
            return False
        covered |= set(copy)
        for e in spec.F.edges:
            if not H.has_edge(copy[v] for v in e):
                return False
    return covered == set(range(H.n))


def _canonical_copies(
    H: Hypergraph, spec: FactorSpec, available: int, anchor: int
) -> List[Tuple[Tuple[int, ...], int]]:
    """Distinct copies of F that contain `anchor` and otherwise lie in the
    mask `available`, whose vertices all lie above the anchor.

    Returns (least injection, vertex mask) pairs, one per distinct
    (vertex set, edge image); sorted for determinism.  The injections
    come from the ordered-window search with F's edges as the window
    layout; finding them spends no budget.  The least injection onto a
    copy fills each window class of F in ascending order, so it puts the
    anchor, the copy's least vertex, first in its class: the anchor is
    pinned there only, and the class cut skips the injections that
    permute a class.  F's other automorphisms are left to the dedupe.
    """
    edges = tuple(sorted(spec.F.edges))
    least: Dict[Tuple[int, frozenset], Tuple[int, ...]] = {}
    for i in (p for p, mate in enumerate(_plan(edges, spec.t)[1]) if mate < 0):
        found = _ordered_search(H, edges, _pinned(spec.t, available, i, anchor), None)
        for injection in _orderings(found):
            image = frozenset(tuple(sorted(injection[v] for v in e)) for e in edges)
            key = (vertex_mask(injection), image)
            if key not in least or injection < least[key]:
                least[key] = injection
    return sorted((injection, key[0]) for key, injection in least.items())


def _check_divides(t: int, size: int) -> None:
    """Raise DivisibilityError unless a pattern on t vertices can cover `size`."""
    if size % t != 0:
        raise DivisibilityError(f"|F| = {t} must divide the {size} vertices to cover")


def _factors(
    H: Hypergraph, spec: FactorSpec, budget: Optional[int], within: Optional[Iterable[int]] = None
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The F-factors of H[within] (default: all of H) in search order, each
    as its tuple of injections, from one backtracking search that spends a
    budget node per internal node.  The divisibility and uniformity checks
    run at the call; the caller verifies what it keeps."""
    cover = vertex_mask(range(H.n) if within is None else within)
    _check_divides(spec.t, cover.bit_count())
    _check_uniformity(H, spec)
    counter = _Budget(budget)
    # every uncovered vertex is at least the anchor, the lowest uncovered
    # bit, so a node's copies are its anchor's copies on the cover from the
    # anchor up that avoid the covered vertices
    copies_at: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}

    def descend(
        uncovered: int, chosen: Tuple[Tuple[int, ...], ...]
    ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if not uncovered:
            yield chosen
            return
        counter.spend()
        low = uncovered & -uncovered
        if low not in copies_at:
            copies_at[low] = _canonical_copies(H, spec, cover & -low, low.bit_length() - 1)
        for injection, mask in copies_at[low]:
            if not mask & ~uncovered:
                yield from descend(uncovered ^ mask, chosen + (injection,))

    return descend(cover, ())


def _verified(
    H: Hypergraph, spec: FactorSpec, copies: Optional[Tuple[Tuple[int, ...], ...]]
) -> Optional[FactorDecomposition]:
    """The decomposition of `copies` once verify_decomposition accepts it as
    an F-factor of H; None for None."""
    if copies is None:
        return None
    dec = FactorDecomposition(copies)
    if not verify_decomposition(H, spec, dec):
        raise AssertionError("factor search returned an invalid decomposition")
    return dec


def find_f_factor(
    H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None
) -> Optional[FactorDecomposition]:
    """An F-factor of H found by exact backtracking, or None."""
    return _verified(H, spec, next(_factors(H, spec, budget), None))


def factor_census(
    H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None
) -> Tuple[int, Optional[FactorDecomposition]]:
    """The exact number of distinct F-factors of H and the first one the
    search reaches (the one find_f_factor returns), from one search."""
    found = _factors(H, spec, budget)
    first = next(found, None)
    return (first is not None) + sum(1 for _ in found), _verified(H, spec, first)


def count_f_factors(H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None) -> int:
    """Exact number of distinct F-factors of H."""
    return factor_census(H, spec, budget)[0]


def matching_count_closed_form(n: int, k: int) -> int:
    """Perfect matchings of the complete k-graph: n! / ((k!)^(n/k) (n/k)!)."""
    if n % k != 0:
        raise DivisibilityError(f"k = {k} must divide n = {n}")
    q = n // k
    return math.factorial(n) // (math.factorial(k) ** q * math.factorial(q))


def stitch_factor(
    H: Hypergraph, P: Partition, spec: FactorSpec, budget: Optional[int] = None
) -> Optional[FactorDecomposition]:
    """Per-block F-factors over a partition of H's vertices, each searched
    on H itself with its own budget, unioned; None if any block fails."""
    if P.vertex_set() != frozenset(range(H.n)):
        raise InvalidQueryError("the partition must cover exactly the host's vertices")
    copies: Tuple[Tuple[int, ...], ...] = ()
    for block in P.blocks:
        found = next(_factors(H, spec, budget, within=block), None)
        if found is None:
            return None
        copies += found
    return _verified(H, spec, copies)


@dataclass(frozen=True)
class MatchingCycleRelation:
    """Perfect matchings vs Hamilton 0-cycles of the same host.

    A Hamilton 0-cycle's edge set is exactly a perfect matching;
    ordering the n/k edges cyclically multiplies the count by
    ((n/k) - 1)! / 2.  `ratio_check` confirms the matching count from
    the factor counter equals the 0-cycle count (distinct edge sets)
    from the cycle enumerator.
    """

    matchings: int
    zero_cycle_orderings: int
    ratio_check: bool


def matching_zero_cycle_relation(
    H: Hypergraph, budget: Optional[int] = None
) -> MatchingCycleRelation:
    n, k = H.n, H.k
    if n % k != 0:
        raise DivisibilityError(f"k = {k} must divide n = {n}")
    if n < 3 * k:
        raise InvalidQueryError(f"need n >= 3k = {3 * k}, got n = {n}")
    matchings = count_f_factors(H, single_edge_spec(k), budget)
    arrangement_factor = math.factorial(n // k - 1) // 2
    zero_cycles = enumerate_hamilton_ell_cycles(H, 0, mode="count", budget=budget)
    return MatchingCycleRelation(
        matchings=matchings,
        zero_cycle_orderings=matchings * arrangement_factor,
        ratio_check=(matchings == zero_cycles),
    )
