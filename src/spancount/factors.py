"""Exact F-factor search, counting, and factor stitching.

An F-factor is a set of vertex-disjoint copies of a pattern k-graph F
covering every vertex of the host.  Copies are canonicalized by their
vertex set together with the edge image in the host, and decompositions
are sets of canonical copies, so counting never multiplies by pattern
automorphisms or by the order copies were found in.  The copies of F
through a vertex come from the shared ordered-window search of `paths`,
with F's edges as the window layout.

Backtracking always covers the smallest uncovered vertex next, which
eliminates permutation overcounting of the copies during enumeration.
The search can be restricted to a vertex set, so factor stitching
searches each block of a partition on the host itself, in its own
labels.  Every decomposition that leaves this module has been checked
against the host with `verify_decomposition`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bounds import RationalBracket, exp_neg_bracket
from .bounds import multinomial as _multinomial
from .errors import DivisibilityError, InvalidQueryError
from .hypergraphs import Hypergraph, complete
from .partition import Partition, SizeVector
from .paths import _Budget, _ordered_search


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

    def to_json(self) -> str:
        return json.dumps({"copies": [list(c) for c in self.copies]})


def verify_decomposition(H: Hypergraph, spec: FactorSpec, dec: FactorDecomposition) -> bool:
    """Independent check: disjointness, coverage, edge preservation."""
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
    H: Hypergraph, spec: FactorSpec, available: Sequence[int], anchor: int
) -> List[Tuple[Tuple[int, ...], frozenset]]:
    """Distinct copies of F on `available` vertices containing `anchor`.

    Returns (least injection, edge image) pairs, one per distinct
    (vertex set, edge image); sorted for determinism.  The injections
    come from the ordered-window search with F's edges as the window
    layout and the anchor pinned at each vertex of F in turn; finding
    them spends no budget.
    """
    edges = tuple(sorted(spec.F.edges))
    least: Dict[Tuple[frozenset, frozenset], Tuple[int, ...]] = {}
    for i in range(spec.t):
        pinned = {i: anchor}
        for injection in _ordered_search(H, edges, spec.t, available, None, pinned=pinned):
            image = frozenset(tuple(sorted(injection[v] for v in e)) for e in edges)
            key = (frozenset(injection), image)
            if key not in least or injection < least[key]:
                least[key] = injection
    return sorted((injection, key[1]) for key, injection in least.items())


def _factor_search(
    H: Hypergraph,
    spec: FactorSpec,
    budget: Optional[int],
    count_all: bool,
    within: Optional[Iterable[int]] = None,
) -> Tuple[int, Optional[FactorDecomposition]]:
    """Shared backtracking core: the number of F-factors of H[within]
    (default: all of H) reached and the first one; stops at the first
    unless `count_all`.  The caller verifies what it returns."""
    cover = frozenset(range(H.n) if within is None else within)
    if len(cover) % spec.t != 0:
        raise DivisibilityError(f"|F| = {spec.t} must divide the {len(cover)} vertices to cover")
    if spec.F.k != H.k:
        raise InvalidQueryError(f"pattern uniformity {spec.F.k} != host uniformity {H.k}")
    counter = _Budget(budget)
    total = 0
    first: Optional[Tuple[Tuple[int, ...], ...]] = None
    chosen: List[Tuple[int, ...]] = []
    # every uncovered vertex is at least the anchor, so a node's copies are
    # its anchor's copies on the cover from the anchor up that avoid the
    # covered vertices
    copies_at: Dict[int, List[Tuple[Tuple[int, ...], frozenset]]] = {}

    def descend(uncovered: frozenset) -> bool:
        """Search below `chosen`; True once the search should stop."""
        nonlocal total, first
        if not uncovered:
            total += 1
            if first is None:
                first = tuple(chosen)
            return not count_all
        counter.spend()
        anchor = min(uncovered)
        if anchor not in copies_at:
            available = [v for v in cover if v >= anchor]
            copies_at[anchor] = _canonical_copies(H, spec, available, anchor)
        for injection, _image in copies_at[anchor]:
            if not uncovered.issuperset(injection):
                continue
            chosen.append(injection)
            stop = descend(uncovered - frozenset(injection))
            chosen.pop()
            if stop:
                return True
        return False

    descend(cover)
    return total, None if first is None else FactorDecomposition(first)


def _verified(
    H: Hypergraph, spec: FactorSpec, dec: Optional[FactorDecomposition]
) -> Optional[FactorDecomposition]:
    """`dec` once verify_decomposition accepts it as an F-factor of H."""
    if dec is not None and not verify_decomposition(H, spec, dec):
        raise AssertionError("factor search returned an invalid decomposition")
    return dec


def find_f_factor(
    H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None
) -> Optional[FactorDecomposition]:
    """An F-factor of H found by exact backtracking, or None."""
    return _verified(H, spec, _factor_search(H, spec, budget, count_all=False)[1])


def factor_census(
    H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None
) -> Tuple[int, Optional[FactorDecomposition]]:
    """The exact number of distinct F-factors of H and the first one the
    search reaches (the one find_f_factor returns), from one search."""
    count, dec = _factor_search(H, spec, budget, count_all=True)
    return count, _verified(H, spec, dec)


def count_f_factors(H: Hypergraph, spec: FactorSpec, budget: Optional[int] = None) -> int:
    """Exact number of distinct F-factors of H."""
    return factor_census(H, spec, budget)[0]


def perfect_matching(H: Hypergraph, budget: Optional[int] = None) -> Optional[FactorDecomposition]:
    """A perfect matching of H (F = single edge), or None."""
    if H.n % H.k != 0:
        raise DivisibilityError(f"k = {H.k} must divide |H| = {H.n}")
    return find_f_factor(H, single_edge_spec(H.k), budget)


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
    copies: List[Tuple[int, ...]] = []
    for block in P.blocks:
        dec = _factor_search(H, spec, budget, count_all=False, within=block)[1]
        if dec is None:
            return None
        copies.extend(dec.copies)
    return _verified(H, spec, FactorDecomposition(tuple(copies)))


def partition_multiplicity_bound(n: int, t: int) -> int:
    """(n/t)^(n/t): partitions a single F-factor can be compatible with."""
    if t < 1 or n % t != 0:
        raise DivisibilityError(f"t = {t} must divide n = {n}")
    q = n // t
    return q ** q


def factor_lower_bound(
    n: int, t: int, sv: SizeVector, precision_bits: int = 64
) -> RationalBracket:
    """Bracket of e^{-n} * exp(-(n/t) log n) * multinomial(n; sizes).

    exp(-(n/t) log n) = n^(-n/t) is exact when t divides n; only the
    e^{-n} factor needs directed rounding.
    """
    if t < 1 or n % t != 0:
        raise DivisibilityError(f"t = {t} must divide n = {n}")
    if sv.n != n:
        raise InvalidQueryError(f"size vector sums to {sv.n}, expected {n}")
    mult = _multinomial(n, sv.sizes)
    scale = Fraction(mult, n ** (n // t))
    e_lo, e_hi = exp_neg_bracket(n, precision_bits)
    return RationalBracket(e_lo * scale, e_hi * scale)


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
    from .paths import enumerate_hamilton_ell_cycles

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
