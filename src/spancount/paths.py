"""ell-paths, ell-cycles, powers of tight cycles, and exact solvers.

An ell-path on vertices v_1..v_t has edges given by the consecutive
k-windows at stride k-ell, so consecutive edges share exactly ell
vertices; an ell-cycle wraps the windows cyclically.  That window
layout is defined once (`_windows`).  The solvers here all run one
ordered-window search, which fills positions in order so that every
window of a given layout spans an edge; it takes any layout, so the
F-factor code finds copies of F with it too.  Searches carry explicit
node budgets: a partial result never masquerades as an exact one.

Hamilton ell-cycles are counted as sub-hypergraphs (distinct edge
sets), not orderings; rotations, reflections and small-n coincidences
are deduplicated by canonicalizing each found cycle's edge set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, DivisibilityError, InvalidQueryError, InvalidStructureError
from .hypergraphs import Hypergraph, mask_vertices, vertex_mask


# -- domain types --------------------------------------------------------


def _check_distinct(order: Sequence[int]) -> None:
    if len(set(order)) != len(order):
        raise InvalidStructureError("ordering contains repeated vertices")


@dataclass(frozen=True)
class EllPath:
    """A linear ordering whose edges are k-windows at stride k-ell."""

    order: Tuple[int, ...]
    k: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        _check_distinct(self.order)
        t = len(self.order)
        gap = self.k - self.ell
        if not 0 <= self.ell < self.k:
            raise InvalidStructureError(f"need 0 <= ell < k, got ell={self.ell}, k={self.k}")
        if t < self.k:
            raise InvalidStructureError(f"path needs at least k={self.k} vertices, got {t}")
        if (t - self.ell) % gap != 0:
            raise InvalidStructureError(
                f"(k-ell)={gap} must divide (t-ell)={t - self.ell}"
            )

    def windows(self) -> List[Tuple[int, ...]]:
        layout = _windows(self.k, self.k - self.ell, len(self.order), False)
        # a linear window is a run of k positions, so it is a slice
        return [self.order[w[0]:w[0] + self.k] for w in layout]

    def ends(self) -> "EndPair":
        return EndPair(self.order[:self.ell], self.order[-self.ell:] if self.ell else ())

    def edge_set(self) -> frozenset:
        return frozenset(tuple(sorted(w)) for w in self.windows())


@dataclass(frozen=True)
class EllCycle:
    """A cyclic ordering whose edges are cyclic k-windows at stride k-ell."""

    order: Tuple[int, ...]
    k: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        _check_distinct(self.order)
        t = len(self.order)
        gap = self.k - self.ell
        if not 0 <= self.ell < self.k:
            raise InvalidStructureError(f"need 0 <= ell < k, got ell={self.ell}, k={self.k}")
        if t < self.k:
            raise InvalidStructureError(f"cycle needs at least k={self.k} vertices, got {t}")
        if t % gap != 0:
            raise InvalidStructureError(f"(k-ell)={gap} must divide the cycle length {t}")

    def windows(self) -> List[Tuple[int, ...]]:
        layout = _windows(self.k, self.k - self.ell, len(self.order), True)
        return [tuple(self.order[q] for q in w) for w in layout]

    def edge_set(self) -> frozenset:
        return frozenset(tuple(sorted(w)) for w in self.windows())


@dataclass(frozen=True)
class PowerCycle:
    """A cyclic ordering where every t consecutive vertices span a clique."""

    order: Tuple[int, ...]
    t: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        _check_distinct(self.order)
        if self.t < self.k:
            raise InvalidStructureError(f"window width t={self.t} must be >= k={self.k}")
        if len(self.order) < self.t:
            raise InvalidStructureError(
                f"cycle needs at least t={self.t} vertices, got {len(self.order)}"
            )


@dataclass(frozen=True)
class EndPair:
    """Ordered, disjoint end tuples of an ell-path."""

    a: Tuple[int, ...]
    b: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.a) != len(self.b):
            raise InvalidStructureError("end tuples must have equal length")
        _check_distinct(self.a)
        _check_distinct(self.b)
        if set(self.a) & set(self.b):
            raise InvalidStructureError("end tuples must be vertex-disjoint")


# -- validators ----------------------------------------------------------


def validate_ell_path(H: Hypergraph, P: EllPath) -> bool:
    """True iff every consecutive k-window of P is an edge of H."""
    if P.k != H.k:
        raise InvalidStructureError(f"path uniformity {P.k} != host uniformity {H.k}")
    if any(v < 0 or v >= H.n for v in P.order):
        raise InvalidStructureError("path visits vertices outside the host")
    return all(H.has_edge(w) for w in P.windows())


def validate_ell_cycle(H: Hypergraph, C: EllCycle) -> bool:
    """True iff every cyclic k-window of C is an edge of H."""
    if C.k != H.k:
        raise InvalidStructureError(f"cycle uniformity {C.k} != host uniformity {H.k}")
    if any(v < 0 or v >= H.n for v in C.order):
        raise InvalidStructureError("cycle visits vertices outside the host")
    return all(H.has_edge(w) for w in C.windows())


def validate_power_cycle(H: Hypergraph, C: PowerCycle) -> bool:
    """True iff every cyclic t-window of C spans a k-uniform clique of H."""
    if C.k != H.k:
        raise InvalidStructureError(f"cycle uniformity {C.k} != host uniformity {H.k}")
    if any(v < 0 or v >= H.n for v in C.order):
        raise InvalidStructureError("cycle visits vertices outside the host")
    for w in _windows(C.t, 1, len(C.order), True):
        for sub in itertools.combinations(sorted(C.order[q] for q in w), H.k):
            if not H.has_edge(sub):
                return False
    return True


# -- the ordered-window search -------------------------------------------


class _Budget:
    """Node counter with a hard error on exhaustion."""

    __slots__ = ("remaining",)

    def __init__(self, limit: Optional[int]):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise BudgetExceededError("search budget exhausted; result invalid")


Layout = Tuple[Tuple[int, ...], ...]


@functools.lru_cache(maxsize=256)
def _windows(k: int, gap: int, length: int, cyclic: bool) -> Layout:
    """The ell-window layout: the k-windows at stride `gap` = k-ell over
    `length` positions, wrapping around if `cyclic`, as position tuples."""
    starts = range(0, length, gap) if cyclic else range(0, length - k + 1, gap)
    return tuple(tuple((s + i) % length for i in range(k)) for s in starts)


@functools.lru_cache(maxsize=256)
def _closing(windows: Layout, length: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """For each of `length` positions, the other positions of every window
    that it is the last to fill."""
    closing: List[list] = [[] for _ in range(length)]
    for w in windows:
        last = max(w)
        closing[last].append(tuple(q for q in w if q != last))
    return tuple(tuple(c) for c in closing)


def _ordered_search(
    H: Hypergraph,
    windows: Layout,
    length: int,
    pool: Iterable[int],
    budget: Optional[_Budget],
    prefix: Sequence[int] = (),
    pinned: Optional[Dict[int, int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield every ordering of `length` vertices in which each window of
    the layout `windows` (position tuples, each of k positions) is an
    edge of H.

    Positions after `prefix` are filled in order.  A position in `pinned`
    takes its given vertex; any other takes the free vertices of `pool`
    in ascending order.  Either way the vertex must complete each window
    that closes there, so the candidate bitmask is cut down to those
    windows' codegree masks.  With a budget, entering a position spends
    one node.
    """
    closing = _closing(windows, length)
    pinned = pinned or {}
    order = list(prefix) + [-1] * (length - len(prefix))
    free = vertex_mask(pool) & ~vertex_mask(itertools.chain(prefix, pinned.values()))
    nbrs = H._codegree_neighbours()

    def place(p: int) -> Iterator[Tuple[int, ...]]:
        nonlocal free
        if p == length:
            yield tuple(order)
            return
        if budget is not None:
            budget.spend()
        forced = pinned.get(p)
        candidates = free if forced is None else 1 << forced
        for others in closing[p]:
            candidates &= nbrs.get(tuple(sorted([order[q] for q in others])), 0)
        for v in mask_vertices(candidates):
            order[p] = v
            free &= ~(1 << v)
            yield from place(p + 1)
            if forced is None:
                free |= 1 << v

    return place(len(prefix))


def _cycle_orders(
    H: Hypergraph, ell: int, pool: Sequence[int], budget: _Budget
) -> Iterator[Tuple[int, ...]]:
    """Hamilton ell-cycle orderings of `pool` with its least vertex at a
    position r0 in [0, k-ell), r0 = 0 first.  Rotating by a multiple of
    k-ell puts any cycle ordering in this form, so the roots are
    exhaustive."""
    pool = sorted(pool)
    windows = _windows(H.k, H.k - ell, len(pool), True)
    for r0 in range(H.k - ell):
        yield from _ordered_search(H, windows, len(pool), pool, budget, pinned={r0: pool[0]})


def _search_path(
    H: Hypergraph,
    ell: int,
    a: Tuple[int, ...],
    b: Tuple[int, ...],
    total: int,
    pool: Sequence[int],
    budget: _Budget,
) -> Optional[Tuple[int, ...]]:
    """First ell-path ordering of `total` vertices from a to b, or None.

    Interior vertices are drawn from `pool`; the last ell positions are
    pinned to spell out b in order.
    """
    pinned = {total - ell + i: v for i, v in enumerate(b)}
    windows = _windows(H.k, H.k - ell, total, False)
    return next(_ordered_search(H, windows, total, pool, budget, prefix=a, pinned=pinned), None)


def _search_cycle(
    H: Hypergraph,
    ell: int,
    pool: Sequence[int],
    budget: _Budget,
) -> Optional[Tuple[int, ...]]:
    """First Hamilton ell-cycle ordering of `pool`, or None."""
    n, gap = len(pool), H.k - ell
    if n % gap != 0 or n < H.k:
        raise DivisibilityError(f"(k-ell)={gap} must divide the cycle length {n}")
    return next(_cycle_orders(H, ell, pool, budget), None)


# -- Hamilton path / cycle solvers ---------------------------------------


def find_hamilton_ell_path(
    H: Hypergraph,
    ell: int,
    ends: EndPair,
    budget: Optional[int] = None,
) -> Optional[EllPath]:
    """A spanning ell-path of H from ends.a to ends.b, or None.

    Exhaustive backtracking; raises BudgetExceededError if a node
    budget is given and exhausted before the search concludes.
    """
    k = H.k
    if not 0 <= ell < k:
        raise InvalidQueryError(f"need 0 <= ell < k, got ell={ell}, k={k}")
    if len(ends.a) != ell:
        raise InvalidQueryError(f"end tuples must have length ell={ell}")
    if any(v < 0 or v >= H.n for v in ends.a + ends.b):
        raise InvalidQueryError("end vertices must lie in the host")
    if H.n < 2 * ell:
        raise InvalidQueryError(f"host has {H.n} < 2*ell vertices")
    if (H.n - ell) % (k - ell) != 0:
        raise DivisibilityError(
            f"(k-ell)={k - ell} must divide n-ell={H.n - ell} for a Hamilton ell-path"
        )
    order = _search_path(H, ell, ends.a, ends.b, H.n, range(H.n), _Budget(budget))
    return EllPath(order, k, ell) if order is not None else None


def enumerate_hamilton_ell_cycles(
    H: Hypergraph,
    ell: int,
    mode: str = "count",
    budget: Optional[int] = None,
):
    """Count (or list) the distinct Hamilton ell-cycles of H.

    Distinctness is by edge set: each complete ordering's cyclic
    windows are canonicalized and deduplicated, so rotations and
    reflections of the same sub-hypergraph count once.
    """
    if mode not in ("count", "list"):
        raise InvalidQueryError(f"mode must be 'count' or 'list', got {mode!r}")
    k, n = H.k, H.n
    if not 0 <= ell < k:
        raise InvalidQueryError(f"need 0 <= ell < k, got ell={ell}, k={k}")
    gap = k - ell
    if n % gap != 0:
        raise DivisibilityError(f"(k-ell)={gap} must divide n={n}")
    if n < k or not H.edges:
        return 0 if mode == "count" else []

    windows = _windows(k, gap, n, True)
    found: dict = {}
    for order in _cycle_orders(H, ell, range(n), _Budget(budget)):
        edge_set = frozenset(tuple(sorted(order[q] for q in w)) for w in windows)
        found.setdefault(edge_set, order)
    if mode == "count":
        return len(found)
    return [EllCycle(o, k, ell) for o in found.values()]


# -- cliques ---------------------------------------------------------------


def _cliques(
    H: Hypergraph,
    size: int,
    within: Optional[Iterable[int]] = None,
    budget: Optional[_Budget] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield every `size`-set of vertices of `within` (default: all of H)
    that spans a k-uniform clique of H, in lexicographic order.

    Choosing a vertex cuts the later candidates' bitmask down to the
    codegree masks of the (k-1)-sets it completes.  With a budget,
    entering a partial clique spends one node.
    """
    k = H.k
    nbrs = H._codegree_neighbours()
    pool = vertex_mask(range(H.n) if within is None else within)
    if k == 1:  # every vertex of a 1-uniform clique is itself an edge
        pool &= nbrs.get((), 0)
    chosen: List[int] = []

    def extend(candidates: int) -> Iterator[Tuple[int, ...]]:
        if len(chosen) == size:
            yield tuple(chosen)
            return
        if budget is not None:
            budget.spend()
        for v in mask_vertices(candidates):
            rest = candidates >> (v + 1) << (v + 1)  # the candidates above v
            # v completes the (k-1)-sets sub + v, sub a (k-2)-subset of chosen;
            # chosen is ascending and below v, so sub + v is sorted
            for sub in itertools.combinations(chosen, k - 2) if k > 1 else ():
                rest &= nbrs.get(sub + (v,), 0)
            chosen.append(v)
            yield from extend(rest)
            chosen.pop()

    return extend(pool)


def clique_graph(H: Hypergraph, t: int, within: Optional[Iterable[int]] = None) -> Hypergraph:
    """K_t(H): the t-graph on H's vertices whose edges are the t-sets
    spanning k-cliques of H; only those inside `within` if it is given."""
    if t < H.k:
        raise InvalidQueryError(f"clique size t={t} must be >= k={H.k}")
    return Hypergraph(H.n, t, _cliques(H, t, within))


def find_clique(H: Hypergraph, t: int, budget: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """The lexicographically first t-set spanning a k-uniform clique of H, or None."""
    if t < H.k:
        raise InvalidQueryError(f"clique size t={t} must be >= k={H.k}")
    return next(_cliques(H, t, budget=_Budget(budget)), None)
