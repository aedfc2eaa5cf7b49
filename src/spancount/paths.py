"""ell-paths, ell-cycles, powers of tight cycles, and their exact search.

An ell-path on vertices v_1..v_t has edges given by the consecutive
k-windows at stride k-ell, so consecutive edges share exactly ell
vertices; an ell-cycle wraps the windows cyclically.  That window
layout is defined once (`_windows`), and so is the layout of a power of
a tight cycle (`_power_windows`).  Each structure lists its windows,
and one check (`validate_windows`) tests them against a host.

Everything here runs one ordered-window search, which fills positions
in order so that every window of a given layout spans an edge, each
position drawing from its own allowed vertex mask; a path's ends are
one-bit masks (`_search_path`, which the absorbers run).  It takes any
layout, so the F-factor code finds copies of F with it too.  Every
cyclic search runs through `_cycle_orders`, which confines each
position to the block whose arc covers it; a phase is a position where
the first arc may start, and a single block (the enumerator's whole
vertex set) pins its least vertex there instead.  Searches carry
explicit node budgets: a partial result never masquerades as an exact
one.

Hamilton ell-cycles are counted as sub-hypergraphs (distinct edge
sets), not orderings; rotations, reflections and small-n coincidences
are deduplicated by canonicalizing each found cycle's edge set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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

    def windows(self) -> List[Tuple[int, ...]]:
        layout = _power_windows(self.k, self.t, len(self.order))
        return [tuple(self.order[q] for q in w) for w in layout]


# -- validators ----------------------------------------------------------


def validate_windows(H: Hypergraph, S) -> bool:
    """True iff every window of S (an EllPath, EllCycle or PowerCycle)
    is an edge of H; raises if S has another uniformity than H or
    visits vertices outside it."""
    if S.k != H.k:
        raise InvalidStructureError(f"structure uniformity {S.k} != host uniformity {H.k}")
    if any(v < 0 or v >= H.n for v in S.order):
        raise InvalidStructureError("structure visits vertices outside the host")
    return all(H.has_edge(w) for w in S.windows())


validate_ell_path = validate_ell_cycle = validate_power_cycle = validate_windows


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
def _power_windows(k: int, t: int, length: int) -> Layout:
    """The layout of a power of a tight cycle: every k-subset of every
    cyclic t-window over `length` positions, once each."""
    return tuple(sorted({
        sub for w in _windows(t, 1, length, True) for sub in itertools.combinations(sorted(w), k)
    }))


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
    allowed: Sequence[int],
    budget: Optional[_Budget],
) -> Iterator[Tuple[int, ...]]:
    """Yield every ordering of `length` vertices in which each window of
    the layout `windows` (position tuples, each of k positions) is an
    edge of H.

    Positions are filled in order.  Position p takes the vertices of
    the bitmask `allowed[p]` that are not yet placed, in ascending
    order; a one-bit mask pins p to its vertex.  The vertex must
    complete each window that closes there, so the candidate bitmask is
    cut down to those windows' codegree masks.  With a budget, entering
    a position spends one node.
    """
    closing = _closing(windows, length)
    order = [-1] * length
    free = (1 << H.n) - 1
    nbrs = H._codegree_neighbours()

    def place(p: int) -> Iterator[Tuple[int, ...]]:
        nonlocal free
        if p == length:
            yield tuple(order)
            return
        if budget is not None:
            budget.spend()
        candidates = free & allowed[p]
        for others in closing[p]:
            candidates &= nbrs.get(tuple(sorted([order[q] for q in others])), 0)
        for v in mask_vertices(candidates):
            order[p] = v
            free &= ~(1 << v)
            yield from place(p + 1)
            free |= 1 << v

    return place(0)


def _pinned(length: int, pool: Iterable[int], p: int, v: int) -> List[int]:
    """Per-position masks for `_ordered_search`: position p takes only
    v, every other position the vertices of `pool` other than v."""
    masks = [vertex_mask(pool) & ~(1 << v)] * length
    masks[p] = 1 << v
    return masks


def _cycle_orders(
    H: Hypergraph,
    blocks: Sequence[Sequence[int]],
    windows: Layout,
    phases: int,
    budget: _Budget,
) -> Iterator[Tuple[int, ...]]:
    """Every cyclic ordering in which the blocks fill consecutive arcs
    in the given order and every window of the cyclic layout `windows`
    is an edge, V_1's arc starting at a phase s < `phases`.

    Rotating an ordering by a multiple of `phases` must keep the
    layout; then any such ordering has a rotation found here.  A single
    block fixes no rotation, so its least vertex is pinned at position
    s instead.  The phases are searched in order and share the budget.
    """
    arcs = [vertex_mask(block) for block in blocks for _ in block]
    n = len(arcs)
    for s in range(phases):
        if len(blocks) == 1:
            allowed = _pinned(n, blocks[0], s, min(blocks[0]))
        else:
            allowed = arcs[n - s:] + arcs[:n - s]
        yield from _ordered_search(H, windows, n, allowed, budget)


def _search_cycle(
    H: Hypergraph,
    blocks: Sequence[Sequence[int]],
    windows: Layout,
    phases: int,
    budget: _Budget,
) -> Optional[Tuple[int, ...]]:
    """The first ordering of `_cycle_orders`, or None if there is none.

    The stitchers call this rather than `_cycle_orders` so that the
    benchmark's tracer (`bench/tracing.py`) can time their searches as
    its `paths.search` frame.
    """
    return next(_cycle_orders(H, blocks, windows, phases, budget), None)


def _search_path(
    H: Hypergraph,
    ell: int,
    a: Tuple[int, ...],
    b: Tuple[int, ...],
    total: int,
    pool: Sequence[int],
    budget: Optional[_Budget],
) -> Optional[Tuple[int, ...]]:
    """First ell-path ordering of `total` vertices from a to b, or None.

    The first and last ell positions are pinned to spell out a and b in
    order; the interior vertices are drawn from `pool`.
    """
    interior = vertex_mask(pool) & ~vertex_mask(a + b)
    allowed = [1 << v for v in a] + [interior] * (total - 2 * ell) + [1 << v for v in b]
    windows = _windows(H.k, H.k - ell, total, False)
    return next(_ordered_search(H, windows, total, allowed, budget), None)


# -- Hamilton cycle enumeration ------------------------------------------


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
    if n < k or not H._codegree_neighbours():
        return 0 if mode == "count" else []

    windows = _windows(k, gap, n, True)
    found: dict = {}
    for order in _cycle_orders(H, (range(n),), windows, gap, _Budget(budget)):
        edge_set = frozenset(tuple(sorted(order[q] for q in w)) for w in windows)
        found.setdefault(edge_set, order)
    if mode == "count":
        return len(found)
    return [EllCycle(o, k, ell) for o in found.values()]
