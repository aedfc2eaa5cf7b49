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
one-bit masks (`_search_path`, which `can_absorb` runs).  It takes any
layout, so the F-factor code finds copies of F with it too.  Its one
window test is a lookup of the window's other vertices, in the order the
search placed them, in the host's any-order view of its codegree masks,
so no window test sorts once its key has been seen.  It stops
at the last position: it yields each prefix of the others once, with
the mask of every vertex that completes it.  A first-hit search takes
the mask's lowest bit, a count adds popcounts, and a listing expands
the masks in ascending order (`_orderings`).  Every cyclic search runs
through `_cycle_orders`, which confines each position to the block
whose arc covers it; a phase is a position where the first arc may
start, and a single block (the enumerator's whole vertex set) pins its
least vertex there instead.  This search layer takes every vertex set
as a bitmask: each public entry converts once.

The search breaks one symmetry, and the orbit count a second.  A class
is a set of positions that lie in exactly the same windows and draw
from the same allowed mask; any permutation of the vertices inside
classes keeps every window's vertex set.  So the search fills each
class in ascending order (the class cut, one "vertex above the one at
an earlier position" link per position), which keeps the first
ordering it finds and the least ordering of every edge set.  The
enumerator's list mode, the stitchers, `can_absorb` and the F-factor
copies read no more than that.  A caller that needs every ordering
either weights each one by the product of its classes' sizes'
factorials (`_class_weight`, as `_cycle_orders` does for the orbit
count), searches with no links (as the absorbers' outer count of
candidate paths does, because it reads the paths' ends) or matches what
it compares in every order within classes (as the absorbers' inner
searches do with the end tuples they collect).  The orbit count also
breaks the cyclic layout's reflection, where it has one: it searches
one ordering of each mirror pair and counts it twice, through one more
link or by skipping a phase (`_orbit_count`).

Searches carry explicit node budgets, one node per position entered, so
a budget bounds the nodes of the cut search tree; a partial result never
masquerades as an exact one.

Each cycle kind states its cyclic layout and phase count once
(`EllCycle.layout`, `PowerCycle.layout`), and copies of any such layout
W are counted as sub-hypergraphs (distinct edge sets), not orderings,
by one orbit count (`_orbit_count`, through `count_copies`): every copy
stands for the same number of orderings, which the same count on W,
taken as a host, gives.  So counting builds no edge set; only listing
keys Hamilton ell-cycles by their edge sets.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, DivisibilityError, InvalidQueryError, InvalidStructureError
from .hypergraphs import Hypergraph, mask_vertices


# -- domain types --------------------------------------------------------


def _check_distinct(order: Sequence[int]) -> None:
    if len(set(order)) != len(order):
        raise InvalidStructureError("ordering contains repeated vertices")


def _ell_order(order: Sequence[int], k: int, ell: int, cyclic: bool) -> Tuple[int, ...]:
    """`order` as a tuple, checked as the ordering of an ell-cycle (if
    `cyclic`) or an ell-path: distinct vertices, 0 <= ell < k, at least k
    of them, and k-ell dividing their number t (a cycle) or t-ell (a
    path); raises InvalidStructureError otherwise."""
    order = tuple(order)
    _check_distinct(order)
    t, gap = len(order), k - ell
    kind, name, span = ("cycle", "t", t) if cyclic else ("path", "t-ell", t - ell)
    if not 0 <= ell < k:
        raise InvalidStructureError(f"need 0 <= ell < k, got ell={ell}, k={k}")
    if t < k:
        raise InvalidStructureError(f"{kind} needs at least k={k} vertices, got {t}")
    if span % gap != 0:
        raise InvalidStructureError(f"(k-ell)={gap} must divide {name}={span}")
    return order


@dataclass(frozen=True)
class EllPath:
    """A linear ordering whose edges are k-windows at stride k-ell."""

    order: Tuple[int, ...]
    k: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "order", _ell_order(self.order, self.k, self.ell, False))

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
        object.__setattr__(self, "order", _ell_order(self.order, self.k, self.ell, True))

    @staticmethod
    def layout(k: int, ell: int, n: int) -> Tuple[Layout, int]:
        """The window layout of a Hamilton ell-cycle on n positions and
        its phase count k-ell, the rotation step that keeps it; raises
        unless 0 <= ell < k and k-ell divides n."""
        if not 0 <= ell < k:
            raise InvalidQueryError(f"need 0 <= ell < k, got ell={ell}, k={k}")
        gap = k - ell
        if n % gap != 0:
            raise DivisibilityError(f"(k-ell)={gap} must divide n={n}")
        return _windows(k, gap, n, True), gap

    def windows(self) -> List[Tuple[int, ...]]:
        layout, _ = self.layout(self.k, self.ell, len(self.order))
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

    @staticmethod
    def layout(k: int, t: int, n: int) -> Tuple[Layout, int]:
        """The window layout of the (t-k+1)th power of a Hamilton tight
        cycle on n >= t >= k positions, and its phase count, 1: every
        rotation keeps it."""
        return _power_windows(k, t, n), 1

    def windows(self) -> List[Tuple[int, ...]]:
        layout, _ = self.layout(self.k, self.t, len(self.order))
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


def _getter(positions: Tuple[int, ...]):
    """A function from an ordering to the tuple of its vertices at
    `positions`, in that order."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # itemgetter of one position returns the bare vertex, not a tuple (k = 2)
    if positions:
        (q,) = positions
        return lambda order: (order[q],)
    return lambda order: ()  # k = 1: a window is its last position alone


@functools.lru_cache(maxsize=256)
def _plan(windows: Layout, length: int):
    """What the search needs of a layout over `length` positions: for
    each position p, getters of the other positions of every window that
    p is the last to fill, and p's mate, the last earlier position that
    lies in exactly the same windows, or -1; then the positions that
    have a mate."""
    closing: List[list] = [[] for _ in range(length)]
    member: List[list] = [[] for _ in range(length)]
    for i, w in enumerate(windows):
        last = max(w)
        closing[last].append(_getter(tuple(q for q in w if q != last)))
        for q in w:
            member[q].append(i)
    seen: dict = {}
    mate = []
    for p, m in enumerate(map(tuple, member)):
        mate.append(seen.get(m, -1))
        seen[m] = p
    return tuple(map(tuple, closing)), tuple(mate), tuple(p for p, q in enumerate(mate) if q >= 0)


def _class_links(windows: Layout, allowed: Sequence[int]) -> List[int]:
    """For each position p, the last earlier position of p's class, or -1.

    A class is a set of positions that lie in exactly the same windows
    and draw from the same allowed mask.  Permuting the vertices inside
    a class maps every ordering the search accepts to one with the same
    windows' vertex sets, so each ordering has exactly one such image
    whose classes are filled in ascending order.
    """
    _, mate, mated = _plan(windows, len(allowed))
    links = list(mate)
    for p in mated:
        q = mate[p]
        while q >= 0 and allowed[q] != allowed[p]:
            q = mate[q]
        links[p] = q
    return links


def _class_weight(windows: Layout, allowed: Sequence[int]) -> int:
    """The product of |class|! over the classes: how many orderings each
    one that the class cut keeps stands for."""
    rank: List[int] = []
    for q in _class_links(windows, allowed):
        rank.append(rank[q] + 1 if q >= 0 else 1)
    return math.prod(rank)


def _ordered_search(
    H: Hypergraph,
    windows: Layout,
    allowed: Sequence[int],
    budget: Optional[_Budget],
    links: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield, in lexicographic order, the orderings of len(allowed)
    vertices in which each window of the layout `windows` (position
    tuples, each of k positions) is an edge of H and each position p with
    links[p] >= 0 holds a vertex above the one at the earlier position
    links[p], grouped by all but their last vertex: one (prefix, mask)
    per prefix, the prefix filling positions 0..end-1 and the nonzero
    bitmask `mask` holding every vertex that completes it at the last
    position, end.  By default the links are the class links
    (`_class_links`), the class cut, which fills every class in
    ascending order; links of -1 everywhere keep every ordering.

    Positions are filled in order by one loop over a stack of
    per-position candidate masks.  Position p takes the vertices of the
    bitmask `allowed[p]` that are not yet placed, in ascending order; a
    one-bit mask pins p to its vertex.  The vertex must complete each
    window that closes there, so the candidates are cut down to those
    windows' codegree masks, and to the vertices above the one at p's
    link.  A window's mask is looked up in H's any-order view
    (`Hypergraph._any_order`) under the tuple of its other vertices in
    position order, as placed, so only a key's first lookup sorts it;
    every later one is a dict hit.  The
    last position's candidates are all that remain to choose, so they
    are yielded as that mask, not placed one by one: a caller counts
    them by popcount, takes the lowest bit for the first ordering, or
    lists them through `_orderings`.  The least ordering of each class
    orbit is the class-sorted one, so the class cut keeps a search's
    first ordering and the least of every orbit; a caller that counts
    every ordering, or reads what a permutation inside a class changes,
    passes links of -1.  With a budget, entering a position spends one
    node, the last one included, so a budget bounds the nodes of the
    tree the links leave.
    """
    length = len(allowed)
    closing = _plan(windows, length)[0]
    if links is None:
        links = _class_links(windows, allowed)
    get = H._any_order().__getitem__
    end = length - 1
    order = [-1] * end  # the last position is never placed
    rest = [0] * end  # the candidates still to try at each filled position
    free = (1 << H.n) - 1
    p = 0
    while True:
        # enter position p
        if budget is not None:
            budget.spend()
        c = free & allowed[p]
        q = links[p]
        if q >= 0:
            c &= -(2 << order[q])
        for others in closing[p]:
            c &= get(others(order))
        if p == end:
            if c:
                yield tuple(order), c
            c = 0
        # back up past positions that have no candidate left, then place p's next
        while not c:
            if not p:
                return
            p -= 1
            free |= 1 << order[p]
            c = rest[p]
        low = c & -c
        order[p] = low.bit_length() - 1
        rest[p] = c ^ low
        free ^= low
        p += 1


def _orderings(found: Iterable[Tuple[Tuple[int, ...], int]]) -> Iterator[Tuple[int, ...]]:
    """The full orderings of `_ordered_search`'s (prefix, mask) items, in
    its order: each prefix completed by the mask's vertices, ascending."""
    for prefix, mask in found:
        for v in mask_vertices(mask):
            yield prefix + (v,)


def _pinned(length: int, pool: int, p: int, v: int) -> List[int]:
    """Per-position masks for `_ordered_search`: position p takes only
    v, every other position the vertices of the mask `pool` other than v."""
    masks = [pool & ~(1 << v)] * length
    masks[p] = 1 << v
    return masks


@functools.lru_cache(maxsize=256)
def _reflection(windows: Layout, phases: int, n: int) -> Optional[int]:
    """The least c < `phases` for which p -> (c - p) mod n maps the set
    of windows of the cyclic layout `windows` on n >= 3 positions onto
    itself, or None if there is none or n < 3."""
    if n >= 3:
        sets = set(map(frozenset, windows))
        for c in range(phases):
            if {frozenset((c - p) % n for p in w) for w in sets} == sets:
                return c
    return None


def _mirror_link(links: List[int], s: int) -> bool:
    """Link the mirror pair (E, L) about position s, L = 2s - E mod n > E,
    with the least L such that both are classes of their own: set
    links[L] = E, so that the vertex at L exceeds the one at E.  False,
    and `links` unchanged, if there is no such pair."""
    n = len(links)
    alone = [q < 0 for q in links]
    for q in links:
        if q >= 0:
            alone[q] = False
    for last in range(n):
        first = (2 * s - last) % n
        if first < last and alone[first] and alone[last]:
            links[last] = first
            return True
    return False


def _cycle_orders(
    H: Hypergraph,
    blocks: Sequence[int],
    windows: Layout,
    phases: int,
    budget: _Budget,
    mirror: bool = False,
) -> Iterator[Tuple[int, Tuple[Tuple[int, ...], int]]]:
    """Every cyclic ordering in which the blocks (vertex masks) fill
    consecutive arcs in order and every window of the cyclic layout
    `windows` is an edge, V_1's arc starting at a phase s < `phases`,
    as `_ordered_search`'s (prefix, mask) items under the class cut, each
    with the number of such orderings that each of its orderings stands
    for: the class weight (`_class_weight`) of its phase's masks.

    Rotating an ordering by a multiple of `phases` must keep the
    layout; then any such ordering has a rotation found here.  A single
    block fixes no rotation, so its lowest bit is pinned at position s
    instead.  The phases are searched in order and share the budget.
    With `mirror` (one block only), the layout's reflection, if any
    (`_reflection`), halves the search, and the weights are doubled to
    match: a phase is skipped when its mirror phase is earlier, and a
    phase that is its own mirror links one mirror pair of positions
    (`_mirror_link`); `_orbit_count` states why this counts the same.
    """
    arcs = [block for block in blocks for _ in range(block.bit_count())]
    n = len(arcs)
    c = _reflection(windows, phases, n) if mirror else None
    for s in range(phases):
        if len(blocks) == 1:
            allowed = _pinned(n, blocks[0], s, (blocks[0] & -blocks[0]).bit_length() - 1)
        else:
            allowed = arcs[n - s:] + arcs[:n - s]
        links = _class_links(windows, allowed)
        weight = _class_weight(windows, allowed)
        if c is not None:
            t = (c - s) % phases
            if t < s:
                continue  # counted, doubled, at phase t
            if t > s or _mirror_link(links, s):
                weight *= 2
        yield from zip(itertools.repeat(weight), _ordered_search(H, windows, allowed, budget, links))


def _search_cycle(
    H: Hypergraph,
    blocks: Sequence[int],
    windows: Layout,
    phases: int,
    budget: _Budget,
) -> Optional[Tuple[int, ...]]:
    """The first ordering of `_cycle_orders`, or None if there is none.

    The stitchers call this rather than `_cycle_orders` so that the
    benchmark's tracer (`bench/tracing.py`) can time their searches as
    its `paths.search` frame.
    """
    found = _cycle_orders(H, blocks, windows, phases, budget)
    return next(_orderings(item for _, item in found), None)


def _search_path(
    H: Hypergraph,
    ell: int,
    a: Tuple[int, ...],
    b: Tuple[int, ...],
    interior: int,
    budget: Optional[_Budget],
) -> Optional[Tuple[int, ...]]:
    """First ell-path ordering from a to b through every vertex of the
    mask `interior`, which holds none of theirs, or None.

    The first and last ell positions are pinned to spell out a and b in
    order; the others draw from `interior`.
    """
    allowed = [1 << v for v in a] + [interior] * interior.bit_count() + [1 << v for v in b]
    windows = _windows(H.k, H.k - ell, len(allowed), False)
    return next(_orderings(_ordered_search(H, windows, allowed, budget)), None)


# -- counting copies of a cyclic layout ----------------------------------


def _orbit_count(
    windows: Layout, phases: int, budget: Optional[int], H: Optional[Hypergraph] = None
) -> int:
    """The orderings of H's vertices whose windows of the cyclic layout
    `windows` are all edges of H and that put vertex 0 at a phase
    position s < `phases`; with H None, those of W, the layout on its
    positions 0..n-1 taken as a host.

    This is the one count of copies of W, for any cyclic layout whose
    rotation by `phases` positions keeps it (an ell-cycle's, with k-ell
    phases, or a power of a tight cycle's, with one).  Each copy C of W
    in H is hit by one coset of Aut(W): the |Aut(W)| orderings whose
    windows are exactly C's edges.  Rotation by `phases` is an
    automorphism of W that moves vertex 0 on by `phases` positions, so
    it splits that coset into orbits of n/phases, each with vertex 0 at
    exactly one phase.  So every copy of W in H stands for the same
    number of the orderings counted here, N_W, the count on W itself:
    the count on H is copies(H) * N_W, and |Aut(W)| = n/phases * N_W.

    The search pins vertex 0 at phase s (`_cycle_orders` with the one
    block 0..n-1) and fills each window class in ascending order, so it
    finds one ordering per orbit of the class permutations, and those
    that share all but their last vertex as one mask, counted by its
    popcount; each stands for the product of |class|! over the classes
    of its phase's masks, vertex 0 being a class of its own.

    It also searches only half of the orderings where W reflects: where
    p -> (c - p) mod n maps the set of windows onto itself for some
    c < `phases` (`_reflection` checks each c; an ell-cycle's is
    (k-1) mod (k-ell), a power's 0).  For a phase s let t = (c - s) mod
    `phases` and r(p) = (s + t - p) mod n: that reflection followed by a
    rotation by a multiple of `phases`, so an automorphism of W.
    Reading an ordering through r maps those with vertex 0 at s one to
    one onto those with vertex 0 at t, and its inverse is t's map.  If
    t != s, the two phases count the same, so only the lesser is
    searched, and its count doubled.  If t = s, r(p) = 2s - p maps the
    orderings at s onto themselves, and for n >= 3 fixes none of them,
    since it swaps positions s - 1 and s + 1, which differ: they split
    into mirror pairs, whose two members swap the vertices at E and at
    L = 2s - E for every position E.  Where E and L are classes of their
    own, the class permutations move neither vertex, so the orderings
    with the larger vertex at L are a union of class orbits that holds
    one of each mirror pair: half of them.  So the search links L to E
    as the class cut links a class (`_mirror_link`, with the least such
    L, where it prunes the most) and the phase's weight doubles.  A
    phase with no such pair, or a layout with no reflection or n < 3, is
    searched whole.  The count is the same either way.  The search
    spends at most `budget` nodes, and its error names the host it ran
    on.
    """
    host = H if H is not None else Hypergraph(1 + max(map(max, windows)), len(windows[0]), windows)
    orders = _cycle_orders(host, ((1 << host.n) - 1,), windows, phases, _Budget(budget), True)
    try:
        return sum(weight * mask.bit_count() for weight, (_, mask) in orders)
    except BudgetExceededError:
        search = "the host's cycle search" if H is not None else (
            "the cycle search on W, the window layout as a host")
        raise BudgetExceededError(
            f"search budget {budget} exhausted in {search}; result invalid"
        ) from None


@functools.lru_cache(maxsize=256)
def _window_count(windows: Layout, phases: int, budget: Optional[int]) -> int:
    """N_W (`_orbit_count` on W), kept per budget once its search completes."""
    return _orbit_count(windows, phases, budget)


def count_copies(H: Hypergraph, windows: Layout, phases: int, budget: Optional[int] = None) -> int:
    """The number of distinct copies (edge sets) in H of W, the cyclic
    layout `windows` on H's vertex count with `phases` phases (as
    `EllCycle.layout` and `PowerCycle.layout` give it).

    It divides `_orbit_count` on H by the same count on W, which it
    reads (`_window_count`) only when H has a copy; each search spends
    at most `budget` nodes.
    """
    # an edgeless host, as every host with fewer vertices than an edge is, needs no search
    orbits = _orbit_count(windows, phases, budget, H) if H._codegree_neighbours() else 0
    if not orbits:
        return 0
    count, rest = divmod(orbits, _window_count(windows, phases, budget))
    assert not rest, f"{orbits} orderings do not split into copies of the same count"
    return count


# -- Hamilton cycle enumeration ------------------------------------------


def enumerate_hamilton_ell_cycles(
    H: Hypergraph,
    ell: int,
    mode: str = "count",
    budget: Optional[int] = None,
):
    """Count (or list) the distinct Hamilton ell-cycles of H.

    Distinctness is by edge set, so rotations and reflections of the
    same sub-hypergraph count once.  Count mode is `count_copies` on the
    ell-cycle layout; each search spends at most `budget` nodes.  List
    mode keeps the first ordering the search finds of each edge set, in
    search order.
    """
    if mode not in ("count", "list"):
        raise InvalidQueryError(f"mode must be 'count' or 'list', got {mode!r}")
    windows, phases = EllCycle.layout(H.k, ell, H.n)
    if mode == "count":
        return count_copies(H, windows, phases, budget)
    cycles: dict = {}
    if H._codegree_neighbours():  # an edgeless host (any with n < k) has no cycle
        found = _cycle_orders(H, ((1 << H.n) - 1,), windows, phases, _Budget(budget))
        for order in _orderings(item for _, item in found):
            cycle = EllCycle(order, H.k, ell)
            cycles.setdefault(cycle.edge_set(), cycle)
    return list(cycles.values())
