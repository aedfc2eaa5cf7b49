"""k-uniform hypergraphs with exact degree queries.

Vertices are dense integers 0..n-1 and edges are sorted k-tuples.  A
hypergraph's edges are fixed at construction.  Its codegree index maps
each sorted (k-1)-tuple U to one int bitmask whose bit v is set iff
U + {v} is an edge.  The only degree is the codegree, |U| = k-1, and
every count of it comes from one kernel over these masks, `_degrees`;
the searches cut their candidates down with `&`.

Every host stores these masks, and the edge set, `num_edges`, `==`,
`hash`, pickling and `to_edge_list` are read off them alone.
`Hypergraph(n, k, edges)` hands the edges' columns to one validator,
`_masks`, that builds them; so does `from_edge_list`, but for dense
canonical text (below).

The one thing a host derives from its masks after construction is its
any-order view (`_any_order`, an `_AnyOrder`): the same masks keyed by
every ordering of a (k-1)-tuple that a search has looked up, built on
the first search and filled one key at a time.  A search reads a
window's other vertices in the order it placed them, so each key is
sorted only on its first lookup; every later one is a plain dict hit.
The view holds at most (k-1)!·C(n, k-1) entries, and only as many as
the searches look up; it dies with its host and is not pickled, so each
worker process fills its own.

Binomial and complete hosts are drawn by one sampler, `_sample`, one
(k-1)-prefix run at a time in lexicographic order; `gen_random` builds
its host from the runs, and `generate` writes them as they are drawn,
formatted by `_run_text` as `to_edge_list` formats its runs, so the
file needs no host and no masks.

`from_edge_list` tokenizes text laid out exactly as `to_edge_list` (and
so `generate`) writes it in newline-aligned chunks, `_chunk_columns`,
which also looks each entry up in a table of the names of 0..n-1: a
chunk whose lines are not k decimal entries joined by single spaces, or
an entry no table names, sends the whole text to the line-by-line
reader, whose messages name the fault.  The tables are built only when
the text holds at least n entries.

The masks come from one of two builders, picked by the input alone.
The edge indicator reads the masks off a transient n**k-byte table, k
strided slices per mask, in one Python step for each of the C(n, k-1)
(k-1)-sets; the per-edge builder sets each edge's k bits one at a time.
The indicator is taken when n**k is at most `_CELLS_PER_EDGE` (32) bytes
per edge line, so a sparse host or one with large n costs no n**k
bytes, and the edges put at least `_EDGES_PER_SET` (16) bits on each
(k-1)-set on average (k*|E| >= 16*C(n, k-1)), so its per-set step pays
off.  For columns, n is one more than the largest vertex; for canonical
text it is the header's n, and |E| the line count, so the pick comes
before any entry is read.

Canonical text that picks the indicator never becomes columns: each
chunk's entries at position i are looked up in a table that maps the
name of v to v * n**(k-1-i), and each line's sum is the cell it sets.
A line that is not strictly increasing sets a cell that no (k-1)-set
reads, so the row check is one count: if the edges read are fewer than
the cells set, the text is read again into columns, and `_masks` sorts
the line or names its repeated vertex.

A mask is as wide as its largest vertex, so on a dense host (the
paper's setting) the masks are smaller than the edge set, but a sparse
host with large n pays up to k * |E| * n / 8 bytes for them, whichever
constructor built it.

Degrees and thresholds are exact (ints / Fractions), never floats, so
comparisons like delta(H) >= (d + g) * n never hinge on rounding.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidQueryError

Edge = Tuple[int, ...]

# Canonical text is tokenized in newline-aligned chunks of about this many
# characters: streaming n96k3 (138k lines) into the indicator peaked at
# +1.5 MB (tracemalloc), against +2.8 MB with 64K chunks at the same speed and
# +9.7 MB for the entry and column lists that 256K chunks fed `_masks`.
_CHUNK = 1 << 14

# The edge indicator's n**k bytes stay within this many per edge line.  Best
# of 5 on canonical binomial text, the stream still beat the per-edge builder
# at 41 cells per edge (n96k3 p 0.15: 18.5 against 20.3 ms) and lost at 49
# (n400k2 p 0.04: 2.4 against 2.2 ms); at k = 4, 91 cells (n48k4 p 0.3) took
# 74 against 78 ms.  n128k3, n96k3 and n48k4 at p = 0.97 need 6.3, 6.4, 28.
_CELLS_PER_EDGE = 32

# The indicator spends one Python step per (k-1)-set, the per-edge builder one
# per edge bit: best of 5 on canonical binomial text, they broke even at about
# 16 bits per set (n18k3 p 0.9: 14.4 bits, 771 against 704 us for the stream;
# n20k3: 16.3 bits, 876 against 981 us), and the oracles hosts carry 5-10.
_EDGES_PER_SET = 16


class _AnyOrder(dict):
    """A host's codegree masks keyed by any ordering of a (k-1)-tuple of
    vertices: a missing key is sorted once, its mask (0 if there is none)
    read off the masks and stored under the key as given."""

    __slots__ = ("_conbr",)

    def __init__(self, conbr: Dict[Edge, int]):
        super().__init__()
        self._conbr = conbr

    def __missing__(self, key: Edge) -> int:
        m = self[key] = self._conbr.get(tuple(sorted(key)), 0)
        return m


class Hypergraph:
    """An n-vertex k-uniform hypergraph over vertices 0..n-1."""

    __slots__ = ("n", "k", "_conbr", "_view")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]] = ()):
        if k < 1:
            raise InvalidQueryError(f"uniformity k={k} must be >= 1")
        if n < 0:
            raise InvalidQueryError(f"vertex count n={n} must be >= 0")
        self.n = n
        self.k = k
        rows = list(map(tuple, edges))
        bad = next((tuple(sorted(e)) for e in rows if len(e) != k), None)
        if bad is not None:
            raise InvalidQueryError(f"edge {bad} is not a set of {k} distinct vertices")
        # no rows, no columns, so a huge k builds nothing
        cols = [list(map(operator.itemgetter(i), rows)) for i in range(k)] if rows else []
        self._conbr = _masks(n, cols)
        self._view = None

    def __getstate__(self):
        # the masks alone: the any-order view is derived, and filled again where it is used
        return self.n, self.k, self._conbr

    def __setstate__(self, state) -> None:
        self.n, self.k, self._conbr = state
        self._view = None

    # -- basic accessors ------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Edge]:
        # each edge once, as its least k-1 vertices (a key) plus a vertex of
        # the key's mask above them
        return frozenset(
            u + (v,)
            for u, m in self._conbr.items()
            for v in mask_vertices(m >> (u[-1] + 1) << (u[-1] + 1) if u else m)
        )

    def num_edges(self) -> int:
        # each edge sets one bit in the mask of each of its k keys
        return sum(m.bit_count() for m in self._conbr.values()) // self.k

    def has_edge(self, vs: Iterable[int]) -> bool:
        # the key is every vertex but the largest; keys hold k-1 distinct
        # vertices and no mask has a bit of its own key, so a wrong arity or
        # a repeated vertex finds no bit
        u = sorted(vs)
        try:
            v = u.pop()
            return self._codegree_neighbours().get(tuple(u), 0) >> v & 1 == 1
        except (IndexError, ValueError):  # no vertex, or a negative shift
            return False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and self._conbr == other._conbr
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self._conbr.items())))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k})"

    # -- degree queries -------------------------------------------------

    def _codegree_neighbours(self) -> Dict[Edge, int]:
        """Map each (k-1)-subset U of an edge to the bitmask of the vertices
        v completing it: bit v is set iff U + {v} is an edge."""
        return self._conbr

    def _any_order(self) -> _AnyOrder:
        """The codegree masks keyed by any ordering of a (k-1)-tuple, built on
        first use (the module docstring has its size bound)."""
        if self._view is None:
            self._view = _AnyOrder(self._conbr)
        return self._view

    def degree(self, U: Iterable[int], S: Iterable[int]) -> int:
        """The codegree d(U, S), |U| = k-1: the vertices v of S with U + {v}
        an edge, from `_degrees`."""
        u, s = frozenset(U), frozenset(S)
        if len(u) != self.k - 1:
            raise InvalidQueryError(f"codegree needs |U| = k-1 = {self.k - 1}, got {len(u)}")
        if u & s:
            raise InvalidQueryError(f"U and S must be disjoint, share {sorted(u & s)}")
        if any(v < 0 or v >= self.n for v in u | s):
            raise InvalidQueryError("U and S must be subsets of the vertex set")
        return _degrees(self, u, s)[1][0]

    # -- serialization ---------------------------------------------------

    def to_edge_list(self) -> str:
        """Text format: first line `n k`, then one sorted edge per line."""
        lines = [f"{self.n} {self.k}\n"]
        # names up to the largest vertex, not n: a sparse host may have a huge n
        top = max((m.bit_length() for m in self._conbr.values()), default=0)
        names = list(map(str, range(top)))
        zero_one = bytes.maketrans(b"01", b"\0\1")
        for u in sorted(self._conbr):
            # the edges whose least k-1 vertices are u, as u + (v,) in
            # ascending v: the bits of u's mask above u[-1] pick the names of v
            lo = u[-1] + 1 if u else 0
            m = self._conbr[u] >> lo << lo
            if m:
                bits = format(m, "b")[::-1].encode().translate(zero_one)
                lines.append(_run_text(u, itertools.compress(names, bits)))
        return "".join(lines)

    @classmethod
    def from_edge_list(cls, text: str) -> "Hypergraph":
        """Parse the text format straight into the codegree masks.

        Each edge line is checked as `__init__` checks an edge; blank,
        unsorted and repeated lines are accepted and canonicalised."""
        H = cls._from_canonical_text(text)
        if H is None:
            H, vals = cls._entries_by_line(text)
            if vals:
                # column i holds each line's i-th vertex
                cols = [vals[i::H.k] for i in range(H.k)]
                del vals  # freed before the masks are built, which lowers the load's peak
                H._conbr = _masks(H.n, cols)
        return H

    @classmethod
    def _from_canonical_text(cls, text: str) -> Optional["Hypergraph"]:
        """The host of text laid out exactly as `to_edge_list` writes it: the
        header `n k`, then lines of k decimal vertices below n joined by
        single spaces, each ended by a newline but maybe the last.  None for
        any other text.

        When n and the line count pick the edge indicator, each chunk's
        cells go straight into it.  If the indicator then holds a cell that
        no (k-1)-set reads, some line was not strictly increasing, and the
        text is read again into columns for `_masks`, which sorts the line
        or names its repeated vertex."""
        end = text.find("\n")
        if end < 0:
            end = len(text)
        head = text[:end]
        try:
            n, k = map(int, head.split(" "))
        except ValueError:
            return None
        # the body, text[end + 1:stop], is read in place: a copy would cost its size
        stop = len(text) - text.endswith("\n")
        lines = text.count("\n", end + 1, stop) + 1
        # a name table costs n entries and the layout k bytes, so the input
        # must hold at least as many
        if head != f"{n} {k}" or not 0 <= n <= k * lines or not 1 <= k <= stop - end:
            return None
        H = cls(n, k)
        try:
            if n**k <= _CELLS_PER_EDGE * lines and k * lines >= _EDGES_PER_SET * comb(n, k - 1):
                # entry i of a line names v, weighted v * n**(k-1-i): the
                # line's weights sum to its cell
                weights = [n ** (k - 1 - i) for i in range(k)]
                tables = [{str(v): v * w for v in range(n)} for w in weights]
                S = bytearray(b"0") * n**k
                for cols in _chunk_columns(text, end + 1, stop, tables):
                    _write_cells(S, cols)
                H._conbr = _indicator_masks(S, n, k)
                # the masks read only the cells of strictly increasing lines
                if H.num_edges() == S.count(b"1"):
                    return H
            names = {str(v): v for v in range(n)}
            cols = [[] for _ in range(k)]
            for part in _chunk_columns(text, end + 1, stop, [names] * k):
                for col, entries in zip(cols, part):
                    col += entries
        except _NotCanonical:
            return None
        H._conbr = _masks(n, cols)
        return H

    @classmethod
    def _entries_by_line(cls, text: str) -> Tuple["Hypergraph", list]:
        """The edgeless host of any accepted text's header, and its entries
        read line by line, with a message that names the first fault."""
        lines = list(filter(str.strip, text.splitlines()))
        if not lines:
            raise InvalidQueryError("empty edge-list input")
        head = lines[0].split()
        if len(head) != 2:
            raise InvalidQueryError(f"header must be 'n k', got {lines[0]!r}")
        try:
            n, k = int(head[0]), int(head[1])
        except ValueError:
            raise InvalidQueryError(f"header must be two integers 'n k', got {lines[0]!r}") from None
        H = cls(n, k)  # checks k >= 1 and n >= 0

        def entries(line: str) -> list:
            row = line.split()
            if len(row) != k:
                raise InvalidQueryError(f"edge line {line!r} does not hold {k} vertices")
            return row

        try:
            return H, list(map(int, itertools.chain.from_iterable(map(entries, lines[1:]))))
        except InvalidQueryError:
            raise
        except ValueError as exc:
            raise InvalidQueryError(f"edge list entries must be integers: {exc}") from None


class _NotCanonical(Exception):
    """Text not laid out exactly as `to_edge_list` writes it."""


def _chunk_columns(
    text: str, start: int, stop: int, tables: Sequence[Dict[str, int]]
) -> Iterator[List[list]]:
    """The k columns of each newline-aligned chunk of `text[start:stop]`, about
    `_CHUNK` characters long, with column i's entries looked up in
    `tables[i]`.  Raises `_NotCanonical` at the first chunk whose lines are
    not k decimal entries joined by single spaces, or that holds an entry
    no table names (an empty entry, a leading zero, or n and above)."""
    k = len(tables)
    # what is left of a line without its digits: k-1 spaces, a newline
    layout = b" " * (k - 1) + b"\n"
    while start < stop:
        end = text.find("\n", start + _CHUNK, stop)
        if end < 0:
            end = stop
        chunk = text[start:end]
        start = end + 1
        if not chunk.isascii():
            raise _NotCanonical
        seps = chunk.encode().translate(None, b"0123456789") + b"\n"
        if seps != layout * seps.count(b"\n"):
            raise _NotCanonical
        tokens = chunk.replace("\n", " ").split(" ")
        try:
            cols = [list(map(t.__getitem__, tokens[i::k])) for i, t in enumerate(tables)]
        except KeyError:
            raise _NotCanonical from None
        del chunk, tokens  # freed before the caller takes the columns
        yield cols


def _increasing(cols) -> bool:
    """Whether every row of the columns is strictly increasing."""
    return all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:]))


def _sort_rows(cols) -> None:
    """Sort, in place, the rows of the column lists that are not strictly
    increasing, in row order; raise at the first that repeats a vertex."""
    k = len(cols)
    increasing = map(all, zip(*(map(operator.lt, a, b) for a, b in zip(cols, cols[1:]))))
    for i in list(itertools.compress(itertools.count(), map(operator.not_, increasing))):
        row = sorted(col[i] for col in cols)
        if len(set(row)) < k:
            raise InvalidQueryError(f"edge {tuple(row)} is not a set of {k} distinct vertices")
        for col, v in zip(cols, row):
            col[i] = v


def _masks(n: int, cols) -> Dict[Edge, int]:
    """The codegree masks of the edges whose i-th vertices form column i
    (lists, which it may reorder within rows), after the one check of
    edges: each row, sorted, must be k distinct vertices of 0..n-1.  Only
    the rows that are not sorted are sorted."""
    if not cols or not cols[0]:
        return {}
    if not _increasing(cols):
        _sort_rows(cols)
    # the indicator spans 0..top-1
    top, k, rows = max(cols[-1]) + 1, len(cols), len(cols[0])
    if min(cols[0]) < 0 or top > n:
        bad = next(e for e in zip(*cols) if e[0] < 0 or e[-1] >= n)
        raise InvalidQueryError(f"edge {bad} has vertices outside 0..{n - 1}")
    if top**k <= _CELLS_PER_EDGE * rows and k * rows >= _EDGES_PER_SET * comb(top, k - 1):
        S = bytearray(b"0") * top**k
        weights = [top ** (k - 1 - i) for i in range(k)]
        _write_cells(S, [map(operator.mul, c, itertools.repeat(w)) for c, w in zip(cols, weights)])
        return _indicator_masks(S, top, k)
    return _edge_masks(cols)


def _edge_masks(cols) -> Dict[Edge, int]:
    """`_masks` one edge at a time."""
    nbr: Dict[Edge, int] = {}
    get = nbr.get
    for i, col in enumerate(cols):
        rest = cols[:i] + cols[i + 1:]
        for u, v in zip(zip(*rest) if rest else itertools.repeat(()), col):
            nbr[u] = get(u, 0) | 1 << v
    return nbr


def _write_cells(S: bytearray, cols) -> None:
    """Set byte c of the edge indicator S to b"1" for the cell c of each
    row of the columns, the sum of its entries: `v * n**(k-1-i)` for the
    vertex v in column i."""
    cells = cols[0]
    for col in cols[1:]:
        cells = map(operator.add, cells, col)
    collections.deque(map(S.__setitem__, cells, itertools.repeat(ord("1"))), maxlen=0)


def _indicator_masks(S: bytearray, n: int, k: int) -> Dict[Edge, int]:
    """The codegree masks of the edge indicator S over vertices 0..n-1:
    byte e[0]*n**(k-1) + ... + e[k-1] of S is b"1" iff e is an edge.  The
    mask of U reads U + {v} for all v at once, as one strided slice of S
    for each gap of U that v can fall in, with b"0" at U's own vertices;
    base 2 is exempt from int's digit limit.  Only the cells of strictly
    increasing tuples are read."""
    # the weight of each position of a sorted edge
    weight = [n ** (k - 1 - i) for i in range(k)]
    # with v in gap j of U, u[i] has weight[i] below j and weight[i + 1] from it
    shift = [a - b for a, b in zip(weight, weight[1:])] + [0]
    nbr: Dict[Edge, int] = {}
    for u in itertools.combinations(range(n), k - 1):
        base = sum(map(operator.mul, u, weight[1:]))
        gaps = []
        lo = 0
        for hi, w, d in zip(u + (n,), weight, shift):
            gaps.append(S[base + lo * w : base + hi * w : w])
            base += hi * d
            lo = hi + 1
        m = int(b"0".join(gaps)[::-1], 2)
        if m:
            nbr[u] = m
    return nbr


def _degrees(
    H: Hypergraph, pool: Iterable[int], target: Collection[int]
) -> Tuple[List[Edge], List[int]]:
    """The codegree kernel: the (k-1)-subsets U of `pool` in lexicographic
    order, and the list of their degrees d(U, target - U), each one `&` of
    U's mask with the target's and a popcount (a mask never holds its
    key's vertices)."""
    get = H._codegree_neighbours().get
    tmask = vertex_mask(target)
    pool = sorted(pool)
    # combinations would first allocate k-1 indices, however few the pool's vertices
    subsets = list(itertools.combinations(pool, H.k - 1)) if H.k <= len(pool) + 1 else []
    return subsets, [(get(U, 0) & tmask).bit_count() for U in subsets]


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask of a set of non-negative vertices: bit v for each v."""
    return functools.reduce(operator.or_, map((1).__lshift__, vertices), 0)


def mask_vertices(m: int) -> Iterator[int]:
    """The vertices of a bitmask, in ascending order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@dataclass(frozen=True)
class GoodnessSpec:
    """Codegree fraction delta and slack gamma for goodness checks."""

    delta: Fraction
    gamma: Fraction

    def __post_init__(self):
        d, g = Fraction(self.delta), Fraction(self.gamma)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "gamma", g)
        if not 0 <= d <= 1:
            raise InvalidQueryError(f"delta = {d} must lie in [0, 1]")
        if not 0 < g < 1:
            raise InvalidQueryError(f"gamma = {g} must lie in (0, 1)")
        if d + g > 1:
            raise InvalidQueryError(f"delta + gamma = {d + g} exceeds 1")


def dirac_threshold(k: int, ell: int) -> Fraction:
    """Codegree fraction above which Hamilton ell-cycles appear.

    1/2 when (k - ell) divides k, else 1 / (ceil(k/(k-ell)) * (k-ell)).
    """
    if k < 2 or not 1 <= ell <= k - 1:
        raise InvalidQueryError(f"need k >= 2 and 1 <= ell <= k-1, got k={k}, ell={ell}")
    gap = k - ell
    if k % gap == 0:
        return Fraction(1, 2)
    return Fraction(1, -(-k // gap) * gap)


def complete(n: int, k: int) -> Hypergraph:
    """The complete k-graph K_n^(k), from the runs of `_sample`."""
    return _from_runs(n, k, _sample(n, k, None, 0))


def empty(n: int, k: int) -> Hypergraph:
    """The edgeless k-graph on n vertices."""
    return Hypergraph(n, k)


def gen_random(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Binomial random k-graph: each k-subset kept with probability p.

    Deterministic given the seed; iteration order over k-subsets is
    lexicographic, so equal seeds give identical edge sets.  The draws
    come from `_sample`, the sampler that `generate --family binomial`
    streams to text, so both keep the same edges.
    """
    return _from_runs(n, k, _sample(n, k, p, seed))


def _from_runs(n: int, k: int, runs: Iterable[Tuple[Edge, Sequence[int]]]) -> Hypergraph:
    """The host of `_sample`'s runs: the edges u + (v,) for each v of u's run."""
    return Hypergraph(n, k, (u + (v,) for u, vs in runs for v in vs))


def _sample(n: int, k: int, p: Optional[float], seed: int) -> Iterator[Tuple[Edge, Sequence[int]]]:
    """The edges of a binomial (p a probability) or complete (p None)
    k-graph, one run per (k-1)-prefix u in lexicographic order: the
    kept v > u[-1], ascending, so the edges u + (v,) come in
    lexicographic order.  Each candidate v of a binomial host is kept on
    one draw `rng.random() < p` of `random.Random(seed)`, in that order,
    which is the order of `combinations(range(n), k)`.

    The arguments are checked at the call, before any draw."""
    if p is not None:
        if n < k:
            raise InvalidQueryError(f"need n >= k, got n={n}, k={k}")
        if not 0 <= p <= 1:
            raise InvalidQueryError(f"probability p={p} out of [0, 1]")
    Hypergraph(n, k)  # k >= 1 and n >= 0
    # with k > n there is no edge, and combinations would first allocate k-1 indices
    prefixes = itertools.combinations(range(n), k - 1) if k <= n else ()
    runs = ((u, range(u[-1] + 1 if u else 0, n)) for u in prefixes)
    if p is None:
        return runs
    draw = random.Random(seed).random
    return ((u, [v for v in vs if draw() < p]) for u, vs in runs)


def _run_text(u: Edge, names: Iterable[str]) -> str:
    """The canonical edge lines u + (v,), one per name of v given in
    ascending order; `to_edge_list` and `generate` write every run so."""
    head = "%d " * len(u) % u
    return head + f"\n{head}".join(names) + "\n"
