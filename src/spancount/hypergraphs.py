"""k-uniform hypergraphs with exact degree queries.

Vertices are dense integers 0..n-1 and edges are sorted k-tuples.  A
hypergraph is immutable after construction.  Its codegree index, built
on first use, maps each sorted (k-1)-tuple U to one int bitmask whose
bit v is set iff U + {v} is an edge.  A degree into a vertex set S is
then `(mask & S's mask).bit_count()`, and the searches cut their
candidates down with `&`.  Codegree queries dominate the partition
goodness checks.

Degrees and thresholds are exact (ints / Fractions), never floats, so
comparisons like delta(H) >= (d + g) * n never hinge on rounding.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .errors import InvalidQueryError

Edge = Tuple[int, ...]


class Hypergraph:
    """An n-vertex k-uniform hypergraph over vertices 0..n-1."""

    __slots__ = ("n", "k", "_edges", "_conbr")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]] = ()):
        if k < 1:
            raise InvalidQueryError(f"uniformity k={k} must be >= 1")
        if n < 0:
            raise InvalidQueryError(f"vertex count n={n} must be >= 0")
        self.n = n
        self.k = k
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != k or len(set(t)) != k:
                raise InvalidQueryError(f"edge {t} is not a set of {k} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise InvalidQueryError(f"edge {t} has vertices outside 0..{n - 1}")
            canon.add(t)
        self._edges: FrozenSet[Edge] = frozenset(canon)
        self._conbr: Dict[Edge, int] | None = None

    # -- basic accessors ------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def vertices(self) -> range:
        return range(self.n)

    def num_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, vs: Iterable[int]) -> bool:
        return tuple(sorted(vs)) in self._edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, |E|={len(self._edges)})"

    # -- degree queries -------------------------------------------------

    def _codegree_neighbours(self) -> Dict[Edge, int]:
        """Map each (k-1)-subset U of an edge to the bitmask of the vertices
        v completing it: bit v is set iff U + {v} is an edge."""
        if self._conbr is None:
            nbr: Dict[Edge, int] = {}
            get = nbr.get
            for e in self._edges:
                for i in range(self.k):
                    u = e[:i] + e[i + 1:]
                    nbr[u] = get(u, 0) | 1 << e[i]
            self._conbr = nbr
        return self._conbr

    def codegree_set(self, U: Iterable[int]) -> set:
        """Vertices v such that U + {v} is an edge; U must have k-1 vertices.

        The set is a fresh copy: changing it leaves the index alone."""
        u = tuple(sorted(U))
        if len(u) != self.k - 1:
            raise InvalidQueryError(f"codegree set needs |U| = {self.k - 1}, got {len(u)}")
        return set(mask_vertices(self._codegree_neighbours().get(u, 0)))

    def degree(self, U: Iterable[int], S: Iterable[int]) -> int:
        """d(U, S): edges containing U whose remaining vertices all lie in S."""
        u = frozenset(U)
        s = frozenset(S)
        if len(u) >= self.k:
            raise InvalidQueryError(f"|U| = {len(u)} must be at most k-1 = {self.k - 1}")
        if u & s:
            raise InvalidQueryError(f"U and S must be disjoint, share {sorted(u & s)}")
        if any(v < 0 or v >= self.n for v in u | s):
            raise InvalidQueryError("U and S must be subsets of the vertex set")
        if len(u) == self.k - 1:
            nbrs = self._codegree_neighbours().get(tuple(sorted(u)), 0)
            return (nbrs & vertex_mask(s)).bit_count()
        count = 0
        for e in self._edges:
            es = set(e)
            if u <= es and es - u <= s:
                count += 1
        return count

    def min_d_degree(self, d: int, within: Optional[Iterable[int]] = None) -> int:
        """Minimum of d_H(S) over all d-subsets S; d = k-1 is the codegree.

        With `within`, the minimum of d_{H[within]}(S) over the d-subsets S
        of `within`: only edges inside `within` count."""
        if not 1 <= d <= self.k - 1:
            raise InvalidQueryError(f"d = {d} must satisfy 1 <= d <= k-1 = {self.k - 1}")
        inside = frozenset(range(self.n) if within is None else within)
        if any(v < 0 or v >= self.n for v in inside):
            raise InvalidQueryError("within must be a subset of the vertex set")
        if len(inside) < d:
            raise InvalidQueryError(f"no {d}-subsets among {len(inside)} vertices")
        hits: Dict[Edge, int] = {}
        for e in self._edges:
            if inside.issuperset(e):
                for s in itertools.combinations(e, d):
                    hits[s] = hits.get(s, 0) + 1
        if len(hits) < comb(len(inside), d):
            return 0
        return min(hits.values())

    def min_codegree(self) -> int:
        """delta(H), the minimum (k-1)-degree."""
        return self.min_d_degree(self.k - 1)

    # -- serialization ---------------------------------------------------

    def to_edge_list(self) -> str:
        """Text format: first line `n k`, then one sorted edge per line."""
        lines = [f"{self.n} {self.k}"]
        for e in sorted(self._edges):
            lines.append(" ".join(str(v) for v in e))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text: str) -> "Hypergraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidQueryError("empty edge-list input")
        head = lines[0].split()
        if len(head) != 2:
            raise InvalidQueryError(f"header must be 'n k', got {lines[0]!r}")
        try:
            n, k = int(head[0]), int(head[1])
            edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
        except ValueError as exc:
            raise InvalidQueryError(f"edge list entries must be integers: {exc}") from None
        return cls(n, k, edges)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "k": self.k, "edges": [list(e) for e in sorted(self._edges)]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        data = json.loads(text)
        return cls(data["n"], data["k"], [tuple(e) for e in data["edges"]])


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
    """The complete k-graph K_n^(k)."""
    return Hypergraph(n, k, itertools.combinations(range(n), k))


def empty(n: int, k: int) -> Hypergraph:
    """The edgeless k-graph on n vertices."""
    return Hypergraph(n, k)


def gen_random(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Binomial random k-graph: each k-subset kept with probability p.

    Deterministic given the seed; iteration order over k-subsets is
    lexicographic, so equal seeds give identical edge sets.
    """
    if n < k:
        raise InvalidQueryError(f"need n >= k, got n={n}, k={k}")
    if not 0 <= p <= 1:
        raise InvalidQueryError(f"probability p={p} out of [0, 1]")
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < p]
    return Hypergraph(n, k, edges)
