"""Absorbing-path predicates and good-set classification.

An ell-path P absorbs disjoint (k-ell)-sets S_1..S_t if some ell-path
Q with the same ends spans V(P) plus all the S_i.  A (k-ell)-set S is
(beta, t)-good when the host has at least beta * n^t absorbing paths
for S with exactly t vertices; paths are counted as ordered vertex
sequences, which is the only reading under which the n^t normalization
makes sense.

Everything here is an exhaustive decision procedure for small hosts;
the density arguments that make these definitions bite asymptotically are
out of reach at this scale and are not reproduced.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import InvalidQueryError, InvalidStructureError
from .hypergraphs import Hypergraph, mask_vertices, vertex_mask
from .paths import EllPath, _Budget, _ordered_search, _search_path, _windows, validate_ell_path


@dataclass(frozen=True)
class AbsorberConfig:
    """Density parameter beta and absorber path vertex count t_abs."""

    beta: Fraction
    t_abs: int

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta <= 0:
            raise InvalidQueryError("beta must be positive")


def _check_vertices(H: Hypergraph, vertices: Iterable[int], what: str) -> None:
    if any(not 0 <= v < H.n for v in vertices):
        raise InvalidQueryError(f"{what} must hold vertices of the host, 0..{H.n - 1}")


def can_absorb(
    H: Hypergraph,
    P: EllPath,
    sets: Sequence[Iterable[int]],
    budget: Optional[int] = None,
) -> Optional[EllPath]:
    """A witnessing ell-path spanning V(P) plus all the given sets,
    with P's ends, or None.  Empty `sets` returns P itself."""
    if not validate_ell_path(H, P):
        raise InvalidStructureError("P must be a valid ell-path in H")
    gap = H.k - P.ell
    pv = set(P.order)
    claimed: set = set()
    for S in sets:
        s = set(S)
        if len(s) != gap:
            raise InvalidQueryError(f"absorbed sets must have k-ell = {gap} vertices")
        _check_vertices(H, s, "absorbed sets")
        if s & pv or s & claimed:
            raise InvalidQueryError("absorbed sets must be disjoint from P and each other")
        claimed |= s
    if not claimed:
        return P
    a, b = P.order[:P.ell], P.order[len(P.order) - P.ell:]
    if set(a) & set(b):
        raise InvalidStructureError("P's first and last ell vertices must be disjoint")
    target = pv | claimed
    order = _search_path(H, P.ell, a, b, vertex_mask(target - set(a + b)), _Budget(budget))
    if order is None:
        return None
    witness = EllPath(order, H.k, P.ell)
    assert set(witness.order) == target and validate_ell_path(H, witness)
    return witness


def classify_set(
    H: Hypergraph,
    S: Iterable[int],
    cfg: AbsorberConfig,
    ell: int,
    budget: Optional[int] = None,
) -> Tuple[int, bool]:
    """Count ordered t_abs-vertex absorbing paths for S; good iff the
    count reaches beta * n^t_abs.

    One outer search, spending at most `budget` nodes, walks the
    candidate paths.  A candidate with first ell vertices a, last ell
    vertices b and interior I absorbs S iff some ell-path from a to b
    runs through X = S + I.  Candidates share (a, X) far more often than
    (a, X, b), so one unbudgeted inner search per (a, X) collects every
    end tuple reachable from a through X, as a map from its first ell-1
    vertices to the mask of its last ones.  The outer search yields the
    candidates that share all but their last vertex as one mask, so
    those absorbing S are counted at once: the popcount of that mask
    and the mask that the candidates' first ell-1 end vertices map to.
    """
    k = H.k
    if not 1 <= ell < k:
        raise InvalidQueryError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    s = frozenset(S)
    if len(s) != k - ell:
        raise InvalidQueryError(f"S must have k-ell = {k - ell} vertices, got {len(s)}")
    _check_vertices(H, s, "S")
    t = cfg.t_abs
    if t < k:
        raise InvalidQueryError(f"t_abs = {t} must be >= k = {k}")
    if (t - ell) % (k - ell) != 0:
        raise InvalidQueryError(
            f"no ell-path has t_abs = {t} vertices: (k-ell) must divide t_abs - ell"
        )
    if t < 2 * ell:
        raise InvalidQueryError(
            f"t_abs = {t} < 2*ell = {2 * ell}: an absorbing path's two ell-vertex ends "
            "would overlap"
        )
    if t > H.n - (k - ell):
        # an absorbing path avoids the k-ell vertices of S
        return 0, False
    # The masks keep S off every position, so each path the outer search
    # finds is an ell-path of H disjoint from S.  Every ordering counts, and
    # which vertices are ends depends on it, so the outer search walks them
    # all: no class cut.  It yields them in lexicographic order, so the
    # candidates with the same a are consecutive and `reachable` holds the
    # end maps of the current a only, one per X.
    #
    # The inner search runs on the ell-path layout of m = t + (k-ell)
    # positions: the first ell are pinned to a, the next |X| draw from X and
    # the last ell from every vertex outside a and X.  It keeps its class
    # cut.  The end positions alone draw from their mask, so those in exactly
    # the same windows form a class and come out in ascending order (at
    # (k, ell) = (4, 2), for one, both lie in the last window only); each
    # such end is stored under every rearrangement within its classes, so
    # that a candidate's end, in any order, finds its bit.  A yield's new
    # bits are the class-sorted ends not yet stored, and once the map holds
    # every such end there can be, the search stops.
    gap = k - ell
    m = t + gap
    inner = _windows(k, gap, m, False)
    by_windows: dict = {}
    for j in range(ell):
        by_windows.setdefault(tuple(w for w in inner if m - ell + j in w), []).append(j)
    classes = [c for c in by_windows.values() if len(c) > 1]
    rearrangements = []
    for moves in itertools.product(*map(itertools.permutations, classes)):
        index = list(range(ell))
        for c, moved in zip(classes, moves):
            for j, i in zip(c, moved):
                index[j] = i
        rearrangements.append(operator.itemgetter(*index))
    # the class-sorted ell-tuples of the n - (m - ell) vertices outside a and X
    most = math.perm(max(H.n - m + ell, 0), ell) // math.prod(
        math.factorial(len(c)) for c in classes)
    s_mask = vertex_mask(s)
    everyone = (1 << H.n) - 1
    allowed = (everyone & ~s_mask,) * t
    count = 0
    prefix, reachable = None, {}
    outer = _windows(k, gap, t, False)
    for order, last in _ordered_search(H, outer, allowed, _Budget(budget), [-1] * t):
        a = order[:ell]
        if a != prefix:
            prefix, reachable = a, {}
        x = s_mask | vertex_mask(order[ell:t - ell])
        ends = reachable.get(x)
        if ends is None:
            ends = reachable[x] = {}
            found = 0
            rest = everyone & ~(x | vertex_mask(a))
            masks = [1 << v for v in a] + [x] * (m - 2 * ell) + [rest] * ell
            for q, mask in _ordered_search(H, inner, masks, None):
                key = q[m - ell:]
                new = mask & ~ends.get(key, 0)
                if not new:
                    continue
                if classes:
                    for v in mask_vertices(new):
                        for rearranged in rearrangements:
                            end = rearranged(key + (v,))
                            ends[end[:-1]] = ends.get(end[:-1], 0) | 1 << end[-1]
                else:
                    ends[key] = ends.get(key, 0) | new
                found += new.bit_count()
                if found == most:
                    break
        count += (last & ends.get(order[t - ell:], 0)).bit_count()
    good = count >= cfg.beta * H.n ** t
    return count, good
