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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import InvalidQueryError, InvalidStructureError
from .hypergraphs import Hypergraph, vertex_mask
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
    count reaches beta * n^t_abs."""
    k = H.k
    if not 1 <= ell < k:
        raise InvalidQueryError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    s = frozenset(S)
    if len(s) != k - ell:
        raise InvalidQueryError(f"S must have k-ell = {k - ell} vertices, got {len(s)}")
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
    # the masks keep S off every position, so each path found is an
    # ell-path of H disjoint from S; it absorbs S iff some ell-path with
    # its ends spans its vertices and S, searched with no budget of its own.
    # Every ordering counts, and which vertices are ends depends on it, so
    # the outer search walks them all: no class cut
    s_mask = vertex_mask(s)
    allowed = (((1 << H.n) - 1) & ~s_mask,) * t
    count = 0
    layout = _windows(k, k - ell, t, False)
    for order in _ordered_search(H, layout, t, allowed, _Budget(budget), cut=False):
        interior = s_mask | vertex_mask(order[ell:t - ell])
        if _search_path(H, ell, order[:ell], order[t - ell:], interior, None) is not None:
            count += 1
    good = count >= cfg.beta * H.n ** t
    return count, good
