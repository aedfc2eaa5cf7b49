"""Random balanced partitions with per-level event tracking.

A size vector splits n into r = 2^s nearly equal blocks, each a
multiple of a required divisor.  `draw_bisection` repeatedly halves
blocks uniformly at random with prescribed sizes; `random_bisection`
is that draw plus, at every level, whether each block still sees high
degree from every nearby (k-1)-set.  Event thresholds carry
fractional-power terms (m^{-1/4}, m^{-1/3}); each is turned once, in
exact integer arithmetic, into the least integer degree that meets
it, so marginal events never flip on rounding.

The degree events and `check_good` scan one degree kernel, `_degrees`:
d(U, V_i) for every (k-1)-set U of a three-block neighbourhood, each
one `&` of U's codegree bitmask with V_i's and a popcount.

At desk scale the thresholds frequently clamp to zero (events
vacuously true); each event records whether that happened so
experiments can tell vacuous checks from substantive ones.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstructionError, InvalidQueryError
from .hypergraphs import GoodnessSpec, Hypergraph, vertex_mask


# -- size vectors --------------------------------------------------------


@dataclass(frozen=True)
class SizeVector:
    """Block sizes (n_1, ..., n_r) with balance and divisibility data."""

    sizes: Tuple[int, ...]
    m: int
    divisor: int

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def check(self, k: int) -> None:
        """Raise ConstructionError naming the first violated invariant."""
        r = self.r
        if r & (r - 1) != 0 or r == 0:
            raise ConstructionError(f"block count r={r} is not a power of two")
        for ni in self.sizes:
            if not self.m <= ni <= 5 * self.m:
                raise ConstructionError(f"block size {ni} outside [m, 5m] = [{self.m}, {5 * self.m}]")
            if ni % self.divisor != 0:
                raise ConstructionError(f"block size {ni} not divisible by {self.divisor}")
        if max(self.sizes) - min(self.sizes) > 2 * k:
            raise ConstructionError(
                f"block sizes spread {max(self.sizes) - min(self.sizes)} exceeds 2k={2 * k}"
            )


def size_vector(n: int, m: int, divisor: int, k: int) -> SizeVector:
    """Construct block sizes: r = 2^s with 2m <= n/2^s < 4m, each block a
    divisor multiple, sizes within [m, 5m] and pairwise within 2k."""
    if divisor < 1 or m < 1:
        raise InvalidQueryError("m and divisor must be positive")
    if n % divisor != 0:
        raise ConstructionError(f"divisor {divisor} must divide n={n}")
    s = 0
    while n // 2 ** (s + 1) >= 2 * m:
        s += 1
    if not 2 * m <= n / 2 ** s < 4 * m:
        raise ConstructionError(
            f"no level count s gives 2m <= n/2^s < 4m for n={n}, m={m}"
        )
    r = 2 ** s
    base = divisor * (n // (r * divisor))
    extra = (n - r * base) // divisor
    sizes = tuple(base + divisor if i < extra else base for i in range(r))
    if extra and divisor > 2 * k:
        raise ConstructionError(
            f"uneven blocks need divisor {divisor} <= 2k = {2 * k} for balance"
        )
    sv = SizeVector(sizes, m, divisor)
    sv.check(k)
    return sv


# -- traces and partitions -----------------------------------------------


@dataclass(frozen=True)
class Partition:
    """An ordered partition of 0..n-1 into disjoint blocks."""

    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen: set = set()
        for b in self.blocks:
            bs = set(b)
            if len(bs) != len(b) or bs & seen:
                raise InvalidQueryError("partition blocks must be disjoint without repeats")
            seen |= bs

    @property
    def r(self) -> int:
        return len(self.blocks)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def vertex_set(self) -> frozenset:
        return frozenset(v for b in self.blocks for v in b)

    def block_of(self) -> Dict[int, int]:
        return {v: i for i, b in enumerate(self.blocks) for v in b}


@dataclass
class EventRecord:
    """Outcome of one degree event at one block of the bisection."""

    level: int
    index: int
    size: int
    holds: bool
    clamped: bool


@dataclass
class BisectionTrace:
    """Per-level blocks, sizes and event outcomes of one random bisection."""

    s: int
    level_blocks: List[List[Tuple[int, ...]]]
    events: List[List[EventRecord]]        # E_{i,j}, level i, 0-based j
    refinements: List[List[EventRecord]]   # F_{i-1,j}, indexed by parent level

    def level_event(self, i: int) -> bool:
        """E_i: every block event at level i holds."""
        return all(rec.holds for rec in self.events[i])

    def to_json(self) -> str:
        def records(level: List[EventRecord]) -> List[Dict]:
            return [{"size": r.size, "holds": r.holds, "clamped": r.clamped} for r in level]

        return json.dumps(
            {
                "s": self.s,
                "levels": [
                    {
                        "blocks": [list(b) for b in self.level_blocks[i]],
                        "events": records(self.events[i]),
                    }
                    for i in range(self.s + 1)
                ],
                "refinements": [records(level) for level in self.refinements],
            }
        )


def block_size_tree(sv: SizeVector) -> List[List[int]]:
    """m_{i,j}: sizes of the level-i blocks as partial sums of sv.sizes."""
    s = sv.r.bit_length() - 1
    tree = []
    for i in range(s + 1):
        width = 2 ** (s - i)
        tree.append(
            [sum(sv.sizes[j * width:(j + 1) * width]) for j in range(2 ** i)]
        )
    return tree


def degree_meets_threshold(d: int, spec: GoodnessSpec, m: int, exponent_den: int) -> bool:
    """Exact check of d >= (delta + gamma) * m - 2 * m^(1 - 1/exponent_den).

    exponent_den = 4 gives the -1/4 event threshold, 3 the -1/3
    refinement threshold.  The fractional power is never evaluated:
    the inequality is raised to the exponent_den-th power over exact
    rationals.
    """
    shortfall = (spec.delta + spec.gamma) * m - d
    if shortfall <= 0:
        return True
    # d >= (delta+gamma)m - 2*m^((exponent_den-1)/exponent_den)
    #   <=>  shortfall^exponent_den <= 2^exponent_den * m^(exponent_den-1)
    return shortfall ** exponent_den <= 2 ** exponent_den * m ** (exponent_den - 1)


@functools.lru_cache(maxsize=256)
def _least_degree(spec: GoodnessSpec, m: int, exponent_den: int) -> int:
    """The least integer degree that meets the event threshold; 0 means
    the event is clamped.  The threshold is monotone in d."""
    return next(d for d in itertools.count() if degree_meets_threshold(d, spec, m, exponent_den))


def _degrees(
    H: Hypergraph, blocks: Sequence[Tuple[int, ...]], j: int, block: Sequence[int]
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """The degree kernel: (U, d(U, block)) for every (k-1)-set U of blocks
    j-1, j and j+1 (cyclically), in lexicographic order.

    A codegree set never contains U's own vertices, so the count equals
    H.degree(U, block - U).
    """
    r = len(blocks)
    hood = set(blocks[(j - 1) % r]) | set(blocks[j]) | set(blocks[(j + 1) % r])
    nbrs = H._codegree_neighbours()
    bmask = vertex_mask(block)
    for U in itertools.combinations(sorted(hood), H.k - 1):
        yield U, (nbrs.get(U, 0) & bmask).bit_count()


def _event(
    H: Hypergraph, blocks: Sequence[Tuple[int, ...]], j: int, block, spec: GoodnessSpec, e: int
) -> Tuple[bool, bool]:
    """(holds, clamped) for the -1/e degree event of `block`, U ranging over
    blocks j-1, j and j+1; the scan stops at the first U that fails."""
    need = _least_degree(spec, len(block), e)
    return need == 0 or all(d >= need for _U, d in _degrees(H, blocks, j, block)), need == 0


# -- random bisection ----------------------------------------------------


def draw_bisection(H: Hypergraph, sv: SizeVector, seed: int) -> List[List[Tuple[int, ...]]]:
    """The blocks of every level of a seeded random halving of V(H).

    Each level splits every block uniformly at random into prescribed
    halves (seeded shuffle + prefix/suffix cut, exactly uniform over
    size-constrained bipartitions); the last level is the partition.
    """
    if sv.n != H.n:
        raise ConstructionError(f"size vector sums to {sv.n}, host has {H.n} vertices")
    tree = block_size_tree(sv)
    rng = random.Random(seed)
    level_blocks: List[List[Tuple[int, ...]]] = [[tuple(range(H.n))]]
    for i in range(1, len(tree)):
        children: List[Tuple[int, ...]] = []
        for j, parent in enumerate(level_blocks[-1]):
            left_size = tree[i][2 * j]
            right_size = tree[i][2 * j + 1]
            if left_size + right_size != len(parent):
                raise ConstructionError(
                    f"level {i} block {j}: children sizes {left_size}+{right_size}"
                    f" != parent size {len(parent)}"
                )
            shuffled = list(parent)
            rng.shuffle(shuffled)
            children.append(tuple(sorted(shuffled[:left_size])))
            children.append(tuple(sorted(shuffled[left_size:])))
        level_blocks.append(children)
    return level_blocks


def random_bisection(
    H: Hypergraph,
    sv: SizeVector,
    spec: GoodnessSpec,
    seed: int,
) -> Tuple[Partition, BisectionTrace]:
    """draw_bisection's partition, with the degree events E_{i,j} and
    refinement events F_{i-1,j} of every level.  Deterministic given
    the seed."""
    level_blocks = draw_bisection(H, sv, seed)
    events = [
        [EventRecord(i, j, len(b), *_event(H, blocks, j, b, spec, 4)) for j, b in enumerate(blocks)]
        for i, blocks in enumerate(level_blocks)
    ]
    refinements: List[List[EventRecord]] = []
    for i in range(1, len(level_blocks)):
        parents, children = level_blocks[i - 1], level_blocks[i]
        frecs = []
        for j, parent in enumerate(parents):
            # F_{i-1,j}: both children meet the stronger -1/3 threshold with U
            # ranging over the parent's three-block neighbourhood
            pair = children[2 * j:2 * j + 2]
            (h0, c0), (h1, c1) = (_event(H, parents, j, c, spec, 3) for c in pair)
            frecs.append(EventRecord(i - 1, j, len(parent), h0 and h1, c0 or c1))
        refinements.append(frecs)
    partition = Partition(tuple(level_blocks[-1]))
    return partition, BisectionTrace(len(level_blocks) - 1, level_blocks, events, refinements)


# -- goodness checks -----------------------------------------------------


@dataclass
class GoodnessReport:
    """Outcome of an exact goodness check over a partition."""

    good: bool
    violations: List[Tuple[int, Tuple[int, ...]]]
    min_ratio: Optional[Fraction]
    truncated: bool = False


def check_good(
    H: Hypergraph,
    P: Partition,
    delta,
    sizes: Optional[Sequence[int]] = None,
    max_violations: int = 50,
) -> GoodnessReport:
    """Exact check that P is an (n, delta)-good partition of H.

    P1: block sizes match `sizes` when given.  P2: every (k-1)-set U
    inside three consecutive blocks has d(U, V_i) >= delta * |V_i|.
    The report lists violating (i, U) pairs up to a cap and the minimum
    achieved ratio d(U, V_i) / |V_i|.
    """
    delta = Fraction(delta)
    if P.vertex_set() != frozenset(range(H.n)):
        raise InvalidQueryError("partition must cover exactly the host's vertex set")
    violations: List[Tuple[int, Tuple[int, ...]]] = []
    truncated = False
    if sizes is not None and tuple(sizes) != P.sizes():
        return GoodnessReport(False, [], None)
    min_ratio: Optional[Fraction] = None
    for i, block in enumerate(P.blocks):
        # d / |V_i| < delta, in integers
        num, den = delta.numerator * len(block), delta.denominator
        least = None
        for U, d in _degrees(H, P.blocks, i, block):
            if least is None or d < least:
                least = d
            if d * den < num:
                if len(violations) < max_violations:
                    violations.append((i, U))
                else:
                    truncated = True
        if least is not None:
            ratio = Fraction(least, len(block))
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    return GoodnessReport(not violations and not truncated, violations, min_ratio, truncated)


def check_good_factor(
    H: Hypergraph,
    P: Partition,
    d: int,
    mu,
    max_violations: int = 50,
) -> GoodnessReport:
    """Exact check of (n, d, mu)-goodness: per block,
    delta_d(H[V_i]) >= mu * C(n_i, k-d)."""
    if not 1 <= d <= H.k - 1:
        raise InvalidQueryError(f"d = {d} must satisfy 1 <= d <= k-1 = {H.k - 1}")
    mu = Fraction(mu)
    violations: List[Tuple[int, Tuple[int, ...]]] = []
    min_ratio: Optional[Fraction] = None
    for i, block in enumerate(P.blocks):
        ni = len(block)
        denom = comb(ni, H.k - d)
        if denom == 0:
            continue
        deg = H.min_d_degree(d, within=block) if ni >= d else 0
        ratio = Fraction(deg, denom)
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if ratio < mu and len(violations) < max_violations:
            violations.append((i, ()))
    return GoodnessReport(not violations, violations, min_ratio)


# -- hypergeometric bound ------------------------------------------------


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters (N, n, m, t) of the two-sided hypergeometric tail."""

    N: int
    n: int
    m: int
    t: float

    def __post_init__(self):
        if not (0 <= self.m <= self.N and 0 <= self.n <= self.N):
            raise InvalidQueryError("need 0 <= m <= N and 0 <= n <= N")
        if self.t <= 0:
            raise InvalidQueryError("deviation t must be positive")


def hypergeometric_tail_bound(params: HypergeometricParams) -> float:
    """The bound P(|X - EX| >= t) <= 2 * exp(-2 t^2 / n)."""
    return 2.0 * math.exp(-2.0 * params.t ** 2 / params.n)


def sample_hypergeometric(params: HypergeometricParams, rng: random.Random) -> int:
    """One draw: successes among n draws from N items of which m are good."""
    picked = rng.sample(range(params.N), params.n)
    return sum(1 for x in picked if x < params.m)


# -- Monte Carlo goodness estimation -------------------------------------


@dataclass
class GoodProbabilityEstimate:
    """Empirical goodness frequency with a 95% Wilson interval."""

    fraction: float
    wilson_low: float
    wilson_high: float
    trials: int
    successes: int
    level_conditional: List[Tuple[int, int]]  # (E_i and E_{i-1} count, E_{i-1} count)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z ** 2 / trials
    centre = phat + z ** 2 / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z ** 2 / (4 * trials ** 2))
    return ((centre - spread) / denom, (centre + spread) / denom)


def estimate_good_probability(
    H: Hypergraph,
    sv: SizeVector,
    spec: GoodnessSpec,
    trials: int,
    seed: int,
) -> GoodProbabilityEstimate:
    """Fraction of seeded bisections whose final partition is good at
    delta + gamma/2, plus per-level conditional frequencies of E_i."""
    if trials < 1:
        raise InvalidQueryError("trials must be >= 1")
    target = spec.delta + spec.gamma / 2
    successes = 0
    s = sv.r.bit_length() - 1
    cond = [[0, 0] for _ in range(s)]
    for trial in range(trials):
        part, trace = random_bisection(H, sv, spec, seed=derive_seed(seed, "trial", trial))
        report = check_good(H, part, target, sizes=sv.sizes, max_violations=1)
        if report.good:
            successes += 1
        for i in range(1, s + 1):
            if trace.level_event(i - 1):
                cond[i - 1][1] += 1
                if trace.level_event(i):
                    cond[i - 1][0] += 1
    low, high = wilson_interval(successes, trials)
    return GoodProbabilityEstimate(
        fraction=successes / trials,
        wilson_low=low,
        wilson_high=high,
        trials=trials,
        successes=successes,
        level_conditional=[(c[0], c[1]) for c in cond],
    )


def derive_seed(root: int, stage: str, index: int = 0) -> int:
    """Keyed seed schedule: stages re-run independently and reproducibly."""
    import hashlib

    digest = hashlib.sha256(f"{root}:{stage}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
