"""The ordered-window search kernel against a copy of its recursive form.

`reference_search` is the search as it was before it became one loop with
a class cut: a recursive generator that walks every ordering.  The kernel
yields each prefix of all but the last position once, with the mask of the
vertices that complete it; expanded (`_orderings`), those must be exactly
the class-sorted orderings of the reference, in the same order.  With the
cut off they must match it yield for yield and budget for budget.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from spancount import (
    BudgetExceededError,
    EllCycle,
    PowerCycle,
    complete,
    enumerate_hamilton_ell_cycles,
    gen_random,
)
from spancount.bounds import expected_random_count
from spancount.hypergraphs import Hypergraph, mask_vertices, vertex_mask
from spancount.paths import (
    _Budget,
    _class_links,
    _class_weight,
    _cycle_orders,
    _mirror_link,
    _ordered_search,
    _orbit_count,
    _orderings,
    _pinned,
    _power_windows,
    _reflection,
    _windows,
)


def reference_search(H, windows, length, allowed, budget):
    """Every ordering of `length` vertices whose windows are edges of H,
    positions filled in order from `allowed`, one budget node per entered
    position: the recursive search, with no cut."""
    closing = [[] for _ in range(length)]
    for w in windows:
        last = max(w)
        closing[last].append(tuple(q for q in w if q != last))
    order = [-1] * length
    free = (1 << H.n) - 1
    nbrs = H._codegree_neighbours()

    def place(p):
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


def class_sorter(windows, allowed):
    """The function that puts the vertices of each class of an ordering
    (positions in exactly the same windows, with the same allowed mask)
    in ascending order."""
    classes = {}
    for p in range(len(allowed)):
        key = (frozenset(i for i, w in enumerate(windows) if p in w), allowed[p])
        classes.setdefault(key, []).append(p)
    classes = [positions for positions in classes.values() if len(positions) > 1]

    def class_sorted(order):
        out = list(order)
        for positions in classes:
            for p, v in zip(positions, sorted(order[p] for p in positions)):
                out[p] = v
        return tuple(out)

    return class_sorted


def grouped(found):
    """The orderings of the kernel's (prefix, mask) items, after checking
    that it yields each prefix once, in ascending order, with a nonzero mask."""
    found = list(found)
    prefixes = [prefix for prefix, _ in found]
    assert prefixes == sorted(set(prefixes))
    assert all(mask for _, mask in found)
    return list(_orderings(found))


def drain(orders):
    """The orderings a search yields before it ends or runs out of budget,
    and whether it ran out."""
    found = []
    try:
        for order in orders:
            found.append(order)
    except BudgetExceededError:
        return found, True
    return found, False


def nodes_of(H, windows, length, allowed):
    """The nodes the reference search spends to finish."""
    budget = _Budget(10 ** 9)
    drain(reference_search(H, windows, length, allowed, budget))
    return 10 ** 9 - budget.remaining


# -- the layouts and the masks -------------------------------------------

# (k, ell, length) of every ell-cycle layout with 0 <= ell < k <= 5 on at
# most 7 positions, and the shortest one at (k, ell) = (5, 1)
CYCLE_LAYOUTS = [
    (k, ell, length)
    for k in range(2, 6)
    for ell in range(k)
    for length in range(k, 8)
    if length % (k - ell) == 0
] + [(5, 1, 8)]


@st.composite
def layouts(draw):
    """(k, length, windows): an ell-cycle or ell-path layout (0 <= ell < k
    <= 5), a power of a tight cycle, or the edges of a random pattern F."""
    kind = draw(st.sampled_from(["cycle", "path", "power", "pattern"]))
    k = draw(st.integers(2, 5))
    if kind == "cycle":
        k, ell, length = draw(st.sampled_from(CYCLE_LAYOUTS))
        return k, length, _windows(k, k - ell, length, True)
    if kind == "path":
        ell = draw(st.integers(0, k - 1))
        gap = k - ell
        length = ell + gap * draw(st.integers(1, max(1, (7 - ell) // gap)))
        return k, length, _windows(k, gap, length, False)
    if kind == "power":
        k = draw(st.integers(2, 3))
        t = draw(st.integers(k, 4))
        length = draw(st.integers(t, 7))
        return k, length, _power_windows(k, t, length)
    length = draw(st.integers(k, 6))
    edges = draw(st.lists(
        st.lists(st.integers(0, length - 1), min_size=k, max_size=k, unique=True)
        .map(lambda e: tuple(sorted(e))),
        min_size=1, max_size=4, unique=True,
    ))
    return k, length, tuple(sorted(edges))


@st.composite
def masks(draw, n, length):
    """Per-position allowed masks over a host on n vertices: one uniform
    mask, a pinned position, pinned path ends, or rotated block arcs."""
    kind = draw(st.sampled_from(["uniform", "pinned", "ends", "arcs"]))
    pool = sorted(draw(st.sets(st.integers(0, n - 1), min_size=length, max_size=length + 2)))
    if kind == "uniform":
        return [vertex_mask(pool)] * length
    if kind == "pinned":
        pinned = draw(st.integers(0, length - 1))
        return _pinned(length, vertex_mask(pool), pinned, draw(st.sampled_from(pool)))
    if kind == "ends":
        ends = draw(st.integers(1, length // 2))
        a, b = pool[:ends], pool[ends:2 * ends]
        interior = vertex_mask(pool) & ~vertex_mask(a + b)
        return [1 << v for v in a] + [interior] * (length - 2 * ends) + [1 << v for v in b]
    # consecutive arcs of a partition of `length` vertices into blocks
    cuts = sorted(draw(st.sets(st.integers(1, length - 1), max_size=3)))
    vertices = draw(st.permutations(pool))[:length]
    bounds = [0] + cuts + [length]
    arcs = [vertex_mask(vertices[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) for _ in range(lo, hi)]
    s = draw(st.integers(0, length - 1))
    return arcs[length - s:] + arcs[:length - s]


@st.composite
def searches(draw):
    k, length, windows = draw(layouts())
    # at most 8 vertices keep the reference's full walk to 8! orderings
    n = draw(st.integers(length, max(length, 8)))
    H = gen_random(n, k, draw(st.sampled_from([0.6, 0.85, 1.0])), draw(st.integers(0, 10 ** 6)))
    return H, windows, length, draw(masks(n, length))


# -- the kernel against the reference ------------------------------------


@settings(max_examples=200, deadline=None)
@given(searches())
def test_cut_yields_the_class_sorted_reference_orderings(search):
    H, windows, length, allowed = search
    ref = list(reference_search(H, windows, length, allowed, None))
    cut = grouped(_ordered_search(H, windows, allowed, None))
    class_sorted = class_sorter(windows, allowed)
    assert cut == [o for o in ref if o == class_sorted(o)]
    assert set(cut) == set(map(class_sorted, ref))
    assert cut[:1] == ref[:1]
    # every kept ordering stands for the same number of the reference's
    assert len(cut) * _class_weight(windows, allowed) == len(ref)


@settings(max_examples=150, deadline=None)
@given(searches(), st.data())
def test_without_the_cut_the_kernel_is_the_reference(search, data):
    H, windows, length, allowed = search
    ref = list(reference_search(H, windows, length, allowed, None))
    assert grouped(_ordered_search(H, windows, allowed, None, [-1] * length)) == ref
    nodes = nodes_of(H, windows, length, allowed)
    for limit in {nodes, nodes - 1, data.draw(st.integers(0, nodes))}:
        found = _ordered_search(H, windows, allowed, _Budget(limit), [-1] * length)
        got = drain(_orderings(found))
        assert got == drain(reference_search(H, windows, length, allowed, _Budget(limit)))
    assert drain(_ordered_search(H, windows, allowed, _Budget(nodes), [-1] * length))[1] is False


def test_a_pinned_position_breaks_no_class_chain():
    # one edge at k = 4 with the anchor pinned in turn at each position: the
    # other three positions form one class, so one injection per pin
    edge = ((0, 1, 2, 3),)
    K = complete(6, 4)
    for i in range(4):
        allowed = _pinned(4, vertex_mask(range(6)), i, 0)
        found = list(_orderings(_ordered_search(K, edge, allowed, None)))
        assert len(found) == math.comb(5, 3)
        assert len(list(reference_search(K, edge, 4, allowed, None))) == 6 * len(found)


# -- the enumerator and N_W ------------------------------------------------


def reference_enumeration(H, ell):
    """The enumerator's cycles as orderings: the first ordering of each
    edge set, in the order the recursive search finds them."""
    n, k = H.n, H.k
    gap = k - ell
    windows = _windows(k, gap, n, True)
    found = {}
    for s in range(gap):
        for order in reference_search(H, windows, n, _pinned(n, (1 << n) - 1, s, 0), None):
            found.setdefault(frozenset(tuple(sorted(order[q] for q in w)) for w in windows), order)
    return list(found.values())


@pytest.mark.parametrize("n,k,ell,p,seed", [
    (6, 2, 0, 1.0, 0), (8, 4, 0, 1.0, 0), (9, 3, 0, 0.7, 1),
    (6, 2, 1, 0.8, 2), (7, 3, 2, 0.9, 3), (8, 3, 1, 0.9, 4),
    (6, 4, 1, 1.0, 0), (9, 4, 1, 0.7, 5), (8, 4, 2, 0.8, 6),
    (8, 5, 1, 1.0, 0), (8, 5, 1, 0.8, 7), (8, 5, 3, 0.9, 8),
])
def test_list_mode_returns_the_recursive_search_orderings(n, k, ell, p, seed):
    H = gen_random(n, k, p, seed)
    listed = enumerate_hamilton_ell_cycles(H, ell, mode="list")
    assert [c.order for c in listed] == reference_enumeration(H, ell)
    assert len(listed) == enumerate_hamilton_ell_cycles(H, ell)


# every (n, k, ell) with 2 <= k <= 5, 0 <= ell < k, k <= n <= 8 and (k-ell) | n
SMALL_CYCLES = [
    (n, k, ell)
    for k in range(2, 6)
    for ell in range(k)
    for n in range(k, 9)
    if n % (k - ell) == 0
]


@pytest.mark.parametrize("n,k,ell", SMALL_CYCLES)
def test_weighted_window_host_count_is_the_recursive_count(n, k, ell):
    # N_W: the orderings of W, the cycle layout as a host, with 0 at a phase
    gap = k - ell
    windows = _windows(k, gap, n, True)
    W = Hypergraph(n, k, windows)
    everyone = (1 << n) - 1
    N_W = sum(
        1 for s in range(gap) for _ in reference_search(W, windows, n, _pinned(n, everyone, s, 0), None)
    )
    count = expected_random_count(n, k, ell, 1)
    assert count * (n // gap) * N_W == math.factorial(n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_count_popcounts_are_the_weighted_expanded_orderings(data):
    # on ell-cycle and power layouts: the popcount sum equals the class-weighted
    # count of the expanded orderings, and the recursive search's full count
    k = data.draw(st.integers(2, 4))
    if data.draw(st.booleans()):
        ell = data.draw(st.integers(0, k - 1))
        gap = k - ell
        n = gap * data.draw(st.integers(-(-k // gap), 8 // gap))
        windows, phases = EllCycle.layout(k, ell, n)
    else:
        t = data.draw(st.integers(k, k + 1))
        n = data.draw(st.integers(t, 7))
        windows, phases = PowerCycle.layout(k, t, n)
    p = data.draw(st.sampled_from([0.6, 0.9, 1.0]))
    H = gen_random(n, k, p, data.draw(st.integers(0, 10 ** 6)))
    everyone = (1 << n) - 1
    orders = _cycle_orders(H, (everyone,), windows, phases, _Budget(None))
    expanded = sum(weight for weight, item in orders for _ in _orderings([item]))
    assert _orbit_count(windows, phases, None, H) == expanded
    pinned = (_pinned(n, everyone, s, 0) for s in range(phases))
    assert expanded == sum(
        1 for allowed in pinned for _ in reference_search(H, windows, n, allowed, None)
    )


# -- the mirror cut --------------------------------------------------------


def reference_orbit_count(H, windows, phases):
    """The orderings of H's vertices with vertex 0 at a phase whose windows
    are all edges of H, as the recursive search walks them: no class cut
    and no mirror."""
    n = H.n
    pinned = (_pinned(n, (1 << n) - 1, s, 0) for s in range(phases))
    return sum(1 for allowed in pinned for _ in reference_search(H, windows, n, allowed, None))


# (k, ell, n) of every ell-cycle layout with 0 <= ell < k <= 4 on at most 8
# positions, n = 3, n = k and k < n < 2k among them
MIRROR_CYCLES = [
    (k, ell, n)
    for k in range(2, 5)
    for ell in range(k)
    for n in range(k, 9)
    if n % (k - ell) == 0
]


@pytest.mark.parametrize("k,ell,n", MIRROR_CYCLES)
def test_the_mirror_count_is_the_reference_count_on_cycle_layouts(k, ell, n):
    windows, phases = EllCycle.layout(k, ell, n)
    W = Hypergraph(n, k, windows)
    assert _orbit_count(windows, phases, None) == reference_orbit_count(W, windows, phases)
    for p, seed in ((1.0, 0), (0.8, n), (0.6, k)):
        H = gen_random(n, k, p, seed)
        assert _orbit_count(windows, phases, None, H) == reference_orbit_count(H, windows, phases)


@pytest.mark.parametrize("k,t,n", [
    (2, 2, 3), (2, 3, 5), (2, 3, 6), (2, 4, 7), (3, 3, 4), (3, 4, 6), (3, 4, 7), (3, 5, 8),
    (4, 4, 5), (4, 5, 7),
])
def test_the_mirror_count_is_the_reference_count_on_power_layouts(k, t, n):
    windows, phases = PowerCycle.layout(k, t, n)
    W = Hypergraph(n, k, windows)
    assert _orbit_count(windows, phases, None) == reference_orbit_count(W, windows, phases)
    for p, seed in ((1.0, 0), (0.9, n)):
        H = gen_random(n, k, p, seed)
        assert _orbit_count(windows, phases, None, H) == reference_orbit_count(H, windows, phases)


@pytest.mark.parametrize("k,ell,n", MIRROR_CYCLES)
def test_the_layouts_reflect_about_the_expected_centre(k, ell, n):
    # an ell-cycle reflects about (k-1) mod (k-ell), or about 0 too at n = k,
    # where its one window is every position; a power reflects about 0, and a
    # layout on fewer than 3 positions is left alone
    windows, phases = EllCycle.layout(k, ell, n)
    centre = None if n < 3 else 0 if n == k else (k - 1) % (k - ell)
    assert _reflection(windows, phases, n) == centre
    power, one = PowerCycle.layout(k, k + 1, n + 1)
    assert _reflection(power, one, n + 1) == 0


def test_an_asymmetric_layout_has_no_reflection():
    # p -> -p maps {0, 1, 2} to {0, 3, 2}, which is no window
    assert _reflection(((0, 1, 2), (0, 1, 3)), 1, 4) is None


def test_a_self_mirrored_phase_links_its_least_singleton_pair():
    # (9, 3, 0): phase 1 mirrors onto itself, but every position save the
    # pinned one lies in a class of three
    windows, phases = EllCycle.layout(3, 0, 9)
    assert _reflection(windows, phases, 9) == 2
    links = _class_links(windows, _pinned(9, (1 << 9) - 1, 1, 0))
    assert not _mirror_link(links, 1)
    # (8, 3, 1), phase 0: every position is a class of its own, and of the
    # pairs (1, 7), (2, 6) and (3, 5) about 0, (3, 5) closes first
    windows, phases = EllCycle.layout(3, 1, 8)
    links = _class_links(windows, _pinned(8, (1 << 8) - 1, 0, 0))
    assert links == [-1] * 8
    assert _mirror_link(links, 0) and links == [-1] * 5 + [3, -1, -1]


# (n, k, ell) with 1 <= ell < k <= 5, 2k <= n <= 3k and (k-ell) | n
WINDOW_HOSTS = [
    (n, k, ell)
    for k in range(2, 6)
    for ell in range(1, k)
    for n in range(2 * k, 3 * k + 1)
    if n % (k - ell) == 0
]


@pytest.mark.parametrize("n,k,ell", WINDOW_HOSTS)
def test_the_window_host_count_is_twice_the_class_weight(n, k, ell):
    # N_W: one reflection times the permutations inside W's classes
    windows, phases = EllCycle.layout(k, ell, n)
    assert _orbit_count(windows, phases, None) == 2 * _class_weight(windows, [(1 << n) - 1] * n)
