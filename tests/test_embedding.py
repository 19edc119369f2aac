"""Crossing tests, embedding validation, and page lower bounds."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    BookEmbedding,
    Graph,
    InvalidOrder,
    complete_graph,
    crosses,
    crossing_clique_lower_bound,
    density_lower_bound,
    embed_ktree,
    first_fit_pages,
    validate_embedding,
)
from bookembed.bruteforce import (
    _arc_crossing,
    book_thickness_brute,
    enumerate_graphs,
    random_connected_graph,
)
from bookembed.constructions import build_q, complete_split, random_ktree
from bookembed.embedding import _arcs, _largest_crossing_set, crossing_masks
from bookembed.solver import min_pages_for_order
from util import cycle, random_graph, random_tree, reference_validate_embedding


# ---- crossing predicate ----


def test_crosses_basic_cases():
    order = (0, 1, 2, 3)
    assert crosses(order, (0, 2), (1, 3))
    assert not crosses(order, (0, 1), (2, 3))  # disjoint arcs
    assert not crosses(order, (0, 3), (1, 2))  # nested
    assert not crosses(order, (0, 2), (0, 3))  # shared endpoint


def test_crosses_symmetry_and_rotation_invariance():
    rng = random.Random(13)
    n = 8
    for _ in range(60):
        order = list(range(n))
        rng.shuffle(order)
        e = tuple(rng.sample(range(n), 2))
        f = tuple(rng.sample(range(n), 2))
        base = crosses(order, e, f)
        assert base == crosses(order, f, e)
        shift = rng.randrange(n)
        rotated = order[shift:] + order[:shift]
        assert base == crosses(rotated, e, f)
        assert base == crosses(list(reversed(order)), e, f)


@pytest.mark.parametrize("order, e, f", [
    ([3, 1, 2], (0, 2), (1, 3)),  # 0 is missing, and max(order) would index it
    ([0, 1, 2], (0, 2), (1, 7)),  # 7 lies past the end of the order
    ([0, 1, 2, 3], (-1, 2), (1, 3)),
])
def test_crosses_refuses_endpoints_outside_the_order(order, e, f):
    with pytest.raises(InvalidOrder):
        crosses(order, e, f)
    with pytest.raises(InvalidOrder):
        crosses(order, f, e)


@pytest.mark.parametrize("order, e, f", [
    ([-1, 0, 1, 2], (-1, 1), (0, 2)),  # -1 would index position lists from the end
    ([1, 0, 2, 0, 3], (0, 2), (1, 3)),  # 0 sits at two positions
    ([0, 1.0, 2, 3], (0, 2), (1, 3)),  # 1.0 is no index
])
def test_crosses_refuses_orders_it_cannot_index(order, e, f):
    with pytest.raises(InvalidOrder):
        crosses(order, e, f)
    with pytest.raises(InvalidOrder):
        crosses(order, f, e)


def test_crosses_costs_the_order_not_its_largest_id():
    """The four ends are mapped to their positions, so the memory follows
    the order's length: an id of 10**9 stays under 1 MB."""
    tracemalloc.start()
    try:
        crossed = crosses([10**9, 0, 1, 2], (10**9, 1), (0, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert crossed and peak < 2**20, peak
    assert not crosses([10**9, 0, 1, 2], (10**9, 0), (1, 2))


def test_crossing_masks_size_positions_by_the_order_length():
    """The kernel takes a permutation of 0..n-1; a larger id is an
    IndexError, met before any list sized by that id is built."""
    tracemalloc.start()
    try:
        with pytest.raises(IndexError):
            crossing_masks([(0, 1)], [0, 1, 10**8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_crossing_masks_agree_with_crosses():
    rng = random.Random(19)
    for _ in range(15):
        g = random_graph(7, rng)
        order = list(range(7))
        rng.shuffle(order)
        masks = crossing_masks(g.edges, order)
        for i, e in enumerate(g.edges):
            for j, f in enumerate(g.edges):
                if i != j:
                    expected = _arc_crossing(tuple(order), e, f)
                    assert bool(masks[i] >> j & 1) == expected
                    assert crosses(order, e, f) == expected


@st.composite
def _graphs_and_orders(draw):
    n = draw(st.integers(1, 30))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(0, min(len(pairs), 90)))
    edges = random.Random(draw(st.integers(0, 2**32))).sample(pairs, m)
    return Graph(n, edges), draw(st.permutations(range(n)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_graphs_and_orders())
def test_crossing_masks_match_the_pairwise_test(case):
    """The prefix masks against the literal test, on every pair."""
    g, order = case
    masks = crossing_masks(g.edges, order)
    assert len(masks) == g.m
    for (i, e), (j, f) in combinations(enumerate(g.edges), 2):
        expected = _arc_crossing(tuple(order), e, f)
        assert bool(masks[i] >> j & 1) == bool(masks[j] >> i & 1) == expected, (e, f)
    assert all(mk >> i & 1 == 0 and mk >> g.m == 0 for i, mk in enumerate(masks))


# ---- validation ----


def _emb(g, order, pages, page_count=None):
    pc = max(pages.values(), default=0) if page_count is None else page_count
    return BookEmbedding(order=tuple(order), pages=dict(pages), page_count=pc)


def test_validate_accepts_one_page_cycle():
    g = cycle(4)
    res = validate_embedding(g, _emb(g, range(4), {e: 1 for e in g.edges}))
    assert res.ok and res.pages_used == 1
    assert res.first_conflict is None and res.finding is None


def test_validate_catches_crossing():
    g = complete_graph(4)
    pages = {e: 1 for e in g.edges}
    res = validate_embedding(g, _emb(g, range(4), pages))
    assert not res.ok
    assert res.first_conflict == ((0, 2), (1, 3))
    pages[(1, 3)] = 2
    assert validate_embedding(g, _emb(g, range(4), pages)).ok


def test_validate_structural_findings():
    g = complete_graph(3)
    good = {e: 1 for e in g.edges}
    res = validate_embedding(g, _emb(g, (0, 1, 1), good))
    assert not res.ok and "permutation" in res.finding

    res = validate_embedding(g, _emb(g, range(3), {(0, 1): 1, (1, 2): 1}))
    assert not res.ok and "uncovered" in res.finding

    extra = dict(good)
    extra[(0, 5)] = 1
    res = validate_embedding(g, _emb(g, range(3), extra))
    assert not res.ok and "unknown" in res.finding

    res = validate_embedding(g, _emb(g, range(3), good, page_count=0))
    assert not res.ok and "outside" in res.finding

    bad_page = dict(good)
    bad_page[(0, 1)] = 7
    res = validate_embedding(g, _emb(g, range(3), bad_page, page_count=2))
    assert not res.ok and "outside" in res.finding


@pytest.mark.parametrize("pages, key", [
    # one edge named twice, in both orientations, on two pages
    ({(0, 1): 1, (1, 0): 2, (0, 2): 1, (1, 2): 1}, (1, 0)),
    # one edge named once, reversed
    ({(0, 1): 1, (2, 0): 1, (1, 2): 1}, (2, 0)),
])
def test_keys_that_only_normalize_onto_the_edges_are_findings(pages, key):
    res = validate_embedding(complete_graph(3), BookEmbedding((0, 1, 2), pages, 2))
    assert not res.ok and res.first_conflict is None
    assert res.finding == f"page key {key} is not an edge (u, v) with u < v"


def test_embedding_json_round_trip():
    g = complete_graph(4)
    emb = _emb(g, (2, 0, 3, 1), {e: 1 + i % 2 for i, e in enumerate(g.edges)})
    back = BookEmbedding.from_json(emb.to_json())
    assert back.order == emb.order
    assert back.pages == emb.pages
    assert back.page_count == emb.page_count


# ---- lower bounds ----


def test_density_lower_bound_values():
    rng = random.Random(3)
    assert density_lower_bound(random_tree(6, rng)) == 1
    assert density_lower_bound(cycle(5)) == 1
    assert density_lower_bound(complete_graph(5)) == 3
    assert density_lower_bound(Graph(4)) == 0
    assert density_lower_bound(build_q(4).graph) == 3
    with pytest.raises(ValueError):
        density_lower_bound(Graph(0))


def test_edge_bound_never_exceeds_brute_force():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert density_lower_bound(g) <= book_thickness_brute(g), g.edges


def test_edge_bound_is_exact_on_complete_graphs():
    for n in range(4, 13):
        assert density_lower_bound(complete_graph(n)) == (n + 1) // 2
    assert density_lower_bound(Graph(5)) == 0
    assert density_lower_bound(complete_graph(3)) == 1
    q = build_q(4).graph  # never weaker than |E| < (p+1)|V|, i.e. floor(m/n)
    assert density_lower_bound(q) >= q.m // q.n


def test_crossing_clique_fixed_cases():
    assert crossing_clique_lower_bound(complete_graph(4), range(4)) == 2
    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert crossing_clique_lower_bound(star, range(5)) == 1
    assert crossing_clique_lower_bound(cycle(4), range(4)) == 1
    assert crossing_clique_lower_bound(Graph(3), range(3)) == 0


def test_fan_edges_cross_pairwise():
    # m = 17 gives 74 edges; the bound is exact at every edge count
    fan = [(0, 7), (1, 6), (2, 5), (3, 4)]
    for m in (9, 17):
        g = complete_split(4, m)
        order = [0] + list(range(4, 4 + m)) + [3, 2, 1]
        for i in range(4):
            for j in range(i + 1, 4):
                assert crosses(order, fan[i], fan[j])
        assert crossing_clique_lower_bound(g, order) == 4 == min_pages_for_order(g, order)


def test_crossing_clique_is_exact_past_64_edges():
    # 65 edges, where a greedy clique over the crossing graph finds only 5;
    # pairwise-crossing edges share no endpoint, so 6 = 13 // 2 is the most
    rng = random.Random(8)
    g = random_connected_graph(13, rng, 0.85)
    order = list(range(13))
    rng.shuffle(order)
    assert g.m == 65
    assert crossing_clique_lower_bound(g, order) == 6
    fan = [(order[a], order[b]) for a, b in _largest_crossing_set(_arcs(g.edges, order))]
    assert len(fan) == 6 and all(g.has_edge(*e) for e in fan)
    assert all(_arc_crossing(tuple(order), e, f) for e, f in combinations(fan, 2))


@pytest.mark.parametrize("order", [[3, 3, 3, 3], [5, 6, 7, 8], [0, 1], [0, "a", 1, 2],
                                   [0, 1, 2, None], [0.0, 1, 2, 3], [0, [1], 2, 3]])
def test_per_order_bounds_reject_orders_that_are_not_permutations(order):
    # every order of K4 needs 2 pages, so a bound of 1 (or an IndexError or
    # TypeError) would mean the order was read as something it is not
    for per_order in (crossing_clique_lower_bound, min_pages_for_order, first_fit_pages):
        with pytest.raises(InvalidOrder):
            per_order(complete_graph(4), order)


@st.composite
def _ordered_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    return Graph(n, edges), tuple(draw(st.permutations(range(n))))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_ordered_graphs())
def test_largest_crossing_set_matches_subset_enumeration(case):
    g, order = case
    arcs = _largest_crossing_set(_arcs(g.edges, order))
    fan = [(order[a], order[b]) for a, b in arcs]
    assert all(g.has_edge(*e) for e in fan) and len(set(arcs)) == len(arcs)
    assert all(_arc_crossing(order, e, f) for e, f in combinations(fan, 2))
    # the largest edge subset whose pairs all cross, by literal enumeration
    cross = {p for p in combinations(g.edges, 2) if _arc_crossing(order, *p)}
    largest = max(r for r in range(g.m + 1) for subset in combinations(g.edges, r)
                  if all(p in cross for p in combinations(subset, 2)))
    assert len(arcs) == largest == crossing_clique_lower_bound(g, order)


def test_crossing_clique_never_exceeds_best_assignment():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(4, 7)
        g = random_graph(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        lb = crossing_clique_lower_bound(g, order)
        assert lb <= min_pages_for_order(g, order)


# ---- stack sweeps against the brute-force crossing test ----

# fixed examples, so tier-1 runs the same cases every time
_PROFILE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def _paged_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    order = tuple(draw(st.permutations(range(n))))
    pages = {e: draw(st.integers(1, 3)) for e in sorted(edges)}
    return Graph(n, edges), order, pages


@_PROFILE
@given(_paged_graphs())
def test_validation_sweep_matches_pairwise_crossings(case):
    g, order, pages = case
    res = validate_embedding(g, _emb(g, order, pages, page_count=3))
    clash = any(
        pages[e] == pages[f] and _arc_crossing(order, e, f)
        for i, e in enumerate(g.edges)
        for f in g.edges[i + 1:]
    )
    assert res.ok == (not clash)
    if res.first_conflict is not None:
        e, f = res.first_conflict
        assert pages[e] == pages[f] and _arc_crossing(order, e, f)


@_PROFILE
@given(_paged_graphs(), st.randoms(use_true_random=False))
def test_first_conflict_is_the_first_crossing_of_a_literal_sweep(case, rng):
    # arcs in (page, left, -right) order, each tested against every earlier
    # arc on its page; the first arc that crosses one is the new arc, and
    # the last earlier arc it crosses is the innermost open one
    g, order, pages = case
    keys = list(pages)
    rng.shuffle(keys)
    shuffled = {e: pages[e] for e in keys}
    pos = {v: i for i, v in enumerate(order)}
    arcs = []
    for e in keys:
        a, b = sorted((pos[e[0]], pos[e[1]]))
        arcs.append((pages[e], a, -b, e))
    arcs.sort()
    expected = None
    for i, (p, _, _, e) in enumerate(arcs):
        hits = [f for q, _, _, f in arcs[:i] if q == p and _arc_crossing(order, f, e)]
        if hits:
            expected = (hits[-1], e)
            break
    res = validate_embedding(g, _emb(g, order, shuffled, page_count=3))
    assert res.first_conflict == expected
    assert res.ok == (expected is None)


@_PROFILE
@given(_paged_graphs())
def test_first_fit_takes_the_lowest_page_without_a_crossing(case):
    g, order, _ = case
    pos = {v: i for i, v in enumerate(order)}
    arcs = sorted((min(pos[u], pos[v]), -max(pos[u], pos[v]), (u, v)) for u, v in g.edges)
    expected: dict[tuple[int, int], int] = {}
    for _, _, e in arcs:
        p = 1
        while any(q == p and _arc_crossing(order, e, f) for f, q in expected.items()):
            p += 1
        expected[e] = p
    emb = first_fit_pages(g, order)
    assert emb.pages == expected
    assert emb.page_count == max(expected.values(), default=0)


@_PROFILE
@given(_paged_graphs(), st.integers(0, 6), st.booleans())
def test_rotation_and_reflection_keep_crossings_and_verdicts(case, shift, flip):
    # crossing is a property of the circle, not of where it is cut or which
    # way it is read
    g, order, pages = case
    shift %= g.n
    turned = order[shift:] + order[:shift]
    if flip:
        turned = turned[::-1]
    assert crossing_masks(g.edges, turned) == crossing_masks(g.edges, order)
    before = validate_embedding(g, _emb(g, order, pages, page_count=3))
    after = validate_embedding(g, _emb(g, turned, pages, page_count=3))
    assert (after.ok, after.pages_used) == (before.ok, before.pages_used)
    assert (after.first_conflict is None) == (before.first_conflict is None)


@st.composite
def _corrupted_embeddings(draw):
    """A k-tree's spine embedding or a random graph's first-fit embedding
    under a random order, with 0-3 of: a key reversed to (v, u), a reversed
    duplicate key, a page set to 0 or to page_count + 1, a missing edge, an
    extra pair (possibly out of range), an edge moved onto the page of one it
    crosses, a repeated vertex in the order."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        g, cert = random_ktree(draw(st.integers(k + 1, 30)), k, seed=draw(st.integers(0, 2**32)))
        emb = embed_ktree(g, cert)
    else:
        n = draw(st.integers(2, 12))
        g = random_graph(n, random.Random(draw(st.integers(0, 2**32))), draw(st.floats(0.1, 0.9)))
        emb = first_fit_pages(g, draw(st.permutations(range(n))))
    order, pages, count = list(emb.order), dict(emb.pages), max(emb.page_count, 1)
    kinds = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 6, 6, 7))
    for kind in draw(st.lists(kinds, max_size=3)):
        keys = sorted(pages)
        if kind == 0 and keys:
            u, v = draw(st.sampled_from(keys))
            pages[v, u] = pages.pop((u, v))
        elif kind == 1 and keys:
            u, v = draw(st.sampled_from(keys))
            pages[v, u] = draw(st.integers(1, count))
        elif kind in (2, 3) and keys:
            pages[draw(st.sampled_from(keys))] = 0 if kind == 2 else count + 1
        elif kind == 4 and keys:
            del pages[draw(st.sampled_from(keys))]
        elif kind == 5:
            u = draw(st.integers(0, g.n - 1))
            v = draw(st.integers(0, g.n + 2))
            if u != v and not g.has_edge(u, v):
                pages[u, v] = draw(st.integers(1, count))
        elif kind == 6 and keys:
            # onto the page of an edge it crosses, when there is one
            e = draw(st.sampled_from(keys))
            arcs = [f for f in keys if max(f) < g.n]
            placed = max(e) < g.n and sorted(order) == list(range(g.n))
            mask = crossing_masks([e, *arcs], order)[0] if placed else 0
            if mask:
                f = draw(st.sampled_from([f for i, f in enumerate(arcs, 1) if mask >> i & 1]))
                pages[e] = pages[f]
        elif kind == 7:
            order[draw(st.integers(0, g.n - 1))] = draw(st.integers(0, g.n - 1))
    return g, BookEmbedding(tuple(order), pages, count)


@_PROFILE
@given(_corrupted_embeddings())
def test_validation_matches_the_literal_checks(case):
    g, emb = case
    assert validate_embedding(g, emb) == reference_validate_embedding(g, emb)


@pytest.mark.parametrize("order, pages, finding", [
    ((0, 1, 2, "x"), {}, "order is not a permutation of the vertices"),
    ((0, 1, 2, 3), {(0, "a"): 1}, "page key (0, 'a') is not a pair of vertex ids"),
    ((0, 1, 2, 3), {"1": 1}, "page key '1' is not a pair of vertex ids"),
    ((0, 1, 2, 3), {(0, 1): "1"}, "edge (0, 1) on page '1', outside 1..2"),
    ((0, 1, 2, 3), {(0, 1): 1.5}, "edge (0, 1) on page 1.5, outside 1..2"),
    ((0, 1, 2, 3), {(0, 1): True}, "edge (0, 1) on page True, outside 1..2"),
    # the set of pages keeps the 1 met first and drops True
    ((0, 1, 2, 3), {(2, 3): True}, "edge (2, 3) on page True, outside 1..2"),
    ((0.0, 1, 2, 3), {}, "order is not a permutation of the vertices"),
    # True and 1.0 equal 1 and hash like it, so these keys equal the edge set
    ((0, 1, 2, 3), {(0, True): 1}, "page key (0, True) is not a pair of vertex ids"),
    ((0, 1, 2, 3), {(1.0, 2): 1}, "page key (1.0, 2) is not a pair of vertex ids"),
])
def test_non_integer_ids_are_findings(order, pages, finding):
    g = complete_graph(4)
    full = {e: 1 + (e == (1, 3)) for e in g.edges}
    for e, p in pages.items():
        full.pop(e, None)  # an equal key would otherwise keep its old form
        full[e] = p
    res = validate_embedding(g, BookEmbedding(order, full, 2))
    assert not res.ok and res.finding == finding


@pytest.mark.parametrize("order, pages, finding", [
    ((0, [1], 2), {}, "order is not a permutation of the vertices"),
    ((0, 1, 2), {(0, 1): [1]}, "edge (0, 1) on page [1], outside 1..1"),
])
def test_unhashable_entries_are_findings(order, pages, finding):
    g = complete_graph(3)
    full = {e: 1 for e in g.edges}
    full.update(pages)
    res = validate_embedding(g, BookEmbedding(order, full, 1))
    assert not res.ok and res.finding == finding
    assert res.pages_used == 1 + bool(pages)


@pytest.mark.parametrize("order, pages, finding, used", [
    (None, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, "order is not a permutation of the vertices", 1),
    ((0, 1, 2), None, "page map is not a mapping from edges to pages (got NoneType)", 0),
])
def test_containers_of_the_wrong_kind_are_findings(order, pages, finding, used):
    res = validate_embedding(complete_graph(3), BookEmbedding(order, pages, 1))
    assert not res.ok and res.finding == finding and res.pages_used == used
