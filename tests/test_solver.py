"""Exact solver: known values, brute-force equivalence, budgets, determinism."""

import hashlib
import json
import random
import signal
import time
from contextlib import contextmanager
from itertools import combinations, count, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    BookEmbedding,
    Graph,
    SolverOptions,
    SolverStatus,
    book_thickness_exact,
    complete_bipartite,
    complete_graph,
    density_lower_bound,
    embed_ktree,
    is_outerplanar,
    min_pages_for_order,
    path_power,
    random_ktree,
    solver,
    validate_embedding,
)
from bookembed.bruteforce import (
    _arc_crossing,
    _assignable,
    _crossing_pairs,
    book_thickness_brute,
    enumerate_graphs,
    random_connected_graph,
)
from bookembed.embedding import crossing_masks
from bookembed.graph import _norm_edge
from bookembed.heuristics import first_fit_pages
from bookembed.solver import _blocks, _fewest_colours, _planar, _Prefix, _search_orders
from util import (
    cycle,
    degree3_ktree,
    path,
    random_tree,
    reference_fewest_colours,
    stacked_triangulation,
    without_edge,
)


def _bt(g, **kw):
    return book_thickness_exact(g, SolverOptions(**kw) if kw else None)


def _assert_exact(g, expected):
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == expected == rep.lower_bound
    if expected > 0:
        res = validate_embedding(g, rep.witness)
        assert res.ok
        assert res.pages_used == expected == rep.witness.page_count


# ---- known values ----


def test_trivial_graphs():
    rep = _bt(Graph(1))
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 0
    rep = _bt(Graph(5))
    assert rep.book_thickness == 0
    _assert_exact(Graph(2, [(0, 1)]), 1)


def test_trees_and_cycles_fit_one_page():
    rng = random.Random(41)
    for n in (2, 4, 6, 8):
        _assert_exact(random_tree(n, rng), 1)
    for n in (3, 5, 8):
        _assert_exact(cycle(n), 1)


def test_small_complete_graphs():
    _assert_exact(complete_graph(4), 2)
    _assert_exact(complete_graph(5), 3)
    _assert_exact(complete_graph(6), 3)
    _assert_exact(complete_graph(7), 4)


def test_complete_bipartite_and_path_powers():
    _assert_exact(complete_bipartite(2, 3), 2)
    _assert_exact(path_power(8, 3), 2)
    _assert_exact(path_power(9, 3), 2)


# ---- fixed-order page minimum ----


def test_min_pages_for_order():
    assert min_pages_for_order(cycle(5), range(5)) == 1
    assert min_pages_for_order(complete_graph(4), range(4)) == 2
    assert min_pages_for_order(Graph(3), range(3)) == 0
    # complete graphs look the same under every order
    rng = random.Random(43)
    for _ in range(5):
        order = list(range(5))
        rng.shuffle(order)
        assert min_pages_for_order(complete_graph(5), order) == 3


def test_min_pages_for_order_past_the_recursion_limit():
    # the leaf colouring backtracks on a stack, so its depth is not bounded
    # by the interpreter's recursion limit (1,000 frames by default)
    assert min_pages_for_order(path_power(1200, 1), range(1200)) == 1
    g, cert = random_ktree(500, 3, 1)
    emb = embed_ktree(g, cert)
    assert g.m == 1494 and emb.page_count == 4
    assert min_pages_for_order(g, emb.order) == 4


@st.composite
def _relabelled_graphs_and_orders(draw):
    n = draw(st.integers(1, 7))
    edges = _some_edges(draw, n, 12)  # more would cost the brute force seconds
    perm = draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return g, draw(st.permutations(range(n)))


def _least_pages_by_brute_force(g, order):
    adj = _crossing_pairs(tuple(order), list(g.edges))
    return next(p for p in count() if _assignable(adj, p))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_relabelled_graphs_and_orders())
def test_min_pages_for_order_matches_brute_force(case):
    g, order = case
    assert min_pages_for_order(g, order) == _least_pages_by_brute_force(g, order)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_min_pages_for_order_starts_at_the_edge_bound(n):
    """Under K_n's zigzag order, the vertices in id order, the greedy clique
    of K7's crossing graph has 3 arcs but its edge bound is 4, so the
    colouring starts at the edge bound and never shows that 3 pages fail.
    The count still matches brute force."""
    g, order = complete_graph(n), list(range(n))
    assert min_pages_for_order(g, order) == _least_pages_by_brute_force(g, order) == (n + 1) // 2


# ---- equivalence with the brute-force reference ----


def test_matches_brute_force_exhaustively_small():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert _bt(g).book_thickness == book_thickness_brute(g), g.edges


def test_matches_brute_force_on_random_six_vertex_graphs():
    rng = random.Random(47)
    for _ in range(20):
        g = random_connected_graph(6, rng, p=rng.choice([0.3, 0.5, 0.8]))
        assert _bt(g).book_thickness == book_thickness_brute(g), g.edges


# ---- budgets and statuses ----


def _needs_search():
    # bt 4 but root bound 3, so the answer takes ~163k search nodes; complete
    # graphs close at the root and cannot exercise the budgets, and neither
    # can a non-planar graph of bt 3, which starts from 3
    return random_connected_graph(10, random.Random(4), 0.7)


def test_max_pages_cap():
    g = random_connected_graph(9, random.Random(9), 0.5)  # bt 3, non-planar
    rep = _bt(g, max_pages=1)
    assert rep.status is SolverStatus.LOWER_BOUND_ONLY
    assert rep.lower_bound == 2
    assert rep.book_thickness >= 3  # upper bound from the incumbent
    # a cap at or above the answer still yields the exact value
    rep = _bt(g, max_pages=3)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 3
    rep = _bt(complete_graph(4), max_pages=2)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 2


def test_node_limit_times_out():
    g = _needs_search()
    rep = _bt(g, node_limit=50)
    assert rep.status is SolverStatus.TIMEOUT
    assert rep.nodes_explored >= 50
    assert rep.lower_bound == 3
    assert rep.book_thickness >= 4
    assert rep.lower_bound <= 4 <= rep.book_thickness
    # the reported upper bound is still a real embedding
    assert validate_embedding(g, rep.witness).ok


def test_time_budget_times_out():
    rep = _bt(_needs_search(), time_budget=0.005)
    assert rep.status is SolverStatus.TIMEOUT
    assert rep.lower_bound <= rep.book_thickness


class _Overran(Exception):
    pass


@contextmanager
def _alarm(seconds):
    """Fail, rather than hang, once `seconds` of wall clock pass.  The
    alarm's handler raises inside whatever loop overran, and the failure is
    raised afresh here, without that frame, whose traceback pytest cannot
    always print."""
    def overran(signum, frame):
        raise _Overran

    old = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    except _Overran:
        raise AssertionError(f"still running after {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.mark.parametrize("g", [random_ktree(40, 3, 1)[0], _relabelled(random_ktree(60, 2, 1)[0], 1)],
                         ids=["ktree40-3", "relabelled-ktree60-2"])
def test_time_budget_bounds_the_leaf_colouring(g):
    """Under a 100-node limit these searches reach leaves whose colouring
    must prove that too few colours fail, a proof that takes minutes unless
    the clock is read inside it.  The deadline cuts such a colouring off,
    and the report keeps the incumbent as its witness."""
    start = time.monotonic()
    with _alarm(10):
        rep = _bt(g, time_budget=1, node_limit=100)
    assert time.monotonic() - start < 3
    assert rep.status is SolverStatus.TIMEOUT
    assert rep.lower_bound <= rep.book_thickness
    assert validate_embedding(g, rep.witness).ok


def test_time_budget_bounds_the_planarity_test():
    """The face-splitting test takes seconds on an 800-vertex 2-tree.  Cut
    off, it claims nothing, so the block keeps its root bound of 2."""
    g = _relabelled(random_ktree(800, 2, 1)[0], 1)
    start = time.monotonic()
    with _alarm(10):
        rep = _bt(g, time_budget=0.5)
    assert time.monotonic() - start < 1.5
    assert rep.status is SolverStatus.TIMEOUT and rep.lower_bound == 2
    assert validate_embedding(g, rep.witness).ok


def test_time_budget_bounds_the_first_fit_incumbent():
    """First-fit alone takes about 7 s on this 50,000-vertex 2-tree when it
    reads no clock (Python 3.11, 2 cores).  Past the deadline each arc left
    opens a page of its own, so the incumbent, and the witness, stay valid."""
    g = _relabelled(random_ktree(50000, 2, 1)[0], 1)
    start = time.monotonic()
    with _alarm(10):
        rep = _bt(g, time_budget=0.5)
    assert time.monotonic() - start < 3
    assert rep.status is SolverStatus.TIMEOUT and rep.lower_bound == 2
    assert validate_embedding(g, rep.witness).ok


def _ticking(monkeypatch):
    """A clock for the solver that reads 0, 1, 2, ...: under it, time_budget
    b runs out at the solve's b-th read after the start."""
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=count().__next__))


@pytest.mark.parametrize("g", [
    stacked_triangulation(7, 0),  # planar: the planarity test runs to the end
    random_connected_graph(7, random.Random(6), 0.6),  # two leaf colourings
    random_connected_graph(7, random.Random(9), 0.6),  # non-planar, bt 3
], ids=["stacked7", "gnp7-6", "gnp7-9"])
def test_a_deadline_at_any_clock_read_leaves_the_report_sound(g, monkeypatch):
    """Cut the solve at each of its clock reads in turn: in the order search,
    in a leaf colouring and in the planarity test.  Whatever was cut, the
    bounds must hold the true value, and an EXACT report must be it."""
    truth = book_thickness_brute(g)
    _ticking(monkeypatch)
    full = _bt(g, time_budget=10**9)
    assert full.status is SolverStatus.EXACT and full.nodes_explored > 0
    reads = int(full.elapsed)  # the index of the solve's last read
    for budget in range(reads + 1):
        _ticking(monkeypatch)
        rep = _bt(g, time_budget=budget)
        assert rep.lower_bound <= truth <= rep.book_thickness, budget
        assert rep.status is not SolverStatus.EXACT or rep.book_thickness == truth, budget
        assert validate_embedding(g, rep.witness).ok, budget


def test_a_colouring_cut_in_the_last_leaf_leaves_the_budget_spent(monkeypatch):
    """Under this 4-cycle's two-page incumbent, the one leaf the search
    reaches is its last, the order 0, 3, 1, 2: every other order crosses,
    and is pruned before its leaf.  (A solve settles the cycle at the root;
    its order search is run here alone.)  When the deadline cuts that
    leaf's colouring, nothing after it reads the clock, so the leaf itself
    must mark the budget spent, or the unproven incumbent would come back
    as the block's lower bound."""
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    incumbent = first_fit_pages(g, range(4))
    assert incumbent.page_count == 2
    for budget in range(10):  # the leaf's one read is the 8th, after the rule's own budget check
        _ticking(monkeypatch)
        search = solver._Search(SolverOptions(time_budget=budget), solver.time.monotonic())
        search.reset(1)
        search.offer(incumbent)
        _search_orders(g, search)
        assert search.lower() == 1 <= search.best, budget


def test_a_block_record_keeps_the_first_witness_of_each_page_count():
    """Only `offer` lowers a block's upper bound and only `prove` raises its
    lower bound.  A witness on as many pages as the best is refused, so the
    first one found stays, and the block closes once the two sides meet."""
    g = complete_bipartite(3, 3)
    first, later = first_fit_pages(g, range(6)), first_fit_pages(g, [0, 3, 1, 4, 2, 5])
    assert first.page_count == later.page_count == 3 and first.order != later.order
    search = solver._Search(SolverOptions(), 0.0)
    search.reset(2)
    assert search.witness is None and not search.stop
    search.offer(first)
    search.offer(later)
    assert search.witness is first and (search.best, search.lb, search.stop) == (3, 2, False)
    search.prove(1)
    assert (search.lb, search.stop) == (2, False)
    search.prove(3)
    assert (search.best, search.lb, search.stop) == (3, 3, True)


def test_root_bound_closes_complete_graphs():
    for n in (7, 8):
        rep = _bt(complete_graph(n))
        assert rep.status is SolverStatus.EXACT
        assert rep.book_thickness == rep.lower_bound == 4
        assert rep.nodes_explored <= 10
        assert validate_embedding(complete_graph(n), rep.witness).ok


def test_complete_graphs_take_their_zigzag_pages_at_the_root():
    """bt(K_n) = ceil(n/2) for n >= 4 (Bernhart and Kainen); K_2 and K_3 take
    one page.  The edge bound meets the zigzag witness, so no node is
    searched, up to n = 60, where an order search would never end."""
    for n in range(1, 61):
        g = complete_graph(n)
        rep = _bt(g)
        want = 0 if n == 1 else 1 if n <= 3 else (n + 1) // 2
        assert rep.status is SolverStatus.EXACT and rep.nodes_explored == 0, n
        assert rep.book_thickness == rep.lower_bound == want, n
        res = validate_embedding(g, rep.witness)
        assert res.ok and res.pages_used == want == rep.witness.page_count, n


@pytest.mark.parametrize("kw, status, nodes", [
    ({"node_limit": 1}, SolverStatus.EXACT, 1),
    ({"node_limit": 1, "max_pages": 2}, SolverStatus.LOWER_BOUND_ONLY, 1),
    ({}, SolverStatus.EXACT, 52),
])
def test_zigzag_blocks_keep_their_bound_after_an_earlier_block(kw, status, nodes):
    """A 9-vertex G(n, 0.5), solved first, with K7 glued on at its vertex 8.
    K7's zigzag pages meet its edge bound 4 whether the block before it
    spent the budget or a cap lies below the bound, and its witness maps
    back through the one exit that every searched block takes."""
    h = random_connected_graph(9, random.Random(0), 0.5)
    g = Graph(15, [*h.edges, *((u + 8, v + 8) for u, v in combinations(range(7), 2))])
    assert [len(edges) for _, edges in _blocks(g)][::-1] == [14, 21]
    rep = _bt(g, **kw)
    assert (rep.status, rep.lower_bound, rep.book_thickness) == (status, 4, 4)
    assert rep.nodes_explored == nodes
    res = validate_embedding(g, rep.witness)
    assert res.ok and res.pages_used == 4


@st.composite
def _near_complete_graphs(draw):
    """K_n, 4 <= n <= 12, less up to the most edges that keep the edge bound
    at ceil(n/2), relabelled: m - n > (ceil(n/2) - 1)(n - 3) must hold."""
    n = draw(st.integers(4, 12))
    pairs = list(combinations(range(n), 2))
    spare = len(pairs) - n - ((n + 1) // 2 - 1) * (n - 3) - 1
    dropped = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=spare))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in pairs if (u, v) not in dropped])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_near_complete_graphs())
def test_near_complete_graphs_take_their_zigzag_pages_at_the_root(g):
    """Brute force agrees for n <= 6; on K_7 it takes minutes."""
    want = (g.n + 1) // 2
    assert density_lower_bound(g) == want
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT and rep.nodes_explored == 0
    assert rep.book_thickness == rep.lower_bound == want
    res = validate_embedding(g, rep.witness)
    assert res.ok and res.pages_used == want
    if g.n <= 6:
        assert book_thickness_brute(g) == want


@pytest.mark.parametrize("kw", [{"max_pages": -1}, {"node_limit": -5}, {"time_budget": -1.0},
                                {"time_budget": float("nan")}])
def test_negative_budgets_and_caps_are_rejected(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        SolverOptions(**kw)


@pytest.mark.parametrize("kw", [{"max_pages": 2.5}, {"max_pages": 1.5}, {"max_pages": True},
                                {"node_limit": 7.0}, {"node_limit": False},
                                {"time_budget": True}, {"time_budget": "1"}])
def test_fractional_and_bool_caps_are_rejected(kw):
    # max_pages=2.5 once reported lower bound 3.5 on a graph of book thickness
    # 3, max_pages=1.5 lower bound 2.5 on K2,3, and True was read as 1; a
    # time_budget of True was read as 1 s, and "1" raised a bare TypeError
    with pytest.raises(ValueError, match=next(iter(kw))):
        SolverOptions(**kw)


def test_zero_budgets_and_caps_are_legal():
    rep = _bt(_needs_search(), time_budget=0.0)
    assert rep.status is SolverStatus.TIMEOUT and rep.nodes_explored == 0
    rep = _bt(_needs_search(), node_limit=0)
    assert rep.status is SolverStatus.TIMEOUT and rep.nodes_explored == 0
    rep = _bt(Graph(3), max_pages=0)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 0
    rep = _bt(complete_graph(3), max_pages=0)
    assert rep.status is SolverStatus.LOWER_BOUND_ONLY and rep.lower_bound == 1


def test_budget_irrelevant_when_bound_met_early():
    # first-fit already matches the density bound, so no search happens
    rep = _bt(cycle(6), time_budget=0.0, node_limit=1)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == 1
    assert rep.nodes_explored == 0


# ---- determinism ----


def test_reports_are_deterministic():
    rng = random.Random(53)
    for _ in range(5):
        g = random_connected_graph(7, rng)
        a = _bt(g)
        b = _bt(g)
        assert a.status is b.status
        assert a.book_thickness == b.book_thickness
        assert a.lower_bound == b.lower_bound
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness


# ---- structural properties ----


def test_witnesses_validate_and_match_the_count():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connected_graph(rng.randint(4, 7), rng)
        rep = _bt(g)
        assert rep.status is SolverStatus.EXACT
        res = validate_embedding(g, rep.witness)
        assert res.ok and res.pages_used == rep.book_thickness


def test_removing_an_edge_never_raises_thickness():
    rng = random.Random(67)
    for _ in range(10):
        g = random_connected_graph(rng.randint(4, 6), rng)
        if g.m == 0:
            continue
        base = _bt(g).book_thickness
        u, v = g.edges[rng.randrange(g.m)]
        assert _bt(without_edge(g, u, v)).book_thickness <= base


def test_is_outerplanar():
    assert is_outerplanar(cycle(5))
    assert is_outerplanar(path(4))
    assert is_outerplanar(Graph(3))
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(complete_bipartite(2, 3))


# ---- blocks ----


def _pendant_graph():
    # K_{2,3} with a 9-vertex path hanging from vertex 4: n=14, bt 2
    k23 = complete_bipartite(2, 3)
    tail = [(v, v + 1) for v in range(4, 13)]
    return Graph(14, list(k23.edges) + tail)


def test_pendant_graph_reduces_to_its_one_block():
    g = _pendant_graph()
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == rep.lower_bound == 2
    assert rep.nodes_explored < 100
    res = validate_embedding(g, rep.witness)
    assert res.ok and res.pages_used == 2
    assert not is_outerplanar(g)


def _blocks_by_definition(g):
    """Edge sets of the blocks: two edges at a vertex w share a block iff
    their far ends stay connected once w is deleted."""
    root = {e: e for e in g.edges}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for w in range(g.n):
        comp = [-1] * g.n
        for s in range(g.n):
            if s == w or comp[s] >= 0:
                continue
            comp[s], todo = s, [s]
            while todo:
                x = todo.pop()
                for y in g.neighbors(x):
                    if y != w and comp[y] < 0:
                        comp[y] = s
                        todo.append(y)
        near = sorted(g.neighbors(w))
        for i, a in enumerate(near):
            for b in near[i + 1:]:
                if comp[a] == comp[b]:
                    root[find((min(a, w), max(a, w)))] = find((min(b, w), max(b, w)))
    blocks = {}
    for e in g.edges:
        blocks.setdefault(find(e), []).append(e)
    return list(blocks.values())


@st.composite
def _glued_graphs(draw):
    """Small random pieces, each glued to the graph so far at a cut vertex,
    hung from it by a bridge, or left as a component of its own; then the
    vertices are shuffled."""
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, 5))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        piece = draw(st.lists(st.sampled_from(pairs), min_size=len(pairs) // 2, unique=True))
        glue = draw(st.sampled_from(["cut", "bridge", "apart"])) if n else "apart"
        ids = list(range(n, n + k))
        if glue == "cut":
            ids = [draw(st.integers(0, n - 1))] + ids[:-1]
        elif glue == "bridge":
            edges.append((draw(st.integers(0, n - 1)), n))
        n = max(n, ids[-1] + 1)
        edges += [(ids[u], ids[v]) for u, v in piece]
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_glued_graphs())
def test_block_split_matches_blocks_solved_apart(g):
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT
    apart = []
    for block in _blocks_by_definition(g):
        verts = sorted({v for e in block for v in e})
        local = {v: i for i, v in enumerate(verts)}
        apart.append(_bt(Graph(len(verts), [(local[u], local[v]) for u, v in block])).book_thickness)
    assert rep.book_thickness == max(apart, default=0)
    if g.n <= 7:
        assert rep.book_thickness == book_thickness_brute(g)
    res = validate_embedding(g, rep.witness)
    assert res.ok
    assert res.pages_used == rep.witness.page_count == rep.book_thickness


# ---- the pending-edge bound ----


def _shuffled_outerplanar(n=12, seed=1):
    # an n-cycle plus the nested chords (0, n/2) and (1, n/2 - 1), labels
    # shuffled: one page, which only orders along its Hamiltonian cycle reach
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n // 2 - 1)]
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_shuffled_outerplanar_graph_within_a_node_budget():
    # pruning on completed edges alone needs 891k nodes here
    g = _shuffled_outerplanar()
    rep = _bt(g, node_limit=100_000)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == rep.lower_bound == 1
    assert validate_embedding(g, rep.witness).ok
    assert is_outerplanar(g)


@pytest.mark.parametrize("n", [16, 18, 20])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_outerplanar_graph_needs_no_search(n, seed):
    # blind order search ran out of 300k nodes on each of these
    g = _shuffled_outerplanar(n, seed)
    rep = _bt(g, node_limit=300_000)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == rep.lower_bound == 1
    assert rep.nodes_explored == 0
    assert validate_embedding(g, rep.witness).ok
    assert is_outerplanar(g)


@st.composite
def _outerplanar_and_crossed(draw):
    """(G, H): G a triangulated n-gon, n <= 60, with some chords dropped and
    its labels shuffled; H is G plus one chord crossing a chord of G, or
    None when G has no chord.  G is outerplanar.  H is not: it is
    biconnected, its n-cycle is Hamiltonian, and a biconnected outerplanar
    graph has only one Hamiltonian cycle, along which all its edges nest."""
    n = draw(st.one_of(st.integers(3, 7), st.integers(8, 60)))
    chords, todo = [], [(0, n - 1)]
    while todo:  # split the polygon lo..hi at an apex over the side (lo, hi)
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        mid = draw(st.integers(lo + 1, hi - 1))
        chords += [(x, y) for x, y in ((lo, mid), (mid, hi)) if y - x > 1]
        todo += [(lo, mid), (mid, hi)]
    kept = [c for c in chords if draw(st.booleans())]
    edges = [(i, (i + 1) % n) for i in range(n)] + kept
    crossed = None
    if kept:
        a, b = draw(st.sampled_from(kept))
        inside = draw(st.integers(a + 1, b - 1))
        outside = draw(st.sampled_from([v for v in range(n) if not a <= v <= b]))
        crossed = edges + [(inside, outside)]
    perm = draw(st.permutations(range(n)))
    relabel = lambda es: Graph(n, [(perm[u], perm[v]) for u, v in es])
    return relabel(edges), crossed and relabel(crossed)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_outerplanar_and_crossed())
def test_outerplanar_blocks_are_decided_without_search(case):
    g, h = case
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == rep.lower_bound == 1
    assert rep.nodes_explored == 0
    res = validate_embedding(g, rep.witness)
    assert res.ok and res.pages_used == 1
    assert is_outerplanar(g)
    if g.n <= 7:
        assert book_thickness_brute(g) == 1
    if h is None:
        return
    assert not is_outerplanar(h)
    capped = _bt(h, max_pages=1)
    assert capped.status is SolverStatus.LOWER_BOUND_ONLY
    assert capped.lower_bound == 2 and capped.nodes_explored == 0
    if h.n <= 7:
        full = _bt(h)
        assert full.status is SolverStatus.EXACT
        assert full.book_thickness == book_thickness_brute(h) == 2


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(3, 8))
    return Graph(n, draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(_small_graphs().map(lambda g: [g]),
                 _outerplanar_and_crossed().map(lambda gh: [g for g in gh if g is not None])),
       st.randoms(use_true_random=False))
def test_outerplanar_cycles_are_one_page_witnesses(graphs, rng):
    # the solver takes a returned cycle as EXACT 1 without checking it
    for g in graphs:
        assert is_outerplanar(g) == (_bt(g, max_pages=1).book_thickness <= 1)
    for block in (b for g in graphs for b in _block_graphs(g)):
        edges = list(block.edges)
        cycle = solver._outerplanar_cycle(edges)
        # the cycle depends on the block alone, in its ids' order: not on the
        # order the edges come in, their ends' order, or the ids' values
        moved = [(3 * v + 5, 3 * u + 5) for u, v in reversed(edges)]
        rng.shuffle(moved)
        assert solver._outerplanar_cycle(moved) == (
            None if cycle is None else [3 * v + 5 for v in cycle])
        if cycle is not None:
            emb = BookEmbedding(tuple(cycle), dict.fromkeys(block.edges, 1), 1)
            res = validate_embedding(block, emb)
            assert res.ok and res.pages_used == 1
        if block.n <= 7:
            try:
                one_page = book_thickness_brute(block, page_cap=1) == 1
            except ValueError:  # book thickness 2 or more
                one_page = False
            assert (cycle is not None) == one_page


def test_outerplanar_graphs_make_no_first_fit_call(monkeypatch):
    # `is_outerplanar` runs no solve, so no block gets a first-fit incumbent
    calls = []
    first_fit = solver.first_fit_pages
    monkeypatch.setattr(solver, "first_fit_pages",
                        lambda g, order, **kw: calls.append(g.n) or first_fit(g, order, **kw))
    assert is_outerplanar(_shuffled_outerplanar())
    assert calls == []
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(complete_bipartite(2, 3))
    assert calls == []
    _bt(complete_graph(4))  # a solve settles K4 with zigzag pages at the root
    assert calls == []


def test_bridges_build_no_block_graph(monkeypatch):
    """A bridge is one page with its ends in id order, and an outerplanar
    block one page along its cycle, both settled from the block's own edges
    before any block graph is built, so a solve on either builds none."""
    built = []
    block_graph = solver.Graph
    monkeypatch.setattr(solver, "Graph", lambda *args: built.append(args) or block_graph(*args))
    rep = _bt(path(10))
    assert built == []
    assert (rep.status, rep.book_thickness, rep.lower_bound, rep.nodes_explored) == (
        SolverStatus.EXACT, 1, 1, 0)
    assert rep.witness.order == tuple(range(10))
    assert rep.witness.pages == {(i, i + 1): 1 for i in range(9)}
    tree = random_tree(30, random.Random(4))
    rep = _bt(tree)
    assert built == [] and rep.book_thickness == 1
    assert validate_embedding(tree, rep.witness).ok
    g = _shuffled_outerplanar()
    rep = _bt(g)
    assert built == [] and rep.book_thickness == 1
    assert validate_embedding(g, rep.witness).ok


def _exact_search_graphs():
    # the structures of perfbench's exact_search workload: K7, K8, six G(n, p)
    # drawn from Random(0) in this order, and the pendant graph
    rng = random.Random(0)
    return [complete_graph(7), complete_graph(8)] + [
        random_connected_graph(n, rng, p)
        for n, p in ((8, 0.5), (8, 0.7), (8, 0.9), (9, 0.3), (9, 0.5), (9, 0.7))
    ] + [_pendant_graph()]


@pytest.mark.parametrize("index", range(9))
def test_a_block_that_is_the_whole_graph_is_solved_in_place(index, monkeypatch):
    """A block with all of g's vertices and edges is solved on g itself,
    with no block graph, where g plus one isolated vertex renumbers the
    same block into a graph of its own.  Both give the same report."""
    built = []
    block_graph = solver.Graph
    monkeypatch.setattr(solver, "Graph", lambda *args: built.append(args) or block_graph(*args))
    g = _exact_search_graphs()[index]
    blocks = [edges for _, edges in _blocks(g)]
    searched = sum(solver._outerplanar_cycle(edges) is None for edges in blocks)
    whole = _bt(g, node_limit=200_000)
    assert len(built) == (0 if len(blocks) == 1 else searched)
    built.clear()
    padded = _bt(Graph(g.n + 1, g.edges), node_limit=200_000)
    assert len(built) == searched
    assert whole.status is SolverStatus.EXACT
    assert (whole.status, whole.book_thickness, whole.lower_bound, whole.nodes_explored) == (
        padded.status, padded.book_thickness, padded.lower_bound, padded.nodes_explored)
    assert whole.witness.pages == padded.witness.pages
    assert whole.witness.order + (g.n,) == padded.witness.order
    assert validate_embedding(g, whole.witness).ok


# ---- the planarity bound ----


def _block_graphs(g):
    """Each block of g as a graph of its own, its vertices renumbered in
    id order, as `_solve_block` does."""
    out = []
    for _, edges in _blocks(g):
        verts = sorted({v for e in edges for v in e})
        local = {v: i for i, v in enumerate(verts)}
        out.append(Graph(len(verts), [(local[u], local[v]) for u, v in edges]))
    return out


def test_non_planar_blocks_are_exactly_those_needing_three_pages():
    """Two pages give a plane drawing: the spine as a circle, one page's
    chords inside it and the other's outside (Bernhart and Kainen).  On at
    most 10 vertices the converse holds too.  A planar graph lies in a
    maximal planar graph on the same vertices, which is Hamiltonian there,
    since the smallest non-Hamiltonian one (Goldner-Harary) has 11 vertices.
    With that cycle as the spine, the chords inside it go on one page and
    those outside on the other.  So on these sizes a block is non-planar
    iff `book_thickness_brute` says it needs 3 or more pages.  Checked on
    every block of every connected graph with n <= 6 and of 20 seeded ones
    with n = 7."""
    rng = random.Random(67)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [random_connected_graph(7, rng, rng.choice((0.5, 0.7))) for _ in range(20)]
    verdicts = []
    for g in graphs:
        for block in _block_graphs(g):
            planar = _planar(block)
            assert planar == (book_thickness_brute(block) <= 2), block.edges
            verdicts.append(planar)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


def test_non_planar_blocks_start_at_three_pages():
    # K3,3 has 9 edges on 6 vertices, so the edge bound allows 2 pages;
    # first-fit finds 3 and the planarity bound closes the gap at the root
    rep = _bt(complete_bipartite(3, 3))
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == rep.lower_bound == 3 and rep.nodes_explored == 0
    g = random_connected_graph(9, random.Random(9), 0.5)  # bt 3, non-planar
    capped = _bt(g, max_pages=2)
    assert capped.status is SolverStatus.LOWER_BOUND_ONLY
    assert capped.lower_bound == 3 and capped.nodes_explored == 0
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == rep.lower_bound == 3


def test_one_page_caps_never_test_planarity(monkeypatch):
    """Under a one-page cap a block the edge bound puts at 2 is already
    decided, so the capped solve tests no planarity."""
    def boom(block):
        raise AssertionError("planarity tested")

    monkeypatch.setattr(solver, "_planar", boom)
    g = complete_bipartite(3, 3)
    assert not is_outerplanar(g)
    rep = _bt(g, max_pages=1)
    assert rep.status is SolverStatus.LOWER_BOUND_ONLY and rep.lower_bound == 2


@st.composite
def _planar_and_kuratowski(draw):
    """(G, H): G a stacked triangulation on n <= 30 vertices with some edges
    dropped, so planar; H is G plus a subdivided K5 or K3,3 whose branch
    vertices include two or more of G's vertices, so not planar.  Both are
    relabelled by one permutation of H's vertices."""
    n = draw(st.integers(3, 30))
    tri = stacked_triangulation(n, draw(st.integers(0, 2**32)))
    dropped = draw(st.sets(st.sampled_from(tri.edges)))
    edges = [e for e in tri.edges if e not in dropped]
    if draw(st.booleans()):
        size, pairs = 5, list(combinations(range(5), 2))
    else:
        size, pairs = 6, [(i, j) for i in range(3) for j in range(3, 6)]
    shared = draw(st.integers(2, min(size, n)))
    total = n + size - shared
    branch = draw(st.permutations(range(n)))[:shared] + list(range(n, total))
    extra = []
    for i, j in pairs:
        path = [branch[i], *range(total, total + draw(st.integers(0, 2))), branch[j]]
        total += len(path) - 2
        extra += zip(path, path[1:])
    perm = draw(st.permutations(range(total)))
    relabel = lambda es: Graph(total, [(perm[u], perm[v]) for u, v in es])
    return relabel(edges), relabel(edges + extra)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_planar_and_kuratowski())
def test_planarity_on_triangulations_and_kuratowski_subdivisions(case):
    g, h = case
    assert all(_planar(b) for b in _block_graphs(g))
    assert not all(_planar(b) for b in _block_graphs(h))


def _literal_prefix_graph(g, order, d):
    """The partial crossing graph of order[0..d], from its definition:
    the completed edges, crossing as the brute-force test says, and one hub
    per placed vertex with an unplaced neighbour, joined to the completed
    edges whose endpoints lie on both sides of it.  Returns (completed
    edges, hub -> crossed edges, crossing pairs, forced hub pairs: hubs
    that both cross some edge and share two unplaced neighbours)."""
    placed = order[:d + 1]
    pos = {v: i for i, v in enumerate(placed)}
    done = {e for e in g.edges if e[0] in pos and e[1] in pos}
    hubs = {}
    for v in placed:
        if any(w not in pos for w in g.neighbors(v)):
            hubs[v] = frozenset(e for e in done
                                if min(pos[e[0]], pos[e[1]]) < pos[v] < max(pos[e[0]], pos[e[1]]))
    pairs = {frozenset((e, f)) for e in done for f in done
             if _arc_crossing(tuple(placed), e, f)}
    unplaced = set(range(g.n)) - set(placed)
    forced = {frozenset((u1, u2)) for u1 in hubs for u2 in hubs
              if u1 != u2 and hubs[u1] and hubs[u2]
              and len(set(g.neighbors(u1)) & set(g.neighbors(u2)) & unplaced) >= 2}
    return done, hubs, pairs, forced


def _two_colourable(links):
    side = {}
    for start in {x for link in links for x in link}:
        if start in side:
            continue
        side[start], todo = 0, [start]
        while todo:
            x = todo.pop()
            for a, b in links:
                y = b if a == x else a if b == x else None
                if y is None:
                    continue
                if y not in side:
                    side[y] = 1 - side[x]
                    todo.append(y)
                elif side[y] == side[x]:
                    return False
    return True


def _bits(mask):
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def _some_edges(draw, n, most):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(0, min(most, len(pairs))))
    return draw(st.permutations(pairs))[:m]


@st.composite
def _graphs_and_orders(draw, most=8):
    n = draw(st.integers(2, most))
    return Graph(n, _some_edges(draw, n, 28)), draw(st.permutations(range(n)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_graphs_and_orders(7))
def test_two_shared_unplaced_neighbours_force_a_crossing(case):
    """Let u1 come before u2 in a prefix.  If they share two unplaced
    neighbours, a pending edge of u1 crosses a pending edge of u2 in every
    completion; with one shared neighbour or none, some completion has no
    such crossing.  Every completion is tried."""
    g, order = case
    for d in range(1, g.n - 1):
        placed, rest = order[:d + 1], order[d + 1:]
        for u1, u2 in combinations(placed, 2):
            n1, n2 = ([w for w in g.neighbors(u) if w in rest] for u in (u1, u2))
            crossing = [any(_arc_crossing(tuple(placed) + tail, _norm_edge(u1, x), _norm_edge(u2, y))
                            for x in n1 for y in n2)
                        for tail in permutations(rest)]
            assert all(crossing) == (len(set(n1) & set(n2)) >= 2)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_graphs_and_orders())
def test_prefix_bound_never_exceeds_the_full_order(case):
    """At every prefix of an order, each pending edge crosses exactly the
    completed edges its hub does, so the full order's page assignment, each
    hub taking one of its pending edges' pages, is a proper coloring of the
    partial crossing graph: that graph needs no more pages than the order.
    On two pages it also colours the forced hub pairs properly.  The
    solver's incremental prefix holds exactly that graph, tells edges and
    odd cycles in it as a literal search does, never claims more pages than
    the order needs, and unwinds to empty."""
    g, order = case
    edges = list(g.edges)
    crossed = {e: {f for f in edges if _arc_crossing(tuple(order), e, f)} for e in edges}
    pages = min_pages_for_order(g, order)
    page = dict(zip(edges, _fewest_colours(crossing_masks(edges, order))[1]))
    assert all(page[e] != page[f] for e in edges for f in crossed[e])
    prefix = _Prefix(g)
    placed = []
    for d, v in enumerate(order):
        placed.append((v, prefix.place(v, d)))
        done, hubs, pairs, forced = _literal_prefix_graph(g, order, d)
        pending = {u: [_norm_edge(u, w) for w in g.neighbors(u) if w not in order[:d + 1]]
                   for u in hubs}
        for u, hub_crossed in hubs.items():
            assert all(crossed[e] & done == hub_crossed for e in pending[u])
            assert all(page[pending[u][0]] != page[e] for e in hub_crossed)
            if pages == 2 and hub_crossed:
                assert len({page[e] for e in pending[u]}) == 1
        assert all(page[e] != page[f] for e, f in map(tuple, pairs))
        if pages == 2:
            assert all(page[pending[u1][0]] != page[pending[u2][0]] for u1, u2 in map(tuple, forced))
        completed = [_norm_edge(prefix.order[a], prefix.order[b]) for a, b in prefix.arcs]
        assert set(completed) == done
        assert {prefix.order[a]: frozenset(completed[t] for t in _bits(prefix.cover[a]))
                for a in _bits(prefix.pend)} == hubs
        assert {frozenset((completed[i], completed[j]))
                for i, mk in enumerate(prefix.masks) for j in _bits(mk)} == pairs
        links = [tuple(p) for p in pairs] + [(("hub", u), e) for u, es in hubs.items() for e in es]
        links += [(("hub", u1), ("hub", u2)) for u1, u2 in map(tuple, forced)]
        assert prefix.needs(2) == bool(links)
        assert prefix.needs(3) == (not _two_colourable(links))
        assert not prefix.needs(pages + 1)
    for v, added in reversed(placed):
        prefix.unplace(v, added)
    assert (prefix.arcs, prefix.masks, prefix.pend, prefix.covered) == ([], [], 0, 0)
    assert prefix.cover == [0] * g.n and prefix.pos == [-1] * g.n
    assert prefix.free == (1 << g.n) - 1
    nodes = g.n + g.m
    assert (prefix.up, prefix.par) == (list(range(nodes)), [0] * nodes)
    assert not prefix.odd


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_graphs_and_orders())
def test_leaf_colouring_gives_up_exactly_at_the_cap(case):
    """`_Prefix.needs` leaves a clique of completed arcs to the leaf, so the
    capped leaf colouring must give up exactly when the full order needs
    the cap or more pages, and otherwise return that order's page count
    with a proper colouring."""
    g, order = case
    masks = crossing_masks(g.edges, order)
    pages = min_pages_for_order(g, order)
    for cap in range(1, g.m + 2):
        found = _fewest_colours(masks, cap)
        assert (found is None) == (pages >= cap)
        if found is not None:
            p, colors = found
            assert p == pages and max(colors, default=-1) < p
            assert all(colors[i] != colors[j] for i, mk in enumerate(masks) for j in _bits(mk))


@st.composite
def _masks_caps_and_floors(draw):
    m = draw(st.integers(0, 24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)))
    masks = [0] * m
    for u, v in combinations(range(m), 2):
        if rng.random() < density:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    cap = draw(st.sampled_from((None, 1, 2, 3, 4, 5, 6, 7, 8)))
    chromatic = reference_fewest_colours(masks)[0]
    return masks, cap, draw(st.integers(0, chromatic))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_masks_caps_and_floors())
def test_leaf_colouring_matches_the_scan_reference(case):
    """`_fewest_colours` keeps each vertex's saturation current where the
    reference scans every vertex for it, and starts from any floor up to
    the chromatic number: both give the same page count and the same
    colouring, or both give up under the cap."""
    masks, cap, floor = case
    assert _fewest_colours(masks, cap, None, floor) == reference_fewest_colours(masks, cap, floor)


@st.composite
def _small_relabelled_graphs(draw):
    n = draw(st.integers(3, 7))
    edges = _some_edges(draw, n, 14)  # more would cost the brute force seconds
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_small_relabelled_graphs())
def test_matches_brute_force_on_relabelled_graphs(g):
    rep = _bt(g)
    assert rep.status is SolverStatus.EXACT
    assert rep.book_thickness == book_thickness_brute(g)
    res = validate_embedding(g, rep.witness)
    assert res.ok and res.pages_used == rep.book_thickness


@pytest.mark.parametrize("k, sizes", [(2, range(4, 15)), (3, range(5, 13))])
def test_degree3_ktrees_fit_on_k_pages(k, sizes):
    """Evidence for Vandenbussche et al. (2009), not their construction: a
    k-tree with a smooth degree-3 tree decomposition of width k has book
    thickness at most k.  Six relabelled `degree3_ktree`s for each n, each
    decided by the exact solver under a k-page cap within 10^5 nodes.  The
    two-page cases read `_Prefix`'s union-find at every node.  k = 4 is left
    out: some of its cases with n >= 10 time out at 2*10^5 nodes."""
    for n in sizes:
        for seed in range(6):
            g, _ = degree3_ktree(n, k, seed)
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            rep = _bt(g, max_pages=k, node_limit=10**5)
            assert rep.status is SolverStatus.EXACT and rep.book_thickness <= k, (n, seed)
            res = validate_embedding(g, rep.witness)
            assert res.ok and res.pages_used <= k, (n, seed)


# ---- root rules ----


@pytest.mark.parametrize("graphs, kw, traffic", [
    (_exact_search_graphs, {"node_limit": 200_000}, (21, 3, 5, 3, 4)),
    (lambda: [g for n in range(1, 7) for g in enumerate_graphs(n)], {}, (273, 12, 63, 32, 24)),
], ids=["exact-search", "connected-to-6"])
def test_root_rules_run_only_where_their_preconditions_hold(graphs, kw, traffic, monkeypatch):
    """Each root rule runs only on the blocks it can move.  A block with no
    one-page witness starts from its edge bound lb, at least 2.  First-fit
    never runs on a block whose lb is ceil(n/2), which the zigzag pages
    settle; the planarity test runs only when lb == 2 is below first-fit's
    pages; and no `_Prefix` is built for a block whose root closed its gap.
    The traffic over the nine `exact_search` structures and every connected
    graph with n <= 6 is (blocks, zigzag, first-fit, planarity, search)."""
    bound, first_fit, planar, prefix, solve = (
        solver.density_lower_bound, solver.first_fit_pages, solver._planar, solver._Prefix,
        solver._solve_block)
    counts = dict.fromkeys(("blocks", "zigzag", "first-fit", "planar", "search"), 0)
    root = {}  # the bounds of the block whose rules are running

    def solve_block(*args):
        counts["blocks"] += 1
        return solve(*args)

    def edge_bound(block):
        lb = bound(block)
        root.update(lb=max(2, lb), cap=(block.n + 1) // 2)
        counts["zigzag"] += root["lb"] == root["cap"]
        return lb

    def first_fit_incumbent(block, order, **kw):
        assert root["lb"] != (block.n + 1) // 2, block.edges
        counts["first-fit"] += 1
        incumbent = first_fit(block, order, **kw)
        root["cap"] = incumbent.page_count
        return incumbent

    def planarity(block, deadline=None):
        assert root["lb"] == 2 < root["cap"], block.edges
        counts["planar"] += 1
        verdict = planar(block, deadline)
        root["lb"] = 2 if verdict else 3
        return verdict

    def search_state(block):
        assert root["lb"] < root["cap"], block.edges
        counts["search"] += 1
        return prefix(block)

    monkeypatch.setattr(solver, "_solve_block", solve_block)
    monkeypatch.setattr(solver, "density_lower_bound", edge_bound)
    monkeypatch.setattr(solver, "first_fit_pages", first_fit_incumbent)
    monkeypatch.setattr(solver, "_planar", planarity)
    monkeypatch.setattr(solver, "_Prefix", search_state)
    for g in graphs():
        assert _bt(g, **kw).status is SolverStatus.EXACT
    assert tuple(counts.values()) == traffic


def test_root_rules_alone_give_a_valid_witness_and_a_sound_gap():
    """With `node_limit=0` no order is searched, and the rules before the
    search embed any graph: the witness is valid, the bounds hold the exact
    value, and the report is EXACT only where they meet."""
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [_needs_search(), _pendant_graph(), complete_graph(30),
               _relabelled(random_ktree(200, 2, 1)[0], 1)]
    for g in graphs:
        rep = _bt(g, node_limit=0)
        assert rep.nodes_explored == 0 and validate_embedding(g, rep.witness).ok, g.edges
        assert (rep.status is SolverStatus.EXACT) == (rep.lower_bound == rep.book_thickness)
        if g.n <= 6:
            assert rep.lower_bound <= _bt(g).book_thickness <= rep.book_thickness, g.edges


# ---- pinned reports ----


def _pinned_graphs():
    # edgeless, a forest with isolated vertices, the pendant graph, seeded
    # G(n, p) with n <= 9 (one of them disconnected), and three dense pieces
    # glued at cut vertices, so that a budget spent on one block carries over
    forest = Graph(9, [(0, 1), (1, 2), (1, 3), (5, 6), (6, 7)])
    graphs = [Graph(1), Graph(5), forest, _pendant_graph()]
    rng = random.Random(2024)
    for n in (5, 6, 7, 7, 8, 8, 8, 9, 9, 9):
        p = rng.choice((0.3, 0.5, 0.6, 0.75))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    n, edges = 1, []
    for piece in (graphs[6], graphs[9], graphs[12]):  # 6, 358 and 32 nodes apart
        edges += [(u + n - 1, v + n - 1) for u, v in piece.edges]
        n += piece.n - 1
    return graphs + [Graph(n, edges)]


def _root_rule_graphs():
    # one graph past each root rule: K4, ..., K9 glued in a chain at cut
    # vertices (zigzag pages), K3,3 (first-fit, then not planar), K4,4 (not
    # planar, then the order search) and an 8-cycle with four chords, which
    # is planar but takes first-fit three pages where two suffice
    n, edges = 1, []
    for k in range(4, 10):
        edges += [(u + n - 1, v + n - 1) for u, v in combinations(range(k), 2)]
        n += k - 1
    chords = [(0, 2), (0, 3), (1, 3), (2, 4)]
    return [Graph(n, edges), complete_bipartite(3, 3), complete_bipartite(4, 4),
            Graph(8, [(i, (i + 1) % 8) for i in range(8)] + chords)]


def _pinned_digest(kw, fields=None, graphs=_pinned_graphs):
    # sha256 of every report without `elapsed`, or of just `fields` of each
    reports = []
    for g in graphs():
        rep = _bt(g, **kw).to_json_dict()
        del rep["elapsed"]
        reports.append(rep if fields is None else [rep[f] for f in fields])
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kw, digest", [
    ({}, "57b9895b8268008651ca81e1d446b4a23810d4f8d7579a6503cbef8c1dbd35d1"),
    ({"max_pages": 1}, "2832d70fe29ffb5d902ee7b8f3b307789e64dd28960309feb69c41526db2a8c4"),
    ({"max_pages": 2}, "e61f38af9cb97e862e74bc71232dcf5c1312e6d57bafa684b90021b083ef475b"),
    ({"node_limit": 7}, "d6d1939b6803ba9cd473b190c5f7240d63dceed616a98d015567ef2f099e64e6"),
    ({"node_limit": 0}, "0b7c0eaafc822a883bc411217371cb7a764bc2612173af9a4d7bd808876c20ce"),
])
def test_reports_are_pinned(kw, digest):
    # status, bounds, node count and witness of every report, byte for byte
    assert _pinned_digest(kw) == digest


@pytest.mark.parametrize("kw, digest", [
    ({}, "1d884622c7c4ab90a0c84c97403314354f0a6acbdef9c4813d7823d036e5b870"),
    ({"max_pages": 1}, "913969f8191d7d12728cd5e0c91aba1ef134e54af7fedbeccc4e230eee6e7406"),
    ({"max_pages": 2}, "3c7f07db912f7294b735fef8dfe5bc352c2974b5b745da6166d82d091859d323"),
    ({"node_limit": 7}, "b66459dc2e901fc578505b94842cba5115363990e264441b8bf4cc62ffccb2fa"),
    ({"node_limit": 0}, "866f120c179eb512a54afb9bbe80042fa51fa915aadc9ec2e31e724a93f72e7d"),
])
def test_report_values_are_pinned(kw, digest):
    # the values alone: a change to the search may move node counts and
    # witnesses, but never a status or a bound
    assert _pinned_digest(kw, ("status", "book_thickness", "lower_bound")) == digest


@pytest.mark.parametrize("kw, digest", [
    ({}, "519b666b14202dcf763562942a260006c4c40cee28a3e09b9a187f74314811d8"),
    ({"node_limit": 0}, "7fc428b8d909e02a0b232c19aa373128cb53f62444de8f0b3f3ed6fa84620257"),
    ({"max_pages": 2}, "4a71ae96fdd0c4743b15ede6ef18d31180e21287596974242b42481be3cbaa07"),
])
def test_root_rule_reports_are_pinned(kw, digest):
    # every root rule, root-only and past it: status, bounds, nodes, witness
    assert _pinned_digest(kw, graphs=_root_rule_graphs) == digest
