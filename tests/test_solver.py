"""Exact solver: known values, brute-force equivalence, budgets, determinism."""

import random

from bookembed import (
    Graph,
    SolverOptions,
    SolverStatus,
    book_thickness_exact,
    complete_bipartite,
    complete_graph,
    is_outerplanar,
    min_pages_for_order,
    path_power,
    validate_embedding,
)
from bookembed.bruteforce import book_thickness_brute, enumerate_graphs, random_connected_graph
from util import cycle, path, random_tree


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


def test_max_pages_cap():
    rep = _bt(complete_graph(7), max_pages=2)
    assert rep.status is SolverStatus.LOWER_BOUND_ONLY
    assert rep.lower_bound == 3
    assert rep.book_thickness >= 4  # upper bound from the incumbent
    # a cap at or above the answer still yields the exact value
    rep = _bt(complete_graph(7), max_pages=4)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 4
    rep = _bt(complete_graph(4), max_pages=2)
    assert rep.status is SolverStatus.EXACT and rep.book_thickness == 2


def test_node_limit_times_out():
    rep = _bt(complete_graph(7), node_limit=50)
    assert rep.status is SolverStatus.TIMEOUT
    assert rep.nodes_explored >= 50
    assert rep.lower_bound == 3
    assert rep.book_thickness >= 4
    assert rep.lower_bound <= 4 <= rep.book_thickness
    # the reported upper bound is still a real embedding
    assert validate_embedding(complete_graph(7), rep.witness).ok


def test_time_budget_times_out():
    rep = _bt(complete_graph(8), time_budget=0.005)
    assert rep.status is SolverStatus.TIMEOUT
    assert rep.lower_bound <= rep.book_thickness


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
        assert _bt(g.without_edge(u, v)).book_thickness <= base


def test_is_outerplanar():
    assert is_outerplanar(cycle(5))
    assert is_outerplanar(path(4))
    assert is_outerplanar(Graph(3))
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(complete_bipartite(2, 3))
