"""Tree decomposition validation and certificate-driven construction."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    Graph,
    InvalidCertificate,
    KTreeCertificate,
    TreeDecomposition,
    complete_graph,
    decomposition_from_certificate,
    is_k_tree,
    validate_decomposition,
)
from bookembed.constructions import complete_split, random_ktree
from util import (
    ktree_cases,
    reference_decomposition,
    reference_validate_decomposition,
    without_edge,
)


def _td(bags, tree_edges):
    return TreeDecomposition(
        bags=tuple(frozenset(b) for b in bags),
        tree_edges=frozenset(tuple(sorted(e)) for e in tree_edges),
    )


# ---- hand-built decompositions ----


def test_single_bag_complete_graph():
    g = complete_graph(5)
    rep = validate_decomposition(g, _td([range(5)], []))
    assert rep.valid and rep.smooth
    assert rep.width == 4
    assert rep.max_degree == 0
    assert rep.violations == ()


def test_path_decomposition_of_a_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    td = _td([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    rep = validate_decomposition(g, td)
    assert rep.valid and rep.smooth and rep.width == 1
    assert rep.max_degree == 2


def test_uncovered_vertex_and_edge_are_reported():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    rep = validate_decomposition(g, _td([{0, 1}, {1, 2}], [(0, 1)]))
    assert not rep.valid
    assert any("edge (0, 2)" in v for v in rep.violations)

    rep = validate_decomposition(without_edge(g, 0, 2), _td([{0, 1}], []))
    assert not rep.valid
    assert any("vertex 2" in v for v in rep.violations)


def test_disconnected_vertex_subtree_is_reported():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # vertex 0 appears in bags 0 and 2, which are not adjacent
    td = _td([{0, 1}, {1, 2}, {2, 3, 0}], [(0, 1), (1, 2)])
    rep = validate_decomposition(g, td)
    assert not rep.valid
    assert any("vertex 0" in v and "disconnected" in v for v in rep.violations)


def test_broken_host_tree_is_reported():
    g = Graph(2, [(0, 1)])
    bags = [{0, 1}, {0, 1}, {0, 1}]
    rep = validate_decomposition(g, _td(bags, [(0, 1)]))  # too few edges
    assert not rep.valid
    rep = validate_decomposition(g, _td(bags, [(0, 1), (0, 1)]))  # duplicate collapses
    assert not rep.valid
    rep = validate_decomposition(g, _td(bags, [(0, 1), (0, 9)]))  # missing bag
    assert not rep.valid
    assert any("missing bag" in v for v in rep.violations)
    # a cycle: vertex 1 has two tops in the BFS forest from bag 0, bags 1 and
    # 2, which the off-forest edge (1, 2) joins, so its bags are connected
    td = _td([{0}, {0, 1}, {0, 1}], [(0, 1), (0, 2), (1, 2)])
    rep = validate_decomposition(g, td)
    assert rep == reference_validate_decomposition(g, td)
    assert rep.violations == (
        "host tree has 3 edges, needs 2",
        "bag 0 has size 1, expected 2",
        "bags 1 and 2 share 2 vertices, expected 1",
    )
    # two components, bag 3 alone: vertex 1 lies in both, so it is split
    g = Graph(3, [(0, 1), (1, 2)])
    td = _td([{0, 1}, {0, 1}, {0, 1}, {1, 2}], [(0, 1), (0, 2), (1, 2)])
    rep = validate_decomposition(g, td)
    assert rep == reference_validate_decomposition(g, td)
    assert rep.violations[:2] == (
        "host tree is disconnected",
        "bags containing vertex 1 are disconnected in the host tree",
    )


@pytest.mark.parametrize("bags, tree_edges, graph, violation", [
    ([{0, 1}, {0, 1}], ((0, 1), (1, 1)), (2, [(0, 1)]), "tree edge (1, 1) joins bag 1 to itself"),
    ([{0, 1}, {2, 3}, {0, 3}], ((0, 1), (0, 1)), (4, [(0, 1), (2, 3)]),
     "tree edge (0, 1) is listed twice"),
    ([{0, 1}, {0, 1}, {0, 1}], ((0, 1), (1, 2), (1, 0)), (2, [(0, 1)]),
     "tree edge (1, 0) is listed twice"),
])
def test_looped_and_repeated_tree_edges_are_named(bags, tree_edges, graph, violation):
    g, td = Graph(*graph), TreeDecomposition(tuple(map(frozenset, bags)), tree_edges)
    rep = validate_decomposition(g, td)
    assert rep == reference_validate_decomposition(g, td)
    assert not rep.valid and violation in rep.violations
    # a repeated pair's share is reported once, in either orientation
    shares = [tuple(sorted(v.split()[1:4:2])) for v in rep.violations if " share " in v]
    assert len(shares) == len(set(shares))


def test_valid_but_not_smooth():
    g = Graph(3, [(0, 1), (1, 2)])
    td = _td([{0, 1}, {1, 2}, {1}], [(0, 1), (1, 2)])
    rep = validate_decomposition(g, td)
    assert rep.valid and not rep.smooth
    assert any("size" in v for v in rep.violations)

    # uniform size but adjacent bags share too little
    g2 = Graph(4, [(0, 1), (2, 3)])
    td2 = _td([{0, 1}, {2, 3}], [(0, 1)])
    rep2 = validate_decomposition(g2, td2)
    assert rep2.valid and not rep2.smooth


# ---- construction from certificates ----


def test_certificate_decomposition_for_complete_split():
    g = complete_split(4, 3)
    cert = is_k_tree(g, 4)
    assert cert is not None
    td = decomposition_from_certificate(cert)
    assert len(td.bags) == 3
    rep = validate_decomposition(g, td)
    assert rep.valid and rep.smooth and rep.width == 4


def test_certificate_decomposition_on_random_ktrees():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, k + 15)
        g, cert = random_ktree(n, k, seed=rng.randrange(10**6))
        td = decomposition_from_certificate(cert)
        assert len(td.bags) == n - k
        rep = validate_decomposition(g, td)
        assert rep.valid and rep.smooth
        assert rep.width == k


def test_validation_peaks_under_1100_bytes_per_bag():
    """The host is rooted, and each vertex keeps one top bag, not a set of
    bags.  Under tracemalloc validating this decomposition peaks at about
    250 B per bag, where a set of bags per vertex peaked at about 760 B and
    keeping each tree edge's intersection at about 1,500 B (Python 3.11)."""
    g, cert = random_ktree(2000, 5, 1)
    td = decomposition_from_certificate(cert)
    gc.collect()
    tracemalloc.start()
    try:
        rep = validate_decomposition(g, td)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.valid and rep.smooth and rep.width == 5
    assert peak / len(td.bags) < 1100, peak


def test_bag_mutation_breaks_validity_or_smoothness():
    rng = random.Random(29)
    for _ in range(15):
        k = rng.randint(2, 4)
        g, cert = random_ktree(rng.randint(k + 3, k + 10), k, seed=rng.randrange(10**6))
        td = decomposition_from_certificate(cert)
        idx = rng.randrange(len(td.bags))
        bag = sorted(td.bags[idx])
        dropped = frozenset(bag[: len(bag) - 1])
        bags = list(td.bags)
        bags[idx] = dropped
        mutated = TreeDecomposition(tuple(bags), td.tree_edges)
        rep = validate_decomposition(g, mutated)
        assert not (rep.valid and rep.smooth)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ktree_cases())
def test_certificate_decomposition_matches_scanning_all_bags(case):
    g, cert, k = case
    td = decomposition_from_certificate(cert)
    assert (td.bags, td.tree_edges) == reference_decomposition(cert)
    rep = validate_decomposition(g, td)
    assert rep.valid and rep.smooth and rep.width == k


def test_certificate_decomposition_rejects_a_clique_in_no_earlier_bag():
    with pytest.raises(InvalidCertificate):  # 5 is never placed
        decomposition_from_certificate(
            KTreeCertificate(2, (0, 1, 2), ((3, frozenset({0, 5})),)))
    with pytest.raises(InvalidCertificate, match=r"missing \(2, 3\)"):
        decomposition_from_certificate(KTreeCertificate(
            2, (0, 1, 2), ((3, frozenset({0, 1})), (4, frozenset({2, 3})))))


def test_certificate_decomposition_rejects_cliques_of_the_wrong_size():
    for clique in ({0, 1, 2}, {0}):
        with pytest.raises(InvalidCertificate):
            decomposition_from_certificate(
                KTreeCertificate(2, (0, 1, 2), ((3, frozenset(clique)),)))


@st.composite
def _corrupted_decompositions(draw):
    """A random k-tree and its certificate's decomposition with 0-3 of:
    a dropped bag member, a dropped or added tree edge (an added one closes
    a cycle or loops on one bag), a tree edge moved across the cut it
    leaves, an out-of-range member, a tree edge to a missing bag, an extra
    singleton bag, the bag indices permuted (so bag 0, where the validator
    roots the host, may be a leaf or an inner bag), every tree edge written
    as (j, i), a tree edge listed again in either orientation (the tree
    edges then come as a shuffled tuple)."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k + 1, 30))
    g, cert = random_ktree(n, k, seed=draw(st.integers(0, 2**32)))
    td = decomposition_from_certificate(cert)
    bags, tree_edges = list(td.bags), set(td.tree_edges)
    repeats = 0
    for kind in draw(st.lists(st.integers(0, 9), max_size=3)):
        nb = len(bags)
        if kind == 0:
            idx = draw(st.integers(0, nb - 1))
            if bags[idx]:
                bags[idx] -= {draw(st.sampled_from(sorted(bags[idx])))}
        elif kind == 1 and tree_edges:
            tree_edges.discard(draw(st.sampled_from(sorted(tree_edges))))
        elif kind == 2:
            tree_edges.add((draw(st.integers(0, nb - 1)), draw(st.integers(0, nb - 1))))
        elif kind == 3:
            idx = draw(st.integers(0, nb - 1))
            bags[idx] |= {draw(st.sampled_from([-1, n, n + 3]))}
        elif kind == 4:
            tree_edges.add((draw(st.integers(0, nb - 1)), nb + draw(st.integers(0, 2))))
        elif kind == 5:
            bags.append(frozenset({draw(st.integers(0, n - 1))}))
        elif kind == 6 and tree_edges:
            # move one tree edge across the cut it leaves: a tree again, but
            # one whose bags may no longer hold each vertex in a subtree
            a, b = draw(st.sampled_from(sorted(tree_edges)))
            tree_edges.discard((a, b))
            side = _reachable(a, tree_edges)
            rest = [x for x in range(nb) if x not in side]
            if b not in side and rest:
                tree_edges.add((draw(st.sampled_from(sorted(side))), draw(st.sampled_from(rest))))
        elif kind == 7:
            perm = draw(st.permutations(range(nb)))
            moved = [None] * nb
            for idx, b in enumerate(bags):
                moved[perm[idx]] = b
            bags = moved
            tree_edges = {tuple(perm[x] if x < nb else x for x in e) for e in tree_edges}
        elif kind == 8:
            tree_edges = {(j, i) for i, j in tree_edges}
        elif kind == 9:
            repeats += 1
    if repeats and tree_edges:
        listed = sorted(tree_edges)
        for _ in range(repeats):
            i, j = draw(st.sampled_from(sorted(tree_edges)))
            listed.append(draw(st.sampled_from([(i, j), (j, i)])))
        return g, TreeDecomposition(tuple(bags), tuple(draw(st.permutations(listed))))
    return g, TreeDecomposition(tuple(bags), frozenset(tree_edges))


def _reachable(start, edges):
    out = {start}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in out) != (j in out):
                out |= {i, j}
                grew = True
    return out


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_corrupted_decompositions())
def test_validation_matches_the_per_edge_scan(case):
    g, td = case
    assert validate_decomposition(g, td) == reference_validate_decomposition(g, td)


def test_an_edge_in_a_non_top_bag_of_a_split_vertex_is_covered():
    # rooted at bag 0, vertex 0 lies in bags 0, 2 and 3: two subtrees, with
    # tops 0 and 2; edge (0, 3) lies only in bag 3, below bag 2
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    td = _td([{0, 1}, {1, 2}, {0, 2}, {0, 3}], [(0, 1), (1, 2), (2, 3)])
    rep = validate_decomposition(g, td)
    assert rep == reference_validate_decomposition(g, td)
    assert rep.violations == ("bags containing vertex 0 are disconnected in the host tree",)


@pytest.mark.parametrize("bags, tree_edges, violation", [
    ([{0, 1, 2, "a"}], [], "bag 0 contains unknown vertex 'a'"),
    ([{0, 1, 2}, {0, 1, 2}], [(0, "x")], "tree edge (0, 'x') references a missing bag"),
    ([{0, 1.0, 2}], [], "bag 0 contains unknown vertex 1.0"),
    ([{0, 1, 2}, {0, 1, 2}], [(False, True)], "tree edge (False, True) references a missing bag"),
])
def test_non_integer_ids_are_violations(bags, tree_edges, violation):
    td = TreeDecomposition(tuple(map(frozenset, bags)), frozenset(tree_edges))
    rep = validate_decomposition(complete_graph(3), td)
    assert not rep.valid
    assert violation in rep.violations


@pytest.mark.parametrize("bad, violation", [
    ((0, 1, 1), "tree edge (0, 1, 1) is not a pair of bag indices"),
    (5, "tree edge 5 is not a pair of bag indices"),
])
def test_tree_edges_that_are_not_pairs_are_violations(bad, violation):
    td = TreeDecomposition((frozenset({0, 1, 2}), frozenset({0, 1, 2})), frozenset({(0, 1), bad}))
    rep = validate_decomposition(complete_graph(3), td)
    assert not rep.valid
    assert violation in rep.violations


@pytest.mark.parametrize("bags, tree_edges, violation", [
    ((5,), frozenset(), "bag 0 is not a set of vertex ids: 5"),
    (({0, 1, 2}, [0, [1]]), frozenset({(0, 1)}), "bag 1 is not a set of vertex ids: [0, [1]]"),
    (({0, 1, 2},), None, "tree edges are not a collection (got NoneType)"),
    (None, frozenset(), "bags are not a sequence (got NoneType)"),
])
def test_containers_of_the_wrong_kind_are_one_violation(bags, tree_edges, violation):
    rep = validate_decomposition(complete_graph(3), TreeDecomposition(bags, tree_edges))
    assert not rep.valid and not rep.smooth
    assert rep.violations == (violation,)


def test_a_bag_without_a_length_is_a_violation():
    # an iterator is a collection frozenset accepts, but its size is unknown
    td = TreeDecomposition((iter([0, 1, 2]),), frozenset())
    rep = validate_decomposition(complete_graph(3), td)
    assert not rep.valid and len(rep.violations) == 1
    assert rep.violations[0].startswith("bag 0 is not a set of vertex ids: <list_iterator")


def test_list_bags_are_checked_as_sets():
    # a bag given as a list is read as its set of members, also where two
    # bags meet on a tree edge, and a member named twice counts once, for
    # the width and for smoothness
    td = TreeDecomposition(([0, 1, 2], [2, 1, 3]), ((0, 1),))
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    rep = validate_decomposition(g, td)
    assert rep.valid and rep.smooth and rep.width == 2 and rep.max_degree == 1
    for n, bags, tree_edges in ((2, ([0, 0, 1],), ()), (3, ([0, 0, 1], [1, 2]), ((0, 1),))):
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        rep = validate_decomposition(g, TreeDecomposition(bags, tree_edges))
        assert rep.valid and rep.smooth and rep.width == 1 and rep.violations == ()


# ---- serialization ----


def test_json_refuses_a_tree_edge_named_twice():
    data = {"bags": [[0, 1], [1, 2]], "tree_edges": [[0, 1], [1, 0]]}
    with pytest.raises(ValueError, match="two tree edge rows name the same pair of bags"):
        TreeDecomposition.from_json_dict(data)


def test_json_round_trip():
    g, cert = random_ktree(12, 3, seed=4)
    td = decomposition_from_certificate(cert)
    back = TreeDecomposition.from_json(td.to_json())
    assert back.bags == td.bags
    assert back.tree_edges == td.tree_edges
    rep = validate_decomposition(g, back)
    assert rep.valid and rep.smooth
