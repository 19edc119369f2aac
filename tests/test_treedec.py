"""Tree decomposition validation and certificate-driven construction."""

import random

import pytest
from hypothesis import given, settings

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
from util import ktree_cases, reference_decomposition


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

    rep = validate_decomposition(g.without_edge(0, 2), _td([{0, 1}], []))
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
        assert td.declared_width == k
        rep = validate_decomposition(g, td)
        assert rep.valid and rep.smooth
        assert rep.width == k


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


# ---- serialization ----


def test_json_round_trip():
    g, cert = random_ktree(12, 3, seed=4)
    td = decomposition_from_certificate(cert)
    back = TreeDecomposition.from_json(td.to_json())
    assert back.bags == td.bags
    assert back.tree_edges == td.tree_edges
    rep = validate_decomposition(g, back)
    assert rep.valid and rep.smooth
