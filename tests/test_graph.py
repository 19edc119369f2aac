"""Graph construction, k-tree certificates, recognition, and serialization."""

import copy
import gc
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    Graph,
    InvalidCertificate,
    InvalidSize,
    KTreeCertificate,
    NotAClique,
    add_simplicial,
    complete_graph,
    decomposition_from_certificate,
    embed_ktree,
    is_k_tree,
    ktree_edge_count,
    validate_embedding,
)
from bookembed.bruteforce import enumerate_graphs, is_k_tree_brute, random_connected_graph
from bookembed.constructions import build_q, complete_split, dujwoo_gadget, path_power, random_ktree
from bookembed.graph import MAX_VERTICES
from util import (
    degree3_ktree,
    is_clique,
    ktree_cases,
    random_graph,
    reference_decomposition,
    reference_graph,
    relabelled_certificate,
    without_edge,
)


# ---- basic graph behaviour ----


def test_graph_normalizes_and_dedupes_edges():
    g = Graph(4, [(2, 0), (0, 2), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.m == 2
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 1)
    assert g.degree(0) == 1
    assert g.neighbors(3) == (1,)
    assert repr(g) == "Graph(n=4, m=2)"


@pytest.mark.parametrize("v", [-1, 3])
def test_neighbors_and_degree_refuse_ids_outside_the_graph(v):
    # -1 would index vertex 2's tuple from the end
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(IndexError):
        g.neighbors(v)
    with pytest.raises(IndexError):
        g.degree(v)


def test_graph_rejects_malformed_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, [], labels={5: "K"})


@pytest.mark.parametrize("args, kwargs, text", [
    ((True,), {}, '{"n": true, "edges": []}'),
    ((3.0,), {}, '{"n": 3.0, "edges": []}'),
    ((3, [(0, True)]), {}, '{"n": 3, "edges": [[0, true]]}'),
    ((3, [(0, 1.0)]), {}, '{"n": 3, "edges": [[0, 1.0]]}'),
    ((3, [("0", 1)]), {}, '{"n": 3, "edges": [["0", 1]]}'),
    ((3,), {"labels": {1: 5}}, '{"n": 3, "edges": [], "labels": {"1": 5}}'),
    ((3,), {"labels": {1: None}}, '{"n": 3, "edges": [], "labels": {"1": null}}'),
    ((3,), {"labels": {True: "a"}}, None),  # a file's label keys are decimal text
    ((3,), {"labels": {1.0: "a"}}, None),
])
def test_graph_refuses_what_the_reader_refuses(args, kwargs, text):
    # each graph would be written to a file that the JSON reader refuses, so
    # the constructor refuses it, with the message the reader prints
    with pytest.raises((TypeError, ValueError)) as built:
        Graph(*args, **kwargs)
    if text is not None:
        with pytest.raises(type(built.value)) as read:
            Graph.from_json(text)
        assert str(read.value) == str(built.value)


def test_graph_equality_includes_labels():
    a = Graph(3, [(0, 1)], labels={0: "K"})
    b = Graph(3, [(0, 1)], labels={0: "K"})
    c = Graph(3, [(0, 1)])
    assert a == b
    assert a != c
    assert hash(a) == hash(c)  # labels stay out of the hash
    assert (c == 3) is False  # NotImplemented, and then int's own answer


@st.composite
def _edge_lists(draw):
    """(n, edges, labels): an edge list with repeats in both orientations,
    at most one self-loop or out-of-range edge, and labels, at most one of
    them on a missing vertex.  Edges come as a list, a tuple or a generator."""
    n = draw(st.integers(-1, 12))
    edges = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=40))
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=5))] if edges else []
        edges = draw(st.permutations(edges))
    bad = draw(st.sampled_from([None, None, None, "loop", "range", "type"]))
    if bad is not None:
        w = draw(st.integers(0, max(n - 1, 0)))
        e = (w, w) if bad == "loop" else draw(st.sampled_from([(w, n), (-1, w), (n + 3, w)]))
        if bad == "type":  # an end that equals an id but is no int
            e = draw(st.permutations([w, draw(st.sampled_from([True, False, 1.0, 0.0, "1"]))]))
        edges.insert(draw(st.integers(0, len(edges))), tuple(e))
    labels = {}
    if n >= 1:
        labels = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(["K", "S", "pad"]),
                                      max_size=3))
    if draw(st.sampled_from([False, False, False, True])):
        labels[draw(st.sampled_from([-1, n, n + 5, True, 0.0]))] = "stray"
    if labels and draw(st.sampled_from([False, False, False, True])):
        labels[draw(st.sampled_from(sorted(labels, key=repr)))] = draw(st.sampled_from([5, None]))
    if draw(st.sampled_from([False] * 9 + [True])):
        n = draw(st.sampled_from([True, False, float(n), str(n)]))
    form = draw(st.sampled_from([list, tuple, iter]))
    return n, form, edges, labels or draw(st.sampled_from([None, {}]))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_edge_lists())
def test_graph_parts_match_the_sorted_edge_set_construction(case):
    # the constructor fills adjacency first and reads the sorted edges off
    # it; parts and errors match building from a sorted set of edge tuples
    n, form, edges, labels = case
    try:
        want = reference_graph(n, edges, labels)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            Graph(n, form(edges), labels)
        assert str(got.value) == str(exc)
        return
    g = Graph(n, form(edges), labels)
    sorted_edges, edge_set, adj, lab = want
    assert (g.edges, g._adj, g.labels) == (sorted_edges, adj, lab)
    assert [type(x) for x in (g.edges, g._adj)] == [tuple, tuple]
    ids = range(-2, n + 2)  # negative and out-of-range ids have no edges
    assert {(u, v) for u in ids for v in ids if g.has_edge(u, v)} == (
        edge_set | {(v, u) for u, v in edge_set})
    same = Graph(n, edge_set, lab)
    assert g == same and hash(g) == hash(same)
    if edge_set:
        fewer = Graph(n, edge_set - {min(edge_set)}, lab)
        assert g != fewer and g != Graph(n + 1, edge_set, lab)


def test_a_graph_keeps_under_120_bytes_per_vertex_and_edge():
    """Each neighbourhood is one sorted tuple of ints.  Under tracemalloc a
    graph keeps about 80 B per vertex plus edge on these three, where a
    frozenset per neighbourhood kept about 171 B (Python 3.11)."""
    for g in (build_q(6).graph, random_ktree(2000, 5, 1)[0], complete_graph(300)):
        edges, labels = list(g.edges), dict(g.labels)
        gc.collect()
        tracemalloc.start()
        try:
            h = Graph(g.n, edges, labels)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h == g and kept / (g.n + g.m) < 120, (g, kept)


@pytest.mark.parametrize("n, k", [(2000, 5), (400, 40)])
def test_a_certificate_keeps_a_k_int_tuple_per_addition(n, k):
    """`is_k_tree` and `random_ktree` hand out sorted int tuples.  Under
    tracemalloc `is_k_tree`'s certificate keeps 180 and 449 B per addition
    on these two, where a frozenset per clique kept 828 and 2,353 B (Python
    3.11); the bound is a k-int tuple, 40 + 8k B, plus 200 B."""
    g, _ = random_ktree(n, k, 1)
    for make in (lambda: is_k_tree(g, k), lambda: random_ktree(n, k, 1)[1]):
        gc.collect()
        tracemalloc.start()
        try:
            cert = make()
            gc.collect()  # a full collection empties the free lists of dropped tuples
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cert.is_valid_for(g)
        assert kept / (n - k - 1) < 8 * k + 240, (make, kept)


def test_complete_graph():
    g = complete_graph(5)
    assert g.n == 5 and g.m == 10
    assert is_clique(g, range(5))
    with pytest.raises(ValueError):
        complete_graph(0)


def test_is_clique_on_subsets():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_clique(g, [0, 1, 2])
    assert is_clique(g, [2, 3])
    assert is_clique(g, [1])
    assert not is_clique(g, [0, 1, 3])


def test_without_edge():
    g = complete_graph(4)
    h = without_edge(g, 1, 2)
    assert h.m == 5 and not h.has_edge(1, 2)
    assert g.m == 6  # original untouched
    assert without_edge(h, 1, 2) == h


def test_add_simplicial_extends_and_labels():
    g = complete_graph(3)
    h, v = add_simplicial(g, [0, 2], label="new")
    assert v == 3
    assert h.n == 4 and h.m == 5
    assert h.neighbors(3) == (0, 2)
    assert h.labels[3] == "new"


def test_add_simplicial_rejects_non_cliques():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotAClique):
        add_simplicial(g, [0, 2])
    with pytest.raises(NotAClique):
        add_simplicial(g, [])
    with pytest.raises(ValueError):
        add_simplicial(g, [0, 9])


# ---- edge count identity ----


def test_ktree_edge_count_values():
    assert ktree_edge_count(3, 1) == 2
    assert ktree_edge_count(6, 2) == 9
    assert ktree_edge_count(5, 4) == 10
    assert ktree_edge_count(367, 4) == 1458
    with pytest.raises(InvalidSize):
        ktree_edge_count(3, 4)
    with pytest.raises(InvalidSize):
        ktree_edge_count(5, 0)


def test_every_certificate_replay_matches_edge_count():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, k + 12)
        g, cert = random_ktree(n, k, seed=rng.randrange(10**6))
        assert g.m == ktree_edge_count(n, k)
        assert cert.replay() == Graph(g.n, g.edges)


# ---- certificates ----


def test_certificate_replay_smallest():
    cert = KTreeCertificate(2, (0, 1, 2), ())
    assert cert.replay() == complete_graph(3)
    assert cert.vertex_count() == 3


def test_certificate_walk_is_kept_and_failures_are_not():
    g, cert = random_ktree(40, 3, seed=11)
    parents = cert._parent_bags
    assert type(parents) is tuple and len(parents) == 40 - 4
    assert cert._parent_bags is parents
    assert cert.is_valid_for(g) and cert.replay() == g
    td = decomposition_from_certificate(cert)
    assert td.tree_edges == frozenset((p, i) for i, p in enumerate(parents, 1))
    assert cert._parent_bags is parents
    twin = KTreeCertificate(cert.k, cert.base_clique, cert.additions)
    assert twin == cert and hash(twin) == hash(cert) and repr(twin) == repr(cert)
    bad = KTreeCertificate(3, cert.base_clique, cert.additions[1:])
    for _ in range(3):
        with pytest.raises(InvalidCertificate):
            bad._parent_bags
        with pytest.raises(InvalidCertificate):
            bad.replay()
        assert not bad.is_valid_for(g)


def test_certificate_rejects_malformed_steps():
    base = (0, 1, 2)
    bad = [
        KTreeCertificate(0, (0,), ()),
        KTreeCertificate(2, (0, 1), ()),
        KTreeCertificate(2, (0, 1, 1), ()),
        KTreeCertificate(2, base, ((1, frozenset({0, 2})),)),  # vertex reused
        KTreeCertificate(2, base, ((3, frozenset({0})),)),  # clique too small
        KTreeCertificate(2, base, ((3, frozenset({0, 7})),)),  # unplaced vertex
        KTreeCertificate(2, (0, 1, 3), ()),  # ids not dense
        # the same faults with tuple cliques, and one a set cannot have
        KTreeCertificate(2, base, ((3, (0, 0)),)),  # repeated member
        KTreeCertificate(2, base, ((3, (0,)),)),  # clique too small
        KTreeCertificate(2, base, ((3, (0, 7)),)),  # unplaced vertex
        # ids equal to 1 that are no int: they would be written as true or 1.0
        KTreeCertificate(1, (0, True), ((2, frozenset({True})),)),
        KTreeCertificate(1, (0, 1), ((2.0, frozenset({1})),)),
        KTreeCertificate(1, (0, 1), ((2, frozenset({1.0})),)),
        KTreeCertificate(1, (0, 1), ((2, (True,)),)),
        KTreeCertificate(1, (0, 1), ((2, (1.0,)),)),
    ]
    for cert in bad:
        with pytest.raises(InvalidCertificate):
            cert.replay()
    with pytest.raises(InvalidCertificate, match="attachment clique for 3 repeats a vertex"):
        KTreeCertificate(2, base, ((3, (0, 0)),)).replay()
    g = Graph(3, [(0, 1), (1, 2)])
    for cert in bad[-5:]:
        with pytest.raises(InvalidCertificate, match="vertex ids must be integers"):
            cert.replay()
        assert not cert.is_valid_for(g)
        with pytest.raises(InvalidCertificate):
            decomposition_from_certificate(cert)
        with pytest.raises(InvalidCertificate):
            embed_ktree(g, cert)


def _with_cliques(cert, kind):
    return KTreeCertificate(cert.k, cert.base_clique,
                            tuple((v, kind(c)) for v, c in cert.additions), cert.parents)


def test_tuple_and_frozenset_cliques_give_the_same_results():
    rng = random.Random(7)

    def shuffled(clique):
        members = list(clique)
        rng.shuffle(members)
        return tuple(members)

    g, generated = random_ktree(300, 4, seed=2)
    for cert in (generated, is_k_tree(g), build_q(4).certificate, degree3_ktree(200, 3, 5)[1]):
        h = cert.replay()
        td = decomposition_from_certificate(cert)
        emb = embed_ktree(h, cert)
        for kind in (frozenset, lambda c: tuple(sorted(c)), shuffled):
            twin = _with_cliques(cert, kind)
            assert twin.replay() == h and twin.is_valid_for(h)
            assert decomposition_from_certificate(twin) == td
            assert embed_ktree(h, twin) == emb


def test_certificate_attachment_must_be_clique_so_far():
    # vertex 3 hangs off edge (0,1); then {2,3} is not a clique
    cert = KTreeCertificate(
        2, (0, 1, 2), ((3, frozenset({0, 1})), (4, frozenset({2, 3})))
    )
    with pytest.raises(InvalidCertificate):
        cert.replay()


_STEPS = ((3, frozenset({0, 1})), (4, frozenset({1, 3})), (5, frozenset({0, 2})))


def test_certificate_keeps_its_given_tree():
    cert = KTreeCertificate(2, (0, 1, 2), _STEPS, (0, 1, 0))
    td = decomposition_from_certificate(cert)
    assert td.tree_edges == {(0, 1), (1, 2), (0, 3)}
    assert cert.replay() == KTreeCertificate(2, (0, 1, 2), _STEPS).replay()


@pytest.mark.parametrize("parents, message", [
    ((0, 1), "2 parents for 3 additions"),
    ((0, 1, 0, 0), "4 parents for 3 additions"),
    ((1, 1, 0), r"parent of 3 is 1, not a bag in 0\.\.0"),
    ((0, 2, 0), r"parent of 4 is 2, not a bag in 0\.\.1"),
    ((0, -1, 0), r"parent of 4 is -1, not a bag in 0\.\.1"),
    ((0, 1.0, 0), r"parent of 4 is 1\.0, not a bag in 0\.\.1"),
    ((0, True, 0), r"parent of 4 is True, not a bag in 0\.\.1"),
    # {1, 3} is a clique, but it does not lie in the base
    ((0, 0, 0), "attachment clique for 4 is outside bag 0"),
])
def test_certificate_rejects_bad_parents(parents, message):
    g = KTreeCertificate(2, (0, 1, 2), _STEPS).replay()
    cert = KTreeCertificate(2, (0, 1, 2), _STEPS, parents)
    with pytest.raises(InvalidCertificate, match=message):
        cert.replay()
    assert not cert.is_valid_for(g)
    with pytest.raises(InvalidCertificate):
        decomposition_from_certificate(cert)
    with pytest.raises(InvalidCertificate):
        embed_ktree(g, cert)


def _first_non_clique(cert):
    """(vertex, missing pairs) at the first attachment set that is not a
    clique of the graph built so far, found by looking up every pair; None
    if every attachment set is a clique."""
    edges = set(combinations(sorted(cert.base_clique), 2))
    for v, clique in cert.additions:
        missing = {p for p in combinations(sorted(clique), 2) if p not in edges}
        if missing:
            return v, missing
        edges.update((min(u, v), max(u, v)) for u in clique)
    return None


def test_clique_check_matches_the_pairwise_check():
    # each certificate has one attachment set redrawn from the vertices
    # placed before it, so a non-clique is its only possible fault
    rng = random.Random(43)
    faults = 0
    for _ in range(300):
        k = rng.randint(1, 5)
        _, cert = random_ktree(rng.randint(k + 2, k + 15), k, seed=rng.randrange(10**6))
        adds = list(cert.additions)
        i = rng.randrange(len(adds))
        older = list(cert.base_clique) + [v for v, _ in adds[:i]]
        adds[i] = (adds[i][0], frozenset(rng.sample(older, k)))
        cert = KTreeCertificate(k, cert.base_clique, tuple(adds))
        expected = _first_non_clique(cert)
        if expected is None:
            cert.replay()
            continue
        faults += 1
        with pytest.raises(InvalidCertificate) as err:
            cert.replay()
        v, a, b = map(int, re.search(
            r"for (\d+) is not a clique: missing \((\d+), (\d+)\)", str(err.value)).groups())
        assert v == expected[0] and (a, b) in expected[1]
    assert faults > 100


def test_is_valid_for_checks_exact_edges():
    g, cert = random_ktree(9, 2, seed=3)
    assert cert.is_valid_for(g)
    assert not cert.is_valid_for(without_edge(g, *g.edges[0]))
    assert not cert.is_valid_for(complete_graph(9))
    # one edge moved to a non-edge keeps the edge count, so only the
    # containment of the base pairs or of an addition's edges can tell
    spare = next((u, v) for u in range(9) for v in range(u + 1, 9) if not g.has_edge(u, v))
    base_pair = tuple(sorted(cert.base_clique[:2]))
    v, clique = cert.additions[-1]
    for gone in (base_pair, tuple(sorted((min(clique), v)))):
        moved = Graph(9, [e for e in g.edges if e != gone] + [spare])
        assert moved.m == g.m and not cert.is_valid_for(moved)


def _replays_to(cert, g):
    try:
        return cert.replay() == g
    except InvalidCertificate:
        return False


def test_is_valid_for_agrees_with_replay_on_mutated_certificates():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.randint(1, 4)
        g, cert = random_ktree(rng.randint(k + 2, k + 12), k, seed=rng.randrange(10**6))
        adds = list(cert.additions)
        i, j = rng.randrange(len(adds)), rng.randrange(len(adds))
        swapped = list(adds)
        swapped[i], swapped[j] = (adds[i][0], adds[j][1]), (adds[j][0], adds[i][1])
        foreign, _ = random_ktree(g.n, k, seed=rng.randrange(10**6))
        cases = [
            (cert, g),
            (KTreeCertificate(k, cert.base_clique, tuple(adds[:i] + adds[i + 1:])), g),
            (KTreeCertificate(k, cert.base_clique, tuple(swapped)), g),
            (cert, foreign),
            (cert, without_edge(g, *g.edges[-1])),
            (cert, Graph(g.n + 1, g.edges)),  # one isolated vertex more
        ]
        for c, h in cases:
            assert c.is_valid_for(h) == _replays_to(c, h)
        assert cert.is_valid_for(g)
        assert not cert.is_valid_for(without_edge(g, *g.edges[-1]))


@st.composite
def _mutated_certificates(draw):
    """(graph, certificate): a `ktree_cases` case whose certificate has at
    most one mutation: one addition's clique redrawn, two additions' cliques
    swapped, one addition dropped, or one vertex renamed outside 0..n-1."""
    g, cert, k = draw(ktree_cases())
    adds = list(cert.additions)
    kind = draw(st.sampled_from(["none", "redraw", "swap", "drop", "rename"]))
    if kind == "rename":
        v = draw(st.integers(0, g.n - 1))
        return g, relabelled_certificate(cert, [g.n if u == v else u for u in range(g.n)])
    if kind == "none" or not adds:
        return g, cert
    i = draw(st.integers(0, len(adds) - 1))
    v = adds[i][0]
    if kind == "redraw":
        others = draw(st.permutations([u for u in range(g.n) if u != v]))
        adds[i] = (v, frozenset(others[:k]))
    elif kind == "swap":
        j = draw(st.integers(0, len(adds) - 1))
        adds[i], adds[j] = (v, adds[j][1]), (adds[j][0], adds[i][1])
    else:
        del adds[i]
    return g, KTreeCertificate(k, cert.base_clique, tuple(adds))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_mutated_certificates())
def test_every_certificate_user_makes_the_same_checks(case):
    # replay, is_valid_for, decomposition_from_certificate and embed_ktree
    # share one walk, so they accept and reject the same certificates
    g, cert = case
    try:
        h = cert.replay()
    except InvalidCertificate:
        assert not cert.is_valid_for(g)
        with pytest.raises(InvalidCertificate):
            decomposition_from_certificate(cert)
        with pytest.raises(InvalidCertificate):
            embed_ktree(g, cert)
        return
    td = decomposition_from_certificate(cert)
    assert (td.bags, td.tree_edges) == reference_decomposition(cert)
    assert cert.is_valid_for(h)
    assert validate_embedding(h, embed_ktree(h, cert)).ok
    assert cert.is_valid_for(g) == (h == g)
    if h != g:
        with pytest.raises(InvalidCertificate):
            embed_ktree(g, cert)


# ---- recognition ----


def test_recognizer_on_fixed_examples():
    assert is_k_tree(complete_graph(4), 3) is not None
    assert is_k_tree(complete_graph(4), 2) is None
    # stars are 1-trees, paths are 1-trees, cycles are not
    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert is_k_tree(star, 1) is not None
    cyc = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_k_tree(cyc, 1) is None
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert is_k_tree(k23, 2) is None
    assert is_k_tree_brute(k23, 2) is False
    # right edge count alone is not enough: K4 plus a pendant vertex
    pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert pendant.m == ktree_edge_count(5, 2)
    assert is_k_tree(pendant, 2) is None
    assert is_k_tree_brute(pendant, 2) is False
    # every vertex keeps degree 2 while it is eliminated, so degree alone
    # gets through, but the attachment of 4, {2, 3}, is not a clique
    c4_pair = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert is_k_tree(c4_pair, 2) is None
    assert is_k_tree_brute(c4_pair, 2) is False
    # without k, the edge count names the one width that can fit
    assert is_k_tree(Graph(0)) is None and is_k_tree(Graph(1)) is None
    assert is_k_tree(Graph(2, [(0, 1)])).k == 1 and is_k_tree(path_power(6, 4)).k == 4
    assert is_k_tree(without_edge(complete_graph(5), 0, 1)).k == 3
    assert is_k_tree(cyc) is None and is_k_tree(pendant) is None
    with pytest.raises(ValueError, match="k must be positive"):
        is_k_tree(star, 0)


def _recognizer_cases(family):
    """(graph, k) pairs of one family, some of them not k-trees."""
    if family == "path_power":
        return [(path_power(n, k), k) for k in range(1, 6) for n in range(k + 1, k + 9)]
    if family == "complete_split":  # m = 0 is K_k, too small to be a k-tree
        return [(complete_split(k, m), k) for k in range(1, 6) for m in range(7)]
    if family == "dujwoo_gadget":
        return [(dujwoo_gadget(k, m), k) for k in range(2, 6) for m in range(1, 6)]
    if family == "build_q":
        return [(build_q(4).graph, 4)]
    rng = random.Random(5)
    cases = []
    for seed in range(40):
        k = seed % 6 + 1
        n = rng.randint(k + 1, k + 30)
        g, _ = random_ktree(n, k, seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append((Graph(n, [(perm[u], perm[v]) for u, v in g.edges]), k))
    return cases


@pytest.mark.parametrize("family, digest", [
    ("path_power", "6d18cd7aa1fce3bcd8ffc9a8120b2e5c938ddedab54b828d3f8e85fcc6da152e"),
    ("complete_split", "a90695d63bb47105d617fd83572771425c0ebe8295e7f2658ee0716a435baac8"),
    ("dujwoo_gadget", "3fe54270aa8f9c7ac5ff303f3ce8c146608e2494ea97cefaed0a5e28433e6330"),
    ("build_q", "fb2be45ca8dc3861b6069d24ad9729451008a65babadcba9a2f2d27f8bff25ed"),
    ("random_ktree", "1a5e8b21573f90e17035ceba1d9206bed84990b21982f46299faa7eb210fd3fc"),
])
def test_recognizer_certificates_are_pinned(family, digest):
    # the exact certificate, base clique and addition order included
    certs = []
    for g, k in _recognizer_cases(family):
        cert = is_k_tree(g, k)
        certs.append(None if cert is None else [
            cert.k, cert.base_clique, [[v, sorted(c)] for v, c in cert.additions]])
    blob = json.dumps(certs).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_recognizer_certificate_replays_to_input():
    g = path_power(9, 3)
    cert = is_k_tree(g, 3)
    assert cert is not None
    assert cert.k == 3
    assert cert.is_valid_for(g)


def test_recognizer_matches_definition_exhaustively():
    # every graph on up to 6 vertices, connected or not, for k = 1, 2, 3
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            for k in (1, 2, 3):
                cert = is_k_tree(g, k)
                assert (cert is not None) == is_k_tree_brute(g, k), (n, g.edges, k)
                if cert is not None:
                    assert cert.is_valid_for(g)


def test_recognizer_matches_definition_on_random_graphs():
    rng = random.Random(11)
    for n in (7, 8):
        for _ in range(25):
            g = random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.7]))
            for k in (1, 2, 3, 4):
                assert (is_k_tree(g, k) is not None) == is_k_tree_brute(g, k)


def test_recognizer_accepts_random_ktrees():
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(1, 5)
        n = rng.randint(k + 1, k + 20)
        g, _ = random_ktree(n, k, seed=rng.randrange(10**6))
        cert = is_k_tree(g, k)
        assert cert is not None and cert.is_valid_for(g)


def test_recognizer_rejects_one_edge_off():
    rng = random.Random(31)
    for _ in range(20):
        g, _ = random_ktree(rng.randint(6, 14), 2, seed=rng.randrange(10**6))
        u, v = g.edges[rng.randrange(g.m)]
        assert is_k_tree(without_edge(g, u, v), 2) is None


@st.composite
def _ktrees_and_neighbours(draw):
    """(graph, k, kept): a relabelled random k-tree, k = 1..6, as is (kept)
    or with one edge removed or added."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, 40))
    g, _ = random_ktree(n, k, seed=draw(st.integers(0, 2**32)))
    perm = draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    change = draw(st.sampled_from(["none", "remove", "add"]))
    if change == "remove":
        g = without_edge(g, *draw(st.sampled_from(g.edges)))
    elif change == "add" and g.m < n * (n - 1) // 2:
        missing = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
        g = Graph(n, g.edges + (draw(st.sampled_from(missing)),))
    else:
        change = "none"
    return g, k, change == "none"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_ktrees_and_neighbours())
def test_recognizer_works_out_k(case):
    # one edge off can still be a k-tree of another width: K_{k+1} less an
    # edge is a (k-1)-tree, and a k-tree on k+2 vertices plus one is K_{k+2}
    g, k, kept = case
    fits = [cert for j in range(1, g.n) if (cert := is_k_tree(g, j)) is not None]
    assert len(fits) <= 1
    assert is_k_tree(g) == (fits[0] if fits else None)
    if kept:
        assert is_k_tree(g) == is_k_tree(g, k) is not None


# ---- serialization ----


def test_text_round_trip_with_labels():
    g = Graph(5, [(0, 1), (1, 4), (2, 3)], labels={0: "K", 4: "S"})
    h = Graph.from_text(g.to_text())
    assert h == g
    assert g.to_text().splitlines()[0] == "5 3"


def test_text_parse_errors():
    with pytest.raises(ValueError):
        Graph.from_text("")
    with pytest.raises(ValueError):
        Graph.from_text("3\n0 1\n")
    with pytest.raises(ValueError):
        Graph.from_text("3 2\n0 1\n")  # header promises two edges


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 9), rng)
        assert Graph.from_json(g.to_json()) == g
    labeled = Graph(3, [(0, 2)], labels={2: "pad"})
    assert Graph.from_json(labeled.to_json()) == labeled


def test_parsers_refuse_graphs_above_the_vertex_limit(monkeypatch):
    def built(*args, **kwargs):  # the count must be refused before a graph is built
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__init__", built)
    for n in (MAX_VERTICES + 1, 10**11, 10**20):
        with pytest.raises(ValueError, match=f"vertex count {n} is above the limit of 1000000"):
            Graph.from_json_dict({"n": n, "edges": [[0, 1]]})
        with pytest.raises(ValueError, match=f"vertex count {n} is above the limit of 1000000"):
            Graph.from_text(f"{n} 1\n0 1\n")


@pytest.mark.parametrize("key", [" 01", "01", "1 ", "+1", "1_0", "\uff11", "0x1", "-1", "a"])
def test_json_label_keys_must_be_decimal_ids(key):
    # each of these would land on a vertex that "1" or "10" names as well;
    # a text file's label keys, header and edge tokens follow the same rule
    with pytest.raises(ValueError, match=re.escape(f"label key {key!r} is not a vertex id")):
        Graph.from_json_dict({"n": 11, "edges": [], "labels": {"1": "a", key: "b"}})
    g = Graph.from_json_dict({"n": 11, "edges": [], "labels": {"1": "a", "10": "b", "0": "c"}})
    assert g.labels == {1: "a", 10: "b", 0: "c"}
    assert Graph.from_text("11 1\n1 10\n# label 1 a\n# label 10 b\n# label 0 c\n") == Graph(
        11, [(1, 10)], g.labels)
    if key.split() != [key]:  # not one text token
        return
    for text, what in [(f"11 0\n# label 1 a\n# label {key} b\n", "label key"),
                       (f"11 1\n0 {key}\n", "edge endpoint"),
                       (f"11 1\n{key} 0\n", "edge endpoint"),
                       (f"{key} 0\n", "header token"),
                       (f"11 {key}\n", "header token")]:
        with pytest.raises(ValueError, match=re.escape(f"{what} {key!r} is not a")):
            Graph.from_text(text)


@pytest.mark.parametrize("role", [5, None, [1], {"a": 1}, True])
def test_label_roles_must_be_strings(role):
    with pytest.raises(TypeError, match="is not a string"):
        Graph.from_json_dict({"n": 3, "edges": [], "labels": {"1": role}})
    with pytest.raises(TypeError, match="is not a string"):
        Graph(3, labels={1: role})


def test_labels_are_read_only_and_survive_pickle_and_deepcopy():
    # a write past the constructor could give a role that no reader accepts
    source = {1: "a"}
    g = Graph(3, [(0, 1)], source)
    with pytest.raises(TypeError):
        g.labels[2] = 5
    source[2] = 5  # the graph keeps a copy of its own
    assert dict(g.labels) == {1: "a"} and Graph.from_json(g.to_json()) == g
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert h == g and h.edges == g.edges and dict(h.labels) == {1: "a"}
        assert h.neighbors(0) == (1,)
        with pytest.raises(TypeError):
            h.labels[1] = "b"


@pytest.mark.parametrize("role", ["a b", " x", "x ", "", "a\nb", "a\x1cb", "a\u2028b"])
def test_text_refuses_labels_it_cannot_carry_back(role):
    g = Graph(3, [(0, 1)], labels={1: role})
    with pytest.raises(ValueError, match="cannot be written as text"):
        g.to_text()
    assert Graph.from_json(g.to_json()) == g


@st.composite
def _labelled_graphs(draw):
    """(n, edges, labels) with roles that are strings or ints."""
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    roles = st.text(max_size=4) | st.sampled_from(["K", "S", "#", "1", "é"]) | st.integers()
    labels = draw(st.dictionaries(st.integers(0, n - 1), roles, max_size=n)) if n else {}
    return n, edges, labels


def _round_trips(g):
    """g comes back equal through JSON, and through text when each role is
    one token; otherwise the text writer raises."""
    assert Graph.from_json(g.to_json()) == g
    if all(r.split() == [r] for r in g.labels.values()):
        assert Graph.from_text(g.to_text()) == g
    else:
        with pytest.raises(ValueError, match="cannot be written as text"):
            g.to_text()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_labelled_graphs())
def test_labels_round_trip_through_text_and_json_or_raise(case):
    """A role that is no string is refused when the graph is built; any
    other graph comes back from its writers, never as another graph."""
    n, edges, labels = case
    if not all(type(r) is str for r in labels.values()):
        with pytest.raises(TypeError, match="is not a string"):
            Graph(n, edges, labels)
        return
    _round_trips(Graph(n, edges, labels))


_LOOSE = st.sampled_from([0, 1, 2, 5, -1, True, False, 1.0, "1", None])


@st.composite
def _loose_graphs(draw):
    """Constructor arguments in which each value is, one time in ten or so,
    drawn from bools, floats, strings, None and ids out of range instead."""
    def mostly(good):
        return draw(st.integers(0, 9).flatmap(lambda i: good if i else _LOOSE))

    n = mostly(st.integers(1, 6))
    top = n - 1 if type(n) is int and n > 0 else 0
    pairs = list(combinations(range(top + 1), 2))
    edges = [tuple(mostly(st.just(x)) for x in e)
             for e in (draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else [])]
    roles = st.sampled_from(["K", "S", "a b", "", "é"])
    labels = {mostly(st.integers(0, top)): mostly(roles) for _ in range(draw(st.integers(0, 3)))}
    return n, edges, labels


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_loose_graphs())
def test_every_graph_the_constructor_accepts_round_trips(case):
    n, edges, labels = case
    try:
        g = Graph(n, edges, labels)
    except (TypeError, ValueError):
        return
    assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)
    _round_trips(g)
