"""Heuristic embedders: always valid, never promised optimal."""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    BookEmbedError,
    Graph,
    InvalidCertificate,
    InvalidOrder,
    book_thickness_exact,
    build_q,
    complete_graph,
    decomposition_from_certificate,
    embed_ktree,
    first_fit_pages,
    is_k_tree,
    path_power,
    random_ktree,
    validate_decomposition,
    validate_embedding,
)
from util import (
    cycle,
    degree3_ktree,
    ktree_cases,
    random_graph,
    reference_first_fit,
    reference_spine,
    relabelled_certificate,
)


# ---- first fit under a fixed order ----


def test_first_fit_simple_orders():
    g = cycle(6)
    emb = first_fit_pages(g, range(6))
    assert emb.page_count == 1
    assert validate_embedding(g, emb).ok

    emb = first_fit_pages(complete_graph(4), range(4))
    assert emb.page_count == 2
    assert validate_embedding(complete_graph(4), emb).ok


def test_first_fit_always_valid():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_graph(n, rng, p=rng.choice([0.2, 0.5, 0.9]))
        order = list(range(n))
        rng.shuffle(order)
        emb = first_fit_pages(g, order)
        res = validate_embedding(g, emb)
        assert res.ok
        assert emb.pages_used() == emb.page_count


def test_first_fit_never_beats_the_exact_solver():
    rng = random.Random(73)
    for _ in range(12):
        n = rng.randint(3, 6)
        g = random_graph(n, rng)
        exact = book_thickness_exact(g).book_thickness
        order = list(range(n))
        rng.shuffle(order)
        assert first_fit_pages(g, order).page_count >= exact


def test_first_fit_past_its_deadline_opens_a_page_per_arc():
    """The clock is read after every 1024 arcs.  Under a deadline already
    passed, the first 1024 arcs take the pages they take without one, and
    each later arc opens a page of its own."""
    g, _ = random_ktree(600, 3, 2)
    order = list(range(g.n))
    random.Random(5).shuffle(order)
    full = first_fit_pages(g, order)
    assert first_fit_pages(g, order, deadline=None) == full
    cut = first_fit_pages(g, order, deadline=float("-inf"))
    assert validate_embedding(g, cut).ok and cut.order == full.order
    late = g.m - 1024
    first = cut.page_count - late  # the pages of the first 1024 arcs
    kept = {e: p for e, p in cut.pages.items() if p <= first}
    assert len(kept) == 1024 and all(full.pages[e] == p for e, p in kept.items())
    assert sorted(p for p in cut.pages.values() if p > first) == list(
        range(first + 1, cut.page_count + 1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32), st.randoms())
def test_first_fit_matches_the_page_scan(n, p, seed, rng):
    g = random_graph(n, random.Random(seed), p)
    order = list(range(n))
    rng.shuffle(order)
    assert first_fit_pages(g, order) == reference_first_fit(g, order)


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_first_fit_matches_the_page_scan_past_a_hundred_pages(seed, relabel):
    # the page tree starts at 16 slots, so it doubles at least three times
    g, _ = random_ktree(160, 60, seed)
    perm = list(range(g.n))
    random.Random(relabel).shuffle(perm)
    g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    emb = first_fit_pages(g, range(g.n))
    assert emb.page_count >= 100
    assert emb == reference_first_fit(g, range(g.n))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.integers(200, 300), st.integers(6, 10), st.integers(0, 2**32), st.randoms())
def test_first_fit_matches_the_page_scan_past_its_deadline(n, k, seed, rng):
    g, _ = random_ktree(n, k, seed)
    assert g.m > 1024
    order = list(range(n))
    rng.shuffle(order)
    cut = first_fit_pages(g, order, deadline=float("-inf"))
    assert cut == reference_first_fit(g, order, deadline=float("-inf"))


def test_first_fit_rejects_orders_that_are_not_permutations():
    k5 = complete_graph(5)
    for bad in ([0, 1, 2, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 9]):
        with pytest.raises(InvalidOrder):
            first_fit_pages(k5, bad)
    assert issubclass(InvalidOrder, BookEmbedError)


# ---- certificate-guided k-tree embedding ----


def test_embed_ktree_small_families():
    g = path_power(9, 3)
    emb = embed_ktree(g, is_k_tree(g, 3))
    assert validate_embedding(g, emb).ok

    k5 = complete_graph(5)
    emb = embed_ktree(k5, is_k_tree(k5, 4))
    assert validate_embedding(k5, emb).ok
    assert emb.page_count >= 3


def test_embed_ktree_counts_only_pages_in_use_on_a_base_clique():
    # the youngest base vertex's colour is never an older endpoint
    for k in range(1, 8):
        g = complete_graph(k + 1)
        emb = embed_ktree(g, is_k_tree(g, k))
        assert validate_embedding(g, emb).ok
        assert emb.pages_used() == emb.page_count == k


def test_embed_ktree_random_ktrees_stay_valid():
    rng = random.Random(79)
    for _ in range(25):
        k = rng.randint(1, 4)
        n = rng.randint(k + 2, k + 30)
        g, cert = random_ktree(n, k, seed=rng.randrange(10**6))
        emb = embed_ktree(g, cert)
        res = validate_embedding(g, emb)
        assert res.ok, (n, k)


def test_embed_ktree_handles_wide_two_trees():
    for seed in (1, 2, 3):
        g, cert = random_ktree(50, 2, seed=seed)
        emb = embed_ktree(g, cert)
        assert validate_embedding(g, emb).ok


def test_embed_ktree_is_deterministic():
    g, cert = random_ktree(25, 3, seed=9)
    assert embed_ktree(g, cert) == embed_ktree(g, cert)


def _embedding_digest(emb):
    blob = json.dumps([list(emb.order), sorted(emb.pages.items())]).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("source, digest", [
    ((4,), "1489a13a60f8621bd666ba617e68d6d6513af12aa8c7f71eec71c94c40d6e6a5"),
    ((5,), "def3698c9b49a792836d0cd16e7ade3c3c0b0245ce656c5099e8251a751fdfb9"),
    ((6,), "d6d9fc3385d44891e280853ffaf4899f9ebb387cdc71a560b21f3c9da8f136f8"),
    ((1000, 3, 1), "13203e09b6b56894c5c1e91f420af62feb942857accb7607eb24a815a530cb18"),
    ((2000, 5, 7), "2c2db701a83402703e2034ba924d0e2b6fc655b4bb5b01a88c7d14699516fe79"),
])
def test_embed_ktree_output_is_pinned(source, digest):
    # spine order and every edge's page, byte for byte, on Q(k) under its
    # own certificate and on seeded random k-trees
    if len(source) == 1:
        art = build_q(*source)
        g, cert = art.graph, art.certificate
    else:
        n, k, seed = source
        g, cert = random_ktree(n, k, seed=seed)
    assert _embedding_digest(embed_ktree(g, cert)) == digest


def test_first_fit_output_is_pinned_under_a_shuffled_order():
    # the many-short-pages regime: about 50 pages on 300 vertices
    g, _ = random_ktree(300, 3, seed=0)
    order = list(range(300))
    random.Random(5).shuffle(order)
    emb = first_fit_pages(g, order)
    assert emb.page_count == 50
    assert (_embedding_digest(emb)
            == "8135200280c95425d71658297d3cdc68cd1590a773d7ab440384a908a55ace08")


def test_embed_ktree_rejects_foreign_certificates():
    g, _ = random_ktree(10, 2, seed=1)
    _, cert = random_ktree(10, 2, seed=2)
    with pytest.raises(InvalidCertificate):
        embed_ktree(g, cert)


def test_embed_ktree_on_the_q_construction():
    # bt(Q(k)) = k+1 (the paper) and every k-tree fits on k+1 pages
    # (Ganley-Heath): the colour rule meets both bounds, on the host tree
    # of degree 4 and on the default tree alike
    for k in (4, 5, 6):
        art = build_q(k)
        default = dataclasses.replace(art.certificate, parents=None)
        for cert in (art.certificate, default, is_k_tree(art.graph, k)):
            emb = embed_ktree(art.graph, cert)
            res = validate_embedding(art.graph, emb)
            assert res.ok
            assert res.pages_used == emb.page_count == k + 1


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ktree_cases())
def test_embed_ktree_uses_at_most_k_plus_one_pages_on_the_reference_spine(case):
    g, cert, k = case
    emb = embed_ktree(g, cert)
    assert validate_embedding(g, emb).ok
    # the base clique's edges alone fill k colour pages
    assert k <= emb.pages_used() == emb.page_count <= k + 1
    assert list(emb.order) == reference_spine(cert)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(0, 59), st.integers(0, 2**32), st.randoms())
def test_embed_ktree_walks_a_given_degree_three_tree(k, extra, seed, rng):
    # the certificate's own host tree, not the default one, is walked, and
    # the colour rule stays valid on k+1 pages under it
    n = min(60, k + 1 + extra)
    g, cert = degree3_ktree(n, k, seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cert = relabelled_certificate(cert, perm)
    g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert cert.replay() == g and cert.is_valid_for(g)
    rep = validate_decomposition(g, decomposition_from_certificate(cert))
    assert rep.valid and rep.smooth and rep.width == k and rep.max_degree <= 3
    emb = embed_ktree(g, cert)
    res = validate_embedding(g, emb)
    assert res.ok and res.pages_used <= k + 1
    assert list(emb.order) == reference_spine(cert)
