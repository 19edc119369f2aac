"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Each test prints "[acceptance] criterion N (...): PASS" once its checks all
hold, so a -s or failed run shows exactly which guarantee broke.  Budgets
are wall-clock and generous; the numeric expectations are frozen values,
cross-checked against the independent brute-force oracle when they were
recorded.
"""

import dataclasses
import json
import random
import time

from bookembed import (
    BookEmbedding,
    Graph,
    SolverStatus,
    TreeDecomposition,
    book_thickness_exact,
    build_q,
    complete_bipartite,
    complete_graph,
    complete_split,
    crosses,
    crossing_clique_lower_bound,
    decomposition_from_certificate,
    density_lower_bound,
    dujwoo_gadget,
    embed_ktree,
    first_fit_pages,
    is_k_tree,
    path_power,
    random_ktree,
    validate_decomposition,
    validate_embedding,
)
from bookembed.bruteforce import book_thickness_brute, enumerate_graphs, random_connected_graph
from bookembed.cli import main
from util import cycle, path, random_tree, without_edge


def _passed(n, label, detail=""):
    print(f"[acceptance] criterion {n} ({label}): PASS" + (f" [{detail}]" if detail else ""))


# ---- 1. construction fidelity ----


def test_criterion_1_construction_fidelity(capsys):
    sizes = {4: (367, 1458), 5: (566, 2815)}
    for k, (want_n, want_m) in sizes.items():
        start = time.monotonic()
        code = main(["gen", "--family", "q", "--k", str(k), "--with-treedec"])
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        g = Graph.from_json_dict(payload["graph"])
        td = TreeDecomposition.from_json_dict(payload["decomposition"])
        cert = is_k_tree(g, k)
        rep = validate_decomposition(g, td)
        elapsed = time.monotonic() - start
        assert code == 0
        assert g.n == want_n and g.m == want_m
        assert cert is not None and cert.is_valid_for(g)
        assert rep.valid and rep.smooth
        assert rep.width == k
        assert rep.max_degree == 4
        assert elapsed < 1.0, f"k={k} took {elapsed:.2f}s"
    _passed(1, "construction fidelity", "k=4: 367/1458, k=5: 566/2815, both < 1s")


# ---- 2. known exact values ----


def test_criterion_2_known_exact_values():
    rng = random.Random(0)
    cases = [("path", path(n), 1) for n in range(2, 9)]
    cases += [("tree", random_tree(n, rng), 1) for n in (5, 6, 7, 8)]
    cases += [("cycle", cycle(n), 1) for n in range(3, 9)]
    cases += [
        ("K4", complete_graph(4), 2),
        ("K23", complete_bipartite(2, 3), 2),
        ("K5", complete_graph(5), 3),
        ("K6", complete_graph(6), 3),
        ("K7", complete_graph(7), 4),
        ("P8^3", path_power(8, 3), 2),
        ("P9^3", path_power(9, 3), 2),
    ]
    slowest = 0.0
    for name, g, want in cases:
        start = time.monotonic()
        rep = book_thickness_exact(g)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert rep.status is SolverStatus.EXACT, name
        assert rep.book_thickness == want, (name, rep.book_thickness)
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
    _passed(2, "known exact values", f"{len(cases)} graphs, slowest {slowest:.2f}s")


# ---- 3. oracle equivalence ----


def test_criterion_3_oracle_equivalence():
    mismatches = []
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            checked += 1
            if book_thickness_exact(g).book_thickness != book_thickness_brute(g):
                mismatches.append((n, g.edges))
    assert checked == 143  # connected graphs up to isomorphism, 1..6 vertices

    rng = random.Random(0)
    for _ in range(500):
        g = random_connected_graph(7, rng)
        checked += 1
        if book_thickness_exact(g).book_thickness != book_thickness_brute(g):
            mismatches.append((7, g.edges))
    assert mismatches == [], mismatches[:5]
    _passed(3, "oracle equivalence", f"{checked} graphs, zero mismatches")


# ---- 4. pairwise-crossing fan ----


def test_criterion_4_fan_gadget():
    k = 4
    g = complete_split(k, 2 * k + 1)
    # hub anticlockwise from position 0, independent set clockwise in between;
    # the fan pairs hub vertex i with independent vertex k-1-i
    order = [0] + list(range(k, k + 2 * k + 1)) + list(range(k - 1, 0, -1))
    fan = [(i, k + (k - i - 1)) for i in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            assert crosses(order, fan[a], fan[b]), (fan[a], fan[b])
    assert crossing_clique_lower_bound(g, order) >= k

    # every conflict-free page assignment of the fan uses k distinct pages
    valid = 0
    for code in range(k ** k):
        pages = [(code // k**i) % k for i in range(k)]
        ok = all(
            pages[a] != pages[b]
            for a in range(k)
            for b in range(a + 1, k)
        )
        if ok:
            valid += 1
            assert len(set(pages)) == k
    assert valid == 24  # the 4! injective assignments and nothing else
    _passed(4, "pairwise-crossing fan", "6 crossing pairs, clique bound 4, 24/256 assignments")


# ---- 5. bounds consistency ----


def test_criterion_5_bounds_consistency():
    rng = random.Random(5)
    small = [
        complete_graph(4), complete_graph(5), complete_graph(6), complete_graph(7),
        complete_bipartite(2, 3), cycle(6), path(7), path_power(8, 3), path_power(9, 3),
        dujwoo_gadget(2, 2),
    ]
    for g in small:
        lb = density_lower_bound(g)
        rep = book_thickness_exact(g)
        assert lb <= rep.book_thickness, g
        emb = first_fit_pages(g, tuple(range(g.n)))
        assert validate_embedding(g, emb).ok
        assert lb <= emb.pages_used()

    big = [complete_split(4, 9), dujwoo_gadget(4, 3), random_ktree(40, 3, seed=1)[0]]
    for g in big:
        emb = first_fit_pages(g, tuple(range(g.n)))
        assert validate_embedding(g, emb).ok
        assert density_lower_bound(g) <= emb.pages_used()

    q = build_q(4).graph
    assert density_lower_bound(q) == 3
    _passed(5, "bounds consistency", "density bound <= every computed count; Q(4) bound = 3")


# ---- 6. embedding the headline construction ----


def test_criterion_6_q_embedding_upper_bound():
    # on the certificate's host tree (degree 4) and on the default tree
    used = []
    for k in (4, 5, 6):
        art = build_q(k)
        assert validate_decomposition(art.graph, art.decomposition).max_degree == 4
        for cert in (art.certificate, dataclasses.replace(art.certificate, parents=None)):
            emb = embed_ktree(art.graph, cert)
            res = validate_embedding(art.graph, emb)
            assert res.ok
            assert res.pages_used == k + 1  # bt(Q(k)) = k+1, met exactly
        used.append(res.pages_used)
    _passed(6, "Q(4..6) k-tree embedding", f"valid on both trees, {used} pages achieved")


# ---- 7. mutation and property suites ----


def test_criterion_7_mutations_and_properties():
    # (a) deleting any single vertex from any bag breaks validity or smoothness
    fixtures = []
    g, cert = random_ktree(12, 3, seed=7)
    fixtures.append((g, decomposition_from_certificate(cert)))
    sp = complete_split(4, 3)
    fixtures.append((sp, decomposition_from_certificate(is_k_tree(sp, 4))))
    k5 = complete_graph(5)
    fixtures.append((k5, decomposition_from_certificate(is_k_tree(k5, 4))))
    mutations = 0
    for g, td in fixtures:
        assert validate_decomposition(g, td).smooth
        for idx, bag in enumerate(td.bags):
            for v in sorted(bag):
                bags = list(td.bags)
                bags[idx] = bag - {v}
                rep = validate_decomposition(g, TreeDecomposition(tuple(bags), td.tree_edges))
                assert not (rep.valid and rep.smooth), (idx, v)
                mutations += 1

    art = build_q(4)
    rng = random.Random(17)
    for _ in range(25):
        idx = rng.randrange(len(art.decomposition.bags))
        bag = art.decomposition.bags[idx]
        v = rng.choice(sorted(bag))
        bags = list(art.decomposition.bags)
        bags[idx] = bag - {v}
        rep = validate_decomposition(
            art.graph, TreeDecomposition(tuple(bags), art.decomposition.tree_edges)
        )
        assert not (rep.valid and rep.smooth)
        mutations += 1

    # (b) deleting an edge never increases exact book thickness
    rng = random.Random(0)
    for _ in range(30):
        g = random_connected_graph(rng.randint(4, 7), rng)
        base = book_thickness_exact(g)
        u, v = g.edges[rng.randrange(g.m)]
        after = book_thickness_exact(without_edge(g, u, v))
        assert after.book_thickness <= base.book_thickness

    # (c) every witness the solver hands back re-validates at its page count
    rng = random.Random(1)
    graphs = [complete_graph(7), complete_bipartite(2, 3), path_power(9, 3)]
    graphs += [random_connected_graph(rng.randint(4, 7), rng) for _ in range(30)]
    for g in graphs:
        rep = book_thickness_exact(g)
        res = validate_embedding(g, rep.witness)
        assert res.ok
        if g.m:
            assert res.pages_used == rep.book_thickness
    _passed(7, "mutation and property suites",
            f"{mutations} bag mutations, 30 deletions, {len(graphs)} witnesses")
