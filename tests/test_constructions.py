"""Graph families: split graphs, path powers, gadgets, and the Q family."""

import dataclasses
import hashlib
import json

import pytest

from bookembed import (
    InvalidSize,
    SizeTooSmall,
    build_q,
    complete_bipartite,
    complete_split,
    decomposition_from_certificate,
    dujwoo_gadget,
    is_k_tree,
    ktree_edge_count,
    path_power,
    random_ktree,
    validate_decomposition,
)
from util import is_clique, without_edge


# ---- small families ----


def test_complete_split_counts_and_labels():
    g = complete_split(4, 33)
    assert g.n == 37
    assert g.m == 138  # C(4,2) + 4 * 33
    assert all(g.labels[v] == "K" for v in range(4))
    assert all(g.labels[v] == "S" for v in range(4, 37))
    assert is_clique(g, range(4))
    # independent set really is independent
    assert not any(g.has_edge(a, b) for a in range(4, 37) for b in range(a + 1, 37))
    with pytest.raises(InvalidSize):
        complete_split(0, 3)


def test_complete_split_is_a_ktree():
    g = complete_split(4, 3)
    assert g.m == ktree_edge_count(g.n, 4)
    assert is_k_tree(g, 4) is not None


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    # the split graph is the bipartite graph plus the clique edge
    assert without_edge(complete_split(2, 3), 0, 1).edges == g.edges
    with pytest.raises(InvalidSize):
        complete_bipartite(0, 2)


def test_path_power():
    g = path_power(6, 2)
    assert g.m == 9
    assert g.has_edge(0, 2) and not g.has_edge(0, 3)
    cert = is_k_tree(g, 2)
    assert cert is not None and cert.is_valid_for(g)
    assert path_power(9, 3).m == ktree_edge_count(9, 3)
    with pytest.raises(InvalidSize):
        path_power(3, 3)
    with pytest.raises(InvalidSize):
        path_power(5, 0)


def test_dujwoo_gadget():
    g = dujwoo_gadget(2, 2)
    assert g.n == 6 and g.m == 9
    assert is_k_tree(g, 2) is not None

    h = dujwoo_gadget(3, 3)
    assert h.n == 9 and h.m == 21 == ktree_edge_count(9, 3)
    assert is_k_tree(h, 3) is not None
    # added layer avoids the first hub vertex and touches its own column only
    for j in range(3):
        w = 3 + 3 + j
        assert not h.has_edge(0, w)
        assert h.has_edge(3 + j, w)
        assert h.labels[w] == "T"
    with pytest.raises(InvalidSize):
        dujwoo_gadget(1, 2)
    with pytest.raises(InvalidSize):
        dujwoo_gadget(3, 0)


# ---- the Q family ----


def test_q_sizes_for_k4_and_k5():
    art = build_q(4)
    assert art.graph.n == 367
    assert art.graph.m == 1458 == ktree_edge_count(367, 4)
    art5 = build_q(5)
    assert art5.graph.n == 566
    assert art5.graph.m == 2815 == ktree_edge_count(566, 5)


def test_q_certificate_and_roles():
    art = build_q(4)
    g = art.graph
    assert art.certificate.k == 4
    assert art.certificate.is_valid_for(g)

    roles = art.roles
    assert len(roles["K"]) == 4
    assert len(roles["S"]) == 33
    assert len(roles["T"]) == 33
    assert roles["pad"] == frozenset()
    per_w = [key for key in roles if key.startswith("T")]
    assert len(per_w) == 3 * 33 + 1  # "T" itself plus T2/T3/T4 per column
    covered = set()
    for key, group in roles.items():
        if key in ("K", "S", "T", "pad"):
            continue
        assert len(group) == 3
        covered.update(group)
    assert len(covered) == 297
    assert covered | roles["K"] | roles["S"] | roles["T"] == set(range(g.n))


def test_q_layer_adjacency():
    art = build_q(4)
    g = art.graph
    svert = sorted(art.roles["S"])
    tvert = sorted(art.roles["T"])
    # first hub vertex sees the hub, the independent layer, and nothing else
    assert g.neighbors(0) == tuple(sorted([1, 2, 3, *svert]))
    for j, w in enumerate(tvert):
        assert {1, 2, 3, svert[j]} <= set(g.neighbors(w))
        assert not g.has_edge(0, w)
    # each top-layer vertex avoids exactly the two advertised hub vertices
    for i in (2, 3, 4):
        group = sorted(art.roles[f"T{i}({tvert[0]})"])
        for x in group:
            assert not g.has_edge(x, 0)
            assert not g.has_edge(x, i - 1)
            assert g.has_edge(x, svert[0]) and g.has_edge(x, tvert[0])
            assert g.degree(x) == 4


def test_q_decomposition_is_smooth_low_degree():
    art = build_q(4)
    rep = validate_decomposition(art.graph, art.decomposition)
    assert rep.valid and rep.smooth
    assert rep.width == 4
    assert rep.max_degree == 4
    assert len(art.decomposition.bags) == 363


def test_q_certificate_decomposition_also_validates():
    art = build_q(4)
    td = decomposition_from_certificate(art.certificate)
    rep = validate_decomposition(art.graph, td)
    assert rep.valid and rep.smooth and rep.width == 4
    # the default tree, each bag under the bag of its clique's newest member
    td = decomposition_from_certificate(dataclasses.replace(art.certificate, parents=None))
    rep = validate_decomposition(art.graph, td)
    assert rep.valid and rep.smooth and rep.width == 4 and rep.max_degree == 33


@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("pad", [0, 7])
def test_q_decomposition_is_read_off_its_certificate(k, pad):
    # one bag tree: the certificate carries the host tree of degree 4
    art = build_q(k, k + 11 * (2 * k * k + 1) + pad)
    assert len(art.certificate.parents) == art.graph.n - k - 1
    assert decomposition_from_certificate(art.certificate) == art.decomposition
    rep = validate_decomposition(art.graph, art.decomposition)
    assert rep.valid and rep.smooth and rep.width == k and rep.max_degree == 4


def test_q_padding():
    art = build_q(4, n=400)
    g = art.graph
    assert g.n == 400
    assert len(art.roles["pad"]) == 33
    assert all(g.labels[x] == "pad" for x in art.roles["pad"])
    assert g.m == ktree_edge_count(400, 4)
    assert art.certificate.is_valid_for(g)
    rep = validate_decomposition(g, art.decomposition)
    assert rep.valid and rep.smooth and rep.max_degree == 4


def test_q_size_errors():
    with pytest.raises(InvalidSize):
        build_q(3)
    with pytest.raises(SizeTooSmall):
        build_q(4, n=366)


# ---- random k-trees ----


def test_random_ktree_round_trip():
    for seed in range(8):
        g, cert = random_ktree(20, 3, seed=seed)
        assert g.m == ktree_edge_count(20, 3)
        assert cert.is_valid_for(g)
        assert is_k_tree(g, 3) is not None


def test_random_ktree_deterministic():
    a, ca = random_ktree(15, 2, seed=42)
    b, cb = random_ktree(15, 2, seed=42)
    assert a == b and ca == cb
    with pytest.raises(InvalidSize):
        random_ktree(2, 2)
    with pytest.raises(InvalidSize):
        random_ktree(5, 0)


@pytest.mark.parametrize("n, k, seed, digest", [
    (1000, 3, 1, "9fa4a596b3196de8b2785523a5bd41e762ab09e688340ace99a504a0a444ee0c"),
    (2000, 5, 7, "76275a5e1e526be4445f91446fdbc70567cb72d462d075b8fd5960ef07a5bbe0"),
    (300, 12, 9, "04a3cd34df88d2cbb23616c11cc611edd14b0aaeccaf1bc6ddaa0083933bb0f0"),
    (13, 1, 2, "668af3159b33c3929d879c2e02a79975ebf8605745274c27935c4659e1056496"),
])
def test_random_ktree_output_is_pinned(n, k, seed, digest):
    # the benchmark's input manifests hash this output, so any change to the
    # generator, even one that keeps the distribution, shows up here
    g, cert = random_ktree(n, k, seed=seed)
    additions = [(v, sorted(clique)) for v, clique in cert.additions]
    blob = json.dumps([g.edges, cert.base_clique, additions]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def _q_digest(art):
    g, cert, td = art.graph, art.certificate, art.decomposition
    blob = json.dumps([
        g.n, g.edges, sorted(g.labels.items()),
        cert.k, cert.base_clique, [(v, sorted(clique)) for v, clique in cert.additions],
        [sorted(b) for b in td.bags], sorted(td.tree_edges),
        sorted((key, sorted(group)) for key, group in art.roles.items()),
    ]).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("k, pad, digest", [
    (4, 0, "a56dfa317ae8f280e53e8adc8386392f6fffa09fd85e8566bbab33f82e904c73"),
    (4, 7, "d2ccf34eddd811d4d65a369373036cfc6321f3cf2d02cf0b7ab6f5a73ec3842d"),
    (5, 0, "df27d3037ee4fcc075339e41d882f88ffe68bda7605606427c3eefc91e1663e9"),
    (5, 7, "c85c8ec417c7c74edb3613d3750a5d0c389291c8d63c0fb3389ff031cc425d5e"),
    (6, 0, "b556568555c30d11d117aefc5ae5ceaacbc9b0877b299aee6dda197ad3214afd"),
    (6, 7, "e65e49de3e2f1671388a610b345a1a31499f64935c2b002c8ae6ea1c5f3dc23c"),
])
def test_build_q_output_is_pinned(k, pad, digest):
    # graph, labels, certificate, decomposition and roles, byte for byte;
    # pad=0 calls build_q(k) without n
    base = k + 11 * (2 * k * k + 1)
    art = build_q(k, n=base + pad) if pad else build_q(k)
    assert art.graph.n == base + pad
    assert _q_digest(art) == digest


@pytest.mark.parametrize("k, m, digest", [
    (2, 1, "3ff8399f268e768bd90f283a2be0f71973874b88a6548d1d40a6baa16c951cc9"),
    (2, 5, "aaceb91fcb1a858c4658b435a4bd6cc6168af58cf4925ade8b327459b59bfff1"),
    (3, 3, "304c833afa585801b2908505021bd869aef99209effee6edb7b344a54bd78db3"),
    (4, 6, "b70c087e1c3148ad57b396c99e306cf305b8113fe45462ddc9b0a4181f8e9cbc"),
    (6, 2, "1aceb77044771215cb1029057925dce548938bd6b8d23549610bee71b147f16a"),
])
def test_dujwoo_gadget_output_is_pinned(k, m, digest):
    g = dujwoo_gadget(k, m)
    blob = json.dumps([g.n, g.edges, sorted(g.labels.items())]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("k, digest", [
    (1, "3010730142ddde524267428ed1ac9e353143a9eb3988066ef334e653c3e960db"),
    (2, "a1e5cf33cb5fec4550ed3454f8a7e5f299eb22e64baececcc6c25769d46b5ccb"),
    (3, "78e80abf0749d76257b3dd44cb6a77913f10dfc9f3a9279864496641694037dc"),
    (4, "2b1b8117fddb954e318c5f98272d0464151e1c525ed9ca9fab4ad70ac38bb19d"),
    (5, "3e26009d946baef097e32abf0901bba5e0e6d8efa46f402cca0b5e73af4a8c7a"),
    (6, "2a5518757e5b4a79c8a45d625c80f0cd507a6d4c417275a5c961552590095ba1"),
])
def test_complete_split_output_is_pinned(k, digest):
    # m = 0..6 in one digest; m = 0 is K_k, which has no k-tree base clique
    graphs = [complete_split(k, m) for m in range(7)]
    blob = json.dumps([[g.n, g.edges, sorted(g.labels.items())] for g in graphs]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
