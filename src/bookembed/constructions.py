"""Graph families used throughout the package.

The centerpiece is `build_q`: for k >= 4 it produces a k-tree whose book
thickness is k+1 even though it admits a smooth width-k tree decomposition
whose host tree has maximum degree exactly 4.  The family shows that neither
bounded treewidth nor a low-degree, smooth decomposition caps book thickness
at the treewidth.

Layer structure of Q (writing K = {u_1, ..., u_k} for the hub clique):

  * a complete split graph: K plus an independent set S of 2k^2 + 1 vertices,
    every s in S adjacent to all of K;
  * for each v in S, a vertex w adjacent to (K + v) - u_1; these form T;
  * for each such w and each i in {2, 3, 4}, three vertices adjacent to
    (K + v + w) - u_1 - u_i;
  * optional padding vertices adjacent to K, to reach a requested size.

Total size without padding: k + 11 * (2k^2 + 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidSize, SizeTooSmall
from .graph import Graph, KTreeCertificate
from .treedec import TreeDecomposition


@dataclass(frozen=True)
class QArtifacts:
    """Everything `build_q` knows about the graph it made."""

    graph: Graph
    certificate: KTreeCertificate
    decomposition: TreeDecomposition
    roles: dict[str, frozenset[int]]


def complete_split(k: int, m: int) -> Graph:
    """Clique of size k joined completely to an independent set of size m.

    Vertices 0..k-1 form the clique (label "K"), k..k+m-1 the independent
    set (label "S").
    """
    if k < 1 or m < 0:
        raise InvalidSize("complete split graph needs k >= 1 and m >= 0")
    edges = list(combinations(range(k), 2))
    edges.extend((u, s) for u in range(k) for s in range(k, k + m))
    labels = {v: "K" for v in range(k)}
    labels.update({v: "S" for v in range(k, k + m)})
    return Graph(k + m, edges, labels)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise InvalidSize("complete bipartite graph needs both sides non-empty")
    return Graph(a + b, ((u, v) for u in range(a) for v in range(a, a + b)))


def path_power(n: int, k: int) -> Graph:
    """k-th power of the path on n vertices: edge whenever |u - v| <= k."""
    if k < 1:
        raise InvalidSize("path power needs k >= 1")
    if n < k + 1:
        raise InvalidSize(f"path power needs n >= k + 1, got n={n}, k={k}")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, min(n, u + k + 1))))


def dujwoo_gadget(k: int, m: int) -> Graph:
    """Complete split graph with one extra simplicial vertex per independent
    vertex, attached to (K + v) - u_1.  The two bottom layers of `build_q`.

    Vertices: 0..k-1 clique ("K"), k..k+m-1 independent ("S"),
    k+m..k+2m-1 the added layer ("T").
    """
    if k < 2 or m < 1:
        raise InvalidSize("gadget needs k >= 2 and m >= 1")
    edges = list(combinations(range(k), 2))
    labels = {v: "K" for v in range(k)}
    for j in range(m):
        v = k + j
        w = k + m + j
        labels[v] = "S"
        labels[w] = "T"
        edges.extend((u, v) for u in range(k))
        edges.extend((u, w) for u in range(1, k))
        edges.append((v, w))
    return Graph(k + 2 * m, edges, labels)


def build_q(k: int, n: int | None = None) -> QArtifacts:
    """Build the Q family member for this k (optionally padded up to n vertices).

    Returns the graph together with a k-tree certificate, a smooth width-k
    decomposition whose host tree has maximum degree exactly 4, and a role map
    (keys "K", "S", "T", "pad", and "T2(w)"/"T3(w)"/"T4(w)" per T-vertex w).

    Raises InvalidSize for k < 4 and SizeTooSmall when n is below the
    unpadded size k + 11*(2k^2 + 1).
    """
    if k < 4:
        raise InvalidSize(f"construction needs k >= 4, got {k}")
    s = 2 * k * k + 1
    base_n = k + 11 * s
    if n is None:
        n = base_n
    if n < base_n:
        raise SizeTooSmall(f"needs at least {base_n} vertices for k={k}, got {n}")
    pad_count = n - base_n

    hub = list(range(k))  # u_i is vertex i - 1
    hub_no_u1 = hub[1:]
    svert = [k + j for j in range(s)]
    tvert = [k + s + j for j in range(s)]
    t_base = k + 2 * s
    pad = [k + 11 * s + q for q in range(pad_count)]

    labels = {u: "K" for u in hub}
    labels.update({v: "S" for v in svert})
    labels.update({w: "T" for w in tvert})
    labels.update({x: "pad" for x in pad})

    edges: list[tuple[int, int]] = list(combinations(hub, 2))
    additions: list[tuple[int, frozenset[int]]] = []
    roles: dict[str, frozenset[int]] = {
        "K": frozenset(hub),
        "S": frozenset(svert),
        "T": frozenset(tvert),
        "pad": frozenset(pad),
    }

    hub_set = frozenset(hub)
    for j, v in enumerate(svert):
        edges.extend((u, v) for u in hub)
        if j > 0:
            additions.append((v, hub_set))

    for j, w in enumerate(tvert):
        v = svert[j]
        clique = frozenset(hub_no_u1) | {v}
        edges.extend((u, w) for u in sorted(clique))
        additions.append((w, clique))

    for j, w in enumerate(tvert):
        v = svert[j]
        for i in (2, 3, 4):
            attach = (frozenset(hub_no_u1) - {i - 1}) | {v, w}
            group = []
            for t in range(3):
                x = t_base + 9 * j + 3 * (i - 2) + t
                labels[x] = f"T{i}"
                group.append(x)
                edges.extend((y, x) for y in sorted(attach))
                additions.append((x, attach))
            roles[f"T{i}({w})"] = frozenset(group)

    for x in pad:
        edges.extend((u, x) for u in hub)
        additions.append((x, hub_set))

    graph = Graph(n, edges, labels)
    certificate = KTreeCertificate(
        k=k,
        base_clique=tuple(hub) + (svert[0],),
        additions=tuple(additions),
    )
    decomposition = _q_decomposition(k, s, pad_count)
    return QArtifacts(graph=graph, certificate=certificate,
                      decomposition=decomposition, roles=roles)


def _q_decomposition(k: int, s: int, pad_count: int) -> TreeDecomposition:
    # bag indices: S-bags 0..s-1 in a path; w-bag of column j at s+j; the
    # three 3-bag chains of column j at 2s + 9j; pad bags after 11s, chained
    # off the far end of the S-path
    hub = frozenset(range(k))
    hub_no_u1 = hub - {0}
    bags: list[frozenset[int]] = []
    tree_edges: set[tuple[int, int]] = set()

    for j in range(s):
        bags.append(hub | {k + j})
        if j > 0:
            tree_edges.add((j - 1, j))
    for j in range(s):
        v, w = k + j, k + s + j
        bags.append(hub_no_u1 | {v, w})
        tree_edges.add((j, s + j))
    t_base_vertex = k + 2 * s
    for j in range(s):
        v, w = k + j, k + s + j
        for i in (2, 3, 4):
            chain_start = 2 * s + 9 * j + 3 * (i - 2)
            core = (hub_no_u1 - {i - 1}) | {v, w}
            for t in range(3):
                x = t_base_vertex + 9 * j + 3 * (i - 2) + t
                bags.append(core | {x})
                idx = chain_start + t
                prev = s + j if t == 0 else idx - 1
                tree_edges.add((min(prev, idx), max(prev, idx)))
    for q in range(pad_count):
        x = k + 11 * s + q
        bags.append(hub | {x})
        idx = 11 * s + q
        prev = s - 1 if q == 0 else idx - 1
        tree_edges.add((min(prev, idx), max(prev, idx)))

    return TreeDecomposition(bags=tuple(bags), tree_edges=frozenset(tree_edges),
                             declared_width=k)


def random_ktree(n: int, k: int, seed: int = 0) -> tuple[Graph, KTreeCertificate]:
    """Uniformly grown random k-tree: each new vertex lands on a k-clique
    picked uniformly from all k-cliques created so far."""
    if k < 1:
        raise InvalidSize("random k-tree needs k >= 1")
    if n < k + 1:
        raise InvalidSize(f"a {k}-tree needs at least {k + 1} vertices")
    rng = random.Random(seed)
    base = tuple(range(k + 1))
    edges: list[tuple[int, int]] = list(combinations(base, 2))
    # k-cliques as sorted tuples: v is the largest id so far, so dropping
    # one member and appending v keeps a clique sorted
    pool: list[tuple[int, ...]] = list(combinations(base, k))
    additions: list[tuple[int, frozenset[int]]] = []
    for v in range(k + 1, n):
        clique = pool[rng.randrange(len(pool))]
        additions.append((v, frozenset(clique)))
        edges.extend((u, v) for u in clique)
        pool.extend(clique[:i] + clique[i + 1:] + (v,) for i in range(k))
    cert = KTreeCertificate(k=k, base_clique=base, additions=tuple(additions))
    return Graph(n, edges), cert
