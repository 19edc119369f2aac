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
from itertools import chain, combinations, product

from .errors import InvalidSize, SizeTooSmall
from .graph import Graph, KTreeCertificate
from .treedec import TreeDecomposition, decomposition_from_certificate


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
    labels = dict.fromkeys(range(k), "K") | dict.fromkeys(range(k, k + m), "S")
    return Graph(k + m, chain(combinations(range(k), 2), product(range(k), range(k, k + m))), labels)


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


def _lower_layers(k: int, m: int) -> tuple[list[tuple[int, frozenset[int], int]], dict[int, str]]:
    """The two layers `dujwoo_gadget` and `build_q` share, as k-tree steps.

    Base clique K + s_0 on 0..k (bag 0), the other S-vertices k+1..k+m-1,
    each attached to K, then the T-vertices k+m..k+2m-1, w_j attached to
    (K + v_j) - u_1.  Each step is (vertex, attachment clique, parent bag),
    where the step's own bag is its index + 1: the S-bags form a path and
    each w-bag hangs under its s-bag.  Returns the steps and the labels.
    """
    hub = frozenset(range(k))
    labels = dict.fromkeys(range(k), "K")
    labels.update(dict.fromkeys(range(k, k + m), "S"))
    labels.update(dict.fromkeys(range(k + m, k + 2 * m), "T"))
    steps = [(k + j, hub, j - 1) for j in range(1, m)]
    steps += [(k + m + j, hub - {0} | {k + j}, j) for j in range(m)]
    return steps, labels


def _certificate(k: int, steps: list[tuple[int, frozenset[int], int]]) -> KTreeCertificate:
    return KTreeCertificate(k, tuple(range(k + 1)), tuple((v, clique) for v, clique, _ in steps),
                            tuple(parent for _, _, parent in steps))


def dujwoo_gadget(k: int, m: int) -> Graph:
    """Complete split graph with one extra simplicial vertex per independent
    vertex, attached to (K + v) - u_1.  The two bottom layers of `build_q`.

    Vertices: 0..k-1 clique ("K"), k..k+m-1 independent ("S"),
    k+m..k+2m-1 the added layer ("T").
    """
    if k < 2 or m < 1:
        raise InvalidSize("gadget needs k >= 2 and m >= 1")
    steps, labels = _lower_layers(k, m)
    return Graph(k + 2 * m, _certificate(k, steps)._edges(), labels)


def build_q(k: int, n: int | None = None) -> QArtifacts:
    """Build the Q family member for this k (optionally padded up to n vertices).

    Returns the graph together with a k-tree certificate that carries its
    host tree (`parents`), that certificate's smooth width-k decomposition,
    whose host tree has maximum degree exactly 4, and a role map (keys "K",
    "S", "T", "pad", and "T2(w)"/"T3(w)"/"T4(w)" per T-vertex w).

    Each layer's loop records each vertex once, as a certificate step with
    its host-tree parent bag (see `_lower_layers`).  The graph is the
    certificate's edges and the decomposition is read off the certificate.
    The host tree hangs each bag under its recorded parent: the S-bags form
    a path, each w-bag hangs under its s-bag, the three 3-bag chains of a
    column hang under its w-bag, and the pad bags continue the S-path.  So
    an S-bag has at most 3 tree neighbours (two on the path, one w-bag), a
    w-bag has exactly 4 (its s-bag and three chain heads), and a chain or
    pad bag at most 2; the maximum degree is 4.

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

    steps, labels = _lower_layers(k, s)
    chains: dict[str, frozenset[int]] = {}
    # vertex k + i sits in bag i, so the next step's vertex and bag are
    # k + len(steps) + 1 and len(steps) + 1
    for j in range(s):
        v, w = k + j, k + s + j
        for i in (2, 3, 4):
            attach = frozenset(range(1, k)) - {i - 1} | {v, w}
            parent = s + j  # w's bag
            for _ in range(3):
                x = k + len(steps) + 1
                steps.append((x, attach, parent))
                labels[x] = f"T{i}"
                parent = len(steps)
            chains[f"T{i}({w})"] = frozenset(range(x - 2, x + 1))
    parent, hub = s - 1, frozenset(range(k))  # the S-path's far end, and K
    for x in range(base_n, n):
        steps.append((x, hub, parent))
        labels[x] = "pad"
        parent = len(steps)
    roles = {role: frozenset(v for v, r in labels.items() if r == role)
             for role in ("K", "S", "T", "pad")} | chains

    certificate = _certificate(k, steps)
    return QArtifacts(graph=Graph(n, certificate._edges(), labels), certificate=certificate,
                      decomposition=decomposition_from_certificate(certificate), roles=roles)


def random_ktree(n: int, k: int, seed: int = 0) -> tuple[Graph, KTreeCertificate]:
    """Uniformly grown random k-tree: each new vertex lands on a k-clique
    picked uniformly from all k-cliques created so far.  The certificate's
    attachment cliques are sorted int tuples."""
    if k < 1:
        raise InvalidSize("random k-tree needs k >= 1")
    if n < k + 1:
        raise InvalidSize(f"a {k}-tree needs at least {k + 1} vertices")
    rng = random.Random(seed)
    base = tuple(range(k + 1))
    # the k-cliques are numbered in the order they are made: clique j <= k
    # is the base without base[k - j], and addition i makes k more, its
    # sorted clique without each member in turn plus its vertex k + 1 + i,
    # the largest id so far, so each stays sorted
    cliques: list[tuple[int, ...]] = []  # addition i's clique, sorted
    for v in range(k + 1, n):
        j = rng.randrange(k + 1 + (v - k - 1) * k)
        if j <= k:
            cliques.append(base[:k - j] + base[k - j + 1:])
        else:
            i, r = divmod(j - k - 1, k)
            clique = cliques[i]
            cliques.append(clique[:r] + clique[r + 1:] + (k + 1 + i,))
    cert = KTreeCertificate(k, base, tuple(zip(range(k + 1, n), cliques)))
    return Graph(n, cert._edges()), cert
