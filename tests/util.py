"""Small helpers shared across test modules."""

import random

from hypothesis import strategies as st

from bookembed import Graph, KTreeCertificate, is_k_tree, random_ktree


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(rng.randrange(0, v), v) for v in range(1, n)])


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def reference_decomposition(cert):
    """Bags and tree edges of a certificate's decomposition, found the slow,
    literal way: each addition's bag hangs from the first bag, scanning all
    earlier ones, that contains its clique."""
    bags = [frozenset(cert.base_clique)]
    tree_edges = set()
    for v, clique in cert.additions:
        parent = next(i for i, b in enumerate(bags) if clique <= b)
        tree_edges.add((parent, len(bags)))
        bags.append(frozenset(clique | {v}))
    return tuple(bags), frozenset(tree_edges)


def reference_spine(cert):
    """The k-tree spine built on a plain list: the base in id order, then the
    reference decomposition walked depth-first, children by index, each added
    vertex inserted right after its clique's leftmost member."""
    bags, tree_edges = reference_decomposition(cert)
    children = [[] for _ in bags]
    for i, j in sorted(tree_edges):
        children[i].append(j)
    spine = sorted(cert.base_clique)
    stack = [0]
    while stack:
        b = stack.pop()
        if b > 0:
            v, clique = cert.additions[b - 1]
            at = min(spine.index(u) for u in clique)
            spine.insert(at + 1, v)
        stack.extend(reversed(children[b]))
    return spine


def relabelled_certificate(cert, perm):
    """The certificate with every vertex v renamed perm[v]."""
    return KTreeCertificate(
        cert.k,
        tuple(perm[v] for v in cert.base_clique),
        tuple((perm[v], frozenset(perm[u] for u in c)) for v, c in cert.additions),
    )


@st.composite
def ktree_cases(draw):
    """(graph, certificate, k): a random k-tree, k = 1..6 and n <= 60, under
    random labels, with either the generator's certificate or the
    recognizer's."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, 60))
    g, cert = random_ktree(n, k, seed=draw(st.integers(0, 2**32)))
    perm = draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    if draw(st.booleans()):
        cert = relabelled_certificate(cert, perm)
    else:
        cert = is_k_tree(g, k)
    return g, cert, k
