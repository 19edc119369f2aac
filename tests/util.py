"""Small helpers shared across test modules."""

import random
import time
from collections import deque
from itertools import combinations

from hypothesis import strategies as st

from bookembed import (
    BookEmbedding,
    DecompositionReport,
    Graph,
    KTreeCertificate,
    ValidationResult,
    is_k_tree,
    random_ktree,
)


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(rng.randrange(0, v), v) for v in range(1, n)])


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def is_clique(g: Graph, vertices) -> bool:
    return all(g.has_edge(a, b) for a, b in combinations(sorted(set(vertices)), 2))


def without_edge(g: Graph, u: int, v: int) -> Graph:
    """Copy of g with one edge removed (no-op if the edge is absent)."""
    e = (min(u, v), max(u, v))
    return Graph(g.n, (f for f in g.edges if f != e), g.labels)


def reference_graph(n, edges=(), labels=None):
    """`Graph.__init__` built the slow, literal way: a set of normalized
    edge tuples, sorted, then adjacency rebuilt from the sorted edges, each
    neighbourhood a sorted tuple.  Returns (edges, edge set, adjacency,
    labels); raises what it raises."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen = set()
    for u, v in edges:
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
            raise TypeError("edge endpoints must be integers")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    sorted_edges = tuple(sorted(seen))
    edge_set = frozenset(sorted_edges)
    lab = dict(labels) if labels else {}
    for v in lab:
        if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
            raise ValueError(f"label on unknown vertex {v!r}")
        if not isinstance(lab[v], str):
            raise TypeError(f"label role {lab[v]!r} is not a string")
    adj = [set() for _ in range(n)]
    for u, v in sorted_edges:
        adj[u].add(v)
        adj[v].add(u)
    return sorted_edges, edge_set, tuple(tuple(sorted(s)) for s in adj), lab


def reference_decomposition(cert):
    """Bags and tree edges of a certificate's decomposition, found the slow,
    literal way: each addition's bag hangs from its given parent bag, or
    without given parents from the first bag, scanning all earlier ones,
    that contains its clique."""
    bags = [frozenset(cert.base_clique)]
    tree_edges = set()
    for step, (v, clique) in enumerate(cert.additions):
        clique = frozenset(clique)
        if cert.parents is None:
            parent = next(i for i, b in enumerate(bags) if clique <= b)
        else:
            parent = cert.parents[step]
            assert clique <= bags[parent]
        tree_edges.add((parent, len(bags)))
        bags.append(frozenset(clique | {v}))
    return tuple(bags), frozenset(tree_edges)


def reference_spine(cert):
    """The k-tree spine built on a plain list: the base in id order, then the
    reference decomposition (the certificate's given tree, if any) walked
    depth-first, children by index, each added vertex inserted right after
    its clique's leftmost member."""
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
    """The certificate with every vertex v renamed perm[v]; the bag tree
    stays as it is."""
    return KTreeCertificate(
        cert.k,
        tuple(perm[v] for v in cert.base_clique),
        tuple((perm[v], frozenset(perm[u] for u in c)) for v, c in cert.additions),
        cert.parents,
    )


def degree3_ktree(n, k, seed):
    """(graph, certificate): a seeded k-tree on n >= k+1 vertices whose
    certificate carries a host tree of maximum degree <= 3.  Each step picks
    a bag with fewer than 3 tree neighbours and drops any one of its
    members, the newest one included; the rest is the new vertex's clique
    and the picked bag its parent.  With the newest never dropped, the tree
    would be the certificate's default one, so the dropping is what makes
    the given tree differ from it."""
    rng = random.Random(seed)
    bags = [tuple(range(k + 1))]
    degree = [0]
    additions, parents = [], []
    for v in range(k + 1, n):
        parent = rng.choice([b for b, d in enumerate(degree) if d < 3])
        clique = list(bags[parent])
        del clique[rng.randrange(k + 1)]
        additions.append((v, frozenset(clique)))
        parents.append(parent)
        degree[parent] += 1
        degree.append(1)
        bags.append((*clique, v))
    cert = KTreeCertificate(k, bags[0], tuple(additions), tuple(parents))
    return cert.replay(), cert


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


def reference_validate_decomposition(g, td):
    """`validate_decomposition` the slow, literal way: each edge scans the
    bags of its endpoint with fewer bags, and each vertex's bags are searched
    for connectivity one BFS at a time.  Raises on non-integer ids."""
    axiom = []
    smoothness = []
    bags = td.bags
    nb = len(bags)
    width = max((len(b) for b in bags), default=0) - 1

    adj = [[] for _ in range(nb)]
    edges_ok = True
    for i, j in td.tree_edges:
        if not (0 <= i < nb and 0 <= j < nb) or i == j:
            axiom.append(f"tree edge ({i}, {j}) references a missing bag")
            edges_ok = False
            continue
        adj[i].append(j)
        adj[j].append(i)
    if edges_ok and nb > 0:
        if len(td.tree_edges) != nb - 1:
            axiom.append(f"host tree has {len(td.tree_edges)} edges, needs {nb - 1}")
        else:
            seen = [False] * nb
            seen[0] = True
            queue = deque([0])
            reached = 1
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        reached += 1
                        queue.append(y)
            if reached != nb:
                axiom.append("host tree is disconnected")

    for idx, b in enumerate(bags):
        for v in b:
            if not (0 <= v < g.n):
                axiom.append(f"bag {idx} contains unknown vertex {v}")

    where = {v: [] for v in range(g.n)}
    for idx, b in enumerate(bags):
        for v in b:
            if 0 <= v < g.n:
                where[v].append(idx)
    for v in range(g.n):
        if not where[v]:
            axiom.append(f"vertex {v} is in no bag")
    for u, v in g.edges:
        small, big = (u, v) if len(where[u]) <= len(where[v]) else (v, u)
        if not any(big in bags[idx] for idx in where[small]):
            axiom.append(f"edge ({u}, {v}) is in no bag")

    for v in range(g.n):
        own = where[v]
        if len(own) <= 1:
            continue
        members = set(own)
        seen_v = {own[0]}
        queue = deque([own[0]])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in members and y not in seen_v:
                    seen_v.add(y)
                    queue.append(y)
        if len(seen_v) != len(members):
            axiom.append(f"bags containing vertex {v} are disconnected in the host tree")

    for idx, b in enumerate(bags):
        if len(b) != width + 1:
            smoothness.append(f"bag {idx} has size {len(b)}, expected {width + 1}")
    for i, j in sorted(td.tree_edges):
        if 0 <= i < nb and 0 <= j < nb:
            share = len(bags[i] & bags[j])
            if share != width:
                smoothness.append(f"bags {i} and {j} share {share} vertices, expected {width}")

    valid = not axiom
    return DecompositionReport(
        valid=valid,
        width=width,
        smooth=valid and not smoothness,
        max_degree=max((len(a) for a in adj), default=0),
        violations=tuple(axiom + smoothness),
    )


def reference_first_fit(g, order, deadline=None):
    """`first_fit_pages` the slow, literal way: arcs sorted by (left end,
    longest first), each tried on every page from page 1 up, where a page
    is a stack of open right ends that drops the arcs closed by the new
    one's left end and takes the new arc iff its top does not end strictly
    inside it.  With a deadline, the clock is read after every 1024 arcs,
    and once it has passed each later arc opens a page of its own."""
    pos = {v: i for i, v in enumerate(order)}
    arcs = sorted((min(pos[u], pos[v]), -max(pos[u], pos[v]), (u, v)) for u, v in g.edges)
    stacks = []
    pages = {}
    late = False
    for i, (a, neg_b, e) in enumerate(arcs, 1):
        b = -neg_b
        for p, stack in enumerate([] if late else stacks, 1):
            while stack and stack[-1] <= a:
                stack.pop()
            if not stack or stack[-1] >= b:
                stack.append(b)
                break
        else:
            stacks.append([b])
            p = len(stacks)
        pages[e] = p
        if i % 1024 == 0 and deadline is not None and time.monotonic() >= deadline:
            late = True
    return BookEmbedding(tuple(order), {e: pages[e] for e in g.edges}, len(stacks))


def reference_validate_embedding(g, emb):
    """`validate_embedding` the slow, literal way: every page key checked to
    be a pair of ints, edge sets rebuilt and compared after normalizing
    every page key, then each key looked up as it is, every page number
    checked in sorted order, and one stack sweep per page.  Raises on
    non-integer order entries and page numbers."""
    used = len(set(emb.pages.values()))
    if sorted(emb.order) != list(range(g.n)):
        return ValidationResult(False, used, finding="order is not a permutation of the vertices")
    for e in emb.pages:
        if not (isinstance(e, tuple) and len(e) == 2 and all(type(x) is int for x in e)):
            return ValidationResult(False, used, finding=f"page key {e!r} is not a pair of vertex ids")
    got = {(u, v) if u < v else (v, u) for u, v in emb.pages}
    if got != set(g.edges):
        missing = sorted(set(g.edges) - got)
        extra = sorted(got - set(g.edges))
        detail = []
        if missing:
            detail.append(f"uncovered edges {missing[:3]}")
        if extra:
            detail.append(f"unknown edges {extra[:3]}")
        return ValidationResult(False, used, finding="; ".join(detail))
    # every edge named once, as (u, v) with u < v
    reversed_keys = [e for e in emb.pages if e not in set(g.edges)]
    if reversed_keys:
        return ValidationResult(
            False, used, finding=f"page key {reversed_keys[0]!r} is not an edge (u, v) with u < v")
    for e, p in sorted(emb.pages.items()):
        if not (1 <= p <= emb.page_count):
            return ValidationResult(
                False, used, finding=f"edge {e} on page {p}, outside 1..{emb.page_count}"
            )

    pos = [0] * g.n
    for i, v in enumerate(emb.order):
        pos[v] = i
    arcs = []
    for e, p in emb.pages.items():
        a, b = sorted((pos[e[0]], pos[e[1]]))
        arcs.append((p, a, -b, e))
    arcs.sort()
    page, stack = None, []
    for p, a, neg_b, e in arcs:
        if p != page:
            page, stack = p, []
        b = -neg_b
        while stack and stack[-1][0] <= a:
            stack.pop()
        if stack and stack[-1][0] < b:
            return ValidationResult(False, used, first_conflict=(stack[-1][1], e))
        stack.append((b, e))
    return ValidationResult(True, used)


def stacked_triangulation(n, seed):
    """A seeded stacked triangulation (Apollonian network) on n >= 3
    vertices: start from a triangle, then put each new vertex inside a
    random face and join it to that face's three corners.  Every such graph
    is maximal planar."""
    rng = random.Random(seed)
    faces = [(0, 1, 2), (0, 1, 2)]  # the triangle's inside and outside
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
        edges += [(a, v), (b, v), (c, v)]
    return Graph(n, edges)
