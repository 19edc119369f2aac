"""Tree decompositions: validation and certificate-driven construction.

A decomposition is valid when (1) every vertex sits in some bag, (2) every
edge has both endpoints together in some bag, and (3) each vertex's bags form
a connected subtree of the host tree.  It is *smooth* of width w when every
bag has exactly w+1 vertices and adjacent bags share exactly w.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Collection

from .graph import Graph, KTreeCertificate, _JSONFormat, _require_ints


@dataclass(frozen=True)
class TreeDecomposition(_JSONFormat):
    bags: tuple[frozenset[int], ...]
    tree_edges: frozenset[tuple[int, int]]  # pairs of bag indices, i < j

    def to_json_dict(self) -> dict:
        return {
            "bags": [sorted(b) for b in self.bags],
            "tree_edges": [list(e) for e in sorted(self.tree_edges)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TreeDecomposition":
        bags, tree_edges = data["bags"], data["tree_edges"]
        _require_ints([v for b in bags for v in b], "bag members")
        _require_ints([x for e in tree_edges for x in e], "tree edge ends")
        return cls(
            bags=tuple(frozenset(b) for b in bags),
            tree_edges=frozenset((min(i, j), max(i, j)) for i, j in tree_edges),
        )


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    smooth: bool
    max_degree: int
    violations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def validate_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionReport:
    """Check the three axioms plus smoothness; never raises on bad input.
    Bags or tree edges that are no collection at all, or a bag that is not a
    set of ids, come back as the one violation.

    When the host is a tree, one BFS roots it at bag 0 (and decides that it
    is connected), and one pass over the bags in BFS order gives each member
    that is not in its parent bag that bag as its *top*.  The bags holding v
    induce a forest, and each of its components has exactly one top, its
    bag nearest the root, so v's bags form a subtree iff v has exactly one
    top.  A tree edge joins a bag to its parent and shares the bag's size
    less its new members.  Two subtrees of a rooted tree that meet, meet at
    the deeper of their two tops, so when u and v each have one top, the
    edge uv is covered iff v is in u's top bag or u is in v's top bag.  Only
    the edges at a vertex whose bags are split scan that vertex's bags.
    Every member of a bag is new in the bag of it nearest the root, so the
    pass also sees whether any bag holds an unknown vertex.

    When the host is not a tree, the tops mean nothing: each vertex's set of
    bags is built, an edge is covered iff its ends' sets meet, and each
    vertex's bags are searched for connectivity.
    """
    parts = _containers(td)
    if isinstance(parts, str):
        return DecompositionReport(
            valid=False, width=-1, smooth=False, max_degree=0, violations=(parts,)
        )
    bags, sets, tree_edges = parts
    axiom: list[str] = []
    smoothness: list[str] = []
    n, nb = g.n, len(bags)
    width = max(map(len, sets), default=0) - 1

    # host tree shape
    adj: list[list[int]] = [[] for _ in range(nb)]
    pairs: list[tuple[int, int]] = []  # the tree edges that name two bags
    edges_ok = True
    for e in tree_edges:
        if not (isinstance(e, tuple) and len(e) == 2):
            axiom.append(f"tree edge {e!r} is not a pair of bag indices")
            edges_ok = False
            continue
        i, j = e
        if type(i) is int and type(j) is int and 0 <= i < nb and 0 <= j < nb:
            pairs.append(e)
            if i != j:
                adj[i].append(j)
                adj[j].append(i)
                continue
        axiom.append(f"tree edge ({i!r}, {j!r}) references a missing bag")
        edges_ok = False
    parent: list[int] = []
    if edges_ok and nb > 0:
        if len(tree_edges) != nb - 1:
            axiom.append(f"host tree has {len(tree_edges)} edges, needs {nb - 1}")
        else:
            parent = [-2] * nb  # -2 unreached, -1 the root
            parent[0] = -1
            bfs = [0]
            for x in bfs:
                for y in adj[x]:
                    if parent[y] == -2:
                        parent[y] = x
                        bfs.append(y)
            if len(bfs) < nb:
                axiom.append("host tree is disconnected")
                parent = []

    if parent:
        # top[v]: v's one top bag, -1 if v is in no bag, -2 if it has two or more
        top = [-1] * n
        share = [0] * nb  # per bag, the members its parent bag also holds
        strangers = False
        for x in bfs:
            fresh = sets[x] - sets[parent[x]] if x else sets[x]
            share[x] = len(sets[x]) - len(fresh)
            for v in fresh:
                if type(v) is int and 0 <= v < n:
                    top[v] = x if top[v] == -1 else -2
                else:
                    strangers = True
        shared = {(i, j): share[j] if parent[j] == i else share[i] for i, j in pairs}
        if strangers:
            axiom.extend(_unknown_members(bags, n))
        axiom.extend(f"vertex {v} is in no bag" for v in range(n) if top[v] == -1)
        split = [v for v in range(n) if top[v] == -2]
        bags_of: dict[int, list[int]] = {v: [] for v in split}
        if split:
            splits = set(split)
            for idx, b in enumerate(sets):
                for v in b & splits:
                    bags_of[v].append(idx)
        for u, v in g.edges:
            tu, tv = top[u], top[v]
            if tu >= 0 and tv >= 0:
                if v in sets[tu] or u in sets[tv]:
                    continue
            elif tu != -1 and tv != -1:  # one end's bags are split: scan them
                x, y = (u, v) if tu == -2 else (v, u)
                if any(y in sets[idx] for idx in bags_of[x]):
                    continue
            axiom.append(f"edge ({u}, {v}) is in no bag")
    else:
        shared = {(i, j): len(sets[i] & sets[j]) for i, j in pairs}
        axiom.extend(_unknown_members(bags, n))
        where: dict[int, set[int]] = {v: set() for v in range(n)}
        for idx, b in enumerate(sets):
            for v in b:
                if type(v) is int and 0 <= v < n:
                    where[v].add(idx)
        axiom.extend(f"vertex {v} is in no bag" for v, own in where.items() if not own)
        axiom.extend(f"edge ({u}, {v}) is in no bag" for u, v in g.edges
                     if where[u].isdisjoint(where[v]))
        split = [v for v, own in where.items() if not _connected(own, adj)]
    axiom.extend(f"bags containing vertex {v} are disconnected in the host tree" for v in split)

    # smoothness: uniform bag size width+1, adjacent bags share exactly width
    for idx, b in enumerate(sets):
        if len(b) != width + 1:
            smoothness.append(f"bag {idx} has size {len(b)}, expected {width + 1}")
    off = sorted((e, share) for e, share in shared.items() if share != width)
    smoothness.extend(
        f"bags {i} and {j} share {share} vertices, expected {width}" for (i, j), share in off
    )

    valid = not axiom
    smooth = valid and not smoothness
    max_degree = max(map(len, adj), default=0)
    return DecompositionReport(
        valid=valid,
        width=width,
        smooth=smooth,
        max_degree=max_degree,
        violations=tuple(axiom + smoothness),
    )


def _unknown_members(bags: tuple, n: int) -> list[str]:
    """One violation per bag member, as the bag lists it, that is no vertex
    id 0..n-1 (an int, not a bool)."""
    return [f"bag {idx} contains unknown vertex {v!r}" for idx, b in enumerate(bags)
            for v in b if not (type(v) is int and 0 <= v < n)]


def _containers(td: TreeDecomposition) -> tuple[tuple, list[frozenset], tuple] | str:
    """td's bags and tree edges as tuples, plus each bag as a frozenset, or a
    one-line violation naming the first that is not a finite collection (of
    hashable ids, for a bag).  The tuples keep each container's own order,
    so findings come in the order given; sizes are read off the sets."""
    try:
        bags = tuple(td.bags)
    except TypeError:
        return f"bags are not a sequence (got {type(td.bags).__name__})"
    try:
        tree_edges = tuple(td.tree_edges)
    except TypeError:
        return f"tree edges are not a collection (got {type(td.tree_edges).__name__})"
    sets = []
    for idx, b in enumerate(bags):
        try:
            len(b)
            sets.append(frozenset(b))
        except TypeError:
            return f"bag {idx} is not a set of vertex ids: {b!r}"
    return bags, sets, tree_edges


def _connected(nodes: Collection[int], adj: list[list[int]]) -> bool:
    """Whether the host-tree nodes `nodes` induce a connected subgraph."""
    if len(nodes) <= 1:
        return True
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        for y in adj[queue.popleft()]:
            if y in nodes and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(nodes)


def decomposition_from_certificate(cert: KTreeCertificate) -> TreeDecomposition:
    """Smooth width-k decomposition read straight off a k-tree certificate.

    Bag 0 is the base clique; each addition (v, C) contributes the bag C + {v},
    attached to its parent in the certificate's tree (`cert.parents`, or by
    default the bag of C's newest member).  O(nk).  Raises InvalidCertificate
    whenever `cert.replay()` would (see `KTreeCertificate._parent_bags`).
    """
    parents = cert._parent_bags
    bags = [frozenset(cert.base_clique)]
    bags.extend(frozenset(clique).union((v,)) for v, clique in cert.additions)
    return TreeDecomposition(
        bags=tuple(bags),
        tree_edges=frozenset((p, i) for i, p in enumerate(parents, 1)),
    )
