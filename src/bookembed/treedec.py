"""Tree decompositions: validation and certificate-driven construction.

A decomposition is valid when (1) every vertex sits in some bag, (2) every
edge has both endpoints together in some bag, and (3) each vertex's bags form
a connected subtree of the host tree.  It is *smooth* of width w when every
bag has exactly w+1 vertices and adjacent bags share exactly w.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        pairs = frozenset((min(i, j), max(i, j)) for i, j in tree_edges)
        if len(pairs) < len(tree_edges):
            raise ValueError("two tree edge rows name the same pair of bags")
        return cls(bags=tuple(frozenset(b) for b in bags), tree_edges=pairs)


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

    One BFS forest spans the host, whatever its shape: each component is
    rooted at its lowest bag not yet reached, so a tree is rooted at bag 0.
    One pass over the bags in BFS order gives each member that is not in
    its parent bag that bag as a *top*.  The bags holding v induce a
    subforest, each of whose components has one top, its bag nearest the
    root: `top[v]` is v's first top and `more[v]` lists the others.  A
    forest edge shares the child bag's size less its new members, and any
    other tree edge (a cycle edge, a loop, a repeat) intersects its bags.
    Two subtrees of a rooted forest that meet, meet at the deeper of their
    tops, so the edge uv is covered iff some top of u holds v or some top
    of v holds u.  Only a host edge off the forest can join two of v's
    forest components, so only a vertex with two tops or more has its bags
    searched for connectivity in the whole host.  Every member of a bag is
    new in the bag of it nearest the root, so the pass also sees whether
    any bag holds an unknown vertex.  A tree edge that loops on one bag, or
    that names a pair already listed, in either orientation, is named as
    such, and a repeated pair's share is read once.
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

    # host shape
    adj: list[list[int]] = [[] for _ in range(nb)]
    pairs: list[tuple[int, int]] = []  # the tree edges that name bags, loops included
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
            axiom.append(f"tree edge ({i}, {j}) joins bag {i} to itself")
        else:
            axiom.append(f"tree edge ({i!r}, {j!r}) references a missing bag")
        edges_ok = False
    # one BFS forest, each component rooted at its lowest unreached bag
    parent = [-2] * nb  # -2 unreached, -1 a root
    bfs: list[int] = []
    for r in range(nb):
        if parent[r] == -2:
            parent[r] = -1
            reach = [r]
            for x in reach:
                for y in adj[x]:
                    if parent[y] == -2:
                        parent[y] = x
                        reach.append(y)
            bfs += reach

    top = [-1] * n  # v's first top bag, -1 if v is in no bag
    more: dict[int, list[int]] = {}  # v's other top bags
    share = [0] * nb  # per bag, the members its parent bag also holds
    strangers = False
    for x in bfs:
        fresh = sets[x] - sets[parent[x]] if parent[x] >= 0 else sets[x]
        share[x] = len(sets[x]) - len(fresh)
        for v in fresh:
            if type(v) is int and 0 <= v < n:
                if top[v] == -1:
                    top[v] = x
                else:
                    more.setdefault(v, []).append(x)
            else:
                strangers = True

    # each pair's share, read once: a forest edge's is spent by its first listing
    off: list[tuple[tuple[int, int], int]] = []
    met: set[tuple[int, int]] = set()  # the pairs off the forest, i <= j
    for e in pairs:
        i, j = e
        x = j if parent[j] == i else i if parent[i] == j else -1
        if x >= 0:
            s, share[x] = share[x], -1
        else:
            key = e if i <= j else (j, i)
            s = -1 if key in met else len(sets[i] & sets[j])
            met.add(key)
        if s < 0:
            axiom.append(f"tree edge ({i}, {j}) is listed twice")
        elif s != width:
            off.append((e, s))
    if edges_ok and nb > 0:
        if len(tree_edges) != nb - 1:
            axiom.append(f"host tree has {len(tree_edges)} edges, needs {nb - 1}")
        elif parent.count(-1) > 1:
            axiom.append("host tree is disconnected")

    if strangers:
        axiom.extend(_unknown_members(bags, n))
    axiom.extend(f"vertex {v} is in no bag" for v in range(n) if top[v] == -1)
    for u, v in g.edges:
        tu, tv = top[u], top[v]
        if tu >= 0 and tv >= 0 and (
                v in sets[tu] or u in sets[tv]
                or any(v in sets[t] for t in more.get(u, ()))
                or any(u in sets[t] for t in more.get(v, ()))):
            continue
        axiom.append(f"edge ({u}, {v}) is in no bag")
    axiom.extend(f"bags containing vertex {v} are disconnected in the host tree"
                 for v in sorted(more) if not _connected(v, [top[v], *more[v]], sets, adj))

    # smoothness: uniform bag size width+1, adjacent bags share exactly width
    for idx, b in enumerate(sets):
        if len(b) != width + 1:
            smoothness.append(f"bag {idx} has size {len(b)}, expected {width + 1}")
    smoothness.extend(
        f"bags {i} and {j} share {s} vertices, expected {width}" for (i, j), s in sorted(off)
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


def _connected(v: int, tops: list[int], sets: list[frozenset],
               adj: list[list[int]]) -> bool:
    """Whether the host bags holding v are connected, given the tops of
    their components in the BFS forest: one search from the first top,
    through bags holding v, must reach every other."""
    seen = {tops[0]}
    reach = [tops[0]]
    for x in reach:
        for y in adj[x]:
            if y not in seen and v in sets[y]:
                seen.add(y)
                reach.append(y)
    return seen.issuperset(tops)


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
