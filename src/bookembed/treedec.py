"""Tree decompositions: validation and certificate-driven construction.

A decomposition is valid when (1) every vertex sits in some bag, (2) every
edge has both endpoints together in some bag, and (3) each vertex's bags form
a connected subtree of the host tree.  It is *smooth* of width w when every
bag has exactly w+1 vertices and adjacent bags share exactly w.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .graph import Graph, KTreeCertificate


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: frozenset[tuple[int, int]]  # pairs of bag indices, i < j
    declared_width: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "bags": [sorted(b) for b in self.bags],
            "tree_edges": [list(e) for e in sorted(self.tree_edges)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TreeDecomposition":
        bags = tuple(frozenset(b) for b in data["bags"])
        tree_edges = frozenset(
            (min(i, j), max(i, j)) for i, j in data["tree_edges"]
        )
        return cls(bags=bags, tree_edges=tree_edges)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TreeDecomposition":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    smooth: bool
    max_degree: int
    violations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "width": self.width,
            "smooth": self.smooth,
            "max_degree": self.max_degree,
            "violations": list(self.violations),
        }


def validate_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionReport:
    """Check the three axioms plus smoothness; never raises on bad input."""
    axiom: list[str] = []
    smoothness: list[str] = []
    bags = td.bags
    nb = len(bags)
    width = max((len(b) for b in bags), default=0) - 1

    # host tree shape
    adj: list[list[int]] = [[] for _ in range(nb)]
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

    # vertex and edge coverage
    where: dict[int, list[int]] = {v: [] for v in range(g.n)}
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

    # connected subtree per vertex
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

    # smoothness: uniform bag size width+1, adjacent bags share exactly width
    for idx, b in enumerate(bags):
        if len(b) != width + 1:
            smoothness.append(f"bag {idx} has size {len(b)}, expected {width + 1}")
    for i, j in sorted(td.tree_edges):
        if 0 <= i < nb and 0 <= j < nb:
            share = len(bags[i] & bags[j])
            if share != width:
                smoothness.append(f"bags {i} and {j} share {share} vertices, expected {width}")

    valid = not axiom
    smooth = valid and not smoothness
    max_degree = max((len(a) for a in adj), default=0)
    return DecompositionReport(
        valid=valid,
        width=width,
        smooth=smooth,
        max_degree=max_degree,
        violations=tuple(axiom + smoothness),
    )


def decomposition_from_certificate(cert: KTreeCertificate) -> TreeDecomposition:
    """Smooth width-k decomposition read straight off a k-tree certificate.

    Bag 0 is the base clique; each addition (v, C) contributes the bag C + {v},
    attached to the lowest-index bag that contains C.  O(nk).  Raises
    InvalidCertificate whenever `cert.replay()` would (see
    `KTreeCertificate._parent_bags`).
    """
    parents = cert._parent_bags()
    bags = [frozenset(cert.base_clique)]
    bags.extend(frozenset(clique).union((v,)) for v, clique in cert.additions)
    return TreeDecomposition(
        bags=tuple(bags),
        tree_edges=frozenset((p, i) for i, p in enumerate(parents, 1)),
        declared_width=cert.k,
    )
