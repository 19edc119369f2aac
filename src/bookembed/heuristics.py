"""Heuristic embedders.  Validity is guaranteed; page counts are whatever
first-fit lands on and are reported, not promised."""

from __future__ import annotations

from typing import Sequence

from .embedding import BookEmbedding, _push_arc
from .errors import InvalidCertificate, InvalidOrder
from .graph import Graph, KTreeCertificate
from .treedec import decomposition_from_certificate


def first_fit_pages(g: Graph, order: Sequence[int]) -> BookEmbedding:
    """Assign pages greedily under a fixed order.

    Edges are taken sorted by (left endpoint position, longest arc first) and
    each goes to the lowest-numbered page where it crosses nothing already
    placed, opening a new page when none fits; that order lets one stack of
    open arcs per page decide each fit.  Always valid.  Raises InvalidOrder
    when `order` is not a permutation of the vertices.
    """
    if sorted(order) != list(range(g.n)):
        raise InvalidOrder(f"order is not a permutation of the {g.n} vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    items = []
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        items.append((a, -b, (u, v)))
    items.sort()

    stacks: list[list[tuple[int, tuple[int, int]]]] = []
    assignment: dict[tuple[int, int], int] = {}
    for a, neg_b, e in items:
        b = -neg_b
        for p, stack in enumerate(stacks, 1):
            if _push_arc(stack, a, b, e):
                assignment[e] = p
                break
        else:
            stacks.append([(b, e)])
            assignment[e] = len(stacks)
    return BookEmbedding(tuple(order), assignment, len(stacks))


def embed_ktree(g: Graph, cert: KTreeCertificate) -> BookEmbedding:
    """Embed a k-tree guided by its certificate.

    The spine starts with the base clique in id order and walks the bag tree
    depth-first; each added vertex is inserted immediately clockwise of the
    lowest-position member of its attachment clique.  Pages are then assigned
    first-fit.  Raises InvalidCertificate when the certificate does not
    replay to g.
    """
    if not cert.is_valid_for(g):
        raise InvalidCertificate("certificate does not replay to this graph")
    td = decomposition_from_certificate(cert)
    nb = len(td.bags)
    children: list[list[int]] = [[] for _ in range(nb)]
    for i, j in td.tree_edges:
        children[i].append(j)

    spine: list[int] = sorted(cert.base_clique)
    stack = [0]
    seen = [False] * nb
    while stack:
        b = stack.pop()
        if seen[b]:
            continue
        seen[b] = True
        if b > 0:
            v, clique = cert.additions[b - 1]
            at = min(spine.index(u) for u in clique)
            spine.insert(at + 1, v)
        for c in sorted(children[b], reverse=True):
            stack.append(c)
    return first_fit_pages(g, spine)
