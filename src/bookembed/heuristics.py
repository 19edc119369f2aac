"""Embedders.  Validity is guaranteed.  `first_fit_pages` reports whatever
page count first-fit lands on; `embed_ktree` constructs a k-tree's pages from
a proper (k+1)-colouring and never uses more than k+1, the Ganley-Heath bound
that Q(k) meets exactly."""

from __future__ import annotations

import time
from typing import Sequence

from .embedding import BookEmbedding, _arc_keys, _check_order
from .errors import InvalidCertificate
from .graph import Graph, KTreeCertificate


def first_fit_pages(g: Graph, order: Sequence[int], *,
                    deadline: float | None = None) -> BookEmbedding:
    """Assign pages greedily under a fixed order.

    Edges are taken sorted by (left endpoint position, longest arc first) and
    each goes to the lowest-numbered page where it crosses nothing already
    placed, opening a new page when none fits.  Always valid.  Raises
    InvalidOrder when `order` is not a permutation of the vertices.

    In that order the arcs open on a page nest, so only the innermost one,
    the page's *top*, can cross a new arc (a, b), and it does iff its right
    end lies strictly inside (a, b).  A flat max-tree over the page slots
    holds each top's right end, n for an empty page, and is the only record
    of the open arcs: arc (a, b) goes on the leftmost slot whose top is
    >= b, found in one descent, and a push sets one leaf and climbs.  Each
    placed edge keeps its page and the leaf it covered (`under`), and is
    bucketed by its right end in int arrays (`head`, `below`).  Arcs are
    closed eagerly: before the arcs with left end a are placed, every arc
    ending at or before a is closed, latest placed first.  A closing arc is
    always its page's top, so closing it puts back the leaf it covered.
    That is O(m log m) for the sort plus O(m log P) for P pages, where
    scanning the pages costs O(m P).  Page 1 is tried before the descent,
    and the tree starts at 16 slots and doubles when full, so tiny graphs
    pay little for it.

    With a `deadline` (a `time.monotonic()` reading), the clock is read
    after every 1024 arcs, and once it has passed each arc still unplaced
    opens a page of its own, so the result stays valid.
    """
    _check_order(g, order)
    n, m = g.n, g.m
    keys = _arc_keys(g.edges, order)
    arcs = sorted(range(m), key=keys.__getitem__)  # edge indices in arc order
    cap = 16
    tops = [n] * (2 * cap)  # max-tree: leaf cap + p - 1 is page p's top
    page = [0] * m  # per edge, its page
    under = [0] * m  # per placed edge, its page's leaf before it was pushed
    below = [0] * m  # per placed edge, the edge placed before it with its right end
    head = [-1] * n  # per right end, the last placed edge ending there, -1 for none
    closed = 0  # the arcs ending at or before this position are closed
    for i, e in enumerate(arcs, 1):
        a, rb = divmod(keys[e], n)
        b = n - 1 - rb
        while closed < a:
            closed += 1
            j = head[closed]
            while j >= 0:
                _set_top(tops, cap + page[j] - 1, under[j])
                j = below[j]
        if tops[cap] >= b:
            x = cap
        else:
            if tops[1] < b:  # every slot holds a page and none fits: double
                leaves = tops[cap:]
                cap *= 2
                tops = [n] * (2 * cap)
                tops[cap:cap + len(leaves)] = leaves
                for x in range(cap - 1, 0, -1):
                    tops[x] = max(tops[2 * x], tops[2 * x + 1])
            x = 1
            while x < cap:  # the leftmost slot whose top is >= b
                x *= 2
                if tops[x] < b:
                    x += 1
        page[e] = x - cap + 1
        under[e] = tops[x]
        below[e] = head[b]
        head[b] = e
        _set_top(tops, x, b)
        if not i & 1023 and deadline is not None and time.monotonic() >= deadline:
            for p, e in enumerate(arcs[i:], max(page) + 1):
                page[e] = p
            break
    return BookEmbedding(tuple(order), dict(zip(g.edges, page)), max(page, default=0))


def _set_top(tops: list[int], x: int, top: int) -> None:
    """Set leaf x of the max-tree `tops` to `top`, and climb while the
    maximum changes."""
    tops[x] = top
    while x > 1:
        if tops[x ^ 1] > top:
            top = tops[x ^ 1]
        x >>= 1
        if tops[x] == top:
            return
        tops[x] = top


def embed_ktree(g: Graph, cert: KTreeCertificate) -> BookEmbedding:
    """Embed a k-tree on at most k+1 pages (Ganley-Heath), guided by its
    certificate, in O(nk).

    Spine: the base clique in id order, then the certificate's bag tree (bag
    i is addition i's clique plus its vertex, hung from its parent bag, see
    `KTreeCertificate._parent_bags`) walked depth-first, children by index.
    Each added vertex v goes immediately after u0, the leftmost member of
    its clique C.  Inserting never changes the order of placed vertices, so
    each bag keeps its members in spine order; C lies in its parent bag, so
    in the parent's order it starts with u0, and the child's order is
    [u0, v] + the rest of C.  The spine is a linked list, so each addition
    costs O(k).

    Pages: the base vertices get colours 0..k in id order, and each added
    vertex the one colour its clique lacks, a proper (k+1)-colouring.  Each
    edge goes on page 1 + the colour of its older endpoint (the base is aged
    in id order, each added vertex by when the walk places it), so colour
    c's page holds the edges from colour-c vertices to their younger
    neighbours.  The walk records only each vertex's colour and age; the
    page map is built after it over `g.edges`, so its keys are the graph's
    own tuples, and bags are kept as tuples of ints.  C is its parent bag
    less one member, which the sums name, as they name v's colour.

    Why no page has a crossing, on any valid tree: the argument uses only
    that each clique lies in its parent bag.  Inserting never reorders
    placed vertices, so only a new vertex's edges can create one.
    Invariant: for every bag whose subtree is being placed, with members
    w0, ..., wk in spine order, and every a < b, no edge on w_b's page has
    exactly one endpoint strictly between w_a and w_b, unless it ends at
    w_b.  The base satisfies it: w_b's page holds only edges from w_b to
    later base vertices.  When v joins right after u0, its edge to u0 spans
    no vertex, and its edge to w_b, on w_b's page, could cross only an edge
    the invariant for (u0, w_b) rules out.  The child bag [u0, v, ...]
    inherits the invariant: pairs inside C keep it (v's edge on w_b's page
    ends at w_b), (u0, v) spans nothing, and (v, w_b) spans what (u0, w_b)
    spans.  A bag keeps it while its subtree is placed: a child's clique
    misses one bag member, so it lands right after w0 or w1, and its
    subtree stays in that gap, as each bag starts [u0, v].  A bag lies in
    its parent plus its own vertex, so a descendant's neighbours (its
    clique, and the vertices whose clique holds it) are bag members or
    descendants in its own gap.  Each interval (w_a, w_b) holds a whole gap
    or none of it, and w_b is the bag's only member of its colour, so a
    descendant's edge on w_b's page stays inside its gap or ends at w_b.

    Colour k's page is unused when no vertex of colour k has a younger
    neighbour (always for n = k+1), so `page_count` counts the pages in use.
    Raises InvalidCertificate when the certificate does not replay to g.
    """
    if not cert.is_valid_for(g):
        raise InvalidCertificate("certificate does not replay to this graph")
    parents = cert._parent_bags
    k = cert.k
    base = sorted(cert.base_clique)
    children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for i, p in enumerate(parents, 1):
        children[p].append(i)

    nxt = [-1] * g.n
    colour = [0] * g.n
    age = [0] * g.n  # when each vertex was placed: base in id order, then the walk
    for c, u in enumerate(base):
        colour[u] = age[u] = c
        if c:
            nxt[base[c - 1]] = u
    members: list[tuple[int, ...]] = [tuple(base)] + [()] * len(parents)
    all_colours = k * (k + 1) // 2
    placed = k + 1
    stack = children[0][::-1]
    while stack:
        b = stack.pop()
        v, clique = cert.additions[b - 1]
        up = members[parents[b - 1]]
        gone = up.index(sum(up) - sum(clique))  # the one parent member C lacks
        u0, *rest = up[:gone] + up[gone + 1:]
        nxt[v], nxt[u0] = nxt[u0], v
        members[b] = (u0, v, *rest)
        colour[v] = all_colours - sum(colour[u] for u in clique)
        age[v] = placed
        placed += 1
        stack.extend(children[b][::-1])

    # each edge on page 1 + the colour of its older end, keyed by g's own tuples
    pages = dict(zip(g.edges, [colour[u] + 1 if age[u] < age[v] else colour[v] + 1
                               for u, v in g.edges]))
    order = []
    v = base[0]
    while v >= 0:
        order.append(v)
        v = nxt[v]
    return BookEmbedding(tuple(order), pages, len(set(pages.values())))
