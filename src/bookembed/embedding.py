"""Book embeddings: a circular vertex order plus a page per edge.

Two edges on the same page conflict when their chords cross, i.e. when
exactly one endpoint of one edge lies on the open arc strictly between the
other edge's endpoints.  Cutting the circle anywhere turns that into a plain
interval-interleaving test (`crossing_masks`), and a page is non-crossing iff
its intervals nest like parentheses, which one stack sweep decides
(`_push_arc`).

The sweeps are the hot path of every embedder and of validation, so they
hold no per-edge tuples: each arc is one packed int key, sorted as ints, and
each page's stack holds plain right ends.  Ints are not tracked by the
cyclic garbage collector, so long sweeps do not set off its collections.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Sequence

from .errors import InvalidOrder
from .graph import Graph, _JSONFormat, _norm_edge, _require_ints


@dataclass(frozen=True, eq=True)
class BookEmbedding(_JSONFormat):
    """Circular order, edge -> page map (pages numbered 1..page_count)."""

    order: tuple[int, ...]
    pages: dict[tuple[int, int], int]
    page_count: int

    def pages_used(self) -> int:
        return len(set(self.pages.values()))

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.order),
            "pages": [[u, v, p] for (u, v), p in sorted(self.pages.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BookEmbedding":
        order, rows = data["order"], data["pages"]
        _require_ints(order, "vertex ids")
        _require_ints([x for row in rows for x in row], "page entries")
        pages = {_norm_edge(u, v): p for u, v, p in rows}
        if len(pages) < len(rows):
            raise ValueError("two page rows name the same edge")
        page_count = max(pages.values(), default=0)
        return cls(order=tuple(order), pages=pages, page_count=page_count)


@dataclass(frozen=True)
class ValidationResult:
    """ok iff there is no finding and no same-page crossing.

    `finding` reports structural problems (bad order, wrong edge coverage,
    page numbers out of range); `first_conflict` reports the first same-page
    crossing pair met in a deterministic sweep.
    """

    ok: bool
    pages_used: int
    first_conflict: tuple[tuple[int, int], tuple[int, int]] | None = None
    finding: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def crosses(order: Sequence[int], e: tuple[int, int], f: tuple[int, int]) -> bool:
    """True iff chords e and f cross when the vertices sit on a circle in
    this order (edges sharing an endpoint never cross).  Raises InvalidOrder
    unless `order` lists distinct non-negative ints, the four ends included.
    The ends are mapped to their positions, so the cost is the order's
    length, whatever its largest id."""
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) < len(order) or not all(type(v) is int and v >= 0 for v in order):
        raise InvalidOrder("order must list distinct non-negative int vertex ids")
    for v in (*e, *f):
        if type(v) is not int or v not in pos:
            raise InvalidOrder(f"vertex {v!r} is not in the order")
    return crossing_masks([(pos[u], pos[v]) for u, v in (e, f)], range(len(order)))[0] != 0


def _push_arc(stack: list[int], a: int, b: int) -> bool:
    """Push arc a < b onto one page's stack of open arcs.

    Arcs must arrive sorted by (a, -b).  A page is non-crossing iff its arcs
    nest like parentheses, so arcs still open at a are nested and only the
    innermost one can cross the new arc.  Pops arcs closed by a, then fails,
    leaving the crossing arc on top, iff the top's right end lies strictly
    inside (a, b).  Stack entries are right ends alone, plain ints; a caller
    that must name the crossing arc recovers it from its own input.
    """
    while stack and stack[-1] <= a:
        stack.pop()
    if stack and stack[-1] < b:
        return False
    stack.append(b)
    return True


def _is_permutation(order: Sequence, n: int) -> bool:
    """Whether `order` lists 0..n-1, each once, as ints."""
    # ints first: sorted() raises on mixed types, and 0.0 == 0 is no index
    return all(type(v) is int for v in order) and sorted(order) == list(range(n))


def _check_order(g: Graph, order: Sequence[int]) -> None:
    """Raise InvalidOrder unless `order` is a permutation of g's vertices."""
    if not _is_permutation(order, g.n):
        raise InvalidOrder(f"order is not a permutation of the {g.n} vertices")


def _positions(order: Sequence[int]) -> list[int]:
    """pos[v] is the index of v in `order`, for each v that it lists."""
    pos = [0] * (max(order) + 1 if order else 0)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _arcs(edges: Sequence[tuple[int, int]], order: Sequence[int]) -> list[tuple[int, int]]:
    """Each edge's (left, right) positions under `order`, left < right."""
    pos = _positions(order)
    return [(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges]


def _arc_keys(edges: Iterable[tuple[int, int]], order: Sequence[int]) -> list[int]:
    """Each edge's arc a < b under `order` as one int, a*n + (n-1-b), so that
    sorting the keys sorts the arcs by (a, -b), the order `_push_arc` needs;
    divmod(key, n) gives back (a, n-1-b)."""
    n = len(order)
    pos = _positions(order)
    return [a * n + (n - 1 - b) if (a := pos[u]) < (b := pos[v]) else b * n + (n - 1 - a)
            for u, v in edges]


def crossing_masks(edges: Sequence[tuple[int, int]], order: Sequence[int]) -> list[int]:
    """Crossing graph over `edges` as adjacency bitmasks under `order`: bit j
    of masks[i] says edges i and j cross.  This is the package's one
    crossing kernel outside the brute-force reference; the solver fills its
    orders left to right and reads each new arc's crossings off the arcs
    that cover its left end.

    No pair is tested.  Bit j of lpre[x] (rpre[x]) says arc j's left (right)
    end lies before position x.  Arc (c, d) crosses (a, b) iff
    a < c < b < d or c < a < d < b: its left end in a+1..b-1 and its right
    end past b, or its left end before a and its right end in a+1..b-1.
    Each range is the difference of two prefixes, so the masks cost
    O(n + m) big-int operations."""
    arcs = _arcs(edges, order)
    n = len(order)
    lat, rat = [0] * n, [0] * n  # the arcs whose left (right) end is at x
    for i, (a, b) in enumerate(arcs):
        lat[a] |= 1 << i
        rat[b] |= 1 << i
    lpre = [0, *accumulate(lat, or_)]
    rpre = [0, *accumulate(rat, or_)]
    every = (1 << len(arcs)) - 1
    return [(lpre[b] ^ lpre[a + 1]) & (every ^ rpre[b + 1]) | lpre[a] & (rpre[b] ^ rpre[a + 1])
            for a, b in arcs]


def validate_embedding(g: Graph, emb: BookEmbedding) -> ValidationResult:
    """Check an embedding against its graph; never raises.

    Structural problems (a page map that is no mapping, order not a
    permutation of the vertex set, page keys other than exactly the edge
    set, page numbers outside 1..page_count) come back as ok=False with a
    `finding`.  Otherwise each page's arcs are swept left to right with a
    stack of open arcs, and the first crossing pair met, if any, is
    reported as (open arc's edge, new arc's edge).

    The sweep order is (page, left end, -right end); each arc is one int
    key, p*n*n + a*n + (n-1-b) for an arc a < b on page p, so the sort
    compares ints and the sweep makes no per-edge objects.  The failing
    pair's edges are read back off the keys and `order` only on failure.

    Linear apart from sorting the arcs.  The keys must be the graph's m
    edges as they are, pairs (u, v) of ints with u < v, and are normalized
    into a set only to name what differs; page numbers are type-checked per
    edge, range-checked once per distinct page, and sorted only to name the
    first one out of range.
    """
    try:
        pages = dict(emb.pages)
    except (TypeError, ValueError):
        kind = type(emb.pages).__name__
        return ValidationResult(
            False, 0, finding=f"page map is not a mapping from edges to pages (got {kind})"
        )
    page_set = _distinct(pages.values())
    used = len(page_set)
    try:
        order = tuple(emb.order)
    except TypeError:
        order = None
    if order is None or not _is_permutation(order, g.n):
        return ValidationResult(False, used, finding="order is not a permutation of the vertices")
    # m distinct keys that hold every edge are the edge set; (0, True) and
    # (0, 1.0) equal (0, 1) and hash like it, so their ids' types are read
    if not (len(pages) == g.m and all(map(pages.__contains__, g.edges))
            and all(type(u) is int is type(v) for u, v in pages)):
        bad = next((e for e in pages if not _is_vertex_pair(e)), None)
        if bad is not None:
            return ValidationResult(
                False, used, finding=f"page key {bad!r} is not a pair of vertex ids"
            )
        got = {_norm_edge(u, v) for u, v in pages}
        missing = sorted(set(g.edges) - got)
        extra = sorted(got.difference(g.edges))
        detail = []
        if missing:
            detail.append(f"uncovered edges {missing[:3]}")
        if extra:
            detail.append(f"unknown edges {extra[:3]}")
        if not detail:  # a key (v, u) with u < v, naming its edge once or twice
            e = next(e for e in pages if e[0] > e[1])
            detail.append(f"page key {e!r} is not an edge (u, v) with u < v")
        return ValidationResult(False, used, finding="; ".join(detail))
    # the set holds one of 1, 1.0 and True, so each value's type is read
    page_count = emb.page_count
    if not (all(type(p) is int for p in pages.values())
            and all(_is_page(p, page_count) for p in page_set)):
        e, p = next((e, p) for e, p in sorted(pages.items()) if not _is_page(p, page_count))
        return ValidationResult(
            False, used, finding=f"edge {e} on page {p!r}, outside 1..{page_count}"
        )

    # page p's arcs key p*n*n + `_arc_keys`, so one sort orders by (p, a, -b)
    n = g.n
    nn = n * n
    keys = sorted([p * nn + x for x, p in zip(_arc_keys(pages, order), pages.values())])
    page, stack = None, []
    for key in keys:
        p, ab = divmod(key, nn)
        if p != page:
            page, stack = p, []
        a, rb = divmod(ab, n)
        if not _push_arc(stack, a, n - 1 - rb):
            return ValidationResult(False, used, first_conflict=_open_and_new(
                keys, key, stack[-1], order))
    return ValidationResult(True, used)


def _open_and_new(keys: list[int], key: int, d: int,
                  order: Sequence[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The failing pair of `validate_embedding`'s sweep as (open arc's edge,
    new arc's edge), read back off the sorted keys.  The new arc is `key`'s,
    and the open arc is the stack's top, which ends at d.  Only an arc with
    a left end at or past d pops an arc ending at d, and every arc swept so
    far starts before d, so each earlier arc on this page that ends at d is
    still stacked, and the top is the last of them: the nearest key before
    `key` on the same page with right end d."""
    n = len(order)
    nn = n * n

    def edge(x: int) -> tuple[int, int]:
        a, rb = divmod(x % nn, n)
        return _norm_edge(order[a], order[n - 1 - rb])

    page = key // nn
    i = keys.index(key) - 1
    while not (keys[i] // nn == page and n - 1 - keys[i] % n == d):
        i -= 1
    return edge(keys[i]), edge(key)


def _distinct(values) -> set | list:
    """The distinct page values, as a set, or as a list when one is
    unhashable (such a value is no page, and the range check reports it)."""
    try:
        return set(values)
    except TypeError:
        out: list = []
        for x in values:
            if x not in out:
                out.append(x)
        return out


def _is_vertex_pair(e: object) -> bool:
    return isinstance(e, tuple) and len(e) == 2 and all(type(x) is int for x in e)


def _is_page(p: object, page_count: int) -> bool:
    return type(p) is int and 1 <= p <= page_count


def density_lower_bound(g: Graph) -> int:
    """Fewest pages the edge count alone forces: 0 without edges, else
    max(1, ceil((m - n) / (n - 3))), and 1 when n < 4.

    The n edges joining spine neighbours cross nothing, and one page holds
    at most n - 3 further non-crossing chords of the n-gon (a triangulated
    polygon).  So p pages hold at most n + p(n - 3) edges (Bernhart and
    Kainen, JCTB 1979), and for n >= 4 a graph with m edges needs
    p >= (m - n) / (n - 3).  On K_n this is ceil(n / 2), the exact value.
    Graphs with n < 4 are outerplanar, so one page is both necessary and
    enough once there is an edge.  Raises ValueError on the empty graph.
    """
    n, m = g.n, g.m
    if n < 1:
        raise ValueError("needs at least one vertex")
    if m == 0:
        return 0
    if n < 4:
        return 1
    return max(1, -(-(m - n) // (n - 3)))


def crossing_clique_lower_bound(g: Graph, order: Sequence[int]) -> int:
    """Largest set of pairwise-crossing edges under this order: a lower bound
    on the pages any assignment needs *for this order*.  Raises InvalidOrder
    when `order` is not a permutation of the vertices.

    Exact, with no crossing graph built.  Arcs (a, b) and (c, d) with a < c
    cross iff a < c < b < d.  So a pairwise-crossing set sorted by left end
    has strictly increasing left ends and strictly increasing right ends,
    and its last left end s lies before every right end.  Conversely, arcs
    with a <= s < b whose left and right ends both strictly increase cross
    pairwise.  So the answer is the best over the left ends s of the longest
    strictly increasing run of right ends among the arcs with a <= s < b,
    taken in (a, -b) order so that two arcs sharing a left end never both
    enter a run.  One patience sweep with `bisect` finds each run in
    O(m log m), so the bound costs O(n m log m).
    """
    _check_order(g, order)
    return len(_largest_crossing_set(_arcs(g.edges, order)))


def _largest_crossing_set(arcs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """A largest set of pairwise-crossing arcs (a, b), a < b, sorted by a,
    found by the runs of `crossing_clique_lower_bound`."""
    ordered = sorted(arcs, key=lambda ab: (ab[0], -ab[1]))
    best, size = None, 0
    for s in sorted({a for a, _ in ordered}):
        # least right end ending a run of each length, and that run, linked back
        tails: list[int] = []
        runs: list[tuple] = []
        for a, b in ordered:
            if a > s:
                break
            if b > s:
                i = bisect_left(tails, b)
                tails[i:i + 1] = [b]
                runs[i:i + 1] = [((a, b), runs[i - 1] if i else None)]
        if len(runs) > size:
            best, size = runs[-1], len(runs)
    out: list[tuple[int, int]] = []
    while best:
        arc, best = best
        out.append(arc)
    return out[::-1]
