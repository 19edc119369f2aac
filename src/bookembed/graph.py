"""Undirected simple graphs with dense integer vertex ids, plus k-tree machinery.

A k-tree is either the complete graph on k+1 vertices or a k-tree with one more
vertex whose neighborhood is a k-clique of the rest.  Membership is witnessed by
a `KTreeCertificate`: a base clique and an ordered list of simplicial additions
that replays to the graph exactly.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import isqrt
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import InvalidCertificate, InvalidSize, NotAClique


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _json_text(obj: object) -> str:
    """The package's one JSON format: sorted keys and no indentation, which
    lets `json.dumps` use CPython's C encoder (it falls back to the pure-
    Python one whenever `indent` is set)."""
    return json.dumps(obj, sort_keys=True)


# The most vertices a graph read from a file or made by `bookembed gen` may
# have.  A graph keeps one tuple per vertex but is built through one set per
# vertex (building an edgeless one on 10^5 vertices peaks at about 22 MB),
# so the count is checked before anything is allocated for it.
MAX_VERTICES = 10**6


def _check_vertex_count(n: int) -> None:
    if type(n) is int and n > MAX_VERTICES:  # any other n is Graph's to refuse
        raise ValueError(f"vertex count {n} is above the limit of {MAX_VERTICES}")


def _decimal(s: object, what: str, kind: str = "a vertex id") -> int:
    """The one rule for a number written as text: ASCII digits with no leading
    zero, so no two spellings (" 01", "1_0", "\u0661" to `int()`) name one id."""
    if not (isinstance(s, str) and s.isascii() and s.isdecimal() and str(int(s)) == s):
        raise ValueError(f"{what} {s!r} is not {kind} in decimal")
    return int(s)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`pairs` as a dict, refusing a repeated key, where `json.loads` would
    keep the last value; the `object_pairs_hook` of every JSON input."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return out


def _require_ints(values: Iterable, what: str) -> None:
    """The package's one id rule, applied to raw JSON lists before any set or
    dict can merge 1.0 or true into 1: every id is a JSON integer."""
    if not all(type(v) is int for v in values):
        raise TypeError(f"{what} must be integers")


class _JSONFormat:
    """`to_json`/`from_json` over a class's `to_json_dict`/`from_json_dict`."""

    __slots__ = ()

    def to_json(self) -> str:
        return _json_text(self.to_json_dict()) + "\n"

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))


class Graph(_JSONFormat):
    """Immutable simple graph on vertices 0..n-1 with optional string labels.
    The constructor checks every value, with the readers' messages, so a
    graph it builds is written as its readers accept.  Each neighbourhood is
    kept as one sorted tuple of ints, which `edges` is read off."""

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Mapping[int, str] | None = None,
    ) -> None:
        if type(n) is not int:  # nor a bool, nor 3.0
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list = [set() for _ in range(n)]  # each set, then its sorted tuple
        for u, v in edges:
            # one test per edge (a bool is no int here), then the fault named
            if type(u) is not int or type(v) is not int or not (0 <= u < v < n or 0 <= v < u < n):
                _require_ints((u, v), "edge endpoints")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        for v, nb in enumerate(adj):  # in place, so each set is freed as it goes
            adj[v] = tuple(sorted(nb))
        # sorted by (u, v) with u < v, read off the sorted neighbourhoods
        self.edges: tuple[tuple[int, int], ...] = tuple(
            [(u, v) for u, nb in enumerate(adj) for v in nb if v > u]
        )
        lab = dict(labels) if labels else {}
        for v, role in lab.items():
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"label on unknown vertex {v!r}")
            if type(role) is not str:
                raise TypeError(f"label role {role!r} is not a string")
        self.labels = MappingProxyType(lab)  # read-only, so no write skips the checks
        self._adj: tuple[tuple[int, ...], ...] = tuple(adj)

    # ---- basic queries ----

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbours as the graph's own sorted tuple; IndexError unless 0 <= v < n."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v!r} outside 0..{self.n - 1}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        """By bisection in u's sorted tuple: O(log deg u)."""
        if not 0 <= u < self.n:
            return False
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):  # pickle and deepcopy rebuild through the constructor
        return Graph, (self.n, self.edges, dict(self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # ---- serialization ----

    def to_text(self) -> str:
        """Plain text: `n m` header, one `u v` line per edge, label trailer
        lines.  A role must be one token, non-empty and with no whitespace,
        to come back as written; any other raises ValueError."""
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        for v in sorted(self.labels):
            role = self.labels[v]
            if role.split() != [role]:
                raise ValueError(f"label {role!r} on vertex {v} cannot be written as text")
            lines.append(f"# label {v} {role}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """`to_text`'s lines split into `from_json_dict`'s fields; numbers are
        read by `_decimal`, and the values get the JSON reader's rules."""
        rows: list[list[int]] = []
        labels: list[tuple[str, str]] = []
        for raw in text.splitlines():
            parts = raw.split()
            if parts and parts[0].startswith("#"):
                if parts[1:2] == ["label"]:
                    if len(parts) != 4:
                        raise ValueError(f"bad label line: {raw!r}")
                    labels.append((parts[2], parts[3]))
            elif parts:
                if len(parts) != 2:
                    raise ValueError(f"bad {'edge' if rows else 'header'} line: {raw!r}")
                kind = ("edge endpoint", "a vertex id") if rows else ("header token", "a count")
                rows.append([_decimal(t, *kind) for t in parts])
        if not rows:
            raise ValueError("empty graph text")
        (n, m), edges = rows[0], rows[1:]
        if len(edges) != m:
            raise ValueError(f"header says {m} edges, found {len(edges)}")
        return cls.from_json_dict({"n": n, "edges": edges, "labels": _unique_keys(labels)})

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "labels": {str(v): self.labels[v] for v in sorted(self.labels)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        """Only the rules of a file: the vertex limit, before anything is
        allocated, a JSON object of labels and decimal label keys.  The
        constructor checks the values themselves."""
        n, edges, labels = data["n"], data["edges"], data.get("labels", {})
        _check_vertex_count(n)
        if not isinstance(labels, dict):
            raise TypeError("labels must be a JSON object")
        return cls(n, edges, {_decimal(v, "label key"): role for v, role in labels.items()})


# ---- construction primitives ----


def complete_graph(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, combinations(range(n), 2))


def add_simplicial(g: Graph, clique: Iterable[int], label: str | None = None) -> tuple[Graph, int]:
    """Add a new vertex adjacent to exactly `clique`; returns (graph, new id).

    Raises NotAClique unless the attachment set is pairwise adjacent in g.
    """
    cs = sorted(set(clique))
    if not cs:
        raise NotAClique("attachment clique is empty")
    for v in cs:
        if not (0 <= v < g.n):
            raise ValueError(f"attachment vertex {v} not in graph")
    for a, b in combinations(cs, 2):
        if not g.has_edge(a, b):
            raise NotAClique(f"attachment set {cs} misses edge ({a}, {b})")
    new = g.n
    edges = list(g.edges) + [(v, new) for v in cs]
    labels = dict(g.labels)
    if label is not None:
        labels[new] = label
    return Graph(g.n + 1, edges, labels), new


@dataclass(frozen=True)
class KTreeCertificate:
    """Witness that a graph is a k-tree, and its bag tree.

    `base_clique` lists the k+1 starting vertices; each entry of `additions`
    is (vertex, attachment clique) in construction order.  A clique is a
    tuple or a frozenset of k ids; `random_ktree` and `is_k_tree` hand out
    sorted int tuples, at about a tenth of a frozenset's memory.  Replaying
    the certificate rebuilds the graph edge for edge.  `parents` names each
    addition's parent bag; None keeps `_parent_bags`'s default tree.

    Certificates are immutable values, so the checked walk behind `replay`,
    `is_valid_for`, `decomposition_from_certificate` and `embed_ktree` runs
    once per certificate and its result is kept; a certificate that fails
    the walk raises again on every call.
    """

    k: int
    base_clique: tuple[int, ...]
    additions: tuple[tuple[int, tuple[int, ...] | frozenset[int]], ...]
    parents: tuple[int, ...] | None = None

    def vertex_count(self) -> int:
        return len(self.base_clique) + len(self.additions)

    @cached_property
    def _parent_bags(self) -> tuple[int, ...]:
        """Parent bag of each addition, after every check `replay` documents;
        computed on first access and then kept (the same tuple every time).
        The one rule that picks a bag's parent.

        Bag 0 is the base clique and bag i is addition i's attachment clique
        C plus its vertex.  Its parent is `parents[i - 1]`, a bag index below
        i, or by default the bag of w, the newest member of C.  C must lie in
        the parent bag.  Every bag is a clique, so that is the clique check,
        and by induction each vertex's bags are joined through parents to its
        own bag, so the bags form a smooth width-k decomposition.  For the
        default parent the check is exact: w's older neighbours are w's own
        attachment clique (the whole base, for a base vertex), so C is a
        clique iff it lies in w's bag, and a member outside names a missing
        pair.  O(k) per addition, with no set built: the parent bag's
        members are stamped with i in one dict, and each member of C must
        bear the stamp, which it then turns to -i, so a tuple that repeats
        a member is refused too.  Every vertex named is an int, not a bool,
        so what is built from the certificate is written as readers accept.
        """
        k, adds, base = self.k, self.additions, self.base_clique
        if k < 1:
            raise InvalidCertificate("k must be positive")
        named = chain(base, map(itemgetter(0), adds),
                      chain.from_iterable(map(itemgetter(1), adds)))
        if not set(map(type, named)) <= {int}:
            raise InvalidCertificate("certificate vertex ids must be integers")
        if len(base) != k + 1 or len(set(base)) != k + 1:
            raise InvalidCertificate("base clique must have k+1 distinct vertices")
        given = self.parents
        if given is not None and len(given) != len(adds):
            raise InvalidCertificate(f"{len(given)} parents for {len(adds)} additions")
        bag_of = dict.fromkeys(base, 0)
        stamp = dict.fromkeys(base, 0)
        parents: list[int] = []
        for i, (v, clique) in enumerate(adds, 1):
            if v in bag_of:
                raise InvalidCertificate(f"vertex {v} added twice")
            if len(clique) != k:
                raise InvalidCertificate(f"attachment clique for {v} must have size {k}")
            try:
                newest = max(map(bag_of.__getitem__, clique))
            except KeyError:
                raise InvalidCertificate(
                    f"attachment clique for {v} uses unplaced vertices") from None
            parent = newest if given is None else given[i - 1]
            if type(parent) is not int or not 0 <= parent < i:
                raise InvalidCertificate(f"parent of {v} is {parent!r}, not a bag in 0..{i - 1}")
            w, below = adds[parent - 1] if parent else (base[0], base)  # bag 0 is the base
            for u in below:
                stamp[u] = i
            stamp[w] = i
            for u in clique:
                if stamp[u] != i:
                    raise self._misfit(v, clique, parent)
                stamp[u] = -i
            bag_of[v] = i
            stamp[v] = 0
            parents.append(parent)
        if bag_of.keys() != set(range(len(bag_of))):
            raise InvalidCertificate("certificate vertex ids are not dense 0..n-1")
        return tuple(parents)

    def _misfit(self, v: int, clique, parent: int) -> InvalidCertificate:
        """The refusal of addition v, whose clique repeats a member or has
        one outside its parent bag."""
        if len(set(clique)) < len(clique):
            return InvalidCertificate(f"attachment clique for {v} repeats a vertex")
        if self.parents is not None:
            return InvalidCertificate(f"attachment clique for {v} is outside bag {parent}")
        w, below = self.additions[parent - 1]  # a default parent 0 holds every member
        a, b = _norm_edge(min(set(clique).difference(below, (w,))), w)
        return InvalidCertificate(f"attachment set for {v} is not a clique: missing ({a}, {b})")

    def _edges(self) -> Iterator[tuple[int, int]]:
        """The edges the certificate replays to, unchecked and unnormalized:
        the base pairs, then (u, v) for each addition v and each u in its
        clique."""
        yield from combinations(self.base_clique, 2)
        for v, clique in self.additions:
            for u in clique:
                yield u, v

    def replay(self) -> Graph:
        """Rebuild the graph this certificate describes.

        Raises InvalidCertificate if any step is malformed (wrong clique size,
        unknown attachment vertex, attachment set not a clique so far, or a
        non-dense vertex id space).
        """
        self._parent_bags  # the checked walk; raises on a malformed step
        return Graph(self.vertex_count(), self._edges())

    def is_valid_for(self, g: Graph) -> bool:
        """True iff replaying reproduces g's vertex set and edges exactly.
        O(nk), with no edge set built.

        Once `_parent_bags` has passed, the certificate's edges are distinct:
        the base pairs, and for each addition its k edges from a new vertex
        to older ones.  So they number exactly ktree_edge_count(n, k).  If
        each of them is an edge of g and g has that many edges, the two
        edge sets are equal.  For each addition v, one mark array over the
        vertices takes v on each of v's neighbours, and each of the k
        members of its clique must bear it: O(k + deg v), and the degrees
        sum to 2m; this beat a bisection per edge, a set per addition and
        a frozenset intersection.  A base vertex u is no neighbour of
        itself, so it sees the rest of the base iff k base vertices are its
        neighbours.
        """
        try:
            self._parent_bags
        except InvalidCertificate:
            return False
        n, k = self.vertex_count(), self.k
        if n != g.n or g.m != ktree_edge_count(n, k):
            return False
        adj = g._adj
        base = frozenset(self.base_clique)
        if not all(len(base.intersection(adj[u])) == k for u in base):
            return False
        mark = [-1] * n
        for v, clique in self.additions:
            for u in adj[v]:
                mark[u] = v
            for u in clique:
                if mark[u] != v:
                    return False
        return True


def ktree_edge_count(n: int, k: int) -> int:
    """Edge count of any k-tree on n vertices: k*n - k*(k+1)/2."""
    if k < 1:
        raise InvalidSize("k must be positive")
    if n < k + 1:
        raise InvalidSize(f"a {k}-tree needs at least {k + 1} vertices, got {n}")
    return k * n - k * (k + 1) // 2


def is_k_tree(g: Graph, k: int | None = None) -> KTreeCertificate | None:
    """Recognize k-trees by greedy elimination; None if g is not one.

    Without k, the edge count names the one width that can fit: m = kn -
    k(k+1)/2 rises strictly for k in 1..n-1, so at most one k gives m, the
    smaller root of k^2 - (2n-1)k + 2m, an integer if any fits.  Its
    discriminant (2n-1)^2 - 8m is positive, since m <= n(n-1)/2.

    Removes the lowest-id vertex of degree exactly k, n-k-1 times, and
    returns the reversed removals on the k+1 vertices left as a certificate
    if its checked walk (`_parent_bags`, then kept for `is_valid_for`,
    `decomposition_from_certificate` and `embed_ktree`) passes.  In a k-tree
    every degree-k vertex is simplicial and removing it leaves a k-tree, so
    every k-tree gets through.  The removals take k edges each, which leaves
    k(k+1)/2 edges on the k+1 vertices left, so a certificate that passes
    the walk replays to g, and a graph that is not a k-tree fails the walk.
    Elimination keeps one int array of live degrees over g's own adjacency,
    with -1 marking a removed vertex, so no neighbourhood is copied; a
    removed vertex's live neighbours are read off its sorted adjacency once,
    and that sorted int tuple is its attachment clique.
    """
    n = g.n
    if k is None:
        b = 2 * n - 1
        k = max(1, (b - isqrt(b * b - 8 * g.m)) // 2)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 1 or g.m != ktree_edge_count(n, k):
        return None
    adj = g._adj
    deg = [len(nb) for nb in adj]  # live neighbours; -1 once removed
    heap = [v for v in range(n) if deg[v] == k]
    heapq.heapify(heap)
    removals: list[tuple[int, tuple[int, ...]]] = []
    while len(removals) < n - k - 1:
        while heap and deg[heap[0]] != k:
            heapq.heappop(heap)
        if not heap:
            return None
        v = heapq.heappop(heap)
        nbrs = tuple([u for u in adj[v] if deg[u] >= 0])
        removals.append((v, nbrs))
        deg[v] = -1
        for u in nbrs:
            deg[u] -= 1
            if deg[u] == k:
                heapq.heappush(heap, u)
    rest = tuple(v for v in range(n) if deg[v] > 0)  # short only if g is no k-tree
    cert = KTreeCertificate(k=k, base_clique=rest, additions=tuple(reversed(removals)))
    try:
        cert._parent_bags
    except InvalidCertificate:
        return None
    return cert
