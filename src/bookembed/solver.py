"""Exact book thickness for small graphs.

Facts of Bernhart and Kainen (JCTB 1979) come before any search.  The
book thickness of a graph is the maximum over its blocks (biconnected
components and bridges), so each block is solved on its own and the
witnesses are spliced at the cut vertices.  One page holds exactly the
outerplanar graphs, so every block first meets an O(m log m) test on its
own edges (`_outerplanar_cycle`) that returns its one-page witness or shows
it needs more.  p pages hold at most n + p(n-3) edges, so such a block
starts from that edge bound (`density_lower_bound`) or 2.  When the bound
is ceil(n/2), their zigzag pages of K_n meet it, so a complete block, or
one that misses few enough edges, is settled with no search.  When it is 2
and first-fit needs more, a planarity test (`_planar`) raises a non-planar
block to 3 with no search, since two pages are a plane drawing.

Each remaining block's circular orders are searched depth-first, filling
positions 1..n-1 left to right with a maximum-degree vertex pinned at
position 0.  Reflecting an order about position 0 reverses positions
1..n-1, so keeping only the orders that place two fixed other vertices x, y
with x first skips one of each reflected pair, as soon as y comes up, and
exactly (n-1)!/2 orders are considered.

Every node carries a partial crossing graph that each completion of its
prefix contains, and a prefix is abandoned as soon as that graph already
needs as many pages as the best embedding found so far.  Its nodes are the
completed edges, whose crossings are final once both endpoints are placed,
plus one node per placed vertex that still has an unplaced neighbour: such
a pending edge will end to the right of every completed arc, so it crosses
exactly the completed arcs that strictly contain its placed endpoint,
whatever order the rest takes (see `_Prefix.needs`).  At a leaf the order's
exact page count is the chromatic number of its crossing graph, computed by
backtracking coloring seeded with a maximal pairwise-crossing set, which is
the one test of a clique of completed arcs against the cap.

Whether two pages can still suffice is kept up to date in a parity
union-find, where two placed vertices that share two unplaced neighbours
are also linked (`_Prefix.needs` argues both).  Both searches, the order
search and the leaf coloring, backtrack the same way: each step snapshots
the state it changes, and undoing the step restores the snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .embedding import BookEmbedding, _check_order, crossing_masks, density_lower_bound
from .graph import Graph, _norm_edge
from .heuristics import first_fit_pages


class SolverStatus(Enum):
    EXACT = "exact"
    LOWER_BOUND_ONLY = "lower-bound-only"
    TIMEOUT = "timeout"


@dataclass
class SolverOptions:
    max_pages: int | None = None  # stop distinguishing values above this
    time_budget: float | None = None  # seconds of wall clock
    node_limit: int | None = None  # search nodes (placements)

    def __post_init__(self) -> None:
        # zero is legal (a zero budget stops at once); negative, NaN or a non-int cap is not
        for name in ("max_pages", "time_budget", "node_limit"):
            value = getattr(self, name)
            if value is not None and name != "time_budget" and type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be at least 0, got {value}")


@dataclass
class SolverReport:
    status: SolverStatus
    book_thickness: int  # exact when status is EXACT, else best upper bound
    lower_bound: int  # always <= true book thickness
    witness: BookEmbedding
    nodes_explored: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return dict(vars(self), status=self.status.value, witness=self.witness.to_json_dict())


# ---- coloring engine ----


def _greedy_clique_mask(masks: list[int], universe: int) -> int:
    # grow from the highest-degree vertex, always adding the candidate with
    # most neighbors inside the shrinking candidate set; ties to lowest id
    clique = 0
    cand = universe
    while cand:
        best_v, best_deg = -1, -1
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = (masks[v] & cand).bit_count()
            if d > best_deg:
                best_v, best_deg = v, d
        clique |= 1 << best_v
        cand &= masks[best_v]
    return clique


def _fewest_colours(masks: list[int], cap: int | None = None,
                    deadline: float | None = None) -> tuple[int, list[int]] | None:
    """Fewest colours p < cap (no cap when None) that properly colour the
    conflict graph, with such a colouring; None if it needs cap or more, or
    once the clock, read every 1024 frames, passes `deadline`.

    For each p from the size of a greedy clique, the seed, which keeps
    colours 0,1,2,..., a backtracking search colours the most saturated
    vertex next and opens fresh colours one at a time.  `forb[v]` holds the
    colours v's coloured neighbours use.  The search runs on a stack of
    frames, one per coloured vertex past the seed: the vertex, the colours
    it has left to try, the `forb` it was chosen under, and the highest
    colour used before it.  Trying a colour copies that `forb`, so
    backtracking restores it by dropping the copy, and a failed p leaves
    only the seed coloured.

    The next vertex has the largest (saturation, degree, -v), packed into one
    int as sat << 2L | deg << L | (m - v) with L = m.bit_length(): deg < m
    and 0 < m - v <= m both fit in L bits, so the int orders like the tuple,
    and its low bits give v back."""
    m = len(masks)
    clique = _greedy_clique_mask(masks, (1 << m) - 1)
    seed = [v for v in range(m) if clique >> v & 1]
    color = [-1] * m
    low = m.bit_length()
    rank = [mk.bit_count() << low | (m - v) for v, mk in enumerate(masks)]
    low_bits, sat_shift = (1 << low) - 1, 2 * low

    def paint(forb: list[int], v: int, c: int) -> None:
        color[v] = c
        mk = masks[v]
        while mk:
            forb[(mk & -mk).bit_length() - 1] |= 1 << c
            mk &= mk - 1

    seeded = [0] * m
    for c, v in enumerate(seed):
        paint(seeded, v, c)
    frames = 0
    p = len(seed)  # 0 only when there is nothing to colour
    while cap is None or p < cap:
        full = (1 << p) - 1
        forb, used, stack = seeded, len(seed) - 1, []
        while len(seed) + len(stack) < m:
            frames += 1
            if deadline is not None and frames & 1023 == 1 and time.monotonic() >= deadline:
                return None
            best = 0
            for v in range(m):
                if color[v] < 0:
                    key = forb[v].bit_count() << sat_shift | rank[v]
                    if key > best:
                        best = key
            v = m - (best & low_bits)
            # no colour above used + 1: fresh colours open one at a time
            stack.append([v, full & ~forb[v] & ((2 << (used + 1)) - 1), forb, used])
            while stack and not stack[-1][1]:  # out of colours: back up
                color[stack.pop()[0]] = -1
            if not stack:
                break
            frame = stack[-1]
            v, left, saved, used = frame
            c = (left & -left).bit_length() - 1
            frame[1] = left & (left - 1)
            forb = saved[:]
            paint(forb, v, c)
            used = max(used, c)
        else:
            return p, color
        p += 1
    return None


def min_pages_for_order(g: Graph, order: Sequence[int]) -> int:
    """Fewest pages any assignment needs under this fixed circular order:
    the chromatic number of the order's crossing graph.  Exact.  Raises
    InvalidOrder when `order` is not a permutation of the vertices."""
    _check_order(g, order)
    return _fewest_colours(crossing_masks(g.edges, order))[0]


# ---- order search ----


class _Search:
    """The state of one solve.  The budget, the page cap and the node count
    are shared by all blocks; `reset` starts each block from its incumbent
    and its sound lower bound."""

    __slots__ = ("best", "witness", "lb", "stop", "budget_hit", "nodes", "deadline",
                 "node_limit", "max_pages")

    def __init__(self, opts: SolverOptions, start: float) -> None:
        self.deadline = None if opts.time_budget is None else start + opts.time_budget
        self.node_limit = opts.node_limit
        self.max_pages = opts.max_pages
        self.nodes = 0
        self.budget_hit = False

    def reset(self, best: int, witness: BookEmbedding, lb: int) -> None:
        self.best = best
        self.witness = witness
        self.lb = lb
        self.stop = best <= lb

    def cap(self) -> int:
        # prune prefixes that already need at least this many pages
        return self.best if self.max_pages is None else min(self.best, self.max_pages + 1)

    def lower(self) -> int:
        """The block's sound lower bound once its search is over: the root
        bound if the budget ran out with the gap still open, more than
        max_pages if no order fits within max_pages, else the best found,
        which the search proved optimal."""
        if self.budget_hit and self.best > self.lb:
            return self.lb
        if self.max_pages is not None and self.best > self.max_pages:
            return max(self.max_pages + 1, self.lb)
        return self.best

    def offer(self, pages: int, witness: BookEmbedding) -> None:
        if pages < self.best:
            self.best = pages
            self.witness = witness
            if pages <= self.lb:
                self.stop = True

    def check_budget(self) -> None:
        if (self.node_limit is not None and self.nodes >= self.node_limit) or (
            self.deadline is not None and time.monotonic() >= self.deadline
        ):
            self.budget_hit = True
            self.stop = True


class _Prefix:
    """A spine order filled left to right at positions 0..d, and the partial
    crossing graph that every completion of it contains.

    `arcs` and `masks` hold the completed edges (both endpoints placed): arc
    t's (left, right) positions and its crossings as a bitmask over arcs.
    Bit t of `cover[a]` says arc t strictly contains position a, and bit a
    of `covered` says some arc does.  Bit v of `free` says vertex v is
    unplaced, `nbr[v]` is v's neighbour mask, and bit a of `pend` says the
    vertex at position a still has an unplaced neighbour.

    The two-page verdict is a parity union-find over one node per position
    (its hub) and one per arc (node n + t), with no path compression: `up`,
    `par` (parity to the parent), and `odd` once a link closes an odd
    cycle.  The lower-id root stays root, so a fresh arc node goes under
    the component it joins.  `place` snapshots every list it changes and
    `unplace` restores the snapshot, so no node rebuilds any of it.
    """

    __slots__ = ("nbr", "order", "pos", "arcs", "masks", "cover", "covered", "free", "pend",
                 "up", "par", "odd")

    def __init__(self, g: Graph) -> None:
        n = g.n
        self.nbr = [sum(1 << u for u in nb) for nb in g._adj]
        self.order = [-1] * n
        self.pos = [-1] * n
        self.arcs: list[tuple[int, int]] = []
        self.masks: list[int] = []
        self.cover = [0] * n
        self.covered = 0
        self.free = (1 << n) - 1
        self.pend = 0
        nodes = n + len(g.edges)
        self.up = list(range(nodes))
        self.par = [0] * nodes
        self.odd = False

    def place(self, v: int, d: int) -> tuple:
        """Put v at position d, the first free one; returns the snapshot
        `unplace` restores.

        Each new arc (a, d) ends at the rightmost position, so it crosses an
        earlier arc (x, y) iff x < a < y: its crossings are cover[a], taken
        before this placement's arcs, which share the endpoint d."""
        pos, cover, nbr = self.pos, self.cover, self.nbr
        arcs, masks = self.arcs, self.masks
        first = len(arcs)
        undo = (first, masks[:], cover[:], self.covered, self.pend,
                self.up[:], self.par[:], self.odd)
        self.order[d] = v
        pos[v] = d
        free = self.free = self.free & ~(1 << v)
        earlier = (1 << first) - 1
        pend, covered = self.pend, self.covered
        placed = nbr[v] & ~free  # v's placed neighbours, lowest id first
        while placed:
            u = (placed & -placed).bit_length() - 1
            placed &= placed - 1
            a = pos[u]
            bit = 1 << len(arcs)
            mk = cover[a] & earlier
            c = mk
            while c:
                masks[(c & -c).bit_length() - 1] |= bit
                c &= c - 1
            arcs.append((a, d))
            masks.append(mk)
            for i in range(a + 1, d):
                cover[i] |= bit
            covered |= (1 << d) - (2 << a)
            if not nbr[u] & free:
                pend &= ~(1 << a)
        if nbr[v] & free:
            pend |= 1 << d
        self.pend = pend
        fresh = covered & ~self.covered & pend
        self.covered = covered
        if not self.odd:
            self._link(first, fresh)
        return undo

    def unplace(self, v: int, undo: tuple) -> None:
        """Undo `place(v, d)`, which returned `undo`."""
        (t, self.masks[:], self.cover[:], self.covered, self.pend,
         self.up[:], self.par[:], self.odd) = undo
        del self.arcs[t:]
        self.pos[v] = -1
        self.free |= 1 << v

    def _differ(self, x: int, others: int) -> bool:
        """Link node x to each node in the bitmask `others` as crossing it:
        on the other side; no verdict depends on which root goes under
        which.  Returns False, with `odd` set, at the first link that closes
        an odd cycle."""
        up, par = self.up, self.par
        p = 0  # x's parity to its root, which x then names
        while up[x] != x:
            p ^= par[x]
            x = up[x]
        while others:
            y = (others & -others).bit_length() - 1
            others &= others - 1
            w = p ^ 1  # the parity between x's root and y's
            while up[y] != y:
                w ^= par[y]
                y = up[y]
            if y == x:
                if w:
                    self.odd = True
                    return False
            elif x < y:
                up[y], par[y] = x, w
            else:
                up[x], par[x] = y, w
                x, p = y, p ^ w
        return True

    def _link(self, first: int, fresh: int) -> None:
        """Add the links of the arcs from `first` on and the forced pairs of
        the pending hubs in `fresh`, whose cover just became nonempty, up to
        the first odd cycle.  Arc t, at (a, d), is node n + t: it crosses its
        earlier crossings and the hubs still pending strictly inside it."""
        n, pend, masks = len(self.order), self.pend, self.masks
        for t in range(first, len(self.arcs)):
            a, d = self.arcs[t]
            if not self._differ(n + t, masks[t] << n | pend & ((1 << d) - (2 << a))):
                return
        order, nbr, free = self.order, self.nbr, self.free
        partners = pend & self.covered
        while fresh:
            i = (fresh & -fresh).bit_length() - 1
            fresh &= fresh - 1
            partners &= ~(1 << i)  # each pair once
            shared = nbr[order[i]] & free
            forced = 0
            c = partners
            while c:
                j = (c & -c).bit_length() - 1
                c &= c - 1
                both = shared & nbr[order[j]]
                if both & (both - 1):
                    forced |= 1 << j
            if not self._differ(i, forced):
                return

    def needs(self, pages: int) -> bool:
        """True when every completion of this prefix needs at least `pages`
        pages: the partial crossing graph has a node (1 page), an edge (2),
        an odd cycle (3), or a greedy clique of `pages` nodes through a hub.
        A leaf's `_fewest_colours` tests the greedy clique of arcs.

        The graph's nodes are the completed edges, with their crossings,
        and one hub per placed vertex u, at position a, with an unplaced
        neighbour.  Any edge (u, w) with w unplaced ends to the right of
        every completed arc (x, y), so it crosses (x, y) iff x < a < y, in
        every completion; the hub stands for all such edges of u, which
        share an endpoint.  So every completion's crossing graph contains
        this graph as a subgraph, and needs at least as many pages.  For
        t >= 3 hubs are pairwise non-adjacent, so a clique holds at most
        one, and a clique through a hub is the hub plus a clique among the
        arcs it crosses.

        For 3 pages the graph also gains forced hub pairs.  Let u1 and u2,
        at positions a1 < a2, both have an unplaced neighbour and a
        nonempty cover, and share two unplaced neighbours x and y.
        Whichever of x and y comes first, (u1, first) crosses (u2, second),
        since a1 < a2 < first < second.  On two pages an arc in a hub's
        cover crosses all of the hub's pending edges, which puts them all
        on the other page: each hub has one page, and the pair's hubs have
        different pages, so the hubs are linked.  With at most one shared
        neighbour no crossing is forced: placing u2's other neighbours
        first, then the shared one, then u1's, crosses none of u2's
        pending edges with u1's.  Common unplaced neighbours only shrink,
        so a pair qualifies exactly when the later of its covers becomes
        nonempty, and is checked then.

        A hub keeps its links once its last neighbour w is placed.  That
        stays sound: (u, w) was one of its pending edges, so on two pages
        the hub's page is the page of arc (u, w).  And it adds nothing: the
        hub's arc links are exactly the crossings of (u, w).  A forced pair
        likewise stops qualifying only once the first shared neighbour x is
        placed, and then arc (u1, x) crosses u2's pending edges and shares
        its crossings, the arcs over u1, with u1's hub.  So the union-find
        verdict is that of the graph on the current prefix.
        """
        t = pages - 1
        if t <= 0:
            return bool(self.masks) or bool(self.pend)
        if t == 1:
            return any(self.masks) or bool(self.pend & self.covered)
        if t == 2:
            return self.odd
        masks, pend = self.masks, self.pend
        return any(pend >> a & 1 and c.bit_count() >= t
                   and _greedy_clique_mask(masks, c).bit_count() >= t
                   for a, c in enumerate(self.cover))


def _search_orders(g: Graph, search: _Search) -> None:
    # runs only for n > 2; the budget is checked after every placement
    n = g.n
    prefix = _Prefix(g)
    order, pos, arcs, masks = prefix.order, prefix.pos, prefix.arcs, prefix.masks
    place, unplace, needs = prefix.place, prefix.unplace, prefix.needs
    root = max(range(n), key=g.degree)
    place(root, 0)
    # of each pair of orders reflected about position 0, exactly one places
    # x before y
    x, y = [v for v in range(n) if v != root][:2]

    def leaf() -> None:
        found = _fewest_colours(masks, search.cap(), search.deadline)
        if found is None:
            search.check_budget()  # marks a colouring the deadline cut off
        else:
            p, colors = found
            pages = {_norm_edge(order[a], order[b]): colors[i] + 1
                     for i, (a, b) in enumerate(arcs)}
            search.offer(p, BookEmbedding(tuple(order), pages, p))

    def dfs(d: int) -> None:
        for v in range(n):
            if pos[v] >= 0 or (v == y and pos[x] < 0):
                continue
            if search.stop:
                return
            undo = place(v, d)
            search.nodes += 1
            search.check_budget()
            if not needs(search.cap()):
                if d == n - 1:
                    leaf()
                else:
                    dfs(d + 1)
            unplace(v, undo)

    dfs(1)


# ---- blocks ----


def _blocks(g: Graph) -> list[tuple[int, list[tuple[int, int]]]]:
    """The blocks (biconnected components and bridges) as (root, edges).

    One iterative Hopcroft-Tarjan pass over a depth-first search with an
    edge stack: a tree edge (u, w) closes the block on top of the stack when
    no back edge from w's subtree climbs above u (low[w] >= disc[u]).  The
    root u is then a cut vertex or the start of the search, and every other
    vertex of the block lies below it, so a block comes out after each block
    that hangs from one of its vertices.  Isolated vertices are in no block.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    neigh = g._adj  # sorted, so the search visits neighbours in id order
    edge_stack: list[tuple[int, int]] = []
    blocks: list[tuple[int, list[tuple[int, int]]]] = []
    clock = 0
    for r in range(n):
        if disc[r] >= 0 or not neigh[r]:
            continue
        disc[r] = low[r] = clock
        clock += 1
        stack = [(r, -1, iter(neigh[r]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(neigh[w])))
                    break
                if w != parent and disc[w] < disc[v]:  # back edge to an ancestor
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = [edge_stack.pop()]
                        while block[-1] != (u, v):
                            block.append(edge_stack.pop())
                        blocks.append((u, block))
    return blocks


def _outerplanar_cycle(edges: list[tuple[int, int]]) -> list[int] | None:
    """A circular order of the block's own vertex ids that puts all its
    `edges` on one page, or None when the block is not outerplanar, at once
    if it has more than the 2n - 3 edges one page holds.  O(m log m).  A
    bridge gets its two ends in id order.

    Mitchell's reduction (IPL 9, 1979): while more than 3 vertices remain,
    remove a vertex v of degree 2, with neighbours a and b, and add ab if it
    is missing.  This keeps a block biconnected (a cut vertex of G - v + ab
    would cut G too), so the 3 vertices left form a triangle.  The removed
    vertices then go back in reverse, each between its a and b, which must
    be consecutive on the cycle built so far.  Each choice follows the ids,
    not a set's layout, so the cycle depends on the block alone.

    A biconnected outerplanar block has a unique Hamiltonian cycle, its
    outer face, and has a vertex of degree 2.  Both edges of a degree-2
    vertex v lie on that cycle, so G - v + ab is again outerplanar, with ab
    on its shortened cycle.  So on an outerplanar block the reduction never
    gets stuck, and by uniqueness each reinsertion finds a and b adjacent.

    A returned cycle needs no check: va and vb span no vertex, and no
    earlier edge gains an endpoint inside another's span.  A step's edges
    are among the previous step's and va, vb, so by induction the cycle puts
    every edge of the block on one page.
    """
    if len(edges) == 1:
        return sorted(edges[0])
    adj: dict[int, set[int]] = {v: set() for e in edges for v in e}
    if len(edges) > 2 * len(adj) - 3:
        return None
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    low = sorted(v for v, nb in adj.items() if len(nb) == 2)
    removed: list[tuple[int, int, int]] = []
    while len(adj) > 3:
        while low and (low[-1] not in adj or len(adj[low[-1]]) != 2):
            low.pop()  # degrees never grow, so a stale entry stays stale
        if not low:
            return None
        v = low.pop()
        a, b = sorted(adj.pop(v))
        removed.append((v, a, b))
        for x, y in ((a, b), (b, a)):
            adj[x].discard(v)
            adj[x].add(y)
            if len(adj[x]) == 2:
                low.append(x)
    x, y, z = sorted(adj)
    nxt = {x: y, y: z, z: x}
    for v, a, b in reversed(removed):
        if nxt[b] == a:
            a, b = b, a
        if nxt[a] != b:
            return None
        nxt[a], nxt[v] = v, b
    order = [x]
    while len(order) < len(nxt):
        order.append(nxt[order[-1]])
    return order


def _planar(block: Graph, deadline: float | None = None) -> bool:
    """Whether a biconnected block is planar, by the face-splitting test of
    Demoucron, Malgrange and Pertuiset (1964).  A non-planar graph contains
    a subdivision of K5 or K3,3 (Kuratowski), so fewer than 5 vertices or 9
    edges is planar.

    Start from a cycle, drawn with its two faces.  A fragment of the drawn
    part H is an edge of G - H with both ends in H, or a component of
    G - V(H) with its edges to H; its contacts are its vertices in H, at
    least two in a biconnected block.  A fragment fits a face whose boundary
    holds all its contacts.  Each step draws a path of a fragment between
    two contacts across a face it fits, preferring a fragment that fits only
    one face, which splits that face in two.  In a biconnected plane graph
    every face is bounded by a cycle, kept as its vertex list.  If some
    fragment fits no face, no plane drawing extends the one of H, and so G
    is not planar.  The theorem of Demoucron et al. is the converse: if G is
    planar, every drawing the rule reaches extends to a drawing of G, so
    the test ends with all of G drawn exactly when G is planar.

    Each step reads the clock against `deadline`, if any, and a test cut off
    by it returns True, which claims nothing.
    """
    n, edges = block.n, block.edges
    if n < 5 or len(edges) < 9:
        return True
    adj = block._adj
    w = adj[0][0]  # the cycle: edge (0, w) and a path from w to 0 without it
    prev = {w: w}
    queue = [w]
    for u in queue:
        for x in adj[u]:
            if x not in prev and (u, x) != (w, 0):
                prev[x] = u
                queue.append(x)
    cycle = [0]
    while cycle[-1] != w:
        cycle.append(prev[cycle[-1]])
    faces = [cycle, cycle[:]]
    on = set(cycle)
    done = {_norm_edge(u, v) for u, v in zip(cycle, cycle[1:] + [0])}
    while len(done) < len(edges):
        if deadline is not None and time.monotonic() >= deadline:
            return True
        frags = [({u, v}, [u, v]) for u, v in edges
                 if u in on and v in on and (u, v) not in done]
        seen = set(on)
        for s in range(n):
            if s in seen:
                continue
            seen.add(s)
            comp = [s]
            for u in comp:
                for x in adj[u]:
                    if x not in seen:
                        seen.add(x)
                        comp.append(x)
            frags.append(({x for u in comp for x in adj[u] if x in on}, comp))
        best = None
        face_sets = [set(f) for f in faces]
        for contacts, part in frags:
            fits = [f for f, fs in zip(faces, face_sets) if contacts <= fs]
            if not fits:
                return False
            if best is None or len(fits) < len(best[0]):
                best = fits, contacts, part
        fits, contacts, path = best
        if path[0] not in on:  # a component: a path from a contact through it
            a = min(contacts)
            inside = set(path)
            x = next(u for u in path if a in adj[u])
            prev = {x: a}
            queue = [x]
            for u in queue:
                b = next((y for y in adj[u] if y in on and y != a), None)
                if b is not None:
                    break
                for y in adj[u]:
                    if y in inside and y not in prev:
                        prev[y] = u
                        queue.append(y)
            path = [b, u]
            while path[-1] != a:
                path.append(prev[path[-1]])
        # the face, turned to start at the path's first end, splits at its last
        face = fits[0]
        i = face.index(path[0])
        f = face[i:] + face[:i]
        j = f.index(path[-1])
        faces.remove(face)
        faces += [f[:j + 1] + path[-2:0:-1], f[j:] + path[:-1]]
        on.update(path)
        done.update(_norm_edge(u, v) for u, v in zip(path, path[1:]))
    return True


def _solve_block(edges: list[tuple[int, int]], search: _Search):
    """Order search on the block with these edges, under the solve's shared
    `search`.  Returns (upper, lower, circular order, page map), with the
    order and pages in the edges' vertex ids.

    Every block first meets `_outerplanar_cycle` on its own edges: a cycle
    makes it EXACT 1 with the cycle as its witness, and None means it needs
    2 pages or more, since one page holds exactly the outerplanar graphs
    (Bernhart and Kainen).  Only such a block is renumbered into a graph of
    its own, and its bound lb is the larger of 2 and its edge bound.

    K_n fits on ceil(n/2) pages (Bernhart and Kainen), so a block whose
    bound lb is ceil(n/2) is EXACT lb with their zigzag incumbent: the
    vertices in local id order, and local edge (u, v) on page
    (u + v) % n // 2 + 1.  Page j + 1 holds the chords whose (u + v) % n
    is 2j or 2j + 1, all of them edges of the path j, j+1, j-1, j+2, j-2,
    ... (mod n), whose sums alternate 2j + 1 and 2j (mod n).  The path
    visits each vertex once, and each step moves one end of the previous
    chord one place outward, so the earlier chords lie within the arc that
    a new chord spans, and no two cross.  The pages run to (n - 1) // 2 + 1,
    which is ceil(n/2) for odd n as for even n, and a block that misses
    edges of K_n only loses chords.  No block fits on fewer than lb pages,
    so the witness uses all of 1..lb.

    Two pages hold only planar graphs (Bernhart and Kainen): with the spine
    drawn as a circle, one page's edges inside it and the other's outside,
    no two edges cross.  So when the edge bound is 2 and the incumbent and
    cap leave 3 or more pages open, a block that `_planar` finds non-planar
    starts from 3.  Such a block is biconnected, since a bridge settles at
    one page, and has m <= 3n - 6 edges, since the edge bound 2 means
    m <= n + 2(n - 3).  Under a one-page cap the test never runs.

    Any other block starts from first-fit under the solve's deadline, and
    an order search starts only while the budget lasts, so a block whose
    first-fit the deadline cut short builds no search state.
    """
    if (cycle := _outerplanar_cycle(edges)) is not None:
        return 1, 1, cycle, {_norm_edge(*e): 1 for e in edges}
    verts = sorted({v for e in edges for v in e})
    local = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), [(local[u], local[v]) for u, v in edges])
    lb = max(2, density_lower_bound(sub))
    if lb == (sub.n + 1) // 2:
        incumbent = BookEmbedding(tuple(range(sub.n)),
                                  {(u, v): (u + v) % sub.n // 2 + 1 for u, v in sub.edges}, lb)
    else:
        incumbent = first_fit_pages(sub, range(sub.n), deadline=search.deadline)
    search.reset(incumbent.page_count, incumbent, lb)
    if lb == 2 < search.cap() and not _planar(sub, search.deadline):
        search.reset(incumbent.page_count, incumbent, 3)
    if search.lb < search.cap():
        search.check_budget()  # an earlier block, first-fit or `_planar` may have spent it
        if not search.stop:
            _search_orders(sub, search)
    w = search.witness  # local ids; verts is sorted, so local u < v maps to u' < v'
    pages = {(verts[u], verts[v]): p for (u, v), p in w.pages.items()}
    return search.best, search.lower(), [verts[v] for v in w.order], pages


def book_thickness_exact(g: Graph, opts: SolverOptions | None = None) -> SolverReport:
    """Exact book thickness: the maximum over the blocks, each solved by
    exhaustive order search with pruning under one shared budget.

    The witness is spliced along the block-cut tree, parents first.  A
    block's order is rotated to start at the vertex it shares with the
    blocks already placed (its root), and its other vertices go in as one
    run right after that vertex, keeping their own page numbers.  No placed
    vertex lies in the new run, so every placed arc either contains the run,
    misses it, or touches it only at the root, and no new arc can cross an
    old one; the rotation keeps the block's own crossings as they were.
    A block that starts a new component opens a new run at the end.

    Budgets never raise: blowing the time or node budget yields status
    TIMEOUT with the best bounds found.  With max_pages set, a graph needing
    more pages comes back LOWER_BOUND_ONLY with lower_bound > max_pages.
    Without a time budget the report is deterministic.
    """
    opts = opts or SolverOptions()
    start = time.monotonic()
    search = _Search(opts, start)
    n = g.n
    upper = lower = 0
    pages: dict[tuple[int, int], int] = {}
    nxt = [-1] * n  # the spliced order as a linked list of runs
    placed = [False] * n
    heads: list[int] = []
    for root, edges in reversed(_blocks(g)):
        b_upper, b_lower, b_order, b_pages = _solve_block(edges, search)
        upper, lower = max(upper, b_upper), max(lower, b_lower)
        pages.update(b_pages)

        i = b_order.index(root)
        if not placed[root]:  # the first block of a component
            heads.append(root)
            placed[root] = True
        prev, tail = root, nxt[root]
        for v in b_order[i + 1:] + b_order[:i]:
            nxt[prev] = v
            prev = v
            placed[v] = True
        nxt[prev] = tail

    order = []
    for v in heads:
        while v >= 0:
            order.append(v)
            v = nxt[v]
    order += [v for v in range(n) if not placed[v]]

    if opts.max_pages is not None and lower > opts.max_pages:
        status = SolverStatus.LOWER_BOUND_ONLY
    elif lower == upper:
        status = SolverStatus.EXACT
    else:
        status = SolverStatus.TIMEOUT
    witness = BookEmbedding(tuple(order), pages, upper)
    return SolverReport(status, upper, lower, witness, search.nodes, time.monotonic() - start)


def is_outerplanar(g: Graph) -> bool:
    """True iff the graph fits on one page (edgeless graphs count): iff
    `_outerplanar_cycle` finds each block's cycle, in O(m log m)."""
    return all(_outerplanar_cycle(edges) is not None for _, edges in _blocks(g))
