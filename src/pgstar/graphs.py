"""Immutable finite simple graphs with 1-based vertex labels.

Vertices are labeled 1..n and vertex subsets are plain frozensets of
labels.  Adjacency is stored as one bitmask per vertex (bit i-1 set when
vertex i is a neighbor), so neighborhood operations cost O(n / wordsize)
and the polynomial engine works on vertex subsets as plain integers; it
finishes K_1200 and a caterpillar with a 2000-vertex spine.

All operations are pure; Graph values may be shared freely across
threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MIS_ENUMERATION_LIMIT = 24


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration, or an input graph, exceeds its
    configured cap."""


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_components(adj: Sequence[int], mask: int) -> list[int]:
    """Components of the subgraph induced by ``mask``, as bitmasks ordered by lowest bit.

    The bit loop is inline, not ``_bits``: the engine calls this per subproblem.
    """
    comps = []
    remaining = mask
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


class Graph:
    """Simple undirected graph on vertices 1..n.

    Construction validates labels, rejects self-loops and deduplicates
    edges; adjacency is symmetric by construction.
    """

    __slots__ = ("_n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) has a label outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self._n = n
        self._adj = tuple(adj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def vertices(self) -> range:
        return range(1, self._n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(i + 1 for i in _bits(self._adj[v - 1]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v - 1].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u - 1] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self._n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                out.append((u + 1, v + 1))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    # -- induced subgraphs ------------------------------------------------

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``.

        Surviving vertices are relabeled 1..k preserving their original
        order.
        """
        kept = sorted(set(keep))
        for v in kept:
            self._check_vertex(v)
        mapping = {old: new for new, old in enumerate(kept, start=1)}
        edges = [
            (mapping[u], mapping[v])
            for u, v in self.edges()
            if u in mapping and v in mapping
        ]
        return Graph(len(kept), edges)

    def delete_closed_neighborhood(self, v: int) -> "Graph":
        """Induced subgraph on V - N[v], relabeled order-preservingly."""
        self._check_vertex(v)
        closed = self._adj[v - 1] | (1 << (v - 1))
        return self.induced_subgraph(
            u for u in self.vertices if not closed >> (u - 1) & 1
        )

    # -- set predicates ----------------------------------------------------

    def _set_mask(self, s: Iterable[int]) -> int:
        # one bounds check per set: a label below 1 makes a negative shift,
        # one above n leaves a bit at position n or higher
        mask = 0
        try:
            for v in s:
                mask |= 1 << (v - 1)
        except ValueError:
            mask = -1
        if mask < 0 or mask >> self._n:
            raise ValueError(f"vertex set has a label outside 1..{self._n}")
        return mask

    def _spans_no_edge(self, mask: int) -> bool:
        # inline bit loop, not ``_bits``: the set predicates are called in bulk
        adj = self._adj
        m = mask
        while m:
            b = m & -m
            m ^= b
            if adj[b.bit_length() - 1] & mask:
                return False
        return True

    def is_independent(self, s: Iterable[int]) -> bool:
        """True iff no edge has both endpoints in s."""
        return self._spans_no_edge(self._set_mask(s))

    def is_vertex_cover(self, c: Iterable[int]) -> bool:
        """True iff every edge has an endpoint in c."""
        return self._spans_no_edge(((1 << self._n) - 1) & ~self._set_mask(c))

    def is_maximal_independent(self, s: Iterable[int]) -> bool:
        """True iff s is independent and every outside vertex has a neighbor in s."""
        mask = self._set_mask(s)
        dominated = mask
        for v in _bits(mask):
            if self._adj[v] & mask:
                return False
            dominated |= self._adj[v]
        return dominated == (1 << self._n) - 1

    def connected_components(self) -> list[frozenset[int]]:
        """Maximal connected vertex sets, sorted by smallest member."""
        return [
            frozenset(v + 1 for v in _bits(comp))
            for comp in mask_components(self._adj, (1 << self._n) - 1)
        ]

    def maximal_independent_sets(
        self, limit: int = MIS_ENUMERATION_LIMIT
    ) -> list[frozenset[int]]:
        """All maximal independent sets, each once, in sorted order.

        Branches over vertices in label order (in / out of the set).  A
        vertex is closed by the highest label in its closed neighborhood:
        once that vertex is decided, no later choice can dominate it.  A
        branch that excludes a vertex continues only if every vertex it
        closes is dominated already, so every walk that reaches the end is
        a maximal set and no dead branch is explored past its closing
        vertex.  Capped at ``limit`` vertices.
        """
        n = self._n
        if n > limit:
            raise EnumerationLimitError(
                f"maximal-independent-set enumeration capped at n = {limit}"
            )
        adj = self._adj
        closing = [0] * n
        for v in range(n):
            closing[(adj[v] | 1 << v).bit_length() - 1] |= 1 << v
        found: list[int] = []

        def walk(i: int, chosen: int, dominated: int) -> None:
            if i == n:
                found.append(chosen)
                return
            bit = 1 << i
            # including i dominates every vertex it closes, since each of
            # them has i in its closed neighborhood; only excluding i can
            # leave one undominated
            if not adj[i] & chosen:
                walk(i + 1, chosen | bit, dominated | bit | adj[i])
            if dominated & closing[i] == closing[i]:
                walk(i + 1, chosen, dominated)

        walk(0, 0, 0)
        sets = [frozenset(v + 1 for v in _bits(m)) for m in found]
        sets.sort(key=sorted)
        return sets

    # -- dunder ------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self._n):
            raise ValueError(f"vertex {v} outside 1..{self._n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        return f"Graph({self._n}, {self.edges()!r})"


def path_graph(n: int) -> Graph:
    """Path 1-2-...-n; n = 0 gives the empty graph."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    """Cycle 1-2-...-n-1; requires n >= 3."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph(n, edges)


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph, parts labeled consecutively."""
    if not parts:
        raise ValueError("need at least one part")
    if any(p < 1 for p in parts):
        raise ValueError("every part must have at least one vertex")
    bounds = [0]
    for p in parts:
        bounds.append(bounds[-1] + p)
    n = bounds[-1]
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in range(bounds[a] + 1, bounds[a + 1] + 1):
                for v in range(bounds[b] + 1, bounds[b + 1] + 1):
                    edges.append((u, v))
    return Graph(n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted above g's."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def suspension(g: Graph, attach: Iterable[int]) -> Graph:
    """Adjoin a new vertex n+1 adjacent exactly to ``attach``.

    The attachment set must be a nonempty subset of the vertices; taking
    all of V gives the full suspension (cone).
    """
    attach = sorted(set(attach))
    if not attach:
        raise ValueError("suspension needs a nonempty attachment set")
    for c in attach:
        if not (1 <= c <= g.n):
            raise ValueError(f"attachment vertex {c} outside 1..{g.n}")
    z = g.n + 1
    edges = g.edges() + [(c, z) for c in attach]
    return Graph(z, edges)


@dataclass(frozen=True)
class CameronWalkerSpec:
    """Connected bipartite core X + Y, leaves on X, pendant triangles on Y.

    ``core_edges`` holds (i, j) pairs meaning x_i - y_j, with i in
    1..core_x and j in 1..core_y.  Every x_i carries ``leaves[i-1] >= 1``
    leaf neighbors; every y_j carries ``triangles[j-1] >= 0`` pendant
    triangles.
    """

    core_x: int
    core_y: int
    core_edges: tuple[tuple[int, int], ...]
    leaves: tuple[int, ...]
    triangles: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "core_edges", tuple(tuple(e) for e in self.core_edges))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "triangles", tuple(self.triangles))
        if self.core_x < 1 or self.core_y < 1:
            raise ValueError("both core sides must be nonempty")
        if len(self.leaves) != self.core_x:
            raise ValueError("need one leaf count per core X vertex")
        if len(self.triangles) != self.core_y:
            raise ValueError("need one triangle count per core Y vertex")
        if any(f < 1 for f in self.leaves):
            raise ValueError("every core X vertex needs at least one leaf")
        if any(t < 0 for t in self.triangles):
            raise ValueError("triangle counts must be nonnegative")
        for i, j in self.core_edges:
            if not (1 <= i <= self.core_x and 1 <= j <= self.core_y):
                raise ValueError(f"core edge ({i},{j}) out of range")
        core = self.core_graph()
        if len(core.connected_components()) != 1:
            raise ValueError("core must be connected")

    def core_graph(self) -> Graph:
        """The bipartite core alone: X is 1..core_x, Y follows."""
        edges = [(i, self.core_x + j) for i, j in self.core_edges]
        return Graph(self.core_x + self.core_y, edges)

    @property
    def total_vertices(self) -> int:
        return self.core_x + self.core_y + sum(self.leaves) + 2 * sum(self.triangles)


def cameron_walker(spec: CameronWalkerSpec) -> Graph:
    """Build the graph described by a CameronWalkerSpec.

    Labeling: core X is 1..n, core Y is n+1..n+m, then the leaves of
    x_1, x_2, ... in order, then for y_1, y_2, ... each pendant triangle
    contributes two consecutive new vertices joined to each other and to
    its y vertex.
    """
    n, m = spec.core_x, spec.core_y
    edges = [(i, n + j) for i, j in spec.core_edges]
    nxt = n + m + 1
    for i, f in enumerate(spec.leaves, start=1):
        for _ in range(f):
            edges.append((i, nxt))
            nxt += 1
    for j, t in enumerate(spec.triangles, start=1):
        for _ in range(t):
            a, b = nxt, nxt + 1
            edges.extend([(n + j, a), (n + j, b), (a, b)])
            nxt += 2
    return Graph(nxt - 1, edges)
