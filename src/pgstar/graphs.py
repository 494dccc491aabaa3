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

from typing import Iterable, NamedTuple, Sequence

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

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self._n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                out.append((u + 1, v + 1))
        return out

    # -- set predicates ----------------------------------------------------

    def _set_mask(self, s: Iterable[int]) -> int:
        # each label is compared with 1..n before it is shifted: shifting
        # first would build an int of as many bits as a huge label
        n = self._n
        mask = 0
        for v in s:
            if not 1 <= v <= n:
                raise ValueError(f"vertex set has a label outside 1..{n}")
            mask |= 1 << (v - 1)
        return mask

    def _spans_no_edge(self, mask: int) -> bool:
        adj = self._adj
        return not any(adj[v] & mask for v in _bits(mask))

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

        The walk already yields the sets ordered by sorted members: at the
        first vertex i where two differ, "include i" is tried first, and
        the set without i has a later member, since a maximal set is never
        a proper subset (hence a prefix) of another.
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
        return [frozenset(v + 1 for v in _bits(m)) for m in found]

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        return f"Graph({self._n}, {self.edges()!r})"


def _from_masks(adj: list[int]) -> Graph:
    """The graph on len(adj) vertices whose adjacency masks are ``adj``.

    ``adj`` must be symmetric with no self-loops.  The graph is built by
    ``Graph.__init__`` like every other, and the masks replace its empty
    adjacency, so no edge list is made only to be parsed back.
    """
    g = Graph(len(adj))
    g._adj = tuple(adj)
    return g


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
    # each vertex is adjacent to every vertex outside its own part, and the
    # next part starts at bit len(adj)
    full = (1 << sum(parts)) - 1
    adj = []
    for p in parts:
        adj.extend([full ^ (((1 << p) - 1) << len(adj))] * p)
    return _from_masks(adj)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted above g's."""
    return _from_masks([*g._adj, *(m << g.n for m in h._adj)])


def suspension(g: Graph, attach: Iterable[int]) -> Graph:
    """Adjoin a new vertex n+1 adjacent exactly to ``attach``.

    The attachment set must be a nonempty subset of the vertices; taking
    all of V gives the full suspension (cone).
    """
    attached = g._set_mask(attach)
    if not attached:
        raise ValueError("suspension needs a nonempty attachment set")
    apex = 1 << g.n
    adj = list(g._adj)
    for c in _bits(attached):
        adj[c] |= apex
    adj.append(attached)
    return _from_masks(adj)


class _CameronWalkerFields(NamedTuple):
    core_x: int
    core_y: int
    core_edges: tuple[tuple[int, int], ...]
    leaves: tuple[int, ...]
    triangles: tuple[int, ...]


class CameronWalkerSpec(_CameronWalkerFields):
    """Connected bipartite core X + Y, leaves on X, pendant triangles on Y.

    ``core_edges`` holds (i, j) pairs meaning x_i - y_j, with i in
    1..core_x and j in 1..core_y.  Every x_i carries ``leaves[i-1] >= 1``
    leaf neighbors; every y_j carries ``triangles[j-1] >= 0`` pendant
    triangles.  Lists are stored as tuples.
    """

    __slots__ = ()

    def __new__(
        cls,
        core_x: int,
        core_y: int,
        core_edges: Iterable[Sequence[int]],
        leaves: Iterable[int],
        triangles: Iterable[int],
    ) -> CameronWalkerSpec:
        edges = tuple(tuple(e) for e in core_edges)
        self = super().__new__(cls, core_x, core_y, edges, tuple(leaves), tuple(triangles))
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
        if len(mask_components(core._adj, (1 << core.n) - 1)) != 1:
            raise ValueError("core must be connected")
        return self

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
