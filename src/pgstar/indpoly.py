"""Exact independence-polynomial computation.

Two independent routes are kept deliberately: a two-sided engine (the
workhorse) and a subset-counting brute force (the oracle the engine is
tested against).  Both return exact integer coefficients.

The engine solves each subgraph, a bitmask over the vertex set, on one of
two sides:

- *Frontier side* (thin subgraphs).  A vertex order is checked against
  ``FRONTIER_WIDTH``: the frontier (the unprocessed neighbours of
  processed vertices) may never hold more vertices than that.  If it
  never does (the order's vertex separation is within the width), a loop
  over the order counts independent sets with one state per set of
  blocked frontier vertices, so at most 2^FRONTIER_WIDTH states.  The
  order's largest frontier is its vertex separation, whose least value
  over all orders is the pathwidth (Kinnersley, 1992).  Three rules pick
  the order, the first that applies:

  1. A subgraph of k <= FRONTIER_WIDTH + 1 vertices takes label order
     with no search, and ``_small_polynomial`` counts it top-down with no
     state table: P(S) = P(S - v) + x * P(S - N[v]) at the lowest vertex
     v of S, or (1 + x) * P(S - v) if v has no neighbour in S.  A mask of
     one vertex is 1 + x and one of two is 1 + 2x, plus x^2 when the two
     are not adjacent; these are written down, at the root and wherever
     a pivot leaves them, so only masks of three vertices or more make a
     call.  There is no memo: a call drops one vertex on one branch and at
     least two on the other, so k vertices cost at most F(k) - 1 calls
     (F the Fibonacci numbers, F(1) = F(2) = 1), 88 at k = 11, which the
     path P_11 reaches.  On the graphs of ``verify deg-via-ord`` a memo
     answered 5 757 of its 130 720 lookups of three vertices or more, and
     every miss paid for a store.  Each call drops the lowest vertex, so
     the recursion is at most k deep.  Counts are packed at x = 2^8 when
     k <= 10, since C(10, 5) = 252 < 256, and unpacked by one
     ``int.to_bytes``; a larger k takes slots of ceil(k / 8) bytes, since
     a count is below 2^k.  A whole graph this small skips the pivot stack.
  2. A larger subgraph is counted in label order, and keeps that count
     if the frontier never holds more than min(delta + 1, FRONTIER_WIDTH)
     vertices, delta the least degree in the subgraph.  No order can do
     much better: every order's first vertex puts all of its neighbours
     on the frontier, so no order keeps the frontier below delta
     (pathwidth >= treewidth >= delta), and the kept order's bound of
     2^(delta+1) states per step is at most twice the best any order can
     have.  The order tracks the least degree d of the vertices it has
     reached and ends, before the vertex at which it happens, once the
     frontier has held more than min(d + 1, FRONTIER_WIDTH) vertices; the
     count it feeds then runs out before the last vertex and is dropped.
     Ending early is safe: d never drops below delta, so the whole order
     would fail too.  The last vertex's degree is checked before the
     count reaches it, so a count that finishes kept the bound.  Paths
     and cycles, their suspensions over a maximal independent set and
     their cones keep label order this way.
  3. Otherwise the subgraph gets a greedy order: it starts at a
     minimum-degree vertex, then keeps taking the frontier vertex that
     adds the fewest new frontier vertices, ties going to fewer
     unprocessed neighbours; when the frontier empties it restarts at a
     minimum-degree unprocessed vertex.

  Both orders end as soon as the frontier outgrows their bound, so a
  wide subgraph costs little more than its first steps.  Label order is
  walked once, by the count it feeds: each step takes the lowest vertex
  left, whose later neighbours are its neighbours among the vertices
  left.  The greedy order is built as a whole list before any count,
  since it fails on about half of the subgraphs that reach it (713 of
  1 340 on G(80, 0.1)), each of which would waste a count.  A vertex
  with no later neighbour updates each state once, since joining it
  blocks nothing new; the last vertex is one, and leaves the single
  state of no blocked vertex, whose counts are the result.  On a
  subgraph of k <= ``PACK_MAX_N`` vertices a state is one int, its
  counts evaluated at x = 2^k (Kronecker substitution): the sets of one
  size among k vertices number below 2^k, so no k-bit slot carries, a
  join is one shift and a merge one addition.  A larger subgraph keeps
  one coefficient list per state, because every step would copy ints of
  k * alpha / 2 bits.  Paths and cycles have width 2; ladders,
  caterpillars and 4 x k grids stay within the width at any length.
- *Pivot side* (everything else).  The subgraph splits into connected
  components, whose polynomials multiply, and a connected one uses
  P(G) = P(G - v) + x * P(G - N[v]) at a maximum-degree vertex v.  Each
  piece goes back through the dispatch.  The pivots run from an explicit
  stack, so no graph hits Python's recursion limit, in post-order: a
  piece waits there as a mask, and its polynomial is held only from its
  count to its combine.  A piece met twice is counted twice; on G(80,
  0.1) that recounts 71 pieces, each of one or two vertices.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import EnumerationLimitError, Graph, _bits, mask_components
from .polynomials import ONE, IntPolynomial

BRUTE_FORCE_LIMIT = 26

# Largest frontier the frontier side accepts: its loop holds up to
# 2^FRONTIER_WIDTH states.  It also decides where the order search starts:
# a subgraph of at most FRONTIER_WIDTH + 1 vertices always fits and goes
# to _small_polynomial, and it caps label order's bound on larger ones
# (see _label_order).  On G(80, 0.1) (2 cores, CPython 3.11) widths 8
# to 12 took 2.1-2.2 s, 6 and 14 2.7 s, 4 and 18 about 4 s.  Seed 2's
# frontier subgraphs have 32 to 53 vertices, and label order is dropped
# on every one of them after about one vertex: 2 019 of its 1 406 075
# state visits.
FRONTIER_WIDTH = 10

# Largest frontier subgraph whose states are packed into one int each
# (see _packed_frontier_polynomial); larger ones keep coefficient lists.
# Frontier loop alone, packed time / list time (2 cores, CPython 3.11,
# median of 21): 0.34-0.46 at 128 vertices and 0.43-0.50 at 256 over
# paths, cycles, edgeless graphs, ladders, 4 x k grids and caterpillars;
# 0.56-0.70 at 512, 0.65-0.76 at 640, 0.77-0.90 at 768 and 0.92-1.05 at
# 1024.  512 keeps a margin below that crossover.
PACK_MAX_N = 512


def _label_order(adj: Sequence[int], mask: int) -> Iterator[int]:
    """The vertices of ``mask`` in ascending label order, ending before the
    vertex at which the frontier has held more than min(least degree + 1,
    FRONTIER_WIDTH) vertices (rule 2 of the module docstring).

    The least degree seen only falls, so a walk whose frontier has passed
    it + 1 has passed the final bound too.  The last vertex's degree is
    checked before it is yielded, so a count that reaches it keeps the
    order.  The loop stays inline, not ``_bits``: each step reads the rest
    of the mask after its own bit.
    """
    least = FRONTIER_WIDTH - 1
    frontier = peak = 0
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        around = adj[v]
        degree = (around & mask).bit_count()
        if degree < least:
            least = degree
        frontier = (frontier | around) & rest
        size = frontier.bit_count()
        if size > peak:
            peak = size
        if peak > least + 1:
            return
        yield v


def _greedy_order(adj: Sequence[int], mask: int) -> list[int] | None:
    """The vertices of ``mask`` in the greedy order of rule 3 of the module
    docstring, or None once its frontier holds more than FRONTIER_WIDTH
    vertices.  Built in full before any count, since it fails on many
    masks that reach it."""
    width = FRONTIER_WIDTH
    order = []
    rest = mask
    frontier = 0
    floor = 0
    while rest:
        if frontier:
            # inline, not ``_bits``: this scan runs at every greedy step
            best_new = best_rest = mask.bit_length()
            f = frontier
            while f:
                b = f & -f
                f ^= b
                u = b.bit_length() - 1
                around = adj[u] & rest
                new = (around & ~frontier).bit_count()
                if new <= best_new:
                    count = around.bit_count()
                    if new < best_new or count < best_rest:
                        best_new, best_rest, v = new, count, u
        else:
            # no processed vertex has a neighbour left in rest, so degrees
            # in rest are degrees in mask: the minimum never drops, and a
            # vertex at the last minimum is a minimum again
            best = mask.bit_length()
            for u in _bits(rest):
                d = (adj[u] & rest).bit_count()
                if d < best:
                    best, v = d, u
                    if d == floor:
                        break
            floor = best
        rest ^= 1 << v
        frontier = (frontier | adj[v]) & rest
        if frontier.bit_count() > width:
            return None
        order.append(v)
    return order


def _merge(states: dict[int, list[int]], key: int, counts: list[int]) -> None:
    """Add ``counts`` into ``states[key]``, in place: every list is held by
    one state only, so the longer of the two takes the sum."""
    old = states.setdefault(key, counts)
    if old is not counts:
        if len(old) < len(counts):
            states[key] = counts
            old, counts = counts, old
        for i, c in enumerate(counts):
            old[i] += c


def _frontier_polynomial(
    adj: Sequence[int], mask: int, order: Iterable[int]
) -> IntPolynomial | None:
    """Count the independent sets of ``mask`` along ``order``: each state
    maps the blocked, unprocessed vertices to the counts by size of the
    sets that block them.  None if ``order`` ends before the last vertex
    of ``mask``; after it, only the state of no blocked vertex is left."""
    states = {0: [1]}
    rest = mask
    for v in order:
        bit = 1 << v
        rest ^= bit
        later = adj[v] & rest
        new: dict[int, list[int]] = {}
        for blocked, counts in states.items():
            if blocked & bit:
                blocked ^= bit
            elif later:
                # the vertex joins the set and blocks its later neighbours
                _merge(new, blocked | later, [0, *counts])
            else:
                # a join blocks nothing new and keeps the key
                counts.append(0)
                for i in range(len(counts) - 1, 0, -1):
                    counts[i] += counts[i - 1]
            _merge(new, blocked, counts)
        states = new
    if rest:
        return None
    return IntPolynomial(states[0])


def _packed_frontier_polynomial(
    adj: Sequence[int], mask: int, order: Iterable[int]
) -> IntPolynomial | None:
    """``_frontier_polynomial`` with each state's counts packed into one int.

    The count of sets of size i sits in bits [i*width, (i+1)*width), so a
    join is one shift and a merge one addition.  With width = k, the
    mask's vertex count, no slot carries: a slot counts independent sets
    of size i among at most k processed vertices, and the counts of all
    states together are at most C(k, i) < 2^k.  An empty mask still takes
    one-bit slots, so the unpacking below moves on.
    """
    width = mask.bit_count() or 1
    states = {0: 1}
    rest = mask
    for v in order:
        bit = 1 << v
        rest ^= bit
        later = adj[v] & rest
        new: dict[int, int] = {}
        # membership tests beat dict.get here, the engine's inner loop
        for blocked, counts in states.items():
            if blocked & bit:
                blocked ^= bit
            elif later:
                # the vertex joins the set and blocks its later neighbours
                key = blocked | later
                if key in new:
                    new[key] += counts << width
                else:
                    new[key] = counts << width
            else:
                # a join blocks nothing new and keeps the key
                counts += counts << width
            if blocked in new:
                new[blocked] += counts
            else:
                new[blocked] = counts
        states = new
    if rest:
        return None
    packed = states[0]
    slot = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & slot)
        packed >>= width
    return IntPolynomial(coeffs)


def _frontier_count(adj: Sequence[int], mask: int, order: Iterable[int]) -> IntPolynomial | None:
    """The frontier side on ``mask``: packed states up to PACK_MAX_N
    vertices.  None if ``order`` ends before the last vertex."""
    if mask.bit_count() <= PACK_MAX_N:
        return _packed_frontier_polynomial(adj, mask, order)
    return _frontier_polynomial(adj, mask, order)


def _lowest_pivot(adj: Sequence[int], mask: int, width: int) -> int:
    """P(mask) at x = 2^width, for a mask of k >= 3 vertices, by the pivot
    at its lowest vertex with no memo, in at most F(k) - 1 calls (rule 1
    of the module docstring).

    Where the pivot leaves one vertex, P is 1 + x, and where it leaves
    two, 1 + 2x, plus x^2 when they are not adjacent; the call site
    writes these down in place of a call.
    """
    bit = mask & -mask
    rest = mask ^ bit
    # rest has two vertices or more, and two are adjacent when the lowest
    # one's neighbours meet the pair
    if rest.bit_count() > 2:
        without = _lowest_pivot(adj, rest, width)
    elif adj[(rest & -rest).bit_length() - 1] & rest:
        without = 1 + (2 << width)
    else:
        without = 1 + (2 << width) + (1 << 2 * width)
    around = adj[bit.bit_length() - 1] & rest
    if not around:
        return without + (without << width)
    far = rest ^ around
    if not far:
        return without + (1 << width)
    k = far.bit_count()
    if k > 2:
        within = _lowest_pivot(adj, far, width)
    elif k == 1:
        within = 1 + (1 << width)
    elif adj[(far & -far).bit_length() - 1] & far:
        within = 1 + (2 << width)
    else:
        within = 1 + (2 << width) + (1 << 2 * width)
    return without + (within << width)


def _small_polynomial(adj: Sequence[int], mask: int) -> IntPolynomial:
    """P(mask) for a mask of k <= FRONTIER_WIDTH + 1 vertices (rule 1 of
    the module docstring): written down when k <= 2, else by
    ``_lowest_pivot`` in slots of one byte up to k = 10 and of ceil(k / 8)
    bytes above."""
    k = mask.bit_count()
    if k <= 2:
        if not k:
            return ONE
        if k == 1:
            return IntPolynomial((1, 1))
        low = (mask & -mask).bit_length() - 1
        return IntPolynomial((1, 2) if adj[low] & mask else (1, 2, 1))
    size = 1 if k <= 10 else (k + 7) // 8
    bits = 8 * size
    packed = _lowest_pivot(adj, mask, bits)
    data = packed.to_bytes((packed.bit_length() + bits - 1) // bits * size, "little")
    if size == 1:
        return IntPolynomial(data)
    return IntPolynomial(
        int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)
    )


def independence_polynomial(g: Graph) -> IntPolynomial:
    """Coefficient of x^i counts the independent sets of size i.

    A subgraph of at most FRONTIER_WIDTH + 1 vertices, the whole graph
    included, goes to ``_small_polynomial`` (rule 1 of the module
    docstring).  A larger one is counted in label order, then along the
    greedy order if that count is dropped, and is split and pivoted if
    the greedy order fails too.  No piece's result outlives its combine.
    """
    adj = g._adj
    small = FRONTIER_WIDTH + 1
    root = (1 << g.n) - 1
    if g.n <= small:
        return _small_polynomial(adj, root)
    # the stack holds masks still to count and (k, pivoted) frames; a
    # frame replaces the last k values counted by their combination
    values: list[IntPolynomial] = []
    stack: list[int | tuple[int, bool]] = [root]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            k, pivoted = item
            if pivoted:
                # P(G - v) lies under P(G - N[v])
                values.append(values.pop(-2) + values.pop().shift(1))
            else:
                for _ in range(k - 1):
                    values.append(values.pop() * values.pop())
            continue
        mask = item
        if mask.bit_count() <= small:
            values.append(_small_polynomial(adj, mask))
            continue
        result = _frontier_count(adj, mask, _label_order(adj, mask))
        if result is None and (order := _greedy_order(adj, mask)) is not None:
            result = _frontier_count(adj, mask, order)
        if result is not None:
            values.append(result)
            continue
        pieces = mask_components(adj, mask)
        pivoted = len(pieces) == 1
        if pivoted:
            best_v = max(_bits(mask), key=lambda v: (adj[v] & mask).bit_count())
            bit = 1 << best_v
            # G - v is counted first, while G - N[v] waits as a mask
            pieces = (mask & ~(bit | adj[best_v]), mask & ~bit)
        stack.append((len(pieces), pivoted))
        stack.extend(pieces)
    return values[0]


def independence_polynomial_bruteforce(
    g: Graph, limit: int = BRUTE_FORCE_LIMIT
) -> IntPolynomial:
    """Count independent sets directly over all 2^n subsets."""
    n = g.n
    if n > limit:
        raise EnumerationLimitError(f"brute-force counting capped at n = {limit}")
    adj = g._adj
    counts = [0] * (n + 1)
    counts[0] = 1
    independent = bytearray(1 << n)
    independent[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if independent[rest] and not adj[low.bit_length() - 1] & rest:
            independent[mask] = 1
            counts[mask.bit_count()] += 1
    return IntPolynomial(counts)


class MinusOneProfile(NamedTuple):
    """Exact value at -1 together with the multiplicity of -1 as a root."""

    value: int
    multiplicity: int


def minus_one_profile(p: IntPolynomial) -> MinusOneProfile:
    """Evaluate p(-1) and count how often (x + 1) divides p exactly.

    Repeated synthetic division; the zero polynomial is rejected.  p(-1)
    is evaluated once, and the quotients are never zero.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no minus-one profile")
    value = remainder = p(-1)
    multiplicity = 0
    q = p
    while remainder == 0:
        q, _ = q.divide_linear_root(-1)
        multiplicity += 1
        remainder = q(-1)
    return MinusOneProfile(value=value, multiplicity=multiplicity)
