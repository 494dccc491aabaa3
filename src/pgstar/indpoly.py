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
     v of S, or (1 + x) * P(S - v) if v has no neighbour in S, each mask
     solved once per call through a memo that the call drops.  A memo
     entry is what is left of S once a prefix of label order is processed
     and the later neighbours of the vertices taken are removed, which is
     a state of the label-order loop; so the memo holds no more entries
     than that loop visits states, at most 2^(k-1) per step (after the
     first step at most k - 1 vertices are unprocessed), and each entry
     costs one call.  Each call drops the lowest vertex, so the recursion
     is at most k deep.  Counts are packed at x = 2^8 when k <= 10, since
     C(10, 5) = 252 < 256, and unpacked by one ``int.to_bytes``; a larger
     k takes slots of ceil(k / 8) bytes, since a count is below 2^k.  A
     whole graph this small goes straight to it, with no pivot stack and
     no cache.
  2. A larger subgraph is walked in label order, and keeps it if the
     frontier never holds more than min(delta + 1, FRONTIER_WIDTH)
     vertices, delta the least degree in the subgraph.  No order can do
     much better: every order's first vertex puts all of its neighbours
     on the frontier, so no order keeps the frontier below delta
     (pathwidth >= treewidth >= delta), and the kept order's bound of
     2^(delta+1) states per step is at most twice the best any order can
     have.  The walk tracks the least degree d of the vertices it has
     taken and stops once the frontier has held more than
     min(d + 1, FRONTIER_WIDTH) vertices.  Stopping early is safe: d
     never drops below delta, so the whole walk would fail too.  Paths
     and cycles, their suspensions over a maximal independent set and
     their cones keep label order this way.
  3. Otherwise the subgraph gets a greedy order: it starts at a
     minimum-degree vertex, then keeps taking the frontier vertex that
     adds the fewest new frontier vertices, ties going to fewer
     unprocessed neighbours; when the frontier empties it restarts at a
     minimum-degree unprocessed vertex.

  The walk and the greedy order stop as soon as the frontier outgrows
  their bound, so a wide subgraph costs little more than its first
  steps.  Only the greedy order is built as a list: the loop reads label
  order off the mask itself, each step taking the lowest vertex left,
  whose later neighbours are its neighbours among the vertices left.  A
  vertex with no later neighbour updates each state once, since joining
  it blocks nothing new, and the last vertex, which leaves at most the
  states {} and {v}, is summed into the result without a new state
  table.  On a subgraph of k <= ``PACK_MAX_N`` vertices a state is one
  int, its counts evaluated at x = 2^k (Kronecker substitution): the
  sets of one size among k vertices number below 2^k, so no k-bit slot
  carries, a join is one shift and a merge one addition.  A larger
  subgraph keeps one coefficient list per state, because every step
  would copy ints of k * alpha / 2 bits.  Paths and cycles have width 2;
  ladders, caterpillars and 4 x k grids stay within the width at any
  length.
- *Pivot side* (everything else).  The subgraph splits into connected
  components, whose polynomials multiply, and a connected one uses
  P(G) = P(G - v) + x * P(G - N[v]) at a maximum-degree vertex v.  Each
  piece goes back through the dispatch.  The pivots run from an explicit
  stack, so no graph hits Python's recursion limit.  A graph of more
  than FRONTIER_WIDTH + 1 vertices caches the result of each of its
  masks for the duration of one call.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphs import EnumerationLimitError, Graph, _bits, mask_components
from .polynomials import ONE, IntPolynomial

BRUTE_FORCE_LIMIT = 26

# Largest frontier the frontier side accepts: its loop holds up to
# 2^FRONTIER_WIDTH states.  It also decides where the order search starts:
# a subgraph of at most FRONTIER_WIDTH + 1 vertices always fits and goes
# to _small_polynomial, and it caps the bound of the label-order walk on
# larger ones (see _thin_order).  On G(80, 0.1) (2 cores, CPython 3.11) widths 8
# to 12 took 2.1-2.2 s, 6 and 14 2.7 s, 4 and 18 about 4 s.  Seed 2 takes
# 1.24 s with the label-order branch and 1.20 s without it (medians of 12
# alternating runs, quartiles 0.88-1.34 and 1.03-1.26 s): its frontier
# subgraphs have 32 to 53 vertices, so the branch leaves its 1 404 056
# state visits as they are, and so does the label-order walk, which gives
# up on every one of them.
FRONTIER_WIDTH = 10

# Largest frontier subgraph whose states are packed into one int each
# (see _packed_frontier_polynomial); larger ones keep coefficient lists.
# Frontier loop alone, packed time / list time (2 cores, CPython 3.11,
# median of 21): 0.34-0.46 at 128 vertices and 0.43-0.50 at 256 over
# paths, cycles, edgeless graphs, ladders, 4 x k grids and caterpillars;
# 0.56-0.70 at 512, 0.65-0.76 at 640, 0.77-0.90 at 768 and 0.92-1.05 at
# 1024.  512 keeps a margin below that crossover.
PACK_MAX_N = 512

# The order ``_thin_order`` gives for ascending label order.  The kernels
# walk it off the mask, lowest bit first, so no list of it is built.
LABEL_ORDER: tuple[int, ...] = ()


def _thin_order(adj: Sequence[int], mask: int) -> Sequence[int] | None:
    """The vertices of ``mask`` in an order whose frontier never holds more
    than FRONTIER_WIDTH vertices, or None if the order search finds none.

    Label order comes back as ``LABEL_ORDER``; only the greedy order is
    built as a list of vertices.  The mask is kept in label order if its
    frontier stays within min(least degree + 1, FRONTIER_WIDTH), which no
    order beats by more than one vertex, and gets the greedy order
    otherwise (rules 2 and 3 of the module docstring).
    """
    width = FRONTIER_WIDTH
    # label order, kept if its largest frontier is at most the least degree
    # + 1; the least degree seen only falls, so a walk whose frontier has
    # passed it + 1 has passed the final bound too.  The loop stays inline,
    # not ``_bits``: each step reads the rest of the mask after its own bit
    least = width - 1
    frontier = peak = 0
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        around = adj[bit.bit_length() - 1]
        degree = (around & mask).bit_count()
        if degree < least:
            least = degree
        frontier = (frontier | around) & rest
        size = frontier.bit_count()
        if size > peak:
            peak = size
        if peak > least + 1:
            break
    else:
        return LABEL_ORDER
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


def _frontier_polynomial(adj: Sequence[int], mask: int, order: Sequence[int]) -> IntPolynomial:
    """Count the independent sets of ``mask`` along ``order``: each state
    maps the blocked, unprocessed vertices to the counts by size of the
    sets that block them."""
    if not mask:
        return ONE
    states = {0: [1]}
    rest = mask
    greedy = iter(order)
    while True:
        if order is LABEL_ORDER:
            bit = rest & -rest
            v = bit.bit_length() - 1
        else:
            v = next(greedy)
            bit = 1 << v
        rest ^= bit
        if not rest:
            break
        later = adj[v] & rest
        new: dict[int, list[int]] = {}
        # every list is held by one state only, so merging adds in place;
        # the merges stay inline because this is the engine's inner loop
        for blocked, counts in states.items():
            if blocked & bit:
                blocked ^= bit
            elif later:
                # the vertex joins the set and blocks its later neighbours
                key = blocked | later
                joined = [0, *counts]
                old = new.get(key)
                if old is None:
                    new[key] = joined
                else:
                    if len(old) < len(joined):
                        old, joined = joined, old
                        new[key] = old
                    for i, c in enumerate(joined):
                        old[i] += c
            else:
                # a join blocks nothing new and keeps the key
                counts.append(0)
                for i in range(len(counts) - 1, 0, -1):
                    counts[i] += counts[i - 1]
            old = new.get(blocked)
            if old is None:
                new[blocked] = counts
            else:
                if len(old) < len(counts):
                    old, counts = counts, old
                    new[blocked] = old
                for i, c in enumerate(counts):
                    old[i] += c
        states = new
    # the last vertex v: the states are the empty set and at most {v}, and
    # v joins every set that does not block it
    free = IntPolynomial(states[0])
    return free + free.shift(1) + IntPolynomial(states.get(bit, ()))


def _packed_frontier_polynomial(
    adj: Sequence[int], mask: int, order: Sequence[int]
) -> IntPolynomial:
    """``_frontier_polynomial`` with each state's counts packed into one int.

    The count of sets of size i sits in bits [i*width, (i+1)*width), so a
    join is one shift and a merge one addition.  With width = k, the
    mask's vertex count, no slot carries: a slot counts independent sets
    of size i among at most k processed vertices, and the counts of all
    states together are at most C(k, i) < 2^k.
    """
    if not mask:
        return ONE
    width = mask.bit_count()
    states = {0: 1}
    rest = mask
    greedy = iter(order)
    while True:
        if order is LABEL_ORDER:
            bit = rest & -rest
            v = bit.bit_length() - 1
        else:
            v = next(greedy)
            bit = 1 << v
        rest ^= bit
        if not rest:
            break
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
    # the last vertex v: the states are the empty set and at most {v}, and
    # v joins every set that does not block it
    packed = states[0] << width
    for counts in states.values():
        packed += counts
    slot = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & slot)
        packed >>= width
    return IntPolynomial(coeffs)


def _frontier_count(adj: Sequence[int], mask: int, order: Sequence[int]) -> IntPolynomial:
    """The frontier side on ``mask``: packed states up to PACK_MAX_N vertices."""
    if mask.bit_count() <= PACK_MAX_N:
        return _packed_frontier_polynomial(adj, mask, order)
    return _frontier_polynomial(adj, mask, order)


def _lowest_pivot(adj: Sequence[int], mask: int, memo: dict, width: int) -> int:
    """P(mask) at x = 2^width, for a nonempty mask, by the pivot at its
    lowest vertex; ``memo`` holds the masks below it solved so far."""
    bit = mask & -mask
    rest = mask ^ bit
    if not rest:
        return 1 + (1 << width)
    # the memo is read at each call site, so a hit costs no call
    if rest in memo:
        without = memo[rest]
    else:
        without = memo[rest] = _lowest_pivot(adj, rest, memo, width)
    around = adj[bit.bit_length() - 1] & rest
    if not around:
        return without + (without << width)
    far = rest ^ around
    if not far:
        return without + (1 << width)
    if far in memo:
        within = memo[far]
    else:
        within = memo[far] = _lowest_pivot(adj, far, memo, width)
    return without + (within << width)


def _small_polynomial(adj: Sequence[int], mask: int) -> IntPolynomial:
    """P(mask) by ``_lowest_pivot`` for a mask of k <= FRONTIER_WIDTH + 1
    vertices, in slots of one byte up to k = 10 and of ceil(k / 8) bytes
    above (rule 1 of the module docstring)."""
    if not mask:
        return ONE
    k = mask.bit_count()
    size = 1 if k <= 10 else (k + 7) // 8
    bits = 8 * size
    packed = _lowest_pivot(adj, mask, {}, bits)
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
    docstring).  A larger one goes to the frontier side when
    ``_thin_order`` finds it an order within ``FRONTIER_WIDTH`` and is
    split and pivoted otherwise.  No state survives between calls.
    """
    adj = g._adj
    small = FRONTIER_WIDTH + 1
    root = (1 << g.n) - 1
    if g.n <= small:
        return _small_polynomial(adj, root)
    cache: dict[int, IntPolynomial] = {0: ONE}
    # a frame is (mask, None) before it is split, and (mask, pieces,
    # pivoted) once its pieces are pushed above it
    stack: list[tuple] = [(root, None, False)]
    while stack:
        mask, pieces, pivoted = stack.pop()
        if pieces is not None:
            if pivoted:
                result = cache[pieces[0]] + cache[pieces[1]].shift(1)
            else:
                result = ONE
                for piece in pieces:
                    result = result * cache[piece]
            cache[mask] = result
            continue
        if mask in cache:
            continue
        if mask.bit_count() <= small:
            cache[mask] = _small_polynomial(adj, mask)
            continue
        order = _thin_order(adj, mask)
        if order is not None:
            cache[mask] = _frontier_count(adj, mask, order)
            continue
        pieces = mask_components(adj, mask)
        pivoted = len(pieces) == 1
        if pivoted:
            best_v = max(_bits(mask), key=lambda v: (adj[v] & mask).bit_count())
            bit = 1 << best_v
            pieces = (mask & ~bit, mask & ~(bit | adj[best_v]))
        stack.append((mask, pieces, pivoted))
        stack.extend((piece, None, False) for piece in pieces if piece not in cache)
    return cache[root]


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
