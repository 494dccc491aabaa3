"""Exact independence-polynomial computation.

Two independent routes are kept deliberately: a deletion-contraction
engine (the workhorse) and a subset-counting brute force (the oracle the
engine is tested against).  Both return exact integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EnumerationLimitError, Graph, mask_components
from .polynomials import ONE, IntPolynomial

BRUTE_FORCE_LIMIT = 26


def independence_polynomial(g: Graph) -> IntPolynomial:
    """Coefficient of x^i counts the independent sets of size i.

    Uses the recursion P(G) = P(G - v) + x * P(G - N[v]) with a
    maximum-degree pivot, after splitting the current induced subgraph
    into connected components (disjoint parts multiply).  Subgraphs are
    bitmasks over the original vertex set, and results are cached per
    mask for the duration of one call.

    A connected piece of maximum degree at most 2 is a path or a cycle,
    which is never branched on: on k vertices it is P_k, or
    C_k = P_{k-1} + x * P_{k-3}, built row by row from
    P_k = P_{k-1} + x * P_{k-2}.  Only the two newest rows are kept (a
    smaller k restarts from P_0), so such a piece costs O(k) polynomial
    additions, no recursion and no table.  No state survives between calls.
    """
    n = g.n
    if n == 0:
        return ONE
    adj = g._adj
    cache: dict[int, IntPolynomial] = {}
    # the two newest path rows, P_{j-1} and P_j; P_{-1} = P_0 = 1
    j, prev, cur = 0, ONE, ONE

    def path(k: int) -> IntPolynomial:
        nonlocal j, prev, cur
        if k < j:
            j, prev, cur = 0, ONE, ONE
        while j < k:
            j, prev, cur = j + 1, cur, cur + prev.shift(1)
        return cur

    def solve(mask: int) -> IntPolynomial:
        if mask == 0:
            return ONE
        hit = cache.get(mask)
        if hit is not None:
            return hit
        comps = mask_components(adj, mask)
        if len(comps) > 1:
            result = ONE
            for comp in comps:
                result = result * solve(comp)
        else:
            best_v = -1
            best_deg = -1
            deg_sum = 0
            m = mask
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                d = (adj[v] & mask).bit_count()
                deg_sum += d
                if d > best_deg:
                    best_deg, best_v = d, v
            if best_deg <= 2:
                # connected with k vertices: k - 1 edges for a path, k for a cycle
                k = mask.bit_count()
                if deg_sum == 2 * k:
                    # the smaller row first, so the larger one continues from it
                    below = path(k - 3).shift(1)
                    result = path(k - 1) + below
                else:
                    result = path(k)
            else:
                # pivot on a maximum-degree vertex
                bit = 1 << best_v
                without_v = solve(mask & ~bit)
                without_closed = solve(mask & ~(bit | adj[best_v]))
                result = without_v + without_closed.shift(1)
        cache[mask] = result
        return result

    return solve((1 << n) - 1)


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


@dataclass(frozen=True)
class MinusOneProfile:
    """Exact value at -1 together with the multiplicity of -1 as a root."""

    value: int
    multiplicity: int


def minus_one_profile(p: IntPolynomial) -> MinusOneProfile:
    """Evaluate p(-1) and count how often (x + 1) divides p exactly.

    Repeated synthetic division; the zero polynomial is rejected.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no minus-one profile")
    value = p(-1)
    multiplicity = 0
    q = p
    while q(-1) == 0 and not q.is_zero():
        q, _ = q.divide_linear_root(-1)
        multiplicity += 1
    return MinusOneProfile(value=value, multiplicity=multiplicity)
