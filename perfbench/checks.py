"""Correctness checks that do not trust pgstar.

Every expected value here comes from the benchmark's own arithmetic:
closed forms for paths and cycles, counts taken from the input edge
list, and the h-transform recomputed from the reported polynomial.  A
check returns a list of error strings; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
from math import comb


def path_coefficients(n: int) -> list[int]:
    """g_k(P_n) = C(n - k + 1, k)."""
    return [comb(n - k + 1, k) for k in range((n + 1) // 2 + 1)]


def cycle_coefficients(n: int) -> list[int]:
    """g_k(C_n) = n / (n - k) * C(n - k, k) for n >= 3."""
    out = [1]
    for k in range(1, n // 2 + 1):
        num = n * comb(n - k, k)
        if num % (n - k):
            raise ArithmeticError(f"closed form for C_{n} not integral at k = {k}")
        out.append(num // (n - k))
    return out


def low_coefficients(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """g_0..g_3 counted from the edge list: 1, n, non-edges, independent triples."""
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = ((1 << (n + 1)) - 1) & ~1
    non = [full & ~adj[v] & ~(1 << v) for v in range(n + 1)]
    pairs = 0
    triples = 0
    for u in range(1, n + 1):
        later = non[u] >> (u + 1) << (u + 1)
        pairs += later.bit_count()
        m = later
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            triples += (non[u] & non[v] >> (v + 1) << (v + 1)).bit_count()
    return [1, n, pairs, triples]


def h_transform(p: list[int]) -> list[int]:
    """h_j = sum_i g_i (-1)^(j-i) C(alpha-i, j-i), untrimmed, alpha = deg p."""
    alpha = len(p) - 1
    h = [0] * (alpha + 1)
    for i, g in enumerate(p):
        if not g:
            continue
        m = alpha - i
        c = 1  # C(m, d), updated incrementally
        for d in range(m + 1):
            h[i + d] += -g * c if d & 1 else g * c
            c = c * (m - d) // (d + 1)
    return h


def minus_one_multiplicity(p: list[int]) -> int:
    """How often (x + 1) divides p, by repeated synthetic division."""
    q = list(p)
    mult = 0
    while len(q) > 1:
        # q = (x + 1) * r + remainder, with r_(k-1) = q_k - r_k from the top
        r = [0] * (len(q) - 1)
        acc = 0
        for k in range(len(q) - 1, 0, -1):
            acc = q[k] - acc
            r[k - 1] = acc
        if q[0] != acc:
            break
        q = r
        mult += 1
    return mult


def check_report(
    rep: dict,
    n: int,
    coeffs: list[int] | None = None,
    low: list[int] | None = None,
) -> list[str]:
    """Check one ``compute --output json`` report against independent arithmetic."""
    errors = []
    try:
        p = [int(c) for c in rep["independence_polynomial"]]
        h = [int(c) for c in rep["h_polynomial"]]
        fields = (
            rep["n"], rep["alpha"], int(rep["p_at_minus_one"]), rep["multiplicity"],
            rep["a_invariant"], rep["h_degree"], int(rep["h_top"]),
            rep["pseudo_gorenstein"], rep["pseudo_gorenstein_star"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    got_n, alpha, p_m1, mult, a_inv, h_deg, h_top, pg, pg_star = fields
    if got_n != n:
        errors.append(f"n = {got_n}, expected {n}")
    if not p or p[0] != 1 or p[-1] == 0:
        return errors + ["independence polynomial must start with 1 and end nonzero"]
    if alpha != len(p) - 1:
        errors.append(f"alpha = {alpha}, deg P = {len(p) - 1}")
    if coeffs is not None and p != coeffs:
        errors.append("independence polynomial differs from the closed form")
    if low is not None:
        got_low = (p + [0] * 4)[:4]
        if got_low != low:
            errors.append(f"g_0..g_3 = {got_low}, counted {low}")
    full_h = h_transform(p)
    trimmed = list(full_h)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    own_mult = minus_one_multiplicity(p)
    own_p_m1 = sum(-g if i & 1 else g for i, g in enumerate(p))
    if h != trimmed:
        errors.append("h-polynomial differs from the binomial sum over P")
    if p_m1 != own_p_m1:
        errors.append(f"P(-1) = {p_m1}, recomputed {own_p_m1}")
    if mult != own_mult:
        errors.append(f"multiplicity = {mult}, recomputed {own_mult}")
    if len(trimmed) - 1 != len(p) - 1 - own_mult:
        errors.append("recomputed deg h != alpha - M")
    if h_deg != len(trimmed) - 1:
        errors.append(f"h_degree = {h_deg}, recomputed {len(trimmed) - 1}")
    if a_inv != -own_mult:
        errors.append(f"a_invariant = {a_inv}, expected {-own_mult}")
    if h_top != full_h[-1]:
        errors.append(f"h_top = {h_top}, recomputed {full_h[-1]}")
    own_pg = trimmed[-1] == 1
    if pg != own_pg or pg_star != (own_pg and own_mult == 0):
        errors.append("pseudo-Gorenstein flags disagree with the recomputed h")
    return errors


def check_compute_output(
    stdout: str,
    n: int,
    coeffs: list[int] | None = None,
    low: list[int] | None = None,
) -> list[str]:
    try:
        rep = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(rep, dict):
        return ["stdout is not a JSON object"]
    return check_report(rep, n, coeffs, low)


def check_verify_output(stdout: str, theorem: str, instances: int, seed: int | None) -> list[str]:
    """The output must be exactly the line ``pgstar verify`` prints for a passing sweep."""
    tail = f" (seed {seed})" if seed is not None else ""
    want = f"theorem {theorem}: {instances} instances, 0 mismatches -> PASS{tail}\n"
    if stdout != want:
        return [f"expected {want.strip()!r}, got {stdout[:200].strip()!r}"]
    return []
