"""Closed forms and one classification function per structured family.

Everything here is pure arithmetic on the family parameters (period-6
and period-12 tables, parity conditions, gap statistics); no polynomial
is ever computed from a graph.  Each ``predict_*`` function states one
classification of the paper in its docstring and turns a family's
parameters into the report fields that classification predicts;
``pgstar family``, ``pgstar suspend`` and the verification sweeps all
compare those against the exact computation, which is the whole point
of keeping the two routes independent.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .graphs import CameronWalkerSpec
from .polynomials import IntPolynomial

# predictions for suspensions over vertex covers, keyed on |S| = n - |C|
PRESERVED = "preserved"
FULL_SUSPENSION_CASE = "full-suspension-case"
NEVER_PG_STAR = "never-pg-star"

_P_TABLE = (1, 0, -1, -1, 0, 1)
_C_TABLE = (2, 1, -1, -2, -1, 1)


def _check_cycle(n: int) -> None:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")


def p_value(n: int) -> int:
    """P at -1 for the path on n vertices (period 6)."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return _P_TABLE[n % 6]


def c_value(n: int) -> int:
    """P at -1 for the cycle on n vertices (period 6, n >= 3)."""
    _check_cycle(n)
    return _C_TABLE[n % 6]


def a_value(n: int) -> int:
    """(-1)^floor(n/2) * c_value(n), periodic mod 12."""
    return (-1) ** (n // 2) * c_value(n)


def b_value(n: int) -> int:
    """(-1)^ceil(n/2) * p_value(n), periodic mod 12."""
    return (-1) ** -(-n // 2) * p_value(n)


def multipartite_closed_poly(parts: Sequence[int]) -> IntPolynomial:
    """sum_i (1+x)^(m_i) - (k-1): every independent set lives in one part."""
    if not parts:
        raise ValueError("need at least one part")
    if any(m < 1 for m in parts):
        raise ValueError("every part must have at least one vertex")
    total = IntPolynomial((1 - len(parts),))
    for m in parts:
        total = total + IntPolynomial.binomial(m)
    return total


class _CycleSuspensionFields(NamedTuple):
    n: int
    c: int


class CycleSuspensionParams(_CycleSuspensionFields):
    """A maximal independent set of size c in the cycle on n vertices.

    The gaps between consecutive chosen vertices around the cycle have
    size 1 or 2; ``ell`` counts the size-2 gaps.
    """

    __slots__ = ()

    def __new__(cls, n: int, c: int) -> CycleSuspensionParams:
        self = super().__new__(cls, n, c)
        _check_cycle(n)
        lo = -(-n // 3)
        hi = n // 2
        if not lo <= c <= hi:
            raise ValueError(f"c = {c} outside {lo}..{hi} for n = {n}")
        return self

    @property
    def ell(self) -> int:
        return self.n - 2 * self.c


class _PathSuspensionFields(NamedTuple):
    n: int
    c: int
    ell: int
    delta0: int
    delta_t: int


class PathSuspensionParams(_PathSuspensionFields):
    """Gap statistics of a maximal independent set in the path on n vertices.

    c members, ell internal gaps of size 2, delta0/delta_t flag a missed
    left/right endpoint; e = c - ell - 1 + delta counts the isolated
    vertices left after removing the closed neighborhood of the apex.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, c: int, ell: int, delta0: int, delta_t: int
    ) -> PathSuspensionParams:
        self = super().__new__(cls, n, c, ell, delta0, delta_t)
        if c < 1:
            raise ValueError("the set must be nonempty")
        if delta0 not in (0, 1) or delta_t not in (0, 1):
            raise ValueError("endpoint flags must be 0 or 1")
        if self.e < 0:
            raise ValueError("inconsistent parameters: e < 0")
        if n != 2 * c + ell - 1 + self.delta:
            raise ValueError("inconsistent parameters: n != 2c + ell - 1 + delta")
        return self

    @property
    def delta(self) -> int:
        return self.delta0 + self.delta_t

    @property
    def e(self) -> int:
        return self.c - self.ell - 1 + self.delta


def path_mis_susp_params(n: int, members: Iterable[int]) -> PathSuspensionParams:
    """Derive the gap statistics of a maximal independent set of a path."""
    if n < 1:
        raise ValueError("path must be nonempty")
    picks = sorted(members)
    gaps = [b - a for a, b in zip(picks, picks[1:])]
    # independent and maximal: members 2 or 3 apart (non-adjacent, and
    # nothing between them undominated), at most one vertex out at either end
    if not (picks and picks[0] in (1, 2) and picks[-1] in (n - 1, n)
            and all(d in (2, 3) for d in gaps)):
        raise ValueError(f"{picks} is not maximal independent in the {n}-path")
    return PathSuspensionParams(
        n=n,
        c=len(picks),
        ell=gaps.count(3),
        delta0=0 if picks[0] == 1 else 1,
        delta_t=0 if picks[-1] == n else 1,
    )


def cycle_mis_susp_params(n: int, members: Iterable[int]) -> CycleSuspensionParams:
    """Size statistics of a maximal independent set of a cycle."""
    picks = sorted(members)
    # members 2 or 3 apart as on a path, the last gap wrapping around
    gaps = [b - a for a, b in zip(picks, picks[1:] + [p + n for p in picks[:1]])]
    if not (picks and 1 <= picks[0] and picks[-1] <= n and all(d in (2, 3) for d in gaps)):
        raise ValueError(f"{picks} is not maximal independent in the {n}-cycle")
    return CycleSuspensionParams(n=n, c=len(picks))


# -- predicted report fields, one function per classification ------------
#
# Keyed like ``analysis.REPORT_FIELDS`` and holding the report's own
# values (ints, bools, polynomials), which ``analysis.render_field``
# renders; ``case`` and ``a_invariant_zero`` are the two keys a report
# does not carry.  ``kind`` is "path" or "cycle".


def predict_chain(kind: str, n: int) -> dict:
    """P(-1) and the pseudo-Gorenstein* flag of the path or cycle on n vertices.

    The path P_n is pseudo-Gorenstein* exactly when n = 0, 2, 9, 11 mod 12,
    and the cycle C_n (n >= 3) exactly when n = 1, 2, 5, 10 mod 12.
    """
    if kind == "path":
        value, pg_classes = p_value(n), (0, 2, 9, 11)
    else:
        value, pg_classes = c_value(n), (1, 2, 5, 10)
    return {"p_at_minus_one": value, "pseudo_gorenstein_star": n % 12 in pg_classes}


def predict_multipartite(parts: Sequence[int]) -> dict:
    """A complete multipartite graph is pseudo-Gorenstein* exactly when it is
    complete bipartite and its larger part is odd."""
    return {
        "independence_polynomial": multipartite_closed_poly(parts),
        "pseudo_gorenstein_star": len(parts) == 2 and max(parts) % 2 == 1,
    }


def predict_cameron_walker(spec: CameronWalkerSpec) -> dict:
    """A Cameron-Walker graph with n core X vertices, F leaves, T pendant
    triangles and m0 triangle-free core Y vertices has P(-1) = (-1)^(n+T)
    (only the all-of-X core set survives at -1), independence number
    F + T + m0 and multiplicity 0.  It is pseudo-Gorenstein* exactly when
    n + F + m0 is even."""
    n = spec.core_x
    leaves = sum(spec.leaves)
    triangles = sum(spec.triangles)
    bare = spec.triangles.count(0)
    return {
        "p_at_minus_one": -1 if (n + triangles) % 2 else 1,
        "alpha": leaves + triangles + bare,
        "multiplicity": 0,
        "pseudo_gorenstein_star": (n + leaves + bare) % 2 == 0,
    }


def predict_cone(kind: str, n: int) -> dict:
    """The suspension over every vertex of the path or cycle on n vertices.

    The cone over P_n (n >= 1) is pseudo-Gorenstein* exactly when
    n = 1, 10 mod 12, and the cone over C_n exactly when n = 0 mod 12.
    """
    if kind == "path":
        if n < 1:
            raise ValueError("path must be nonempty")
        return {"pseudo_gorenstein_star": n % 12 in (1, 10)}
    _check_cycle(n)
    return {"pseudo_gorenstein_star": n % 12 == 0}


def predict_mis_suspension(params: PathSuspensionParams | CycleSuspensionParams) -> dict:
    """The suspension of a path or cycle over a maximal independent set, given
    by its ``path_mis_susp_params`` or ``cycle_mis_susp_params``.

    Path P_n, a trichotomy on n mod 3 and the isolated-vertex count e:
    for n = 0, 2 mod 3 the a-invariant is 0 and the top h-coefficient is
    -b_n or b_n according to whether c + delta exceeds the independence
    number alpha; for n = 3k+1 and e = 0 (the set 1, 4, ..., n) the
    a-invariant is 0 and the top coefficient (-1)^(alpha+k+1); otherwise
    the a-invariant is negative.

    Cycle C_n, n >= 4, where the a-invariant is always 0: the top
    coefficient is -a_n when c = floor(n/2), sign(a_n) when c is the
    minimum ceil(n/3), and a_n strictly in between.  The triangle C_3 is
    the exception, with h = 1 + 2t - t^2.

    Either suspension is pseudo-Gorenstein* exactly when its a-invariant
    is 0 and its top coefficient is 1.  For cycles that is when
    c = ceil(n/3) for n = 0, 3 mod 12, c = floor(n/2) for n = 4, 7, 8, 11
    mod 12, c < floor(n/2) for n = 1, 2, 5, 10 mod 12, and never for
    n = 6, 9 mod 12.
    """
    n, c = params.n, params.c
    if isinstance(params, PathSuspensionParams):
        alpha = (n + 1) // 2
        if n % 3 in (0, 2):
            top = -b_value(n) if c + params.delta == alpha + 1 else b_value(n)
        elif params.e == 0:
            top = (-1) ** (alpha + (n - 1) // 3 + 1)
        else:
            return {"a_invariant_zero": False, "pseudo_gorenstein_star": False}
        return {"a_invariant_zero": True, "pseudo_gorenstein_star": top == 1, "h_top": top}
    if n == 3:
        return {"h_top": -1, "pseudo_gorenstein_star": False}
    an = a_value(n)
    if c == n // 2:
        top = -an
    elif c == -(-n // 3):
        top = 1 if an > 0 else -1
    else:
        top = an
    return {"h_top": top, "pseudo_gorenstein_star": top == 1}


def predict_vc_suspension(n_s: int, alpha: int, pg_star: bool, p_minus_one: int) -> dict:
    """The suspension over a vertex cover C that leaves n_s = |V - C|
    vertices out, of a base with independence number alpha,
    pseudo-Gorenstein* flag pg_star and value p_minus_one at -1.

    FULL_SUSPENSION_CASE (n_s = 0, the cone): no general rule; P at -1
    merely drops by 1.  PRESERVED (1 <= n_s <= alpha-1): the suspension is
    pseudo-Gorenstein* exactly when the base is.  NEVER_PG_STAR
    (n_s = alpha): a pseudo-Gorenstein* base never stays
    pseudo-Gorenstein*; its suspension picks up leading h-coefficient -1
    in degree alpha+1.
    """
    if not 0 <= n_s <= alpha:
        raise ValueError(f"|S| = {n_s} outside 0..alpha = {alpha}")
    if n_s == 0:
        return {"case": FULL_SUSPENSION_CASE, "p_at_minus_one": p_minus_one - 1}
    if n_s < alpha:
        return {"case": PRESERVED, "pseudo_gorenstein_star": pg_star}
    if pg_star:
        return {"case": NEVER_PG_STAR, "pseudo_gorenstein_star": False, "h_top": -1}
    return {"case": NEVER_PG_STAR}
