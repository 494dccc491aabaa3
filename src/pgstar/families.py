"""Closed forms and classification predicates for the structured families.

Everything here is pure arithmetic on the family parameters (period-6
and period-12 tables, parity conditions, gap statistics); no polynomial
is ever computed.  The ``predict_*`` functions turn a family's parameters
into the report fields its classification predicts; ``pgstar family``,
``pgstar suspend`` and the verification sweeps all compare those against
the exact computation, which is the whole point of keeping the two
routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import CameronWalkerSpec, cycle_graph, path_graph
from .polynomials import IntPolynomial

# predictions for suspensions over vertex covers, keyed on |S| = n - |C|
PRESERVED = "preserved"
FULL_SUSPENSION_CASE = "full-suspension-case"
NEVER_PG_STAR = "never-pg-star"

_P_TABLE = (1, 0, -1, -1, 0, 1)
_C_TABLE = (2, 1, -1, -2, -1, 1)


def p_value(n: int) -> int:
    """P at -1 for the path on n vertices (period 6)."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return _P_TABLE[n % 6]


def c_value(n: int) -> int:
    """P at -1 for the cycle on n vertices (period 6, n >= 3)."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return _C_TABLE[n % 6]


def a_value(n: int) -> int:
    """(-1)^floor(n/2) * c_value(n), periodic mod 12."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    r = n % 12
    if r in (1, 2, 5, 10):
        return 1
    if r in (4, 7, 8, 11):
        return -1
    if r in (0, 3):
        return 2
    return -2  # r in (6, 9)


def b_value(n: int) -> int:
    """(-1)^ceil(n/2) * p_value(n), periodic mod 12."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    r = n % 12
    if r in (0, 2, 9, 11):
        return 1
    if r in (3, 5, 6, 8):
        return -1
    return 0  # r in (1, 4, 7, 10)


def cycle_is_pg_star(n: int) -> bool:
    """Cycles are pseudo-Gorenstein* exactly when n = 1,2,5,10 mod 12."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return n % 12 in (1, 2, 5, 10)


def path_is_pg_star(n: int) -> bool:
    """Paths are pseudo-Gorenstein* exactly when n = 0,2,9,11 mod 12."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return n % 12 in (0, 2, 9, 11)


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


def multipartite_is_pg_star(parts: Sequence[int]) -> bool:
    """True iff the graph is complete bipartite and its larger part is odd."""
    if not parts:
        raise ValueError("need at least one part")
    if any(m < 1 for m in parts):
        raise ValueError("every part must have at least one vertex")
    return len(parts) == 2 and max(parts) % 2 == 1


@dataclass(frozen=True)
class CWCounts:
    """Aggregate Cameron-Walker statistics: F leaves, T triangles, m0
    triangle-free core Y vertices."""

    n: int
    m: int
    F: int
    T: int
    m0: int


def cw_counts(spec: CameronWalkerSpec) -> CWCounts:
    return CWCounts(
        n=spec.core_x,
        m=spec.core_y,
        F=sum(spec.leaves),
        T=sum(spec.triangles),
        m0=sum(1 for t in spec.triangles if t == 0),
    )


def cw_minus_one(counts: CWCounts) -> int:
    """P(-1) = (-1)^(n+T): only the all-of-X core set survives at -1."""
    return -1 if (counts.n + counts.T) % 2 else 1


def cw_alpha(counts: CWCounts) -> int:
    """Independence number F + T + m0."""
    return counts.F + counts.T + counts.m0


def cw_is_pg_star(counts: CWCounts) -> bool:
    """True iff n + F + m0 is even."""
    return (counts.n + counts.F + counts.m0) % 2 == 0


def vc_suspension_prediction(n_s: int, alpha: int) -> str:
    """Case label for suspending over a vertex cover C with |S| = |V - C|.

    PRESERVED (1 <= |S| <= alpha-1): the suspension is pseudo-Gorenstein*
    iff the base is.  NEVER_PG_STAR (|S| = alpha): a pseudo-Gorenstein*
    base never stays pseudo-Gorenstein*; its suspension picks up leading
    h-coefficient -1 in degree alpha+1.  FULL_SUSPENSION_CASE (|S| = 0):
    no general rule; P at -1 merely drops by 1.
    """
    if n_s < 0 or n_s > alpha:
        raise ValueError(f"|S| = {n_s} outside 0..alpha = {alpha}")
    if n_s == 0:
        return FULL_SUSPENSION_CASE
    if n_s == alpha:
        return NEVER_PG_STAR
    return PRESERVED


def full_susp_cycle_is_pg_star(n: int) -> bool:
    """The cone over a cycle is pseudo-Gorenstein* iff n = 0 mod 12."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return n % 12 == 0


def full_susp_path_is_pg_star(n: int) -> bool:
    """The cone over a path is pseudo-Gorenstein* iff n = 1,10 mod 12."""
    if n < 1:
        raise ValueError("path must be nonempty")
    return n % 12 in (1, 10)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class CycleSuspensionParams:
    """A maximal independent set of size c in the cycle on n vertices.

    The gaps between consecutive chosen vertices around the cycle have
    size 1 or 2; ``ell`` counts the size-2 gaps.
    """

    n: int
    c: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("cycles need at least 3 vertices")
        lo = -(-self.n // 3)
        hi = self.n // 2
        if not lo <= self.c <= hi:
            raise ValueError(f"c = {self.c} outside {lo}..{hi} for n = {self.n}")

    @property
    def ell(self) -> int:
        return self.n - 2 * self.c


def cycle_mis_susp_top_coeff(params: CycleSuspensionParams) -> int:
    """Top h-coefficient of the suspension over a maximal independent set.

    Trichotomy on c: -a_n when c equals the independence number,
    sign(a_n) when c is the minimum ceil(n/3) (and below the maximum),
    a_n strictly in between.  n = 3 is exceptional (h = 1 + 2t - t^2)
    and is rejected here.
    """
    n, c = params.n, params.c
    if n == 3:
        raise ValueError("n = 3 is the exceptional case; its h is 1 + 2t - t^2")
    alpha = n // 2
    an = a_value(n)
    if c == alpha:
        return -an
    if c == -(-n // 3):
        return _sign(an)
    return an


def cycle_mis_susp_is_pg_star(params: CycleSuspensionParams) -> bool:
    """Pseudo-Gorenstein* test for suspensions of cycles over maximal
    independent sets (n >= 4); every such suspension has a-invariant 0."""
    n, c = params.n, params.c
    if n < 4:
        raise ValueError("classification requires n >= 4")
    r = n % 12
    if r in (0, 3):
        return c == -(-n // 3)
    if r in (4, 7, 8, 11):
        return c == n // 2
    if r in (1, 2, 5, 10):
        return c != n // 2
    return False  # r in (6, 9)


@dataclass(frozen=True)
class PathSuspensionParams:
    """Gap statistics of a maximal independent set in the path on n vertices.

    c members, ell internal gaps of size 2, delta0/delta_t flag a missed
    left/right endpoint; e = c - ell - 1 + delta counts the isolated
    vertices left after removing the closed neighborhood of the apex.
    """

    n: int
    c: int
    ell: int
    delta0: int
    delta_t: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("the set must be nonempty")
        if self.delta0 not in (0, 1) or self.delta_t not in (0, 1):
            raise ValueError("endpoint flags must be 0 or 1")
        if self.e < 0:
            raise ValueError("inconsistent parameters: e < 0")
        if self.n != 2 * self.c + self.ell - 1 + self.delta:
            raise ValueError("inconsistent parameters: n != 2c + ell - 1 + delta")

    @property
    def delta(self) -> int:
        return self.delta0 + self.delta_t

    @property
    def e(self) -> int:
        return self.c - self.ell - 1 + self.delta


def path_mis_susp_params(n: int, members: frozenset[int]) -> PathSuspensionParams:
    """Derive the gap statistics of a maximal independent set of a path."""
    if n < 1:
        raise ValueError("path must be nonempty")
    g = path_graph(n)
    if not g.is_maximal_independent(members):
        raise ValueError(f"{sorted(members)} is not maximal independent in the {n}-path")
    picks = sorted(members)
    ell = sum(1 for a, b in zip(picks, picks[1:]) if b - a == 3)
    return PathSuspensionParams(
        n=n,
        c=len(picks),
        ell=ell,
        delta0=0 if picks[0] == 1 else 1,
        delta_t=0 if picks[-1] == n else 1,
    )


@dataclass(frozen=True)
class PathSuspensionOutcome:
    """Predicted profile of a path suspension over a maximal independent set.

    ``top_coeff`` is the coefficient in degree alpha of the suspension
    and is absent when the a-invariant is negative.
    """

    a_zero: bool
    top_coeff: Optional[int]
    pg_star: bool


def path_mis_susp_classify(params: PathSuspensionParams) -> PathSuspensionOutcome:
    """Trichotomy on n mod 3 and the isolated-vertex count e.

    n = 0,2 mod 3: a-invariant 0 and top coefficient -b_n or b_n
    according to whether c + delta exceeds the independence number.
    n = 3k+1 with e = 0 (the set 1,4,...,n): a-invariant 0 and top
    coefficient (-1)^(alpha+k+1).  Otherwise the a-invariant is negative
    and the suspension cannot be pseudo-Gorenstein*.
    """
    n = params.n
    alpha = (n + 1) // 2
    if n % 3 in (0, 2):
        bn = b_value(n)
        top = -bn if params.c + params.delta == alpha + 1 else bn
        return PathSuspensionOutcome(a_zero=True, top_coeff=top, pg_star=top == 1)
    if params.e == 0:
        k = (n - 1) // 3
        top = (-1) ** (alpha + k + 1)
        return PathSuspensionOutcome(a_zero=True, top_coeff=top, pg_star=top == 1)
    return PathSuspensionOutcome(a_zero=False, top_coeff=None, pg_star=False)


def cycle_mis_susp_params(n: int, members: frozenset[int]) -> CycleSuspensionParams:
    """Size statistics of a maximal independent set of a cycle."""
    g = cycle_graph(n)
    if not g.is_maximal_independent(members):
        raise ValueError(f"{sorted(members)} is not maximal independent in the {n}-cycle")
    return CycleSuspensionParams(n=n, c=len(members))


# -- predicted report fields, one function per classification ------------
#
# Keyed and rendered as in ``analysis.report_to_dict``; ``case`` and
# ``a_invariant_zero`` are the two keys a report does not carry.  ``kind``
# is "path" or "cycle".


def predict_chain(kind: str, n: int) -> dict:
    """P(-1) and the pseudo-Gorenstein* flag of the path or cycle on n vertices."""
    if kind == "path":
        return {"p_at_minus_one": str(p_value(n)), "pseudo_gorenstein_star": path_is_pg_star(n)}
    return {"p_at_minus_one": str(c_value(n)), "pseudo_gorenstein_star": cycle_is_pg_star(n)}


def predict_multipartite(parts: Sequence[int]) -> dict:
    return {
        "independence_polynomial": [str(c) for c in multipartite_closed_poly(parts).coeffs],
        "pseudo_gorenstein_star": multipartite_is_pg_star(parts),
    }


def predict_cameron_walker(spec: CameronWalkerSpec) -> dict:
    counts = cw_counts(spec)
    return {
        "p_at_minus_one": str(cw_minus_one(counts)),
        "alpha": cw_alpha(counts),
        "multiplicity": 0,
        "pseudo_gorenstein_star": cw_is_pg_star(counts),
    }


def predict_cone(kind: str, n: int) -> dict:
    """The suspension over every vertex of the path or cycle on n vertices."""
    if kind == "path":
        return {"pseudo_gorenstein_star": full_susp_path_is_pg_star(n)}
    return {"pseudo_gorenstein_star": full_susp_cycle_is_pg_star(n)}


def predict_mis_suspension(kind: str, n: int, members: frozenset[int]) -> dict:
    """The suspension of the path or cycle on n vertices over a maximal
    independent set; the triangle (h = 1 + 2t - t^2) is the one exception
    to the cycle trichotomy."""
    if kind == "path":
        outcome = path_mis_susp_classify(path_mis_susp_params(n, members))
        predicted = {
            "a_invariant_zero": outcome.a_zero,
            "pseudo_gorenstein_star": outcome.pg_star,
        }
        if outcome.top_coeff is not None:
            predicted["h_top"] = str(outcome.top_coeff)
        return predicted
    if n == 3:
        return {"h_top": "-1", "pseudo_gorenstein_star": False}
    params = cycle_mis_susp_params(n, members)
    return {
        "h_top": str(cycle_mis_susp_top_coeff(params)),
        "pseudo_gorenstein_star": cycle_mis_susp_is_pg_star(params),
    }


def predict_vc_suspension(n_s: int, alpha: int, pg_star: bool, p_minus_one: int) -> dict:
    """The suspension over a vertex cover that leaves n_s vertices out, of a
    base with independence number alpha, pseudo-Gorenstein* flag pg_star and
    value p_minus_one at -1."""
    case = vc_suspension_prediction(n_s, alpha)
    predicted = {"case": case}
    if case == PRESERVED:
        predicted["pseudo_gorenstein_star"] = pg_star
    elif case == NEVER_PG_STAR and pg_star:
        predicted["pseudo_gorenstein_star"] = False
        predicted["h_top"] = "-1"
    elif case == FULL_SUSPENSION_CASE:
        predicted["p_at_minus_one"] = str(p_minus_one - 1)
    return predicted
