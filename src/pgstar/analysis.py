"""From the independence polynomial to the h-polynomial and the
pseudo-Gorenstein predicates.

The h-polynomial of a graph is (1-t)^alpha * P(t/(1-t)) where alpha is
the independence number; equivalently h_j = sum_i g_i (-1)^(j-i)
binom(alpha-i, j-i).  Reversed, it is a Taylor shift: t^alpha h(1/t) =
R(t-1), where R is P with its coefficients reversed.  ``h_polynomial``
computes that shift with subtractions only, and
``h_polynomial_by_expansion`` expands the first form as an independent
second route.

A graph is pseudo-Gorenstein when the leading coefficient of its
(trimmed) h-polynomial is 1, and pseudo-Gorenstein* when additionally
the a-invariant deg h - alpha vanishes; the latter is equivalent to
P(-1) = (-1)^alpha.

Every field of an ``AnalysisReport`` is a function of P alone (the
vertex count n is the coefficient of x), and P is an immutable
``IntPolynomial`` that hashes and compares by its coefficients.  So
``analyze`` memoizes the step from P to the report, per process, in an
LRU cache of ``MEMO_SIZE`` = 512 entries, for P of degree alpha <=
``MEMO_MAX_ALPHA`` = 32; sweeps over small graphs meet the same P many
times.  A larger P skips the memo and is analysed by the same function
body, so memory stays bounded for long paths and cycles.  At alpha <= 32
and n <= ``graphio.MAX_VERTICES`` = 20 000 a coefficient of P is at most
binom(20000, 32) < 2^340 and one of h is below 2^380, so an entry holds
n and at most 2 x 33 integers of at most 80 bytes each: under 6 KB, and
about 3 MB for a full memo.  Callers share the frozen report and never
mutate it.  The engine itself is never memoized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph
from .indpoly import independence_polynomial, minus_one_profile
from .polynomials import ONE, IntPolynomial


def h_polynomial(p: IntPolynomial, alpha: int) -> IntPolynomial:
    """Binomial transform of the independence polynomial, by a Taylor shift.

    With R the coefficients of p reversed, t^alpha h(1/t) = R(t-1); the
    shift by -1 is Horner's scheme run in place, alpha^2/2 subtractions
    and no multiplication.  ``alpha`` must equal deg p; trailing zero
    coefficients are trimmed so the degree of the result can drop below
    alpha.
    """
    if alpha != p.degree:
        raise ValueError(f"alpha = {alpha} does not match deg p = {p.degree}")
    coeffs = list(reversed(p.coeffs))
    for i in range(alpha):
        for j in range(alpha - 1, i - 1, -1):
            coeffs[j] -= coeffs[j + 1]
    coeffs.reverse()
    return IntPolynomial(coeffs)


def h_polynomial_by_expansion(p: IntPolynomial, alpha: int) -> IntPolynomial:
    """Same transform via symbolic expansion of sum g_i t^i (1-t)^(alpha-i).

    Kept as an independent route; the two must always agree.
    """
    if alpha != p.degree:
        raise ValueError(f"alpha = {alpha} does not match deg p = {p.degree}")
    one_minus_t = IntPolynomial((1, -1))
    total = IntPolynomial()
    for i in range(alpha + 1):
        g_i = p.coefficient(i)
        if g_i:
            term = (g_i * ONE).shift(i) * one_minus_t ** (alpha - i)
            total = total + term
    return total


def top_alpha_coefficient(p_minus_one: int, alpha: int) -> int:
    """h_alpha without building the transform: (-1)^alpha * p(-1), given
    p(-1)."""
    return (-1) ** alpha * p_minus_one


def a_invariant(h_poly: IntPolynomial, alpha: int) -> int:
    """deg h - alpha (always equal to minus the multiplicity of -1)."""
    return h_poly.degree - alpha


class AnalysisReport(NamedTuple):
    """Every invariant this package derives from one graph."""

    n: int
    alpha: int
    ind_poly: IntPolynomial
    p_minus_one: int
    multiplicity: int
    a_invariant: int
    h_poly: IntPolynomial
    h_degree: int
    h_top: int
    pseudo_gorenstein: bool
    pseudo_gorenstein_star: bool


# the memo of ``analyze``: polynomials of degree at most MEMO_MAX_ALPHA,
# at most MEMO_SIZE of them (see the module docstring for its memory)
MEMO_MAX_ALPHA = 32
MEMO_SIZE = 512


def analyze(g: Graph) -> AnalysisReport:
    """Full exact analysis of one graph.

    The empty graph gets P = 1, alpha = 0, h = 1 and counts as
    pseudo-Gorenstein* (its value at -1 is 1 = (-1)^0).
    """
    p = independence_polynomial(g)
    if p.degree <= MEMO_MAX_ALPHA:
        return _analyze_polynomial(p)
    return _analyze_polynomial.__wrapped__(p)


@lru_cache(maxsize=MEMO_SIZE)
def _analyze_polynomial(p: IntPolynomial) -> AnalysisReport:
    """The report of a graph with independence polynomial ``p``."""
    alpha = p.degree
    profile = minus_one_profile(p)
    h = h_polynomial(p, alpha)
    a = a_invariant(h, alpha)
    pg = h.leading_coefficient == 1
    return AnalysisReport(
        # every vertex is an independent set of size 1
        n=p.coefficient(1),
        alpha=alpha,
        ind_poly=p,
        p_minus_one=profile.value,
        multiplicity=profile.multiplicity,
        a_invariant=a,
        h_poly=h,
        h_degree=h.degree,
        h_top=top_alpha_coefficient(profile.value, alpha),
        pseudo_gorenstein=pg,
        pseudo_gorenstein_star=pg and a == 0,
    )


# each field of a report, in the report's order: its JSON key and its text label
REPORT_FIELDS = {
    "n": "n",
    "alpha": "alpha",
    "independence_polynomial": "independence poly",
    "p_at_minus_one": "P(-1)",
    "multiplicity": "multiplicity of -1",
    "a_invariant": "a-invariant",
    "h_polynomial": "h-polynomial",
    "h_degree": "h degree",
    "h_top": "h top (deg alpha)",
    "pseudo_gorenstein": "pseudo-Gorenstein",
    "pseudo_gorenstein_star": "pseudo-Gorenstein*",
}


def render_field(key: str, value: object) -> object:
    """The JSON form of a report field: integers that can grow large become
    decimal strings, a polynomial the list of its coefficients."""
    if isinstance(value, IntPolynomial):
        return [str(c) for c in value.coeffs]
    if key in ("p_at_minus_one", "h_top"):
        return str(value)
    return value


def report_to_dict(rep: AnalysisReport) -> dict:
    """The report as JSON-ready fields."""
    return {key: render_field(key, value) for key, value in zip(REPORT_FIELDS, rep)}


def render_report_text(rep: AnalysisReport) -> str:
    """The report as a table of labelled rows, P in x and h in t."""
    width = max(map(len, REPORT_FIELDS.values())) + 2
    rows = []
    for (key, label), value in zip(REPORT_FIELDS.items(), rep):
        if isinstance(value, IntPolynomial):
            value = value.format("t" if key == "h_polynomial" else "x")
        elif isinstance(value, bool):
            value = "yes" if value else "no"
        rows.append(f"{label + ':':<{width}}{value}")
    return "\n".join(rows)
