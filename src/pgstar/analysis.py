"""From the independence polynomial to the h-polynomial and the
pseudo-Gorenstein predicates.

The h-polynomial of a graph is (1-t)^alpha * P(t/(1-t)) where alpha is
the independence number; equivalently h_j = sum_i g_i (-1)^(j-i)
binom(alpha-i, j-i).  A graph is pseudo-Gorenstein when the leading
coefficient of its (trimmed) h-polynomial is 1, and pseudo-Gorenstein*
when additionally the a-invariant deg h - alpha vanishes; the latter is
equivalent to P(-1) = (-1)^alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .indpoly import independence_polynomial, minus_one_profile
from .polynomials import ONE, IntPolynomial


def h_polynomial(p: IntPolynomial, alpha: int) -> IntPolynomial:
    """Binomial transform of the independence polynomial.

    ``alpha`` must equal deg p; trailing zero coefficients are trimmed so
    the degree of the result can drop below alpha.
    """
    if alpha != p.degree:
        raise ValueError(f"alpha = {alpha} does not match deg p = {p.degree}")
    # row i adds g_i (-1)^k binom(alpha - i, k) to h_{i+k}; the binomials
    # of one row follow from each other by an exact multiplicative step
    coeffs = [0] * (alpha + 1)
    for i, g_i in enumerate(p.coeffs):
        if g_i:
            m = alpha - i
            term = g_i
            for k in range(m + 1):
                coeffs[i + k] += term
                term = -term * (m - k) // (k + 1)
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


def top_alpha_coefficient(p: IntPolynomial, alpha: int) -> int:
    """h_alpha without building the transform: (-1)^alpha * p(-1)."""
    return (-1) ** alpha * p(-1)


def a_invariant(h_poly: IntPolynomial, alpha: int) -> int:
    """deg h - alpha (always equal to minus the multiplicity of -1)."""
    return h_poly.degree - alpha


@dataclass(frozen=True)
class AnalysisReport:
    """Every invariant this package derives from one graph."""

    alpha: int
    ind_poly: IntPolynomial
    h_poly: IntPolynomial
    p_minus_one: int
    multiplicity: int
    a_invariant: int
    h_degree: int
    h_top: int
    pseudo_gorenstein: bool
    pseudo_gorenstein_star: bool


def analyze(g: Graph) -> AnalysisReport:
    """Full exact analysis of one graph.

    The empty graph gets P = 1, alpha = 0, h = 1 and counts as
    pseudo-Gorenstein* (its value at -1 is 1 = (-1)^0).
    """
    p = independence_polynomial(g)
    alpha = p.degree
    profile = minus_one_profile(p)
    h = h_polynomial(p, alpha)
    a = a_invariant(h, alpha)
    pg = h.leading_coefficient == 1
    return AnalysisReport(
        alpha=alpha,
        ind_poly=p,
        h_poly=h,
        p_minus_one=profile.value,
        multiplicity=profile.multiplicity,
        a_invariant=a,
        h_degree=h.degree,
        h_top=top_alpha_coefficient(p, alpha),
        pseudo_gorenstein=pg,
        pseudo_gorenstein_star=pg and a == 0,
    )


def report_to_dict(n: int, rep: AnalysisReport) -> dict:
    """The report of an n-vertex graph as JSON-ready fields; integers that
    can grow large are decimal strings."""
    return {
        "n": n,
        "alpha": rep.alpha,
        "independence_polynomial": [str(c) for c in rep.ind_poly.coeffs],
        "p_at_minus_one": str(rep.p_minus_one),
        "multiplicity": rep.multiplicity,
        "a_invariant": rep.a_invariant,
        "h_polynomial": [str(c) for c in rep.h_poly.coeffs],
        "h_degree": rep.h_degree,
        "h_top": str(rep.h_top),
        "pseudo_gorenstein": rep.pseudo_gorenstein,
        "pseudo_gorenstein_star": rep.pseudo_gorenstein_star,
    }
