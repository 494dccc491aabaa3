"""Exact independence polynomials, h-polynomials, a-invariants and
pseudo-Gorenstein* classification of finite simple graphs."""

from .analysis import (
    AnalysisReport,
    a_invariant,
    analyze,
    h_polynomial,
    h_polynomial_by_expansion,
    top_alpha_coefficient,
)
from .graphio import ParseError, parse_edge_list, parse_graph6, serialize_edge_list
from .graphs import (
    CameronWalkerSpec,
    EnumerationLimitError,
    Graph,
    cameron_walker,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    path_graph,
    suspension,
)
from .indpoly import (
    MinusOneProfile,
    independence_polynomial,
    independence_polynomial_bruteforce,
    minus_one_profile,
)
from .polynomials import IntPolynomial

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CameronWalkerSpec",
    "EnumerationLimitError",
    "Graph",
    "IntPolynomial",
    "MinusOneProfile",
    "ParseError",
    "a_invariant",
    "analyze",
    "cameron_walker",
    "complete_multipartite",
    "cycle_graph",
    "disjoint_union",
    "h_polynomial",
    "h_polynomial_by_expansion",
    "independence_polynomial",
    "independence_polynomial_bruteforce",
    "minus_one_profile",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "serialize_edge_list",
    "suspension",
    "top_alpha_coefficient",
]
