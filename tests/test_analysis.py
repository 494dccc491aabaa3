import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from pgstar.analysis import (
    a_invariant,
    analyze,
    h_polynomial,
    h_polynomial_by_expansion,
    top_alpha_coefficient,
)
from pgstar.families import predict_chain
from pgstar.graphs import (
    Graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
    suspension,
)
from pgstar.indpoly import independence_polynomial
from pgstar.polynomials import IntPolynomial

from .strategies import graphs


def random_corpus(count, max_n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.4]
        out.append(Graph(n, edges))
    return out


# -- the transform ----------------------------------------------------------------


def test_h_of_c6():
    p = independence_polynomial(cycle_graph(6))
    assert h_polynomial(p, 3).coeffs == (1, 3, 0, -2)


def test_h_of_p4_drops_degree():
    p = independence_polynomial(path_graph(4))
    h = h_polynomial(p, 2)
    assert h.coeffs == (1, 2)
    assert h.degree == 1


def test_h_of_triangle_suspension():
    p = independence_polynomial(suspension(cycle_graph(3), [2]))
    assert h_polynomial(p, 2).coeffs == (1, 2, -1)


def test_h_rejects_alpha_mismatch():
    with pytest.raises(ValueError):
        h_polynomial(IntPolynomial([1, 2]), 2)
    with pytest.raises(ValueError):
        h_polynomial_by_expansion(IntPolynomial([1, 2]), 0)


def test_h_of_constant_one():
    assert h_polynomial(IntPolynomial([1]), 0).coeffs == (1,)


@settings(max_examples=200, deadline=None)  # the explicit examples take ~0.2 s
@given(graphs(max_n=8))
@example(path_graph(300))
@example(cycle_graph(301))
def test_both_h_routes_agree(g):
    p = independence_polynomial(g)
    assert h_polynomial(p, p.degree) == h_polynomial_by_expansion(p, p.degree)


def test_h_at_one_counts_maximum_independent_sets():
    for g in random_corpus(40, 12, seed=21):
        p = independence_polynomial(g)
        h = h_polynomial(p, p.degree)
        assert h(1) == p.coefficient(p.degree)


def test_h0_and_h1():
    for g in random_corpus(40, 12, seed=22):
        rep = analyze(g)
        assert rep.h_poly.coefficient(0) == 1
        assert rep.h_poly.coefficient(1) == g.n - rep.alpha


def test_top_alpha_coefficient_avoids_transform():
    for g in random_corpus(40, 10, seed=23):
        p = independence_polynomial(g)
        h = h_polynomial(p, p.degree)
        assert top_alpha_coefficient(p(-1), p.degree) == h.coefficient(p.degree)


# -- analyze -----------------------------------------------------------------------


def test_analyze_single_edge():
    rep = analyze(path_graph(2))
    assert rep.alpha == 1
    assert rep.p_minus_one == -1
    assert rep.multiplicity == 0
    assert rep.a_invariant == 0
    assert rep.h_poly.coeffs == (1, 1)
    assert rep.h_top == 1
    assert rep.pseudo_gorenstein_star


def test_analyze_c5():
    rep = analyze(cycle_graph(5))
    assert rep.ind_poly.coeffs == (1, 5, 5)
    assert rep.p_minus_one == 1
    assert rep.h_poly.coeffs == (1, 3, 1)
    assert rep.pseudo_gorenstein_star


def test_analyze_c6():
    rep = analyze(cycle_graph(6))
    assert rep.h_top == -2
    assert not rep.pseudo_gorenstein
    assert not rep.pseudo_gorenstein_star
    assert rep.a_invariant == 0


def test_analyze_single_vertex():
    rep = analyze(path_graph(1))
    assert rep.ind_poly.coeffs == (1, 1)
    assert rep.p_minus_one == 0
    assert rep.multiplicity == 1
    assert rep.a_invariant == -1
    assert not rep.pseudo_gorenstein_star


def test_analyze_empty_graph():
    rep = analyze(Graph(0))
    assert rep.alpha == 0
    assert rep.h_poly.coeffs == (1,)
    assert rep.a_invariant == 0
    assert rep.pseudo_gorenstein
    assert rep.pseudo_gorenstein_star


def test_edgeless_graph_a_invariant():
    for k in range(1, 7):
        rep = analyze(Graph(k))
        assert rep.h_poly.coeffs == (1,)
        assert rep.a_invariant == -k
        assert rep.pseudo_gorenstein
        assert not rep.pseudo_gorenstein_star


def test_single_part_multipartite_a_invariant():
    for m in range(1, 6):
        assert analyze(complete_multipartite([m])).a_invariant == -m


def test_a_invariant_helper():
    assert a_invariant(IntPolynomial([1, 2]), 2) == -1


@settings(max_examples=200)
@given(graphs(max_n=8))
def test_report_internal_consistency(g):
    rep = analyze(g)
    assert rep.h_degree == rep.alpha - rep.multiplicity
    assert rep.a_invariant == -rep.multiplicity
    assert rep.h_top == (-1) ** rep.alpha * rep.p_minus_one
    assert rep.pseudo_gorenstein_star == (
        rep.p_minus_one == (-1) ** rep.alpha
    )
    assert rep.pseudo_gorenstein_star == (rep.pseudo_gorenstein and rep.a_invariant == 0)


def test_deg_h_equals_alpha_minus_multiplicity_corpus():
    for g in random_corpus(60, 10, seed=24):
        rep = analyze(g)
        assert rep.h_degree == rep.alpha - rep.multiplicity


# -- the mod-12 classifications ------------------------------------------------------


def test_cycles_pg_star_matches_congruence():
    for n in range(3, 41):
        predicted = predict_chain("cycle", n)["pseudo_gorenstein_star"]
        assert analyze(cycle_graph(n)).pseudo_gorenstein_star == predicted


def test_paths_pg_star_matches_congruence():
    for n in range(41):
        predicted = predict_chain("path", n)["pseudo_gorenstein_star"]
        assert analyze(path_graph(n)).pseudo_gorenstein_star == predicted
