import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgstar.analysis import (
    MEMO_MAX_ALPHA,
    MEMO_SIZE,
    REPORT_FIELDS,
    AnalysisReport,
    _analyze_polynomial,
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
    disjoint_union,
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers()), st.integers().filter(bool))
def test_both_h_routes_agree_on_any_integer_coefficients(lower, leading):
    # not only independence polynomials: zero, negative and huge entries
    p = IntPolynomial([*lower, leading])
    assert h_polynomial(p, p.degree) == h_polynomial_by_expansion(p, p.degree)


@pytest.mark.parametrize("g", [path_graph(2000), cycle_graph(1500)], ids=["P_2000", "C_1500"])
def test_h_identities_at_large_alpha(g):
    # alpha ~ 1000 is out of the expansion route's reach, so check the
    # identities that pin h down at both ends and at t = 1
    p = independence_polynomial(g)
    alpha = p.degree
    h = h_polynomial(p, alpha)
    assert h.coefficient(0) == 1
    assert h.coefficient(1) == g.n - alpha
    assert h(1) == p.coefficient(alpha)
    assert h.coefficient(alpha) == (-1) ** alpha * p(-1)


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


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8))
@example(Graph(0))
@example(path_graph(300))  # alpha = 150, past the memo
def test_report_counts_the_vertices(g):
    # n is the coefficient of x in P: every vertex is an independent set
    assert analyze(g).n == g.n


def test_report_fields_follow_the_report_in_order():
    renamed = {
        "ind_poly": "independence_polynomial",
        "p_minus_one": "p_at_minus_one",
        "h_poly": "h_polynomial",
    }
    assert list(REPORT_FIELDS) == [renamed.get(f, f) for f in AnalysisReport._fields]


def test_deg_h_equals_alpha_minus_multiplicity_corpus():
    for g in random_corpus(60, 10, seed=24):
        rep = analyze(g)
        assert rep.h_degree == rep.alpha - rep.multiplicity


# -- the memo of analyze --------------------------------------------------------


def _fields(rep):
    return rep._asdict()


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=8), st.integers(0, 80).map(path_graph)))
@example(path_graph(64))  # alpha = 32, the largest the memo takes
@example(path_graph(70))  # alpha = 35, past the memo
def test_analyze_equals_the_analysis_of_its_polynomial(g):
    # the second call may be a memo hit; both must equal a fresh analysis
    fresh = _fields(_analyze_polynomial.__wrapped__(independence_polynomial(g)))
    assert _fields(analyze(g)) == fresh
    assert _fields(analyze(g)) == fresh


def test_memo_stays_within_its_size():
    # P_a plus k isolated vertices has P = P_a(x) (1+x)^k and alpha = ceil(a/2) + k
    family = [
        disjoint_union(path_graph(a), Graph(k))
        for a in range(2 * MEMO_MAX_ALPHA + 1)
        for k in range(MEMO_MAX_ALPHA - (a + 1) // 2 + 1)
    ]
    assert len({independence_polynomial(g) for g in family}) > MEMO_SIZE
    for g in family:
        analyze(g)
        info = _analyze_polynomial.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize <= MEMO_SIZE


@pytest.mark.parametrize(
    "g, memoized",
    [(path_graph(2 * MEMO_MAX_ALPHA), True), (path_graph(2 * MEMO_MAX_ALPHA + 1), False)],
    ids=["alpha_at_bound", "alpha_past_bound"],
)
def test_only_small_alpha_reaches_the_memo(g, memoized):
    before = _analyze_polynomial.cache_info()
    analyze(g)
    analyze(g)
    after = _analyze_polynomial.cache_info()
    assert (after != before) == memoized
    if memoized:
        assert after.hits > before.hits


# -- the mod-12 classifications ------------------------------------------------------


def test_cycles_pg_star_matches_congruence():
    for n in range(3, 41):
        predicted = predict_chain("cycle", n)["pseudo_gorenstein_star"]
        assert analyze(cycle_graph(n)).pseudo_gorenstein_star == predicted


def test_paths_pg_star_matches_congruence():
    for n in range(41):
        predicted = predict_chain("path", n)["pseudo_gorenstein_star"]
        assert analyze(path_graph(n)).pseudo_gorenstein_star == predicted
