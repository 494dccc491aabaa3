import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgstar import families
from pgstar.analysis import analyze, report_to_dict
from pgstar.families import (
    CycleSuspensionParams,
    PathSuspensionParams,
    a_value,
    b_value,
    c_value,
    cycle_mis_susp_params,
    multipartite_closed_poly,
    p_value,
    path_mis_susp_params,
    predict_cameron_walker,
    predict_chain,
    predict_cone,
    predict_mis_suspension,
    predict_multipartite,
    predict_vc_suspension,
)
from pgstar.graphs import (
    CameronWalkerSpec,
    cameron_walker,
    complete_multipartite,
    cycle_graph,
    path_graph,
)
from pgstar.indpoly import independence_polynomial


# -- period-6 and period-12 sequences ----------------------------------------


def test_p_value_examples():
    assert p_value(0) == 1
    assert p_value(7) == 0
    assert p_value(9) == -1
    with pytest.raises(ValueError):
        p_value(-1)


def test_p_value_satisfies_recurrence():
    # p_0 = 1, p_1 = 0, p_n = p_{n-1} - p_{n-2}
    values = [p_value(n) for n in range(40)]
    assert values[0] == 1 and values[1] == 0
    for n in range(2, 40):
        assert values[n] == values[n - 1] - values[n - 2]


def test_c_value_examples():
    assert c_value(6) == 2
    assert c_value(3) == -2
    assert c_value(7) == 1
    with pytest.raises(ValueError):
        c_value(2)


def test_c_value_from_p_values():
    for n in range(3, 40):
        assert c_value(n) == p_value(n - 1) - p_value(n - 3)


def test_a_b_value_examples():
    assert a_value(12) == 2
    assert b_value(7) == 0
    assert b_value(11) == 1
    with pytest.raises(ValueError):
        a_value(2)
    with pytest.raises(ValueError):
        b_value(-1)


def test_signed_values_match_definitions():
    for n in range(3, 61):
        assert a_value(n) == (-1) ** (n // 2) * c_value(n)
    for n in range(61):
        assert b_value(n) == (-1) ** ((n + 1) // 2) * p_value(n)


def pg_star(predicted: dict) -> bool:
    return predicted["pseudo_gorenstein_star"]


def test_congruence_predicates():
    assert pg_star(predict_chain("cycle", 13))
    assert not pg_star(predict_chain("cycle", 12))
    assert pg_star(predict_chain("path", 9))
    assert not pg_star(predict_chain("path", 3))
    with pytest.raises(ValueError):
        predict_chain("cycle", 2)


# -- complete multipartite -----------------------------------------------------


def test_multipartite_closed_poly_examples():
    assert multipartite_closed_poly([2, 3]).coeffs == (1, 5, 4, 1)
    assert multipartite_closed_poly([4]).coeffs == (1, 4, 6, 4, 1)
    assert multipartite_closed_poly([1, 1]).coeffs == (1, 2)
    with pytest.raises(ValueError):
        multipartite_closed_poly([])
    with pytest.raises(ValueError):
        multipartite_closed_poly([2, 0])


def test_multipartite_closed_poly_matches_computation():
    for parts in ([2, 3], [1, 1, 1], [4, 2], [3, 3, 1], [5, 4, 3, 2]):
        assert multipartite_closed_poly(parts) == independence_polynomial(
            complete_multipartite(parts)
        )


def test_multipartite_value_at_minus_one_is_one_minus_k():
    for parts in ([2, 3], [1, 1, 1], [4, 2], [3, 3, 1], [2, 2, 2, 2]):
        assert multipartite_closed_poly(parts)(-1) == 1 - len(parts)


def test_multipartite_is_pg_star():
    assert pg_star(predict_multipartite([2, 3]))
    assert not pg_star(predict_multipartite([3, 3, 1]))
    assert not pg_star(predict_multipartite([4, 2]))
    assert not pg_star(predict_multipartite([5]))
    assert pg_star(predict_multipartite([1, 1]))


# -- Cameron-Walker ---------------------------------------------------------------


def test_cw_counts():
    # n = 1 core X vertex, F = 2 leaves, T = 3 triangles, m0 = 1 bare Y vertex
    spec = CameronWalkerSpec(1, 2, [(1, 1), (1, 2)], [2], [0, 3])
    assert predict_cameron_walker(spec) == {
        "p_at_minus_one": "1",  # (-1)^(n+T)
        "alpha": 6,  # F + T + m0
        "multiplicity": 0,
        "pseudo_gorenstein_star": True,  # n + F + m0 even
    }


@pytest.mark.parametrize(
    "spec,value,alpha,pg",
    [
        (CameronWalkerSpec(1, 1, [(1, 1)], [1], [1]), 1, 2, True),
        (CameronWalkerSpec(1, 1, [(1, 1)], [1], [0]), -1, 2, False),
        (CameronWalkerSpec(1, 1, [(1, 1)], [2], [0]), -1, 3, True),
    ],
)
def test_cw_formulas_on_small_specs(spec, value, alpha, pg):
    predicted = predict_cameron_walker(spec)
    assert predicted["p_at_minus_one"] == str(value)
    assert predicted["alpha"] == alpha
    assert pg_star(predicted) == pg
    # cross-check against full analysis of the built graph
    rep = analyze(cameron_walker(spec))
    assert rep.p_minus_one == value
    assert rep.alpha == alpha
    assert rep.pseudo_gorenstein_star == pg


def test_cw_leaf_only_example_is_p3():
    # single core edge with one leaf: the path on 3 vertices, not
    # pseudo-Gorenstein* (3 mod 12 is outside the path classes)
    assert not pg_star(predict_cameron_walker(CameronWalkerSpec(1, 1, [(1, 1)], [1], [0])))
    assert not pg_star(predict_chain("path", 3))


# -- suspension predictions ---------------------------------------------------------


def test_vc_suspension_prediction_cases():
    def case(n_s, alpha):
        return predict_vc_suspension(n_s, alpha, True, 1)["case"]

    assert case(1, 3) == families.PRESERVED
    assert case(2, 3) == families.PRESERVED
    assert case(3, 3) == families.NEVER_PG_STAR
    assert case(0, 3) == families.FULL_SUSPENSION_CASE
    with pytest.raises(ValueError):
        case(4, 3)
    with pytest.raises(ValueError):
        case(-1, 3)


def test_full_suspension_predicates():
    assert pg_star(predict_cone("cycle", 12))
    assert not pg_star(predict_cone("cycle", 6))
    assert pg_star(predict_cone("path", 10))
    assert pg_star(predict_cone("path", 1))
    assert not pg_star(predict_cone("path", 4))
    with pytest.raises(ValueError):
        predict_cone("cycle", 2)
    with pytest.raises(ValueError):
        predict_cone("path", 0)


# -- cycle suspensions over maximal independent sets -----------------------------------


def test_cycle_params_validation():
    params = CycleSuspensionParams(10, 4)
    assert params.ell == 2
    with pytest.raises(ValueError):
        CycleSuspensionParams(10, 3)  # below ceil(10/3)
    with pytest.raises(ValueError):
        CycleSuspensionParams(10, 6)  # above floor(10/2)


def cycle_top(n: int, c: int) -> str:
    return predict_mis_suspension(CycleSuspensionParams(n, c))["h_top"]


def test_cycle_top_coeff_trichotomy():
    # c = alpha
    assert cycle_top(5, 2) == "-1"
    # c = ceil(n/3) < alpha
    assert cycle_top(12, 4) == "1"
    assert cycle_top(10, 4) == "1"
    # strictly between
    assert cycle_top(12, 5) == "2"
    # the triangle is outside the trichotomy: h = 1 + 2t - t^2
    assert cycle_top(3, 1) == "-1"


def test_cycle_top_coeff_worked_example():
    g = cycle_graph(5)
    from pgstar.graphs import suspension

    rep = analyze(suspension(g, [1, 3]))
    assert rep.ind_poly.coeffs == (1, 6, 8, 2)
    assert rep.h_top == -1
    predicted = predict_mis_suspension(cycle_mis_susp_params(5, frozenset({1, 3})))
    assert str(rep.h_top) == predicted["h_top"]


def test_cycle_mis_pg_star_cases():
    def cycle_pg_star(n, c):
        return pg_star(predict_mis_suspension(CycleSuspensionParams(n, c)))

    assert cycle_pg_star(12, 4)
    assert cycle_pg_star(7, 3)
    assert not cycle_pg_star(5, 2)
    assert not cycle_pg_star(6, 3)
    assert not cycle_pg_star(3, 1)


def test_cycle_mis_pg_star_mod_12_classes():
    # the classification by n mod 12 that the top-coefficient trichotomy implies
    for n in range(4, 61):
        least, alpha = -(-n // 3), n // 2
        for c in range(least, alpha + 1):
            r = n % 12
            if r in (0, 3):
                want = c == least
            elif r in (4, 7, 8, 11):
                want = c == alpha
            elif r in (1, 2, 5, 10):
                want = c < alpha
            else:
                want = False
            assert pg_star(predict_mis_suspension(CycleSuspensionParams(n, c))) == want, (n, c)


def test_cycle_mis_params_rejects_non_maximal():
    with pytest.raises(ValueError):
        cycle_mis_susp_params(6, frozenset({1}))


# -- path suspensions over maximal independent sets -------------------------------------


def test_path_params_examples():
    p = path_mis_susp_params(4, frozenset({1, 4}))
    assert (p.c, p.ell, p.delta, p.e) == (2, 1, 0, 0)
    p = path_mis_susp_params(5, frozenset({1, 3, 5}))
    assert (p.c, p.ell, p.delta, p.e) == (3, 0, 0, 2)
    p = path_mis_susp_params(3, frozenset({2}))
    assert (p.c, p.ell, p.delta, p.e) == (1, 0, 2, 2)


def test_path_params_rejects_non_maximal():
    with pytest.raises(ValueError):
        path_mis_susp_params(4, frozenset({1}))
    with pytest.raises(ValueError):
        path_mis_susp_params(4, frozenset({1, 2}))


def test_path_params_consistency_validation():
    with pytest.raises(ValueError):
        PathSuspensionParams(n=4, c=2, ell=0, delta0=0, delta_t=0)


def path_prediction(n: int, members: set[int]) -> dict:
    return predict_mis_suspension(path_mis_susp_params(n, frozenset(members)))


def test_path_classify_case_b():
    assert path_prediction(4, {1, 4}) == {
        "a_invariant_zero": True,
        "pseudo_gorenstein_star": True,
        "h_top": "1",
    }
    # brute-force cross-check of the worked example
    from pgstar.graphs import suspension

    rep = analyze(suspension(path_graph(4), [1, 4]))
    assert rep.ind_poly.coeffs == (1, 5, 5)
    assert rep.h_top == 1
    assert rep.pseudo_gorenstein_star


def test_path_classify_case_a():
    assert path_prediction(5, {1, 3, 5}) == {
        "a_invariant_zero": True,
        "pseudo_gorenstein_star": False,
        "h_top": "-1",
    }


def test_path_classify_case_c():
    # a negative a-invariant: no top coefficient is predicted
    assert path_prediction(7, {2, 5, 7}) == {
        "a_invariant_zero": False,
        "pseudo_gorenstein_star": False,
    }


@st.composite
def chain_vertex_sets(draw):
    """A path or cycle on up to 30 vertices and a vertex set: random, or a
    greedy maximal independent set, possibly with one member dropped or
    one vertex added."""
    n = draw(st.integers(1, 30))
    g = draw(st.sampled_from([path_graph(n)] + ([cycle_graph(n)] if n >= 3 else [])))
    if draw(st.booleans()):
        return g, frozenset(draw(st.sets(st.integers(1, n))))
    members = set()
    for v in draw(st.permutations(range(1, n + 1))):
        if not g.neighbors(v) & members:
            members.add(v)
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        members.discard(draw(st.sampled_from(sorted(members))))
    elif change == "add":
        members.add(draw(st.integers(1, n)))
    return g, frozenset(members)


@settings(max_examples=400)
@given(chain_vertex_sets())
@example((path_graph(5), frozenset({3, 5})))  # two vertices out at the left end
@example((path_graph(8), frozenset({1, 5, 8})))  # a gap of 4
@example((cycle_graph(8), frozenset({3, 5, 7})))  # a gap of 4 across the wrap
def test_mis_params_arithmetic_matches_graph(case):
    g, members = case
    is_path = g.edge_count() == g.n - 1
    derive = path_mis_susp_params if is_path else cycle_mis_susp_params
    if g.is_maximal_independent(members):
        assert derive(g.n, members).c == len(members)
    else:
        with pytest.raises(ValueError, match="is not maximal independent"):
            derive(g.n, members)


def test_e_zero_detection_equals_canonical_set():
    for n in range(2, 16):
        canonical = frozenset(range(1, n + 1, 3)) if n % 3 == 1 else None
        for members in path_graph(n).maximal_independent_sets():
            params = path_mis_susp_params(n, members)
            assert (params.e == 0) == (members == canonical)


# -- predicted report fields ---------------------------------------------------------


def test_predictions_are_keyed_like_the_report():
    # a misspelled key would be skipped by the comparison and never checked
    report_keys = set(report_to_dict(0, analyze(path_graph(0)))) | {"case", "a_invariant_zero"}
    predictions = [
        families.predict_chain("path", 9),
        families.predict_chain("cycle", 17),
        families.predict_multipartite((2, 3)),
        families.predict_cameron_walker(CameronWalkerSpec(1, 1, [(1, 1)], [1], [1])),
        families.predict_cone("path", 4),
        families.predict_cone("cycle", 12),
        families.predict_mis_suspension(path_mis_susp_params(5, frozenset({2, 4}))),
        families.predict_mis_suspension(path_mis_susp_params(7, frozenset({2, 5, 7}))),
        families.predict_mis_suspension(cycle_mis_susp_params(3, frozenset({1}))),
        families.predict_mis_suspension(cycle_mis_susp_params(5, frozenset({1, 3}))),
        *(families.predict_vc_suspension(s, 3, pg, -1) for s in range(4) for pg in (True, False)),
    ]
    for predicted in predictions:
        assert set(predicted) <= report_keys, predicted
