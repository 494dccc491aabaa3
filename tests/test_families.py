import pytest

from pgstar import families
from pgstar.analysis import analyze, report_to_dict
from pgstar.families import (
    CWCounts,
    CycleSuspensionParams,
    PathSuspensionParams,
    a_value,
    b_value,
    c_value,
    cw_alpha,
    cw_counts,
    cw_is_pg_star,
    cw_minus_one,
    cycle_is_pg_star,
    cycle_mis_susp_is_pg_star,
    cycle_mis_susp_params,
    cycle_mis_susp_top_coeff,
    full_susp_cycle_is_pg_star,
    full_susp_path_is_pg_star,
    multipartite_closed_poly,
    multipartite_is_pg_star,
    p_value,
    path_is_pg_star,
    path_mis_susp_classify,
    path_mis_susp_params,
    vc_suspension_prediction,
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


def test_congruence_predicates():
    assert cycle_is_pg_star(13)
    assert not cycle_is_pg_star(12)
    assert path_is_pg_star(9)
    assert not path_is_pg_star(3)
    with pytest.raises(ValueError):
        cycle_is_pg_star(2)


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
    assert multipartite_is_pg_star([2, 3])
    assert not multipartite_is_pg_star([3, 3, 1])
    assert not multipartite_is_pg_star([4, 2])
    assert not multipartite_is_pg_star([5])
    assert multipartite_is_pg_star([1, 1])


# -- Cameron-Walker ---------------------------------------------------------------


def test_cw_counts():
    spec = CameronWalkerSpec(1, 2, [(1, 1), (1, 2)], [2], [0, 3])
    assert cw_counts(spec) == CWCounts(n=1, m=2, F=2, T=3, m0=1)


@pytest.mark.parametrize(
    "spec,value,alpha,pg",
    [
        (CameronWalkerSpec(1, 1, [(1, 1)], [1], [1]), 1, 2, True),
        (CameronWalkerSpec(1, 1, [(1, 1)], [1], [0]), -1, 2, False),
        (CameronWalkerSpec(1, 1, [(1, 1)], [2], [0]), -1, 3, True),
    ],
)
def test_cw_formulas_on_small_specs(spec, value, alpha, pg):
    counts = cw_counts(spec)
    assert cw_minus_one(counts) == value
    assert cw_alpha(counts) == alpha
    assert cw_is_pg_star(counts) == pg
    # cross-check against full analysis of the built graph
    rep = analyze(cameron_walker(spec))
    assert rep.p_minus_one == value
    assert rep.alpha == alpha
    assert rep.pseudo_gorenstein_star == pg


def test_cw_leaf_only_example_is_p3():
    # single core edge with one leaf: the path on 3 vertices, not
    # pseudo-Gorenstein* (3 mod 12 is outside the path classes)
    counts = cw_counts(CameronWalkerSpec(1, 1, [(1, 1)], [1], [0]))
    assert not cw_is_pg_star(counts)
    assert not path_is_pg_star(3)


# -- suspension predictions ---------------------------------------------------------


def test_vc_suspension_prediction_cases():
    assert vc_suspension_prediction(1, 3) == families.PRESERVED
    assert vc_suspension_prediction(2, 3) == families.PRESERVED
    assert vc_suspension_prediction(3, 3) == families.NEVER_PG_STAR
    assert vc_suspension_prediction(0, 3) == families.FULL_SUSPENSION_CASE
    with pytest.raises(ValueError):
        vc_suspension_prediction(4, 3)
    with pytest.raises(ValueError):
        vc_suspension_prediction(-1, 3)


def test_full_suspension_predicates():
    assert full_susp_cycle_is_pg_star(12)
    assert not full_susp_cycle_is_pg_star(6)
    assert full_susp_path_is_pg_star(10)
    assert full_susp_path_is_pg_star(1)
    assert not full_susp_path_is_pg_star(4)
    with pytest.raises(ValueError):
        full_susp_cycle_is_pg_star(2)
    with pytest.raises(ValueError):
        full_susp_path_is_pg_star(0)


# -- cycle suspensions over maximal independent sets -----------------------------------


def test_cycle_params_validation():
    params = CycleSuspensionParams(10, 4)
    assert params.ell == 2
    with pytest.raises(ValueError):
        CycleSuspensionParams(10, 3)  # below ceil(10/3)
    with pytest.raises(ValueError):
        CycleSuspensionParams(10, 6)  # above floor(10/2)


def test_cycle_top_coeff_trichotomy():
    # c = alpha
    assert cycle_mis_susp_top_coeff(CycleSuspensionParams(5, 2)) == -1
    # c = ceil(n/3) < alpha
    assert cycle_mis_susp_top_coeff(CycleSuspensionParams(12, 4)) == 1
    assert cycle_mis_susp_top_coeff(CycleSuspensionParams(10, 4)) == 1
    # strictly between
    assert cycle_mis_susp_top_coeff(CycleSuspensionParams(12, 5)) == 2
    with pytest.raises(ValueError):
        cycle_mis_susp_top_coeff(CycleSuspensionParams(3, 1))


def test_cycle_top_coeff_worked_example():
    g = cycle_graph(5)
    from pgstar.graphs import suspension

    rep = analyze(suspension(g, [1, 3]))
    assert rep.ind_poly.coeffs == (1, 6, 8, 2)
    assert rep.h_top == -1
    assert rep.h_top == cycle_mis_susp_top_coeff(cycle_mis_susp_params(5, frozenset({1, 3})))


def test_cycle_mis_pg_star_cases():
    assert cycle_mis_susp_is_pg_star(CycleSuspensionParams(12, 4))
    assert cycle_mis_susp_is_pg_star(CycleSuspensionParams(7, 3))
    assert not cycle_mis_susp_is_pg_star(CycleSuspensionParams(5, 2))
    assert not cycle_mis_susp_is_pg_star(CycleSuspensionParams(6, 3))
    with pytest.raises(ValueError):
        cycle_mis_susp_is_pg_star(CycleSuspensionParams(3, 1))


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


def test_path_classify_case_b():
    outcome = path_mis_susp_classify(path_mis_susp_params(4, frozenset({1, 4})))
    assert outcome.a_zero
    assert outcome.top_coeff == 1
    assert outcome.pg_star
    # brute-force cross-check of the worked example
    from pgstar.graphs import suspension

    rep = analyze(suspension(path_graph(4), [1, 4]))
    assert rep.ind_poly.coeffs == (1, 5, 5)
    assert rep.h_top == 1
    assert rep.pseudo_gorenstein_star


def test_path_classify_case_a():
    outcome = path_mis_susp_classify(path_mis_susp_params(5, frozenset({1, 3, 5})))
    assert outcome.a_zero
    assert outcome.top_coeff == -1
    assert not outcome.pg_star


def test_path_classify_case_c():
    outcome = path_mis_susp_classify(path_mis_susp_params(7, frozenset({2, 5, 7})))
    assert not outcome.a_zero
    assert outcome.top_coeff is None
    assert not outcome.pg_star


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
        families.predict_mis_suspension("path", 5, frozenset({2, 4})),
        families.predict_mis_suspension("path", 7, frozenset({2, 5, 7})),
        families.predict_mis_suspension("cycle", 3, frozenset({1})),
        families.predict_mis_suspension("cycle", 5, frozenset({1, 3})),
        *(families.predict_vc_suspension(s, 3, pg, -1) for s in range(4) for pg in (True, False)),
    ]
    for predicted in predictions:
        assert set(predicted) <= report_keys, predicted
