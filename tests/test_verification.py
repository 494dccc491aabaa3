import os
import signal
from itertools import combinations

import pytest

from pgstar import analysis, families, graphio, verification
from pgstar.analysis import analyze
from pgstar.graphio import MAX_VERTICES
from pgstar.graphs import (
    MIS_ENUMERATION_LIMIT,
    EnumerationLimitError,
    Graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    suspension,
)
from pgstar.indpoly import BRUTE_FORCE_LIMIT
from pgstar.polynomials import IntPolynomial
from pgstar.verification import (
    DEFAULT_SEED,
    Mismatch,
    VerifyOutcome,
    all_graphs,
    prediction_mismatches,
    random_cameron_walker_specs,
    random_graph_corpus,
)


def test_all_sweeps_pass_at_reduced_scale():
    outcomes = [
        verification.verify_cycles(max_n=20),
        verification.verify_paths(max_n=20),
        verification.verify_sequences(max_n=24),
        verification.verify_multipartite(max_parts=3, max_part_size=4),
        verification.verify_cameron_walker(count=15, seed=5),
        verification.verify_vc_suspension(count=25, max_n=7, seed=5),
        verification.verify_full_suspension(max_n=20),
        verification.verify_cycle_mis_suspension(max_n=12),
        verification.verify_path_mis_suspension(max_n=12),
        verification.verify_deg_via_ord(random_count=60, max_n=8, seed=5, exhaustive_n=4),
        verification.verify_oracle(random_count=60, max_n=8, seed=5, exhaustive_n=4),
    ]
    for out in outcomes:
        assert out.passed, out.mismatches
        assert out.instances > 0


def test_mismatches_are_reported(monkeypatch):
    # sabotage one closed form and make sure the sweep notices
    predict = families.predict_chain
    monkeypatch.setattr(
        families,
        "predict_chain",
        lambda kind, n: {**predict(kind, n), "pseudo_gorenstein_star": n % 12 == 7},
    )
    out = verification.verify_cycles(max_n=20)
    assert not out.passed
    assert any("C_5" in m.instance for m in out.mismatches)
    assert all(isinstance(m, Mismatch) for m in out.mismatches)


def test_sequences_compare_the_tables_like_every_closed_form(monkeypatch):
    # a wrong path entry for n = 5 mod 6, where P_n(-1) is 1
    monkeypatch.setattr(families, "_P_TABLE", (1, 0, -1, -1, 0, 2))
    out = verification.verify_sequences(max_n=12)
    assert out.instances == 13 + 10
    assert out.mismatches == (
        Mismatch("P_5 p_at_minus_one", "2", "1"),
        Mismatch("P_11 p_at_minus_one", "2", "1"),
    )


@pytest.fixture
def fresh_memo():
    # reports memoized under a patched analysis must not outlive the patch
    analysis._analyze_polynomial.cache_clear()
    yield
    analysis._analyze_polynomial.cache_clear()


def test_deg_via_ord_reports_one_line_per_failing_graph(monkeypatch, fresh_memo):
    profile = analysis.minus_one_profile
    monkeypatch.setattr(
        analysis,
        "minus_one_profile",
        lambda p: (prof := profile(p))._replace(multiplicity=prof.multiplicity + 1),
    )
    out = verification.verify_deg_via_ord(random_count=20, max_n=8, seed=5, exhaustive_n=3)
    assert [m.instance for m in out.mismatches] == [
        f"graph#{i} a-invariant" for i in range(out.instances)
    ]
    assert all(int(m.expected) == int(m.got) - 1 for m in out.mismatches)


def test_vc_suspension_checks_the_library_case_split(monkeypatch):
    # a wrong case for |S| = alpha - 1 must show up in the sweep
    predict = families.predict_vc_suspension

    def sabotaged(n_s, alpha, pg_star, p_minus_one):
        if n_s == alpha - 1 >= 1:
            n_s = alpha  # predict the never-pg-star case instead
        return predict(n_s, alpha, pg_star, p_minus_one)

    monkeypatch.setattr(families, "predict_vc_suspension", sabotaged)
    out = verification.verify_vc_suspension(count=25, max_n=7, seed=5)
    assert not out.passed


def test_outcome_to_dict():
    out = VerifyOutcome("demo", 3, (Mismatch("i", "1", "2"),), seed=9)
    d = out.to_dict()
    assert d == {
        "theorem": "demo",
        "instances": 3,
        "mismatches": [{"instance": "i", "expected": "1", "got": "2"}],
        "pass": False,
        "seed": 9,
    }


def test_parallel_equals_serial():
    serial = verification.verify_cycles(max_n=25, jobs=1)
    parallel = verification.verify_cycles(max_n=25, jobs=2)
    assert serial == parallel
    serial = verification.verify_path_mis_suspension(max_n=10, jobs=1)
    parallel = verification.verify_path_mis_suspension(max_n=10, jobs=2)
    assert serial == parallel


def _square(x: int) -> int:
    return x * x


def test_pmap_returns_results_in_item_order(monkeypatch):
    # the pool takes the items in reverse; results still come in item order
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 3)
    items = (i for i in range(50))
    assert verification._pmap(_square, items, jobs=2) == [i * i for i in range(50)]
    # 53 items make chunks of 6 (2 workers) or 4 (3 workers) and a short
    # last one, and the items' cost varies
    uneven = [3 ** (i % 11) for i in range(53)]
    for jobs in (2, 3):
        assert verification._pmap(_square, uneven, jobs) == [x * x for x in uneven]


def _fails_at_7_and_40(x: int) -> int:
    if x in (7, 40):
        raise ValueError(f"item {x}")
    return x


def _dies_at_30(x: int) -> int:
    if x == 30:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_pmap_raises_the_lowest_index_failure(jobs, monkeypatch):
    # what one worker raises: the first failing item in item order
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 3)
    with pytest.raises(ValueError, match="^item 7$"):
        verification._pmap(_fails_at_7_and_40, range(50), jobs)
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 3])
def test_pmap_worker_that_dies_raises_runtime_error(jobs, monkeypatch):
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 3)
    with pytest.raises(RuntimeError, match="sweep worker ended with status -9"):
        verification._pmap(_dies_at_30, range(50), jobs)
    _assert_no_child_left()


def test_pmap_failing_fork_raises_runtime_error(monkeypatch):
    # cli.main maps OSError to exit 2, so a pool that cannot start says so
    # as a RuntimeError, which exits 4; the worker already forked is killed
    forks = []
    fork = os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(verification.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verification.os, "fork", second_fork_fails)
    with pytest.raises(RuntimeError, match="cannot start sweep workers"):
        verification._pmap(_square, range(10), jobs=3)
    _assert_no_child_left()


def test_corpus_is_seed_deterministic():
    a = random_graph_corpus(30, 8, seed=77)
    b = random_graph_corpus(30, 8, seed=77)
    c = random_graph_corpus(30, 8, seed=78)
    assert a == b
    assert a != c
    assert all(1 <= g.n <= 8 for g in a)


def test_all_graphs_enumerates_every_labeled_graph():
    graphs3 = list(all_graphs(3))
    assert len(graphs3) == 8
    assert len(set(graphs3)) == 8
    assert list(all_graphs(0)) == [Graph(0)]


def test_all_graphs_matches_the_edge_list_construction():
    # graph number k has pair i of combinations(1..n, 2) when bit i of k is set
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        want = [
            Graph(n, [pair for i, pair in enumerate(pairs) if k >> i & 1])
            for k in range(1 << len(pairs))
        ]
        assert list(all_graphs(n)) == want


@pytest.mark.parametrize(
    "check, item",
    [
        (verification._check_prediction,
         ("C_6", cycle_graph(6), families.predict_chain("cycle", 6))),
        (verification._check_prediction, ("P_7", path_graph(7), {"p_at_minus_one": 0})),
        (verification._check_prediction, ("C_7", cycle_graph(7), {"p_at_minus_one": 1})),
        (verification._check_vc_suspension, (0, path_graph(4))),
        (verification._check_cycle_mis_suspension, (9, MIS_ENUMERATION_LIMIT)),
        (verification._check_path_mis_suspension, (9, MIS_ENUMERATION_LIMIT)),
        (verification._check_deg_via_ord, (0, cycle_graph(5))),
        (verification._check_oracle, (0, cycle_graph(5))),
    ],
)
def test_a_clean_instance_returns_the_empty_tuple(check, item):
    # every clean instance of a sweep shares the one empty tuple, not a list each
    assert check(item) == ()


def test_wrong_polynomial_predictions_are_reported_as_rendered_lists():
    # P = 1 + 5x + 5x^2, h = 1 + 3t + t^2, P(-1) = h_top = 1
    rep = analyze(cycle_graph(5))
    predicted = {
        "case": "not a report field",
        "alpha": 2,
        "independence_polynomial": IntPolynomial((1, 5, 6)),
        "h_polynomial": IntPolynomial((1, 3, 2)),
        "p_at_minus_one": -1,
        "h_top": 2**70,
        "a_invariant_zero": False,
    }
    assert prediction_mismatches("C_5", predicted, rep) == (
        Mismatch("C_5 independence_polynomial", "['1', '5', '6']", "['1', '5', '5']"),
        Mismatch("C_5 h_polynomial", "['1', '3', '2']", "['1', '3', '1']"),
        Mismatch("C_5 p_at_minus_one", "-1", "1"),
        Mismatch("C_5 h_top", "1180591620717411303424", "1"),
        Mismatch("C_5 a_invariant_zero", "False", "True"),
    )


def test_random_cw_specs_are_valid_and_bounded():
    specs = random_cameron_walker_specs(40, max_vertices=16, seed=3)
    assert len(specs) == 40
    for spec in specs:
        assert spec.total_vertices <= 16
        assert all(f >= 1 for f in spec.leaves)
    # deterministic
    assert specs == random_cameron_walker_specs(40, max_vertices=16, seed=3)


def test_random_corpora_reject_sizes_no_graph_has():
    # the smallest Cameron-Walker graph is one core edge and one leaf
    with pytest.raises(ValueError, match="at least 3 vertices"):
        random_cameron_walker_specs(1, max_vertices=2, seed=DEFAULT_SEED)
    assert len(random_cameron_walker_specs(5, max_vertices=3, seed=DEFAULT_SEED)) == 5
    with pytest.raises(ValueError, match="at least 1 vertex"):
        random_graph_corpus(1, 0, seed=1)
    with pytest.raises(EnumerationLimitError, match=f"capped at n = {MAX_VERTICES}"):
        random_graph_corpus(1, MAX_VERTICES + 1, seed=1)
    # an empty draw needs no size
    assert random_cameron_walker_specs(0, max_vertices=2, seed=DEFAULT_SEED) == []
    assert random_graph_corpus(0, 0, seed=1) == []
    assert random_graph_corpus(0, MAX_VERTICES + 1, seed=1) == []


def test_enum_cap_propagates():
    with pytest.raises(EnumerationLimitError):
        verification.verify_cycle_mis_suspension(max_n=12, mis_limit=10)


@pytest.mark.parametrize(
    "sweep, largest",
    [
        (lambda k: verification.verify_paths(k), lambda k: k),
        (lambda k: verification.verify_cycles(k), lambda k: k),
        (lambda k: verification.verify_sequences(k), lambda k: k),
        (lambda k: verification.verify_full_suspension(k), lambda k: k + 1),
        (lambda k: verification.verify_cycle_mis_suspension(k), lambda k: k + 1),
        (lambda k: verification.verify_path_mis_suspension(k), lambda k: k + 1),
        (lambda k: verification.verify_multipartite(1, k), lambda k: k),
        (lambda k: verification.verify_multipartite(k, 1), lambda k: k),
    ],
    ids=["paths", "cycles", "sequences", "full-suspension", "cycle-mis-suspension",
         "path-mis-suspension", "multipartite-size", "multipartite-parts"],
)
def test_a_range_sweep_is_refused_exactly_past_the_vertex_limit(sweep, largest, monkeypatch):
    monkeypatch.setattr(graphio, "MAX_VERTICES", 9)
    k = 9
    while largest(k) > 9:
        k -= 1
    assert sweep(k).passed
    with pytest.raises(EnumerationLimitError, match="^.*: 10 vertices exceed the limit of 9$"):
        sweep(k + 1)


def test_oracle_refuses_an_oversized_graph_before_any_check(monkeypatch):
    # the 16th graph of this corpus has 27 vertices, one past the brute force
    sizes = [g.n for g in random_graph_corpus(40, 27, DEFAULT_SEED)]
    assert max(sizes) == BRUTE_FORCE_LIMIT + 1 and sizes.index(max(sizes)) == 15
    checked = []
    monkeypatch.setattr(verification, "_check_oracle", checked.append)
    with pytest.raises(EnumerationLimitError, match="corpus has a graph with n = 27"):
        verification.verify_oracle(random_count=40, max_n=27, exhaustive_n=0)
    assert checked == []


def test_a_size_limit_refuses_the_first_graph_past_it_and_keeps_the_rest():
    # the 2nd graph of this corpus has 26 vertices, the 16th 27
    sizes = [g.n for g in random_graph_corpus(40, 27, DEFAULT_SEED)]
    assert sizes[:2] == [21, 26] and sizes.index(27) == 15
    with pytest.raises(EnumerationLimitError, match="^x capped at n = 24, .* with n = 26$"):
        random_graph_corpus(40, 27, DEFAULT_SEED, 24, "x")
    with pytest.raises(EnumerationLimitError, match="^x capped at n = 26, .* with n = 27$"):
        random_graph_corpus(40, 27, DEFAULT_SEED, 26, "x")
    # a limit no graph passes leaves the draw as it is
    assert random_graph_corpus(40, 27, DEFAULT_SEED, 27, "x") == random_graph_corpus(
        40, 27, DEFAULT_SEED
    )


@pytest.mark.parametrize("sweep", [verification.verify_deg_via_ord, verification.verify_oracle])
def test_exhaustive_part_is_capped_before_anything_is_built(sweep, monkeypatch):
    built = []
    monkeypatch.setattr(verification, "random_graph_corpus", lambda *args: built.append(args))
    monkeypatch.setattr(verification, "all_graphs_up_to", lambda *args: built.append(args))
    with pytest.raises(EnumerationLimitError, match="exhaustive enumeration capped at n = 7"):
        sweep(random_count=0, exhaustive_n=verification.EXHAUSTIVE_MAX_N + 1)
    assert built == []


@pytest.mark.parametrize(
    "jobs, items, cpus, workers",
    [
        (5000, 10, 2, 2),  # never more workers than CPUs
        (5000, 3, 64, 3),  # ... or than instances
        (2, 100, 64, 2),
        (1, 100, 64, 1),
        (4, 0, 4, 1),
        (4, 1, 4, 1),
    ],
)
def test_pool_size_is_bounded(jobs, items, cpus, workers):
    assert verification._pool_size(jobs, items, cpus) == workers


def test_independent_sets_walk_matches_subset_filter():
    # same sets in the same order (by size, then lexicographic) as filtering
    # every subset
    for g in random_graph_corpus(60, 9, seed=11) + [Graph(0), Graph(5)]:
        want = [
            frozenset(c)
            for size in range(1, g.n + 1)
            for c in combinations(g.vertices, size)
            if g.is_independent(c)
        ]
        assert list(verification._independent_sets(g)) == want


def test_path_mis_reports_a_wrong_e_zero_detection(monkeypatch):
    # every maximal independent set of P_4 given the gap statistics of the
    # canonical set {1, 4}, whose e is 0
    canonical = families.path_mis_susp_params(4, [1, 4])
    monkeypatch.setattr(families, "path_mis_susp_params", lambda n, members: canonical)
    out = verification._check_path_mis_suspension((4, MIS_ENUMERATION_LIMIT))
    assert [m for m in out if m.instance.endswith("e=0 detection")] == [
        Mismatch(f"P_4 susp over {picks} e=0 detection", "e==0 iff set == [1, 4]",
                 f"e=0, set={picks}")
        for picks in ([1, 3], [2, 4])
    ]


def test_path_mis_reports_a_wrong_a_invariant_sign(monkeypatch):
    # on P_3 every suspension has a-invariant 0; predict a negative one
    wrong = {"a_invariant_zero": False}
    monkeypatch.setattr(families, "predict_mis_suspension", lambda params: dict(wrong))
    out = verification._check_path_mis_suspension((3, MIS_ENUMERATION_LIMIT))
    assert out == tuple(
        m
        for picks in ([1, 3], [2])
        for m in (
            Mismatch(f"P_3 susp over {picks} a_invariant_zero", "False", "True"),
            Mismatch(f"P_3 susp over {picks} a-invariant sign", "< 0", "0"),
        )
    )


def test_leftover_structure_is_read_off_the_suspension():
    g = cycle_graph(6)
    # over {1, 4}, C_6 leaves the edges 2-3 and 5-6
    assert verification._structure_mismatch("s", suspension(g, [1, 4]), 2, 2) == ()
    # over {1}, the path 2..6: 5 vertices and 4 edges
    assert verification._structure_mismatch("s", suspension(g, [1]), 2, 2) == (
        Mismatch("s leftover structure", "2 disjoint edges + 0 isolated vertices", "n=5, edges=4"),
    )
    # P_3 plus an isolated vertex: the right edge count, but one vertex of
    # degree 2
    base = disjoint_union(path_graph(3), Graph(2))
    assert verification._structure_mismatch("s", suspension(base, [4]), 2, 2) == (
        Mismatch("s leftover structure", "2 disjoint edges + 0 isolated vertices", "n=4, edges=2"),
    )
