from itertools import combinations

import pytest

from pgstar import families, verification
from pgstar.graphs import Graph
from pgstar.verification import (
    DEFAULT_SEED,
    Mismatch,
    VerifyOutcome,
    all_graphs,
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
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    items = (i for i in range(50))
    assert verification._pmap(_square, items, jobs=2) == [i * i for i in range(50)]


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
    # an empty draw needs no size
    assert random_cameron_walker_specs(0, max_vertices=2, seed=DEFAULT_SEED) == []
    assert random_graph_corpus(0, 0, seed=1) == []


def test_enum_cap_propagates():
    from pgstar.graphs import EnumerationLimitError

    with pytest.raises(EnumerationLimitError):
        verification.verify_cycle_mis_suspension(max_n=12, mis_limit=10)


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
