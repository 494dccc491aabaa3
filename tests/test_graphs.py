from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgstar.graphs import (
    CameronWalkerSpec,
    EnumerationLimitError,
    Graph,
    cameron_walker,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    mask_components,
    path_graph,
    suspension,
)

from .strategies import graphs


def all_subsets(n):
    verts = range(1, n + 1)
    for size in range(n + 1):
        for combo in combinations(verts, size):
            yield frozenset(combo)


# -- construction ------------------------------------------------------------


def test_build_triangle():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    assert g == cycle_graph(3)
    assert g.edge_count() == 3


def test_build_single_vertex_and_path():
    assert Graph(1, []).n == 1
    assert Graph(4, [(1, 2), (2, 3), (3, 4)]) == path_graph(4)


def test_build_rejects_bad_labels_and_loops():
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_duplicate_edges_are_deduplicated():
    g = Graph(2, [(1, 2), (2, 1), (1, 2)])
    assert g.edges() == [(1, 2)]


def test_adjacency_is_symmetric_and_loop_free():
    g = Graph(5, [(1, 2), (3, 5), (2, 4)])
    for u in g.vertices:
        assert u not in g.neighbors(u)
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_neighbors_degree_has_edge():
    g = cycle_graph(5)
    assert g.neighbors(1) == frozenset({2, 5})
    assert g.degree(1) == 2
    assert g.has_edge(5, 1)
    assert not g.has_edge(1, 3)
    with pytest.raises(ValueError):
        g.degree(6)


# -- deletion ----------------------------------------------------------------


def delete_vertex(g, v):
    return g.induced_subgraph(u for u in g.vertices if u != v)


def test_delete_vertex_of_cycle_gives_path():
    assert delete_vertex(cycle_graph(4), 1) == path_graph(3)


def test_delete_last_vertex_gives_empty_graph():
    g = delete_vertex(path_graph(1), 1)
    assert g.n == 0
    assert g.edges() == []


def test_delete_vertex_from_small_part_of_k23_gives_star():
    # vertices 1,2 form the 2-part of K_{2,3}
    g = delete_vertex(complete_multipartite([2, 3]), 1)
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert g == star


def test_delete_vertex_out_of_range():
    with pytest.raises(ValueError):
        path_graph(3).induced_subgraph([1, 4])


def test_delete_closed_neighborhood():
    assert cycle_graph(5).delete_closed_neighborhood(1) == path_graph(2)
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert star.delete_closed_neighborhood(1).n == 0
    assert cycle_graph(6).delete_closed_neighborhood(1) == path_graph(3)


def test_induced_subgraph_relabels_order_preserving():
    assert path_graph(5).induced_subgraph([2, 4, 5]) == Graph(3, [(2, 3)])
    # 1 -> 1, 2 -> 2, 5 -> 3 whatever order keep lists them in
    assert cycle_graph(5).induced_subgraph([5, 1, 2]) == Graph(3, [(1, 2), (1, 3)])


@settings(max_examples=150)
@given(graphs(min_n=2, max_n=8), st.data())
def test_deletions_commute_up_to_relabeling(g, data):
    u = data.draw(st.integers(1, g.n))
    v = data.draw(st.integers(1, g.n).filter(lambda x: x != u))
    # delete u first, adjusting the label of v, and vice versa
    first = delete_vertex(delete_vertex(g, u), v - 1 if v > u else v)
    second = delete_vertex(delete_vertex(g, v), u - 1 if u > v else u)
    assert first == second


# -- components and set predicates --------------------------------------------


def test_connected_components():
    assert cycle_graph(5).connected_components() == [frozenset(range(1, 6))]
    assert Graph(0).connected_components() == []
    g = Graph(3, [(1, 2)])
    assert g.connected_components() == [frozenset({1, 2}), frozenset({3})]


def test_mask_components_of_induced_subgraph():
    adj = cycle_graph(6)._adj
    assert mask_components(adj, 0) == []
    assert mask_components(adj, 0b111111) == [0b111111]
    # dropping vertices 3 and 6 leaves the pieces {1,2} and {4,5}
    assert mask_components(adj, 0b011011) == [0b000011, 0b011000]
    assert mask_components(adj, 0b010101) == [0b000001, 0b000100, 0b010000]


def test_is_independent():
    c4 = cycle_graph(4)
    assert c4.is_independent({1, 3})
    assert not c4.is_independent({1, 2})
    assert c4.is_independent(frozenset())
    with pytest.raises(ValueError):
        c4.is_independent({0})


@pytest.mark.parametrize("label", [0, -1, 5, 64])
@pytest.mark.parametrize(
    "predicate", ["is_independent", "is_vertex_cover", "is_maximal_independent"]
)
def test_set_predicates_reject_labels_outside_range(predicate, label):
    with pytest.raises(ValueError, match=r"outside 1\.\.4"):
        getattr(cycle_graph(4), predicate)([1, label])


def test_is_vertex_cover():
    assert cycle_graph(4).is_vertex_cover({1, 3})
    assert not cycle_graph(5).is_vertex_cover({1, 3})  # edge {4,5} uncovered
    g = cycle_graph(5)
    assert g.is_vertex_cover(set(g.vertices))


def test_is_maximal_independent():
    assert cycle_graph(5).is_maximal_independent({1, 3})
    assert not cycle_graph(6).is_maximal_independent({1})  # 4 is undominated
    assert path_graph(4).is_maximal_independent({1, 4})
    assert not path_graph(4).is_maximal_independent({1})


def test_cover_independence_duality_exhaustive_small():
    from pgstar.verification import all_graphs

    for n in range(7):
        subsets = list(all_subsets(n))
        verts = frozenset(range(1, n + 1))
        for g in all_graphs(n):
            for c in subsets:
                assert g.is_vertex_cover(c) == g.is_independent(verts - c)


@settings(max_examples=150)
@given(graphs(max_n=8), st.data())
def test_cover_independence_duality_random(g, data):
    c = frozenset(
        v for v in g.vertices if data.draw(st.booleans(), label=f"v{v}")
    )
    assert g.is_vertex_cover(c) == g.is_independent(frozenset(g.vertices) - c)


# -- maximal independent set enumeration --------------------------------------


def mis_by_filter(g):
    return sorted(
        (s for s in all_subsets(g.n) if g.is_maximal_independent(s)),
        key=sorted,
    )


def test_mis_triangle():
    assert cycle_graph(3).maximal_independent_sets() == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]


def test_mis_p3():
    assert path_graph(3).maximal_independent_sets() == [
        frozenset({1, 3}),
        frozenset({2}),
    ]


def test_mis_c5_all_pairs():
    sets = cycle_graph(5).maximal_independent_sets()
    assert sets == mis_by_filter(cycle_graph(5))
    assert len(sets) == 5
    assert all(len(s) == 2 for s in sets)


def test_mis_matches_filter_exhaustively_tiny():
    from pgstar.verification import all_graphs_up_to

    for g in all_graphs_up_to(5):
        assert g.maximal_independent_sets() == mis_by_filter(g)


@given(graphs(max_n=10))
def test_mis_matches_filter_random(g):
    assert g.maximal_independent_sets() == mis_by_filter(g)


def test_mis_matches_filter_structured_and_random():
    import random

    rng = random.Random(5)
    cases = [path_graph(12), cycle_graph(12), Graph(12)]
    for _ in range(25):
        n = rng.randint(8, 12)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3]
        cases.append(Graph(n, edges))
    for g in cases:
        assert g.maximal_independent_sets() == mis_by_filter(g)


def test_mis_counts_of_the_largest_sweep_instances():
    # Perrin and Padovan numbers: the maximal independent sets of C_24 and P_24
    assert len(cycle_graph(24).maximal_independent_sets()) == 853
    assert len(path_graph(24).maximal_independent_sets()) == 816


def test_mis_cap():
    with pytest.raises(EnumerationLimitError):
        Graph(25).maximal_independent_sets()
    # configurable
    assert len(Graph(25).maximal_independent_sets(limit=25)) == 1


# -- family builders -----------------------------------------------------------


def test_path_graph_zero_is_empty():
    g = path_graph(0)
    assert g.n == 0 and g.edges() == []
    with pytest.raises(ValueError):
        path_graph(-1)


def test_cycle_graph_requires_three_vertices():
    assert cycle_graph(3).edge_count() == 3
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_multipartite():
    k23 = complete_multipartite([2, 3])
    assert k23.n == 5
    assert k23.edge_count() == 6
    # parts are labeled consecutively and stay independent
    assert k23.is_independent({1, 2})
    assert k23.is_independent({3, 4, 5})
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        complete_multipartite([])


def test_disjoint_union_shifts_labels():
    g = disjoint_union(path_graph(2), cycle_graph(3))
    assert g.n == 5
    assert g.edges() == [(1, 2), (3, 4), (3, 5), (4, 5)]


# -- Cameron-Walker builder ------------------------------------------------------


def brute_alpha(g):
    return max(len(s) for s in all_subsets(g.n) if g.is_independent(s))


def test_cw_single_edge_one_leaf_one_triangle():
    spec = CameronWalkerSpec(1, 1, [(1, 1)], [1], [1])
    g = cameron_walker(spec)
    assert g.n == 5
    # x1=1, y1=2, leaf=3, triangle={4,5}
    assert g.edges() == [(1, 2), (1, 3), (2, 4), (2, 5), (4, 5)]
    assert brute_alpha(g) == 2  # = F + T + m0 = 1 + 1 + 0


def test_cw_single_edge_one_leaf_no_triangle_is_p3():
    g = cameron_walker(CameronWalkerSpec(1, 1, [(1, 1)], [1], [0]))
    # leaf - x1 - y1, relabeled: 1=x1, 2=y1, 3=leaf
    assert g == Graph(3, [(1, 2), (1, 3)])


def test_cw_two_x_path_core():
    # core path x1 - y1 - x2 plus one leaf each
    spec = CameronWalkerSpec(2, 1, [(1, 1), (2, 1)], [1, 1], [0])
    g = cameron_walker(spec)
    assert g.n == 5
    assert g.edge_count() == 4
    assert len(g.connected_components()) == 1
    assert brute_alpha(g) == 3  # F + T + m0 = 2 + 0 + 1


def test_cw_spec_validation():
    with pytest.raises(ValueError):
        CameronWalkerSpec(1, 1, [(1, 1)], [0], [0])  # leafless x1
    with pytest.raises(ValueError):
        CameronWalkerSpec(2, 1, [(1, 1)], [1, 1], [0])  # x2 disconnected
    with pytest.raises(ValueError):
        CameronWalkerSpec(1, 1, [(1, 2)], [1], [0])  # bad edge index
    with pytest.raises(ValueError):
        CameronWalkerSpec(1, 1, [(1, 1)], [1], [-1])  # negative triangles
    with pytest.raises(ValueError):
        CameronWalkerSpec(0, 1, [], [], [0])  # empty side


def test_cw_alpha_formula_small_specs():
    """alpha(G) = F + T + m0 across random small specs."""
    from pgstar.verification import random_cameron_walker_specs

    specs = random_cameron_walker_specs(60, max_vertices=14, seed=11)
    assert len(specs) >= 50
    for spec in specs:
        g = cameron_walker(spec)
        want = sum(spec.leaves) + sum(spec.triangles) + sum(
            1 for t in spec.triangles if t == 0
        )
        assert brute_alpha(g) == want


# -- suspension --------------------------------------------------------------


def test_suspension_of_triangle_over_one_vertex():
    g = suspension(cycle_graph(3), [1])
    assert g.n == 4
    assert g.edges() == [(1, 2), (1, 3), (1, 4), (2, 3)]


def test_full_suspension_is_cone():
    base = path_graph(3)
    g = suspension(base, base.vertices)
    assert g.degree(4) == 3


def test_suspension_p4_over_endpoints():
    g = suspension(path_graph(4), [1, 4])
    assert g.n == 5
    assert g.degree(5) == 2
    assert g.has_edge(5, 1) and g.has_edge(5, 4)


def test_suspension_rejects_bad_sets():
    with pytest.raises(ValueError):
        suspension(path_graph(3), [])
    with pytest.raises(ValueError):
        suspension(path_graph(3), [4])
