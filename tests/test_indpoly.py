import random
import tracemalloc
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgstar import indpoly
from pgstar.families import c_value, p_value
from pgstar.graphs import (
    EnumerationLimitError,
    Graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    path_graph,
    suspension,
)
from pgstar.indpoly import (
    MinusOneProfile,
    independence_polynomial,
    independence_polynomial_bruteforce,
    minus_one_profile,
)
from pgstar.polynomials import ONE, IntPolynomial
from pgstar.verification import _mixed_corpus

from .strategies import graphs


def count_by_size(g):
    """Third route, independent of the package internals."""
    counts = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for combo in combinations(g.vertices, size):
            if g.is_independent(frozenset(combo)):
                counts[size] += 1
    return IntPolynomial(counts)


# -- fixed values ---------------------------------------------------------------


def test_c6_polynomial():
    assert count_by_size(cycle_graph(6)).coeffs == (1, 6, 9, 2)
    assert independence_polynomial(cycle_graph(6)).coeffs == (1, 6, 9, 2)


def test_empty_graph_polynomial_is_one():
    assert independence_polynomial(Graph(0)) == ONE
    assert independence_polynomial(path_graph(0)) == ONE


def test_k23_polynomial():
    assert independence_polynomial(complete_multipartite([2, 3])).coeffs == (1, 5, 4, 1)


def test_triangle_suspension_polynomial():
    g = suspension(cycle_graph(3), [1])
    assert independence_polynomial(g).coeffs == (1, 4, 2)


def test_bruteforce_fixed_values():
    assert independence_polynomial_bruteforce(cycle_graph(4)).coeffs == (1, 4, 2)
    assert independence_polynomial_bruteforce(Graph(3)).coeffs == (1, 3, 3, 1)
    assert independence_polynomial_bruteforce(path_graph(4)).coeffs == (1, 4, 3)


def test_bruteforce_cap():
    with pytest.raises(EnumerationLimitError):
        independence_polynomial_bruteforce(Graph(27))
    assert independence_polynomial_bruteforce(Graph(5), limit=5).degree == 5


# -- oracle equivalence -----------------------------------------------------------


def test_engine_matches_bruteforce_exhaustively_tiny():
    from pgstar.verification import all_graphs_up_to

    # every graph that `verify deg-via-ord` enumerates at its default
    for g in all_graphs_up_to(6):
        assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


def test_engine_matches_third_route_on_structured_graphs():
    for g in (cycle_graph(9), path_graph(9), complete_multipartite([3, 2, 1])):
        assert independence_polynomial(g) == count_by_size(g)


@settings(max_examples=200)
@given(graphs(max_n=8))
def test_engine_matches_bruteforce_random(g):
    assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


@st.composite
def chain_unions(draw, max_n: int = 18):
    """Disjoint paths (P_0 up) and cycles plus up to three chords, n <= max_n.

    The chords give the engine pivots whose deletions leave path and
    cycle pieces behind.
    """
    edges = []
    n = 0
    for _ in range(draw(st.integers(0, 5))):
        room = max_n - n
        cycle = room >= 3 and draw(st.booleans())
        k = draw(st.integers(3 if cycle else 0, room))
        edges += [(n + i, n + i + 1) for i in range(1, k)]
        if cycle:
            edges.append((n + k, n + 1))
        n += k
    if n >= 2:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(pairs, max_size=3))
    return Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(chain_unions())
def test_engine_matches_bruteforce_on_chain_unions(g):
    assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid; 2 x k is the ladder."""
    def label(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = [(label(r, c), label(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(label(r, c), label(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def caterpillar(leaves) -> Graph:
    """A path of len(leaves) spine vertices, spine vertex i carrying leaves[i] leaves."""
    spine = len(leaves)
    edges = [(i, i + 1) for i in range(1, spine)]
    n = spine
    for i, k in enumerate(leaves, start=1):
        edges += [(i, n + j) for j in range(1, k + 1)]
        n += k
    return Graph(n, edges)


@st.composite
def solver_cases(draw):
    """Ladders, caterpillars, grids, chains with chords, suspensions and
    arbitrary small graphs, relabelled at random so the greedy order and
    the pivots meet them in every orientation."""
    kind = draw(st.sampled_from(["ladder", "caterpillar", "grid", "chains", "suspension", "any"]))
    if kind == "ladder":
        g = grid(2, draw(st.integers(1, 8)))
    elif kind == "caterpillar":
        g = caterpillar(draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)))
    elif kind == "grid":
        g = grid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "chains":
        g = draw(chain_unions(max_n=16))
    elif kind == "suspension":
        base = draw(graphs(min_n=1, max_n=12))
        g = suspension(base, draw(st.sets(st.integers(1, base.n), min_size=1)))
    else:
        g = draw(graphs(max_n=14))
    return relabelled(g, draw(st.permutations(range(1, g.n + 1))))


def assert_every_side(g):
    """The engine agrees with brute force on g whichever side and kernel
    each subgraph takes."""
    want = independence_polynomial_bruteforce(g)
    assert independence_polynomial(g) == want
    # the settings of (width, pack) and the kernels they reach:
    # - (-1, any) sends every subgraph to the pivot side;
    # - (g.n, any) sends the whole graph to _small_polynomial, in slots of
    #   more than one byte when g.n > 10;
    # - (3, g.n) and (3, 0) send subgraphs of at most 4 vertices to
    #   _small_polynomial and larger ones to the packed loop or the list
    #   loop respectively, in label order, whose count is dropped once its
    #   frontier passes its least degree + 1 or 3, then along the greedy
    #   order, or to the pivot side if the greedy order fails;
    # - (FRONTIER_WIDTH, any) is the default split.
    for width in (indpoly.FRONTIER_WIDTH, -1, 3, g.n):
        for pack in (0, g.n):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(indpoly, "FRONTIER_WIDTH", width)
                patch.setattr(indpoly, "PACK_MAX_N", pack)
                assert independence_polynomial(g) == want, (width, pack)


@settings(max_examples=250, deadline=None)
@given(solver_cases())
def test_frontier_and_pivot_sides_match_bruteforce(g):
    assert_every_side(g)


def first_mis(g):
    return g.maximal_independent_sets()[0]


# unrelabelled, so masks above FRONTIER_WIDTH + 1 vertices keep the label
# order that the relabelled cases above rarely do
@pytest.mark.parametrize(
    "g",
    [
        path_graph(12),
        cycle_graph(20),
        disjoint_union(path_graph(7), cycle_graph(9)),
        grid(2, 6),
        grid(2, 10),
        grid(3, 6),
        suspension(cycle_graph(16), first_mis(cycle_graph(16))),
        suspension(path_graph(18), first_mis(path_graph(18))),
        suspension(path_graph(14), range(1, 15)),
        suspension(cycle_graph(13), range(1, 14)),
    ],
    ids=lambda g: f"n{g.n}e{len(g.edges())}",
)
def test_unrelabelled_graphs_above_the_label_order_threshold_match_bruteforce(g):
    assert_every_side(g)


def frontier_sizes(steps) -> list[int]:
    """The frontier after each step: the later neighbours not yet processed."""
    sizes, frontier = [], 0
    for bit, later in steps:
        frontier = (frontier | later) & ~bit
        sizes.append(frontier.bit_count())
    return sizes


def steps_of(adj, mask, order):
    """The (vertex bit, later neighbours) steps of ``order`` over ``mask``."""
    steps, rest = [], mask
    for v in order:
        rest ^= 1 << v
        steps.append((1 << v, adj[v] & rest))
    return steps


def vertices_of(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def label_order(adj, mask):
    """The steps of ``mask`` in ascending label order, all of them, past
    where ``_label_order`` may end."""
    return steps_of(adj, mask, vertices_of(mask))


def keeps_label_order(adj, mask):
    """Whether ``_label_order`` of ``mask`` reaches its last vertex; where
    it ends, it has run in ascending label order."""
    walked = list(indpoly._label_order(adj, mask))
    assert walked == vertices_of(mask)[: len(walked)]
    return len(walked) == mask.bit_count()


def assert_greedy_order(adj, mask):
    """``_label_order`` of ``mask`` ends early, and ``_greedy_order`` is a
    list that takes every vertex once, not in ascending label order;
    returns its steps."""
    assert not keeps_label_order(adj, mask)
    order = indpoly._greedy_order(adj, mask)
    assert isinstance(order, list)
    assert order != sorted(order)
    assert sorted(order) == vertices_of(mask)
    return steps_of(adj, mask, order)


def relabelled(g, perm):
    """g with vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def shuffled(k, seed):
    perm = list(range(1, k + 1))
    random.Random(seed).shuffle(perm)
    return perm


def test_small_masks_take_label_order_and_larger_ones_the_greedy_order():
    # a path whose labels are shuffled, so label order runs along it in jumps
    k = indpoly.FRONTIER_WIDTH + 2
    perm = shuffled(k, 3)
    adj = relabelled(path_graph(k), perm)._adj
    full = (1 << k) - 1
    # FRONTIER_WIDTH + 1 vertices: the lowest-vertex pivot counts it in
    # label order, though that order's frontier passes least degree + 1
    small = full & ~(1 << (perm[0] - 1))
    assert max(frontier_sizes(label_order(adj, small))) > 2
    assert indpoly._small_polynomial(adj, small).coeffs == path_coefficients(k - 1)
    # one more vertex: label order holds more than least degree + 1 = 2
    # vertices on its frontier, so the greedy order walks the path
    assert max(frontier_sizes(label_order(adj, full))) > 2
    assert max(frontier_sizes(assert_greedy_order(adj, full))) <= 2


@pytest.mark.parametrize("rungs", [6, 8, 10])
def test_relabelled_ladders_take_the_greedy_order(rungs):
    # least degree 2, and label order along jumps holds more than 3
    g = relabelled(grid(2, rungs), shuffled(2 * rungs, rungs))
    adj = g._adj
    full = (1 << g.n) - 1
    assert max(frontier_sizes(label_order(adj, full))) > 3
    assert max(frontier_sizes(assert_greedy_order(adj, full))) <= 3


def test_label_order_one_vertex_past_the_bound_is_refused():
    # a path run 3 1 5 2 4 6 7 ... 12: label order's frontier peaks at 3,
    # one past least degree + 1, which the end 3 brings down to 2
    run = [3, 1, 5, 2, 4, 6, 7, 8, 9, 10, 11, 12]
    g = Graph(12, zip(run, run[1:]))
    full = (1 << 12) - 1
    assert max(frontier_sizes(label_order(g._adj, full))) == 3
    assert list(indpoly._label_order(g._adj, full)) == [0, 1]
    assert_greedy_order(g._adj, full)
    # K_4 on 1..4, then a tail 4 5 ... 12: the frontier holds 3 at the
    # first step and at most 1 after it, but the leaf 12 comes last and
    # brings the bound down to 2, so label order ends before its last vertex
    g = Graph(12, [*combinations(range(1, 5), 2), *((v, v + 1) for v in range(4, 12))])
    assert max(frontier_sizes(label_order(g._adj, full))) == 3
    assert list(indpoly._label_order(g._adj, full)) == list(range(11))
    assert_greedy_order(g._adj, full)


def test_the_width_caps_the_label_order_bound():
    # least degree 11, so only the width refuses label order's frontier of
    # 11, and no other order does better
    k = indpoly.FRONTIER_WIDTH + 2
    g = Graph(k, combinations(range(1, k + 1), 2))
    full = (1 << k) - 1
    assert list(indpoly._label_order(g._adj, full)) == []
    assert indpoly._greedy_order(g._adj, full) is None


def mis_suspensions():
    """Every suspension ``verify cycle-mis-suspension`` and
    ``path-mis-suspension`` build at ``--max-n 24``."""
    for build, ns in ((cycle_graph, range(3, 25)), (path_graph, range(2, 25))):
        for n in ns:
            g = build(n)
            for members in g.maximal_independent_sets():
                yield suspension(g, members)


def cones(ns):
    for n in ns:
        yield suspension(cycle_graph(n), range(1, n + 1))
        yield suspension(path_graph(n), range(1, n + 1))


def test_mis_suspensions_and_cones_take_label_order():
    # their frontier in label order stays within least degree + 1: the apex
    # and at most two chain vertices; the order search never sees one of
    # at most FRONTIER_WIDTH + 1 vertices, which takes label order anyway
    above = 0
    for g in chain(mis_suspensions(), cones(range(12, 25))):
        if g.n > indpoly.FRONTIER_WIDTH + 1:
            assert keeps_label_order(g._adj, (1 << g.n) - 1)
            above += 1
    assert above > 6000


class Work(NamedTuple):
    """The engine's work on a set of graphs."""

    # frontier states visited, one per state per step, counts dropped
    # before their last vertex included
    visits: int
    # calls of _lowest_pivot, recursive ones included
    pivots: int
    # label-order counts that reach their last vertex, and those dropped
    kept: int
    dropped: int
    # counts along the greedy order
    greedy: int


def engine_work(graphs) -> Work:
    """The engine's work on ``graphs``, each kernel's order replayed over
    sets of blocked vertices."""
    visits = pivots = kept = dropped = greedy = 0

    def counted(kernel):
        def replay(adj, mask, order):
            nonlocal visits, kept, dropped, greedy
            if isinstance(order, list):
                greedy += 1
            else:
                # label order is a generator: list it so the kernel reads
                # the same vertices, and the same early end, as the replay
                order = list(order)
                if len(order) == mask.bit_count():
                    kept += 1
                else:
                    dropped += 1
            steps = steps_of(adj, mask, order)
            states = {0}
            for bit, later in steps:
                visits += len(states)
                new = set()
                for blocked in states:
                    if blocked & bit:
                        blocked ^= bit
                    else:
                        new.add(blocked | later)
                    new.add(blocked)
                states = new
            return kernel(adj, mask, order)

        return replay

    lowest_pivot = indpoly._lowest_pivot

    # the recursion looks _lowest_pivot up in the module, so every call
    # comes through here
    def counted_pivot(adj, mask, width):
        nonlocal pivots
        pivots += 1
        return lowest_pivot(adj, mask, width)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_frontier_polynomial", "_packed_frontier_polynomial"):
            patch.setattr(indpoly, name, counted(getattr(indpoly, name)))
        patch.setattr(indpoly, "_lowest_pivot", counted_pivot)
        for g in graphs:
            independence_polynomial(g)
    return Work(visits, pivots, kept, dropped, greedy)


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])


# exact work on the benchmark's inputs, so an order that costs more states,
# or a rule-1 kernel that makes more calls, fails here before it shows in a
# timing
def test_pivot_calls_on_tiny_exhaustive():
    # the graphs of ``verify deg-via-ord`` at its defaults, none above 10
    # vertices, so no frontier loop runs
    graphs = (g for _, g in _mixed_corpus(500, 10, 1729, 6))
    assert engine_work(graphs) == Work(0, 166_139, 0, 0, 0)


def test_state_visits_on_mis_suspensions():
    # suspensions of at most 11 vertices go to _small_polynomial, and every
    # larger one keeps label order
    assert engine_work(mis_suspensions()) == Work(645_128, 3_825, 6_676, 0, 0)


def test_state_visits_on_long_chains():
    assert engine_work([path_graph(900), cycle_graph(600)]) == Work(4_191, 0, 2, 0, 0)


def test_state_visits_on_a_wide_random_graph():
    # label order is dropped on every mask above 11 vertices, after about
    # one vertex each, for 2 019 of the visits; the greedy order counts 627
    # of those masks, with the other 1 404 056, and the rest are pivoted;
    # of the pieces that rule 1 counts, 89 have one or two vertices (71 of
    # them a piece counted before) and one has three
    assert engine_work([gnp(80, 0.1, 2)]) == Work(1_406_075, 1, 0, 1_340, 627)


@pytest.mark.parametrize("parts", [(100, 100, 100), (200, 200)])
def test_pivot_side_holds_no_polynomial_it_does_not_need(parts):
    # every pivot leaves an edgeless piece G - N[v], which waits as a mask
    # while G - v is counted; holding one polynomial per pivot until the
    # call returns peaks at 1.04 and 2.42 MB
    g = complete_multipartite(parts)
    tracemalloc.start()
    try:
        p = independence_polynomial(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.coeffs[:2] == (1, g.n)
    assert peak < 250_000


def test_small_polynomial_on_every_mask_of_every_graph_up_to_5_vertices():
    # masks of one and two vertices, adjacent or not, at every bit position,
    # as a root and as what a pivot leaves
    from pgstar.verification import all_graphs_up_to

    for g in all_graphs_up_to(5):
        for mask in range(1 << g.n):
            want = independence_polynomial_bruteforce(induced(g, mask))
            assert indpoly._small_polynomial(g._adj, mask) == want, (g.edges(), mask)


def pivot_calls(g) -> int:
    """The calls of ``_lowest_pivot`` that ``_small_polynomial`` makes on g."""
    calls = 0
    lowest_pivot = indpoly._lowest_pivot

    def counted(adj, mask, width):
        nonlocal calls
        calls += 1
        return lowest_pivot(adj, mask, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indpoly, "_lowest_pivot", counted)
        want = independence_polynomial_bruteforce(g)
        assert indpoly._small_polynomial(g._adj, (1 << g.n) - 1) == want
    return calls


def test_lowest_pivot_calls_are_bounded_by_fibonacci():
    # a call drops one vertex on one branch and at least two on the other,
    # and masks of at most two vertices make no call, so k vertices cost at
    # most F(k) - 1 calls; a path takes exactly that many
    fib = [0, 1]
    while len(fib) <= indpoly.FRONTIER_WIDTH + 1:
        fib.append(fib[-1] + fib[-2])
    for k in range(indpoly.FRONTIER_WIDTH + 2):
        assert pivot_calls(path_graph(k)) == max(fib[k] - 1, 0)
    k = indpoly.FRONTIER_WIDTH + 1
    assert pivot_calls(path_graph(k)) == 88
    rng = random.Random(11)
    for _ in range(300):
        g = gnp(k, rng.choice([0.1, 0.2, 0.3, 0.5, 0.7]), rng.randrange(1 << 30))
        assert pivot_calls(g) <= 88


def test_deep_pivots_and_long_caterpillars_finish():
    # both exceeded Python's recursion limit when every pivot was a call
    n = 1200
    assert independence_polynomial(Graph(n, combinations(range(1, n + 1), 2))).coeffs == (1, n)
    # spine vertex i excluded (a) or included (b); an excluded one's leaf is free
    a, b = ONE + ONE.shift(1), ONE.shift(1)
    for _ in range(n - 1):
        total = a + b
        a, b = total + total.shift(1), a.shift(1)
    assert independence_polynomial(caterpillar([1] * n)) == a + b


def path_coefficients(n: int) -> tuple[int, ...]:
    """i_k(P_n) = binom(n - k + 1, k)."""
    return tuple(comb(n - k + 1, k) for k in range((n + 1) // 2 + 1))


def cycle_coefficients(n: int) -> tuple[int, ...]:
    """i_k(C_n) = n / (n - k) * binom(n - k, k)."""
    return (1, *(n * comb(n - k, k) // (n - k) for k in range(1, n // 2 + 1)))


def test_long_path_and_cycle_coefficients():
    assert independence_polynomial(path_graph(1200)).coeffs == path_coefficients(1200)
    assert independence_polynomial(cycle_graph(1500)).coeffs == cycle_coefficients(1500)


def spy_kernels(monkeypatch) -> list[str]:
    """The names of the kernels the engine calls, in call order."""
    kernels = []
    for name in ("_frontier_polynomial", "_packed_frontier_polynomial", "_small_polynomial"):

        def counted(*args, name=name, kernel=getattr(indpoly, name)):
            kernels.append(name)
            return kernel(*args)

        monkeypatch.setattr(indpoly, name, counted)
    return kernels


@pytest.mark.parametrize("above", [0, 1])
def test_packed_slots_hold_the_largest_counts(above, monkeypatch):
    # the edgeless graph has the largest coefficients of any k-vertex graph
    k = indpoly.PACK_MAX_N + above
    kernels = spy_kernels(monkeypatch)
    assert independence_polynomial(Graph(k)) == IntPolynomial.binomial(k)
    assert independence_polynomial(path_graph(k)).coeffs == path_coefficients(k)
    assert independence_polynomial(cycle_graph(k)).coeffs == cycle_coefficients(k)
    want = "_frontier_polynomial" if above else "_packed_frontier_polynomial"
    assert kernels == [want] * 3


def test_packed_kernel_on_no_steps_is_one():
    # an empty mask has no step to take, in any order
    for kernel in (indpoly._packed_frontier_polynomial, indpoly._frontier_polynomial):
        assert kernel((), 0, indpoly._label_order((), 0)) == ONE
        assert kernel((), 0, []) == ONE
    # masks of one vertex and of two, adjacent or not, at every position of
    # a path with an isolated vertex: the first step is also the last, in
    # either order, and an order that stops one vertex short is dropped
    g = Graph(4, [(1, 2), (2, 3)])
    for mask in range(1, 1 << g.n):
        if mask.bit_count() > 2:
            continue
        want = independence_polynomial_bruteforce(induced(g, mask))
        vertices = vertices_of(mask)
        for kernel in (indpoly._packed_frontier_polynomial, indpoly._frontier_polynomial):
            assert kernel(g._adj, mask, indpoly._label_order(g._adj, mask)) == want, mask
            assert kernel(g._adj, mask, vertices[::-1]) == want, mask
            assert kernel(g._adj, mask, vertices[:-1]) is None, mask


def complete_graph(n):
    return Graph(n, combinations(range(1, n + 1), 2))


# the largest graph that skips the order search and the pivot stack, and
# the smallest that takes them
@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize(
    "build",
    [Graph, path_graph, complete_graph, lambda n: relabelled(path_graph(n), shuffled(n, n))],
    ids=["edgeless", "path", "complete", "relabelled-path"],
)
def test_graphs_at_the_label_order_threshold_match_bruteforce(n, build):
    assert_every_side(build(n))


def test_only_a_larger_root_is_searched(monkeypatch):
    # a root of FRONTIER_WIDTH + 1 vertices goes straight to the lowest-
    # vertex pivot, with no order search and no frontier loop
    kernels = spy_kernels(monkeypatch)
    searched = []
    for name in ("_label_order", "_greedy_order"):

        def search(adj, mask, name=name, order=getattr(indpoly, name)):
            searched.append((name, mask.bit_count()))
            return order(adj, mask)

        monkeypatch.setattr(indpoly, name, search)
    k = indpoly.FRONTIER_WIDTH + 1
    assert independence_polynomial(path_graph(k)).coeffs == path_coefficients(k)
    assert kernels == ["_small_polynomial"]
    assert searched == []
    # one vertex more and the root is counted in label order in the packed
    # loop, which keeps it, so the greedy order is never built
    assert independence_polynomial(path_graph(k + 1)).coeffs == path_coefficients(k + 1)
    assert kernels == ["_small_polynomial", "_packed_frontier_polynomial"]
    assert searched == [("_label_order", k + 1)]
    # a root whose label-order count is dropped and whose greedy order
    # fails is pivoted: its piece G - v of k vertices goes to the lowest-
    # vertex pivot unsearched, and its empty piece G - N[v] is ONE there
    assert independence_polynomial(complete_graph(k + 1)).coeffs == (1, k + 1)
    assert kernels[2:] == [
        "_packed_frontier_polynomial",
        "_small_polynomial",
        "_small_polynomial",
    ]
    assert searched[1:] == [("_label_order", k + 1), ("_greedy_order", k + 1)]


def induced(g, keep):
    """The subgraph of g on the vertex mask ``keep``, relabelled 1, 2, ...
    in label order."""
    label = {v: i for i, v in enumerate((v for v in g.vertices if keep >> (v - 1) & 1), 1)}
    edges = [(label[u], label[v]) for u, v in g.edges() if u in label and v in label]
    return Graph(len(label), edges)


# the only exact check of graphs above BRUTE_FORCE_LIMIT that reach the pivot
# side: width 3 pivots them into pieces small enough for _small_polynomial
@pytest.mark.parametrize("seed", range(6))
def test_engine_identities_above_the_bruteforce_limit(seed, monkeypatch):
    rng = random.Random(seed)
    g = gnp(rng.randint(27, 45), rng.choice([0.05, 0.1, 0.15]), seed)
    full = (1 << g.n) - 1
    # a relabelling moves the vertex at which label order is dropped
    moved = relabelled(g, shuffled(g.n, seed))
    kernels = spy_kernels(monkeypatch)
    for width, pack in ((indpoly.FRONTIER_WIDTH, indpoly.PACK_MAX_N), (3, g.n), (3, 0)):
        monkeypatch.setattr(indpoly, "FRONTIER_WIDTH", width)
        monkeypatch.setattr(indpoly, "PACK_MAX_N", pack)
        p = independence_polynomial(g)
        assert independence_polynomial(moved) == p, (width, pack)
        # P'(G) = sum over v of P(G - N[v]): a set of size i counts once
        # for each of its i members
        derivative = IntPolynomial()
        for v, around in enumerate(g._adj):
            far = independence_polynomial(induced(g, full & ~(1 << v) & ~around))
            # P(G) = P(G - v) + x P(G - N[v]) at every v, not only the pivot
            near = independence_polynomial(induced(g, full & ~(1 << v)))
            assert p == near + far.shift(1), (width, pack, v)
            derivative = derivative + far
        assert derivative.coeffs == tuple(i * c for i, c in enumerate(p.coeffs))[1:]
    every_kernel = {"_small_polynomial", "_packed_frontier_polynomial", "_frontier_polynomial"}
    assert set(kernels) == every_kernel


# -- structural invariants ---------------------------------------------------------


def test_disjoint_union_multiplies():
    rng = random.Random(9)
    for _ in range(30):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
        g1 = Graph(n1, [e for e in combinations(range(1, n1 + 1), 2) if rng.random() < 0.4])
        g2 = Graph(n2, [e for e in combinations(range(1, n2 + 1), 2) if rng.random() < 0.4])
        assert independence_polynomial(disjoint_union(g1, g2)) == (
            independence_polynomial(g1) * independence_polynomial(g2)
        )


def test_edgeless_graph_gives_binomial():
    for k in range(8):
        assert independence_polynomial(Graph(k)) == IntPolynomial.binomial(k)


def test_path_count_satisfies_fibonacci_recurrence():
    total = [independence_polynomial(path_graph(n))(1) for n in range(21)]
    for n in range(2, 21):
        assert total[n] == total[n - 1] + total[n - 2]


@settings(max_examples=150)
@given(graphs(max_n=8))
def test_coefficients_nonnegative_g0_g1(g):
    p = independence_polynomial(g)
    assert all(c >= 0 for c in p.coeffs)
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == g.n


# -- independence number ---------------------------------------------------------


def test_independence_number_cycles_paths_multipartite():
    def alpha(g):
        return independence_polynomial(g).degree

    for n in range(3, 13):
        assert alpha(cycle_graph(n)) == n // 2
    for n in range(1, 13):
        assert alpha(path_graph(n)) == (n + 1) // 2
    assert alpha(path_graph(0)) == 0
    for parts in ([2, 3], [4, 1, 1], [5], [3, 3, 3, 1]):
        assert alpha(complete_multipartite(parts)) == max(parts)


# -- minus-one profile ------------------------------------------------------------


def test_minus_one_profile_examples():
    assert minus_one_profile(IntPolynomial([1, 4, 3])) == MinusOneProfile(0, 1)
    assert minus_one_profile(independence_polynomial(cycle_graph(6))) == MinusOneProfile(2, 0)
    assert minus_one_profile(IntPolynomial.binomial(3)) == MinusOneProfile(0, 3)


def test_minus_one_profile_rejects_zero():
    with pytest.raises(ValueError):
        minus_one_profile(IntPolynomial())


def test_minus_one_profile_value_multiplicity_consistency():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.4])
        prof = minus_one_profile(independence_polynomial(g))
        assert (prof.value != 0) == (prof.multiplicity == 0)


def test_path_values_follow_period_six_table():
    for n in range(61):
        prof = minus_one_profile(independence_polynomial(path_graph(n)))
        assert prof.value == p_value(n)
        assert (prof.multiplicity == 0) == (prof.value != 0)


def test_cycle_values_follow_period_six_table():
    for n in range(3, 61):
        prof = minus_one_profile(independence_polynomial(cycle_graph(n)))
        assert prof.value == c_value(n)
        assert (prof.multiplicity == 0) == (prof.value != 0)
