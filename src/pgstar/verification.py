"""Named verification sweeps: closed-form predictions vs exact computation.

Each sweep checks one classification result over a finite instance range
and reports every disagreement.  The predictions come from the
``families.predict_*`` functions that ``pgstar family`` and ``suspend``
print.  The closed-form sweeps pair each graph with its prediction and
share one check; the others add what a single report cannot show, such
as the h-polynomial identities against the base graph.  Instances are
independent, so sweeps may fan out to a process pool; results are merged
in instance order and the output is identical for any parallelism degree.
Range sweeps list their instances by ascending size, and the pool takes
them largest first so that the costliest ones never run alone at the end.
With one worker a sweep builds and checks its instances one at a time,
and the pool is imported only when more than one worker starts.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement
from typing import Callable, Iterable, Iterator

from . import families
from .analysis import AnalysisReport, analyze, report_to_dict
from .graphs import (
    MIS_ENUMERATION_LIMIT,
    CameronWalkerSpec,
    EnumerationLimitError,
    Graph,
    cameron_walker,
    complete_multipartite,
    cycle_graph,
    path_graph,
    suspension,
)
from .indpoly import independence_polynomial, independence_polynomial_bruteforce
from .polynomials import IntPolynomial

DEFAULT_SEED = 1729
DENSITY_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# bounds of a random Cameron-Walker spec: vertices per core side, leaves
# per X vertex and triangles per Y vertex
CW_MAX_SIDE = 3
CW_MAX_LEAVES = 2
CW_MAX_TRIANGLES = 2


@dataclass(frozen=True)
class Mismatch:
    instance: str
    expected: str
    got: str


@dataclass(frozen=True)
class VerifyOutcome:
    theorem: str
    instances: int
    mismatches: tuple[Mismatch, ...]
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "mismatches": [
                {"instance": m.instance, "expected": m.expected, "got": m.got}
                for m in self.mismatches
            ],
            "pass": self.passed,
            "seed": self.seed,
        }


def _pool_size(jobs: int, items: int, cpus: int) -> int:
    """Workers for a sweep: at most one per instance and per CPU, since the
    pool starts every worker up front."""
    return max(1, min(jobs, items, cpus))


def _pmap(fn: Callable, items: Iterable, jobs: int) -> list:
    """``fn`` over ``items``, results in item order; one worker consumes
    them one at a time, a pool lists them first and is imported only then.

    Range sweeps list their instances by ascending size, so the pool takes
    them in reverse: the costliest chunks start first instead of running
    alone at the end.
    """
    workers = 1
    if jobs > 1:
        items = list(items)
        workers = _pool_size(jobs, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        results = list(pool.map(fn, reversed(items), chunksize=chunk))
    results.reverse()
    return results


def _gather(theorem, checks, items, jobs, seed=None) -> VerifyOutcome:
    results = _pmap(checks, items, jobs)
    mismatches = tuple(m for r in results for m in r)
    return VerifyOutcome(theorem, len(results), mismatches, seed)


def prediction_mismatches(
    instance: str, predicted: dict, n: int, rep: AnalysisReport
) -> list[Mismatch]:
    """Every predicted field that the report of an n-vertex graph contradicts.

    ``predicted`` is keyed like ``report_to_dict``; a key the report does
    not carry, such as ``case``, is skipped, and ``a_invariant_zero`` is
    read off the a-invariant.
    """
    computed = report_to_dict(n, rep)
    computed["a_invariant_zero"] = rep.a_invariant == 0
    return [
        Mismatch(f"{instance} {key}", str(want), str(computed[key]))
        for key, want in predicted.items()
        if key in computed and computed[key] != want
    ]


# -- corpora ---------------------------------------------------------------


def random_graph_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded corpus with sizes up to max_n and a swept edge density."""
    if count > 0 and max_n < 1:
        raise ValueError(f"random graphs need at least 1 vertex, max n is {max_n}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_n)
        density = DENSITY_GRID[i % len(DENSITY_GRID)]
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        out.append(Graph(n, edges))
    return out


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on exactly n vertices."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_graphs_up_to(max_n: int) -> Iterator[Graph]:
    for n in range(max_n + 1):
        yield from all_graphs(n)


def _mixed_corpus(
    random_count: int, max_n: int, seed: int, exhaustive_n: int
) -> list[tuple[int, Graph]]:
    """Numbered seeded random graphs, then every graph with n <= exhaustive_n."""
    corpus = list(random_graph_corpus(random_count, max_n, seed))
    corpus.extend(all_graphs_up_to(exhaustive_n))
    return list(enumerate(corpus))


def random_cameron_walker_specs(
    count: int, max_vertices: int, seed: int
) -> list[CameronWalkerSpec]:
    """Seeded random valid specs (connected cores, rejection-sampled)."""
    if count > 0 and max_vertices < 3:
        # one core edge and one leaf make the smallest Cameron-Walker graph
        raise ValueError(
            f"Cameron-Walker graphs have at least 3 vertices, max vertices is {max_vertices}"
        )
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.randint(1, CW_MAX_SIDE)
        m = rng.randint(1, CW_MAX_SIDE)
        edges = tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, m + 1)
            if rng.random() < 0.6
        )
        leaves = tuple(rng.randint(1, CW_MAX_LEAVES) for _ in range(n))
        triangles = tuple(rng.randint(0, CW_MAX_TRIANGLES) for _ in range(m))
        try:
            spec = CameronWalkerSpec(n, m, edges, leaves, triangles)
        except ValueError:
            continue
        if spec.total_vertices > max_vertices:
            continue
        specs.append(spec)
    return specs


# -- per-instance checks (top level so the pool can pickle them) -----------


def _check_prediction(item: tuple[str, Graph, dict]) -> list[Mismatch]:
    name, g, predicted = item
    return prediction_mismatches(name, predicted, g.n, analyze(g))


def _check_sequence(item: tuple[str, int]) -> list[Mismatch]:
    kind, n = item
    if kind == "path":
        g, name = path_graph(n), f"P_{n}"
        want = families.p_value(n)
        sign = (-1) ** ((n + 1) // 2)
        signed_want = families.b_value(n)
    else:
        g, name = cycle_graph(n), f"C_{n}"
        want = families.c_value(n)
        sign = (-1) ** (n // 2)
        signed_want = families.a_value(n)
    value = independence_polynomial(g)(-1)
    signed = sign * value
    out = []
    if value != want:
        out.append(Mismatch(f"{name} value at -1", str(want), str(value)))
    if signed != signed_want:
        out.append(Mismatch(f"{name} signed value", str(signed_want), str(signed)))
    return out


def _independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Nonempty independent sets of g, by size and then lexicographically.

    Each size is walked depth first over vertices in label order, and a
    branch only ever adds a vertex that has no neighbor in it, so the walk
    never visits a dependent set.  Sizes stop at the first one with no set.
    """
    adj = g._adj

    def extend(chosen: tuple[int, ...], allowed: int, need: int):
        if not need:
            yield frozenset(chosen)
            return
        while allowed.bit_count() >= need:
            b = allowed & -allowed
            allowed ^= b
            v = b.bit_length() - 1
            yield from extend(chosen + (v + 1,), allowed & ~adj[v], need - 1)

    for size in range(1, g.n + 1):
        found = False
        for s in extend((), (1 << g.n) - 1, size):
            found = True
            yield s
        if not found:
            return


def _check_vc_suspension(item: tuple[int, Graph]) -> list[Mismatch]:
    index, g = item
    rep = analyze(g)
    one_minus_t = IntPolynomial((1, -1))
    t = IntPolynomial((0, 1))
    out = []
    # S = {} is the cone, the full-suspension case
    for s_set in [frozenset(), *_independent_sets(g)]:
        cover = frozenset(g.vertices) - s_set
        if not cover:
            continue
        s = len(s_set)
        predicted = families.predict_vc_suspension(
            s, rep.alpha, rep.pseudo_gorenstein_star, rep.p_minus_one
        )
        # the h identities of the paper's two cases, against the base's h
        if predicted["case"] == families.PRESERVED:
            predicted["alpha"] = rep.alpha
            want_h = rep.h_poly + t * one_minus_t ** (rep.alpha - s - 1)
            predicted["h_polynomial"] = [str(c) for c in want_h.coeffs]
        elif predicted["case"] == families.NEVER_PG_STAR:
            want_h = one_minus_t * rep.h_poly + t
            predicted["h_polynomial"] = [str(c) for c in want_h.coeffs]
        gz = suspension(g, cover)
        name = f"graph#{index} S={sorted(s_set)}"
        out.extend(prediction_mismatches(name, predicted, gz.n, analyze(gz)))
    return out


def _structure_mismatch(name: str, h: Graph, c: int, ell: int) -> list[Mismatch]:
    # removing the apex closed neighborhood must leave ell disjoint edges
    # plus isolated vertices; h has c + ell vertices by construction
    if h.edge_count() != ell or any(h.degree(v) > 1 for v in h.vertices):
        return [
            Mismatch(
                f"{name} leftover structure",
                f"{ell} disjoint edges + {c - ell} isolated vertices",
                f"n={h.n}, edges={h.edge_count()}",
            )
        ]
    return []


def _check_cycle_mis_suspension(item: tuple[int, int]) -> list[Mismatch]:
    n, limit = item
    g = cycle_graph(n)
    out = []
    for members in g.maximal_independent_sets(limit):
        name = f"C_{n} susp over {sorted(members)}"
        predicted = families.predict_mis_suspension(families.cycle_mis_susp_params(n, members))
        predicted["multiplicity"] = 0
        if n == 3:
            predicted["independence_polynomial"] = ["1", "4", "2"]
            predicted["h_polynomial"] = ["1", "2", "-1"]
        gz = suspension(g, members)
        out.extend(prediction_mismatches(name, predicted, gz.n, analyze(gz)))
        c = len(members)
        out.extend(_structure_mismatch(name, gz.delete_closed_neighborhood(gz.n), c, n - 2 * c))
    return out


def _check_path_mis_suspension(item: tuple[int, int]) -> list[Mismatch]:
    n, limit = item
    g = path_graph(n)
    out = []
    for members in g.maximal_independent_sets(limit):
        name = f"P_{n} susp over {sorted(members)}"
        params = families.path_mis_susp_params(n, members)
        canonical = frozenset(range(1, n + 1, 3)) if n % 3 == 1 else frozenset()
        if (params.e == 0) != (members == canonical):
            out.append(
                Mismatch(
                    f"{name} e=0 detection",
                    f"e==0 iff set == {sorted(canonical)}",
                    f"e={params.e}, set={sorted(members)}",
                )
            )
        predicted = families.predict_mis_suspension(params)
        gz = suspension(g, members)
        rep = analyze(gz)
        out.extend(prediction_mismatches(name, predicted, gz.n, rep))
        if not predicted["a_invariant_zero"] and rep.a_invariant >= 0:
            out.append(Mismatch(f"{name} a-invariant sign", "< 0", str(rep.a_invariant)))
    return out


def _check_deg_via_ord(item: tuple[int, Graph]) -> list[Mismatch]:
    index, g = item
    rep = analyze(g)
    out = []
    if rep.h_degree != rep.alpha - rep.multiplicity:
        out.append(
            Mismatch(
                f"graph#{index} deg h",
                str(rep.alpha - rep.multiplicity),
                str(rep.h_degree),
            )
        )
    if rep.a_invariant != -rep.multiplicity:
        out.append(
            Mismatch(f"graph#{index} a-invariant", str(-rep.multiplicity), str(rep.a_invariant))
        )
    return out


def _check_oracle(item: tuple[int, Graph]) -> list[Mismatch]:
    index, g = item
    engine = independence_polynomial(g)
    brute = independence_polynomial_bruteforce(g)
    if engine != brute:
        return [
            Mismatch(f"graph#{index} oracle", str(brute.coeffs), str(engine.coeffs))
        ]
    return []


# -- sweeps ----------------------------------------------------------------


def verify_cycles(max_n: int = 40, jobs: int = 1) -> VerifyOutcome:
    items = (
        (f"C_{n}", cycle_graph(n), families.predict_chain("cycle", n))
        for n in range(3, max_n + 1)
    )
    return _gather("cycles", _check_prediction, items, jobs)


def verify_paths(max_n: int = 40, jobs: int = 1) -> VerifyOutcome:
    items = (
        (f"P_{n}", path_graph(n), families.predict_chain("path", n))
        for n in range(0, max_n + 1)
    )
    return _gather("paths", _check_prediction, items, jobs)


def verify_sequences(max_n: int = 60, jobs: int = 1) -> VerifyOutcome:
    items = [("path", n) for n in range(max_n + 1)]
    items += [("cycle", n) for n in range(3, max_n + 1)]
    return _gather("sequences", _check_sequence, items, jobs)


def verify_multipartite(
    max_parts: int = 4, max_part_size: int = 5, jobs: int = 1
) -> VerifyOutcome:
    items = (
        (f"K_{parts}", complete_multipartite(parts), families.predict_multipartite(parts))
        for k in range(1, max_parts + 1)
        for parts in combinations_with_replacement(range(1, max_part_size + 1), k)
    )
    return _gather("multipartite", _check_prediction, items, jobs)


def verify_cameron_walker(
    count: int = 50, max_vertices: int = 16, seed: int = DEFAULT_SEED, jobs: int = 1
) -> VerifyOutcome:
    items = (
        (
            f"CW(x={spec.core_x},y={spec.core_y},f={spec.leaves},t={spec.triangles})",
            cameron_walker(spec),
            families.predict_cameron_walker(spec),
        )
        for spec in random_cameron_walker_specs(count, max_vertices, seed)
    )
    return _gather("cameron-walker", _check_prediction, items, jobs, seed)


def verify_vc_suspension(
    count: int = 100,
    max_n: int = 8,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    mis_limit: int = MIS_ENUMERATION_LIMIT,
) -> VerifyOutcome:
    corpus = list(enumerate(random_graph_corpus(count, max_n, seed)))
    largest = max((g.n for _, g in corpus), default=0)
    if largest > mis_limit:
        raise EnumerationLimitError(
            f"independent-set enumeration capped at n = {mis_limit}, "
            f"corpus has a graph with n = {largest}"
        )
    return _gather("vc-suspension", _check_vc_suspension, corpus, jobs, seed)


def verify_full_suspension(max_n: int = 36, jobs: int = 1) -> VerifyOutcome:
    # the cone attaches the apex to every vertex 1..n
    cycles = (
        (
            f"cone over C_{n}",
            suspension(cycle_graph(n), range(1, n + 1)),
            families.predict_cone("cycle", n),
        )
        for n in range(3, max_n + 1)
    )
    paths = (
        (
            f"cone over P_{n}",
            suspension(path_graph(n), range(1, n + 1)),
            families.predict_cone("path", n),
        )
        for n in range(1, max_n + 1)
    )
    items = chain(cycles, paths)
    return _gather("full-suspension", _check_prediction, items, jobs)


def verify_cycle_mis_suspension(
    max_n: int = 18, jobs: int = 1, mis_limit: int = MIS_ENUMERATION_LIMIT
) -> VerifyOutcome:
    items = [(n, mis_limit) for n in range(3, max_n + 1)]
    return _gather("cycle-mis-suspension", _check_cycle_mis_suspension, items, jobs)


def verify_path_mis_suspension(
    max_n: int = 18, jobs: int = 1, mis_limit: int = MIS_ENUMERATION_LIMIT
) -> VerifyOutcome:
    items = [(n, mis_limit) for n in range(2, max_n + 1)]
    return _gather("path-mis-suspension", _check_path_mis_suspension, items, jobs)


def verify_deg_via_ord(
    random_count: int = 500,
    max_n: int = 10,
    seed: int = DEFAULT_SEED,
    exhaustive_n: int = 6,
    jobs: int = 1,
) -> VerifyOutcome:
    corpus = _mixed_corpus(random_count, max_n, seed, exhaustive_n)
    return _gather("deg-via-ord", _check_deg_via_ord, corpus, jobs, seed)


def verify_oracle(
    random_count: int = 500,
    max_n: int = 10,
    seed: int = DEFAULT_SEED,
    exhaustive_n: int = 6,
    jobs: int = 1,
) -> VerifyOutcome:
    """Engine vs brute force; the backbone correctness sweep."""
    corpus = _mixed_corpus(random_count, max_n, seed, exhaustive_n)
    return _gather("oracle", _check_oracle, corpus, jobs, seed)


# Every sweep ``pgstar verify`` runs, by id.  The CLI forwards only the options
# a user sets, so each default lives in the function's signature alone.
SWEEPS: dict[str, Callable[..., VerifyOutcome]] = {
    "cycles": verify_cycles,
    "paths": verify_paths,
    "sequences": verify_sequences,
    "multipartite": verify_multipartite,
    "cameron-walker": verify_cameron_walker,
    "vc-suspension": verify_vc_suspension,
    "full-suspension": verify_full_suspension,
    "cycle-mis-suspension": verify_cycle_mis_suspension,
    "path-mis-suspension": verify_path_mis_suspension,
    "deg-via-ord": verify_deg_via_ord,
    "oracle": verify_oracle,
}
