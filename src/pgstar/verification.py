"""Named verification sweeps: closed-form predictions vs exact computation.

Each sweep checks one classification result over a finite instance range
and reports every disagreement.  The predictions come from the
``families.predict_*`` functions that ``pgstar family`` and ``suspend``
print.  The closed-form sweeps pair each graph with its prediction and
share one check, whose mismatch lines read ``<instance> <report key>``;
``sequences`` compares the period-6 tables of P(-1) on paths and cycles
that way too.  The others add what a single report cannot show, such
as the h-polynomial identities against the base graph.  Instances are
independent, so sweeps may fan out to forked worker processes; results
are merged in instance order and the output is identical for any
parallelism degree.  Range sweeps list their instances by ascending
size, and the workers take them largest first so that the costliest
ones never run alone at the end.  With one worker a sweep builds and
checks its instances one at a time, and starts no process.
"""

from __future__ import annotations

import os
import random
from itertools import chain, combinations, combinations_with_replacement
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple

from . import families
from .analysis import REPORT_FIELDS, AnalysisReport, analyze, render_field
from .graphs import (
    MIS_ENUMERATION_LIMIT,
    CameronWalkerSpec,
    EnumerationLimitError,
    Graph,
    _bits,
    _from_masks,
    cameron_walker,
    check_mis_limit,
    complete_multipartite,
    cycle_graph,
    path_graph,
    suspension,
)
from .graphio import MAX_VERTICES, check_size
from .indpoly import (
    BRUTE_FORCE_LIMIT,
    independence_polynomial,
    independence_polynomial_bruteforce,
)
from .polynomials import X, IntPolynomial

DEFAULT_SEED = 1729
DENSITY_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# bounds of a random Cameron-Walker spec: vertices per core side, leaves
# per X vertex and triangles per Y vertex
CW_MAX_SIDE = 3
CW_MAX_LEAVES = 2
CW_MAX_TRIANGLES = 2
# Largest n whose every labelled graph a mixed corpus takes in.  There are
# sum over n <= k of 2^C(n, 2) of them: 33 868 at k = 6, 2 131 020 at k = 7
# and 270 566 476 at k = 8.  More than one worker lists them first.  `verify
# deg-via-ord --random 0 --exhaustive-n 6` peaks at 14.6 MB RSS at --jobs 1
# and 23.4 MB at --jobs 2 (CPython 3.11, 2 cores), about 275 bytes per
# listed graph; at that rate k = 7 takes some 590 MB at --jobs 2, and k = 8
# would need some 75 GB.  ROADMAP.md item 7 (feeding the workers in bounded
# windows) removes the list.
EXHAUSTIVE_MAX_N = 7


class Mismatch(NamedTuple):
    instance: str
    expected: str
    got: str


class VerifyOutcome(NamedTuple):
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


def _pipe(ends: list) -> tuple:
    """A fresh pipe as (read, write) files, added to ``ends``; reads are
    unbuffered, so a read of 4 bytes is one read of the pipe."""
    read, write = os.pipe()
    pair = open(read, "rb", buffering=0), open(write, "wb")
    ends += pair
    return pair


def _work(fn: Callable, items: list, chunk: int, tickets, out) -> None:
    """Body of a forked worker: ``fn`` over the chunk of each ticket, up to
    the chunk's first exception, then ``{start: results or exception}`` as
    one pickle.  It leaves through ``os._exit``, so no parent cleanup and
    no stdio flush runs in the child."""
    code = 1
    try:
        import pickle

        done = {}
        while ticket := tickets.read(4):
            start = int.from_bytes(ticket, "little")
            try:
                done[start] = [fn(item) for item in items[start : start + chunk]]
            except Exception as exc:
                done[start] = exc
        out.write(pickle.dumps(done))
        out.close()
        code = 0
    finally:
        os._exit(code)


class _Stopped(BaseException):
    """SIGTERM or SIGHUP, raised in a sweep's parent while it has workers;
    its one argument is the signal number."""


def _stop(signum: int, frame) -> None:
    raise _Stopped(signum)


def _pmap(fn: Callable, items: Iterable, jobs: int) -> list:
    """``fn`` over ``items``, results in item order.

    One worker consumes the items one at a time.  More workers, forked
    where ``os.fork`` exists, list them first and inherit them; each takes
    chunk start indices from one pipe of 4-byte tickets and pickles only
    its results back.  Range sweeps list their instances by ascending size,
    so the tickets go largest first: the costliest chunks start first
    instead of running alone at the end.  The lowest-index failing item
    raises its exception, as with one worker; a worker that dies, or a
    fork or pipe that fails, raises ``RuntimeError``.  While the workers
    run, a SIGTERM or SIGHUP that would end the parent first kills and
    reaps them, then ends the parent as it would have.
    """
    workers = 1
    if jobs > 1 and hasattr(os, "fork"):
        items = list(items)
        workers = _pool_size(jobs, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [fn(item) for item in items]
    import pickle
    import signal
    import threading

    chunk = max(1, len(items) // (workers * 4))
    starts = range(0, len(items), chunk)
    ends: list = []  # every pipe end the parent opened
    children: dict = {}  # pid -> the read end of its results, until reaped
    done = {}
    # a signal whose default action ends the parent raises _Stopped instead,
    # so the workers, which nothing else would stop, are killed below; a
    # worker that gets one leaves through os._exit like any other failure
    trapped = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGHUP):
            if signal.getsignal(signum) is signal.SIG_DFL:
                signal.signal(signum, _stop)
                trapped.append(signum)
    try:
        try:
            tickets, feed = _pipe(ends)
            # all tickets are written before the first fork, and workers
            # read them until EOF; under 8 per worker fit in a pipe buffer
            feed.write(b"".join(s.to_bytes(4, "little") for s in reversed(starts)))
            feed.close()
            for _ in range(workers):
                read, write = _pipe(ends)
                pid = os.fork()
                if not pid:
                    _work(fn, items, chunk, tickets, write)
                children[pid] = read
                write.close()
        except OSError as exc:
            raise RuntimeError(f"cannot start sweep workers: {exc}") from exc
        for pid, read in list(children.items()):
            payload = read.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                raise RuntimeError(f"a sweep worker ended with status {status} and no results")
            done.update(pickle.loads(payload))
    except BaseException as exc:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if isinstance(exc, _Stopped):
            for signum in trapped:
                signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(exc.args[0])
        raise
    finally:
        for end in ends:
            end.close()
        for signum in trapped:
            signal.signal(signum, signal.SIG_DFL)
    results = []
    for start in starts:
        if isinstance(done[start], Exception):
            raise done[start]
        results += done[start]
    return results


def _gather(theorem, checks, items, jobs, seed=None) -> VerifyOutcome:
    results = _pmap(checks, items, jobs)
    mismatches = tuple(m for r in results for m in r)
    return VerifyOutcome(theorem, len(results), mismatches, seed)


# where each field sits in a report, for the keys a prediction states
_POSITION = {key: i for i, key in enumerate(REPORT_FIELDS)}


def prediction_mismatches(
    instance: str, predicted: dict, rep: AnalysisReport
) -> tuple[Mismatch, ...]:
    """Every predicted field that the report contradicts.

    ``predicted`` holds report values keyed like ``REPORT_FIELDS``; a key
    the report does not carry, such as ``case``, is skipped, and
    ``a_invariant_zero`` is read off the a-invariant.  Values are compared
    as they are, and only a contradicted field is rendered.
    """
    out = []
    for key, want in predicted.items():
        if key == "a_invariant_zero":
            got = rep.a_invariant == 0
        elif key in _POSITION:
            got = rep[_POSITION[key]]
        else:
            continue
        if got != want:
            expected, found = (str(render_field(key, v)) for v in (want, got))
            out.append(Mismatch(f"{instance} {key}", expected, found))
    return tuple(out)


# -- corpora ---------------------------------------------------------------


def random_graph_corpus(
    count: int, max_n: int, seed: int, limit: int | None = None, what: str = ""
) -> list[Graph]:
    """Seeded corpus with sizes up to max_n and a swept edge density.

    A max_n past ``graphio.MAX_VERTICES`` is refused before any graph is
    drawn: drawing one walks all C(n, 2) vertex pairs.  With a ``limit``,
    the first n drawn past it is refused as a cap on ``what`` before that
    graph's edges are drawn, so the graphs before it are drawn as without
    a limit.
    """
    if count > 0 and max_n < 1:
        raise ValueError(f"random graphs need at least 1 vertex, max n is {max_n}")
    if count > 0 and max_n > MAX_VERTICES:
        raise EnumerationLimitError(
            f"random graphs capped at n = {MAX_VERTICES}, max n is {max_n}"
        )
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_n)
        if limit is not None and n > limit:
            raise EnumerationLimitError(
                f"{what} capped at n = {limit}, corpus has a graph with n = {n}"
            )
        density = DENSITY_GRID[i % len(DENSITY_GRID)]
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        out.append(Graph(n, edges))
    return out


def _edge_set_masks(n: int, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The adjacency masks on n vertices of every subset of ``pairs``,
    indexed by the subset's bitmask over ``pairs``."""
    table = [(0,) * n]
    for u, v in pairs:
        edge = [0] * n
        edge[u], edge[v] = 1 << v, 1 << u
        table += [tuple(a | b for a, b in zip(adj, edge)) for adj in table]
    return table


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on exactly n vertices.

    Graph number k has edge i of ``combinations(1..n, 2)`` when bit i of k
    is set.  Its masks are the union of two precomputed tables, one for
    each half of the pairs.
    """
    pairs = list(combinations(range(n), 2))
    half = len(pairs) // 2
    low = _edge_set_masks(n, pairs[:half])
    for high in _edge_set_masks(n, pairs[half:]):
        for adj in low:
            yield _from_masks(list(map(or_, high, adj)))


def all_graphs_up_to(max_n: int) -> Iterator[Graph]:
    for n in range(max_n + 1):
        yield from all_graphs(n)


def _mixed_corpus(
    random_count: int, max_n: int, seed: int, exhaustive_n: int, brute_force: bool = False
) -> Iterator[tuple[int, Graph]]:
    """Numbered seeded random graphs, then every graph with n <= exhaustive_n,
    built as they are consumed.

    An exhaustive part past ``EXHAUSTIVE_MAX_N`` is refused before anything
    is built; with ``brute_force``, so is a random graph past
    ``BRUTE_FORCE_LIMIT``, as soon as its size is drawn.
    """
    if exhaustive_n > EXHAUSTIVE_MAX_N:
        raise EnumerationLimitError(
            f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}, "
            f"asked for every graph with n <= {exhaustive_n}"
        )
    # the exhaustive part stays below the limit
    limit = BRUTE_FORCE_LIMIT if brute_force else None
    randoms = random_graph_corpus(random_count, max_n, seed, limit, "brute-force counting")
    return enumerate(chain(randoms, all_graphs_up_to(exhaustive_n)))


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


# -- per-instance checks ---------------------------------------------------


def _check_prediction(item: tuple[str, Graph, dict]) -> tuple[Mismatch, ...]:
    name, g, predicted = item
    return prediction_mismatches(name, predicted, analyze(g))


def _independent_sets(g: Graph) -> list[frozenset[int]]:
    """Nonempty independent sets of g, by size and then lexicographically.

    One depth-first walk over vertices in label order lists them
    lexicographically, and a branch only ever adds a vertex that has no
    neighbor in it, so the walk never visits a dependent set.  A stable
    sort by size keeps that order within each size.
    """
    adj = g._adj
    found = []

    def extend(chosen: frozenset[int], allowed: int) -> None:
        for v in _bits(allowed):
            found.append(grown := chosen | {v + 1})
            # later branches add only higher vertices
            extend(grown, (allowed & ~adj[v]) >> (v + 1) << (v + 1))

    extend(frozenset(), (1 << g.n) - 1)
    return sorted(found, key=len)


def _check_vc_suspension(item: tuple[int, Graph]) -> tuple[Mismatch, ...]:
    index, g = item
    rep = analyze(g)
    one_minus_t = IntPolynomial((1, -1))
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
            predicted["h_polynomial"] = rep.h_poly + X * one_minus_t ** (rep.alpha - s - 1)
        elif predicted["case"] == families.NEVER_PG_STAR:
            predicted["h_polynomial"] = one_minus_t * rep.h_poly + X
        gz = suspension(g, cover)
        name = f"graph#{index} S={sorted(s_set)}"
        out.extend(prediction_mismatches(name, predicted, analyze(gz)))
    return tuple(out)


def _structure_mismatch(name: str, gz: Graph, c: int, ell: int) -> tuple[Mismatch, ...]:
    # removing the apex's closed neighborhood must leave ell disjoint edges
    # plus isolated vertices, c + ell vertices by construction; read off the
    # suspension's masks, with no leftover graph built
    adj = gz._adj
    apex = gz.n - 1
    left = ((1 << apex) - 1) & ~adj[apex]
    degrees = [(adj[v] & left).bit_count() for v in _bits(left)]
    edges = sum(degrees) // 2
    if edges != ell or max(degrees, default=0) > 1:
        return (
            Mismatch(
                f"{name} leftover structure",
                f"{ell} disjoint edges + {c - ell} isolated vertices",
                f"n={len(degrees)}, edges={edges}",
            ),
        )
    return ()


def _check_cycle_mis_suspension(item: tuple[int, int]) -> tuple[Mismatch, ...]:
    n, limit = item
    g = cycle_graph(n)
    out = []
    for members in g.maximal_independent_sets(limit):
        picks = sorted(members)
        name = f"C_{n} susp over {picks}"
        params = families.cycle_mis_susp_params(n, picks)
        predicted = families.predict_mis_suspension(params)
        predicted["multiplicity"] = 0
        if n == 3:
            predicted["independence_polynomial"] = IntPolynomial((1, 4, 2))
            predicted["h_polynomial"] = IntPolynomial((1, 2, -1))
        gz = suspension(g, picks)
        out.extend(prediction_mismatches(name, predicted, analyze(gz)))
        out.extend(_structure_mismatch(name, gz, params.c, params.ell))
    return tuple(out)


def _check_path_mis_suspension(item: tuple[int, int]) -> tuple[Mismatch, ...]:
    n, limit = item
    g = path_graph(n)
    out = []
    for members in g.maximal_independent_sets(limit):
        picks = sorted(members)
        name = f"P_{n} susp over {picks}"
        params = families.path_mis_susp_params(n, picks)
        canonical = frozenset(range(1, n + 1, 3)) if n % 3 == 1 else frozenset()
        if (params.e == 0) != (members == canonical):
            out.append(
                Mismatch(
                    f"{name} e=0 detection",
                    f"e==0 iff set == {sorted(canonical)}",
                    f"e={params.e}, set={picks}",
                )
            )
        predicted = families.predict_mis_suspension(params)
        gz = suspension(g, picks)
        rep = analyze(gz)
        out.extend(prediction_mismatches(name, predicted, rep))
        if not predicted["a_invariant_zero"] and rep.a_invariant >= 0:
            out.append(Mismatch(f"{name} a-invariant sign", "< 0", str(rep.a_invariant)))
    return tuple(out)


def _check_deg_via_ord(item: tuple[int, Graph]) -> tuple[Mismatch, ...]:
    index, g = item
    rep = analyze(g)
    # the a-invariant is deg h - alpha, so deg h = alpha - M holds exactly
    # when a = -M; comparing deg h as well would repeat this one test
    if rep.a_invariant != -rep.multiplicity:
        return (
            Mismatch(f"graph#{index} a-invariant", str(-rep.multiplicity), str(rep.a_invariant)),
        )
    return ()


def _check_oracle(item: tuple[int, Graph]) -> tuple[Mismatch, ...]:
    index, g = item
    engine = independence_polynomial(g)
    brute = independence_polynomial_bruteforce(g)
    if engine != brute:
        return (Mismatch(f"graph#{index} oracle", str(brute.coeffs), str(engine.coeffs)),)
    return ()


# -- sweeps ----------------------------------------------------------------


def _chain_graphs(kind: str, ns: Iterable[int]) -> Iterator[tuple[int, str, Graph]]:
    """``(n, "P_n", path)`` or ``(n, "C_n", cycle)`` for each n in ``ns``."""
    build, letter = (path_graph, "P") if kind == "path" else (cycle_graph, "C")
    for n in ns:
        yield n, f"{letter}_{n}", build(n)


# Each range sweep checks its largest member before it builds any.  A chain,
# its cone and its suspensions have at most 2n edges, so only their vertex
# count can pass a limit.
def verify_cycles(max_n: int = 40, jobs: int = 1) -> VerifyOutcome:
    check_size(max_n, what=f"C_{max_n}")
    items = (
        (name, g, families.predict_chain("cycle", n))
        for n, name, g in _chain_graphs("cycle", range(3, max_n + 1))
    )
    return _gather("cycles", _check_prediction, items, jobs)


def verify_paths(max_n: int = 40, jobs: int = 1) -> VerifyOutcome:
    check_size(max_n, what=f"P_{max_n}")
    items = (
        (name, g, families.predict_chain("path", n))
        for n, name, g in _chain_graphs("path", range(max_n + 1))
    )
    return _gather("paths", _check_prediction, items, jobs)


def verify_sequences(max_n: int = 60, jobs: int = 1) -> VerifyOutcome:
    check_size(max_n, what=f"P_{max_n}")
    # the period-6 values at -1 alone; the signed mod-12 tables are these
    # times a sign (``families.a_value`` and ``b_value``)
    items = (
        (name, g, {"p_at_minus_one": families.predict_chain(kind, n)["p_at_minus_one"]})
        for kind, ns in (("path", range(max_n + 1)), ("cycle", range(3, max_n + 1)))
        for n, name, g in _chain_graphs(kind, ns)
    )
    return _gather("sequences", _check_prediction, items, jobs)


def verify_multipartite(
    max_parts: int = 4, max_part_size: int = 5, jobs: int = 1
) -> VerifyOutcome:
    # the largest member has max_parts parts of max_part_size vertices
    k, size = max(max_parts, 0), max(max_part_size, 0)
    check_size(k * size, k * (k - 1) // 2 * size**2, f"{k} parts of {size}")
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
    corpus = random_graph_corpus(count, max_n, seed, mis_limit, "independent-set enumeration")
    return _gather("vc-suspension", _check_vc_suspension, enumerate(corpus), jobs, seed)


def verify_full_suspension(max_n: int = 36, jobs: int = 1) -> VerifyOutcome:
    check_size(max_n + 1, what=f"cone over P_{max_n}")
    # the cone attaches the apex to every vertex 1..n
    items = (
        (f"cone over {name}", suspension(g, range(1, n + 1)), families.predict_cone(kind, n))
        for kind, ns in (("cycle", range(3, max_n + 1)), ("path", range(1, max_n + 1)))
        for n, name, g in _chain_graphs(kind, ns)
    )
    return _gather("full-suspension", _check_prediction, items, jobs)


def verify_cycle_mis_suspension(
    max_n: int = 18, jobs: int = 1, mis_limit: int = MIS_ENUMERATION_LIMIT
) -> VerifyOutcome:
    check_size(max_n + 1, what=f"C_{max_n} susp")
    check_mis_limit(max_n, mis_limit)
    items = [(n, mis_limit) for n in range(3, max_n + 1)]
    return _gather("cycle-mis-suspension", _check_cycle_mis_suspension, items, jobs)


def verify_path_mis_suspension(
    max_n: int = 18, jobs: int = 1, mis_limit: int = MIS_ENUMERATION_LIMIT
) -> VerifyOutcome:
    check_size(max_n + 1, what=f"P_{max_n} susp")
    check_mis_limit(max_n, mis_limit)
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
    corpus = _mixed_corpus(random_count, max_n, seed, exhaustive_n, brute_force=True)
    return _gather("oracle", _check_oracle, corpus, jobs, seed)


# Every sweep ``pgstar verify`` runs, by id.  The CLI makes each parameter of
# these functions an option and forwards only the options a user sets, so each
# default lives in the function's signature alone.
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
