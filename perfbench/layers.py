"""Timing hooks around pgstar's layers, for the traced in-process replay.

``install`` replaces the module attributes that callers look up (for
example ``pgstar.analysis.independence_polynomial``, which ``analyze``
calls) with wrappers that record a span per call.  A span is
``[name, start, end, parent, pid]``; spans and counts stay in memory in
a ``Recorder`` and are summarised or written out when the replay ends.

Sweeps that fan out to a process pool run each instance through
``InstanceCall``, which records the worker's spans in a fresh recorder
and returns them with the result; the parent merges them under the
sweep's span.  Self time subtracts only children from the same process,
because pool instances overlap each other and their parent.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter

ENGINE = "indpoly.engine"
INSTANCE = "verification.instance"
SWEEP = "verification.sweep"


class Recorder:
    """Spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sweeps: list[tuple[int, int]] = []  # (span index, jobs)
        self.pid = os.getpid()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.pid])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self.stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.pid])

    def merge(self, spans: list[list], counts: dict, parent: int) -> None:
        """Append spans recorded in another process below ``parent``."""
        offset = len(self.spans)
        for name, start, end, p, pid in spans:
            self.spans.append([name, start, end, offset + p if p >= 0 else parent, pid])
        for key, value in counts.items():
            self.counts[key] += value

    def summary(self) -> dict:
        """Self time per span name, span durations of interest, sweeps, counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, pid in spans:
            if parent >= 0 and spans[parent][4] == pid:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        engine_ms = []
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            if name == ENGINE:
                engine_ms.append((end - start) * 1e3)
        instances = defaultdict(list)
        for name, start, end, parent, _ in spans:
            if name == INSTANCE:
                instances[parent].append((end - start) * 1e3)
        sweeps = [
            {
                "jobs": jobs,
                "wall_s": spans[i][2] - spans[i][1],
                "instance_ms": instances.get(i, []),
            }
            for i, jobs in self.sweeps
        ]
        return {
            "self_s": dict(self_s),
            "engine_ms": engine_ms,
            "sweeps": sweeps,
            "counts": dict(self.counts),
        }


class Tracer:
    """Holds the recorder that the installed wrappers write to."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.owner = os.getpid()

    def timed(self, name: str, fn, count=None, materialize: bool = False):
        """Wrap ``fn`` so each call records a span; ``count(counts, args, result)``
        runs after the span closes, so counting is not timed as the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.rec
            index = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:  # a generator does its work when consumed
                    result = list(result)
            finally:
                rec.end(index)
            if count is not None:
                count(rec.counts, args, result)
            return result

        return wrapper


_ACTIVE: Tracer | None = None


class InstanceCall:
    """Picklable per-instance wrapper handed to ``verification._pmap``."""

    def __init__(self, fn, owner: int) -> None:
        self.fn = fn
        self.owner = owner

    def __call__(self, item):
        tracer = install()
        if os.getpid() == self.owner:
            index = tracer.rec.begin(INSTANCE)
            try:
                return self.fn(item), None
            finally:
                tracer.rec.end(index)
        # pool worker: record this instance alone and ship it to the parent
        tracer.rec = Recorder()
        index = tracer.rec.begin(INSTANCE)
        try:
            result = self.fn(item)
        finally:
            tracer.rec.end(index)
        return result, (tracer.rec.spans, dict(tracer.rec.counts))


def _count_engine(counts, args, poly) -> None:
    counts["indpoly.engine_calls"] += 1
    counts["indpoly.vertices_in"] += args[0].n
    counts["polynomials.coeff_bits_out"] += sum(c.bit_length() for c in poly.coeffs)


def _count_htransform(counts, args, _) -> None:
    alpha = args[1]
    counts["analysis.htransform_terms"] += (alpha + 1) * (alpha + 2) // 2


def _count_parse(counts, args, _) -> None:
    counts["graphio.bytes_parsed"] += os.path.getsize(args[0])


def _count_build(counts, args, _) -> None:
    counts["graphs.graphs_built"] += 1


def _count_mis(counts, args, sets) -> None:
    counts["graphs.mis_sets"] += len(sets)


def install() -> Tracer:
    """Wrap pgstar's layer entry points; idempotent within a process."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    from pgstar import analysis, cli, graphs, verification

    tracer = Tracer()
    timed = tracer.timed
    engine = timed(ENGINE, analysis.independence_polynomial, _count_engine)
    analyze = timed("analysis.analyze", analysis.analyze)
    render = "cli.render"

    analysis.independence_polynomial = engine
    analysis.minus_one_profile = timed("indpoly.profile", analysis.minus_one_profile)
    analysis.h_polynomial = timed("analysis.htransform", analysis.h_polynomial, _count_htransform)

    graphs.Graph.__init__ = timed("graphs.build", graphs.Graph.__init__, _count_build)
    graphs.Graph.maximal_independent_sets = timed(
        "graphs.mis", graphs.Graph.maximal_independent_sets, _count_mis
    )

    cli.analyze = analyze
    cli.load_graph = timed("graphio.parse", cli.load_graph, _count_parse)
    cli.report_to_dict = timed(render, cli.report_to_dict)
    cli.render_report_text = timed(render, cli.render_report_text)
    cli._emit = timed(render, cli._emit)
    cli.print = timed(render, print)  # module globals shadow the builtin

    verification.analyze = analyze
    verification.independence_polynomial = engine
    for name in ("random_graph_corpus", "random_cameron_walker_specs"):
        setattr(verification, name, timed("verification.corpus", getattr(verification, name)))
    verification.all_graphs_up_to = timed(
        "verification.corpus", verification.all_graphs_up_to, materialize=True
    )

    pmap = verification._pmap

    def traced_pmap(fn, items, jobs):
        rec = tracer.rec
        index = rec.begin(SWEEP)
        try:
            packed = pmap(InstanceCall(fn, tracer.owner), items, jobs)
        finally:
            rec.end(index)
        rec.sweeps.append((index, jobs))
        results = []
        for result, shipped in packed:
            results.append(result)
            if shipped is not None:
                rec.merge(*shipped, parent=index)
        return results

    verification._pmap = traced_pmap
    _ACTIVE = tracer
    return tracer


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of a workload, from its ops' summaries."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    engine_ms: list[float] = []
    sweeps: list[dict] = []
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["counts"].items():
            counts[k] += v
        engine_ms += s["engine_ms"]
        sweeps += s["sweeps"]
    instance_ms = [ms for sw in sweeps for ms in sw["instance_ms"]]
    overhead = 0.0
    busy = 0.0
    capacity = 0.0
    for sw in sweeps:
        work = sum(sw["instance_ms"]) / 1e3
        slowest = max(sw["instance_ms"], default=0.0) / 1e3
        overhead += sw["wall_s"] - max(work / sw["jobs"], slowest)
        busy += work
        capacity += sw["jobs"] * sw["wall_s"]

    def p50(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "cli.import_s": self_s["cli.import"],
        "cli.main_self_s": self_s["cli.main"],
        "cli.render_s": self_s["cli.render"],
        "cli.output_bytes": counts["cli.output_bytes"],
        "graphio.parse_s": self_s["graphio.parse"],
        "graphio.bytes_parsed": counts["graphio.bytes_parsed"],
        "graphs.build_s": self_s["graphs.build"],
        "graphs.graphs_built": counts["graphs.graphs_built"],
        "graphs.mis_s": self_s["graphs.mis"],
        "graphs.mis_sets": counts["graphs.mis_sets"],
        "indpoly.engine_s": self_s[ENGINE],
        "indpoly.engine_calls": counts["indpoly.engine_calls"],
        "indpoly.engine_p50_ms": p50(engine_ms),
        "indpoly.engine_max_ms": max(engine_ms, default=0.0),
        "indpoly.vertices_in": counts["indpoly.vertices_in"],
        "indpoly.profile_s": self_s["indpoly.profile"],
        "polynomials.coeff_bits_out": counts["polynomials.coeff_bits_out"],
        "analysis.htransform_s": self_s["analysis.htransform"],
        "analysis.htransform_terms": counts["analysis.htransform_terms"],
        "analysis.analyze_self_s": self_s["analysis.analyze"],
        "verification.corpus_s": self_s["verification.corpus"],
        "verification.instances": len(instance_ms),
        "verification.instance_p50_ms": p50(instance_ms),
        "verification.instance_max_ms": max(instance_ms, default=0.0),
        "verification.check_self_s": self_s[INSTANCE],
        "verification.pool_overhead_s": overhead,
        "verification.pool_efficiency": busy / capacity if capacity else 0.0,
    }
