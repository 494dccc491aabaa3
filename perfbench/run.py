"""Seeded end-to-end and per-layer benchmark of the pgstar CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--trace 0|1]    # every workload
    python3 perfbench/run.py --workload NAME --smoke         # reduced sizes
    python3 perfbench/run.py --record-digests                # refresh digests.json

Run from anywhere; the checkout is the parent of this directory and the
program is run from its ``src``.  Untraced (``--trace 0``), every CLI
invocation of the workload runs as its own process, once untimed as a
warm-up and then repeatedly for the rest of about ``--seconds``; the
metrics are ``wall_s`` (sum over invocations of the median wall time),
``setup_s`` (median start-up of a process that only imports
``pgstar.cli`` and builds its parser, probed after every pass) and
``peak_rss_mb``; the two timings are scaled to a nominal machine speed
by a fixed reference task (``speedref.py``) timed after every pass.
Traced (``--trace 1``), half the time runs untraced and half replays
each invocation in process with timing hooks (``replay.py``); the
metrics are the per-layer ones of ``layers.layer_metrics`` plus the
tracing overhead.  Every stdout is checked (``checks.py``), and at the
default seed compared with ``digests.json``; a failed invocation counts
in ``failed``.  The last line of stdout is the JSON result; the full
record, with machine facts, input digests and every sample, goes to
``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speedref  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# start-up probes after each untraced pass, so they spread over the run
SETUP_PER_PASS = 3
SETUP_CODE = "import pgstar.cli; pgstar.cli.build_parser()"
# runs of the fixed reference task (speedref.py) after each untraced pass
SPEEDREF_PER_PASS = 2
# The reference task's median time on the 2-core Xeon the benchmark was
# defined on.  Timings are scaled to that speed, so a host that runs
# slower or faster for minutes at a time does not move them (README.md,
# "Steadiness").
SPEEDREF_NOMINAL_S = 0.27


def metric_units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json beside the checkout's perfbench/."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def child_env() -> dict[str, str]:
    """The environment of every child: pgstar from ``src``, no inherited knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PGSTAR_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class OpRun:
    name: str
    wall_s: float
    rss_mb: float
    code: int


class Launcher:
    """The process that spawns and times children (see launcher.py)."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True, start_new_session=True,
        )

    def run(self, cmd: list[str], stdout_path: Path) -> tuple[float, float, int]:
        """Run ``cmd`` from the checkout root; return wall seconds, peak RSS (MB), exit code.

        ``wait4`` includes every child the process reaped, so pool workers count.
        """
        request = [cmd, str(stdout_path), str(stdout_path.with_suffix(".err"))]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited early")
        wall, rss_kb, code = json.loads(reply)
        return wall, rss_kb / 1024, code

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)  # the launcher and its children
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Checker:
    """Checks each distinct stdout of an op once; identical bytes get the same verdict."""

    def __init__(self, expected_digests: dict[str, str] | None):
        self.expected = expected_digests
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def __call__(self, op: workloads.Op, code: int, stdout: bytes) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        digest = hashlib.sha256(stdout).hexdigest()
        key = (op.name, digest)
        if key not in self.verdicts:
            try:
                errors = op.check(stdout.decode())
            except UnicodeDecodeError as exc:
                errors = [f"stdout is not UTF-8: {exc}"]
            if self.expected is not None and self.expected.get(op.name) != digest:
                errors.append("stdout differs from the recorded digest")
            self.verdicts[key] = errors
        return self.verdicts[key]


@dataclass
class Session:
    """One benchmark run of one workload: its plan, scratch space and tallies."""

    plan: workloads.Plan
    workdir: Path
    check: Checker
    launcher: Launcher
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: workloads.Op, wall: float, rss: float, code: int,
               stdout_path: Path) -> OpRun:
        errors = self.check(op, code, stdout_path.read_bytes())
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.name}: {'; '.join(errors)[:300]}")
        return OpRun(op.name, wall, rss, code)

    def run_op(self, i: int, op: workloads.Op) -> OpRun:
        stdout_path = self.workdir / f"op{i}.out"
        cmd = [sys.executable, "-m", "pgstar", *op.argv]
        return self.record(op, *self.launcher.run(cmd, stdout_path), stdout_path)

    def setup_probe(self) -> float:
        """Wall time of a process that only imports pgstar.cli and builds the parser."""
        cmd = [sys.executable, "-c", SETUP_CODE]
        wall, _, code = self.launcher.run(cmd, self.workdir / "setup.out")
        if code != 0:
            raise RuntimeError(f"start-up probe exited {code}")
        return wall

    def speed_probe(self) -> float:
        """Wall time of the fixed reference task, which gauges the machine's speed."""
        out = self.workdir / "speedref.out"
        cmd = [sys.executable, "-I", "-S", str(HERE / "speedref.py")]
        wall, _, code = self.launcher.run(cmd, out)
        if code != 0 or out.read_text().strip() != speedref.CHECKSUM:
            raise RuntimeError(f"the speed reference task exited {code} or printed a wrong checksum")
        return wall

    def replay_op(self, i: int, op: workloads.Op, spans: Path | None) -> tuple[OpRun, dict]:
        stdout_path = self.workdir / f"op{i}.traced.out"
        summary_path = self.workdir / f"op{i}.summary.json"
        cmd = [sys.executable, str(HERE / "replay.py"), str(summary_path)]
        if spans is not None:
            cmd += ["--spans", str(spans), "--run-id", str(i)]
        cmd += ["--", *op.argv]
        summary_path.unlink(missing_ok=True)
        run = self.record(op, *self.launcher.run(cmd, stdout_path), stdout_path)
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        return run, summary


def repeat(body, seconds: float, min_passes: int) -> list:
    """Call ``body()`` until another call would overrun ``seconds``, at least ``min_passes`` times."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t0
        if len(results) >= min_passes and time.perf_counter() - start + last > seconds:
            return results


def e2e_from(passes: list[list[OpRun]]) -> tuple[float, float]:
    """wall_s: per-op medians summed; peak_rss_mb: median of per-pass maxima."""
    per_op = zip(*[[r.wall_s for r in runs] for runs in passes])
    wall = sum(statistics.median(samples) for samples in per_op)
    rss = statistics.median(max(r.rss_mb for r in runs) for runs in passes)
    return wall, rss


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 use_digests: bool = True) -> dict:
    """Measure one workload; return the full record (see module docstring)."""
    workdir = OUT / "work" / f"{name}-s{seed}{'-smoke' if smoke else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.plan(name, seed, ROOT, workdir / "inputs", smoke)
    digests = None
    if use_digests and seed == workloads.DEFAULT_SEED and not smoke:
        digests = load_digests().get(name)
    with Launcher(child_env()) as launcher:
        session = Session(plan, workdir, Checker(digests), launcher)
        metrics, unscaled, samples, untraced = measure(session, seconds, trace)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": machine_facts(),
        "inputs": plan.inputs,
        "ops": [{"name": op.name, "argv": list(op.argv)} for op in plan.ops],
        "untraced_samples": [[[r.name, r.wall_s, r.rss_mb, r.code] for r in it] for it in untraced],
        "digests_checked": digests is not None,
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
        "samples": samples,
        "metrics": metrics,
        "unscaled": unscaled,
    }


def measure(session: Session, seconds: float, trace: bool):
    """Untraced runs for the end-to-end metrics, or half untraced, half traced.

    Returns the metrics, the end-to-end timings before scaling to the
    nominal machine speed, the sample count per metric and the untraced
    passes.
    """
    ops = session.plan.ops
    metrics: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    samples: dict[str, int] = {}

    budget = seconds / 2 if trace else seconds
    setup: list[float] = []
    speed: list[float] = []

    def untraced_pass():
        runs = [session.run_op(i, op) for i, op in enumerate(ops)]
        if not trace:
            setup.extend(session.setup_probe() for _ in range(SETUP_PER_PASS))
            speed.extend(session.speed_probe() for _ in range(SPEEDREF_PER_PASS))
        return runs

    # one warm-up pass, checked but not timed: it fills the page cache and
    # any bytecode cache, which would otherwise slow the first timed pass
    warm_start = time.perf_counter()
    for i, op in enumerate(ops):
        session.run_op(i, op)
    budget -= time.perf_counter() - warm_start
    untraced = repeat(untraced_pass, budget, 2 if trace else MIN_PASSES)
    wall, rss = e2e_from(untraced)
    if not trace:
        unscaled = {"wall_s": wall, "setup_s": statistics.median(setup),
                    "speedref_s": statistics.median(speed)}
        scale = SPEEDREF_NOMINAL_S / unscaled["speedref_s"]
        metrics = {"wall_s": wall * scale, "setup_s": unscaled["setup_s"] * scale,
                   "peak_rss_mb": rss}
        samples = {"wall_s": len(untraced), "setup_s": len(setup), "peak_rss_mb": len(untraced)}
    else:
        spans_path = session.workdir / "spans.jsonl"
        spans_path.unlink(missing_ok=True)
        first = [spans_path]  # spans are written for the first traced pass only

        def traced_pass():
            spans = first.pop() if first else None
            return [session.replay_op(i, op, spans) for i, op in enumerate(ops)]

        per_pass = []
        for runs in repeat(traced_pass, budget, 1):
            summaries = [s for _, s in runs if s is not None]
            layer = layers.layer_metrics(summaries)
            layer["trace.wall_s"] = sum(r.wall_s for r, _ in runs) - sum(
                s["finish_s"] for s in summaries)
            per_pass.append(layer)
        for key, value in per_pass[0].items():
            # counts are exact, so report one of them rather than an average
            middle = statistics.median_low if isinstance(value, int) else statistics.median
            metrics[key] = middle(p[key] for p in per_pass)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        samples = {key: len(per_pass) for key in metrics}
        samples["trace.overhead_s"] = min(len(per_pass), len(untraced))
    return metrics, unscaled, samples, untraced


# -- records -------------------------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC / "pgstar"),
    }


def result_line(record: dict, units: dict[str, str]) -> dict:
    metrics = {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict, units: dict[str, str]) -> None:
    print(f"# {record['workload']} seed {record['seed']} "
          f"({'traced' if record['trace'] else 'untraced'}"
          f"{', smoke' if record['smoke'] else ''})")
    for key, value in record["metrics"].items():
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} n={record['samples'][key]}")
    for key, value in record["unscaled"].items():
        print(f"  {'unscaled ' + key:34s} {value:14.6g} s")
    print(f"  {'ops_failed/ops_total':34s} {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def save(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{record['workload']}-s{record['seed']}-t{record['trace']}"
    path = results / f"{tag}{'-smoke' if record['smoke'] else ''}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def record_digests() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        record = run_workload(name, workloads.DEFAULT_SEED, 0, False, False, use_digests=False)
        if not record["correct"]:
            print_record(record, metric_units())
            return 1
        workdir = OUT / "work" / f"{name}-s{workloads.DEFAULT_SEED}"
        digests[name] = {
            op["name"]: hashlib.sha256((workdir / f"op{i}.out").read_bytes()).hexdigest()
            for i, op in enumerate(record["ops"])
        }
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, no digests")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "pgstar" / "cli.py").is_file():
        print(f"error: no pgstar sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.record_digests:
        return record_digests()

    units = metric_units()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_record(record, units)
        print(f"  record: {save(record).relative_to(ROOT)}")
        records.append(record)
    if len(records) == 1:
        line = result_line(records[0], units)
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}/{k}": v
                for r in records
                for k, v in result_line(r, units)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
