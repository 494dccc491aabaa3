"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every workload at smoke size, untraced and traced: no invocation
   fails, and the traced run reports every per-layer metric named in
   BENCHMARK.json.
2. Fault injection: corrupted stdout of every kind of op, and non-zero
   exits, are each counted in ``failed``.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero and prints no result.

Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import workloads

SEED = 7


def bump_first(pattern: str):
    """Corruption that adds one to the first integer matched by ``pattern``."""
    return lambda text: re.sub(pattern, lambda m: m.group(1) + str(int(m.group(2)) + 1), text, 1)


VERIFY_CORRUPTIONS = {
    "verdict": lambda text: text.replace("PASS", "FAIL"),
    "instance count": bump_first(r"(: )(\d+)"),
    "truncated": lambda text: text[:-2],
}
COMPUTE_CORRUPTIONS = {
    "g_1": bump_first(r'("independence_polynomial": \[\s*"1",\s*")(\d+)'),
    "h_1": bump_first(r'("h_polynomial": \[\s*"1",\s*")(-?\d+)'),
    "a_invariant": bump_first(r'("a_invariant": )(-?\d+)'),
    "P(-1)": bump_first(r'("p_at_minus_one": ")(-?\d+)'),
    "malformed": lambda text: text[: len(text) // 2],
}


def report(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def smoke() -> bool:
    expected = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    ok = True
    for name in workloads.WORKLOADS:
        plain = run.run_workload(name, SEED, 0, False, True)
        ok &= report(plain["failed"] == 0 and plain["attempted"] > 0,
                     f"{name}: smoke run, {plain['failed']}/{plain['attempted']} failed")
        traced = run.run_workload(name, SEED, 0, True, True)
        missing = expected - set(traced["metrics"])
        ok &= report(traced["failed"] == 0 and not missing,
                     f"{name}: traced smoke run, missing metrics {sorted(missing)}")
    return ok


def counted_as_failed(ops: list[workloads.Op], workdir) -> bool:
    """Run each op once through the benchmark's own runner; all must count as failed."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.Plan(tuple(ops), {})
    with run.Launcher(run.child_env()) as launcher:
        session = run.Session(plan, workdir, run.Checker(None), launcher)
        for i, op in enumerate(ops):
            session.run_op(i, op)
    return session.attempted == len(ops) and session.failed == len(ops)


def faults() -> bool:
    ok = True
    for name in workloads.WORKLOADS:
        workdir = run.OUT / "work" / "selftest" / name
        op = workloads.plan(name, SEED, run.ROOT, workdir, True).ops[0]
        kinds = COMPUTE_CORRUPTIONS if op.argv[0] == "compute" else VERIFY_CORRUPTIONS
        for kind, corrupt in kinds.items():
            faulty = replace(op, check=lambda out, corrupt=corrupt, op=op: op.check(corrupt(out)))
            ok &= report(counted_as_failed([faulty], workdir),
                         f"{name}: {op.name} with corrupted {kind} counted as failed")
    exits = (
        ("compute", "perfbench/out/no-such-file.txt"),
        ("verify", "no-such-theorem"),
        ("verify", "cycle-mis-suspension", "--max-n", "30", "--enum-cap", "24"),
    )
    for argv in exits:
        op = workloads.Op("failing", argv, lambda out: [])
        ok &= report(counted_as_failed([op], run.OUT / "work" / "selftest" / "exit"),
                     f"non-zero exit of {' '.join(argv)} counted as failed")
    return ok


def bare_directory() -> bool:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-chains", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    return report(proc.returncode != 0 and not printed_result,
                  f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    results = [smoke(), faults(), bare_directory()]
    print("selftest:", "PASS" if all(results) else "FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
