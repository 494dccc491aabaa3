"""The benchmark's workloads: CLI invocations and the inputs they read.

Inputs are generated here with the standard library only, so a change to
pgstar cannot change them.  Each op is one ``pgstar`` invocation together
with the check its stdout must pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import checks

DEFAULT_SEED = 1729

# Structure seeds of the branching-mid random graphs.  The graphs are part
# of the workload's definition; the run seed only reorders and reorients
# the edge lines of the files (see README.md, "branching-mid").
BRANCHING_GRAPHS = ((62, 0.1, 1), (66, 0.1, 2), (70, 0.1, 3))
BRANCHING_GRID = 8

# (theorem, options) at the acceptance scale; every option is spelled out
# so a change of pgstar's defaults cannot change the workload.
ACCEPTANCE = (
    ("cycles", {"--max-n": 40}),
    ("paths", {"--max-n": 40}),
    ("sequences", {"--max-n": 60}),
    ("multipartite", {"--max-parts": 4, "--max-part-size": 5}),
    ("cameron-walker", {"--count": 50, "--max-vertices": 16}),
    ("vc-suspension", {"--count": 100, "--max-n": 8}),
    ("full-suspension", {"--max-n": 36}),
    ("cycle-mis-suspension", {"--max-n": 18, "--enum-cap": 24}),
    ("path-mis-suspension", {"--max-n": 18, "--enum-cap": 24}),
)
ACCEPTANCE_SMOKE = (
    ("cycles", {"--max-n": 12}),
    ("paths", {"--max-n": 12}),
    ("sequences", {"--max-n": 12}),
    ("multipartite", {"--max-parts": 2, "--max-part-size": 3}),
    ("cameron-walker", {"--count": 5, "--max-vertices": 10}),
    ("vc-suspension", {"--count": 5, "--max-n": 5}),
    ("full-suspension", {"--max-n": 8}),
    ("cycle-mis-suspension", {"--max-n": 8, "--enum-cap": 24}),
    ("path-mis-suspension", {"--max-n": 8, "--enum-cap": 24}),
)
SEEDED_SWEEPS = ("cameron-walker", "vc-suspension", "deg-via-ord")

# Every workload that ``--workload`` accepts.  BENCHMARK.json lists the
# three that fit the measured run budget (tiny-exhaustive, long-chains,
# mis-pool-j2); README.md gives why each exists and why two are left out.
WORKLOADS = ("acceptance-j1", "tiny-exhaustive", "long-chains", "branching-mid", "mis-pool-j2")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``pgstar <argv>`` and the check of its stdout."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Plan:
    ops: tuple[Op, ...]
    inputs: dict[str, str]  # input file (relative to the checkout) -> sha256


# -- expected instance counts, from the sweep definitions -------------------


def sweep_instances(theorem: str, opts: dict) -> int:
    max_n = opts.get("--max-n")
    if theorem in ("cycles", "cycle-mis-suspension"):
        return max_n - 2
    if theorem == "paths":
        return max_n + 1
    if theorem == "path-mis-suspension":
        return max_n - 1
    if theorem == "sequences":
        return (max_n + 1) + (max_n - 2)
    if theorem == "full-suspension":
        return (max_n - 2) + max_n
    if theorem == "multipartite":
        size = opts["--max-part-size"]
        return sum(comb(size + k - 1, k) for k in range(1, opts["--max-parts"] + 1))
    if theorem in ("cameron-walker", "vc-suspension"):
        return opts["--count"]
    if theorem == "deg-via-ord":
        exhaustive = sum(2 ** comb(n, 2) for n in range(opts["--exhaustive-n"] + 1))
        return opts["--random"] + exhaustive
    raise ValueError(f"unknown theorem {theorem!r}")


def verify_op(theorem: str, opts: dict, jobs: int, seed: int) -> Op:
    argv = ["verify", theorem]
    for flag, value in opts.items():
        argv += [flag, str(value)]
    argv += ["--jobs", str(jobs)]
    cli_seed = seed if theorem in SEEDED_SWEEPS else None
    if cli_seed is not None:
        argv += ["--seed", str(cli_seed)]
    check = partial(
        checks.check_verify_output,
        theorem=theorem,
        instances=sweep_instances(theorem, opts),
        seed=cli_seed,
    )
    return Op(f"verify {theorem}", tuple(argv), check)


# -- graph inputs ------------------------------------------------------------


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(n, 1)]


def grid_edges(side: int) -> list[tuple[int, int]]:
    def label(r: int, c: int) -> int:
        return r * side + c + 1

    edges = [(label(r, c), label(r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [(label(r, c), label(r + 1, c)) for r in range(side - 1) for c in range(side)]
    return edges


def gnp_edges(n: int, p: float, structure_seed: int) -> list[tuple[int, int]]:
    rng = random.Random(structure_seed)
    return [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]


def write_edge_list(
    path: Path, n: int, edges: list[tuple[int, int]], rng: random.Random
) -> str:
    """Write an edge list with seeded line order and orientation; return its sha256."""
    lines = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(lines)
    text = f"# perfbench input\n{n} {len(lines)}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def compute_op(
    name: str,
    n: int,
    edges: list[tuple[int, int]],
    root: Path,
    workdir: Path,
    rng: random.Random,
    inputs: dict[str, str],
    coeffs: list[int] | None = None,
) -> Op:
    path = workdir / f"{name}.txt"
    rel = path.relative_to(root).as_posix()
    inputs[rel] = write_edge_list(path, n, edges, rng)
    low = None if coeffs is not None else checks.low_coefficients(n, edges)
    check = partial(checks.check_compute_output, n=n, coeffs=coeffs, low=low)
    argv = ("compute", rel, "--format", "edge-list", "--output", "json")
    return Op(f"compute {name}", argv, check)


# -- plans -------------------------------------------------------------------


def plan(workload: str, seed: int, root: Path, workdir: Path, smoke: bool = False) -> Plan:
    """Generate the inputs of ``workload`` under ``workdir`` and list its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    inputs: dict[str, str] = {}
    ops: list[Op] = []
    if workload == "acceptance-j1":
        for theorem, opts in ACCEPTANCE_SMOKE if smoke else ACCEPTANCE:
            ops.append(verify_op(theorem, opts, 1, seed))
    elif workload == "tiny-exhaustive":
        opts = {"--random": 500, "--max-n": 10, "--exhaustive-n": 6}
        if smoke:
            opts = {"--random": 20, "--max-n": 6, "--exhaustive-n": 3}
        ops.append(verify_op("deg-via-ord", opts, 1, seed))
    elif workload == "long-chains":
        n_path, n_cycle = (60, 40) if smoke else (900, 600)
        ops.append(compute_op(f"P{n_path}", n_path, path_edges(n_path), root, workdir,
                              rng, inputs, checks.path_coefficients(n_path)))
        ops.append(compute_op(f"C{n_cycle}", n_cycle, cycle_edges(n_cycle), root, workdir,
                              rng, inputs, checks.cycle_coefficients(n_cycle)))
    elif workload == "branching-mid":
        graphs = ((20, 0.1, 1),) if smoke else BRANCHING_GRAPHS
        for n, p, structure_seed in graphs:
            edges = gnp_edges(n, p, structure_seed)
            ops.append(compute_op(f"gnp{n}-s{structure_seed}", n, edges, root, workdir, rng, inputs))
        side = 4 if smoke else BRANCHING_GRID
        ops.append(compute_op(f"grid{side}x{side}", side * side, grid_edges(side),
                              root, workdir, rng, inputs))
    else:  # mis-pool-j2
        max_n = 10 if smoke else 24
        for theorem in ("cycle-mis-suspension", "path-mis-suspension"):
            ops.append(verify_op(theorem, {"--max-n": max_n, "--enum-cap": 24}, 2, seed))
    return Plan(tuple(ops), inputs)
