import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgstar
from pgstar import cli
from pgstar.cli import main
from pgstar.graphio import MAX_EDGES, MAX_VERTICES, parse_edge_list
from pgstar.verification import SWEEPS

C6_TEXT = "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n"
# a child interpreter runs the same pgstar package this module imported,
# installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(pgstar.__file__).resolve().parents[1])}
K23_TEXT = "5 6\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(C6_TEXT)
    return str(path)


# Exact exit code and stdout of a fixed set of small invocations: every
# verify id in text and JSON (and at its defaults), compute, family and
# suspend.  A refactor must keep all of them byte-identical.
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_output(case, c6_file, capsys):
    argv = [c6_file if arg == "{c6}" else arg for arg in case["argv"]]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (case["exit"], case["stdout"])


def test_golden_output_covers_every_sweep():
    ids = {case["id"] for case in GOLDEN}
    assert {f"verify-{t}-{out}" for t in SWEEPS for out in ("text", "json")} <= ids


def test_compute_text(c6_file, capsys):
    code, out, _ = run_cli(["compute", c6_file], capsys)
    assert code == 0
    assert "1 + 3t - 2t^3" in out
    assert "pseudo-Gorenstein*: no" in out


def test_compute_json_fixed_schema(c6_file, capsys):
    code, out, _ = run_cli(["compute", c6_file, "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["h_polynomial"] == ["1", "3", "0", "-2"]
    assert payload["independence_polynomial"] == ["1", "6", "9", "2"]
    assert set(payload) == {
        "n",
        "alpha",
        "independence_polynomial",
        "p_at_minus_one",
        "multiplicity",
        "a_invariant",
        "h_polynomial",
        "h_degree",
        "h_top",
        "pseudo_gorenstein",
        "pseudo_gorenstein_star",
    }


def test_compute_json_round_trips_exact_integers(tmp_path, capsys):
    # coefficients of the 40-cycle overflow 32-bit; decimal strings must
    # round-trip exactly
    from pgstar.graphio import serialize_edge_list
    from pgstar.graphs import cycle_graph
    from pgstar.indpoly import independence_polynomial

    path = tmp_path / "c40.txt"
    path.write_text(serialize_edge_list(cycle_graph(40)))
    code, out, _ = run_cli(["compute", str(path), "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    coeffs = tuple(int(s) for s in payload["independence_polynomial"])
    assert coeffs == independence_polynomial(cycle_graph(40)).coeffs
    assert int(payload["p_at_minus_one"]) == independence_polynomial(cycle_graph(40))(-1)


def test_compute_k23(tmp_path, capsys):
    path = tmp_path / "k23.txt"
    path.write_text(K23_TEXT)
    code, out, _ = run_cli(["compute", str(path), "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out)["pseudo_gorenstein_star"] is True


def test_compute_graph6_input(tmp_path, capsys):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    code, out, _ = run_cli(["compute", str(path), "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_compute_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 1\n")
    code, _, err = run_cli(["compute", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_compute_missing_file_exits_2(capsys):
    code, _, err = run_cli(["compute", "/nonexistent/file.txt"], capsys)
    assert code == 2
    assert err


def test_family_cycle_17_agrees(capsys):
    code, out, _ = run_cli(
        ["family", "cycle", "--n", "17", "--output", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"]["pseudo_gorenstein_star"] is True
    assert payload["predicted"]["pseudo_gorenstein_star"] is True
    assert payload["agreement"] is True


def test_family_long_path_agrees(capsys):
    # deep enough to exhaust the recursion limit under pure deletion-contraction
    code, out, _ = run_cli(["family", "path", "--n", "1200"], capsys)
    assert code == 0
    assert out.endswith("agreement: yes\n")


def test_family_multipartite(capsys):
    code, out, _ = run_cli(
        ["family", "multipartite", "--parts", "2,3", "--output", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["predicted"]["independence_polynomial"] == ["1", "5", "4", "1"]


def test_family_cameron_walker(capsys):
    code, out, _ = run_cli(
        [
            "family",
            "cameron-walker",
            "--core-x", "1",
            "--core-y", "1",
            "--core-edges", "1:1",
            "--leaves", "1",
            "--triangles", "1",
            "--output", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"]["alpha"] == 2
    assert payload["predicted"]["alpha"] == 2
    assert payload["agreement"] is True


def test_family_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(["family", "cycle", "--n", "2"], capsys)
    assert code == 2
    assert "3" in err
    code, _, _ = run_cli(["family", "path"], capsys)
    assert code == 2


def test_suspend_c5_maximal_independent(capsys):
    code, out, _ = run_cli(
        ["suspend", "--family", "cycle", "--n", "5", "--set", "1,3", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert "maximal-independent" in payload["roles"]
    assert payload["computed"]["h_top"] == "-1"
    assert payload["predicted"]["h_top"] == "-1"
    assert payload["agreement"] is True


def test_suspend_p4_full_prediction(capsys):
    code, out, _ = run_cli(
        ["suspend", "--family", "path", "--n", "4", "--full", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"]["pseudo_gorenstein_star"] is False
    assert payload["computed"]["pseudo_gorenstein_star"] is False
    assert payload["agreement"] is True


def test_suspend_c12_full_is_pg_star(capsys):
    code, out, _ = run_cli(
        ["suspend", "--family", "cycle", "--n", "12", "--full", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"]["pseudo_gorenstein_star"] is True
    assert payload["agreement"] is True


def test_suspend_vertex_cover_prediction(capsys):
    # {2,4} is a vertex cover of P_5 leaving |S| = 3... with alpha = 3 the
    # extremal rules apply; use {1,2,4} instead: S = {3,5}, 1 <= 2 <= alpha-1
    code, out, _ = run_cli(
        ["suspend", "--family", "path", "--n", "5", "--set", "1,2,4", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert "vertex-cover" in payload["roles"]
    assert payload["predicted"]["case"] == "preserved"
    assert payload["agreement"] is True


def test_suspend_requires_a_set(capsys):
    code, _, err = run_cli(["suspend", "--family", "cycle", "--n", "5"], capsys)
    assert code == 2
    assert "--set" in err or "--full" in err


@pytest.mark.parametrize("attach", [["--set", "1"], ["--full"]])
def test_suspend_without_a_base_exits_2(attach, capsys):
    code, out, err = run_cli(["suspend", *attach], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: suspend needs --input or --family\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "path", "--n", "4", "--set", "1,4", "--full"],
         "argument --full: not allowed with argument --set"),
        (["--input", "base.txt", "--family", "cycle", "--n", "4", "--full"],
         "argument --family: not allowed with argument --input"),
    ],
)
def test_suspend_contradictory_options_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suspend", *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.endswith(f"error: {message}\n")


def test_suspend_empty_set_exits_2(capsys):
    code, _, _ = run_cli(
        ["suspend", "--family", "cycle", "--n", "5", "--set", ""], capsys
    )
    assert code == 2


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "cycles", "--max-n", "40"], capsys)
    assert code == 0
    assert "38 instances" in out and "PASS" in out


def test_verify_json_reports_seed(capsys):
    code, out, _ = run_cli(
        ["verify", "deg-via-ord", "--random", "30", "--max-n", "6",
         "--exhaustive-n", "3", "--seed", "99", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["seed"] == 99
    assert payload["mismatches"] == []


def test_verify_mismatch_exits_1(monkeypatch, capsys):
    from pgstar import families

    predict = families.predict_chain
    monkeypatch.setattr(
        families,
        "predict_chain",
        lambda kind, n: {**predict(kind, n), "pseudo_gorenstein_star": True},
    )
    code, out, _ = run_cli(["verify", "cycles", "--max-n", "15"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "expected True, got False" in out


def test_verify_unknown_theorem_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "flat-earth"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "cycles", "--count", "5"], "verify cycles does not take --count"),
        (["verify", "paths", "--seed", "3", "--enum-cap", "9"],
         "verify paths does not take --enum-cap, --seed"),
        (["verify", "deg-via-ord", "--enum-cap", "9"], "verify deg-via-ord does not take --enum-cap"),
        (["verify", "cycle-mis-suspension", "--enum-cap", "0"], "enumeration cap must be >= 1"),
    ],
)
def test_verify_rejects_options_its_sweep_does_not_take(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


NON_VERIFY_ARGV = [
    ["compute", "graph.txt"],
    ["family", "cycle", "--n", "6"],
    ["suspend", "--family", "cycle", "--n", "6", "--full"],
]


@pytest.mark.parametrize("argv", NON_VERIFY_ARGV)
@pytest.mark.parametrize("option", ["--seed", "--enum-cap"])
def test_seed_and_enum_cap_belong_to_verify_only(argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", NON_VERIFY_ARGV)
def test_jobs_belongs_to_verify_only(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2


def test_unexpected_exception_exits_4(monkeypatch, c6_file, capsys):
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "analyze", broken)
    code, out, err = run_cli(["compute", c6_file], capsys)
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_verify_enum_cap_exits_3(capsys):
    code, _, err = run_cli(
        ["verify", "cycle-mis-suspension", "--max-n", "12", "--enum-cap", "10"],
        capsys,
    )
    assert code == 3
    assert "capped" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cycles", "--max-n", "-5"],
        ["verify", "cameron-walker", "--count", "-3"],
        ["verify", "oracle", "--random", "0", "--exhaustive-n", "-1"],
    ],
)
def test_verify_with_no_instances_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: verify {argv[1]} selects no instances\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "cameron-walker", "--max-vertices", "2"],
         "Cameron-Walker graphs have at least 3 vertices, max vertices is 2"),
        *((["verify", theorem, "--max-n", "0"], "random graphs need at least 1 vertex, max n is 0")
          for theorem in ("deg-via-ord", "oracle", "vc-suspension")),
    ],
)
def test_verify_with_no_possible_graph_exits_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("raw", ["1:x", "1:2:3", "1"])
def test_family_malformed_core_edge_exits_2(raw, capsys):
    code, out, err = run_cli(
        ["family", "cameron-walker", "--core-x", "1", "--core-y", "1",
         "--core-edges", raw, "--leaves", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: core edge {raw!r} must look like 'i:j'\n"


def test_vertex_count_over_the_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("# header only\n100000000 0\n")
    code, out, err = run_cli(["compute", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: line 2: 100000000 vertices exceed the limit of 20000\n"
    path.write_text(f"{MAX_VERTICES} 0\n")
    assert parse_edge_list(path.read_text()).n == MAX_VERTICES


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "path", "--n", str(MAX_VERTICES + 1)],
        ["family", "multipartite", "--parts", f"{MAX_VERTICES},1"],
        ["family", "cameron-walker", "--core-x", "1", "--core-y", "1",
         "--core-edges", "1:1", "--leaves", str(MAX_VERTICES - 1)],
        ["suspend", "--family", "cycle", "--n", str(MAX_VERTICES + 1), "--full"],
    ],
)
def test_family_over_the_vertex_limit_exits_3(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}\n"


def test_family_over_the_edge_limit_exits_3(capsys):
    # K_(1001, 1000) has 1 001 000 edges; the check runs before any is listed
    code, out, err = run_cli(["family", "multipartite", "--parts", "1001,1000"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: 1001000 edges exceed the limit of {MAX_EDGES}\n"


def test_edge_count_over_the_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "dense.txt"
    path.write_text(f"# header only\n{MAX_VERTICES} {MAX_EDGES + 1}\n")
    code, out, err = run_cli(["suspend", "--input", str(path), "--full"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: line 2: {MAX_EDGES + 1} edges exceed the limit of {MAX_EDGES}\n"


def test_vc_suspension_enum_cap_exits_3(capsys):
    # the seed-0 graph has 25 vertices, one above the default cap
    code, out, err = run_cli(
        ["verify", "vc-suspension", "--count", "1", "--max-n", "40", "--seed", "0"], capsys
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: independent-set enumeration capped at n = 24, "
        "corpus has a graph with n = 25\n"
    )


# the closed-form sweeps ship each graph and its prediction to the pool
@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "--max-n", "12"],
        ["paths", "--max-n", "12"],
        ["multipartite", "--max-parts", "3", "--max-part-size", "3"],
        ["cameron-walker", "--count", "8", "--max-vertices", "10"],
        ["full-suspension", "--max-n", "10"],
        ["path-mis-suspension", "--max-n", "10"],
        ["cycle-mis-suspension", "--max-n", "12"],
        ["vc-suspension", "--count", "5", "--max-n", "6"],
        ["deg-via-ord", "--random", "20", "--exhaustive-n", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_verify_output_independent_of_parallelism(argv, capsys):
    argv = ["verify", *argv, "--output", "json"]
    code1, out1, _ = run_cli(argv + ["--jobs", "1"], capsys)
    code2, out2, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_jobs_option_below_1_exits_2(capsys):
    code, out, err = run_cli(["verify", "cycles", "--max-n", "5", "--jobs", "0"], capsys)
    assert (code, out, err) == (2, "", "error: parallelism degree must be >= 1\n")


def test_no_command_reads_the_jobs_env_var(monkeypatch, c6_file, capsys):
    monkeypatch.setenv("PGSTAR_JOBS", "junk")
    for argv in (
        ["compute", c6_file],
        ["family", "cycle", "--n", "6"],
        ["verify", "cycles", "--max-n", "5"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")


def test_console_entry_point_subprocess(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("3 3\n1 2\n2 3\n1 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pgstar", "compute", str(path), "--output", "json"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 1


POOL_PROBE = """
import json, sys
from pgstar.cli import build_parser, main
build_parser()
codes = [main(["compute", sys.argv[1]]), main(["verify", "cycles", "--max-n", "5"])]
pool = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
print(json.dumps({"codes": codes, "pool": pool}))
"""


def test_single_worker_runs_never_import_the_pool(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(C6_TEXT)
    proc = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": CHILD_ENV["PYTHONPATH"]},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "pool": []}


def test_closed_stdout_exits_0_quietly(tmp_path):
    # P_3000 as JSON is about 1.1 MB, far more than a pipe buffers
    n = 3000
    path = tmp_path / "p3000.txt"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pgstar", "compute", str(path), "--output", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
