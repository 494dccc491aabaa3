import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgstar
from pgstar import analysis, cli, verification
from pgstar.cli import EXIT_LIMIT, EXIT_USAGE, main
from pgstar.graphio import MAX_EDGES, MAX_VERTICES, parse_edge_list
from pgstar.polynomials import IntPolynomial
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


REPORTS = [case for case in GOLDEN if case["argv"][0] in ("compute", "family", "suspend")]


@pytest.mark.parametrize("case", REPORTS, ids=[case["id"] for case in REPORTS])
def test_a_report_is_rendered_only_in_the_form_printed(case, c6_file, capsys, monkeypatch):
    argv = [c6_file if arg == "{c6}" else arg for arg in case["argv"]]
    output = argv[argv.index("--output") + 1] if "--output" in argv else "text"
    unused = "render_report_text" if output == "json" else "report_to_dict"

    def refuse(rep):
        raise AssertionError(f"{unused} called under --output {output}")

    monkeypatch.setattr(cli, unused, refuse)
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (case["exit"], case["stdout"])


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


def test_compute_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    path = tmp_path / "p3000.txt"
    data = ("3000 2999\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 3000))).encode()
    path.write_bytes(data[:-20] + b"\xff" + data[-20:])
    code, _, err = run_cli(["compute", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: line 2999: ")


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


@pytest.mark.parametrize("label", ["0", "7", "1000000000000000"])
def test_suspend_label_outside_the_base_exits_2(label, c6_file, capsys):
    # a label is compared with 1..n before it is shifted into a mask, so a
    # 10**15 label is refused like 0, not turned into a 10**15-bit int
    code, out, err = run_cli(["suspend", "--input", c6_file, "--set", f"1,{label}"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: vertex set has a label outside 1..6\n"


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


def test_verify_enum_cap_fails_alike_at_every_jobs(monkeypatch, capsys):
    # cycles past the cap fail in several workers; each run reports the first
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "cycle-mis-suspension", "--max-n", "30", "--enum-cap", "24"]
    runs = [run_cli(argv + ["--jobs", jobs], capsys) for jobs in ("1", "2")]
    assert runs[0] == runs[1] == (
        EXIT_LIMIT, "", "error: maximal-independent-set enumeration capped at n = 24\n"
    )


def test_verify_worker_that_dies_exits_4(monkeypatch, capsys):
    parent = os.getpid()

    def dies_in_a_worker(item):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return ()

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verification, "_check_prediction", dies_in_a_worker)
    code, out, err = run_cli(["verify", "cycles", "--max-n", "8", "--jobs", "2"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: RuntimeError: a sweep worker ended")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "deg-via-ord", "--random", "0", "--exhaustive-n", "8"],
         "exhaustive enumeration capped at n = 7, asked for every graph with n <= 8"),
        (["verify", "oracle", "--exhaustive-n", "8"],
         "exhaustive enumeration capped at n = 7, asked for every graph with n <= 8"),
        (["verify", "oracle", "--random", "40", "--max-n", "27", "--exhaustive-n", "0"],
         "brute-force counting capped at n = 26, corpus has a graph with n = 27"),
    ],
)
def test_verify_corpus_past_its_cap_exits_3(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "command", [["family"], ["suspend", "--full", "--family"]], ids=["family", "suspend"]
)
def test_a_huge_cameron_walker_core_exits_3_before_it_is_listed(command, capsys):
    # one triangle count per Y vertex would take 8 PB; the core is refused first
    y = 10**15
    code, out, err = run_cli(
        [*command, "cameron-walker", "--core-x", "1", "--core-y", str(y),
         "--core-edges", "1:1", "--leaves", "1"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == f"error: {y + 1} vertices exceed the limit of {MAX_VERTICES}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "deg-via-ord", "--random", "1", "--max-n", "100000", "--exhaustive-n", "-1"],
        ["verify", "vc-suspension", "--count", "1", "--max-n", "100000"],
    ],
)
def test_random_corpus_past_the_vertex_limit_exits_3_at_once(argv):
    # drawing one such graph would walk C(n, 2) vertex pairs; the cap comes first
    proc = subprocess.run(
        [sys.executable, "-m", "pgstar", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"error: random graphs capped at n = {MAX_VERTICES}, max n is 100000\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "vc-suspension", "--count", "1", "--max-n", "20000", "--seed", "0"],
         "independent-set enumeration capped at n = 24, corpus has a graph with n = 12624"),
        (["verify", "oracle", "--random", "1", "--max-n", "20000", "--exhaustive-n", "-1",
          "--seed", "0"],
         "brute-force counting capped at n = 26, corpus has a graph with n = 12624"),
    ],
)
def test_oversized_random_graph_exits_3_before_its_edges_are_drawn(argv, message):
    # drawing the edges would walk about 8 * 10^7 vertex pairs
    proc = subprocess.run(
        [sys.executable, "-m", "pgstar", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")


# the closed-form sweeps ship each graph and its prediction to the pool
@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "--max-n", "12"],
        ["paths", "--max-n", "12"],
        ["sequences", "--max-n", "12"],
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


@pytest.mark.parametrize("output", ["json", "text"])
def test_integers_past_the_str_digit_limit_are_printed(tmp_path, output):
    # a perfect matching on 2800 vertices has P = (1 + 2x)^1400, whose largest
    # coefficient has about 665 digits; the child allows 640 by default
    pairs = 1400
    path = tmp_path / "matching.txt"
    path.write_text(
        f"{2 * pairs} {pairs}\n" + "".join(f"{2 * i - 1} {2 * i}\n" for i in range(1, pairs + 1))
    )
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "pgstar", "compute", str(path),
         "--output", output],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    if output == "json":
        coeffs = json.loads(proc.stdout)["independence_polynomial"]
        assert coeffs == [str(math.comb(pairs, k) * 2**k) for k in range(pairs + 1)]


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["family", "multipartite", "--parts", "2200"],
        ["suspend", "--family", "multipartite", "--parts", "2200", "--full"],
    ],
    ids=["family", "suspend"],
)
def test_predictions_past_the_str_digit_limit_are_printed(argv, output):
    # one part of 2200 vertices is the edgeless graph, and C(2200, 1100) has
    # 661 digits: the closed form of the family and the base of the cone
    # must render inside the lift as the report does
    middle = str(math.comb(2200, 1100))
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "pgstar", *argv,
         "--output", output],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    if output == "text":
        assert middle in proc.stdout
        return
    payload = json.loads(proc.stdout)
    assert payload["computed"]["independence_polynomial"][1100] == middle
    if argv[0] == "family":
        assert payload["predicted"]["independence_polynomial"][1100] == middle


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_a_report_past_the_digit_limit_renders_only_inside_every_digit():
    # K_N for N = 10^5000 has P = 1 + N x, so P(-1) = 1 - N and h = 1 + (N - 1) t
    # each carry 5000 nines; the report comes from P, without the engine
    big = 10**5000
    rep = analysis._analyze_polynomial.__wrapped__(IntPolynomial((1, big)))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        for render in (cli.report_to_dict, cli.render_report_text):
            with pytest.raises(ValueError):
                render(rep)
        with cli._every_digit():
            fields = cli.report_to_dict(rep)
            text = cli.render_report_text(rep)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)
    nines = "9" * 5000
    assert fields["p_at_minus_one"] == "-" + nines
    assert fields["h_polynomial"] == ["1", nines]
    assert fields["h_top"] == nines
    rows = dict(line.split(":", 1) for line in text.splitlines())
    assert (rows["P(-1)"].strip(), rows["h top (deg alpha)"].strip()) == ("-" + nines, nines)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize(
    "text, message",
    [
        ("{digits} 0\n", "error: line 1: expected header 'n m', got "),
        ("1 {digits}\n", "error: line 1: expected header 'n m', got "),
        ("2 1\n1 {digits}\n", "error: line 2: expected edge 'u v', got "),
    ],
    ids=["n", "m", "edge"],
)
def test_a_field_past_the_str_digit_limit_is_refused_unparsed(
    tmp_path, c6_file, capsys, text, message
):
    # the limit that output rendering lifts still guards input: int() refuses
    # the field before it spends quadratic time on it, also after a render
    limit = sys.get_int_max_str_digits()
    assert run_cli(["compute", c6_file, "--output", "json"], capsys)[0] == 0
    path = tmp_path / "huge.txt"
    path.write_text(text.format(digits="9" * 100_000))
    code, out, err = run_cli(["compute", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)
    assert sys.get_int_max_str_digits() == limit


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
# forked workers need neither the executor nor multiprocessing
codes.append(main(["verify", "cycles", "--max-n", "5", "--jobs", "2"]))
pool = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
introspection = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps({"codes": codes, "pool": pool, "introspection": introspection}))
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
    # records are named tuples and sweep options come from code objects
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0],
        "pool": [],
        "introspection": [],
    }


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


def children_of(pid: int) -> set[int]:
    """The live processes whose parent is ``pid``, read from /proc."""
    found = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as f:
                # the command name in parentheses may hold spaces
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state != "Z":
            found.add(int(entry))
    return found


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc")), reason="no fork or /proc")
def test_sigterm_to_the_parent_alone_leaves_no_sweep_worker():
    # a supervisor that kills one PID signals the parent only; one chunk
    # of P_1..P_1200 runs for seconds, so only the parent can stop them
    proc = subprocess.Popen(
        [sys.executable, "-m", "pgstar", "verify", "paths", "--max-n", "1200", "--jobs", "2"],
        stdout=subprocess.DEVNULL,
        env=CHILD_ENV,
    )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            workers |= children_of(proc.pid)
            time.sleep(0.02)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 1
        while any(os.path.exists(f"/proc/{pid}") for pid in workers):
            assert time.monotonic() < deadline, "a sweep worker outlived its parent"
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


# -- fuzzing ------------------------------------------------------------------

# labels and counts reach past 12 only to be refused: no input builds a
# graph of more than 12 vertices, and no sweep size passes 5, so every
# example runs in milliseconds
JUNK = st.sampled_from(["99999999999999999999", "1.5", "x", ""])
FUZZ_NUMBERS = st.integers(-2, 13).map(str) | JUNK
SWEEP_NUMBERS = st.integers(-2, 5).map(str) | JUNK
# suspend's --set labels also reach 10**18, far past any vertex
SET_LABELS = st.lists(st.integers(-2, 13) | st.integers(-2, 10**18), min_size=1, max_size=3).map(
    lambda labels: ",".join(map(str, labels))
)


@st.composite
def malformed_edge_lists(draw):
    """Edge-list text near the format: a header of up to 12 vertices, then
    edge lines; any line may be junk, a comment or blank."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 8))
    ends = st.integers(-1, n + 1).map(str)
    edges = draw(st.integers(0, m + 1))
    lines = [f"{n} {m}", *(f"{draw(ends)} {draw(ends)}" for _ in range(edges))]
    junk = st.lists(FUZZ_NUMBERS, max_size=3).map(" ".join) | st.sampled_from(["#", "# c"])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def malformed_graph6(draw):
    """graph6 text of up to 12 vertices whose body may have the wrong length
    or bytes outside the format."""
    n = draw(st.integers(0, 12))
    length = max(0, (n * (n - 1) // 2 + 5) // 6 + draw(st.integers(-1, 1)))
    byte = st.characters(min_codepoint=63, max_codepoint=126) | st.sampled_from(" !\n\x7f")
    size = draw(st.sampled_from([chr(63 + n), chr(63 + n), "!", "~", ""]))
    prefix = draw(st.sampled_from(["", ">>graph6<<"]))
    return prefix + size + "".join(draw(st.lists(byte, min_size=length, max_size=length)))


FUZZ_COMMANDS = {
    "compute": ["FILE", "--format", "--output"],
    "family": ["path", "cycle", "multipartite", "cameron-walker", "--n", "--parts",
               "--core-x", "--core-y", "--core-edges", "--leaves", "--triangles", "--output"],
    "suspend": ["--input", "FILE", "--family", "path", "cycle", "--n", "--parts", "--set",
                "--full", "--format", "--output"],
    "verify": [*SWEEPS, "--max-n", "--random", "--count", "--max-parts", "--max-part-size",
               "--max-vertices", "--exhaustive-n", "--enum-cap", "--seed", "--output"],
}
FUZZ_WORDS = st.sampled_from(
    ["json", "text", "auto", "edge-list", "graph6", "1,2", "2,3", "1:1,2:1", "1,-1", ",", "--",
     "-h"]
)
# a sweep's sizes come first, so a sweep stays small unless a fragment
# after them sets one, to at most 5
SMALL_SWEEP = ["--max-n", "5", "--random", "3", "--count", "3", "--exhaustive-n", "3",
               "--max-parts", "2", "--max-part-size", "3", "--max-vertices", "8"]


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    numbers = SWEEP_NUMBERS if command == "verify" else FUZZ_NUMBERS
    fragment = (st.sampled_from(FUZZ_COMMANDS[command]) | FUZZ_WORDS | numbers).map(
        lambda word: [word]
    )
    if command == "suspend":
        fragment |= st.just(["--input", "FILE"]) | SET_LABELS.map(lambda labels: ["--set", labels])
    lead = SMALL_SWEEP if command == "verify" else []
    words = [word for words in draw(st.lists(fragment, max_size=6)) for word in words]
    return [command, *lead, *words]


@settings(max_examples=200, deadline=None)
@given(
    argv=fuzz_argvs(),
    text=malformed_edge_lists() | malformed_graph6(),
    suffix=st.sampled_from([".txt", ".g6"]),
)
@example(argv=["suspend", "--input", "FILE", "--set", "1,10000000000000000"], text=C6_TEXT,
         suffix=".txt")
def test_fuzzed_command_lines_exit_with_a_documented_code(argv, text, suffix):
    """Any command line, over any input file, ends in exit 0, 1, 2 or 3,
    with one ``error:`` line on stderr for 2 and 3 and no traceback."""
    with contextlib.ExitStack() as stack:
        folder = stack.enter_context(tempfile.TemporaryDirectory())
        path = Path(folder, "g" + suffix)
        path.write_text(text)
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        patch.delenv("PGSTAR_JOBS", raising=False)
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits 0 after --help and 2 on a usage error
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 1, EXIT_USAGE, EXIT_LIMIT), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (code in (EXIT_USAGE, EXIT_LIMIT)), (argv, err.getvalue())
