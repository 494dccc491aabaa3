"""Command-line front end.

Subcommands: ``compute`` (analyze a graph file), ``family`` (build a
named family member and compare against its closed form), ``suspend``
(build and analyze a suspension, with predictions where a classification
applies) and ``verify`` (run a named verification sweep).  ``family``,
``suspend`` and the sweeps take their predictions from the same
``families.predict_*`` functions and compare them the same way.  Only
``verify`` starts worker processes, so ``--jobs`` belongs to it alone
and is its only worker setting.

Exit codes: 0 success / sweep passed, 1 sweep mismatch, 2 usage or parse
error, 3 size or enumeration limit exceeded, 4 internal error.  A reader
that closes stdout early (``pgstar compute ... | head``) ends the run
quietly with 0: the output it wanted was written.  JSON output renders
potentially large integers as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import families, verification
from .analysis import AnalysisReport, analyze, render_field, render_report_text, report_to_dict
from .graphs import (
    CameronWalkerSpec,
    EnumerationLimitError,
    Graph,
    cameron_walker,
    complete_multipartite,
    cycle_graph,
    path_graph,
    suspension,
)
from .graphio import ParseError, check_size, load_graph

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _emit(rendered: str) -> None:
    """Print a command's output, rendered in the one form it asked for."""
    print(rendered)


# -- family construction ----------------------------------------------------


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} {raw!r}; expected e.g. '1,2,3'") from None


def _parse_core_edges(raw: str) -> list[tuple[int, int]]:
    edges = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            i, j = (int(part) for part in tok.split(":"))
        except ValueError:
            raise ValueError(f"core edge {tok!r} must look like 'i:j'") from None
        edges.append((i, j))
    return edges


def _cw_spec_from_args(args) -> CameronWalkerSpec:
    if args.core_x is None or args.core_y is None or not args.core_edges:
        raise ValueError(
            "family 'cameron-walker' needs --core-x, --core-y, --core-edges, --leaves"
        )
    # the core alone must fit before a triangle count is listed per Y vertex
    check_size(args.core_x + args.core_y)
    return CameronWalkerSpec(
        core_x=args.core_x,
        core_y=args.core_y,
        core_edges=tuple(_parse_core_edges(args.core_edges)),
        leaves=tuple(_parse_int_list(args.leaves or "", "--leaves")),
        triangles=tuple(
            _parse_int_list(args.triangles, "--triangles")
            if args.triangles
            else [0] * args.core_y
        ),
    )


def _build_family(args) -> tuple[Graph, dict, dict]:
    """Returns the graph, a JSON-friendly parameter echo and the family's
    closed-form prediction."""
    name = args.family
    if name in ("path", "cycle"):
        if args.n is None:
            raise ValueError(f"--n is required for family {name!r}")
        check_size(args.n, args.n)  # a cycle has n edges, a path fewer
        g = path_graph(args.n) if name == "path" else cycle_graph(args.n)
        return g, {"n": args.n}, families.predict_chain(name, args.n)
    if name == "multipartite":
        if not args.parts:
            raise ValueError("--parts is required for family 'multipartite'")
        parts = _parse_int_list(args.parts, "--parts")
        total = sum(parts)
        # every pair of vertices in different parts is an edge
        check_size(total, (total * total - sum(p * p for p in parts)) // 2)
        g = complete_multipartite(parts)
        return g, {"parts": parts}, families.predict_multipartite(parts)
    spec = _cw_spec_from_args(args)
    edges = len(spec.core_edges) + sum(spec.leaves) + 3 * sum(spec.triangles)
    check_size(spec.total_vertices, edges)
    params = {
        "core_x": spec.core_x,
        "core_y": spec.core_y,
        "core_edges": [list(e) for e in spec.core_edges],
        "leaves": list(spec.leaves),
        "triangles": list(spec.triangles),
    }
    return cameron_walker(spec), params, families.predict_cameron_walker(spec)


@contextmanager
def _every_digit():
    """Let str() render an int of any length inside the block.

    CPython 3.10.7+ stops at 4300 digits by default; the same limit makes
    int() refuse a longer string before parsing it, so input is read
    outside the block.  Pool workers forked inside it inherit the lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# -- subcommands -------------------------------------------------------------


def cmd_compute(args) -> int:
    g = load_graph(args.input, args.format)
    rep = analyze(g)
    with _every_digit():
        if args.output == "json":
            _emit(json.dumps(report_to_dict(rep), indent=2))
        else:
            _emit(render_report_text(rep))
    return EXIT_OK


def _emit_compared(
    output: str, fields: dict, header: str, rep: AnalysisReport, predicted: dict | None
) -> int:
    """Emit the report after ``fields`` and ``header``, and, when there is a
    prediction, the prediction and its agreement."""
    with _every_digit():
        agreement = None
        if predicted is not None:
            agreement = not verification.prediction_mismatches("", predicted, rep)
            predicted = {k: render_field(k, v) for k, v in predicted.items()}
        if output == "json":
            payload = {
                **fields,
                "computed": report_to_dict(rep),
                "predicted": predicted,
                "agreement": agreement,
            }
            _emit(json.dumps(payload, indent=2))
        else:
            lines = [header, render_report_text(rep)]
            if predicted is not None:
                lines.append("prediction:")
                lines.extend(f"  {k}: {v}" for k, v in predicted.items())
                lines.append(f"agreement: {'yes' if agreement else 'no'}")
            _emit("\n".join(lines))
    return EXIT_OK


def cmd_family(args) -> int:
    g, params, predicted = _build_family(args)
    fields = {"family": args.family, "parameters": params}
    header = f"family: {args.family} {params}"
    return _emit_compared(args.output, fields, header, analyze(g), predicted)


def _set_roles(g: Graph, members: frozenset[int]) -> list[str]:
    roles = []
    if g.is_vertex_cover(members):
        roles.append("vertex-cover")
    if g.is_independent(members):
        roles.append("independent")
        if g.is_maximal_independent(members):
            roles.append("maximal-independent")
    return roles or ["neither"]


def _suspension_prediction(args, g: Graph, members: frozenset[int], roles) -> dict | None:
    # family-specific classifications only apply when the base was built
    # from --family, never to file-loaded graphs (the parser keeps the two apart)
    if args.family in ("path", "cycle"):
        if members == frozenset(g.vertices):
            return families.predict_cone(args.family, args.n)
        if "maximal-independent" in roles:
            if args.family == "path":
                params = families.path_mis_susp_params(args.n, members)
            else:
                params = families.cycle_mis_susp_params(args.n, members)
            return families.predict_mis_suspension(params)
    if "vertex-cover" in roles:
        base = analyze(g)
        return families.predict_vc_suspension(
            g.n - len(members), base.alpha, base.pseudo_gorenstein_star, base.p_minus_one
        )
    return None


def cmd_suspend(args) -> int:
    if args.input:
        g = load_graph(args.input, args.format)
    elif args.family:
        g, _, _ = _build_family(args)
    else:
        raise ValueError("suspend needs --input or --family")
    if args.full:
        members = frozenset(g.vertices)
    else:
        if not args.set:
            raise ValueError("provide --set '1,3,...' or --full")
        members = frozenset(_parse_int_list(args.set, "--set"))
    if not members:
        raise ValueError("attachment set must be nonempty")
    roles = _set_roles(g, members)
    # the suspension adds a vertex and an edge to each member
    m = sum(a.bit_count() for a in g._adj) // 2
    check_size(g.n + 1, m + len(members), "suspension")
    h = suspension(g, members)
    predicted = _suspension_prediction(args, g, members, roles)
    fields = {"base_n": g.n, "attachment": sorted(members), "roles": roles}
    header = f"suspension over {sorted(members)} (roles: {', '.join(roles)})"
    return _emit_compared(args.output, fields, header, analyze(h), predicted)


def _run_sweep(args) -> verification.VerifyOutcome:
    sweep = verification.SWEEPS[args.theorem]
    # the sweep's parameters come from its code object: importing inspect
    # for its signature would cost about as much as importing pgstar
    code = sweep.__code__
    accepted = code.co_varnames[: code.co_argcount]
    # an option the user did not set is absent from args (SUPPRESS)
    options = {dest: getattr(args, dest) for dest in args.sweep_flags if hasattr(args, dest)}
    foreign = [args.sweep_flags[dest] for dest in options if dest not in accepted]
    if foreign:
        raise ValueError(f"verify {args.theorem} does not take {', '.join(foreign)}")
    for dest in ("random_count", "count"):
        if options.get(dest, 0) < 0:
            raise ValueError(f"{args.sweep_flags[dest]} must be >= 0")
    if options.get("mis_limit", 1) < 1:
        raise ValueError("enumeration cap must be >= 1")
    if args.jobs < 1:
        raise ValueError("parallelism degree must be >= 1")
    outcome = sweep(**options, jobs=args.jobs)
    if not outcome.instances:
        raise ValueError(f"verify {args.theorem} selects no instances")
    return outcome


def cmd_verify(args) -> int:
    with _every_digit():
        outcome = _run_sweep(args)
        if args.output == "json":
            _emit(json.dumps(outcome.to_dict(), indent=2))
        else:
            status = "PASS" if outcome.passed else "FAIL"
            lines = [
                f"theorem {outcome.theorem}: {outcome.instances} instances, "
                f"{len(outcome.mismatches)} mismatches -> {status}"
                + (f" (seed {outcome.seed})" if outcome.seed is not None else "")
            ]
            for m in outcome.mismatches:
                lines.append(f"  {m.instance}: expected {m.expected}, got {m.got}")
            _emit("\n".join(lines))
    return EXIT_OK if outcome.passed else EXIT_MISMATCH


# -- argument parsing ---------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="size for path/cycle")
    p.add_argument("--parts", default=None, help="multipartite part sizes, e.g. 2,3")
    p.add_argument("--core-x", type=int, default=None)
    p.add_argument("--core-y", type=int, default=None)
    p.add_argument("--core-edges", default=None, help="e.g. 1:1,2:1")
    p.add_argument("--leaves", default=None, help="per-X leaf counts, e.g. 1,2")
    p.add_argument("--triangles", default=None, help="per-Y triangle counts, e.g. 0,1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgstar",
        description="Exact independence polynomials, h-polynomials and "
        "pseudo-Gorenstein* classification of finite simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("auto", "edge-list", "graph6")
    family_names = ("path", "cycle", "multipartite", "cameron-walker")

    p = sub.add_parser("compute", help="analyze a graph from a file")
    p.add_argument("input")
    p.add_argument("--format", choices=formats, default="auto")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("family", help="build a family member and check its closed form")
    p.add_argument("family", choices=family_names)
    _add_family_options(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("suspend", help="analyze a suspension over an attachment set")
    base = p.add_mutually_exclusive_group()
    base.add_argument("--input", default=None, help="base graph file")
    base.add_argument(
        "--family",
        choices=family_names,
        default=None,
        help="build the base graph from a family instead of a file",
    )
    p.add_argument("--format", choices=formats, default="auto")
    _add_family_options(p)
    attachment = p.add_mutually_exclusive_group()
    attachment.add_argument("--set", default=None, help="attachment vertices, e.g. 1,3")
    attachment.add_argument("--full", action="store_true", help="attach to every vertex (cone)")
    p.set_defaults(handler=cmd_suspend)

    p = sub.add_parser(
        "verify", help="run a named verification sweep", argument_default=argparse.SUPPRESS
    )
    p.add_argument("theorem", choices=verification.SWEEPS)
    # each sweep option's dest is the verify_* parameter it is forwarded to
    sweep_options = [
        p.add_argument("--max-n", type=int),
        p.add_argument(
            "--random", dest="random_count", metavar="RANDOM", type=int, help="random corpus size"
        ),
        p.add_argument("--count", type=int, help="random instance count"),
        p.add_argument("--max-parts", type=int),
        p.add_argument("--max-part-size", type=int),
        p.add_argument("--max-vertices", type=int),
        p.add_argument("--exhaustive-n", type=int),
        p.add_argument("--enum-cap", dest="mis_limit", metavar="ENUM_CAP", type=int),
        p.add_argument("--seed", type=int),
    ]
    # an explicit default overrides the parser's SUPPRESS
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    flags = {action.dest: action.option_strings[0] for action in sweep_options}
    p.set_defaults(handler=cmd_verify, sweep_flags=flags)

    for p in sub.choices.values():
        p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send the unflushed rest to devnull so
        # that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # anything else is a defect; 1 is reserved for a sweep mismatch
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
