"""Traced replay of one pgstar CLI invocation, in process.

    python perfbench/replay.py SUMMARY_JSON [--spans FILE --run-id N] -- ARGV...

Times ``import pgstar.cli``, installs the layer hooks, runs
``pgstar.cli.main(ARGV)`` with stdout captured, writes the captured
stdout to the real stdout, the per-layer summary to SUMMARY_JSON and,
with ``--spans``, every span as one tab-separated line ``run_id name
start end parent pid`` (``parent`` is the line index of the parent span
within the same run, -1 for none).  ``finish_s`` in the summary is the
time spent writing these records after main returned, which the tracing
overhead leaves out.  Exits with main's code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time


def main() -> int:
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    own, argv = own[:split], own[split + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("summary")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(own)

    start = time.perf_counter()
    import pgstar.cli

    imported = time.perf_counter()
    import layers

    tracer = layers.install()
    rec = tracer.rec
    rec.add("cli.import", start, imported)
    buf = io.StringIO()
    index = rec.begin("cli.main")
    try:
        with contextlib.redirect_stdout(buf):
            code = pgstar.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        rec.end(index)
    out = buf.getvalue()
    sys.stdout.write(out)
    sys.stdout.flush()

    finish = time.perf_counter()
    if args.spans:
        with open(args.spans, "a") as fh:
            fh.writelines(
                f"{args.run_id}\t{name}\t{s!r}\t{e!r}\t{parent}\t{pid}\n"
                for name, s, e, parent, pid in rec.spans
            )
    summary = rec.summary()
    summary["counts"]["cli.output_bytes"] = len(out.encode())
    summary["finish_s"] = time.perf_counter() - finish
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
