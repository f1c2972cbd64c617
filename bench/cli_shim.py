"""Traced CLI child: `python3 bench/cli_shim.py SPANS_FILE RUN_ID CASE -- ARGS...`.

Installs the span tracer, runs `fracsing.cli.main(ARGS)` and writes the
spans to SPANS_FILE before exiting with the command's exit code.  Untraced
runs call `python3 -m fracsing.cli` directly instead.
"""

import sys

import spans

if __name__ == "__main__":
    spans_file, run_id, case, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_FILE RUN_ID CASE -- ARGS...")
    tracer = spans.Tracer(run_id)
    tracer.context["case"] = case
    spans.install(tracer)
    from fracsing import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_file)
    sys.exit(code)
