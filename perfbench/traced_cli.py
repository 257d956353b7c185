"""Run one stylocloak CLI command with the benchmark's span wrappers installed.

Usage: PYTHONPATH=src python perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

Prints what ``python -m stylocloak.cli COMMAND [ARGS...]`` prints and
exits with its code; the spans of the call are written to SPANS_JSON.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracing.import_all()
    from stylocloak import cli

    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, probes=tracing.PROBES):
        code = cli.dispatch(argv)
    sys.stdout.flush()
    tracing.dump_spans(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
