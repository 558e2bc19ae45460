"""One ``cuspidal`` CLI call with spans recorded around its layers.

Run from the checkout root with ``src`` on PYTHONPATH:

    python3 perfbench/traced_cli.py OUT.json SPANS.jsonl TRACE_ID SUBCOMMAND [ARGS...]

Behaves like ``cuspidal SUBCOMMAND [ARGS...]`` (same stdout and exit
code), writes the span summary and the seconds spent in ``cli.main`` to
OUT.json and appends the spans to SPANS.jsonl.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main():
    out_path, spans_path, trace_id, argv = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                            sys.argv[4:])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.trace_id = trace_id
    from cuspidal import cli

    code = 1
    began = time.perf_counter()
    try:
        code = tracer.span("cli.main", cli.main, argv)
    finally:
        main_s = time.perf_counter() - began
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump({"summary": tracer.summary(), "main_s": main_s}, out)
        tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
