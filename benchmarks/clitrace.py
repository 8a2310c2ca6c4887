"""Run one radstar CLI invocation in this fresh interpreter with tracing on.

Usage: python3 benchmarks/clitrace.py <radstar arguments...>

The CLI writes its output to stdout as usual. After it, this script writes a
line holding only TRACE_MARKER and then one JSON line with the tracer's spans
and leaves. The exit code is the CLI's.
"""

import json
import sys

import radstar.cli
from tracer import TRACE_MARKER, Tracer


def main() -> int:
    tr = Tracer()
    tr.install()
    tr.op = 0
    try:
        rc = radstar.cli.main(sys.argv[1:])
    finally:
        tr.uninstall()
    sys.stdout.write(f"{TRACE_MARKER}\n{json.dumps(tr.dump())}\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
