"""Run one scmkit CLI command with span tracing and write the spans as JSON.

Usage: PYTHONPATH=src python scmbench/cli_child.py SPANS_OUT COMMAND ARGS...

The command line after SPANS_OUT is exactly what ``python -m scmkit.cli``
takes; stdout, stderr and the exit code are the CLI's own.
"""

import json
import sys

import scmkit.cli
from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = scmkit.cli.run(argv)
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
