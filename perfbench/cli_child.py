"""Run the dncbands CLI with the benchmark's tracer installed.

    python cli_child.py SPANS_PATH CLI_ARGS...

Runs ``dncbands.cli.main(CLI_ARGS)`` inside a ``cli.main`` span, writes
the spans and counts to SPANS_PATH (gzipped JSON) and exits with the
CLI's exit code.  The package must be importable (PYTHONPATH=src).
"""

import sys

from dncbands import cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
