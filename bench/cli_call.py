"""Traced stand-in for ``python -m infobell``.

Usage: python -X importtime bench/cli_call.py SPANS_OUT <infobell arguments...>

Imports the package exactly as ``-m infobell`` would, wraps its public
functions with the span recorder, runs ``infobell.cli.main`` on the
remaining arguments, and writes the spans and notes as JSON to
SPANS_OUT. The exit code is the CLI's own.
"""

import sys

import infobell.cli

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        code = infobell.cli.main(argv)
    finally:
        restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            spans.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
