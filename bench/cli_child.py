"""Run one `vandcond` CLI command with span tracing.

Usage: python cli_child.py SPANS_JSON ALLOC <vandcond arguments...>

The traced cli-session run starts its children through this script instead
of `python -m vandcond.cli`.  It times the package import, wraps the public
functions in spans, runs the command and writes the spans and the import
time to SPANS_JSON when the command ends.  ALLOC is 1 to record allocation
peaks (see tracing.Tracer), else 0.
"""

import json
import sys
import time

t0 = time.perf_counter()
import vandcond.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    spans_path, alloc, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = tracing.Tracer(track_alloc=alloc)
    try:
        with tracing.instrument(tracer):
            return vandcond.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
