"""Run ``repro serve`` with the layer wrappers installed.

The traced benchmark run starts the service through this launcher
instead of ``python -m repro serve``: it installs the same wrappers the
benchmark process uses, calls the public ``serve()``, and when the
server stops (SIGINT) writes the span aggregates to ``--trace-out``.

    python3 perfbench/serve_traced.py --trace-out FILE --store FILE [--port 0] [--workers 1]

Every other ``serve()`` argument keeps the default ``repro serve`` uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracer.tag = "service"
    patches = tracing.install(tracer)
    from repro.api import serve

    try:
        serve(store=args.store, port=args.port, workers=args.workers)
    finally:
        tracing.uninstall(patches)
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    main()
