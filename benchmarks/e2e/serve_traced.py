"""``python -m repro serve`` with the benchmark's layer spans installed.

    python benchmarks/e2e/serve_traced.py --trace-out PATH -- <serve flags>

Installs the wrappers of ``tracing.py`` in this process, runs the ``serve``
subcommand until it is shut down, then writes the spans to ``PATH``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import tracing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args(argv[:split])

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", *argv[split + 1:]])
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
