"""Run ``repro serve`` from this checkout's sources, optionally traced.

Usage: ``python3 perfbench/serve.py TRACE_DIR|- serve [repro serve options]``.
With a trace directory the layer wrappers of :mod:`tracing` are installed
before the worker pool forks, and the server's own record is written when
it shuts down (on SIGTERM, like ``repro serve``).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    trace_dir, arguments = argv[0], argv[1:]
    tracer = None
    if trace_dir != "-":
        import tracing

        tracer = tracing.install(trace_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(arguments)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
