"""Traced stand-in for the ``symvar`` console script.

Usage: cli_launcher.py SPANS_FILE ARG...

Imports ``symvar.cli``, installs the benchmark's wrappers, runs
``symvar.cli.main(ARG...)`` and exits with its status.  Interpreter start-up
(from ``BENCH_SPAWN_NS`` in the environment, the parent's wall clock at
spawn) and import time are written with the spans to SPANS_FILE.  An
exception escaping ``main`` propagates as it would from the console script.
"""

import os
import sys
import time

_started_ns = time.time_ns()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

_spans_file, _argv = sys.argv[1], sys.argv[2:]
sys.argv = ["symvar"] + _argv

_t0 = time.perf_counter_ns()
import symvar.cli  # noqa: E402

_import_ns = time.perf_counter_ns() - _t0

_tracer = tracing.Tracer()
tracing.install(_tracer)
_tracer.op_id = 0
try:
    _code = symvar.cli.main(_argv)
finally:
    _tracer.dump(
        _spans_file,
        startup_s=(_started_ns - int(os.environ["BENCH_SPAWN_NS"])) / 1e9,
        import_s=_import_ns / 1e9,
    )
sys.exit(_code)
