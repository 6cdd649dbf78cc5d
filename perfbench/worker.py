"""The measured process: one fresh interpreter, one CLI invocation.

Run by ``run.py`` as ``worker.py ROOT SPEC [CLI ARGS...]``.  It imports
``carleson_lab.cli`` from ``ROOT/src``, parses the weight (which reads a
grid file), prints ``ready`` and, when CLI arguments follow, runs them
through ``cli.main`` once, which parses the weight again.  Its last line
is a JSON object with the invocation's wall time, exit code and the
process's peak RSS; with ``PERFBENCH_TRACE=1`` in the environment it also
carries the per-layer figures of :mod:`tracing`.
"""

import json
import os
import resource
import sys
import time

root, spec, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
src = os.path.join(root, "src")
sys.path.insert(0, src)

import carleson_lab.cli as cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"carleson_lab was imported from {cli.__file__}, not from {src}")
tracer = None
if cli_args and os.environ.get("PERFBENCH_TRACE") == "1":
    # Installed before the set-up parse, so that parse_weight.ms covers it.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.install()
cli.measures.parse_weight(spec)
print("ready", flush=True)

if cli_args:
    # cli.main parses the weight again, as every CLI invocation does, so
    # wall_s includes that second parse of an already page-cached file.
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - t0
    result = {
        "wall_s": wall_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer_metrics(tracer)
    print(json.dumps(result), flush=True)
