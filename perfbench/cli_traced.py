"""Run the ``repro`` command line under benchmark-side spans.

    python3 perfbench/cli_traced.py OUT.json RUN_ID figure all --jobs 2

The traced pass of the ``figures`` workload.  In this fresh process it
times ``import repro.cli``, wraps the runtime layer (runner, pool
dispatch, run keys, result cache), ``generate_report`` and
``Figure.render``, runs the CLI with the remaining arguments, and
writes ``{"import_s", "pool_restarts", "spans"}`` to OUT.json.  Work
inside the pool's worker processes is out of reach from here, so the
figures workload has no ci/uarch split.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    out_path, run, cli_argv = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - t0
    import repro.experiments as experiments
    from repro.experiments.common import Figure
    from repro.runtime import parallel
    from spans import Tracer, patched, runtime_targets
    tracer = Tracer(run)
    targets = runtime_targets(tracer) + [
        (experiments, "generate_report", tracer.wrapper("experiments.report")),
        (Figure, "render", tracer.wrapper("analysis.render")),
    ]
    restarts = parallel.pool_restart_count()
    with patched(targets):
        rc = repro.cli.main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s,
                   "pool_restarts": parallel.pool_restart_count() - restarts,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
