"""Bootstrap for traced CLI children: install the tracer, run ``cli.main``, dump spans.

    python3 perfbench/cli_child.py SPANS_OUT <shockcop arguments...>

The parent sets ``PERFBENCH_LAUNCH`` to the wall-clock time at which it
launched this process, so that the time until ``cli.main`` is entered
(interpreter start plus import) can be reported.
"""

import json
import os
import sys
import time

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from shockcop import cli

    entered = time.time()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        dumped = tracer.dump()
        dumped["process_start_s"] = entered - float(os.environ["PERFBENCH_LAUNCH"])
        with open(sys.argv[1], "w") as fh:
            json.dump(dumped, fh)
    sys.exit(code)
