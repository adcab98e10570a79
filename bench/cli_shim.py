"""`fujita` CLI entry point with the span tracer installed.

    python3 bench/cli_shim.py <fujita arguments>

Behaves as `python3 -m fujita.cli` on stdout and exit code, then writes the
process's per-layer span sums to stderr as one line starting with
`BENCH_TRACE `.  The cli-catalog workload runs it in traced runs.
"""

import json
import sys
import time

from tracer import Tracer
from workloads import SRC, TRACE_MARK

sys.path.insert(0, str(SRC))
t0 = time.perf_counter()
import fujita.cli  # noqa: E402

import_s = time.perf_counter() - t0
tracer = Tracer()
tracer.install()
tracer.query = 0
code = fujita.cli.main(sys.argv[1:])
sys.stdout.flush()
print(TRACE_MARK + json.dumps(tracer.partial(import_s)), file=sys.stderr)
sys.exit(code)
