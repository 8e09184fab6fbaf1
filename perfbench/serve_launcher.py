"""Start ``repro serve`` with layer timers installed in the server process.

Used by the traced benchmark run in place of ``python -m repro.cli``:
every ``ServeApp.handle_bytes`` call is timed into a ``repro.obs``
histogram split by its response-cache state, so the timings come back
through the server's own ``/metrics`` endpoint.

    PYTHONPATH=src python perfbench/serve_launcher.py serve --port 0 --cache-dir DIR
"""

from __future__ import annotations

import functools
import sys
import time

from repro import cli
from repro.data.serve import ServeApp
from repro.obs import metrics

#: histogram per cache state ("hit", "miss", "bypass"), milliseconds.
HANDLE_METRIC = "perfbench.serve.handle_{}_ms"


def install() -> None:
    original = ServeApp.handle_bytes

    @functools.wraps(original)
    def handle_bytes(self, method, path, params, body=None):
        started = time.perf_counter()
        result = original(self, method, path, params, body)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        metrics.histogram(HANDLE_METRIC.format(result[2])).observe(elapsed_ms)
        return result

    ServeApp.handle_bytes = handle_bytes


if __name__ == "__main__":
    install()
    sys.exit(cli.main(sys.argv[1:]))
