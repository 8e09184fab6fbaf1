"""The serving half of the benchmark: a ``repro serve`` child process and
an open-loop request generator.

The generator is one process with at most two connections open at once.
Requests leave on a fixed schedule whatever the server does (open loop),
and each latency is timed from the request's due time, so a stall is
charged to every request queued behind it.  How late the generator sent
each request is recorded too: lateness that grows during a step means
the offered rate was not actually offered.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.data.loadtest import PlannedRequest, direct_response
from repro.errors import DataError

HERE = os.path.dirname(os.path.abspath(__file__))
#: the scrape the generator sends at a fixed interval.
SCRAPE = PlannedRequest(kind="metrics", method="GET", path="/metrics")
#: connections the generator holds open at once, and its scrape interval.
CONNECTIONS = 2
SCRAPE_EVERY_S = 1.0
#: every k-th response body is kept and byte-compared with ``direct_response``.
PARITY_EVERY = 25
#: seed of the ``generate_mix`` request sequence.
MIX_SEED = 2011
#: the reference window: requests at the fixed reference rate, under half
#: the rate at which the reference box saturates even in its slow periods.
REFERENCE_RPS = 500.0
WINDOW_REQUESTS = 1000
SMOKE_WINDOW_REQUESTS = 60
#: the capacity ladder above the reference rate: 8% steps from 600 req/s.
#: The reference box saturated between about 1000 and 2700 req/s when
#: tuned, and near 1000 req/s when the host was busy.
LADDER_RPS = tuple(round(600 * 1.08 ** k) for k in range(36))
#: each rung sends for this long (at least ``MIN_RUNG_REQUESTS`` requests).
RUNG_S = 0.2
SMOKE_RUNG_S = 0.03
MIN_RUNG_REQUESTS = 30
#: a rung holds with no errors, p99 within this limit and generator
#: lateness that grows by at most this much from its first third to its last.
P99_LIMIT_MS = 50.0
LATE_GROWTH_LIMIT_MS = 20.0


class Server:
    """``repro serve --port 0`` over one store, in a child process."""

    def __init__(self, root: str, cache_dir: str, log_path: str, traced: bool) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        program = (
            [os.path.join(HERE, "serve_launcher.py")] if traced else ["-m", "repro.cli"]
        )
        command = [sys.executable, *program, "serve", "--port", "0", "--cache-dir", cache_dir]
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.host, self.port = "127.0.0.1", self._read_port(started + 60.0)
            self._wait_healthy(started + 60.0)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not report its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited before listening")
                line += chunk
        # "repro serve: listening on http://127.0.0.1:PORT (store: ...)"
        address = line.decode().split("http://", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    def send(self, request: PlannedRequest) -> tuple[int, bytes]:
        """One request on its own connection.

        A kept-alive connection would stall on Nagle's algorithm against
        delayed ACKs: the server writes headers and body separately.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if request.body else {}
            conn.request(request.method, request.url(""), body=request.body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> tuple[int, bytes]:
        return self.send(PlannedRequest(kind="get", method="GET", path=path))

    def metrics(self) -> dict:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)["metrics"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def vm_hwm_mb() -> float:
    """High-water RSS of this process."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


@dataclass
class Step:
    """One constant-rate stretch of the schedule and what it measured."""

    due_ms: list[float] = field(default_factory=list)      # latency from due time
    service_ms: list[float] = field(default_factory=list)  # send → last byte
    late_ms: list[float] = field(default_factory=list)     # send − due, in send order
    scrape_ms: list[float] = field(default_factory=list)
    errors: int = 0

    def percentile(self, p: float) -> float:
        return percentile(sorted(self.due_ms), p)

    def late_growth_ms(self) -> float:
        """Mean lateness of the last third minus that of the first third."""
        third = max(1, len(self.late_ms) // 3)
        head, tail = self.late_ms[:third], self.late_ms[-third:]
        return sum(tail) / len(tail) - sum(head) / len(head)

    def holds(self) -> bool:
        """No errors, p99 within the limit, no backlog building up."""
        return (self.errors == 0 and self.percentile(99) <= P99_LIMIT_MS
                and self.late_growth_ms() <= LATE_GROWTH_LIMIT_MS)


def percentile(ordered: list[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Generator:
    """Replays the start of one request sequence against one server, so
    every reference window carries the same requests, and so does every
    ladder rung; they differ only in rate."""

    def __init__(self, server: Server, sequence: list[PlannedRequest]) -> None:
        self.server = server
        self.sequence = sequence
        #: (request, body) pairs kept for the byte diff, and every status.
        self.kept: list[tuple[PlannedRequest, bytes]] = []
        self.statuses: list[int] = []

    def warm(self) -> None:
        """Send every distinct request of the sequence once, in order."""
        seen = set()
        for request in self.sequence:
            key = (request.method, request.path, request.params, request.body)
            if key not in seen:
                seen.add(key)
                self.statuses.append(self.server.send(request)[0])

    def run(self, rate: float, n: int) -> Step:
        """Send the first ``n`` requests of the sequence at ``rate`` per second."""
        every = max(1, int(rate * SCRAPE_EVERY_S))
        plan: list[tuple[float, PlannedRequest]] = []
        for i in range(n):
            if i and i % every == 0:
                plan.append((i / rate, SCRAPE))
            plan.append((i / rate, self.sequence[i % len(self.sequence)]))
        step = Step()
        lock = threading.Lock()
        order = itertools.count()
        late: list[tuple[int, float]] = []
        start = time.perf_counter() + 0.002

        def client() -> None:
            while True:
                index = next(order)
                if index >= len(plan):
                    return
                offset, request = plan[index]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, body = self.server.send(request)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                done = time.perf_counter()
                with lock:
                    late.append((index, (sent - due) * 1000.0))
                    if request is SCRAPE:
                        step.scrape_ms.append((done - sent) * 1000.0)
                        continue
                    step.due_ms.append((done - due) * 1000.0)
                    step.service_ms.append((done - sent) * 1000.0)
                    self.statuses.append(status)
                    if status != 200:
                        step.errors += 1
                    elif len(self.statuses) % PARITY_EVERY == 0:
                        self.kept.append((request, body))

        threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        step.late_ms = [value for _, value in sorted(late)]
        return step

    def verify(self, store) -> tuple[int, int]:
        """(responses checked, failures): every status, warm-up included,
        must be 200 and every kept body must equal ``direct_response`` byte
        for byte."""
        failures = sum(1 for status in self.statuses if status != 200)
        expected: dict[tuple, bytes | None] = {}
        for request, body in self.kept:
            key = (request.method, request.path, request.params, request.body)
            if key not in expected:
                try:
                    expected[key] = direct_response(store, request)
                except DataError:
                    expected[key] = None
            if expected[key] != body:
                failures += 1
        return len(self.statuses), failures

