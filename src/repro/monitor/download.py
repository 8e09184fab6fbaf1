"""The monitor's GETs: the identity probe and the repeated-download loop.

From the paper (Section 3): "Downloads repeat until the measured average
download time is within 10% of the mean with 95% confidence, at which
point the page size and its average download time are recorded."  The
loop resets (no caching effects) between downloads — in the simulation
each GET is an independent sample by construction.

Both phases sample a :class:`~repro.web.http.DownloadSession`: one
round's view of a route binding, with the round mean and the path fixed.
Each successful GET reads one Gaussian off the round's
:class:`~repro.batch.sampling.GaussTape`, so the shared stream advances
by the same draws whatever the fault plan decides.  The tape holds the
draws the round is sure to make, drawn as one block, and draws the rest
on demand; it never holds more than the round reads, so the stream ends
the round where one ``gauss`` call per GET leaves it.

In a faulty world every GET first asks the client's fault hook whether
the attempt fails (a timeout or a reset costing the fault's seconds);
failed attempts never draw and never enter the speed statistics, and
they are retried with exponential backoff (the k-th retry waits
``retry_initial_seconds * retry_backoff ** k`` simulated seconds) until
``max_retries`` consecutive failures give the GET up.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..batch.sampling import GaussTape
from ..config import MonitorConfig
from ..obs import metrics
from ..stats.intervals import t_critical
from ..web.http import DownloadSession, FaultHook

#: fault-path metrics (module-cached: ``obs`` resets them in place).
_FAILED = metrics.counter("download.samples_failed")
_GAVE_UP = metrics.counter("download.loops_gave_up")

#: the failure record of a GET or loop that never failed.
NO_FAILURES: tuple[str, ...] = ()


@lru_cache(maxsize=64)
def _tcrit_table(confidence: float, max_n: int) -> tuple[float, ...]:
    """Student-t critical values indexed by sample count ``n`` (<= max_n).

    Entry ``n`` equals ``t_critical(confidence, n - 1)``, hoisted into a
    tuple so the loop's per-sample convergence check is an index, not a
    call.
    """
    return (0.0, 0.0) + tuple(
        t_critical(confidence, n - 1) for n in range(2, max_n + 1)
    )


@lru_cache(maxsize=64)
def _sqrt_table(max_n: int) -> tuple[float, ...]:
    """``math.sqrt(n)`` for n <= max_n (the standard error's divisor)."""
    return (0.0, 1.0) + tuple(math.sqrt(n) for n in range(2, max_n + 1))


def backoff_seconds(config: MonitorConfig, attempt: int) -> float:
    """Simulated wait before retry ``attempt`` (0-based, exponential)."""
    return config.retry_initial_seconds * config.retry_backoff ** attempt


def probe_page(
    session: DownloadSession,
    tape: GaussTape,
    config: MonitorConfig,
    fault_hook: FaultHook | None = None,
) -> tuple[float, tuple[str, ...]]:
    """One identity-phase GET, retried on injected faults.

    Returns ``(seconds, failures)``: the simulated seconds the GET and
    its retries cost, and the fault kinds of the failed attempts in
    attempt order, ending with ``"exhausted"`` when every attempt failed
    (the probe then has no page to compare).  Attempt ``k`` asks the
    hook under the key ``probe:{k}``.
    """
    seconds = 0.0
    failures = NO_FAILURES
    if fault_hook is not None:
        endpoint = session.endpoint
        failed: list[str] = []
        for attempt in range(config.max_retries + 1):
            fault = fault_hook(
                endpoint.site_id, session.family, session.round_idx,
                f"probe:{attempt}",
            )
            if fault is None:
                break
            seconds += fault.seconds
            failed.append(fault.kind)
            if attempt < config.max_retries:
                seconds += backoff_seconds(config, attempt)
        else:
            failed.append("exhausted")
            return seconds, tuple(failed)
        failures = tuple(failed)
    speed = session.round_mean * math.exp(tape.one())
    return seconds + session.page_kbytes / speed, failures


def run_converging_loop(
    session: DownloadSession,
    tape: GaussTape,
    config: MonitorConfig,
    fault_hook: FaultHook | None = None,
) -> tuple[int, float, float, float, bool, tuple[str, ...]]:
    """The Fig 2 repeated-download loop over one session.

    Returns ``(n_samples, mean_speed, ci_half_width, total_seconds,
    converged, failures)``.  Speeds, not times, are accumulated: for a
    fixed page size the two criteria are equivalent, and speed is what
    the paper reports.  The Welford update and the convergence check
    (``t * (sqrt(var) / sqrt(n))`` against ``half / |mean|``) run inline.

    Each successful GET reads one Gaussian off the round's tape.  With a
    fault hook, attempt ``k`` first asks the hook under ``loop:{k}``;
    ``failures`` then lists every timeout, then every reset, then
    ``"exhausted"`` if ``max_retries`` consecutive failures abandoned the
    loop (with no success, ``n_samples`` is 0).
    """
    cfg = config
    round_mean = session.round_mean
    page_kbytes = session.page_kbytes
    min_n = cfg.min_downloads
    max_n = cfg.max_downloads
    rel = cfg.ci_relative_width
    tcrit = _tcrit_table(cfg.confidence, max_n)
    sqrt_n = _sqrt_table(max_n)
    draw = tape.one
    exp = math.exp
    sqrt = math.sqrt
    total_seconds = 0.0
    n = 0
    mean = 0.0
    m2 = 0.0
    half = 0.0
    converged = False
    if fault_hook is not None:
        site_id = session.endpoint.site_id
        family = session.family
        round_idx = session.round_idx
        attempt = consecutive_failed = n_timeouts = n_resets = 0
        gave_up = False
    while True:
        if fault_hook is not None:
            fault = fault_hook(site_id, family, round_idx, f"loop:{attempt}")
            attempt += 1
            if fault is not None:
                total_seconds += fault.seconds
                if fault.kind == "timeout":
                    n_timeouts += 1
                elif fault.kind == "reset":
                    n_resets += 1
                if consecutive_failed >= cfg.max_retries:
                    gave_up = True
                    break
                total_seconds += backoff_seconds(cfg, consecutive_failed)
                consecutive_failed += 1
                continue
            consecutive_failed = 0
        speed = round_mean * exp(draw())
        total_seconds += page_kbytes / speed
        n += 1
        delta = speed - mean
        mean += delta / n
        m2 += delta * (speed - mean)
        if n >= min_n:
            half = tcrit[n] * (sqrt(m2 / (n - 1)) / sqrt_n[n])
            if mean != 0 and half / abs(mean) <= rel:
                converged = True
                break
        if n >= max_n:
            break
    if not converged and n >= 2:
        half = tcrit[n] * (sqrt(m2 / (n - 1)) / sqrt_n[n])
    failures = NO_FAILURES
    if fault_hook is not None and (n_timeouts or n_resets or gave_up):
        _FAILED.inc(n_timeouts + n_resets)
        failures = ("timeout",) * n_timeouts + ("reset",) * n_resets
        if gave_up:
            _GAVE_UP.inc()
            failures += ("exhausted",)
    return n, mean, (half if n >= 2 else 0.0), total_seconds, converged, failures
