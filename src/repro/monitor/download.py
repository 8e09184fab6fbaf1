"""The repeated-download loop.

From the paper (Section 3): "Downloads repeat until the measured average
download time is within 10% of the mean with 95% confidence, at which
point the page size and its average download time are recorded."  The
loop resets (no caching effects) between downloads — in the simulation
each GET is an independent sample by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from ..config import MonitorConfig
from ..net.addresses import Address, AddressFamily
from ..obs import metrics
from ..stats.descriptive import RunningStats
from ..stats.intervals import interval_from_stats, t_critical
from ..web.http import DownloadResult, DownloadSession, HttpClient

#: download-loop metrics (module-cached: ``obs`` resets them in place).
_DOWNLOADS = metrics.counter("download.samples")
_FAILED = metrics.counter("download.samples_failed")
_CONVERGED = metrics.counter("download.loops_converged")
_EXHAUSTED = metrics.counter("download.loops_exhausted")
_GAVE_UP = metrics.counter("download.loops_gave_up")
_LOOP_SAMPLES = metrics.histogram("download.samples_per_loop")


@dataclass(frozen=True)
class RepeatedDownloadOutcome:
    """Statistics of one site-family's downloads within a round.

    Failed attempts (injected timeouts/resets) never enter the speed
    statistics; they are counted separately.  ``gave_up`` marks a loop
    abandoned after ``max_retries`` consecutive failures — with zero
    successes ``first_result`` is None and ``n_samples`` is 0.
    """

    n_samples: int
    mean_speed: float
    ci_half_width: float
    converged: bool
    page_bytes: int
    total_seconds: float
    first_result: DownloadResult | None
    n_failed: int = 0
    n_timeouts: int = 0
    n_resets: int = 0
    gave_up: bool = False


@lru_cache(maxsize=64)
def _tcrit_table(confidence: float, max_n: int) -> tuple[float, ...]:
    """Student-t critical values indexed by sample count ``n`` (<= max_n).

    Entry ``n`` equals ``t_critical(confidence, n - 1)`` — the same
    (cached) float the scalar loop multiplies into its standard error —
    hoisted into a tuple so the batched loop's per-sample convergence
    check is an index, not a call.
    """
    return (0.0, 0.0) + tuple(
        t_critical(confidence, n - 1) for n in range(2, max_n + 1)
    )


@lru_cache(maxsize=64)
def _sqrt_table(max_n: int) -> tuple[float, ...]:
    """``math.sqrt(n)`` for n <= max_n (``RunningStats.stderr``'s divisor)."""
    return (0.0, 1.0) + tuple(math.sqrt(n) for n in range(2, max_n + 1))


def run_converging_loop(
    session: DownloadSession, rng: random.Random, config: MonitorConfig
) -> tuple[int, float, float, float, bool]:
    """The fault-free Fig 2 loop on batched draws.

    Returns ``(n_samples, mean_speed, ci_half_width, total_seconds,
    converged)``.  With no fault hook every GET succeeds, so the first
    ``min_downloads`` Gaussians can be drawn as one block
    (:meth:`ThroughputModel.sample_download_speed_batch`) and the Welford
    update, convergence check, and per-sample seconds run inline — no
    ``DownloadResult`` or ``ConfidenceInterval`` objects on the hot
    path.  Every float expression mirrors :meth:`RepeatedDownloader.run`
    (same accumulation order, same ``t * (sqrt(var) / sqrt(n))``
    association, same ``half / |mean| <= target`` division), so the
    statistics — and the shared RNG stream — are bit-identical.
    """
    cfg = config
    round_mean = session.round_mean
    page_kbytes = session._page_kbytes
    sigma = session._noise_sigma
    min_n = cfg.min_downloads
    max_n = cfg.max_downloads
    rel = cfg.ci_relative_width
    tcrit = _tcrit_table(cfg.confidence, max_n)
    sqrt_n = _sqrt_table(max_n)
    gauss = rng.gauss
    exp = math.exp
    sqrt = math.sqrt
    total_seconds = 0.0
    n = 0
    mean = 0.0
    m2 = 0.0
    half = 0.0
    converged = False
    speeds = session._client._model.sample_download_speed_batch(
        round_mean, rng, min_n if min_n <= max_n else max_n
    )
    while True:
        for speed in speeds:
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
        speeds = (
            (round_mean * exp(gauss(0.0, sigma)),)
            if sigma > 0
            else (round_mean,)
        )
    if not converged and n >= 2:
        half = tcrit[n] * (sqrt(m2 / (n - 1)) / sqrt_n[n])
    return n, mean, (half if n >= 2 else 0.0), total_seconds, converged


class RepeatedDownloader:
    """Runs the Fig 2 download loop for one (site, family, round)."""

    def __init__(self, client: HttpClient, config: MonitorConfig) -> None:
        config.validate()
        self._client = client
        self._config = config

    def run(
        self,
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
        rng: random.Random,
        session: DownloadSession | None = None,
    ) -> RepeatedDownloadOutcome:
        """Download until the CI target is met (or max_downloads reached).

        Speeds, not times, are accumulated: for a fixed page size the two
        criteria are equivalent, and speed is what the paper reports.
        Failed attempts are retried with exponential backoff (the k-th
        retry waits ``retry_initial_seconds * retry_backoff ** k``
        simulated seconds); ``max_retries`` consecutive failures abandon
        the loop.

        The loop's endpoint/path lookups happen once, at session open;
        pass ``session`` (e.g. the one the identity probe already opened)
        to skip even that, otherwise one is opened here.  May raise
        :class:`UnreachableError` from the open, exactly where the first
        per-sample GET used to raise it.
        """
        cfg = self._config
        if session is None:
            session = self._client.open(final_name, address, family, round_idx)
        acc = RunningStats()
        total_seconds = 0.0
        first: DownloadResult | None = None
        converged = False
        gave_up = False
        n_failed = n_timeouts = n_resets = 0
        consecutive_failed = 0
        attempt_idx = 0
        # Per-attempt fault keys are only consulted by the fault hook;
        # skip building ~200k of the strings per faults-off campaign.
        keyed = session.has_fault_hook
        while acc.n < cfg.max_downloads:
            result = session.get(
                rng, fault_key=f"loop:{attempt_idx}" if keyed else ""
            )
            attempt_idx += 1
            total_seconds += result.seconds
            if not result.ok:
                n_failed += 1
                if result.failure == "timeout":
                    n_timeouts += 1
                elif result.failure == "reset":
                    n_resets += 1
                if consecutive_failed >= cfg.max_retries:
                    gave_up = True
                    break
                total_seconds += (
                    cfg.retry_initial_seconds
                    * cfg.retry_backoff ** consecutive_failed
                )
                consecutive_failed += 1
                continue
            consecutive_failed = 0
            if first is None:
                first = result
            acc.add(result.speed_kbytes_per_sec)
            if acc.n < cfg.min_downloads:
                continue
            interval = interval_from_stats(acc, cfg.confidence)
            if interval.meets_target(cfg.ci_relative_width):
                converged = True
                break
        _DOWNLOADS.inc(acc.n)
        _FAILED.inc(n_failed)
        _LOOP_SAMPLES.observe(acc.n)
        (_CONVERGED if converged else _EXHAUSTED).inc()
        if gave_up:
            _GAVE_UP.inc()
        if not converged and acc.n >= 2:
            # Report the final interval even when the target was missed.
            interval = interval_from_stats(acc, cfg.confidence)
        half_width = interval.half_width if acc.n >= 2 else 0.0
        return RepeatedDownloadOutcome(
            n_samples=acc.n,
            # A loop abandoned before its first success has no mean.
            mean_speed=acc.mean if acc.n else 0.0,
            ci_half_width=half_width,
            converged=converged,
            page_bytes=first.page_bytes if first is not None else 0,
            total_seconds=total_seconds,
            first_result=first,
            n_failed=n_failed,
            n_timeouts=n_timeouts,
            n_resets=n_resets,
            gave_up=gave_up,
        )
