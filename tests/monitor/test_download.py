"""The repeated-download loop's stopping rule and its fault handling."""

from __future__ import annotations

import random

import pytest

from repro.batch.sampling import GaussTape
from repro.config import MonitorConfig, PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.faults.plan import ServerFault
from repro.monitor.download import probe_page, run_converging_loop
from repro.net.addresses import AddressFamily, IPv4Address
from repro.rng import RngStreams
from repro.sites.behaviour import SiteBehaviour
from repro.web.http import ContentEndpoint, HttpClient, RouteBinding

V4 = AddressFamily.IPV4


def open_session():
    """A hand-built session: an 80 kB/s server, 30 kB page, 1-hop path."""
    model = ThroughputModel(
        PerformanceConfig(round_noise_sigma=0.0), RngStreams(1)
    )
    path = ForwardingPath(
        family=V4, as_path=(1, 2), quality=1.0, tunnels=(), tunnel_quality=0.8
    )
    endpoint = ContentEndpoint(
        site_id=1, server_asn=2, server_speed=80.0, page_bytes=30_000
    )
    client = HttpClient(
        model=model,
        binder=lambda name, address, family: RouteBinding(
            endpoint, family, 2, SiteBehaviour.stationary(),
            lambda alternate: path,
        ),
    )
    return client.open("s", IPv4Address(1), V4, 0)


def run_loop(
    noise_sigma: float,
    config: MonitorConfig | None = None,
    fault_hook=None,
):
    """One converging loop over a hand-built session; its result tuple."""
    return run_converging_loop(
        open_session(),
        GaussTape(random.Random(2), noise_sigma),
        config or MonitorConfig(),
        fault_hook,
    )


class TestStoppingRule:
    def test_low_noise_converges_at_min_downloads(self):
        n, _mean, _half, _seconds, converged, failures = run_loop(0.01)
        assert converged
        assert n == MonitorConfig().min_downloads
        assert failures == ()

    def test_zero_noise_has_zero_width(self):
        _n, _mean, half, _seconds, converged, _failures = run_loop(0.0)
        assert converged
        assert half == 0.0

    def test_moderate_noise_takes_more_samples(self):
        n, *_rest = run_loop(0.25)
        assert n > MonitorConfig().min_downloads

    def test_extreme_noise_hits_cap_unconverged(self):
        n, _mean, _half, _seconds, converged, _failures = run_loop(
            1.2, config=MonitorConfig(max_downloads=8)
        )
        assert n == 8
        assert not converged

    def test_outcome_carries_page_and_timing(self):
        n, mean, _half, seconds, _converged, _failures = run_loop(0.05)
        # Every sample fetched the 30 kB page at roughly the mean speed.
        assert seconds == pytest.approx(n * 30.0 / mean, rel=0.05)

    def test_mean_speed_near_latent_speed(self):
        _n, mean, *_rest = run_loop(0.05)
        # latent = 80 (server) since path factor is 1 for a 1-hop path.
        assert mean == pytest.approx(80.0, rel=0.1)


class TestGiveUp:
    """The abandoned-loop edge: max_retries consecutive failures."""

    def test_all_failing_loop_gives_up_with_exact_timing(self):
        fault = ServerFault(kind="timeout", seconds=3.5)
        n, mean, half, seconds, converged, failures = run_loop(
            0.0, fault_hook=lambda site, fam, r, key: fault
        )
        cfg = MonitorConfig()
        assert not converged
        assert n == 0
        assert mean == 0.0
        assert half == 0.0
        # Every attempt timed out, then the loop gave up.
        assert failures == ("timeout",) * (cfg.max_retries + 1) + ("exhausted",)
        # Every attempt burns the fault's seconds; backoff is charged
        # after each failure *except* the last one (the loop gives up
        # instead of waiting again).
        expected = (cfg.max_retries + 1) * fault.seconds + sum(
            cfg.retry_initial_seconds * cfg.retry_backoff**k
            for k in range(cfg.max_retries)
        )
        assert seconds == pytest.approx(expected)

    def test_transient_fault_recovers_without_giving_up(self):
        fails = {"loop:0", "loop:1"}
        n, _mean, _half, _seconds, converged, failures = run_loop(
            0.0,
            fault_hook=lambda site, fam, r, key: (
                ServerFault(kind="reset", seconds=1.0) if key in fails else None
            ),
        )
        assert converged
        assert failures == ("reset", "reset")
        assert n == MonitorConfig().min_downloads

    def test_failures_list_timeouts_then_resets(self):
        kinds = {"loop:0": "reset", "loop:2": "timeout", "loop:4": "reset"}
        *_stats, failures = run_loop(
            0.0,
            fault_hook=lambda site, fam, r, key: (
                ServerFault(kind=kinds[key], seconds=1.0) if key in kinds else None
            ),
        )
        assert failures == ("timeout", "reset", "reset")

    def test_successes_draw_the_fault_free_stream(self):
        # A failed attempt draws nothing: with faults sprinkled in, the
        # loop's statistics match the fault-free loop's exactly.
        clean = run_loop(0.25)
        faulted = run_loop(
            0.25,
            fault_hook=lambda site, fam, r, key: (
                ServerFault(kind="reset", seconds=0.0)
                if key in ("loop:1", "loop:4")
                else None
            ),
        )
        assert faulted[:3] == clean[:3]
        assert faulted[4] == clean[4]


class TestProbe:
    """The identity probe: one GET, retried on injected faults."""

    def test_clean_probe_is_one_draw(self):
        rng = random.Random(2)
        seconds, failures = probe_page(
            open_session(), GaussTape(rng, 0.05), MonitorConfig()
        )
        assert failures == ()
        # 30 kB at roughly the 80 kB/s latent speed.
        assert seconds == pytest.approx(30.0 / 80.0, rel=0.2)
        draws = random.Random(2)
        draws.gauss(0.0, 0.05)
        assert rng.random() == draws.random()

    def test_exhausted_probe_charges_every_attempt(self):
        fault = ServerFault(kind="reset", seconds=2.0)
        rng = random.Random(2)
        cfg = MonitorConfig()
        seconds, failures = probe_page(
            open_session(), GaussTape(rng, 0.05), cfg,
            lambda site, fam, r, key: fault,
        )
        assert failures == ("reset",) * (cfg.max_retries + 1) + ("exhausted",)
        assert seconds == pytest.approx(
            (cfg.max_retries + 1) * fault.seconds
            + sum(
                cfg.retry_initial_seconds * cfg.retry_backoff**k
                for k in range(cfg.max_retries)
            )
        )
        # No attempt succeeded, so the shared stream is untouched.
        assert rng.random() == random.Random(2).random()
