"""The download-speed model.

The observable the paper reports is the main-page download speed in
kbytes/sec.  We model it as

``speed = server_speed(family, round) * path_factor(path) * noise``

where ``path_factor = 1 / (1 + hop_slowdown * (effective_hops - 1)) *
path.total_quality``.  Two noise scales are separated, matching the
paper's two-level confidence methodology:

* **round noise** — transient congestion shared by all downloads of a
  site within one monitoring round (drawn once per (site, family, round));
* **measurement noise** — per-download jitter, which the repeated-download
  loop of Fig 2 averages away.

The model is deliberately family-blind: nothing here treats IPv6 packets
differently from IPv4 packets on the same path.  That *is* hypothesis H1;
IPv6 ends up slower only through longer paths, tunnels, or weak servers.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from ..config import PerformanceConfig
from ..net.addresses import AddressFamily
from ..rng import RngStreams
from .path import ForwardingPath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> config)
    from ..faults.plan import FaultPlan


class ThroughputModel:
    """Samples download speeds for (server, path, round) combinations.

    Round noise is derived deterministically from the master seed and the
    (site, family, round) triple, so any component can recompute it
    without shared mutable state.
    """

    def __init__(
        self,
        config: PerformanceConfig,
        rngs: RngStreams,
        faults: "FaultPlan | None" = None,
    ) -> None:
        config.validate()
        self.config = config
        self._rngs = rngs
        self._faults = faults
        #: (site_id, family, round) -> round factor, keyed on the family
        #: member (identity-hashed) rather than its string value.
        self._round_factors: dict[tuple[int, AddressFamily, int], float] = {}

    def __getstate__(self) -> dict:
        """Pickle without the round-factor memo (re-derived from the seed)."""
        state = self.__dict__.copy()
        state["_round_factors"] = {}
        return state

    def path_factor(self, path: ForwardingPath) -> float:
        """Multiplicative slowdown of a forwarding path.

        Hop cost saturates at ``hop_saturation``: beyond that, the
        bottleneck link already dominates end-to-end throughput.
        """
        hops = min(max(1, path.effective_hops), self.config.hop_saturation)
        return path.total_quality / (1.0 + self.config.hop_slowdown * (hops - 1))

    def round_factor(
        self, site_id: int, family: AddressFamily, round_idx: int
    ) -> float:
        """Transient congestion factor shared within one round."""
        sigma = self.config.round_noise_sigma
        if sigma <= 0:
            return 1.0
        key = (site_id, family, round_idx)
        cached = self._round_factors.get(key)
        if cached is None:
            rng = self._rngs.fresh(f"round-noise:{site_id}:{family.value}:{round_idx}")
            cached = math.exp(rng.gauss(0.0, sigma))
            self._round_factors[key] = cached
        return cached

    def round_mean_speed(
        self,
        server_speed: float,
        path: ForwardingPath,
        path_factor: float,
        site_id: int,
        round_idx: int,
    ) -> float:
        """The latent mean speed (kbytes/sec) for one site-round.

        ``path_factor`` is :meth:`path_factor` of ``path``, which callers
        that route over the same path every round compute once.
        """
        if server_speed <= 0:
            raise ValueError("server_speed must be positive")
        speed = (
            server_speed
            * path_factor
            * self.round_factor(site_id, path.family, round_idx)
        )
        if self._faults is not None:
            speed *= self._faults.path_degradation(path.as_path, round_idx)
        return speed

    def sample_server_base_speed(self, rng: random.Random) -> float:
        """Draw a server's base speed from the configured lognormal."""
        mu = math.log(self.config.server_base_speed_mean)
        sigma = self.config.server_base_speed_sigma
        # Subtract sigma^2/2 so the *mean* (not median) matches the config.
        return math.exp(rng.gauss(mu - sigma * sigma / 2.0, sigma))
