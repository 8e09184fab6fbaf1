"""The fault plan: seeded failure schedules over the synthetic Internet.

A :class:`FaultPlan` turns a :class:`~repro.config.FaultConfig` plus the
scenario's master seed into concrete yes/no (and how-long) decisions.
Every decision is keyed by its full coordinates — site, family, round,
attempt — and is a single digest-derived uniform
(:func:`~repro.rng.derive_uniform`): one SHA-256 per decision, no
generator object.  No shared mutable stream is ever consumed, so two
components (or two processes) asking the same question always get the
same answer, and the *order* in which questions are asked cannot perturb
any other subsystem's randomness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from ..config import FaultConfig
from ..errors import ConfigError
from ..net.addresses import AddressFamily
from ..rng import derive_seed, derive_uniform


@dataclass(frozen=True)
class ServerFault:
    """One injected download failure: what happened and what it cost."""

    kind: str  # "timeout" or "reset"
    seconds: float  # simulated wall-clock burned by the failed attempt


class FaultPlan:
    """Deterministic failure schedule for one scenario.

    All query methods are pure functions of the construction arguments;
    per-round tunnel and link decisions are memoised because the same
    (AS, round) pair is asked about once per traversing download.
    """

    def __init__(self, config: FaultConfig, master_seed: int) -> None:
        config.validate()
        self.config = config
        self._seed = derive_seed(master_seed, "faults")
        self._tunnel_cache: dict[tuple[int, int], bool] = {}
        self._link_cache: dict[tuple[int, int], float] = {}
        self._nat64_cache: dict[tuple[int, int], bool] = {}

    # -- primitive draws ------------------------------------------------------

    def _uniform(self, stream: str) -> float:
        """One digest-derived uniform per decision coordinate."""
        return derive_uniform(self._seed, stream)

    def _chance(self, stream: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._uniform(stream) < rate

    # -- DNS ------------------------------------------------------------------

    def dns_failure(
        self, name: str, family: AddressFamily, round_idx: int, attempt: int
    ) -> bool:
        """Whether one lookup attempt for ``name`` times out."""
        rate = (
            self.config.aaaa_failure_rate
            if family is AddressFamily.IPV6
            else self.config.a_failure_rate
        )
        return self._chance(
            f"dns:{name}:{family.value}:{round_idx}:{attempt}", rate
        )

    # -- downloads ------------------------------------------------------------

    def server_fault(
        self,
        site_id: int,
        family: AddressFamily,
        round_idx: int,
        attempt_key: str,
        rate_multiplier: float = 1.0,
    ) -> ServerFault | None:
        """Whether one download attempt fails, and how (timeout/reset).

        ``attempt_key`` distinguishes the GETs a monitor issues for the
        same (site, family, round) — identity probes vs loop samples vs
        retries — so a retry is a genuinely fresh draw.
        ``rate_multiplier`` lets callers scale the configured rates per
        family or per server (impaired v6 hosts fail more).
        """
        cfg = self.config
        if family is AddressFamily.IPV6:
            rate_multiplier *= cfg.v6_fault_multiplier
        timeout_rate = min(1.0, cfg.server_timeout_rate * rate_multiplier)
        reset_rate = min(1.0 - timeout_rate, cfg.server_reset_rate * rate_multiplier)
        if timeout_rate <= 0.0 and reset_rate <= 0.0:
            return None
        draw = self._uniform(
            f"server:{site_id}:{family.value}:{round_idx}:{attempt_key}"
        )
        if draw < timeout_rate:
            return ServerFault("timeout", cfg.timeout_seconds)
        if draw < timeout_rate + reset_rate:
            return ServerFault("reset", cfg.reset_seconds)
        return None

    # -- paths ----------------------------------------------------------------

    def tunnel_broken(self, client_asn: int, round_idx: int) -> bool:
        """Whether ``client_asn``'s transition tunnel is down this round."""
        key = (client_asn, round_idx)
        cached = self._tunnel_cache.get(key)
        if cached is None:
            cached = self._chance(
                f"tunnel:{client_asn}:{round_idx}",
                self.config.tunnel_breakage_rate,
            )
            self._tunnel_cache[key] = cached
        return cached

    def nat64_outage(self, gateway_asn: int, round_idx: int) -> bool:
        """Whether the NAT64 gateway in ``gateway_asn`` is down this round.

        A down translator takes every synthesized-AAAA connection through
        it with it: the monitor sees those destinations as unreachable
        over IPv6 and falls back per its retry policy, the translated
        analogue of :meth:`tunnel_broken`.
        """
        key = (gateway_asn, round_idx)
        cached = self._nat64_cache.get(key)
        if cached is None:
            cached = self._chance(
                f"nat64:{gateway_asn}:{round_idx}",
                self.config.nat64_outage_rate,
            )
            self._nat64_cache[key] = cached
        return cached

    def link_degradation(self, asn: int, round_idx: int) -> float:
        """Throughput factor of ``asn``'s links this round (1.0 = clean)."""
        key = (asn, round_idx)
        cached = self._link_cache.get(key)
        if cached is None:
            degraded = self._chance(
                f"link:{asn}:{round_idx}", self.config.link_degradation_rate
            )
            cached = self.config.link_degradation_factor if degraded else 1.0
            self._link_cache[key] = cached
        return cached

    def path_degradation(self, as_path: Iterable[int], round_idx: int) -> float:
        """Combined degradation over a forwarding path (product per AS)."""
        if self.config.link_degradation_rate <= 0.0:
            return 1.0
        factor = 1.0
        for asn in as_path:
            factor *= self.link_degradation(asn, round_idx)
        return factor


#: Named fault presets for the CLI (``run-all --faults``) and scenarios.
#: "mild" keeps most sites measurable while making Table 3's failure
#: columns non-trivial; "heavy" approximates a bad month on the 2011
#: IPv6 Internet (flapping 6to4 relays, regularly timing-out AAAA).
FAULT_PRESETS: dict[str, FaultConfig] = {
    "none": FaultConfig(),
    "mild": FaultConfig(
        a_failure_rate=0.005,
        aaaa_failure_rate=0.02,
        server_timeout_rate=0.01,
        server_reset_rate=0.01,
        v6_fault_multiplier=2.0,
        tunnel_breakage_rate=0.05,
        link_degradation_rate=0.02,
        nat64_outage_rate=0.03,
    ),
    "heavy": FaultConfig(
        a_failure_rate=0.02,
        aaaa_failure_rate=0.08,
        server_timeout_rate=0.04,
        server_reset_rate=0.03,
        v6_fault_multiplier=2.5,
        impaired_fault_multiplier=2.0,
        tunnel_breakage_rate=0.15,
        link_degradation_rate=0.08,
        link_degradation_factor=0.35,
        nat64_outage_rate=0.10,
    ),
}


def fault_preset(name: str) -> FaultConfig:
    """Look up a preset by name; raises :class:`ConfigError` when unknown."""
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault preset {name!r}; "
            f"expected one of {sorted(FAULT_PRESETS)}"
        ) from None


def resolve_faults(spec: str | FaultConfig | None) -> FaultConfig:
    """Resolve a CLI/env fault specification to a :class:`FaultConfig`.

    ``None`` falls back to the ``REPRO_FAULTS`` environment variable
    (default: the "none" preset); a string names a preset; a
    :class:`FaultConfig` passes through validated.
    """
    if spec is None:
        spec = os.environ.get("REPRO_FAULTS", "") or "none"
    if isinstance(spec, FaultConfig):
        spec.validate()
        return spec
    return fault_preset(spec)
