"""The simulated HTTP client.

:class:`HttpClient` is the seam between the monitoring tool and the
substrates.  A session to a resolved address has two halves:

* a :class:`RouteBinding`, the round-invariant half, built once per
  (final name, address) by the client's injected *binder*: the serving
  endpoint's fixed fields, the owner AS, the site's behaviour, and the
  forwarding path for each ``alternate`` flag asked for so far with its
  path factor;
* a :class:`DownloadSession`, the per-round half :meth:`HttpClient.open`
  derives from the binding: the behaviour-scaled server speed, the path
  the round routes over (after the round's fault checks) and the round
  mean the identity probe and the download loop sample from
  (:mod:`repro.monitor.download`).

A DNS change gives a name a new address, and so a new binding.  The
binder is injected so the client is equally usable against the full
world or against hand-built fixtures in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..dataplane.path import ForwardingPath
from ..dataplane.performance import ThroughputModel
from ..errors import DownloadError, UnreachableError
from ..faults.plan import ServerFault
from ..net.addresses import Address, AddressFamily
from ..obs import metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sites -> web)
    from ..faults.plan import FaultPlan
    from ..sites.behaviour import SiteBehaviour

#: deterministic work counters gated by the perf-regression harness
#: (module-cached: ``obs`` resets them in place).  Every open reads one
#: endpoint and one path off its binding.
_ENDPOINT_LOOKUPS = metrics.counter("web.endpoint_lookups")
_PATH_LOOKUPS = metrics.counter("web.path_lookups")
_SESSIONS = metrics.counter("web.sessions")
#: translated connections refused because the gateway was down.
_NAT64_OUTAGES = metrics.counter("faults.nat64_outages")


@dataclass(frozen=True)
class ContentEndpoint:
    """What serves a given (name, family): site, server and page bytes."""

    site_id: int
    server_asn: int
    #: the server's family-specific speed (base x efficiency) in kB/s,
    #: before the site's behaviour scales it round by round.
    server_speed: float
    page_bytes: int

    def __post_init__(self) -> None:
        if self.server_speed <= 0:
            raise DownloadError("endpoint server_speed must be positive")
        if self.page_bytes <= 0:
            raise DownloadError("endpoint page_bytes must be positive")


#: alternate flag -> forwarding path (None: unreachable).
RouteProvider = Callable[[bool], Optional[ForwardingPath]]
#: (site_id, family, round, fault_key) -> injected fault or None.
FaultHook = Callable[[int, AddressFamily, int, str], Optional[ServerFault]]


class RouteBinding:
    """The round-invariant half of a session to one (name, address).

    ``family`` is the family the session runs over; ``content_family``
    the family whose content answers (they differ for a DNS64-synthesized
    AAAA, which reaches the IPv4 server).  ``route`` gives the forwarding
    path for an ``alternate`` flag; each flag is asked once and kept with
    its path factor.  A ``translated`` binding routes over one fixed
    NAT64 path: its round never reroutes, and ``gateway_asn`` (when a
    gateway is reachable) is checked for an outage every round.
    ``parity`` scales the behaviour-adjusted speed (World IPv6 Day's
    well-provisioned participants; 1.0 otherwise).
    """

    __slots__ = (
        "endpoint",
        "family",
        "content_family",
        "owner_asn",
        "behaviour",
        "parity",
        "translated",
        "gateway_asn",
        "page_kbytes",
        "route",
        "paths",
    )

    def __init__(
        self,
        endpoint: ContentEndpoint,
        family: AddressFamily,
        owner_asn: int,
        behaviour: "SiteBehaviour",
        route: RouteProvider,
        content_family: AddressFamily | None = None,
        translated: bool = False,
        gateway_asn: int | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.family = family
        self.content_family = family if content_family is None else content_family
        self.owner_asn = owner_asn
        self.behaviour = behaviour
        self.parity = 1.0
        self.translated = translated
        self.gateway_asn = gateway_asn
        self.page_kbytes = endpoint.page_bytes / 1000.0
        self.route = route
        #: (path, path factor) per alternate flag, indexed by the flag.
        self.paths: list[tuple[ForwardingPath | None, float] | None] = [None, None]


#: (final_name, address, family) -> the binding of that session.
Binder = Callable[[str, Address, AddressFamily], RouteBinding]


class DownloadSession:
    """One binding in one round: the path it routes over and its mean.

    The identity probe and the repeated-download loop issue tens of GETs
    against the same coordinates, so every GET only draws the per-sample
    speed.  The client's fault hook still runs per GET: each attempt is
    an independent draw from the fault plan.
    """

    __slots__ = (
        "family",
        "round_idx",
        "endpoint",
        "path",
        "round_mean",
        "page_kbytes",
    )

    def __init__(
        self,
        binding: RouteBinding,
        round_idx: int,
        path: ForwardingPath,
        round_mean: float,
    ) -> None:
        self.family = binding.family
        self.round_idx = round_idx
        self.endpoint = binding.endpoint
        self.path = path
        self.round_mean = round_mean
        self.page_kbytes = binding.page_kbytes


class HttpClient:
    """Simulates main-page downloads from one vantage point."""

    def __init__(
        self,
        model: ThroughputModel,
        binder: Binder,
        fault_hook: FaultHook | None = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self._model = model
        self._binder = binder
        self._fault_hook = fault_hook
        self._faults = faults
        self._bindings: dict[tuple[str, Address], RouteBinding] = {}

    @property
    def model(self) -> ThroughputModel:
        """The throughput model downloads sample from (read-only)."""
        return self._model

    @property
    def fault_hook(self) -> FaultHook | None:
        """The per-GET fault hook (None in a fault-free world)."""
        return self._fault_hook

    def open(
        self,
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
    ) -> DownloadSession:
        """The session to ``address`` in ``round_idx``.

        The binding is built on the first open of (name, address); each
        open then scales the endpoint's speed by the site's behaviour,
        routes by the round's path change, applies the round's fault
        checks (a broken tunnel or a down NAT64 gateway makes the
        destination unreachable) and takes the round noise from the
        model's private streams, so opening never touches the shared
        per-sample RNG.  Raises :class:`UnreachableError` when no
        forwarding path exists this round.
        """
        key = (final_name, address)
        binding = self._bindings.get(key)
        if binding is None:
            if address.family is not family:
                raise DownloadError(
                    f"address {address} is not an {family} address"
                )
            binding = self._bindings[key] = self._binder(
                final_name, address, family
            )
        elif binding.family is not family:
            raise DownloadError(f"address {address} is not an {family} address")
        behaviour = binding.behaviour
        speed = (
            binding.endpoint.server_speed
            * behaviour.multiplier(binding.content_family, round_idx)
            * binding.parity
        )
        _ENDPOINT_LOOKUPS.inc()
        faults = self._faults
        if binding.translated:
            alternate = False
        else:
            alternate = behaviour.path_changes_at(family, round_idx)
        route = binding.paths[alternate]
        if route is None:
            path = binding.route(alternate)
            route = binding.paths[alternate] = (
                path,
                0.0 if path is None else self._model.path_factor(path),
            )
        path, path_factor = route
        _PATH_LOOKUPS.inc()
        if faults is not None:
            if binding.translated:
                gateway = binding.gateway_asn
                if gateway is not None and faults.nat64_outage(gateway, round_idx):
                    # The translator is down this round: every
                    # synthesized-AAAA connection through it fails.
                    _NAT64_OUTAGES.inc()
                    path = None
            elif (
                path is not None
                and path.tunnels
                and faults.tunnel_broken(binding.owner_asn, round_idx)
            ):
                # The destination's transition tunnel is down this round:
                # the site is unreachable over it from everywhere, like
                # the flapping 6to4 relays of the measurement period.
                path = None
        if path is None:
            raise UnreachableError(
                f"no {family} path to AS{binding.owner_asn} for {final_name}"
            )
        round_mean = self._model.round_mean_speed(
            speed, path, path_factor, binding.endpoint.site_id, round_idx
        )
        _SESSIONS.inc()
        return DownloadSession(binding, round_idx, path, round_mean)
