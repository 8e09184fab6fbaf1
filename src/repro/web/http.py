"""The simulated HTTP client.

:class:`HttpClient` is the seam between the monitoring tool and the
substrates: given a resolved address, it locates the serving endpoint,
obtains the forwarding path, and pins both in a :class:`DownloadSession`
that the identity probe and the download loop sample from
(:mod:`repro.monitor.download`).  Dependencies are injected as callables
so the client is equally usable against the full world or against
hand-built fixtures in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..dataplane.path import ForwardingPath
from ..dataplane.performance import ThroughputModel
from ..errors import DownloadError, UnreachableError
from ..faults.plan import ServerFault
from ..net.addresses import Address, AddressFamily
from ..obs import metrics

#: deterministic work counters gated by the perf-regression harness
#: (module-cached: ``obs`` resets them in place).
_ENDPOINT_LOOKUPS = metrics.counter("web.endpoint_lookups")
_PATH_LOOKUPS = metrics.counter("web.path_lookups")
_SESSIONS = metrics.counter("web.sessions")


@dataclass(frozen=True)
class ContentEndpoint:
    """What serves a given (name, family, round): speed and page bytes."""

    site_id: int
    server_asn: int
    #: effective server-side speed (base x efficiency x behaviour) in kB/s.
    server_speed: float
    page_bytes: int

    def __post_init__(self) -> None:
        if self.server_speed <= 0:
            raise DownloadError("endpoint server_speed must be positive")
        if self.page_bytes <= 0:
            raise DownloadError("endpoint page_bytes must be positive")


#: (final_name, family, round) -> endpoint serving that name.
ContentLookup = Callable[[str, AddressFamily, int], ContentEndpoint]
#: (owner_asn, site_id, family, round) -> forwarding path or None.
PathProvider = Callable[[int, int, AddressFamily, int], Optional[ForwardingPath]]
#: address -> owning ASN.
OwnerLookup = Callable[[Address], int]
#: (site_id, family, round, fault_key) -> injected fault or None.
FaultHook = Callable[[int, AddressFamily, int, str], Optional[ServerFault]]


class DownloadSession:
    """One (name, address, family, round) with its lookups pinned.

    The identity probe and the repeated-download loop issue tens of GETs
    against the same coordinates; the endpoint, forwarding path, and
    round-mean speed are all functions of those coordinates alone, so a
    session resolves them once and every GET only draws the per-sample
    speed.  The client's fault hook still runs per GET — each attempt is
    an independent draw from the fault plan.
    """

    __slots__ = (
        "_client",
        "family",
        "round_idx",
        "endpoint",
        "path",
        "round_mean",
        "_noise_sigma",
        "_page_kbytes",
    )

    def __init__(
        self,
        client: "HttpClient",
        family: AddressFamily,
        round_idx: int,
        endpoint: ContentEndpoint,
        path: ForwardingPath,
        round_mean: float,
    ) -> None:
        self._client = client
        self.family = family
        self.round_idx = round_idx
        self.endpoint = endpoint
        self.path = path
        self.round_mean = round_mean
        # Sampling constants, pinned so each GET is one Gaussian draw and
        # a couple of multiplies (same float expressions the model's
        # sample_download_speed / download_seconds evaluate).
        self._noise_sigma = client._model.config.measurement_noise_sigma
        self._page_kbytes = endpoint.page_bytes / 1000.0


class HttpClient:
    """Simulates main-page downloads from one vantage point."""

    def __init__(
        self,
        model: ThroughputModel,
        content_lookup: ContentLookup,
        path_provider: PathProvider,
        owner_lookup: OwnerLookup,
        fault_hook: FaultHook | None = None,
    ) -> None:
        self._model = model
        self._content_lookup = content_lookup
        self._path_provider = path_provider
        self._owner_lookup = owner_lookup
        self._fault_hook = fault_hook

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
        """Resolve endpoint, path, and round mean once for repeated GETs.

        Raises :class:`UnreachableError` when no forwarding path exists
        (the destination is v6-dark from this vantage, say).  The round
        mean is hoisted here because it depends only on the session
        coordinates; its round noise comes from the model's private
        streams, so hoisting never touches the shared per-sample RNG.
        """
        if address.family is not family:
            raise DownloadError(
                f"address {address} is not an {family} address"
            )
        endpoint = self._content_lookup(final_name, family, round_idx)
        _ENDPOINT_LOOKUPS.inc()
        owner_asn = self._owner_lookup(address)
        path = self._path_provider(owner_asn, endpoint.site_id, family, round_idx)
        _PATH_LOOKUPS.inc()
        if path is None:
            raise UnreachableError(
                f"no {family} path to AS{owner_asn} for {final_name}"
            )
        round_mean = self._model.round_mean_speed(
            endpoint.server_speed, path, endpoint.site_id, round_idx
        )
        _SESSIONS.inc()
        return DownloadSession(
            client=self,
            family=family,
            round_idx=round_idx,
            endpoint=endpoint,
            path=path,
            round_mean=round_mean,
        )
