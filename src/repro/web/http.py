"""The simulated HTTP GET.

:class:`HttpClient` is the seam between the monitoring tool and the
substrates: given a resolved address, it locates the serving endpoint,
obtains the forwarding path, and samples a download from the throughput
model.  Dependencies are injected as callables so the client is equally
usable against the full world or against hand-built fixtures in tests.
"""

from __future__ import annotations

import math
import random
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


@dataclass(frozen=True, slots=True)
class DownloadResult:
    """One page download attempt — completed, or failed by a fault.

    Failed attempts (``ok`` False) carry the fault kind in ``failure``
    ("timeout" or "reset"), zero speed, and the simulated seconds the
    failed attempt burned; callers retry or record them as failed
    samples, never feed them into speed statistics.
    """

    final_name: str
    family: AddressFamily
    address: Address
    server_asn: int
    as_path: tuple[int, ...]
    page_bytes: int
    speed_kbytes_per_sec: float
    seconds: float
    ok: bool = True
    failure: str = ""


class DownloadSession:
    """One (name, address, family, round) with its lookups pinned.

    The repeated-download loop issues tens of GETs against the same
    coordinates; the endpoint, forwarding path, and round-mean speed are
    all functions of those coordinates alone, so a session resolves them
    once and every :meth:`get` only draws the per-sample speed.  The
    fault hook still runs per GET — each attempt is an independent draw
    from the fault plan.
    """

    __slots__ = (
        "_client",
        "final_name",
        "address",
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
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
        endpoint: ContentEndpoint,
        path: ForwardingPath,
        round_mean: float,
    ) -> None:
        self._client = client
        self.final_name = final_name
        self.address = address
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

    @property
    def has_fault_hook(self) -> bool:
        """Whether GETs consult a fault hook (callers can then skip
        building per-attempt fault keys entirely)."""
        return self._client._fault_hook is not None

    def get(self, rng: random.Random, fault_key: str = "") -> DownloadResult:
        """Fetch the pinned page once; one shared-RNG draw per sample."""
        client = self._client
        endpoint = self.endpoint
        if client._fault_hook is not None:
            fault = client._fault_hook(
                endpoint.site_id, self.family, self.round_idx, fault_key
            )
            if fault is not None:
                return DownloadResult(
                    final_name=self.final_name,
                    family=self.family,
                    address=self.address,
                    server_asn=endpoint.server_asn,
                    as_path=self.path.as_path,
                    page_bytes=endpoint.page_bytes,
                    speed_kbytes_per_sec=0.0,
                    seconds=fault.seconds,
                    ok=False,
                    failure=fault.kind,
                )
        sigma = self._noise_sigma
        if sigma > 0:
            speed = self.round_mean * math.exp(rng.gauss(0.0, sigma))
        else:
            speed = self.round_mean
        if speed <= 0:
            raise ValueError("speed must be positive")
        return DownloadResult(
            final_name=self.final_name,
            family=self.family,
            address=self.address,
            server_asn=endpoint.server_asn,
            as_path=self.path.as_path,
            page_bytes=endpoint.page_bytes,
            speed_kbytes_per_sec=speed,
            seconds=self._page_kbytes / speed,
        )


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
    def has_fault_hook(self) -> bool:
        """Whether GETs consult a fault hook (mirrors the session flag)."""
        return self._fault_hook is not None

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
            final_name=final_name,
            address=address,
            family=family,
            round_idx=round_idx,
            endpoint=endpoint,
            path=path,
            round_mean=round_mean,
        )

    def open_many(
        self,
        requests: "list[tuple[str, Address, AddressFamily, int]]",
    ) -> "list[DownloadSession | None]":
        """Open a batch of sessions; ``None`` marks unreachable coordinates.

        The batched round plan opens every dual-stack site's sessions in
        one sweep: lookups run per request (hitting the same world-side
        caches the scalar open does), the latent means are evaluated
        through :meth:`ThroughputModel.round_mean_speed_batch`, and the
        work counters advance by the same totals the equivalent scalar
        opens would — an unreachable request still costs one endpoint
        and one path lookup but never a session, exactly like
        :meth:`open` raising :class:`UnreachableError`.
        """
        content_lookup = self._content_lookup
        path_provider = self._path_provider
        owner_lookup = self._owner_lookup
        endpoints: list[ContentEndpoint | None] = []
        paths: list[ForwardingPath | None] = []
        for final_name, address, family, round_idx in requests:
            if address.family is not family:
                raise DownloadError(
                    f"address {address} is not an {family} address"
                )
            endpoint = content_lookup(final_name, family, round_idx)
            owner_asn = owner_lookup(address)
            path = path_provider(owner_asn, endpoint.site_id, family, round_idx)
            endpoints.append(endpoint)
            paths.append(path)
        _ENDPOINT_LOOKUPS.inc(len(requests))
        _PATH_LOOKUPS.inc(len(requests))
        reachable = [idx for idx, path in enumerate(paths) if path is not None]
        means = self._model.round_mean_speed_batch(
            [endpoints[idx].server_speed for idx in reachable],
            [paths[idx] for idx in reachable],
            [endpoints[idx].site_id for idx in reachable],
            requests[0][3] if requests else 0,
        )
        sessions: list[DownloadSession | None] = [None] * len(requests)
        for mean, idx in zip(means, reachable):
            final_name, address, family, round_idx = requests[idx]
            sessions[idx] = DownloadSession(
                client=self,
                final_name=final_name,
                address=address,
                family=family,
                round_idx=round_idx,
                endpoint=endpoints[idx],
                path=paths[idx],
                round_mean=mean,
            )
        _SESSIONS.inc(len(reachable))
        return sessions

    def get(
        self,
        final_name: str,
        address: Address,
        family: AddressFamily,
        round_idx: int,
        rng: random.Random,
        fault_key: str = "",
    ) -> DownloadResult:
        """Fetch the main page at ``address`` once (one-shot session).

        Raises :class:`UnreachableError` when no forwarding path exists.
        With a fault hook installed, the attempt may instead come back
        failed (``ok`` False); ``fault_key`` names the attempt (probe,
        loop sample, retry) so every GET is an independent draw from the
        fault plan.
        """
        return self.open(final_name, address, family, round_idx).get(
            rng, fault_key
        )
