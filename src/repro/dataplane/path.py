"""Forwarding paths.

A :class:`ForwardingPath` is the data-plane view of a BGP route: the AS
sequence the packets cross, the per-AS quality factors along it, and any
tunnels hiding IPv4 detours inside an apparent single hop.  The crucial
distinction for the paper is **apparent** versus **effective** hop count:
Table 7 buckets by the former while performance follows the latter, which
is how the 1-2 hop IPv6 anomaly arises.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RoutingError
from ..net.addresses import AddressFamily
from ..net.tunnels import Tunnel
from ..topology.dualstack import DualStackTopology


@dataclass(frozen=True)
class ForwardingPath:
    """The data-plane realisation of one AS path."""

    family: AddressFamily
    as_path: tuple[int, ...]
    #: product of crossed-AS quality factors (source excluded).
    quality: float
    #: tunnels embedded in the path.
    tunnels: tuple[Tunnel, ...]
    #: per-tunnel multiplicative throughput penalty.
    tunnel_quality: float
    #: True for NAT64-translated paths: the apparent IPv6 path ends at
    #: the gateway AS announcing 64:ff9b::/96, and forwarding continues
    #: over an IPv4 leg invisible to BGP (RFC 6146).
    translated: bool = False
    #: hop count of the hidden IPv4 leg behind the NAT64 gateway.
    translation_hidden_hops: int = 0
    #: multiplicative throughput penalty of the stateful translator.
    translation_quality: float = 1.0

    @property
    def apparent_hops(self) -> int:
        """AS-path hop count, as BGP reports it."""
        return len(self.as_path) - 1

    @property
    def hidden_hops(self) -> int:
        """Extra forwarding hops hidden inside tunnels or behind NAT64."""
        return (
            sum(t.extra_hops for t in self.tunnels)
            + self.translation_hidden_hops
        )

    @property
    def effective_hops(self) -> int:
        """Hops the packets actually cross."""
        return self.apparent_hops + self.hidden_hops

    @property
    def total_quality(self) -> float:
        """Path quality including tunnel and translation penalties."""
        return (
            self.quality
            * (self.tunnel_quality ** len(self.tunnels))
            * self.translation_quality
        )

    @property
    def transition_kind(self) -> str:
        """How this path crosses the v6 Internet (the classifier's axis)."""
        if self.translated:
            return "translated"
        if self.tunnels:
            return "tunneled"
        return "native"

    @classmethod
    def from_as_path(
        cls,
        topo: DualStackTopology,
        as_path: tuple[int, ...],
        family: AddressFamily,
    ) -> "ForwardingPath":
        """Realise an AS path against the topology.

        Quality multiplies the family-specific factor of every AS after
        the source (the networks the traffic transits into).  For IPv6,
        each adjacency implemented by a tunnel is recorded.
        """
        if len(as_path) < 1:
            raise RoutingError("cannot realise an empty AS path")
        quality = 1.0
        for asn in as_path[1:]:
            asys = topo.base.ases.get(asn)
            if asys is None:
                raise RoutingError(f"AS path crosses unknown AS{asn}")
            quality *= asys.quality(family)
        tunnels: list[Tunnel] = []
        if family is AddressFamily.IPV6:
            for a, b in zip(as_path, as_path[1:]):
                tunnel = topo.tunnel_on_edge(a, b)
                if tunnel is not None:
                    tunnels.append(tunnel)
        return cls(
            family=family,
            as_path=tuple(as_path),
            quality=quality,
            tunnels=tuple(tunnels),
            tunnel_quality=topo.config.tunnel_quality,
        )

    def describe(self) -> str:
        """Human-readable one-liner (used by examples and logs)."""
        hops = " ".join(f"AS{a}" for a in self.as_path)
        if self.translated:
            extra = f" (+{self.translation_hidden_hops} translated)"
        elif self.tunnels:
            extra = f" (+{self.hidden_hops} tunneled)"
        else:
            extra = ""
        return f"[{self.family}] {hops}{extra}"
