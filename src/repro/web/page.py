"""Main pages.

The monitoring tool only ever fetches a site's main page and compares the
IPv4 and IPv6 byte counts (within 6% = "identical").  Most sites serve
the same bytes on both families; a small fraction serve different content
per family (v6-specific landing pages, different ad payloads), which the
identity check is designed to filter out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.addresses import AddressFamily


@dataclass(frozen=True)
class WebPage:
    """A site's main page, with per-family byte counts."""

    v4_bytes: int
    v6_bytes: int

    def __post_init__(self) -> None:
        if self.v4_bytes <= 0 or self.v6_bytes <= 0:
            raise ValueError("page sizes must be positive")

    def size(self, family: AddressFamily) -> int:
        if family is AddressFamily.IPV4:
            return self.v4_bytes
        return self.v6_bytes

    @classmethod
    def same_content(cls, size_bytes: int) -> "WebPage":
        return cls(v4_bytes=size_bytes, v6_bytes=size_bytes)


def relative_size_difference(v4_bytes: int, v6_bytes: int) -> float:
    """``|v4 - v6|`` relative to the larger page."""
    return abs(v4_bytes - v6_bytes) / max(v4_bytes, v6_bytes)


def identical_within(v4_bytes: int, v6_bytes: int, threshold: float) -> bool:
    """The paper's identity check: the two byte counts differ by at most
    ``threshold`` of the larger one."""
    return relative_size_difference(v4_bytes, v6_bytes) <= threshold
