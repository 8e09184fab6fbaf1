"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are grouped by subsystem and
carry enough context in their message to diagnose a failure without a
debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A scenario or subsystem configuration is inconsistent or out of range."""


class AddressError(ReproError):
    """An IP address or prefix could not be parsed or is malformed."""


class AllocationError(ReproError):
    """The address allocator ran out of space or received a bad request."""


class TopologyError(ReproError):
    """The AS-level topology is malformed (unknown AS, duplicate link, ...)."""


class RoutingError(ReproError):
    """Route computation failed (unknown destination, no valley-free path)."""


class DnsError(ReproError):
    """Base class for DNS resolution failures."""


class NxDomain(DnsError):
    """The queried name does not exist in any authoritative zone."""


class DownloadError(ReproError):
    """A simulated page download could not be performed."""


class UnreachableError(DownloadError):
    """No forwarding path exists from the vantage point to the server."""


class MonitorError(ReproError):
    """The monitoring tool was driven incorrectly (bad round order, ...)."""


class EngineError(ReproError):
    """The execution engine was misused or a shard could not be executed."""


class DataError(ReproError):
    """A columnar payload or query is malformed or references unknown data."""
