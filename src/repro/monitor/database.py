"""The measurement database's write buffer.

The paper's tool stores each round's results "in several tables in a
mysql database".  :class:`MeasurementDatabase` is where one vantage
point's rounds land while its shard runs: the round plane writes each
table once per round through the bulk writers below, which enforce the
monotone-round order the tables keep.  When the shard ends,
:meth:`MeasurementDatabase.freeze` turns the buffer into the
:class:`~repro.data.columnar.ColumnarDatabase` every later reader uses
(the central repository, the store, the analysis, the observers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..data.columnar import (
    FAULT_KINDS,
    TRANSITION_KINDS,
    ColumnarDatabase,
    columnar_view,
)
from ..errors import MonitorError
from ..net.addresses import AddressFamily

#: version of the tables' wire layout (the rows behind the content digest
#: and the store's table layout); part of every store config digest.
SERIAL_FORMAT = 1


class DnsObservation(NamedTuple):
    """Outcome of the A/AAAA query phase for one site-round."""

    site_id: int
    name: str
    round_idx: int
    has_v4: bool
    has_v6: bool
    #: whether the site was on the *current* top list this round (the
    #: monitor also re-queries previously seen and externally fed sites).
    listed: bool = True


class PageCheck(NamedTuple):
    """Outcome of the page-identity phase for one site-round."""

    site_id: int
    round_idx: int
    v4_bytes: int
    v6_bytes: int
    identical: bool


class DownloadObservation(NamedTuple):
    """The repeated-download statistics of one (site, family, round)."""

    site_id: int
    round_idx: int
    family: AddressFamily
    n_samples: int
    mean_speed: float  # kbytes/sec
    ci_half_width: float
    converged: bool
    page_bytes: int
    timestamp: float


class PathObservation(NamedTuple):
    """The BGP view of one (site, family, round)."""

    site_id: int
    round_idx: int
    family: AddressFamily
    dest_asn: int
    as_path: tuple[int, ...]


class FaultObservation(NamedTuple):
    """One injected failure the monitor observed (and possibly retried).

    ``kind`` is one of :data:`FAULT_KINDS`: the two DNS kinds come from
    the resolver, "timeout"/"reset" from failed download attempts, and
    the two "*exhausted" kinds mark a site-family-round abandoned after
    the retry budget ran out.
    """

    site_id: int
    round_idx: int
    family: AddressFamily
    kind: str


class TransitionObservation(NamedTuple):
    """The transition mechanism behind one measured (site, round) IPv6 flow.

    Recorded only when the scenario's NAT64/DNS64 axis is enabled —
    legacy campaigns carry no transitions table and their wire form (and
    digests) stay bit-identical.
    """

    site_id: int
    round_idx: int
    kind: str


@dataclass
class MeasurementDatabase:
    """One vantage point's tables while its shard runs."""

    vantage_name: str
    #: full DNS observations are retained for dual-stack sites only; the
    #: v4-only majority is aggregated into per-round counters to keep
    #: memory proportional to the interesting population.
    dns: dict[int, list[DnsObservation]] = field(default_factory=dict)
    #: round -> (n_queried, n_with_v4, n_with_v6).
    dns_counts: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    page_checks: dict[int, list[PageCheck]] = field(default_factory=dict)
    downloads: dict[tuple[int, AddressFamily], list[DownloadObservation]] = field(
        default_factory=dict
    )
    paths: dict[tuple[int, AddressFamily], list[PathObservation]] = field(
        default_factory=dict
    )
    #: injected failures in observation order (empty in fault-free runs).
    faults: list[FaultObservation] = field(default_factory=list)
    #: per-(site, round) IPv6 transition kinds in observation order
    #: (empty unless the NAT64/DNS64 axis records them).
    transitions: list[TransitionObservation] = field(default_factory=list)

    # -- bulk writes ----------------------------------------------------------
    #
    # The round plane materializes a whole round's rows in dispatch order
    # and lands them here in one call per table.  Rows of one key (site,
    # or site and family) must arrive in ascending round order.

    def add_dns_round(
        self,
        round_idx: int,
        listed_counts: tuple[int, int, int],
        rows: "list[DnsObservation]",
    ) -> None:
        """One round's DNS phase in bulk.

        ``listed_counts`` is the pre-aggregated (queried, has_v4, has_v6)
        contribution of the round's *top-list* queries — single-stack
        sites only ever touch those tallies, so the round plan skips
        materializing their rows entirely.  ``rows`` are the dual-stack
        observations, in dispatch order.
        """
        n_listed, n_v4, n_v6 = listed_counts
        if n_listed:
            queried, v4, v6 = self.dns_counts.get(round_idx, (0, 0, 0))
            self.dns_counts[round_idx] = (
                queried + n_listed,
                v4 + n_v4,
                v6 + n_v6,
            )
        self._append_grouped(self.dns, rows, lambda obs: obs.site_id)

    def add_page_checks(self, rows: "list[PageCheck]") -> None:
        self._append_grouped(self.page_checks, rows, lambda obs: obs.site_id)

    def add_downloads(self, rows: "list[DownloadObservation]") -> None:
        self._append_grouped(
            self.downloads, rows, lambda obs: (obs.site_id, obs.family)
        )

    def add_paths(self, rows: "list[PathObservation]") -> None:
        self._append_grouped(
            self.paths, rows, lambda obs: (obs.site_id, obs.family)
        )

    def add_fault(self, obs: FaultObservation) -> None:
        self._append_kind(self.faults, obs, FAULT_KINDS, "fault")

    def add_transitions(self, rows: "list[TransitionObservation]") -> None:
        for obs in rows:
            self._append_kind(self.transitions, obs, TRANSITION_KINDS, "transition")

    @staticmethod
    def _append_grouped(groups: dict, rows: list, key_of) -> None:
        for obs in rows:
            key = key_of(obs)
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
            elif group[-1].round_idx >= obs.round_idx:
                raise MonitorError(
                    f"out-of-order insert for site {obs.site_id}: "
                    f"round {obs.round_idx} after {group[-1].round_idx}"
                )
            group.append(obs)

    @staticmethod
    def _append_kind(rows: list, obs, kinds: tuple[str, ...], what: str) -> None:
        if obs.kind not in kinds:
            raise MonitorError(f"unknown {what} kind {obs.kind!r}")
        if rows and rows[-1].round_idx > obs.round_idx:
            raise MonitorError(
                f"out-of-order {what} insert: round {obs.round_idx} "
                f"after {rows[-1].round_idx}"
            )
        rows.append(obs)

    # -- the one exit -----------------------------------------------------------

    def freeze(self) -> ColumnarDatabase:
        """Every table as typed columns, in wire row order (see
        :func:`~repro.data.columnar.columnar_view`)."""
        return columnar_view(self)
