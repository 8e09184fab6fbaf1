"""The measurement database.

The paper's tool stores each round's results "in several tables in a
mysql database".  :class:`MeasurementDatabase` is that schema in memory:
DNS observations, page-identity checks, per-round download statistics,
and AS-path observations — one database per vantage point, merged later
by the central repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MonitorError
from ..net.addresses import AddressFamily

#: serialization format version of :meth:`MeasurementDatabase.to_dict`
#: (and the engine's shard/store payloads); bumped on layout changes.
SERIAL_FORMAT = 1


@dataclass(frozen=True, slots=True)
class DnsObservation:
    """Outcome of the A/AAAA query phase for one site-round."""

    site_id: int
    name: str
    round_idx: int
    has_v4: bool
    has_v6: bool
    #: whether the site was on the *current* top list this round (the
    #: monitor also re-queries previously seen and externally fed sites).
    listed: bool = True

    @property
    def dual_stack(self) -> bool:
        return self.has_v4 and self.has_v6


@dataclass(frozen=True, slots=True)
class PageCheck:
    """Outcome of the page-identity phase for one site-round."""

    site_id: int
    round_idx: int
    v4_bytes: int
    v6_bytes: int
    identical: bool


@dataclass(frozen=True, slots=True)
class DownloadObservation:
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


@dataclass(frozen=True, slots=True)
class PathObservation:
    """The BGP view of one (site, family, round)."""

    site_id: int
    round_idx: int
    family: AddressFamily
    dest_asn: int
    as_path: tuple[int, ...]


#: fault kinds recorded by the monitor (injected failures only — a
#: structurally unreachable destination is not a fault).
FAULT_KINDS = (
    "dns_timeout",
    "dns_exhausted",
    "timeout",
    "reset",
    "exhausted",
)


@dataclass(frozen=True, slots=True)
class FaultObservation:
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


#: how a measured IPv6 connection actually crossed the Internet:
#: natively routed end to end, through a 6to4/broker tunnel, or
#: NAT64-translated onto an IPv4 leg.  Order is the wire dictionary.
TRANSITION_KINDS = (
    "native",
    "tunneled",
    "translated",
)


@dataclass(frozen=True, slots=True)
class TransitionObservation:
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
    """All tables for one vantage point, with query helpers."""

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
    #: memoized :meth:`dual_stack_sites` result; invalidated on download
    #: writes (the only table that query reads).
    _dual_stack_cache: list[int] | None = field(
        default=None, repr=False, compare=False
    )
    #: memoized columnar view (:func:`repro.data.columnar.columnar_view`);
    #: any table write invalidates.
    _columnar_cache: object | None = field(
        default=None, repr=False, compare=False
    )

    # -- writes --------------------------------------------------------------

    def add_dns(self, obs: DnsObservation) -> None:
        if obs.listed:
            queried, v4, v6 = self.dns_counts.get(obs.round_idx, (0, 0, 0))
            self.dns_counts[obs.round_idx] = (
                queried + 1,
                v4 + int(obs.has_v4),
                v6 + int(obs.has_v6),
            )
        if obs.dual_stack:
            self._append_in_order(self.dns.setdefault(obs.site_id, []), obs)
        self._columnar_cache = None

    def v6_reachability(self, round_idx: int) -> float:
        """AAAA share among the round's *top-list* queries (Fig 1's metric).

        Previously-seen and externally-imported sites keep being
        monitored but do not enter this fraction, matching the paper's
        definition over the current top list.
        """
        queried, _, v6 = self.dns_counts.get(round_idx, (0, 0, 0))
        return v6 / queried if queried else 0.0

    def add_page_check(self, check: PageCheck) -> None:
        self._append_in_order(self.page_checks.setdefault(check.site_id, []), check)
        self._columnar_cache = None

    def add_download(self, obs: DownloadObservation) -> None:
        key = (obs.site_id, obs.family)
        self._append_in_order(self.downloads.setdefault(key, []), obs)
        self._dual_stack_cache = None
        self._columnar_cache = None

    def add_path(self, obs: PathObservation) -> None:
        key = (obs.site_id, obs.family)
        rows = self.paths.setdefault(key, [])
        self._append_in_order(rows, obs)
        self._columnar_cache = None

    def add_fault(self, obs: FaultObservation) -> None:
        if obs.kind not in FAULT_KINDS:
            raise MonitorError(f"unknown fault kind {obs.kind!r}")
        if self.faults and self.faults[-1].round_idx > obs.round_idx:
            raise MonitorError(
                f"out-of-order fault insert: round {obs.round_idx} "
                f"after {self.faults[-1].round_idx}"
            )
        self.faults.append(obs)
        self._columnar_cache = None

    def add_transition(self, obs: TransitionObservation) -> None:
        if obs.kind not in TRANSITION_KINDS:
            raise MonitorError(f"unknown transition kind {obs.kind!r}")
        if self.transitions and self.transitions[-1].round_idx > obs.round_idx:
            raise MonitorError(
                f"out-of-order transition insert: round {obs.round_idx} "
                f"after {self.transitions[-1].round_idx}"
            )
        self.transitions.append(obs)
        self._columnar_cache = None

    # -- batched writes --------------------------------------------------------
    #
    # The batched execution plane materializes a whole round's rows in
    # dispatch order and lands them here in one call per table.  Each
    # method applies the exact per-row logic of its scalar counterpart
    # (same dict-insertion order, same monotonicity checks), so the wire
    # form — and every digest over it — is byte-identical; only the
    # per-row call overhead and repeated cache invalidations go away.

    def add_dns_round(
        self,
        round_idx: int,
        listed_counts: tuple[int, int, int],
        rows: "list[DnsObservation]",
    ) -> None:
        """One round's DNS phase in bulk.

        ``listed_counts`` is the pre-aggregated (queried, has_v4, has_v6)
        contribution of the round's *top-list* queries — single-stack
        sites only ever touch those tallies, so the batched plan skips
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
        dns = self.dns
        for obs in rows:
            site_rows = dns.get(obs.site_id)
            if site_rows is None:
                site_rows = dns[obs.site_id] = []
            self._append_in_order(site_rows, obs)
        self._columnar_cache = None

    def add_page_checks(self, rows: "list[PageCheck]") -> None:
        page_checks = self.page_checks
        for check in rows:
            site_rows = page_checks.get(check.site_id)
            if site_rows is None:
                site_rows = page_checks[check.site_id] = []
            self._append_in_order(site_rows, check)
        self._columnar_cache = None

    def add_downloads(self, rows: "list[DownloadObservation]") -> None:
        downloads = self.downloads
        for obs in rows:
            key = (obs.site_id, obs.family)
            site_rows = downloads.get(key)
            if site_rows is None:
                site_rows = downloads[key] = []
            self._append_in_order(site_rows, obs)
        self._dual_stack_cache = None
        self._columnar_cache = None

    def add_paths(self, rows: "list[PathObservation]") -> None:
        paths = self.paths
        for obs in rows:
            key = (obs.site_id, obs.family)
            site_rows = paths.get(key)
            if site_rows is None:
                site_rows = paths[key] = []
            self._append_in_order(site_rows, obs)
        self._columnar_cache = None

    def add_transitions(self, rows: "list[TransitionObservation]") -> None:
        transitions = self.transitions
        for obs in rows:
            if obs.kind not in TRANSITION_KINDS:
                raise MonitorError(f"unknown transition kind {obs.kind!r}")
            if transitions and transitions[-1].round_idx > obs.round_idx:
                raise MonitorError(
                    f"out-of-order transition insert: round {obs.round_idx} "
                    f"after {transitions[-1].round_idx}"
                )
            transitions.append(obs)
        self._columnar_cache = None

    @staticmethod
    def _append_in_order(rows: list, obs) -> None:
        if rows and rows[-1].round_idx >= obs.round_idx:
            raise MonitorError(
                f"out-of-order insert for site {obs.site_id}: "
                f"round {obs.round_idx} after {rows[-1].round_idx}"
            )
        rows.append(obs)

    # -- per-site queries ------------------------------------------------------

    def speeds(self, site_id: int, family: AddressFamily) -> list[float]:
        """Per-round mean speeds, in round order (converged rounds only)."""
        rows = self.downloads.get((site_id, family), [])
        return [row.mean_speed for row in rows if row.converged]

    def download_rounds(self, site_id: int, family: AddressFamily) -> list[int]:
        rows = self.downloads.get((site_id, family), [])
        return [row.round_idx for row in rows if row.converged]

    def sample_count(self, site_id: int, family: AddressFamily) -> int:
        """Number of converged measurement rounds for a site-family."""
        return len(self.speeds(site_id, family))

    def dest_asn(self, site_id: int, family: AddressFamily) -> int | None:
        """Destination AS of the site's address in ``family`` (latest)."""
        rows = self.paths.get((site_id, family), [])
        return rows[-1].dest_asn if rows else None

    def as_path(self, site_id: int, family: AddressFamily) -> tuple[int, ...] | None:
        """The most frequently observed AS path (ties: latest wins)."""
        rows = self.paths.get((site_id, family), [])
        if not rows:
            return None
        counts: dict[tuple[int, ...], int] = {}
        for row in rows:
            counts[row.as_path] = counts.get(row.as_path, 0) + 1
        best = max(counts.values())
        for row in reversed(rows):
            if counts[row.as_path] == best:
                return row.as_path
        return rows[-1].as_path  # pragma: no cover - unreachable

    def path_change_rounds(self, site_id: int, family: AddressFamily) -> list[int]:
        """Rounds at which the observed AS path differed from the previous."""
        rows = self.paths.get((site_id, family), [])
        changes: list[int] = []
        for prev, cur in zip(rows, rows[1:]):
            if prev.as_path != cur.as_path:
                changes.append(cur.round_idx)
        return changes

    # -- population queries ------------------------------------------------------

    def dual_stack_sites(self) -> list[int]:
        """Sites with converged download data in both families.

        This is Table 2's "Sites (total)" population: accessible — and
        measured — over both IPv4 and IPv6.  Memoized (every analysis
        layer asks for it repeatedly); download writes invalidate.
        """
        if self._dual_stack_cache is None:
            v4 = {sid for (sid, fam) in self.downloads if fam is AddressFamily.IPV4}
            v6 = {sid for (sid, fam) in self.downloads if fam is AddressFamily.IPV6}
            self._dual_stack_cache = sorted(
                sid
                for sid in v4 & v6
                if self.sample_count(sid, AddressFamily.IPV4) > 0
                and self.sample_count(sid, AddressFamily.IPV6) > 0
            )
        return list(self._dual_stack_cache)

    def destination_ases(self, family: AddressFamily) -> set[int]:
        """Distinct destination ASes across measured sites (Table 2)."""
        return {
            rows[-1].dest_asn
            for (sid, fam), rows in self.paths.items()
            if fam is family and rows
        }

    def ases_crossed(self, family: AddressFamily) -> set[int]:
        """All ASes on any observed path, destination included (Table 2).

        The vantage point's own AS is not counted as "crossed".
        """
        crossed: set[int] = set()
        for (sid, fam), rows in self.paths.items():
            if fam is not family:
                continue
            for row in rows:
                crossed.update(row.as_path[1:])
        return crossed

    def transition_counts(self, round_idx: int | None = None) -> dict[str, int]:
        """IPv6 transition-kind counts, overall or for one round."""
        counts: dict[str, int] = {}
        for obs in self.transitions:
            if round_idx is not None and obs.round_idx != round_idx:
                continue
            counts[obs.kind] = counts.get(obs.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.downloads.values())

    # -- serialization ------------------------------------------------------------

    def __reduce__(self):
        """Pickle as the wire form: a process-pool shard result crosses
        back to its parent as exactly the rows the store writes (cheaper
        to pickle than the row objects)."""
        return (MeasurementDatabase.from_dict, (self.to_dict(),))

    def to_dict(self) -> dict:
        """Compact JSON-ready form of every table.

        The wire format of the execution engine: shard results cross
        process boundaries and land in the on-disk campaign store in
        exactly this shape.  Row order (and therefore dict insertion
        order) is preserved, so ``from_dict(db.to_dict())`` rebuilds a
        database whose iteration order — and canonical JSON digest —
        matches the original bit for bit.
        """
        data = {
            "format": SERIAL_FORMAT,
            "vantage_name": self.vantage_name,
            "dns": [
                [o.site_id, o.name, o.round_idx, o.has_v4, o.has_v6, o.listed]
                for rows in self.dns.values()
                for o in rows
            ],
            "dns_counts": [
                [round_idx, queried, v4, v6]
                for round_idx, (queried, v4, v6) in self.dns_counts.items()
            ],
            "page_checks": [
                [c.site_id, c.round_idx, c.v4_bytes, c.v6_bytes, c.identical]
                for rows in self.page_checks.values()
                for c in rows
            ],
            "downloads": [
                [
                    o.site_id, o.family.value, o.round_idx, o.n_samples,
                    o.mean_speed, o.ci_half_width, o.converged, o.page_bytes,
                    o.timestamp,
                ]
                for rows in self.downloads.values()
                for o in rows
            ],
            "paths": [
                [o.site_id, o.family.value, o.round_idx, o.dest_asn,
                 list(o.as_path)]
                for rows in self.paths.values()
                for o in rows
            ],
        }
        if self.faults:
            # Emitted only when nonempty so fault-free databases keep their
            # historical canonical form (and content digest) bit for bit.
            data["faults"] = [
                [o.site_id, o.family.value, o.round_idx, o.kind]
                for o in self.faults
            ]
        if self.transitions:
            # Same optional-key rule: campaigns without the NAT64 axis
            # serialize (and digest) exactly as before it existed.
            data["transitions"] = [
                [o.site_id, o.round_idx, o.kind] for o in self.transitions
            ]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementDatabase":
        """Rebuild a database from :meth:`to_dict` output.

        Rows are re-appended through the same ordered-insert path the
        monitor uses, so the monotone-round invariant is re-validated on
        load and stays enforced for writes made after loading.
        """
        fmt = data.get("format")
        if fmt != SERIAL_FORMAT:
            raise MonitorError(
                f"unsupported database serialization format {fmt!r} "
                f"(expected {SERIAL_FORMAT})"
            )
        db = cls(vantage_name=data["vantage_name"])
        for site_id, name, round_idx, has_v4, has_v6, listed in data["dns"]:
            obs = DnsObservation(
                site_id=site_id, name=name, round_idx=round_idx,
                has_v4=has_v4, has_v6=has_v6, listed=listed,
            )
            # dns_counts is restored verbatim below; bypass the counter
            # update add_dns would apply for listed observations.
            db._append_in_order(db.dns.setdefault(obs.site_id, []), obs)
        db.dns_counts = {
            round_idx: (queried, v4, v6)
            for round_idx, queried, v4, v6 in data["dns_counts"]
        }
        for site_id, round_idx, v4_bytes, v6_bytes, identical in data["page_checks"]:
            db.add_page_check(
                PageCheck(
                    site_id=site_id, round_idx=round_idx,
                    v4_bytes=v4_bytes, v6_bytes=v6_bytes, identical=identical,
                )
            )
        for row in data["downloads"]:
            (site_id, family, round_idx, n_samples, mean_speed,
             ci_half_width, converged, page_bytes, timestamp) = row
            db.add_download(
                DownloadObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=AddressFamily(family),
                    n_samples=n_samples,
                    mean_speed=mean_speed,
                    ci_half_width=ci_half_width,
                    converged=converged,
                    page_bytes=page_bytes,
                    timestamp=timestamp,
                )
            )
        for site_id, family, round_idx, dest_asn, as_path in data["paths"]:
            db.add_path(
                PathObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=AddressFamily(family),
                    dest_asn=dest_asn,
                    as_path=tuple(as_path),
                )
            )
        for site_id, family, round_idx, kind in data.get("faults", []):
            db.add_fault(
                FaultObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=AddressFamily(family),
                    kind=kind,
                )
            )
        for site_id, round_idx, kind in data.get("transitions", []):
            db.add_transition(
                TransitionObservation(
                    site_id=site_id, round_idx=round_idx, kind=kind
                )
            )
        return db
