"""The central repository.

"A common repository at Penn aggregates the measurement data from the
different vantage points."  :class:`CentralRepository` is that box: it
holds every vantage point's database and answers the cross-vantage
queries the analysis needs (which vantage points have AS_PATH data, which
sites are common, per-AS categories from several viewpoints).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import MonitorError
from .database import MeasurementDatabase
from .vantage import VantagePoint

#: the compact wire encoding, run by the one-shot C encoder.
encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def iter_json_object(members):
    """Chunks of one compact JSON object from ``(key, value chunks)`` pairs."""
    yield "{"
    for i, (key, chunks) in enumerate(members):
        yield ("," if i else "") + encode_compact(key) + ":"
        yield from chunks
    yield "}"


@dataclass
class CentralRepository:
    """Aggregated measurement data across vantage points."""

    _vantages: dict[str, VantagePoint] = field(default_factory=dict)
    _databases: dict[str, MeasurementDatabase] = field(default_factory=dict)

    def add(self, vantage: VantagePoint, database: MeasurementDatabase) -> None:
        if vantage.name in self._vantages:
            raise MonitorError(f"vantage {vantage.name!r} already registered")
        if database.vantage_name != vantage.name:
            raise MonitorError(
                f"database belongs to {database.vantage_name!r}, "
                f"not {vantage.name!r}"
            )
        self._vantages[vantage.name] = vantage
        self._databases[vantage.name] = database

    @property
    def vantage_names(self) -> list[str]:
        return list(self._vantages)

    def vantage(self, name: str) -> VantagePoint:
        if name not in self._vantages:
            raise MonitorError(f"unknown vantage {name!r}")
        return self._vantages[name]

    def database(self, name: str) -> MeasurementDatabase:
        if name not in self._databases:
            raise MonitorError(f"unknown vantage {name!r}")
        return self._databases[name]

    def analysis_vantages(self) -> list[VantagePoint]:
        """Vantage points usable for path analysis (AS_PATH available).

        The paper restricts the H1/H2 analysis to vantage points with a
        "Y" in Table 1's AS PATH column.
        """
        return [v for v in self._vantages.values() if v.as_path_available]

    def items(self) -> list[tuple[VantagePoint, MeasurementDatabase]]:
        return [
            (self._vantages[name], self._databases[name])
            for name in self._vantages
        ]

    def analysis_items(self) -> list[tuple[VantagePoint, MeasurementDatabase]]:
        return [
            (vantage, self._databases[vantage.name])
            for vantage in self.analysis_vantages()
        ]

    def common_dual_stack_sites(self) -> set[int]:
        """Sites measured dual-stack from every analysis vantage point.

        Reads each vantage's columnar series index (one pass over its
        downloads table) — lazily imported because ``repro.data``
        imports this module.
        """
        from ..data.columnar import columnar_view
        from ..data.series import dual_stack_sites

        items = self.analysis_items()
        if not items:
            return set()
        common = set(dual_stack_sites(columnar_view(items[0][1])))
        for _, db in items[1:]:
            common &= set(dual_stack_sites(columnar_view(db)))
        return common

    def __len__(self) -> int:
        return len(self._vantages)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form: vantage roster plus every database."""
        return {
            "vantages": [v.to_dict() for v in self._vantages.values()],
            "databases": {
                name: db.to_dict() for name, db in self._databases.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CentralRepository":
        """Rebuild a repository from :meth:`to_dict` output."""
        repository = cls()
        for vantage_data in data["vantages"]:
            vantage = VantagePoint.from_dict(vantage_data)
            repository.add(
                vantage,
                MeasurementDatabase.from_dict(data["databases"][vantage.name]),
            )
        return repository

    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON form of every table.

        Two repositories holding bit-identical measurement data produce
        the same digest regardless of which execution backend (or
        process) produced them — the engine's equivalence tests and the
        CI serial-vs-process gate compare exactly this value.
        """
        encoding = WireEncoding(self)
        for name, db in self._databases.items():
            encoding.add(name, db.to_dict())
        return encoding.content_digest()


class WireEncoding:
    """A repository's :meth:`~CentralRepository.to_dict` form, JSON-encoded
    once per table.

    The compact :meth:`iter_json` text and the sorted-key text behind
    :meth:`content_digest` are both framed from the same encoded tables.
    Wire values are scalars or lists, which ``sort_keys`` leaves untouched.
    """

    def __init__(self, repository: CentralRepository) -> None:
        self.vantages = [v.to_dict() for v in repository._vantages.values()]
        #: vantage name -> wire key -> its encoded JSON value.
        self.databases: dict[str, dict[str, str]] = {}

    def add(self, name: str, data: dict) -> None:
        """Encode one database's :meth:`MeasurementDatabase.to_dict` output."""
        self.databases[name] = {
            key: encode_compact(value) for key, value in data.items()
        }

    def _iter_databases(self, order):
        return iter_json_object(
            (name, iter_json_object((key, (tables[key],)) for key in order(tables)))
            for name, tables in order(self.databases.items())
        )

    def iter_json(self):
        """Chunks of ``json.dumps(to_dict(), separators=(",", ":"))``."""
        yield '{"vantages":' + encode_compact(self.vantages) + ',"databases":'
        yield from self._iter_databases(list)
        yield "}"

    def content_digest(self) -> str:
        """:meth:`CentralRepository.content_digest`: the same dict dumped
        with ``sort_keys=True``, hashed chunk by chunk (``ensure_ascii``
        keeps every chunk ASCII)."""
        vantages = json.dumps(self.vantages, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(b'{"databases":')
        for chunk in self._iter_databases(sorted):
            digest.update(chunk.encode("ascii"))
        digest.update(f',"vantages":{vantages}}}'.encode("ascii"))
        return digest.hexdigest()
