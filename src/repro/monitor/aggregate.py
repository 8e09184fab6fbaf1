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

from ..data.columnar import (
    TABLE_SCHEMAS,
    ColumnarDatabase,
    encode_compact,
    iter_json_object,
)
from ..errors import MonitorError
from .database import SERIAL_FORMAT
from .vantage import VantagePoint

#: tables a database's wire form carries only when they hold rows, so
#: campaigns without faults or the NAT64 axis keep their historical
#: canonical form (and content digest) bit for bit.
_OPTIONAL_TABLES = ("faults", "transitions")


def _wire_keys(cdb: ColumnarDatabase) -> list[str]:
    """The keys of one database's wire form, in insertion order."""
    return ["format", "vantage_name"] + [
        name
        for name in TABLE_SCHEMAS
        if name not in _OPTIONAL_TABLES or cdb.tables[name].n_rows
    ]


def _wire_value(cdb: ColumnarDatabase, key: str):
    """One wire value: the format, the vantage name, or a table's rows."""
    if key == "format":
        return SERIAL_FORMAT
    if key == "vantage_name":
        return cdb.vantage_name
    return cdb.tables[key].rows()


@dataclass
class CentralRepository:
    """Aggregated measurement data across vantage points."""

    _vantages: dict[str, VantagePoint] = field(default_factory=dict)
    _databases: dict[str, ColumnarDatabase] = field(default_factory=dict)

    def add(self, vantage: VantagePoint, database: ColumnarDatabase) -> None:
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

    def database(self, name: str) -> ColumnarDatabase:
        if name not in self._databases:
            raise MonitorError(f"unknown vantage {name!r}")
        return self._databases[name]

    def analysis_vantages(self) -> list[VantagePoint]:
        """Vantage points usable for path analysis (AS_PATH available).

        The paper restricts the H1/H2 analysis to vantage points with a
        "Y" in Table 1's AS PATH column.
        """
        return [v for v in self._vantages.values() if v.as_path_available]

    def items(self) -> list[tuple[VantagePoint, ColumnarDatabase]]:
        return [
            (self._vantages[name], self._databases[name])
            for name in self._vantages
        ]

    def analysis_items(self) -> list[tuple[VantagePoint, ColumnarDatabase]]:
        return [
            (vantage, self._databases[vantage.name])
            for vantage in self.analysis_vantages()
        ]

    def common_dual_stack_sites(self) -> set[int]:
        """Sites measured dual-stack from every analysis vantage point
        (one pass over each vantage's downloads table).  Lazily imported:
        ``repro.data.series`` is not needed to build a repository."""
        from ..data.series import dual_stack_sites

        items = self.analysis_items()
        if not items:
            return set()
        common = set(dual_stack_sites(items[0][1]))
        for _, cdb in items[1:]:
            common &= set(dual_stack_sites(cdb))
        return common

    def __len__(self) -> int:
        return len(self._vantages)

    # -- the content digest ------------------------------------------------------

    def to_dict(self) -> dict:
        """The wire form: vantage roster plus every database's tables as
        rows (the content digest's definition)."""
        return {
            "vantages": [v.to_dict() for v in self._vantages.values()],
            "databases": {
                name: {key: _wire_value(cdb, key) for key in _wire_keys(cdb)}
                for name, cdb in self._databases.items()
            },
        }

    def iter_canonical_json(self):
        """Chunks of ``json.dumps(to_dict(), sort_keys=True,
        separators=(",", ":"))``, streamed from the columns one table at a
        time (wire values are scalars or lists, which ``sort_keys`` leaves
        untouched)."""

        def members(cdb: ColumnarDatabase):
            for key in sorted(_wire_keys(cdb)):
                if key in cdb.tables:
                    yield key, (cdb.tables[key].rows_json(),)
                else:
                    yield key, (encode_compact(_wire_value(cdb, key)),)

        yield '{"databases":'
        yield from iter_json_object(
            (name, iter_json_object(members(self._databases[name])))
            for name in sorted(self._databases)
        )
        vantages = [v.to_dict() for v in self._vantages.values()]
        yield ',"vantages":' + json.dumps(
            vantages, sort_keys=True, separators=(",", ":")
        ) + "}"

    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON form of every table.

        Two repositories holding bit-identical measurement data produce
        the same digest regardless of which execution backend (or
        process) produced them — the engine's equivalence tests and the
        CI serial-vs-process gate compare exactly this value.
        """
        digest = hashlib.sha256()
        for chunk in self.iter_canonical_json():
            digest.update(chunk.encode("ascii"))
        return digest.hexdigest()
