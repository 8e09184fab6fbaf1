"""The on-disk campaign store (the cache's second tier).

``experiments.scenario`` used to cache campaigns in process memory only,
so every CLI invocation rebuilt the world and re-ran the campaign from
scratch.  :class:`CampaignStore` persists a completed campaign under
``.repro-cache/`` keyed by a stable content digest of its
:class:`~repro.config.ScenarioConfig`, so a second ``repro run-all`` with
an intact cache directory skips both the world build and the campaign.

Layout (one directory per campaign)::

    <root>/campaigns/<digest>/
        meta.json          store format, digest, kind, config snapshot
        repository.json    CentralRepository.to_dict() (every table)
        columnar.json      ColumnarRepository payload (repro.data)
        columnar.bin       binary columnar artifact (fast cold loads)
        reports.json       per-vantage RoundReport dicts
        world.pkl          pickled World (best effort; absent ok)
        observers/<name>.json   canonical ObserverReport artifacts

``repository.json`` and ``reports.json`` are the same compact dict forms
shard results use to cross process boundaries, so a store entry is
readable without this package's monitor.  The world pickle is an
optimisation only: when it is missing or unreadable the world is rebuilt
from the config and the stored measurement data is still used.

``columnar.bin`` is the load-time fast path: the serving layer decodes
it lazily (table granularity, zero-copy buffers) with its sha256
verified on every load.  A corrupt or truncated binary is a *warned
fallback*, not a miss — ``columnar.json`` remains the canonical
interchange form and is transposed from ``repository.json`` when even
that is absent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import pickle
from dataclasses import dataclass

from ..config import ScenarioConfig
from ..errors import ReproError
from ..monitor.aggregate import CentralRepository, WireEncoding
from ..monitor.database import SERIAL_FORMAT
from ..monitor.tool import RoundReport
from ..obs import get_logger, metrics, span

_LOG = get_logger("engine.store")

#: store layout version; bumped on incompatible changes (also part of the
#: digest, so old entries simply miss instead of failing to parse).
STORE_FORMAT = 1

#: default cache root, overridable via the ``REPRO_CACHE_DIR`` env var.
DEFAULT_CACHE_ROOT = ".repro-cache"

#: disk-tier effectiveness counters (module-cached; obs resets in place).
_STORE_HITS = metrics.counter("engine.store.hits")
_STORE_MISSES = metrics.counter("engine.store.misses")
_STORE_WRITES = metrics.counter("engine.store.writes")
#: binary-artifact counters: loads served from columnar.bin, and warned
#: fallbacks to JSON after a corrupt/unreadable binary (gated to zero).
_BIN_LOADS = metrics.counter("engine.store.bin_loads")
_BIN_FALLBACKS = metrics.counter("engine.store.bin_fallbacks")

#: the columnar artifact files a store entry may carry, preferred first.
COLUMNAR_ARTIFACTS = ("columnar.bin", "columnar.json")


def config_digest(config: ScenarioConfig, kind: str = "weekly") -> str:
    """Stable content digest identifying one campaign.

    SHA-256 over the canonical JSON of the config's full field tree plus
    the store and database format versions and the campaign kind — the
    same scenario always maps to the same directory, across processes and
    Python versions, and format bumps invalidate cleanly.
    """
    payload = {
        "store_format": STORE_FORMAT,
        "database_format": SERIAL_FORMAT,
        "kind": kind,
        "config": dataclasses.asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoredCampaign:
    """A campaign loaded back from the store."""

    digest: str
    kind: str
    repository: CentralRepository
    reports: dict[str, list[RoundReport]]
    #: the unpickled world, or None when only measurement data survived.
    world: object | None


@dataclass(frozen=True)
class StoreEntry:
    """One campaign directory's identity (meta.json, no table data)."""

    digest: str
    kind: str
    seed: int | None
    repository_digest: str | None
    path: pathlib.Path
    #: meta.json modification time (entries are ordered newest first).
    mtime: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Total bytes of the entry's files (best effort)."""
        total = 0
        try:
            for child in self.path.iterdir():
                try:
                    total += child.stat().st_size
                except OSError:
                    continue
        except OSError:
            pass
        return total

    def artifact_sizes(self) -> dict[str, int]:
        """Bytes per columnar artifact present (``repro cache ls``)."""
        sizes: dict[str, int] = {}
        for name in COLUMNAR_ARTIFACTS:
            try:
                sizes[name] = (self.path / name).stat().st_size
            except OSError:
                continue
        return sizes


class CampaignStore:
    """Content-addressed campaign persistence under one root directory."""

    def __init__(self, root: str | pathlib.Path = DEFAULT_CACHE_ROOT) -> None:
        self.root = pathlib.Path(root)

    def entry_dir(self, digest: str) -> pathlib.Path:
        return self.root / "campaigns" / digest

    def has(self, config: ScenarioConfig, kind: str = "weekly") -> bool:
        return (self.entry_dir(config_digest(config, kind)) / "meta.json").exists()

    # -- enumerate -----------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every valid store entry, newest first (``repro cache ls``)."""
        campaigns = self.root / "campaigns"
        if not campaigns.is_dir():
            return []
        found: list[StoreEntry] = []
        for entry_dir in sorted(campaigns.iterdir()):
            meta_path = entry_dir / "meta.json"
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    continue
                found.append(
                    StoreEntry(
                        digest=meta.get("digest", entry_dir.name),
                        kind=meta.get("kind", "unknown"),
                        seed=meta.get("seed"),
                        repository_digest=meta.get("repository_digest"),
                        path=entry_dir,
                        mtime=meta_path.stat().st_mtime,
                    )
                )
            except (OSError, ValueError, AttributeError):
                # No/unreadable meta.json: not a valid entry; skip.
                continue
        found.sort(key=lambda e: (-e.mtime, e.digest))
        return found

    def prune(self, keep_latest: int) -> list[StoreEntry]:
        """Delete all but the newest ``keep_latest`` entries; returns the
        removed entries (``repro cache prune``)."""
        import shutil

        if keep_latest < 0:
            raise ValueError(f"keep_latest must be >= 0, got {keep_latest}")
        doomed = self.entries()[keep_latest:]
        for entry in doomed:
            shutil.rmtree(entry.path, ignore_errors=True)
            _LOG.info(
                "pruned store entry",
                extra={"digest": entry.digest[:12], "dir": str(entry.path)},
            )
        return doomed

    # -- load --------------------------------------------------------------

    def load(
        self, config: ScenarioConfig, kind: str = "weekly"
    ) -> StoredCampaign | None:
        """Load the stored campaign for ``config``, or None on a miss."""
        digest = config_digest(config, kind)
        entry = self.entry_dir(digest)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            _STORE_MISSES.inc()
            return None
        with span("engine.store.load", digest=digest[:12], kind=kind):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    _STORE_MISSES.inc()
                    return None
                repository = CentralRepository.from_dict(
                    json.loads(
                        (entry / "repository.json").read_text(encoding="utf-8")
                    )
                )
                reports_data = json.loads(
                    (entry / "reports.json").read_text(encoding="utf-8")
                )
                reports = {
                    name: [RoundReport.from_dict(r) for r in rows]
                    for name, rows in reports_data["reports"].items()
                }
            except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
                # Truncated JSON raises ValueError, missing keys KeyError,
                # malformed rows TypeError, and a format/monotonicity
                # violation in the payload a MonitorError (ReproError) —
                # all of them mean "this entry is unusable, recompute".
                _LOG.warning(
                    "unreadable store entry; treating as miss",
                    extra={"digest": digest[:12], "error": str(exc)},
                )
                _STORE_MISSES.inc()
                return None
            world = self._load_world(entry / "world.pkl", digest)
        _STORE_HITS.inc()
        _LOG.info(
            "campaign store hit",
            extra={
                "digest": digest[:12],
                "kind": kind,
                "world_restored": world is not None,
            },
        )
        return StoredCampaign(
            digest=digest,
            kind=kind,
            repository=repository,
            reports=reports,
            world=world,
        )

    def load_repository(
        self, config: ScenarioConfig, kind: str = "weekly"
    ) -> CentralRepository | None:
        """The stored measurement repository only — no reports, no world.

        The ``repro export`` path uses this: serialized DB in, CSVs out,
        without rebuilding the simulation world.
        """
        return self.load_repository_by_digest(config_digest(config, kind))

    def load_repository_by_digest(self, digest: str) -> CentralRepository | None:
        """Like :meth:`load_repository` but addressed by store digest."""
        entry = self.entry_dir(digest)
        if not (entry / "meta.json").exists():
            _STORE_MISSES.inc()
            return None
        with span("engine.store.load_repository", digest=digest[:12]):
            try:
                meta = json.loads(
                    (entry / "meta.json").read_text(encoding="utf-8")
                )
                if meta.get("store_format") != STORE_FORMAT:
                    _STORE_MISSES.inc()
                    return None
                repository = CentralRepository.from_dict(
                    json.loads(
                        (entry / "repository.json").read_text(encoding="utf-8")
                    )
                )
            except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
                _LOG.warning(
                    "unreadable store entry; treating as miss",
                    extra={"digest": digest[:12], "error": str(exc)},
                )
                _STORE_MISSES.inc()
                return None
        _STORE_HITS.inc()
        return repository

    def load_columnar_entry(self, digest: str, prefer_binary: bool = True):
        """One entry's ``(meta, ColumnarRepository)`` — the serving path.

        Prefers the binary ``columnar.bin`` (sha256-verified, lazily
        decoded per table); a corrupt or truncated binary is a warned
        fallback to ``columnar.json``, and entries written before the
        columnar layer existed are transposed from ``repository.json``
        on the fly.  Returns None on a miss or an unreadable entry.
        ``prefer_binary=False`` forces the JSON path (the perf harness
        uses this to time both decoders over the same entry).
        """
        from ..data.columnar import ColumnarRepository, load_columnar_binary
        from ..errors import DataError

        entry = self.entry_dir(digest)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            _STORE_MISSES.inc()
            return None
        with span("engine.store.load_columnar", digest=digest[:12]):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    _STORE_MISSES.inc()
                    return None
                columnar = None
                binary_path = entry / "columnar.bin"
                if prefer_binary and binary_path.exists():
                    try:
                        columnar = load_columnar_binary(binary_path)
                        _BIN_LOADS.inc()
                    except DataError as exc:
                        _BIN_FALLBACKS.inc()
                        _LOG.warning(
                            "corrupt columnar binary; falling back to JSON",
                            extra={"digest": digest[:12], "error": str(exc)},
                        )
                columnar_path = entry / "columnar.json"
                if columnar is None and columnar_path.exists():
                    columnar = ColumnarRepository.from_payload(
                        json.loads(columnar_path.read_text(encoding="utf-8"))
                    )
                if columnar is None:
                    repository = CentralRepository.from_dict(
                        json.loads(
                            (entry / "repository.json").read_text(
                                encoding="utf-8"
                            )
                        )
                    )
                    columnar = ColumnarRepository.from_repository(repository)
            except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
                _LOG.warning(
                    "unreadable store entry; treating as miss",
                    extra={"digest": digest[:12], "error": str(exc)},
                )
                _STORE_MISSES.inc()
                return None
        _STORE_HITS.inc()
        return meta, columnar

    # -- observer reports ----------------------------------------------------

    def observers_dir(self, digest: str) -> pathlib.Path:
        return self.entry_dir(digest) / "observers"

    def save_observer_reports(self, digest: str, reports: dict) -> pathlib.Path:
        """Persist observer reports next to ``columnar.json``.

        ``reports`` maps observer name to
        :class:`~repro.observers.reports.ObserverReport`; each artifact is
        the report's canonical bytes, so the serving layer can return the
        file contents verbatim and still match a fresh recomputation
        byte-for-byte.
        """
        directory = self.observers_dir(digest)
        with span("engine.store.save_observers", digest=digest[:12]):
            directory.mkdir(parents=True, exist_ok=True)
            for name in sorted(reports):
                (directory / f"{name}.json").write_bytes(
                    reports[name].canonical_bytes()
                )
        _LOG.info(
            "observer reports stored",
            extra={"digest": digest[:12], "n_reports": len(reports)},
        )
        return directory

    def load_observer_report(self, digest: str, name: str) -> bytes | None:
        """One persisted report's exact canonical bytes, or None."""
        path = self.observers_dir(digest) / f"{name}.json"
        try:
            return path.read_bytes()
        except OSError:
            return None

    def list_observer_reports(self, digest: str) -> list[str]:
        """Names of the persisted observer reports for one entry, sorted."""
        directory = self.observers_dir(digest)
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.json"))

    @staticmethod
    def _load_world(path: pathlib.Path, digest: str):
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception as exc:  # pickle can raise nearly anything
            _LOG.warning(
                "world pickle unreadable; will rebuild from config",
                extra={"digest": digest[:12], "error": str(exc)},
            )
            return None

    # -- save --------------------------------------------------------------

    def save(
        self,
        config: ScenarioConfig,
        repository: CentralRepository,
        reports: dict[str, list[RoundReport]],
        kind: str = "weekly",
        world: object | None = None,
    ) -> pathlib.Path:
        """Persist one campaign; returns its entry directory."""
        digest = config_digest(config, kind)
        entry = self.entry_dir(digest)
        with span("engine.store.save", digest=digest[:12], kind=kind):
            entry.mkdir(parents=True, exist_ok=True)
            repository_digest = self._save_tables(entry, repository, digest)
            (entry / "reports.json").write_text(
                json.dumps(
                    {
                        "reports": {
                            name: [r.to_dict() for r in rows]
                            for name, rows in reports.items()
                        }
                    },
                    separators=(",", ":"),
                ),
                encoding="utf-8",
            )
            if world is not None:
                self._save_world(entry / "world.pkl", world, digest)
            # meta.json written last: its presence marks the entry valid.
            (entry / "meta.json").write_text(
                json.dumps(
                    {
                        "store_format": STORE_FORMAT,
                        "database_format": SERIAL_FORMAT,
                        "digest": digest,
                        "kind": kind,
                        "seed": config.seed,
                        "repository_digest": repository_digest,
                    },
                    indent=2,
                ),
                encoding="utf-8",
            )
        _STORE_WRITES.inc()
        _LOG.info(
            "campaign stored",
            extra={"digest": digest[:12], "kind": kind, "dir": str(entry)},
        )
        return entry

    @staticmethod
    def _save_tables(
        entry: pathlib.Path, repository: CentralRepository, digest: str
    ) -> str:
        """Write ``repository.json`` and both columnar artifacts from one
        wire conversion per database; returns the repository's content
        digest.  (Lazy import: ``repro.data`` itself imports the monitor
        this module already depends on.)
        """
        from ..data.columnar import (
            ColumnarRepository,
            write_columnar_binary,
            write_columnar_json,
        )

        encoding = WireEncoding(repository)
        columnar = ColumnarRepository.from_repository(
            repository, on_rows=encoding.add
        )
        with open(entry / "repository.json", "w", encoding="utf-8") as handle:
            handle.writelines(encoding.iter_json())
        write_columnar_json(entry / "columnar.json", columnar)
        bin_digest = write_columnar_binary(entry / "columnar.bin", columnar)
        _LOG.debug(
            "columnar artifacts written",
            extra={"digest": digest[:12], "bin_digest": bin_digest[:12]},
        )
        return encoding.content_digest()

    @staticmethod
    def _save_world(path: pathlib.Path, world, digest: str) -> None:
        try:
            with path.open("wb") as handle:
                pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            _LOG.warning(
                "world not picklable; storing measurement data only",
                extra={"digest": digest[:12], "error": str(exc)},
            )
            path.unlink(missing_ok=True)
