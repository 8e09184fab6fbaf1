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
        columnar.bin       every table, binary columnar (repro.data)
        reports.json       per-vantage RoundReport dicts
        world.pkl          pickled World (best effort; absent ok)
        observers/<name>.json   canonical ObserverReport artifacts
    <root>/staging/        saves in progress (never listed as entries),
                           each named ``<digest>.<pid>.<random>``

``columnar.bin`` is the only copy of the measurement data, written
straight from the campaign's frozen columns: every load decodes it
(sha256-verified, lazily per table) and hands the decoded columns to
the caller as they are; no load rebuilds row objects.  A missing,
truncated or corrupt binary makes the entry a warned miss; so does one
whose tables break the monitor's round order (checked on the columns by
:meth:`CampaignStore.load` and :meth:`CampaignStore.load_repository`).
The recomputed campaign's save replaces it.  The world pickle is
an optimisation only: when it is missing or unreadable the world is
rebuilt from the config and the stored measurement data is still used.

Saves are atomic: an entry is written to a fresh directory under
``staging/``, fsynced, and published with one ``os.replace``, so a
reader sees a complete entry or a miss, never half an entry.  A save
killed before it publishes leaves its staging directory behind; the
saving process's pid is part of the directory name, so ``repro cache
prune`` reclaims it once that process is gone, and never touches a live
concurrent save.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import tempfile
from dataclasses import dataclass

from ..config import ScenarioConfig
from ..data import columnar as _columnar
from ..errors import ReproError
from ..monitor.aggregate import CentralRepository
from ..monitor.database import SERIAL_FORMAT
from ..monitor.tool import RoundReport
from ..monitor.vantage import VantagePoint
from ..obs import get_logger, metrics, span

_LOG = get_logger("engine.store")

#: store layout version; bumped on incompatible changes (also part of the
#: digest, so old entries simply miss instead of failing to parse).
STORE_FORMAT = 1

#: default cache root, overridable via the ``REPRO_CACHE_DIR`` env var.
DEFAULT_CACHE_ROOT = ".repro-cache"

#: where saves build an entry before publishing it (outside ``campaigns/``).
STAGING_DIR = "staging"

#: disk-tier effectiveness counters (module-cached; obs resets in place).
_STORE_HITS = metrics.counter("engine.store.hits")
_STORE_MISSES = metrics.counter("engine.store.misses")
_STORE_WRITES = metrics.counter("engine.store.writes")
#: loads served from columnar.bin (every hit decodes it).
_BIN_LOADS = metrics.counter("engine.store.bin_loads")


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

    @property
    def bin_bytes(self) -> int | None:
        """Bytes of ``columnar.bin``, or None when it is missing."""
        try:
            return (self.path / "columnar.bin").stat().st_size
        except OSError:
            return None


class CampaignStore:
    """Content-addressed campaign persistence under one root directory."""

    def __init__(self, root: str | pathlib.Path = DEFAULT_CACHE_ROOT) -> None:
        self.root = pathlib.Path(root)

    def entry_dir(self, digest: str) -> pathlib.Path:
        return self.root / "campaigns" / digest

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
        removed entries (``repro cache prune``).

        Staging directories whose saving process is gone (a save killed
        before it published) are reclaimed too.
        """
        if keep_latest < 0:
            raise ValueError(f"keep_latest must be >= 0, got {keep_latest}")
        doomed = self.entries()[keep_latest:]
        for entry in doomed:
            shutil.rmtree(entry.path, ignore_errors=True)
            _LOG.info(
                "pruned store entry",
                extra={"digest": entry.digest[:12], "dir": str(entry.path)},
            )
        self._reclaim_staging()
        return doomed

    def _reclaim_staging(self) -> None:
        """Remove staging (and ``.retired``) directories of dead saves.

        A directory is reclaimed only when the pid in its name no longer
        names a running process; one whose owner is alive, or whose name
        carries no pid, is left alone.
        """
        staging_root = self.root / STAGING_DIR
        if not staging_root.is_dir():
            return
        for path in sorted(staging_root.iterdir()):
            parts = path.name.split(".")
            if len(parts) < 3 or not parts[1].isdigit():
                continue
            if _pid_alive(int(parts[1])):
                continue
            shutil.rmtree(path, ignore_errors=True)
            _LOG.info("reclaimed orphaned staging dir", extra={"dir": str(path)})

    # -- load --------------------------------------------------------------

    def _read(self, digest: str, span_name: str, read, **attrs):
        """``(meta, read(entry))`` for one valid entry, or None on a miss.

        A missing ``meta.json``, another store format, or an entry that
        ``read`` cannot decode (a truncated, byte-flipped or absent
        ``columnar.bin``, a malformed ``reports.json``) is a counted miss,
        warned about when the entry exists; the caller recomputes and
        its save replaces the entry.
        """
        entry = self.entry_dir(digest)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            _STORE_MISSES.inc()
            return None
        with span(span_name, digest=digest[:12], **attrs):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("store_format") != STORE_FORMAT:
                    _STORE_MISSES.inc()
                    return None
                result = read(entry)
            except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
                # DataError (a ReproError) covers every columnar.bin
                # failure, including tables that break the round order;
                # the rest a malformed reports.json.
                _LOG.warning(
                    "unreadable store entry; treating as miss",
                    extra={"digest": digest[:12], "error": str(exc)},
                )
                _STORE_MISSES.inc()
                return None
        _STORE_HITS.inc()
        return meta, result

    @staticmethod
    def _read_columnar(entry: pathlib.Path) -> _columnar.ColumnarRepository:
        """The entry's ``columnar.bin``, sha256-verified and lazily decoded.

        The codec functions are looked up on their module at call time
        (here and in :meth:`_save_tables`), so a wrapper installed there
        sees every store read and write.
        """
        columnar = _columnar.load_columnar_binary(entry / "columnar.bin")
        _BIN_LOADS.inc()
        return columnar

    @classmethod
    def _read_repository(cls, entry: pathlib.Path) -> CentralRepository:
        """The entry's repository over its decoded columns, every table
        checked against the monitor's round order."""
        columnar = cls._read_columnar(entry)
        repository = CentralRepository()
        for name, vantage_data in columnar.vantages.items():
            cdb = columnar.databases[name]
            _columnar.check_round_order(cdb)
            repository.add(VantagePoint.from_dict(vantage_data), cdb)
        return repository

    def load(
        self, config: ScenarioConfig, kind: str = "weekly"
    ) -> StoredCampaign | None:
        """Load the stored campaign for ``config``, or None on a miss."""
        digest = config_digest(config, kind)

        def read(entry: pathlib.Path):
            repository = self._read_repository(entry)
            reports_data = json.loads(
                (entry / "reports.json").read_text(encoding="utf-8")
            )
            reports = {
                name: [RoundReport.from_dict(r) for r in rows]
                for name, rows in reports_data["reports"].items()
            }
            return repository, reports

        loaded = self._read(digest, "engine.store.load", read, kind=kind)
        if loaded is None:
            return None
        repository, reports = loaded[1]
        world = self._load_world(self.entry_dir(digest) / "world.pkl", digest)
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
        loaded = self._read(
            digest,
            "engine.store.load_repository",
            self._read_repository,
        )
        return None if loaded is None else loaded[1]

    def load_columnar_entry(self, digest: str):
        """One entry's ``(meta, ColumnarRepository)`` — the serving path.

        Decodes ``columnar.bin`` (sha256-verified, lazily decoded per
        table).  Returns None on a miss or an unreadable entry.
        """
        return self._read(digest, "engine.store.load_columnar", self._read_columnar)

    # -- observer reports ----------------------------------------------------

    def observers_dir(self, digest: str) -> pathlib.Path:
        return self.entry_dir(digest) / "observers"

    def save_observer_reports(self, digest: str, reports: dict) -> pathlib.Path:
        """Persist observer reports next to ``columnar.bin``.

        ``reports`` maps observer name to
        :class:`~repro.observers.reports.ObserverReport`; each artifact is
        the report's canonical bytes, so the serving layer can return the
        file contents verbatim and still match a fresh recomputation
        byte-for-byte.  Each file is written under a temporary name and
        moved into place with ``os.replace``, so a reader sees the old
        report or the new one, never a partial file.
        """
        directory = self.observers_dir(digest)
        with span("engine.store.save_observers", digest=digest[:12]):
            directory.mkdir(parents=True, exist_ok=True)
            for name in sorted(reports):
                fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(reports[name].canonical_bytes())
                    os.replace(tmp, directory / f"{name}.json")
                except BaseException:
                    pathlib.Path(tmp).unlink(missing_ok=True)
                    raise
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
        """Persist one campaign; returns its entry directory.

        The entry is written into a fresh directory under ``staging/``,
        fsynced, and published with one ``os.replace``; a save that fails
        part-way leaves the previous entry (or a miss) and removes its
        staging directory.
        """
        digest = config_digest(config, kind)
        entry = self.entry_dir(digest)
        with span("engine.store.save", digest=digest[:12], kind=kind):
            staging_root = self.root / STAGING_DIR
            staging_root.mkdir(parents=True, exist_ok=True)
            staging = pathlib.Path(
                tempfile.mkdtemp(
                    prefix=f"{digest[:16]}.{os.getpid()}.", dir=staging_root
                )
            )
            try:
                repository_digest = self._save_tables(staging, repository, digest)
                (staging / "reports.json").write_text(
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
                    self._save_world(staging / "world.pkl", world, digest)
                (staging / "meta.json").write_text(
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
                for path in staging.iterdir():
                    _fsync(path)
                _fsync(staging)
                self._publish(staging, entry)
            finally:
                shutil.rmtree(staging, ignore_errors=True)
        _STORE_WRITES.inc()
        _LOG.info(
            "campaign stored",
            extra={"digest": digest[:12], "kind": kind, "dir": str(entry)},
        )
        return entry

    @staticmethod
    def _publish(staging: pathlib.Path, entry: pathlib.Path) -> None:
        """Move a complete staged entry to ``entry`` with ``os.replace``.

        Saves run after a miss, so an entry already in place is stale or
        corrupt: it is renamed aside into the staging area, then removed.
        If a concurrent save of the same config publishes between the two
        renames, its complete entry is kept and this one dropped.
        """
        entry.parent.mkdir(parents=True, exist_ok=True)
        retired = staging.with_name(staging.name + ".retired")
        try:
            os.replace(entry, retired)
        except FileNotFoundError:
            pass
        try:
            os.replace(staging, entry)
        except OSError as exc:
            if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
            _LOG.debug(
                "entry published by a concurrent save; keeping it",
                extra={"dir": str(entry)},
            )
        finally:
            shutil.rmtree(retired, ignore_errors=True)
        _fsync(entry.parent)

    @staticmethod
    def _save_tables(
        entry: pathlib.Path, repository: CentralRepository, digest: str
    ) -> str:
        """Write ``columnar.bin`` from the repository's columns; returns
        the repository's content digest."""
        columnar = _columnar.ColumnarRepository.from_repository(repository)
        bin_digest = _columnar.write_columnar_binary(
            entry / "columnar.bin", columnar
        )
        _LOG.debug(
            "columnar artifact written",
            extra={"digest": digest[:12], "bin_digest": bin_digest[:12]},
        )
        return repository.content_digest()

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


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a running process (signal 0 probes only)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _fsync(path: pathlib.Path) -> None:
    """Flush one file's (or directory's) data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
