"""``repro serve`` — a stdlib-only campaign serving API.

The paper's §5.5: "the currently limited public access to its data ...
would obviously be required to allow independent validation of the
findings."  This module puts the campaign store on the network: a JSON
HTTP API over ``.repro-cache/campaigns/`` with an LRU of loaded columnar
campaigns, per-request spans/metrics, and bounded request handling.

Endpoints::

    GET  /healthz                                  liveness + LRU occupancy
    GET  /metrics                                  repro.obs counters/histograms
    GET  /observers                                observer registry listing
    GET  /campaigns                                store listing (meta only)
    GET  /campaigns/<digest>                       vantages + table row counts
    GET  /campaigns/<digest>/tables/<name>         one table page, columnar
         ?vantage=NAME&offset=N&limit=N
    POST /campaigns/<digest>/query                 repro.data.query over HTTP
         {"vantage": ..., "table": ..., "where": [...], "group_by": [...],
          "aggregates": [...], "select": [...], "limit": N}
    GET  /campaigns/<digest>/analysis/classify     Fig-4 site classification
         ?vantage=NAME
    GET  /campaigns/<digest>/observers             observer panel for one entry
    GET  /campaigns/<digest>/observers/<name>      one ObserverReport payload

Every response body is canonical JSON (sorted keys, no whitespace), so
a served result can be byte-diffed against the same payload computed
directly from the row objects — the CI serve-smoke and loadtest-smoke
jobs do exactly that.  Errors are structured (``{"error": {"code",
"message"}}``) with the appropriate 4xx status; a traceback never
crosses the socket.

Concurrency model (``repro serve --workers N``):

* requests are dispatched to a fixed pool of ``N`` worker threads
  (``--workers 0`` restores the unbounded thread-per-request mode);
* the campaign LRU (:class:`CampaignCache`) is lock-protected, and a
  cold digest is loaded **once** no matter how many requests arrive for
  it concurrently (per-digest single-flight);
* campaign-scoped 200 responses are memoised in a lock-protected
  :class:`ResponseCache` keyed on ``(campaign digest, canonical query
  digest)``.  Responses are canonical JSON, so a hit can be — and in
  ``verify_cache_hits`` mode *is* — byte-verified against a fresh
  computation.  Entries are invalidated when their campaign leaves the
  LRU, so the cache never outlives the data that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlparse

from ..analysis.classify import classify_sites
from ..engine.store import DEFAULT_CACHE_ROOT, CampaignStore
from ..errors import ConfigError, DataError
from ..obs import get_logger, metrics, span
from ..observers import all_observers, get_observer, observer_names, run_observer
from .columnar import ColumnarDatabase, ColumnarRepository
from .query import MAX_QUERY_ROWS, Query, run_query
from .series import dual_stack_sites

_LOG = get_logger("data.serve")

#: request accounting (the serve-smoke job and tests read these).
_REQUESTS = metrics.counter("data.serve.requests")
_ERRORS = metrics.counter("data.serve.errors")
_LATENCY = metrics.histogram("data.serve.latency_ms")

#: campaign-LRU accounting (one load per cold digest, single-flight).
_CAMPAIGN_HITS = metrics.counter("data.serve.cache_hits")
_CAMPAIGN_MISSES = metrics.counter("data.serve.cache_misses")
_CAMPAIGN_LOADS = metrics.counter("data.serve.campaign_loads")
_CAMPAIGN_EVICTIONS = metrics.counter("data.serve.campaign_evictions")
#: cold-load wall clock (informational; the loadtest report exports it).
_CAMPAIGN_LOAD_MS = metrics.histogram("data.serve.campaign_load_ms")

#: response-cache accounting (``/metrics`` exports these; the loadtest
#: harness reads the deltas to compute the cache-hit fraction).
_RESPONSE_HITS = metrics.counter("data.serve.cache.hits")
_RESPONSE_MISSES = metrics.counter("data.serve.cache.misses")
_RESPONSE_EVICTIONS = metrics.counter("data.serve.cache.evictions")
_RESPONSE_INVALIDATIONS = metrics.counter("data.serve.cache.invalidations")
_RESPONSE_VERIFY_FAILURES = metrics.counter("data.serve.cache.verify_failures")

#: worker-pool occupancy (informational; high-water rides on the gauge).
_WORKERS = metrics.gauge("data.serve.workers")
_INFLIGHT = metrics.gauge("data.serve.inflight")


#: environment override for the serving LRU capacity (``repro serve --lru``
#: wins over it; the dataclass default below is the last resort).
LRU_ENV_VAR = "REPRO_SERVE_LRU"
DEFAULT_LRU_CAMPAIGNS = 4

#: default worker-pool width (``--workers``; 0 = thread per request).
DEFAULT_WORKERS = 4

#: default response-cache capacity in entries (``--response-cache``;
#: 0 disables the cache entirely).
DEFAULT_RESPONSE_CACHE_ENTRIES = 256


def default_lru_campaigns() -> int:
    """The LRU capacity from ``REPRO_SERVE_LRU``, validated."""
    raw = os.environ.get(LRU_ENV_VAR)
    if raw is None:
        return DEFAULT_LRU_CAMPAIGNS
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{LRU_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    return value


@dataclass(frozen=True)
class ServeConfig:
    """Bounds and knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8765
    cache_root: str = DEFAULT_CACHE_ROOT
    #: per-request row ceiling (requests asking for more get a 413).
    max_rows: int = 10_000
    #: loaded columnar campaigns kept in memory (``--lru`` / REPRO_SERVE_LRU).
    lru_campaigns: int = field(default_factory=default_lru_campaigns)
    #: request body ceiling in bytes.
    max_body_bytes: int = 1_000_000
    #: socket timeout per request, seconds.
    request_timeout: float = 30.0
    #: worker threads requests are dispatched across (0 = one thread per
    #: request, the pre-pool behaviour).
    workers: int = DEFAULT_WORKERS
    #: response-cache capacity in entries (0 disables it).
    response_cache_entries: int = DEFAULT_RESPONSE_CACHE_ENTRIES
    #: byte-verify every response-cache hit against a fresh computation
    #: (the soak tests and the loadtest parity gate turn this on).
    verify_cache_hits: bool = False
    #: set SO_REUSEPORT on the listening socket so several ``repro
    #: serve`` processes can share one port (kernel load balancing).
    reuse_port: bool = False

    def __post_init__(self) -> None:
        if self.max_rows <= 0 or self.max_rows > MAX_QUERY_ROWS:
            raise DataError(
                f"max_rows must be in 1..{MAX_QUERY_ROWS}, got {self.max_rows}"
            )
        if not isinstance(self.lru_campaigns, int) or self.lru_campaigns <= 0:
            raise ConfigError(
                f"lru_campaigns must be a positive integer, "
                f"got {self.lru_campaigns!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 0:
            raise ConfigError(
                f"workers must be a non-negative integer, got {self.workers!r}"
            )
        if (
            not isinstance(self.response_cache_entries, int)
            or self.response_cache_entries < 0
        ):
            raise ConfigError(
                f"response_cache_entries must be a non-negative integer, "
                f"got {self.response_cache_entries!r}"
            )


class HttpError(DataError):
    """An error with a status code and a machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _bad_request(message: str) -> HttpError:
    return HttpError(400, "bad_request", message)


def _not_found(message: str) -> HttpError:
    return HttpError(404, "not_found", message)


@dataclass
class LoadedCampaign:
    """One store entry resident in the serving LRU."""

    digest: str
    meta: dict
    vantages: dict[str, dict]
    columnar: dict[str, ColumnarDatabase]

    def columnar_for(self, vantage: str | None) -> ColumnarDatabase:
        if vantage is None:
            raise _bad_request("a 'vantage' parameter is required")
        if vantage not in self.columnar:
            raise _not_found(
                f"unknown vantage {vantage!r} "
                f"(vantages: {', '.join(sorted(self.columnar))})"
            )
        return self.columnar[vantage]


class _Flight:
    """The single-flight slot one cold digest's loaders share."""

    __slots__ = ("done", "campaign", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.campaign: LoadedCampaign | None = None
        self.error: BaseException | None = None


class CampaignCache:
    """A lock-protected LRU of loaded columnar campaigns keyed by digest.

    ``ThreadingHTTPServer`` (and the worker pool) serve concurrently, so
    every mutation of the underlying ``OrderedDict`` happens under one
    lock.  A cold digest is loaded from the store exactly once no matter
    how many requests ask for it at the same moment: the first request
    becomes the *leader* and loads outside the lock; the rest park on a
    per-digest :class:`_Flight` and reuse the leader's result (or error).
    ``data.serve.campaign_loads`` counts actual store loads — the
    single-flight regression test hammers one cold digest from many
    threads and asserts the counter moved by exactly one.
    """

    def __init__(
        self,
        store: CampaignStore,
        capacity: int,
        on_evict=None,
    ) -> None:
        self.store = store
        self.capacity = capacity
        self.on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, LoadedCampaign] = OrderedDict()
        self._loading: dict[str, _Flight] = {}

    def get(self, digest: str) -> LoadedCampaign:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                _CAMPAIGN_HITS.inc()
                return entry
            _CAMPAIGN_MISSES.inc()
            flight = self._loading.get(digest)
            if flight is None:
                flight = _Flight()
                self._loading[digest] = flight
                leader = True
            else:
                leader = False
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.campaign is not None
            return flight.campaign
        try:
            campaign = self._load(digest)
        except BaseException as exc:
            with self._lock:
                self._loading.pop(digest, None)
            flight.error = exc
            flight.done.set()
            raise
        evicted: list[str] = []
        with self._lock:
            self._entries[digest] = campaign
            self._entries.move_to_end(digest)
            while len(self._entries) > self.capacity:
                victim, _ = self._entries.popitem(last=False)
                evicted.append(victim)
            self._loading.pop(digest, None)
        flight.campaign = campaign
        flight.done.set()
        for victim in evicted:
            _CAMPAIGN_EVICTIONS.inc()
            _LOG.debug("evicted campaign from LRU", extra={"digest": victim[:12]})
            if self.on_evict is not None:
                self.on_evict(victim)
        return campaign

    def _load(self, digest: str) -> LoadedCampaign:
        """One actual store load (the single-flight leader's job)."""
        _CAMPAIGN_LOADS.inc()
        started = time.perf_counter()
        with span("serve.load_campaign", digest=digest[:12]):
            loaded = self.store.load_columnar_entry(digest)
        _CAMPAIGN_LOAD_MS.observe((time.perf_counter() - started) * 1000.0)
        if loaded is None:
            raise _not_found(f"unknown campaign digest {digest!r}")
        meta, columnar = loaded
        return LoadedCampaign(
            digest=digest,
            meta=meta,
            vantages=dict(columnar.vantages),
            columnar=dict(columnar.databases),
        )

    def evict_all(self) -> None:
        """Drop every resident campaign (tests and shutdown paths)."""
        with self._lock:
            evicted = list(self._entries)
            self._entries.clear()
        for victim in evicted:
            _CAMPAIGN_EVICTIONS.inc()
            if self.on_evict is not None:
                self.on_evict(victim)

    @property
    def occupancy(self) -> int:
        with self._lock:
            return len(self._entries)


class ResponseCache:
    """A lock-protected LRU of canonical response bytes.

    Keyed on ``(campaign digest, canonical query digest)``.  Only
    campaign-scoped 200 responses enter; they are pure functions of the
    (content-addressed, immutable) store entry, so a resident value can
    only ever be the exact bytes a fresh computation would produce —
    which ``verify_cache_hits`` checks literally.  When a campaign is
    evicted from the :class:`CampaignCache` every response cached under
    its digest is invalidated, so the response cache never serves data
    whose backing campaign the server no longer holds.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._by_campaign: dict[str, set[str]] = {}

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, digest: str, query_digest: str) -> bytes | None:
        with self._lock:
            data = self._entries.get((digest, query_digest))
            if data is not None:
                self._entries.move_to_end((digest, query_digest))
            return data

    def put(self, digest: str, query_digest: str, data: bytes) -> None:
        if not self.enabled:
            return
        with self._lock:
            key = (digest, query_digest)
            self._entries[key] = data
            self._entries.move_to_end(key)
            self._by_campaign.setdefault(digest, set()).add(query_digest)
            while len(self._entries) > self.capacity:
                (victim_digest, victim_query), _ = self._entries.popitem(
                    last=False
                )
                _RESPONSE_EVICTIONS.inc()
                queries = self._by_campaign.get(victim_digest)
                if queries is not None:
                    queries.discard(victim_query)
                    if not queries:
                        del self._by_campaign[victim_digest]

    def invalidate(self, digest: str) -> int:
        """Drop every entry cached under one campaign digest."""
        with self._lock:
            queries = self._by_campaign.pop(digest, None)
            if not queries:
                return 0
            for query_digest in queries:
                del self._entries[(digest, query_digest)]
            n = len(queries)
        _RESPONSE_EVICTIONS.inc(n)
        _RESPONSE_INVALIDATIONS.inc(n)
        _LOG.debug(
            "invalidated response-cache entries",
            extra={"digest": digest[:12], "n": n},
        )
        return n

    @property
    def occupancy(self) -> int:
        with self._lock:
            return len(self._entries)


def canonical_json(payload: dict) -> bytes:
    """The byte-stable response encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def query_digest(
    method: str, path: str, params: dict[str, str], body: bytes | None
) -> str:
    """The canonical digest of one request's cache-relevant identity.

    Sorted parameters and a canonical-JSON envelope make the digest
    independent of query-string ordering; the raw body bytes ride along
    hex-encoded, so two byte-identical POSTs share an entry while any
    body difference (even whitespace) keys separately — the cache never
    has to guess whether two bodies mean the same query.
    """
    envelope = {
        "method": method,
        "path": path,
        "params": sorted(params.items()),
        "body": (body or b"").hex(),
    }
    return hashlib.sha256(canonical_json(envelope)).hexdigest()


def classification_payload(cdb: ColumnarDatabase) -> dict:
    """Fig-4 site classification of one vantage, as a JSON-ready dict.

    Computed through ``analysis.classify`` (which reads the columnar
    series index) over the dual-stack population; the CI serve-smoke job
    byte-compares this payload served from a store entry against the
    same payload computed from a fresh in-process campaign.
    """
    classifications = classify_sites(cdb, dual_stack_sites(cdb))
    return {
        "vantage": cdb.vantage_name,
        "n_sites": len(classifications),
        "sites": [
            {
                "site_id": site_id,
                "category": c.category.value,
                "dest_v4": c.dest_v4,
                "dest_v6": c.dest_v6,
                "path_v4": list(c.path_v4),
                "path_v6": list(c.path_v6),
            }
            for site_id, c in sorted(classifications.items())
        ],
    }


class ServeApp:
    """The socket-free request core (handlers and tests call this)."""

    def __init__(self, store: CampaignStore, config: ServeConfig) -> None:
        self.config = config
        self.response_cache = ResponseCache(config.response_cache_entries)
        self.cache = CampaignCache(
            store, config.lru_campaigns, on_evict=self.response_cache.invalidate
        )
        self.store = store

    # -- routing -------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: dict[str, str],
        body: bytes | None = None,
    ) -> tuple[int, dict]:
        """Dispatch one request; returns ``(status, payload)``."""
        try:
            return 200, self._route(method, path, params, body)
        except HttpError as exc:
            _ERRORS.inc()
            return exc.status, {
                "error": {"code": exc.code, "message": str(exc)}
            }
        except DataError as exc:
            _ERRORS.inc()
            return 400, {"error": {"code": "bad_request", "message": str(exc)}}
        except Exception as exc:  # never let a traceback cross the socket
            _ERRORS.inc()
            _LOG.warning(
                "internal error serving request",
                extra={"path": path, "error": str(exc)},
            )
            return 500, {
                "error": {"code": "internal", "message": "internal server error"}
            }

    def handle_bytes(
        self,
        method: str,
        path: str,
        params: dict[str, str],
        body: bytes | None = None,
    ) -> tuple[int, bytes, str]:
        """:meth:`handle` through the response cache.

        Returns ``(status, canonical bytes, cache state)`` where the
        state is ``hit``/``miss`` for cacheable requests and ``bypass``
        for everything else (non-campaign paths, cache disabled).  Only
        200 responses are stored.  In ``verify_cache_hits`` mode every
        hit is recomputed and byte-compared before being served; a
        mismatch is counted, logged, and answered with the fresh bytes.
        """
        key = self._cache_key(method, path, params, body)
        if key is None:
            status, payload = self.handle(method, path, params, body)
            return status, canonical_json(payload), "bypass"
        cached = self.response_cache.get(*key)
        if cached is not None:
            _RESPONSE_HITS.inc()
            if self.config.verify_cache_hits:
                status, payload = self.handle(method, path, params, body)
                fresh = canonical_json(payload)
                if status != 200 or fresh != cached:
                    _RESPONSE_VERIFY_FAILURES.inc()
                    _LOG.warning(
                        "response-cache hit failed byte verification",
                        extra={"path": path},
                    )
                    self.response_cache.invalidate(key[0])
                    return status, fresh, "miss"
            return 200, cached, "hit"
        _RESPONSE_MISSES.inc()
        status, payload = self.handle(method, path, params, body)
        data = canonical_json(payload)
        if status == 200:
            self.response_cache.put(key[0], key[1], data)
        return status, data, "miss"

    def _cache_key(
        self,
        method: str,
        path: str,
        params: dict[str, str],
        body: bytes | None,
    ) -> tuple[str, str] | None:
        """The response-cache key, or None when the request bypasses it.

        Only campaign-scoped resources are cacheable: their payloads are
        pure functions of an immutable, content-addressed store entry.
        ``/healthz``, ``/metrics``, and the store listing change between
        requests and never enter the cache.
        """
        if not self.response_cache.enabled:
            return None
        parts = [part for part in path.split("/") if part]
        if len(parts) < 2 or parts[0] != "campaigns":
            return None
        return parts[1], query_digest(method, path, params, body)

    def _route(
        self, method: str, path: str, params: dict[str, str], body: bytes | None
    ) -> dict:
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"]:
            self._require(method, "GET")
            return {
                "status": "ok",
                "lru": {
                    "occupancy": self.cache.occupancy,
                    "capacity": self.cache.capacity,
                },
                "response_cache": {
                    "occupancy": self.response_cache.occupancy,
                    "capacity": self.response_cache.capacity,
                },
                "workers": self.config.workers,
            }
        if parts == ["metrics"]:
            self._require(method, "GET")
            return self._metrics()
        if parts == ["observers"]:
            self._require(method, "GET")
            return self._list_observers()
        if parts == ["campaigns"]:
            self._require(method, "GET")
            return self._list_campaigns()
        if len(parts) >= 2 and parts[0] == "campaigns":
            campaign = self.cache.get(parts[1])
            if len(parts) == 2:
                self._require(method, "GET")
                return self._campaign_detail(campaign)
            if len(parts) == 4 and parts[2] == "tables":
                self._require(method, "GET")
                return self._table_page(campaign, parts[3], params)
            if len(parts) == 3 and parts[2] == "query":
                self._require(method, "POST")
                return self._query(campaign, body)
            if len(parts) == 4 and parts[2] == "analysis":
                self._require(method, "GET")
                return self._analysis(campaign, parts[3], params)
            if len(parts) == 3 and parts[2] == "observers":
                self._require(method, "GET")
                return self._campaign_observers(campaign)
            if len(parts) == 4 and parts[2] == "observers":
                self._require(method, "GET")
                return self._observer_report(campaign, parts[3])
        raise _not_found(f"no such resource: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405, "method_not_allowed", f"use {expected} for this resource"
            )

    # -- endpoints -----------------------------------------------------------

    @staticmethod
    def _metrics() -> dict:
        """The process's ``repro.obs`` registry, canonical-JSON ready.

        Counters, gauges, and histograms (with p50/p90/p99) — the live
        equivalent of the ``BENCH_*.json`` metrics block, for scraping a
        running server (``data.serve.requests``, the campaign-LRU
        counters, and the ``data.serve.cache.*`` response-cache
        hit/miss/eviction counters included).
        """
        return {"metrics": metrics.get_registry().as_dict()}

    @staticmethod
    def _list_observers() -> dict:
        """The observer registry listing (names, versions, tables)."""
        observers = [observer.describe() for observer in all_observers()]
        return {"observers": observers, "n_observers": len(observers)}

    def _campaign_observers(self, campaign: LoadedCampaign) -> dict:
        """The observer panel's availability for one campaign entry."""
        persisted = set(self.store.list_observer_reports(campaign.digest))
        return {
            "digest": campaign.digest,
            "observers": [
                {
                    "name": observer.name,
                    "version": observer.version,
                    "persisted": observer.name in persisted,
                }
                for observer in all_observers()
            ],
        }

    def _observer_report(self, campaign: LoadedCampaign, name: str) -> dict:
        """One observer report: persisted artifact bytes when present,
        otherwise recomputed from the loaded columnar data.  Both paths
        serve byte-identical canonical JSON — the report content digest
        guarantees it, and the artifact is re-verified before serving."""
        from ..observers.reports import ObserverReport

        if name not in observer_names():
            raise _not_found(
                f"unknown observer {name!r} "
                f"(observers: {', '.join(observer_names())})"
            )
        raw = self.store.load_observer_report(campaign.digest, name)
        if raw is not None:
            try:
                payload = json.loads(raw.decode("utf-8"))
                ObserverReport.from_payload(payload)  # digest re-check
                return payload
            except (ValueError, DataError) as exc:
                _LOG.warning(
                    "persisted observer report unreadable; recomputing",
                    extra={"observer": name, "error": str(exc)},
                )
        observer = get_observer(name)
        repository = ColumnarRepository(
            vantages=dict(campaign.vantages),
            databases=dict(campaign.columnar),
        )
        with span("serve.observer", observer=name, digest=campaign.digest[:12]):
            report = run_observer(observer, repository, campaign.digest)
        return report.to_payload()

    def _list_campaigns(self) -> dict:
        campaigns = [
            {
                "digest": entry.digest,
                "kind": entry.kind,
                "seed": entry.seed,
                "repository_digest": entry.repository_digest,
            }
            for entry in self.store.entries()
        ]
        return {"campaigns": campaigns, "n_campaigns": len(campaigns)}

    def _campaign_detail(self, campaign: LoadedCampaign) -> dict:
        return {
            "digest": campaign.digest,
            "kind": campaign.meta.get("kind"),
            "seed": campaign.meta.get("seed"),
            "repository_digest": campaign.meta.get("repository_digest"),
            "vantages": {
                name: {
                    "asn": vantage.get("asn"),
                    "location": vantage.get("location"),
                    "tables": campaign.columnar[name].row_counts(),
                }
                for name, vantage in sorted(campaign.vantages.items())
            },
        }

    def _table_page(
        self, campaign: LoadedCampaign, table_name: str, params: dict[str, str]
    ) -> dict:
        cdb = campaign.columnar_for(params.get("vantage"))
        table = cdb.table(table_name)
        offset = self._int_param(params, "offset", 0, minimum=0)
        limit = self._int_param(
            params, "limit", min(self.config.max_rows, 1000), minimum=1
        )
        self._check_limit(limit)
        rows = range(table.n_rows)[offset : offset + limit]
        columns = {
            name: column.take(rows)
            for name, column in table.columns.items()
        }
        return {
            "vantage": cdb.vantage_name,
            "table": table_name,
            "total_rows": table.n_rows,
            "offset": offset,
            "n_rows": len(rows),
            "truncated": offset + len(rows) < table.n_rows,
            "columns": columns,
        }

    def _query(self, campaign: LoadedCampaign, body: bytes | None) -> dict:
        if not body:
            raise _bad_request("POST /query requires a JSON body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _bad_request(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _bad_request("query payload must be a JSON object")
        query = Query.from_dict(payload)
        if query.limit is not None:
            self._check_limit(query.limit)
        else:
            query = Query(
                table=query.table,
                where=query.where,
                select=query.select,
                group_by=query.group_by,
                aggregates=query.aggregates,
                limit=self.config.max_rows,
            )
        cdb = campaign.columnar_for(payload.get("vantage"))
        with span("serve.query", table=query.table, vantage=cdb.vantage_name):
            result = run_query(cdb, query)
        response = result.to_payload()
        response["vantage"] = cdb.vantage_name
        response["table"] = query.table
        return response

    def _analysis(
        self, campaign: LoadedCampaign, name: str, params: dict[str, str]
    ) -> dict:
        if name != "classify":
            raise _not_found(f"unknown analysis endpoint {name!r}")
        cdb = campaign.columnar_for(params.get("vantage"))
        with span("serve.classify", vantage=cdb.vantage_name):
            return classification_payload(cdb)

    # -- parameter plumbing --------------------------------------------------

    def _check_limit(self, limit: int) -> None:
        if limit > self.config.max_rows:
            raise HttpError(
                413,
                "too_large",
                f"limit {limit} exceeds this server's max_rows "
                f"({self.config.max_rows}); page with offset/limit instead",
            )

    @staticmethod
    def _int_param(
        params: dict[str, str], name: str, default: int, minimum: int
    ) -> int:
        raw = params.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise _bad_request(f"parameter {name!r} must be an integer") from None
        if value < minimum:
            raise _bad_request(f"parameter {name!r} must be >= {minimum}")
        return value


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter around :class:`ServeApp.handle_bytes`."""

    server_version = "repro-serve/2"
    protocol_version = "HTTP/1.1"
    app: ServeApp  # set by make_server

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        _REQUESTS.inc()
        parsed = urlparse(self.path)
        params = dict(parse_qsl(parsed.query))
        body: bytes | None = None
        if method == "POST":
            raw = (self.headers.get("Content-Length") or "0").strip()
            if not (raw.isascii() and raw.isdigit()):
                # A negative length would block rfile.read until the
                # request timeout; a non-numeric one would crash the
                # handler with no response at all.
                self._reject(
                    400,
                    "bad_request",
                    f"Content-Length {raw!r} is not a non-negative integer",
                )
                return
            length = int(raw)
            if length > self.app.config.max_body_bytes:
                self._reject(
                    413,
                    "too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.app.config.max_body_bytes}-byte cap",
                )
                return
            body = self.rfile.read(length) if length else b""
        started = time.perf_counter()
        with span("serve.request", method=method, path=parsed.path):
            status, data, cache_state = self.app.handle_bytes(
                method, parsed.path, params, body
            )
        _LATENCY.observe((time.perf_counter() - started) * 1000.0)
        self._respond(status, data, cache_state)

    def _reject(self, status: int, code: str, message: str) -> None:
        """Answer a structured error without reading the request body.

        The unread body would be parsed as the next request, so the
        connection closes after the response.
        """
        _ERRORS.inc()
        self.close_connection = True
        self._respond(
            status,
            canonical_json({"error": {"code": code, "message": message}}),
            "bypass",
        )

    def _respond(self, status: int, data: bytes, cache_state: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Repro-Response-Cache", cache_state)
        # Headers and body leave in one write.  end_headers() would send
        # the headers alone, and on a kept-alive connection the body's
        # second small write then waits on Nagle for the client's delayed
        # ACK.  An HTTP/0.9 request buffers no headers: body only.
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + data if head else data)

    def log_message(self, fmt: str, *args) -> None:  # route to repro.obs
        _LOG.debug("http " + fmt % args)


class PooledHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with a fixed worker pool.

    Instead of spawning an unbounded thread per connection, accepted
    requests are submitted to a ``ThreadPoolExecutor`` of ``workers``
    threads — concurrency is bounded, excess connections queue in the
    executor, and the listen backlog absorbs bursts.  ``workers=0``
    falls back to the stock thread-per-request behaviour.  With
    ``reuse_port`` the listening socket sets ``SO_REUSEPORT`` (where the
    platform offers it), so several server *processes* can share one
    port and let the kernel balance accepts across them.
    """

    def __init__(
        self,
        server_address,
        handler_class,
        workers: int = DEFAULT_WORKERS,
        reuse_port: bool = False,
    ) -> None:
        self._reuse_port = reuse_port
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
            if workers > 0
            else None
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        _WORKERS.set(workers)
        super().__init__(server_address, handler_class)

    def server_bind(self) -> None:
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise ConfigError(
                    "this platform does not support SO_REUSEPORT"
                )
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def process_request(self, request, client_address) -> None:
        if self._pool is None:
            super().process_request(request, client_address)
            return
        self._pool.submit(self._process_in_worker, request, client_address)

    def _process_in_worker(self, request, client_address) -> None:
        with self._inflight_lock:
            self._inflight += 1
            _INFLIGHT.update_max(self._inflight)
        try:
            # ThreadingMixIn's per-thread body: finish_request + cleanup.
            self.process_request_thread(request, client_address)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                _INFLIGHT.set(self._inflight)

    def server_close(self) -> None:
        super().server_close()
        if self._pool is not None:
            self._pool.shutdown(wait=False)


def make_server(
    config: ServeConfig, store: CampaignStore | None = None
) -> PooledHTTPServer:
    """Build a ready-to-run pooled HTTP server over the store."""
    store = store or CampaignStore(pathlib.Path(config.cache_root))
    app = ServeApp(store, config)
    handler = type("BoundHandler", (_Handler,), {"app": app})
    handler.timeout = config.request_timeout
    server = PooledHTTPServer(
        (config.host, config.port),
        handler,
        workers=config.workers,
        reuse_port=config.reuse_port,
    )
    server.daemon_threads = True
    return server


def run_server(config: ServeConfig, store: CampaignStore | None = None) -> int:
    """Serve until interrupted (the ``repro serve`` entry point)."""
    server = make_server(config, store)
    host, port = server.server_address[:2]
    workers = f"{config.workers} worker(s)" if config.workers else "unpooled"
    print(f"repro serve: listening on http://{host}:{port} "
          f"(store: {config.cache_root}, {workers}, "
          f"response cache: {config.response_cache_entries} entries)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        server.server_close()
    return 0
