"""The serving API: endpoints, parity, and structured error handling."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.data.serve import (
    ServeApp,
    ServeConfig,
    canonical_json,
    classification_payload,
    make_server,
)
from repro.engine import WEEKLY
from repro.engine.store import CampaignStore, config_digest
from repro.errors import ConfigError, DataError
from repro.obs import metrics


@pytest.fixture(scope="module")
def served_store(tmp_path_factory, small_cfg, small_campaign):
    store = CampaignStore(tmp_path_factory.mktemp("serve-store"))
    store.save(
        small_cfg, small_campaign.repository, small_campaign.reports, kind=WEEKLY
    )
    return store, config_digest(small_cfg, WEEKLY)


@pytest.fixture(scope="module")
def app(served_store):
    store, _ = served_store
    return ServeApp(store, ServeConfig(cache_root=str(store.root)))


def test_healthz(app):
    status, payload = app.handle("GET", "/healthz", {})
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["lru"]["capacity"] == app.cache.capacity
    assert payload["lru"]["occupancy"] == app.cache.occupancy


def test_healthz_reports_lru_occupancy(served_store):
    store, digest = served_store
    app = ServeApp(store, ServeConfig(cache_root=str(store.root)))
    assert app.handle("GET", "/healthz", {})[1]["lru"]["occupancy"] == 0
    app.cache.get(digest)
    assert app.handle("GET", "/healthz", {})[1]["lru"]["occupancy"] == 1


def test_metrics_endpoint(app):
    before = metrics.counter("data.serve.requests").value
    metrics.counter("data.serve.requests").inc()
    status, payload = app.handle("GET", "/metrics", {})
    assert status == 200
    exported = payload["metrics"]
    assert exported["data.serve.requests"]["type"] == "counter"
    assert exported["data.serve.requests"]["value"] == before + 1
    # the payload is canonical-JSON clean (round trips bit-identically)
    assert json.loads(canonical_json(payload)) == payload


def test_campaign_listing(app, served_store):
    _, digest = served_store
    status, payload = app.handle("GET", "/campaigns", {})
    assert status == 200
    assert payload["n_campaigns"] == 1
    assert payload["campaigns"][0]["digest"] == digest


def test_campaign_detail(app, served_store, small_campaign):
    _, digest = served_store
    status, payload = app.handle("GET", f"/campaigns/{digest}", {})
    assert status == 200
    names = set(small_campaign.repository.vantage_names)
    assert set(payload["vantages"]) == names
    vantage = sorted(names)[0]
    db = small_campaign.repository.database(vantage)
    tables = payload["vantages"][vantage]["tables"]
    assert tables["downloads"] == db.table("downloads").n_rows


def test_table_page(app, served_store, small_campaign):
    _, digest = served_store
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    status, payload = app.handle(
        "GET",
        f"/campaigns/{digest}/tables/downloads",
        {"vantage": vantage, "offset": "2", "limit": "3"},
    )
    assert status == 200
    assert payload["n_rows"] == 3
    assert payload["offset"] == 2
    assert payload["truncated"] is True
    wire = small_campaign.repository.database(vantage).table("downloads").rows()
    assert payload["columns"]["site_id"] == [row[0] for row in wire[2:5]]


def test_query_endpoint_matches_direct_execution(app, served_store, small_campaign):
    _, digest = served_store
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    body = json.dumps(
        {
            "vantage": vantage,
            "table": "downloads",
            "where": [{"column": "converged", "op": "eq", "value": True}],
            "group_by": ["family"],
            "aggregates": [{"op": "count", "alias": "n"}],
        }
    ).encode()
    status, payload = app.handle("POST", f"/campaigns/{digest}/query", {}, body)
    assert status == 200
    from repro.data.query import Query, run_query

    direct = run_query(
        small_campaign.repository.database(vantage),
        Query.from_dict(json.loads(body)),
    )
    assert payload["columns"] == direct.columns


def test_classify_endpoint_is_byte_identical(app, served_store, small_campaign):
    _, digest = served_store
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    status, payload = app.handle(
        "GET", f"/campaigns/{digest}/analysis/classify", {"vantage": vantage}
    )
    assert status == 200
    direct = classification_payload(
        small_campaign.repository.database(vantage)
    )
    assert canonical_json(payload) == canonical_json(direct)


def test_classify_on_a_loaded_entry_reuses_its_columns(served_store, small_campaign):
    # The analysis reads the decoded columns themselves: no transpose.
    store, digest = served_store
    fresh = ServeApp(store, ServeConfig(cache_root=str(store.root)))
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    fresh.cache.get(digest)
    encodes = metrics.counter("data.columnar.encodes")
    before = encodes.value
    status, _payload = fresh.handle(
        "GET", f"/campaigns/{digest}/analysis/classify", {"vantage": vantage}
    )
    assert status == 200
    assert encodes.value == before


def test_structured_errors(app, served_store):
    _, digest = served_store
    status, payload = app.handle("GET", "/campaigns/deadbeef", {})
    assert status == 404
    assert payload["error"]["code"] == "not_found"

    status, payload = app.handle(
        "GET", f"/campaigns/{digest}/tables/downloads", {"vantage": "nope"}
    )
    assert status == 404

    status, payload = app.handle(
        "GET", f"/campaigns/{digest}/tables/downloads", {}
    )
    assert status == 400  # vantage is required

    status, payload = app.handle(
        "POST", f"/campaigns/{digest}/query", {}, b"not json"
    )
    assert status == 400
    assert "JSON" in payload["error"]["message"]

    status, payload = app.handle(
        "POST", f"/campaigns/{digest}/query", {}, json.dumps({"table": 7}).encode()
    )
    assert status == 400

    status, payload = app.handle("POST", "/healthz", {}, b"{}")
    assert status == 405

    status, payload = app.handle("GET", "/nope", {})
    assert status == 404


def _serve_errors() -> float:
    return metrics.counter("data.serve.errors").value


def test_unknown_campaign_digest_counts_error(app):
    before = _serve_errors()
    status, payload = app.handle("GET", "/campaigns/deadbeef", {})
    assert status == 404
    assert payload["error"]["code"] == "not_found"
    assert "deadbeef" in payload["error"]["message"]
    assert _serve_errors() == before + 1


def test_malformed_query_body_counts_error(app, served_store):
    _, digest = served_store
    before = _serve_errors()
    status, payload = app.handle(
        "POST", f"/campaigns/{digest}/query", {}, b"{not json"
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert _serve_errors() == before + 1
    # structurally valid JSON that is not a query object also 400s
    status, payload = app.handle(
        "POST", f"/campaigns/{digest}/query", {}, b"[1,2,3]"
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert _serve_errors() == before + 2


def test_unknown_table_counts_error(app, served_store, small_campaign):
    _, digest = served_store
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    before = _serve_errors()
    status, payload = app.handle(
        "GET", f"/campaigns/{digest}/tables/bogus", {"vantage": vantage}
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "bogus" in payload["error"]["message"]
    assert _serve_errors() == before + 1
    # the query endpoint rejects an unknown table the same way
    body = json.dumps({"vantage": vantage, "table": "bogus"}).encode()
    status, payload = app.handle("POST", f"/campaigns/{digest}/query", {}, body)
    assert status == 400
    assert _serve_errors() == before + 2


def test_observer_registry_listing(app):
    status, payload = app.handle("GET", "/observers", {})
    assert status == 200
    names = [o["name"] for o in payload["observers"]]
    assert names == sorted(names)
    assert payload["n_observers"] == len(names) >= 6
    for entry in payload["observers"]:
        assert entry["version"] >= 1
        assert entry["required_tables"]
        assert entry["headline"]


def test_campaign_observer_reports_byte_identical(app, served_store, small_campaign):
    from repro.data.columnar import ColumnarRepository
    from repro.observers import run_panel

    store, digest = served_store
    columnar = ColumnarRepository.from_repository(small_campaign.repository)
    direct = run_panel(columnar, campaign_digest=digest)
    # recomputed-on-demand serving matches a direct panel run
    for name, report in direct.items():
        status, payload = app.handle(
            "GET", f"/campaigns/{digest}/observers/{name}", {}
        )
        assert status == 200
        assert canonical_json(payload) == report.canonical_bytes()
    # persisting the artifacts and serving again returns the same bytes
    store.save_observer_reports(digest, direct)
    assert store.list_observer_reports(digest) == sorted(direct)
    for name, report in direct.items():
        status, payload = app.handle(
            "GET", f"/campaigns/{digest}/observers/{name}", {}
        )
        assert status == 200
        assert canonical_json(payload) == report.canonical_bytes()
        assert store.load_observer_report(digest, name) == report.canonical_bytes()


def test_campaign_observers_listing(app, served_store):
    _, digest = served_store
    status, payload = app.handle("GET", f"/campaigns/{digest}/observers", {})
    assert status == 200
    assert payload["digest"] == digest
    names = [o["name"] for o in payload["observers"]]
    assert len(names) >= 6


def test_unknown_observer_404(app, served_store):
    _, digest = served_store
    before = _serve_errors()
    status, payload = app.handle(
        "GET", f"/campaigns/{digest}/observers/nonsense", {}
    )
    assert status == 404
    assert payload["error"]["code"] == "not_found"
    assert _serve_errors() == before + 1


def test_oversized_limit_rejected(served_store, small_campaign):
    store, digest = served_store
    app = ServeApp(store, ServeConfig(cache_root=str(store.root), max_rows=10))
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    body = json.dumps(
        {"vantage": vantage, "table": "downloads", "limit": 50}
    ).encode()
    status, payload = app.handle("POST", f"/campaigns/{digest}/query", {}, body)
    assert status == 413
    assert payload["error"]["code"] == "too_large"
    # without an explicit limit the server clamps instead of failing
    body = json.dumps({"vantage": vantage, "table": "downloads"}).encode()
    status, payload = app.handle("POST", f"/campaigns/{digest}/query", {}, body)
    assert status == 200
    assert payload["n_rows"] == 10
    assert payload["truncated"] is True


def test_serve_config_validation():
    with pytest.raises(DataError):
        ServeConfig(max_rows=0)
    with pytest.raises(ConfigError):
        ServeConfig(lru_campaigns=0)
    with pytest.raises(ConfigError):
        ServeConfig(lru_campaigns=-3)


def test_serve_lru_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_LRU", "9")
    assert ServeConfig().lru_campaigns == 9
    monkeypatch.setenv("REPRO_SERVE_LRU", "not-a-number")
    with pytest.raises(ConfigError):
        ServeConfig()
    monkeypatch.setenv("REPRO_SERVE_LRU", "0")
    with pytest.raises(ConfigError):
        ServeConfig()
    monkeypatch.delenv("REPRO_SERVE_LRU")
    assert ServeConfig().lru_campaigns == 4
    # an explicit value always wins over the environment
    monkeypatch.setenv("REPRO_SERVE_LRU", "9")
    assert ServeConfig(lru_campaigns=2).lru_campaigns == 2


def test_lru_eviction(served_store):
    store, digest = served_store
    app = ServeApp(store, ServeConfig(cache_root=str(store.root)))
    app.cache.capacity = 1
    first = app.cache.get(digest)
    assert app.cache.get(digest) is first  # hit
    app.cache._entries.clear()
    assert app.cache.get(digest) is not first  # reloaded after eviction


def test_over_http(served_store, small_campaign):
    """One real socket round trip through ThreadingHTTPServer."""
    store, digest = served_store
    server = make_server(
        ServeConfig(port=0, cache_root=str(store.root)), store
    )
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(f"{base}/healthz") as response:
            assert response.status == 200
            health = json.loads(response.read())
            assert health["status"] == "ok"
            assert set(health["lru"]) == {"occupancy", "capacity"}
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.status == 200
            exported = json.loads(response.read())["metrics"]
            assert exported["data.serve.requests"]["value"] >= 1
        with urllib.request.urlopen(f"{base}/observers") as response:
            assert response.status == 200
            listing = json.loads(response.read())
            assert listing["n_observers"] >= 6
        vantage = sorted(small_campaign.repository.vantage_names)[0]
        url = f"{base}/campaigns/{digest}/analysis/classify?vantage={vantage}"
        with urllib.request.urlopen(url) as response:
            served = response.read()
        direct = canonical_json(
            classification_payload(small_campaign.repository.database(vantage))
        )
        assert served == direct
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/campaigns/deadbeef")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == "not_found"
    finally:
        server.shutdown()
        server.server_close()


def _post_with_length(served_store, content_length: str):
    """POST with a raw ``Content-Length`` over a real socket.

    Returns (status line, JSON error payload, seconds until the reply).
    The client never sends a body, so a server that tries to read one
    would stall until the socket timeout below.
    """
    store, digest = served_store
    server = make_server(
        ServeConfig(port=0, cache_root=str(store.root), request_timeout=10.0),
        store,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address, timeout=5.0) as sock:
            started = time.monotonic()
            sock.sendall(
                (
                    f"POST /campaigns/{digest}/query HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n"
                    f"Content-Length: {content_length}\r\n\r\n"
                ).encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
            elapsed = time.monotonic() - started
    finally:
        server.shutdown()
        server.server_close()
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), json.loads(body), elapsed


@pytest.mark.parametrize("content_length", ["-5", "ten"])
def test_bad_content_length_is_a_prompt_400(served_store, content_length):
    status_line, payload, elapsed = _post_with_length(
        served_store, content_length
    )
    assert status_line.split()[1] == "400"
    assert payload["error"]["code"] == "bad_request"
    assert elapsed < 2.0


def test_keep_alive_requests_do_not_stall(served_store, small_campaign):
    """Sequential requests on one kept-alive connection answer promptly.

    A response written as two small sends (headers, then body) waits on
    Nagle for the client's delayed ACK, about 40 ms per request; 200
    requests would take about 8 s.  Every body must still equal the
    direct computation.
    """
    import http.client

    from repro.data.loadtest import PlannedRequest, direct_response

    store, digest = served_store
    vantage = sorted(small_campaign.repository.vantage_names)[0]
    requests = [
        PlannedRequest(kind="detail", method="GET", path=f"/campaigns/{digest}"),
        PlannedRequest(
            kind="classify",
            method="GET",
            path=f"/campaigns/{digest}/analysis/classify",
            params=(("vantage", vantage),),
        ),
    ]
    expected = [direct_response(store, request) for request in requests]
    server = make_server(ServeConfig(port=0, cache_root=str(store.root)), store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(*server.server_address, timeout=10.0)
    try:
        started = time.monotonic()
        for i in range(200):
            request = requests[i % len(requests)]
            connection.request("GET", request.url(""))
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == expected[i % len(requests)]
        elapsed = time.monotonic() - started
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
    assert elapsed < 2.0, f"200 kept-alive requests took {elapsed:.2f} s"
