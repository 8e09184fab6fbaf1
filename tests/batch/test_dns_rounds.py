"""The DNS phase's per-round outcome, pinned as data.

Two oracles for the round plan's DNS sweep, both recorded from the
per-site walk that ran next to the batched plane until the two were
merged (``REPRO_REGEN_GOLDEN=1`` rewrites them, for an intended change
of the simulation only):

* a golden fixture of one vantage's per-round dual-stack site ids and
  top-list tallies (queried, with A, with AAAA), faults off, with DNS64
  off and on;
* a hand-built zone whose records change between rounds — an AAAA
  added then removed, a CNAME retargeted, a CNAME target gaining an
  AAAA, a name appearing from NXDOMAIN — pinned as the sha256 of the
  database's wire form plus the round reports, DNS64 off and on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random

import pytest

from repro.config import MonitorConfig, PerformanceConfig
from repro.dataplane.clock import SimulationClock
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.dns.records import RecordType, ResourceRecord
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneStore
from repro.monitor.aggregate import CentralRepository
from repro.monitor.tool import MonitoringTool, VantageEnvironment
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import IPv4Address, IPv6Address
from repro.rng import RngStreams
from repro.sites.behaviour import SiteBehaviour
from repro.web.http import ContentEndpoint, HttpClient, RouteBinding

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
FIXTURE = FIXTURES / "golden_dns_rounds.json"
ZONE_FIXTURE = FIXTURES / "golden_zone_rounds.json"
VANTAGE = "Penn"


def _dns_rounds(db) -> dict:
    """Per round: sorted dual-stack site ids and the top-list tallies."""
    dual: dict[int, set[int]] = {}
    for site_id, _, round_idx, *_ in db.table("dns").rows():
        dual.setdefault(round_idx, set()).add(site_id)
    counts = {row[0]: row[1:] for row in db.table("dns_counts").rows()}
    rounds = sorted(set(dual) | set(counts))
    return {
        str(r): {
            "dual_stack": sorted(dual.get(r, ())),
            "listed": list(counts.get(r, (0, 0, 0))),
        }
        for r in rounds
    }


def _summary(small_campaign, dns64_campaign) -> dict:
    return {
        "dns64_off": _dns_rounds(small_campaign.repository.database(VANTAGE)),
        "dns64_on": _dns_rounds(dns64_campaign.repository.database(VANTAGE)),
    }


class TestGoldenDnsRounds:
    def test_dns_rounds_match_golden(self, small_campaign, dns64_campaign):
        summary = _summary(small_campaign, dns64_campaign)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE.write_text(json.dumps(summary, sort_keys=True) + "\n")
            pytest.skip("golden fixture regenerated")
        assert FIXTURE.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert summary == json.loads(FIXTURE.read_text())

    def test_fixture_covers_adoption(self):
        golden = json.loads(FIXTURE.read_text())
        off = golden["dns64_off"]
        # AAAA records appear during the campaign: the dual-stack set grows.
        first, last = min(off, key=int), max(off, key=int)
        assert len(off[last]["dual_stack"]) > len(off[first]["dual_stack"])
        # DNS64 synthesizes an AAAA for every v4-only site.
        for row in golden["dns64_on"].values():
            queried, with_a, with_aaaa = row["listed"]
            assert queried == with_a == with_aaaa > 0


# ---------------------------------------------------------------------------
# a hand-built zone that changes between rounds

#: query names and the site id each measures.
SITES = {
    "flip.example": 0,     # AAAA added at round 1, removed at round 3
    "moved.example": 1,    # CNAME retargeted at round 2
    "edgy.example": 2,     # CNAME whose target gains an AAAA at round 2
    "steady.example": 3,   # dual-stack throughout
    "late.example": 4,     # NXDOMAIN until round 2
    "v6only.example": 5,   # loses its A record at round 3
}
#: every terminal name an answer can end at, with its content's site id.
TERMINALS = {
    **SITES,
    "edge1.cdn.": 1,
    "edge2.cdn.": 1,
    "edge3.cdn.": 2,
}
N_ROUNDS = 5


def _v4(n: int) -> IPv4Address:
    return IPv4Address(1000 + n)


def _v6(n: int) -> IPv6Address:
    return IPv6Address(1000 + n)


def _build_store() -> ZoneStore:
    store = ZoneStore()
    site = store.zone_for("example.")
    cdn = store.zone_for("cdn.")
    site.add(ResourceRecord("flip.example", RecordType.A, _v4(0)))
    site.add(ResourceRecord("moved.example", RecordType.CNAME, "edge1.cdn."))
    site.add(ResourceRecord("edgy.example", RecordType.CNAME, "edge3.cdn."))
    site.add(ResourceRecord("steady.example", RecordType.A, _v4(3)))
    site.add(ResourceRecord("steady.example", RecordType.AAAA, _v6(3)))
    site.add(ResourceRecord("v6only.example", RecordType.A, _v4(5)))
    site.add(ResourceRecord("v6only.example", RecordType.AAAA, _v6(5)))
    cdn.add(ResourceRecord("edge1.cdn.", RecordType.A, _v4(11)))
    cdn.add(ResourceRecord("edge1.cdn.", RecordType.AAAA, _v6(11)))
    cdn.add(ResourceRecord("edge2.cdn.", RecordType.A, _v4(12)))
    cdn.add(ResourceRecord("edge3.cdn.", RecordType.A, _v4(13)))
    return store


def _mutate(store: ZoneStore, round_idx: int) -> None:
    """The zone changes published before ``round_idx`` runs."""
    site = store.zone_for("example.")
    cdn = store.zone_for("cdn.")
    if round_idx == 1:
        site.add(ResourceRecord("flip.example", RecordType.AAAA, _v6(0)))
    elif round_idx == 2:
        site.remove("moved.example", RecordType.CNAME)
        site.add(ResourceRecord("moved.example", RecordType.CNAME, "edge2.cdn."))
        cdn.add(ResourceRecord("edge3.cdn.", RecordType.AAAA, _v6(13)))
        site.add(ResourceRecord("late.example", RecordType.A, _v4(4)))
        site.add(ResourceRecord("late.example", RecordType.AAAA, _v6(4)))
    elif round_idx == 3:
        site.remove("flip.example", RecordType.AAAA)
        site.remove("v6only.example", RecordType.A)


def _environment(store: ZoneStore, dns64: bool) -> VantageEnvironment:
    model = ThroughputModel(PerformanceConfig(), RngStreams(5))

    def binder(name, address, family):
        site_id = TERMINALS[name]
        hops = (1, 2) if site_id % 2 else (1, 3, 2)
        path = ForwardingPath(
            family=family, as_path=hops, quality=1.0, tunnels=(),
            tunnel_quality=0.8,
        )
        endpoint = ContentEndpoint(
            site_id=site_id,
            server_asn=2,
            server_speed=80.0 + 10 * site_id,
            page_bytes=40_000,
        )
        return RouteBinding(
            endpoint, family, 2, SiteBehaviour.stationary(),
            lambda alternate: path,
        )

    return VantageEnvironment(
        resolver=Resolver(store=store, dns64=dns64),
        client=HttpClient(model=model, binder=binder),
        clock=SimulationClock.weekly(),
        site_list=lambda round_idx: sorted(SITES),
        external_inputs=lambda round_idx: [],
        site_id_of=lambda name: SITES[name],
    )


def _run(dns64: bool) -> tuple[dict, list]:
    store = _build_store()
    vantage = VantagePoint(
        name="Zone", location="Testville", asn=1, start_round=0,
        as_path_available=True, white_listed=False,
        kind=VantageKind.ACADEMIC,
    )
    tool = MonitoringTool(
        vantage=vantage,
        env=_environment(store, dns64),
        config=MonitorConfig(min_rounds=3),
        rng=random.Random(23),
    )
    reports = []
    for round_idx in range(N_ROUNDS):
        _mutate(store, round_idx)
        reports.append(tool.run_round(round_idx).to_dict())
    repository = CentralRepository()
    repository.add(vantage, tool.database.freeze())
    return repository.to_dict()["databases"][vantage.name], reports


def _zone_digest(dns64: bool) -> str:
    data, reports = _run(dns64)
    blob = json.dumps(
        {"database": data, "reports": reports},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("dns64", [False, True], ids=["dns64_off", "dns64_on"])
def test_zone_changes_between_rounds_match_per_site_walk(dns64):
    key = "dns64_on" if dns64 else "dns64_off"
    digest = _zone_digest(dns64)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = (
            json.loads(ZONE_FIXTURE.read_text()) if ZONE_FIXTURE.exists() else {}
        )
        golden[key] = digest
        ZONE_FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden fixture regenerated")
    assert digest == json.loads(ZONE_FIXTURE.read_text())[key]


def test_zone_changes_show_in_the_dns_table():
    data, _reports = _run(dns64=False)
    dual = {}
    for site_id, _name, round_idx, has_v4, has_v6, _listed in data["dns"]:
        assert has_v4 and has_v6
        dual.setdefault(round_idx, set()).add(site_id)
    assert dual[0] == {1, 3, 5}
    assert dual[1] == {0, 1, 3, 5}
    assert dual[2] == {0, 2, 3, 4, 5}
    assert dual[3] == {2, 3, 4}
    # (queried, with A, with AAAA) over the six listed names.
    counts = {r: (q, a, aaaa) for r, q, a, aaaa in data["dns_counts"]}
    assert counts[0] == (6, 5, 3)
    assert counts[2] == (6, 6, 5)
    assert counts[3] == (6, 5, 4)
