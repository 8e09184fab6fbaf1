"""Campaign shards: the unit of work the execution engine dispatches.

The paper's data collection is embarrassingly parallel — six vantage
points each run their own monitoring tool and only merge databases at the
central repository.  A :class:`VantageShard` captures one vantage point's
share of a campaign as plain data (scenario config, vantage name, round
count, RNG stream name), so it can be executed in-process or pickled to a
worker process; :func:`execute_shard` turns a shard into a
:class:`ShardResult` carrying the shard's measurement tables, frozen
into a :class:`~repro.data.columnar.ColumnarDatabase` when the shard
ends, plus the compact dict forms of the vantage and its
:class:`~repro.monitor.tool.RoundReport` s.  In process the columns are
handed over as is; crossing to a worker's parent they pickle as their
typed arrays.

Determinism: each vantage draws from its own named RNG stream, round
noise is derived per (site, family, round) from the master seed, and the
DNS timeline is a pure function of the catalog (each shard reads it
through its own :class:`~repro.dns.timeline.TimelineCursor`).  A shard
therefore produces the same database whether it runs interleaved with
its siblings, alone in this process, or in a worker that rebuilt the
world from the config — which is why serial and process backends yield
bit-identical repositories.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace

from ..config import ScenarioConfig
from ..data.columnar import ColumnarDatabase
from ..dataplane.clock import SimulationClock
from ..dns.resolver import Resolver
from ..errors import EngineError
from ..monitor.tool import MonitoringTool, RoundReport, VantageEnvironment
from ..monitor.vantage import VantagePoint
from ..net.addresses import Address, AddressFamily
from ..obs import get_logger, span
from ..web.http import HttpClient, RouteBinding

_LOG = get_logger("engine.shard")

#: shard kinds understood by :func:`execute_shard`.
WEEKLY = "weekly"
W6D = "w6d"


@dataclass(frozen=True)
class VantageShard:
    """One vantage point's share of a campaign, as picklable plain data."""

    config: ScenarioConfig
    vantage_name: str
    #: :data:`WEEKLY` (the regular campaign) or :data:`W6D`.
    kind: str
    n_rounds: int
    #: the vantage's named RNG stream (``monitor:Penn``, ``w6d:LU``, ...).
    rng_stream: str
    max_sites_per_round: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (WEEKLY, W6D):
            raise EngineError(f"unknown shard kind {self.kind!r}")
        if self.n_rounds < 1:
            raise EngineError("shards need at least one round")


@dataclass
class ShardResult:
    """What one executed shard sends back: its frozen tables, plus
    JSON-ready vantage and report payloads."""

    vantage: dict
    database: ColumnarDatabase
    reports: list[dict]
    wall_seconds: float

    @property
    def vantage_name(self) -> str:
        return self.vantage["name"]


#: per-process world cache: worker processes rebuild the world from the
#: shard's config once, then reuse it for every shard they are handed.
_WORLD_CACHE: dict[ScenarioConfig, object] = {}
_WORLD_CACHE_MAX = 2


def _world_for(config: ScenarioConfig):
    from ..core.world import build_world

    world = _WORLD_CACHE.get(config)
    if world is None:
        if len(_WORLD_CACHE) >= _WORLD_CACHE_MAX:
            _WORLD_CACHE.pop(next(iter(_WORLD_CACHE)))
        world = build_world(config)
        _WORLD_CACHE[config] = world
    return world


def _vantage_named(world, name: str) -> VantagePoint:
    for vantage in world.vantages:
        if vantage.name == name:
            return vantage
    raise EngineError(
        f"shard names unknown vantage {name!r}; world has "
        f"{[v.name for v in world.vantages]}"
    )


def _maybe_kill_for_test(shard: VantageShard) -> None:
    """Deterministic worker-failure hook for the degradation tests.

    ``REPRO_TEST_KILL_SHARD=<vantage>`` makes that vantage's shard raise
    inside pool workers (never in the main process, so the executor's
    serial fallback succeeds); ``<vantage>:exit`` hard-kills the worker
    process instead, exercising the BrokenProcessPool path.
    """
    spec = os.environ.get("REPRO_TEST_KILL_SHARD")
    if not spec or multiprocessing.parent_process() is None:
        return
    name, _, mode = spec.partition(":")
    if name != shard.vantage_name:
        return
    if mode == "exit":
        os._exit(13)
    raise EngineError(f"test hook killed shard {shard.vantage_name!r}")


def execute_shard(shard: VantageShard, world=None) -> ShardResult:
    """Run one shard to completion; the engine's worker entry point.

    ``world`` reuses an already-built world (the serial backend passes
    the caller's); when omitted — as in pool workers, which receive only
    the pickled shard — the world is rebuilt from ``shard.config`` and
    cached per process.
    """
    _maybe_kill_for_test(shard)
    if world is None:
        world = _world_for(shard.config)
    started = time.perf_counter()
    with span("engine.shard", vantage=shard.vantage_name, kind=shard.kind):
        if shard.kind == W6D:
            vantage, database, reports = _run_w6d_shard(world, shard)
        else:
            vantage, database, reports = _run_weekly_shard(world, shard)
        columns = database.freeze()
    wall = time.perf_counter() - started
    _LOG.info(
        "shard complete",
        extra={
            "vantage": shard.vantage_name,
            "kind": shard.kind,
            "rounds": shard.n_rounds,
            "measured": sum(r.n_measured for r in reports),
            "wall_seconds": round(wall, 3),
        },
    )
    return ShardResult(
        vantage=vantage.to_dict(),
        database=columns,
        reports=[r.to_dict() for r in reports],
        wall_seconds=wall,
    )


def _run_weekly_shard(world, shard: VantageShard):
    """One vantage point's weekly campaign, on its own DNS timeline cursor."""
    vantage = _vantage_named(world, shard.vantage_name)
    cursor = world.dns_cursor()
    tool = MonitoringTool(
        vantage=vantage,
        env=world.environment_for(vantage, zones=cursor),
        config=world.config.monitor,
        rng=world.rngs.fresh(shard.rng_stream),
        max_sites_per_round=shard.max_sites_per_round,
    )
    reports: list[RoundReport] = []
    for round_idx in range(shard.n_rounds):
        with span("campaign.round", round=round_idx, vantage=vantage.name):
            cursor.advance_to(round_idx)
            reports.append(tool.run_round(round_idx))
    return vantage, tool.database, reports


def _run_w6d_shard(world, shard: VantageShard):
    """One vantage point's World IPv6 Day rounds (30-minute clock)."""
    vantage = _vantage_named(world, shard.vantage_name)
    # Every participating vantage monitors from the first event round,
    # with no external input feed (the event targets the roster only).
    active = replace(vantage, start_round=0, external_inputs=False)
    tool = MonitoringTool(
        vantage=active,
        env=_w6d_environment(world, active),
        config=world.config.monitor,
        rng=world.rngs.fresh(shard.rng_stream),
    )
    reports = [tool.run_round(round_idx) for round_idx in range(shard.n_rounds)]
    return active, tool.database, reports


def _w6d_environment(world, vantage: VantagePoint) -> VantageEnvironment:
    """A monitoring environment specialised for World IPv6 Day.

    Differences from the regular campaign: the site list is the
    participant roster, and participants who provisioned their IPv6
    presence well (``w6d_good_v6``) serve IPv6 at parity with IPv4 - the
    path-induced deficit is offset server-side (multi-homed event
    presence), without changing the BGP paths the monitor records.
    """
    participants = world.catalog.w6d_participants()
    names = [site.name for site in participants]
    v4, v6 = AddressFamily.IPV4, AddressFamily.IPV6

    def bind(
        final_name: str, address: Address, family: AddressFamily
    ) -> RouteBinding:
        binding = world.bind_route(vantage.asn, final_name, address, family)
        site = world.catalog.by_name(final_name)
        if family is v6 and site.w6d_good_v6:
            v4_path = world.forwarding_path(
                vantage.asn, site.dest_asn(v4), v4, alternate=False
            )
            v6_path = world.forwarding_path(
                vantage.asn, site.dest_asn(v6), v6, alternate=False
            )
            if v4_path is not None and v6_path is not None:
                f_v4 = world.model.path_factor(v4_path)
                f_v6 = world.model.path_factor(v6_path)
                if f_v6 < f_v4:
                    binding.parity = f_v4 / f_v6
        return binding

    client = HttpClient(
        model=world.model,
        binder=bind,
        fault_hook=world.server_fault_hook(),
        faults=world.faults,
    )
    w6d_round = world.config.adoption.world_ipv6_day_round
    w6d_clock = SimulationClock.world_ipv6_day()
    return VantageEnvironment(
        resolver=Resolver(
            store=world.dns_cursor(w6d_round),
            fault_check=world.dns_fault_check(w6d_clock),
        ),
        client=client,
        clock=w6d_clock,
        site_list=lambda round_idx: list(names),
        external_inputs=lambda round_idx: [],
        site_id_of=lambda name: world.catalog.by_name(name).site_id,
    )
