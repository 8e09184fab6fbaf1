"""Standardized benchmark workloads over the measurement pipeline.

Each workload runs one well-bounded slice of the system — the campaign
round loop, the DNS phase, the fault plan, or the whole pipeline — under
tracing, and returns a :class:`WorkloadResult` carrying wall-clock time
plus the *deterministic work counters* (zone walks, endpoint/path
lookups, RNG constructions, samples).  Wall-clock is for the humans; the
counters are what the regression gate compares, because for a fixed
(seed, scale) they are exact integers stable across machines and Python
versions.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from .. import obs
from ..config import ExecutionConfig, small_config
from ..core import build_world, run_campaign
from ..experiments.scenario import build_contexts
from ..faults import FaultPlan, fault_preset
from ..net.addresses import AddressFamily

#: benchmarks always run in process (serial backend): the work counters
#: live in this process's registry, and a worker pool would scatter them.
_SERIAL = ExecutionConfig(backend="serial", jobs=1)

#: counters snapshot into every workload result (missing ones read 0).
WORK_COUNTERS = (
    "dns.zone_walks",
    "dns.cache_hits",
    "dns.cache_misses",
    "dns.dns64.synthesized",
    "faults.nat64_outages",
    "web.endpoint_lookups",
    "web.path_lookups",
    "web.sessions",
    "rng.constructions",
    "download.samples",
    "download.loops_converged",
    "download.loops_exhausted",
    "download.loops_gave_up",
    "monitor.sites_monitored",
    "monitor.sites_measured",
    "monitor.dual_stack",
    "bgp.route_computations",
    "data.query.scans",
    "data.query.rows_scanned",
    "data.query.index_hits",
    "data.query.groups_emitted",
    "data.series.builds",
    "data.columnar.encodes",
    "data.columnar.bin_encodes",
    "data.columnar.bin_decodes",
    "data.columnar.bin_digest_verified",
    "data.columnar.bin_table_decodes",
    "engine.store.bin_loads",
    "observers.runs",
    "observers.reports",
    "observers.errors",
)


@dataclass
class WorkloadResult:
    """One workload's outcome: timings, work counters, derived ratios."""

    name: str
    wall_seconds: float
    counters: dict[str, float] = field(default_factory=dict)
    #: per-span-name totals for the spans the workload cares about.
    spans: dict[str, dict] = field(default_factory=dict)
    #: ratios computed from the counters (the gate-friendly view).
    derived: dict[str, float] = field(default_factory=dict)
    #: free-form extras (repository digest, decision counts, ...).
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counters),
            "spans": dict(self.spans),
            "derived": dict(self.derived),
            "meta": dict(self.meta),
        }


def _counter_value(name: str) -> float:
    metric = obs.get_registry().get(name)
    value = getattr(metric, "value", 0.0) if metric is not None else 0.0
    return float(value or 0.0)


def _snapshot_counters() -> dict[str, float]:
    return {name: _counter_value(name) for name in WORK_COUNTERS}


def _span_totals(*names: str) -> dict[str, dict]:
    tracer = obs.get_tracer()
    out: dict[str, dict] = {}
    for name in names:
        spans = tracer.completed(name)
        if spans:
            durations = [s.duration for s in spans]
            out[name] = {
                "count": len(spans),
                "total_s": sum(durations),
                "median_s": statistics.median(durations),
            }
    return out


def _loop_count(counters: dict[str, float]) -> float:
    return (
        counters["download.loops_converged"]
        + counters["download.loops_exhausted"]
        + counters["download.loops_gave_up"]
    )


def _campaign_derived(counters: dict[str, float], wall: float) -> dict[str, float]:
    """The gate ratios: per-site zone walks, per-loop lookups, throughput."""
    sites = counters["monitor.sites_monitored"]
    loops = _loop_count(counters)
    samples = counters["download.samples"]
    return {
        "zone_walks_per_site": counters["dns.zone_walks"] / sites if sites else 0.0,
        "endpoint_lookups_per_loop": (
            counters["web.endpoint_lookups"] / loops if loops else 0.0
        ),
        "path_lookups_per_loop": (
            counters["web.path_lookups"] / loops if loops else 0.0
        ),
        "rng_constructions_per_sample": (
            counters["rng.constructions"] / samples if samples else 0.0
        ),
        "samples_per_second": samples / wall if wall > 0 else 0.0,
    }


def round_loop(seed: int, scale: float) -> WorkloadResult:
    """The campaign round loop: build the world, run every round.

    This is the ~93%-of-wall-time path the optimization work targets;
    ``campaign.round`` span totals and the work counters both come back.
    """
    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    world = build_world(config)
    t0 = time.perf_counter()
    run_campaign(world, execution=_SERIAL)
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    return WorkloadResult(
        name="round_loop",
        wall_seconds=wall,
        counters=counters,
        spans=_span_totals("campaign.round", "campaign.run"),
        derived=_campaign_derived(counters, wall),
    )


def dns_phase(seed: int, scale: float) -> WorkloadResult:
    """The DNS phase alone: every site resolved for both families.

    Positions a DNS timeline cursor at the final round, then files every
    catalog site through :meth:`~repro.dns.resolver.Resolver.resolve`,
    the A + AAAA pair the round plan resolves — the workload that
    exposes authoritative-walk and cache-accounting regressions.
    """
    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    world = build_world(config)
    final_round = config.campaign.n_rounds - 1
    t0 = time.perf_counter()
    env = world.environment_for(
        world.vantages[0], zones=world.dns_cursor(final_round)
    )
    resolver = env.resolver
    resolver.sync()
    sites = world.catalog.sites
    for site in sites:
        resolver.resolve(site.name)
    resolver.account(len(sites), len(sites))
    resolver.flush_counters()
    n_queries = 2 * len(sites)
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    walks = counters["dns.zone_walks"]
    return WorkloadResult(
        name="dns_phase",
        wall_seconds=wall,
        counters=counters,
        derived={
            "zone_walks_per_query": walks / n_queries if n_queries else 0.0,
            "queries_per_second": n_queries / wall if wall > 0 else 0.0,
        },
        meta={"n_queries": n_queries},
    )


#: fault-plan decisions per benchmark run (coordinates swept below).
FAULT_DECISIONS = 20_000


def fault_plan(seed: int, scale: float = 1.0) -> WorkloadResult:
    """The fault plan alone: a sweep of DNS and server fault decisions.

    ``scale`` sizes the sweep.  The gate counter is ``rng.constructions``:
    every decision must be a direct digest-derived uniform, never a
    ``random.Random`` construction.
    """
    obs.reset()
    obs.enable()
    plan = FaultPlan(fault_preset("heavy"), master_seed=seed)
    n = max(1, int(FAULT_DECISIONS * scale))
    t0 = time.perf_counter()
    for idx in range(n):
        site_id = idx % 977
        round_idx = idx % 13
        plan.dns_failure(f"site-{site_id}.example.", AddressFamily.IPV6,
                         round_idx, idx % 3)
        plan.server_fault(site_id, AddressFamily.IPV6, round_idx,
                          f"loop:{idx % 7}")
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    return WorkloadResult(
        name="fault_plan",
        wall_seconds=wall,
        counters=counters,
        derived={
            "decisions_per_second": (2 * n) / wall if wall > 0 else 0.0,
            "rng_constructions_per_decision": (
                counters["rng.constructions"] / (2 * n)
            ),
        },
        meta={"n_decisions": 2 * n},
    )


def end_to_end(seed: int, scale: float) -> WorkloadResult:
    """The whole pipeline: world, campaign, analysis, repository digest.

    The digest pins bit-identity: for the baseline (seed, scale) it must
    match the CI-pinned faults-off value no matter which caches fire.
    """
    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    t0 = time.perf_counter()
    world = build_world(config)
    result = run_campaign(world, execution=_SERIAL)
    build_contexts(config, result)
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    derived = _campaign_derived(counters, wall)
    return WorkloadResult(
        name="end_to_end",
        wall_seconds=wall,
        counters=counters,
        spans=_span_totals("campaign.round", "campaign.run", "world.build",
                           "analysis.contexts"),
        derived=derived,
        meta={"repository_digest": result.repository.content_digest()},
    )


def _query_battery(cdb) -> tuple[int, int]:
    """A frozen regression battery for the query core.

    The dual-stack group-aggregate plus, per dual-stack site and family,
    the four point lookups the analysis layer made before it read the
    series index (``converged_speeds``, ``dest_asn``, ``modal_as_path``,
    ``path_change_rounds``), issued through ``run_query`` with their old
    filters.  No caller makes these lookups any more, and they are not
    the ``/query`` mix ``data.loadtest`` models; the battery is kept so
    the ``data.query.*`` counters stay comparable with earlier
    baselines.  Returns (sites, queries).
    """
    from ..data.query import Aggregate, Filter, Query, run_query
    from ..data.series import dual_stack_sites

    run_query(cdb, Query(
        table="downloads",
        where=(Filter("converged", "eq", True),),
        group_by=("site_id", "family"),
        aggregates=(Aggregate(op="count", alias="rounds"),),
    ))
    sites = dual_stack_sites(cdb)
    n_queries = 1
    for site_id in sites:
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            key = (
                Filter("site_id", "eq", site_id),
                Filter("family", "eq", family.value),
            )
            run_query(cdb, Query(
                table="downloads",
                where=(*key, Filter("converged", "eq", True)),
                select=("mean_speed",),
            ))
            for select in (("dest_asn",), ("as_path",), ("round", "as_path")):
                run_query(cdb, Query(table="paths", where=key, select=select))
            n_queries += 4
    return len(sites), n_queries


def query(seed: int, scale: float) -> WorkloadResult:
    """The columnar query core over a full campaign's tables.

    Runs the frozen query battery (:func:`_query_battery`) against
    every vantage's columnar database.  The gate counters are ``data.query.*``:
    scans, rows scanned, index hits, and groups emitted are exact
    integers for a fixed (seed, scale), and the index-hit fraction
    asserts the predicate pushdown stays wired in.
    """
    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    world = build_world(config)
    result = run_campaign(world, execution=_SERIAL)
    t0 = time.perf_counter()
    n_queries = 0
    n_sites = 0
    for _, cdb in result.repository.items():
        sites, queries = _query_battery(cdb)
        n_sites += sites
        n_queries += queries
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    scans = counters["data.query.scans"]
    return WorkloadResult(
        name="query",
        wall_seconds=wall,
        counters=counters,
        derived={
            "index_hit_fraction": (
                counters["data.query.index_hits"] / scans if scans else 0.0
            ),
            "rows_scanned_per_scan": (
                counters["data.query.rows_scanned"] / scans if scans else 0.0
            ),
            "queries_per_second": n_queries / wall if wall > 0 else 0.0,
        },
        meta={"n_queries": n_queries, "n_dual_stack_sites": n_sites},
    )


def observers(seed: int, scale: float) -> WorkloadResult:
    """The derived-metric observer panel over a full campaign.

    Runs every registered observer through the canonical runner and
    snapshots the ``observers.*`` counters plus the ``data.query.*`` and
    ``data.series.builds`` work the panel itself issued (deltas against
    a pre-panel snapshot, so the campaign's own work doesn't blur the
    gate ratios).  The report digests ride along in ``meta`` to pin
    bit-identity.
    """
    from ..data.columnar import ColumnarRepository
    from ..observers import run_panel

    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    world = build_world(config)
    result = run_campaign(world, execution=_SERIAL)
    columnar = ColumnarRepository.from_repository(result.repository)
    before = _snapshot_counters()
    t0 = time.perf_counter()
    reports = run_panel(columnar)
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    moved = {name: counters[name] - before[name] for name in counters}
    n_reports = len(reports)
    n_vantages = len(columnar.databases)
    runs = n_reports * n_vantages
    return WorkloadResult(
        name="observers",
        wall_seconds=wall,
        counters=counters,
        spans=_span_totals("observers.run"),
        derived={
            "scans_per_vantage_observer": (
                moved["data.query.scans"] / runs if runs else 0.0
            ),
            "series_builds": moved["data.series.builds"],
            "rows_scanned_per_observer": (
                moved["data.query.rows_scanned"] / n_reports
                if n_reports
                else 0.0
            ),
            "reports_per_second": n_reports / wall if wall > 0 else 0.0,
        },
        meta={
            "n_reports": n_reports,
            "n_vantages": n_vantages,
            "report_digests": {
                name: reports[name].digest for name in sorted(reports)
            },
        },
    )


def dns64(seed: int, scale: float) -> WorkloadResult:
    """The NAT64/DNS64 transition axis end to end.

    Runs the campaign with DNS64 enabled — every v4-only site answers
    AAAA queries with a synthesized ``64:ff9b::/96`` address and is
    fetched through the translated forwarding path — then replays the
    frozen query battery (:func:`_query_battery`) over the transitions-bearing databases.  The
    gates assert the axis actually engaged (nonzero synthesis counters,
    transitions recorded) and that the extra table leaves the query
    core's index-hit fraction at the plain-campaign floor.
    """
    import dataclasses

    from ..data.series import transition_counts

    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    config = dataclasses.replace(
        config, dns64=dataclasses.replace(config.dns64, enabled=True)
    )
    world = build_world(config)
    t0 = time.perf_counter()
    result = run_campaign(world, execution=_SERIAL)
    n_transitions = 0
    n_translated = 0
    n_queries = 0
    for _, cdb in result.repository.items():
        n_transitions += cdb.table("transitions").n_rows
        n_translated += transition_counts(cdb).get("translated", 0)
        n_queries += _query_battery(cdb)[1]
    wall = time.perf_counter() - t0
    counters = _snapshot_counters()
    scans = counters["data.query.scans"]
    return WorkloadResult(
        name="dns64",
        wall_seconds=wall,
        counters=counters,
        spans=_span_totals("campaign.round", "campaign.run"),
        derived={
            "index_hit_fraction": (
                counters["data.query.index_hits"] / scans if scans else 0.0
            ),
            "translated_share": (
                n_translated / n_transitions if n_transitions else 0.0
            ),
            "synthesized_per_transition": (
                counters["dns.dns64.synthesized"] / n_transitions
                if n_transitions
                else 0.0
            ),
        },
        meta={
            "n_transitions": n_transitions,
            "n_translated": n_translated,
            "n_queries": n_queries,
            "repository_digest": result.repository.content_digest(),
        },
    )


#: timed cold loads in the ``store_io`` workload (fixed, so the
#: store/columnar counters stay exact integers for a given campaign).
STORE_IO_LOADS = 3


def store_io(seed: int, scale: float) -> WorkloadResult:
    """Store save, cold ``columnar.bin`` loads and first query over a real
    store entry.

    Saves one campaign into a throwaway :class:`CampaignStore`, then
    times a fixed number of cold loads and the first read of the
    dual-stack population (whole-column filters, no series build) over
    the lazily decoded repository.  The structural gates are
    counter-exact: every load is served from ``columnar.bin`` and
    verifies its content digest.
    """
    import pathlib
    import tempfile

    from ..data.series import dual_stack_sites
    from ..engine.store import CampaignStore, config_digest

    obs.reset()
    obs.enable()
    config = small_config(seed=seed, scale=scale)
    world = build_world(config)
    result = run_campaign(world, execution=_SERIAL)
    with tempfile.TemporaryDirectory(prefix="repro-store-io-") as tmp:
        store = CampaignStore(pathlib.Path(tmp))
        t0 = time.perf_counter()
        store.save(config, result.repository, result.reports)
        save_seconds = time.perf_counter() - t0
        digest = config_digest(config)
        bin_bytes = (store.entry_dir(digest) / "columnar.bin").stat().st_size

        load_times = []
        columnar = None
        for _ in range(STORE_IO_LOADS):
            t0 = time.perf_counter()
            loaded = store.load_columnar_entry(digest)
            load_times.append(time.perf_counter() - t0)
            _, columnar = loaded
        # first dual-stack read over the last (still lazy) load
        t0 = time.perf_counter()
        n_sites = sum(
            len(dual_stack_sites(cdb)) for cdb in columnar.databases.values()
        )
        first_query_seconds = time.perf_counter() - t0

    wall = save_seconds + sum(load_times) + first_query_seconds
    return WorkloadResult(
        name="store_io",
        wall_seconds=wall,
        counters=_snapshot_counters(),
        spans=_span_totals("engine.store.save", "engine.store.load_columnar"),
        derived={
            "save_seconds": save_seconds,
            "bin_load_seconds": min(load_times),
            "first_query_seconds": first_query_seconds,
        },
        meta={
            "n_loads": STORE_IO_LOADS,
            "bin_bytes": bin_bytes,
            "n_dual_stack_sites": n_sites,
        },
    )


#: name -> callable(seed, scale); the bench CLI's workload registry.
WORKLOADS = {
    "round_loop": round_loop,
    "dns_phase": dns_phase,
    "fault_plan": fault_plan,
    "end_to_end": end_to_end,
    "query": query,
    "observers": observers,
    "store_io": store_io,
    "dns64": dns64,
}
