"""Campaign drivers.

``run_campaign`` runs the weekly monitoring campaign from every vantage
point (each joining at its start round) and aggregates the databases into
a central repository — the paper's data-collection phase end to end.

``run_world_ipv6_day`` reproduces the special World IPv6 Day experiment:
30-minute monitoring rounds for one day, restricted to the sites that
advertised participation in the event.

Both drivers are thin shells over the execution engine: they build one
:class:`~repro.engine.shard.VantageShard` per vantage point, hand the
batch to an :class:`~repro.engine.executor.Executor` (serial in-process
by default, a process pool with ``--backend process``), and merge the
returned shard payloads into a :class:`CampaignResult`.  Per-vantage RNG
streams and per-shard cursors over the world's one DNS timeline make the
merge order-independent, so every backend yields bit-identical
repositories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExecutionConfig, ScenarioConfig
from ..engine.executor import make_executor
from ..engine.shard import W6D, WEEKLY, ShardResult, VantageShard
from ..errors import ConfigError
from ..monitor.aggregate import CentralRepository
from ..monitor.tool import RoundReport
from ..monitor.vantage import VantagePoint
from ..obs import get_logger, metrics, span
from .world import World

_LOG = get_logger("core.campaign")

#: Number of 30-minute rounds in the World IPv6 Day experiment (24h).
W6D_ROUNDS = 48


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    world: World
    repository: CentralRepository
    reports: dict[str, list[RoundReport]] = field(default_factory=dict)

    def total_measurements(self) -> int:
        """Download-statistics rows recorded across every vantage."""
        return sum(
            cdb.table("downloads").n_rows for _, cdb in self.repository.items()
        )


def build_campaign_shards(
    world: World,
    n_rounds: int,
    max_sites_per_round: int,
) -> list[VantageShard]:
    """One weekly-campaign shard per vantage point, in world order."""
    return [
        VantageShard(
            config=world.config,
            vantage_name=vantage.name,
            kind=WEEKLY,
            n_rounds=n_rounds,
            rng_stream=f"monitor:{vantage.name}",
            max_sites_per_round=max_sites_per_round,
        )
        for vantage in world.vantages
    ]


def merge_shard_results(
    world: World, results: list[ShardResult]
) -> CampaignResult:
    """Fold executed shards back into one campaign result.

    Each shard's frozen columns are adopted as is (a worker's arrive
    unpickled); vantage and report payloads are plain dicts.  Databases
    register with the central repository in shard order.
    """
    repository = CentralRepository()
    reports: dict[str, list[RoundReport]] = {}
    for result in results:
        vantage = VantagePoint.from_dict(result.vantage)
        repository.add(vantage, result.database)
        reports[vantage.name] = [
            RoundReport.from_dict(r) for r in result.reports
        ]
    return CampaignResult(world=world, repository=repository, reports=reports)


def run_campaign(
    world: World,
    n_rounds: int | None = None,
    max_sites_per_round: int | None = None,
    execution: ExecutionConfig | None = None,
) -> CampaignResult:
    """Run the full weekly campaign on ``world``.

    ``n_rounds`` and ``max_sites_per_round`` default to the world's
    campaign config; ``execution`` picks the backend (None reads
    ``REPRO_BACKEND`` / ``REPRO_JOBS``, defaulting to serial).
    """
    config: ScenarioConfig = world.config
    if n_rounds is None:
        n_rounds = config.campaign.n_rounds
    if max_sites_per_round is None:
        max_sites_per_round = config.campaign.max_sites_per_round
    if n_rounds < 1:
        raise ConfigError("need at least one round")

    shards = build_campaign_shards(world, n_rounds, max_sites_per_round)
    executor = make_executor(execution)
    rounds_counter = metrics.counter("campaign.rounds")
    measured_counter = metrics.counter("campaign.sites_measured")
    with span(
        "campaign.run",
        rounds=n_rounds,
        vantages=len(shards),
        backend=executor.name,
    ):
        results = executor.run(shards, world=world)
        world.release_dns_timeline()
        with span("campaign.aggregate"):
            merged = merge_shard_results(world, results)
    rounds_counter.inc(n_rounds)
    total_measured = sum(
        report.n_measured
        for rounds in merged.reports.values()
        for report in rounds
    )
    measured_counter.inc(total_measured)
    _LOG.info(
        "campaign complete",
        extra={
            "rounds": n_rounds,
            "vantages": len(shards),
            "backend": executor.name,
            "measured": total_measured,
        },
    )
    return merged


def run_world_ipv6_day(
    world: World,
    vantage_names: tuple[str, ...] = ("Penn", "LU", "UPCB"),
    n_rounds: int = W6D_ROUNDS,
    execution: ExecutionConfig | None = None,
) -> CampaignResult:
    """Run the World IPv6 Day experiment.

    The paper ran 30-minute rounds during the event from all AS_PATH
    vantage points except Comcast ("the data was not available"), against
    the participant roster only.
    """
    if n_rounds < 1:
        raise ConfigError("need at least one W6D round")
    known = {vantage.name for vantage in world.vantages}
    for name in vantage_names:
        if name not in known:
            raise ConfigError(
                f"unknown vantage {name!r} in vantage_names; "
                f"world has {sorted(known)}"
            )

    shards = [
        VantageShard(
            config=world.config,
            vantage_name=vantage.name,
            kind=W6D,
            n_rounds=n_rounds,
            rng_stream=f"w6d:{vantage.name}",
        )
        for vantage in world.vantages
        if vantage.name in vantage_names
    ]
    executor = make_executor(execution)
    with span(
        "campaign.w6d",
        rounds=n_rounds,
        vantages=len(shards),
        backend=executor.name,
    ):
        results = executor.run(shards, world=world)
        world.release_dns_timeline()
        merged = merge_shard_results(world, results)
    _LOG.info(
        "w6d campaign complete",
        extra={
            "rounds": n_rounds,
            "vantages": len(shards),
            "backend": executor.name,
        },
    )
    return merged
