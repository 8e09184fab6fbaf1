"""Shared experiment scaffolding.

Building a world and running a 40-round campaign is the expensive part of
every experiment, and the paper derives all of its tables from the *same*
measurement repository.  This module does the same: one cached campaign
per configuration, with the per-vantage screening/classification layers
precomputed into :class:`AnalysisContext` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.classify import (
    ASGroup,
    SiteCategory,
    SiteClassification,
    classify_sites,
    group_by_destination,
    groups_in_category,
    sites_in_category,
)
from ..analysis.confidence import SiteScreening, kept_sites, screen_all
from ..analysis.hypotheses import ASEvaluation, evaluate_groups
from ..config import ExecutionConfig, FaultConfig, ScenarioConfig, default_config
from ..core.campaign import CampaignResult, run_campaign, run_world_ipv6_day
from ..core.world import build_world
from ..data.columnar import ColumnarDatabase
from ..data.series import dual_stack_sites
from ..engine import DEFAULT_CACHE_ROOT, W6D, WEEKLY, CampaignStore
from ..monitor.vantage import VantagePoint
from ..obs import get_logger, metrics, span

_LOG = get_logger("experiments.scenario")
#: campaign-cache effectiveness (future perf PRs read these).
_CACHE_HITS = metrics.counter("scenario.cache_hits")
_CACHE_MISSES = metrics.counter("scenario.cache_misses")
_CACHED_CAMPAIGNS = metrics.gauge("scenario.cached_campaigns")

#: Scale of the default experiment world: big enough for table shapes,
#: small enough to build in a couple of minutes.
EXPERIMENT_SCALE = 0.5
#: Adoption oversampling: the paper's ~1% of 1M sites yields ~10k
#: dual-stack sites; a 10k-site catalog at 1% would yield ~100, too few
#: for per-AS statistics.  Boosting the adoption base preserves every
#: per-site mechanism while restoring a usable dual-stack population.
ADOPTION_OVERSAMPLING = 5.0


def experiment_config(
    seed: int = 20111206, faults: "str | FaultConfig | None" = None
) -> ScenarioConfig:
    """The configuration the experiments and benchmarks run at.

    ``faults`` selects a fault preset by name (or passes a
    :class:`~repro.config.FaultConfig` directly); ``None`` falls back to
    the ``REPRO_FAULTS`` environment variable, which defaults to no
    fault injection — so existing callers and caches are unaffected.
    """
    from dataclasses import replace

    from ..faults import resolve_faults

    config = default_config(seed).scaled(EXPERIMENT_SCALE)
    return replace(
        config,
        adoption=replace(
            config.adoption,
            base_adoption=config.adoption.base_adoption * ADOPTION_OVERSAMPLING,
        ),
        faults=resolve_faults(faults),
    )


@dataclass
class AnalysisContext:
    """Per-vantage precomputed analysis layers."""

    vantage: VantagePoint
    db: ColumnarDatabase
    screenings: dict[int, SiteScreening]
    kept: list[int]
    classifications: dict[int, SiteClassification]
    groups: dict[int, ASGroup]
    sp_evaluations: dict[int, ASEvaluation]
    dp_evaluations: dict[int, ASEvaluation]

    @property
    def dual_stack_sites(self) -> list[int]:
        return dual_stack_sites(self.db)

    def sites_in(self, category: SiteCategory) -> list[int]:
        return sites_in_category(self.classifications, category)

    def groups_in(self, category: SiteCategory) -> list[ASGroup]:
        return groups_in_category(self.groups, category)


@dataclass
class ExperimentData:
    """One campaign plus its per-vantage analysis contexts."""

    config: ScenarioConfig
    campaign: CampaignResult
    contexts: dict[str, AnalysisContext]

    @property
    def world(self):
        return self.campaign.world

    @property
    def repository(self):
        return self.campaign.repository

    def context(self, vantage_name: str) -> AnalysisContext:
        return self.contexts[vantage_name]

    @property
    def analysis_vantage_names(self) -> list[str]:
        return list(self.contexts)


def build_contexts(
    config: ScenarioConfig, campaign: CampaignResult
) -> dict[str, AnalysisContext]:
    """Run screening, classification, and AS evaluation per vantage."""
    contexts: dict[str, AnalysisContext] = {}
    with span("analysis.contexts", vantages=len(campaign.repository.vantage_names)):
        for vantage, db in campaign.repository.analysis_items():
            with span("analysis.vantage", vantage=vantage.name):
                dual_stack = dual_stack_sites(db)
                screenings = screen_all(
                    db, dual_stack, config.monitor, config.analysis
                )
                kept = kept_sites(screenings)
                classifications = classify_sites(db, kept)
                groups = group_by_destination(classifications)
                sp_groups = groups_in_category(groups, SiteCategory.SP)
                dp_groups = groups_in_category(groups, SiteCategory.DP)
                contexts[vantage.name] = AnalysisContext(
                    vantage=vantage,
                    db=db,
                    screenings=screenings,
                    kept=kept,
                    classifications=classifications,
                    groups=groups,
                    sp_evaluations=evaluate_groups(db, sp_groups, config.analysis),
                    dp_evaluations=evaluate_groups(db, dp_groups, config.analysis),
                )
            _LOG.debug(
                "analysis context built",
                extra={
                    "vantage": vantage.name,
                    "dual_stack": len(dual_stack),
                    "kept": len(kept),
                },
            )
    return contexts


#: memory tier (first tier) of the campaign cache.
_DATA_CACHE: dict[ScenarioConfig, ExperimentData] = {}
_W6D_CACHE: dict[ScenarioConfig, ExperimentData] = {}

#: disk tier (second tier): a CampaignStore, None when disabled, and a
#: "not decided yet" flag so the env var is read lazily on first use.
_STORE: CampaignStore | None = None
_STORE_CONFIGURED = False


def _store() -> CampaignStore | None:
    global _STORE, _STORE_CONFIGURED
    if not _STORE_CONFIGURED:
        import os

        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_ROOT)
        _STORE = CampaignStore(root) if root else None
        _STORE_CONFIGURED = True
    return _STORE


def get_store() -> CampaignStore | None:
    """The configured disk-tier store, or None when caching is disabled.

    Public accessor for the CLI paths (``repro export`` / ``serve`` /
    ``cache``) so they honour :func:`configure_cache` and the
    ``REPRO_CACHE_DIR`` environment variable the same way campaigns do.
    """
    return _store()


def configure_cache(root=None) -> None:
    """Point the disk tier at ``root``; ``None`` disables it entirely.

    Unconfigured, the disk tier lives at ``$REPRO_CACHE_DIR`` (default
    ``.repro-cache`` in the working directory).
    """
    global _STORE, _STORE_CONFIGURED
    _STORE = CampaignStore(root) if root is not None else None
    _STORE_CONFIGURED = True


def _bump_cached_gauge() -> None:
    _CACHED_CAMPAIGNS.set(len(_DATA_CACHE) + len(_W6D_CACHE))


def get_experiment_data(
    config: ScenarioConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> ExperimentData:
    """The cached campaign + analysis for ``config`` (built on first use).

    Two cache tiers: process memory, then the on-disk campaign store.  A
    disk hit skips the world build and the campaign — the world is
    unpickled from the store (or rebuilt from config if the pickle is
    missing) and the measurement repository is loaded as data.
    ``execution`` picks the backend for a fresh campaign run; it is
    deliberately *not* part of the cache key, because every backend
    produces bit-identical repositories.
    """
    if config is None:
        config = experiment_config()
    cached = _DATA_CACHE.get(config)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    store = _store()
    if store is not None:
        stored = store.load(config, kind=WEEKLY)
        if stored is not None:
            _CACHE_HITS.inc()
            world = stored.world if stored.world is not None else build_world(config)
            campaign = CampaignResult(
                world=world,
                repository=stored.repository,
                reports=stored.reports,
            )
            data = ExperimentData(
                config=config,
                campaign=campaign,
                contexts=build_contexts(config, campaign),
            )
            _DATA_CACHE[config] = data
            _bump_cached_gauge()
            return data
    _CACHE_MISSES.inc()
    world = build_world(config)
    campaign = run_campaign(world, execution=execution)
    data = ExperimentData(
        config=config,
        campaign=campaign,
        contexts=build_contexts(config, campaign),
    )
    _DATA_CACHE[config] = data
    if store is not None:
        store.save(
            config,
            campaign.repository,
            campaign.reports,
            kind=WEEKLY,
            world=world,
        )
    _bump_cached_gauge()
    return data


def get_w6d_data(
    config: ScenarioConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> ExperimentData:
    """The cached World IPv6 Day campaign for ``config``.

    Reuses the regular campaign's world (the event happens *within* the
    same Internet) and runs the 30-minute-round participant campaign.
    W6D store entries carry no world pickle of their own — on a disk hit
    the world comes from the weekly campaign's cache entry.
    """
    if config is None:
        config = experiment_config()
    cached = _W6D_CACHE.get(config)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    store = _store()
    if store is not None:
        stored = store.load(config, kind=W6D)
        if stored is not None:
            _CACHE_HITS.inc()
            base = get_experiment_data(config, execution=execution)
            campaign = CampaignResult(
                world=base.world,
                repository=stored.repository,
                reports=stored.reports,
            )
            data = ExperimentData(
                config=config,
                campaign=campaign,
                contexts=build_contexts(config, campaign),
            )
            _W6D_CACHE[config] = data
            _bump_cached_gauge()
            return data
    _CACHE_MISSES.inc()
    base = get_experiment_data(config, execution=execution)
    campaign = run_world_ipv6_day(base.world, execution=execution)
    data = ExperimentData(
        config=config,
        campaign=campaign,
        contexts=build_contexts(config, campaign),
    )
    _W6D_CACHE[config] = data
    if store is not None:
        store.save(config, campaign.repository, campaign.reports, kind=W6D)
    _bump_cached_gauge()
    return data


def clear_caches() -> None:
    """Drop memory-tier cached campaigns (tests use this to control
    memory); the disk tier is left intact."""
    _DATA_CACHE.clear()
    _W6D_CACHE.clear()
    _CACHED_CAMPAIGNS.set(0)
