"""One pass of the campaign → store → analysis pipeline, timed stage by stage.

A pass builds a fresh ``World``, runs the campaign on the serial backend,
saves it into a fresh store directory, loads it back cold, runs the
observer panel on a loaded copy and analyses the campaign.  Every stage is
measured by a ``speed.Meter``.  The campaign's ``content_digest`` and the
observer-report digests are checked against ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
from dataclasses import dataclass, field

from repro.config import ExecutionConfig, ScenarioConfig, small_config
from repro.core.campaign import CampaignResult, run_campaign
from repro.core.world import build_world
from repro.data.query import dual_stack_sites
from repro.engine.store import CampaignStore, config_digest
from repro.experiments.scenario import build_contexts
from repro.faults import fault_preset
from repro.observers import run_panel

from layers import counter_values, delta, frame
from speed import Meter, Sample

SERIAL = ExecutionConfig(backend="serial", jobs=1)
#: work counters that must repeat exactly from pass to pass.
WORK_COUNTERS = (
    "dns.zone_walks",
    "download.samples",
    "monitor.sites_measured",
    "rng.constructions",
    "web.endpoint_lookups",
    "web.path_lookups",
)
#: the timed stages of a pass, in order, after the world build.
STAGES = ("campaign", "store_save", "store_load", "observe", "analysis")
#: the layer-timer frame of each stage, where it is not the stage's name.
STAGE_FRAME = {"world": "world.build"}


def scenario(spec: dict, seed: int, scale: float) -> ScenarioConfig:
    """The workload's scenario for one campaign seed, at ``scale``."""
    config = small_config(seed=seed, scale=scale)
    if spec["faults"] != "none":
        config = dataclasses.replace(config, faults=fault_preset(spec["faults"]))
    if spec["dns64"]:
        config = dataclasses.replace(
            config, dns64=dataclasses.replace(config.dns64, enabled=True)
        )
    return config


@dataclass
class Pass:
    store_dir: pathlib.Path
    #: the measurements of each stage; ``world`` and ``store_load`` are
    #: groups of back-to-back calls.
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    #: the stored campaign's config digest, vantages and measured site ids.
    digest: str = ""
    vantages: list[str] = field(default_factory=list)
    site_ids: list[int] = field(default_factory=list)
    #: outputs checked against ``expected.json``.
    content_digest: str = ""
    #: observer-report digests of every panel run of the pass.
    observer_runs: list[dict[str, str]] = field(default_factory=list)
    rows: int = 0
    artifact_bytes: dict[str, int] = field(default_factory=dict)
    #: how far every ``repro.obs`` counter moved during the pass.
    moved: dict[str, float] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        """Wall time of every measured call."""
        return sum(sample.wall_s - sample.probe_s
                   for samples in self.samples.values() for sample in samples)

    def bytes_per_row(self) -> float:
        return sum(self.artifact_bytes.values()) / self.rows

    def record(self) -> dict:
        return {"content_digest": self.content_digest, "observers": self.observer_runs[0]}


def _framed(stage: str, fn):
    """``fn`` with each call inside the stage frame ``stage``."""

    def call(*args, **kwargs):
        with frame(stage):
            return fn(*args, **kwargs)

    return call


def run_pass(
    config: ScenarioConfig,
    store_dir: pathlib.Path,
    meter: Meter,
    world_repeats: int,
    load_repeats: int,
    observe_repeats: int,
) -> Pass:
    """Run every stage once, measured by ``meter``; the world build and the
    cold load run ``world_repeats`` and ``load_repeats`` times back to back
    in one measurement.  The observer panel runs ``observe_repeats`` times,
    each on a repository freshly loaded from the store, as ``repro observe``
    does; the analysis on the in-memory campaign, as ``repro export``
    does."""
    store_dir.mkdir(parents=True)
    result = Pass(store_dir=store_dir)
    before = counter_values()
    samples = result.samples

    def measure(stage: str, fn, *args, repeats: int = 1, **kwargs):
        gc.collect()
        value, sample = meter.measure(
            _framed(STAGE_FRAME.get(stage, stage), fn), *args, repeats=repeats, **kwargs
        )
        samples.setdefault(stage, []).append(sample)
        return value

    world = measure("world", build_world, config, repeats=world_repeats)
    campaign = measure("campaign", run_campaign, world, execution=SERIAL)
    entry = measure("store_save", CampaignStore(store_dir).save, config,
                    campaign.repository, campaign.reports, world=world)
    result.digest = config_digest(config)

    def cold_load():
        meta, columnar = CampaignStore(store_dir).load_columnar_entry(result.digest)
        for name in sorted(columnar.databases):
            dual_stack_sites(columnar.databases[name])
        return meta, columnar

    measure("store_load", cold_load, repeats=load_repeats)
    for _ in range(observe_repeats):
        meta, columnar = cold_load()
        reports = measure("observe", run_panel, columnar, campaign_digest=result.digest)
        result.observer_runs.append({name: reports[name].digest for name in sorted(reports)})
    measure("analysis", build_contexts, config, campaign)
    result.moved = delta(counter_values(), before)

    result.vantages = sorted(columnar.databases)
    downloads = columnar.databases[result.vantages[0]].table("downloads")
    site_column = downloads.columns["site_id"]
    result.site_ids = sorted({site_column.get(i) for i in range(downloads.n_rows)})
    result.content_digest = meta["repository_digest"]
    result.rows = sum(
        sum(columnar.databases[name].row_counts().values()) for name in result.vantages
    )
    result.artifact_bytes = {
        str(path.relative_to(entry)): path.stat().st_size
        for path in sorted(entry.rglob("*"))
        if path.is_file()
    }
    return result


def check_pass(result: Pass, expected: dict, reference: Pass | None) -> tuple[int, int]:
    """(checks made, checks failed): the content digest against the record;
    for every panel run, each observer digest and the observer set; and the
    work counters against the run's first pass."""
    checks = [result.content_digest == expected["content_digest"]]
    for observers in result.observer_runs:
        checks += [observers.get(name) == digest
                   for name, digest in expected["observers"].items()]
        checks.append(set(observers) == set(expected["observers"]))
    if reference is not None:
        checks.append(all(
            result.moved.get(name) == reference.moved.get(name) for name in WORK_COUNTERS
        ))
    return len(checks), checks.count(False)
