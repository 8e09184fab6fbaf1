#!/usr/bin/env python3
"""Benchmark of the campaign → store → analysis → serve pipeline.

    python3 perfbench/run.py --workload campaign_clean --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run makes passes of world → campaign → store → load → observers →
analysis and serves the first pass's store with ``repro serve``: a
reference window of an open-loop generator follows every pass, and windows
fill the time left at the end.  Every batch stage is measured with the
vCPU's speed sampled alongside it (``speed.py``) and reported as the median
over the passes of its time at the reference speed; the serving latency is
the lowest window's, scaled to the reference speed in the same way.  ``METRICS.md`` defines every metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass, one traced reference window and one
rate-ladder sweep.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: cold loads per pass, measured as one stage, and observer panel runs per
#: pass (one of each in smoke runs).  World builds per pass are set per
#: workload, so that a small world is still measured for a few tenths of a
#: second.
LOAD_REPEATS = 5
OBSERVE_REPEATS = 2
#: seconds kept free at the end of a run for the response check and shutdown.
END_MARGIN_S = 2.0


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes: the workload's smoke scale, short serving steps",
    )
    parser.add_argument(
        "--expected", default=str(HERE / "expected.json"),
        help="recorded output digests to check against",
    )
    return parser.parse_args(argv)


def proc_stat_cpu() -> list[int]:
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU ticks between two ``proc_stat_cpu`` readings that the
    host stole."""
    ticks = sum(after) - sum(before)
    return (after[7] - before[7]) / max(ticks, 1)


def cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


class Run:
    """One benchmark invocation: its settings, checks and results."""

    def __init__(self, args: argparse.Namespace) -> None:
        workloads = load_json("workloads.json")
        if args.workload not in workloads:
            raise SystemExit(f"unknown workload {args.workload!r}")
        self.args = args
        self.spec = workloads[args.workload]
        pool = self.spec["seed_pool"]
        self.pool_seed = pool[args.seed % len(pool)]
        expected = json.loads(pathlib.Path(args.expected).read_text())
        size = "smoke" if args.smoke else "full"
        self.expected = expected[size][args.workload][str(self.pool_seed)]
        self.scale = self.spec["smoke_scale" if args.smoke else "scale"]
        self.started = time.perf_counter()
        self.deadline = self.started + args.seconds
        #: [checks made, checks failed] per kind: pipeline outputs, responses.
        self.checks = {"pipeline": [0, 0], "responses": [0, 0]}
        self.metrics: dict[str, dict] = {}
        self.noise: dict = {}

    def emit(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "samples": samples}

    def check(self, kind: str, made: int, failed: int) -> None:
        self.checks[kind][0] += made
        self.checks[kind][1] += failed

    @property
    def attempted(self) -> int:
        return sum(made for made, _ in self.checks.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.checks.values())

    def success_share(self) -> float:
        """The lower of the two kinds' pass shares, so one wrong pipeline
        output is not diluted by thousands of served responses."""
        return min(1.0 - failed / made for made, failed in self.checks.values() if made)


class Serving:
    """``repro serve`` over one pass's store, and the generator driving it."""

    def __init__(self, run: Run, served, traced: bool) -> None:
        from repro.data.loadtest import generate_mix
        from serving import MIX_SEED, WINDOW_REQUESTS, Generator, Server

        self.run = run
        self.store_dir = served.store_dir
        sequence = generate_mix(
            served.digest, served.vantages, served.site_ids, WINDOW_REQUESTS, seed=MIX_SEED,
        ).requests
        self.server = Server(str(ROOT), str(self.store_dir), str(WORK / "serve.log"), traced)
        self.generator = Generator(self.server, sequence)

    def window(self):
        """One reference window: the start of the sequence at the reference rate."""
        from serving import REFERENCE_RPS, SMOKE_WINDOW_REQUESTS, WINDOW_REQUESTS

        n = SMOKE_WINDOW_REQUESTS if self.run.args.smoke else WINDOW_REQUESTS
        return self.generator.run(REFERENCE_RPS, n)

    def sweep(self, windows: list) -> list[list]:
        """The ladder, as ``[rate, p99_ms, late_growth_ms, held]`` rungs.

        The reference windows just run are its first rung, which holds when
        every one of them held; the ladder then climbs until a rung fails,
        so every rung below the last held one held."""
        from serving import (LADDER_RPS, MIN_RUNG_REQUESTS, REFERENCE_RPS, RUNG_S,
                             SMOKE_RUNG_S)

        seconds = SMOKE_RUNG_S if self.run.args.smoke else RUNG_S
        rungs = [[REFERENCE_RPS, round(max(w.percentile(99) for w in windows), 3),
                  round(max(w.late_growth_ms() for w in windows), 3),
                  all(w.holds() for w in windows)]]
        for rate in LADDER_RPS:
            if not rungs[-1][3]:
                break
            step = self.generator.run(rate, max(MIN_RUNG_REQUESTS, round(rate * seconds)))
            rungs.append([rate, round(step.percentile(99), 3),
                          round(step.late_growth_ms(), 3), step.holds()])
        return rungs

    def close(self) -> None:
        from repro.engine.store import CampaignStore

        try:
            self.run.check("responses", *self.generator.verify(CampaignStore(self.store_dir)))
        finally:
            self.server.stop()


def held_rps(rungs: list[list]) -> float:
    """The highest rate of a sweep below which every rung held (0 when even
    the reference window failed)."""
    best = 0.0
    for rate, _, _, held in rungs:
        if not held:
            break
        best = rate
    return best


def batch_metrics(run: Run, passes: list) -> None:
    """End-to-end batch timings: each stage's median over the passes of its
    time at the reference speed (``speed.Sample.reference_s``)."""
    from pipeline import STAGES

    names = {
        "world": ("setup_s", 1.0, "s"),
        "campaign": ("campaign_s", 1.0, "s"),
        "store_save": ("store_save_s", 1.0, "s"),
        "store_load": ("store_load_ms", 1000.0, "ms"),
        "analysis": ("analysis_s", 1.0, "s"),
        "observe": ("observe_s", 1.0, "s"),
    }
    noise = {}
    for stage in ("world",) + STAGES:
        name, scale, unit = names[stage]
        samples = [sample for p in passes for sample in p.samples[stage]]
        reference = [sample.reference_s for sample in samples]
        run.emit(name, statistics.median(reference) * scale, unit,
                 sum(sample.repeats for sample in samples))
        wall = [s.wall_s / s.repeats for s in samples]
        noise[stage] = {
            "fastest_to_median": round(min(wall) / statistics.median(wall), 4),
            "wall_s": [round(v, 4) for v in wall],
            "probe_us": [round(s.probe_us, 1) for s in samples],
            "reference_s": [round(v, 4) for v in reference],
        }
    run.noise["stages"] = noise
    run.emit("store_bytes_per_row", passes[-1].bytes_per_row(), "B/row", len(passes))


def serving_metrics(run: Run, windows: list) -> None:
    """Serving latency: the lowest over the reference windows of the median
    latency at the reference speed (the speed probe runs in the generator
    during every window), since interference only adds latency."""
    from speed import REFERENCE_PROBE_US

    p50 = [w.percentile(50) for w, _, _ in windows]
    reference = [p * REFERENCE_PROBE_US / sample.probe_us
                 for p, (_, _, sample) in zip(p50, windows)]
    n = sum(len(w.due_ms) for w, _, _ in windows)
    run.emit("serve_p50_ms", min(reference), "ms", n)
    late = [value for w, _, _ in windows for value in w.late_ms]
    run.noise["reference_windows"] = {
        "p50_ms": [round(v, 3) for v in p50],
        "reference_p50_ms": [round(v, 3) for v in reference],
        "p99_ms": [round(w.percentile(99), 3) for w, _, _ in windows],
        "steal_share": [round(steal, 4) for _, steal, _ in windows],
        "probe_us": [round(sample.probe_us, 2) for _, _, sample in windows],
    }
    run.noise["generator_late_ms"] = {
        "mean": sum(late) / len(late), "max": max(late),
        "growth": max(w.late_growth_ms() for w, _, _ in windows),
    }


def serve_layers(run: Run, window, before: dict, warmed: dict, after: dict) -> None:
    """Per-layer serving metrics from ``/metrics`` snapshots taken before the
    generator's warm-up (which loads the campaign cold and misses the
    response cache once per distinct request), after it, and after the
    reference window (all hits).  HTTP time and lateness are client-side."""

    def moved(name: str, key: str = "value", start: dict = before) -> float:
        return float(after.get(name, {}).get(key, 0.0)) - float(
            start.get(name, {}).get(key, 0.0)
        )

    def mean_ms(name: str, start: dict = before) -> tuple[float, float, float]:
        count, total = moved(name, "count", start), moved(name, "sum", start)
        return (total / count if count else 0.0), count, total

    hit_ms, hit_n, _ = mean_ms("perfbench.serve.handle_hit_ms")
    miss_ms, miss_n, _ = mean_ms("perfbench.serve.handle_miss_ms")
    in_window = [mean_ms(f"perfbench.serve.handle_{state}_ms", warmed)
                 for state in ("hit", "miss")]
    window_n = sum(count for _, count, _ in in_window)
    window_total = sum(total for _, _, total in in_window)
    client_ms = sum(window.service_ms) / len(window.service_ms)
    n = len(window.due_ms)
    run.emit("serve.handle_hit_ms", hit_ms, "ms", int(hit_n))
    run.emit("serve.handle_miss_ms", miss_ms, "ms", int(miss_n))
    run.emit("serve.http_ms", client_ms - window_total / max(window_n, 1), "ms", n)
    hits, misses = moved("data.serve.cache.hits"), moved("data.serve.cache.misses")
    served = int(hits + misses)
    run.emit("serve.response_hit_share", hits / max(hits + misses, 1), "share", served)
    run.emit("serve.response_invalidations", moved("data.serve.cache.invalidations"),
             "count", served)
    run.emit("serve.campaign_loads", moved("data.serve.campaign_loads"), "count", served)
    run.emit("serve.campaign_evictions", moved("data.serve.campaign_evictions"), "count",
             served)
    load_ms, load_n, _ = mean_ms("data.serve.campaign_load_ms")
    run.emit("serve.campaign_load_ms", load_ms, "ms", int(load_n))
    scrapes = window.scrape_ms
    run.emit("serve.metrics_scrape_ms", sum(scrapes) / max(len(scrapes), 1), "ms",
             len(scrapes))
    run.emit("serve.generator_late_ms", sum(window.late_ms) / len(window.late_ms), "ms",
             len(window.late_ms))


#: layers reported as ``<name>_s`` busy time, with their call counts as n.
TIMED_LAYERS = (
    "world.build", "topology.generate", "topology.deploy_ipv6", "sites.catalog",
    "engine.shard", "engine.aggregate", "batch.plan", "batch.round", "bgp.routes",
    "store.to_dict", "columnar.from_repository", "columnar.write_json",
    "columnar.write_bin", "columnar.view", "query.run", "analysis.screen",
    "analysis.classify", "analysis.evaluate", "stats.trend", "observers.run",
)
#: the pass's stage frames, reported as ``<label>.unattributed_<unit>``.
STAGE_FRAMES = (
    ("world.build", "world", "s"), ("campaign", "campaign", "s"),
    ("store_save", "store_save", "s"), ("store_load", "store_load", "ms"),
    ("analysis", "analysis", "s"), ("observe", "observe", "s"),
)
STORE_ARTIFACTS = {"repository.json": "repository_json", "columnar.json": "columnar_json",
                   "columnar.bin": "columnar_bin"}


def pipeline_layers(run: Run, traced, untraced) -> None:
    """Per-layer metrics of the traced pass: busy times, counts, residuals."""
    from layers import LAYERS, Layer
    from repro.observers import observer_names

    def get(name: str) -> Layer:
        return LAYERS.get(name) or Layer(name)

    for name in TIMED_LAYERS + tuple(f"observers.{o}" for o in observer_names()):
        run.emit(f"{name}_s", get(name).busy, "s", get(name).calls)
    run.emit("engine.shards", get("engine.shard").calls, "count", 1)
    run.emit("batch.rounds", get("batch.round").calls, "count", 1)
    run.emit("stats.trend_fits", get("stats.trend").calls, "count", 1)
    loads = get("store.load_bin")
    run.emit("store.load_bin_ms", 1000.0 * loads.busy / max(loads.calls, 1), "ms", loads.calls)

    def count(name: str) -> float:
        return traced.moved.get(name, 0.0)

    loops = sum(count(f"download.loops_{end}") for end in ("converged", "exhausted", "gave_up"))
    lookups = count("dns.cache_hits") + count("dns.cache_misses")
    scans = count("data.query.scans")
    for metric, value in (
        ("bgp.route_computations", count("bgp.route_computations")),
        ("dns.zone_walks", count("dns.zone_walks")),
        ("dns.cache_hit_share", count("dns.cache_hits") / max(lookups, 1)),
        ("dns.dns64.synthesized", count("dns.dns64.synthesized")),
        ("download.samples", count("download.samples")),
        ("download.loops", loops),
        ("download.converged_share", count("download.loops_converged") / max(loops, 1)),
        ("monitor.sites_measured", count("monitor.sites_measured")),
        ("web.endpoint_lookups_per_loop", count("web.endpoint_lookups") / max(loops, 1)),
        ("web.path_lookups_per_loop", count("web.path_lookups") / max(loops, 1)),
        ("rng.constructions", count("rng.constructions")),
        ("faults.nat64_outages", count("faults.nat64_outages")),
        ("columnar.bin_table_decodes", count("data.columnar.bin_table_decodes")),
        ("store.bin_fallbacks", count("engine.store.bin_fallbacks")),
        ("query.scans", scans),
        ("query.rows_scanned_per_scan", count("data.query.rows_scanned") / max(scans, 1)),
        ("query.index_hit_share", count("data.query.index_hits") / max(scans, 1)),
        ("observers.errors", count("observers.errors")),
    ):
        run.emit(metric, value, "share" if metric.endswith("_share") else "count", 1)
    sizes = dict.fromkeys(list(STORE_ARTIFACTS.values()) + ["other"], 0)
    for path, size in traced.artifact_bytes.items():
        sizes[STORE_ARTIFACTS.get(path, "other")] += size
    for key, size in sizes.items():
        run.emit(f"store.bytes.{key}", size, "B", 1)
    for frame, label, unit in STAGE_FRAMES:
        stage = get(frame)
        # store_load runs LOAD_REPEATS times: report the residual per load.
        per_call = 1000.0 / max(stage.calls, 1) if unit == "ms" else 1.0
        run.emit(f"{label}.unattributed_{unit}", stage.unattributed * per_call, unit,
                 stage.calls)
    run.emit("trace.overhead_s", traced.timed_s - untraced.timed_s, "s", 1)
    run.emit("trace.overhead_share", traced.timed_s / untraced.timed_s - 1.0, "share", 1)


def execute(run: Run) -> None:
    import layers
    from pipeline import check_pass, run_pass, scenario
    from serving import vm_hwm_mb
    from speed import Meter

    args = run.args
    config = scenario(run.spec, run.pool_seed, run.scale)
    repeats = (1, 1, 1) if args.smoke else (
        run.spec["world_repeats"], LOAD_REPEATS, OBSERVE_REPEATS)
    # The traced run compares wall times with and without layer timers, so
    # it does not probe the vCPU's speed.
    meter = Meter(probing=not args.trace)
    passes: list = []

    def fresh_pass():
        result = run_pass(config, WORK / f"pass{len(passes)}", meter, *repeats)
        run.check("pipeline", *check_pass(result, run.expected,
                                          passes[0] if passes else None))
        passes.append(result)
        return result

    # The warm-up pass runs at the smoke scale, whose outputs are not checked.
    warmup = run_pass(scenario(run.spec, run.pool_seed, run.spec["smoke_scale"]),
                      WORK / "warmup", meter, 1, 1, 1)
    shutil.rmtree(warmup.store_dir)
    started = time.perf_counter()
    first = fresh_pass()
    pass_s = time.perf_counter() - started

    if args.trace:
        untraced = min(first, fresh_pass(), key=lambda p: p.timed_s)
        layers.reset()
        patches = layers.install_pipeline_timers()
        try:
            traced = fresh_pass()
        finally:
            patches.undo()
        pipeline_layers(run, traced, untraced)
        serving = Serving(run, traced, traced=True)
        try:
            before = serving.server.metrics()
            serving.generator.warm()
            warmed = serving.server.metrics()
            window = serving.window()
            serve_layers(run, window, before, warmed, serving.server.metrics())
            rungs = serving.sweep([window])
            run.emit("serve_p99_ms", window.percentile(99), "ms", len(window.due_ms))
            run.emit("serve_max_rps", held_rps(rungs), "req/s", len(rungs))
            run.noise["ladder_sweep"] = rungs
        finally:
            serving.close()
        return

    # Reference windows follow every pass and fill the time left at the
    # end, so passes and windows are both sampled across the whole run.
    # The first pass's store is served.
    windows = []
    serving = Serving(run, first, traced=False)
    try:
        serving.generator.warm()
        while True:
            gc.collect()
            started = time.perf_counter()
            stat = proc_stat_cpu()
            window, sample = meter.measure(serving.window)
            windows.append((window, steal_share(stat, proc_stat_cpu()), sample))
            window_s = time.perf_counter() - started
            left = run.deadline - END_MARGIN_S - time.perf_counter()
            if len(passes) < (1 if args.smoke else 2) or left > pass_s:
                started = time.perf_counter()
                shutil.rmtree(fresh_pass().store_dir)
                pass_s = time.perf_counter() - started
                left -= pass_s
            if left < window_s:
                break
    finally:
        serving.close()
    batch_metrics(run, passes)
    serving_metrics(run, windows)
    run.emit("peak_rss_mb", vm_hwm_mb(), "MB", 1)
    run.emit("success_share", run.success_share(), "share", run.attempted)
    run.noise["passes"] = len(passes)
    run.noise["checks"] = run.checks


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    stat_before = proc_stat_cpu()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        execute(run)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    run.noise.update(
        steal_share=steal_share(stat_before, proc_stat_cpu()),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        cpu=cpu_model(),
        wall_s=round(time.perf_counter() - run.started, 3),
        pool_seed=run.pool_seed,
    )
    for name, entry in run.metrics.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']:7s} n={entry['samples']}")
    print("noise " + json.dumps(run.noise, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in run.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
