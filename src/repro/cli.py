"""Command-line interface.

Subcommands::

    repro run-all   [--scale S] [--seed N] [--profile P]  # every figure and table
                    [--cache-dir DIR] [--no-cache]        #   (campaign store knobs)
    repro quickrun  [--scale S] [--seed N]                # small world + H1/H2 verdicts
    repro export    --out DIR [--scale S] [--seed N]      # campaign data as CSV + manifest
                    [--cache-dir DIR] [--no-cache]        #   (store-first, run on miss)
    repro serve     [--host H] [--port N]                 # campaign store HTTP JSON API
                    [--cache-dir DIR] [--max-rows N]
                    [--lru N]                             #   (or $REPRO_SERVE_LRU)
                    [--workers N] [--response-cache N]    #   (worker pool + byte-verified
                    [--reuse-port] [--verify-cache-hits]  #    response cache)
    repro loadtest  [--url URL] [--seed N] [--scale S]    # seeded Zipf replay vs a live
                    [--requests N] [--clients N]          #   server; BENCH_serve.json
                    [--qps Q] [--zipf-s S] [--workers N]
                    [--smoke] [--check] [--baseline P] [--out P]
    repro observe   [--scale S] [--seed N] [--json]       # derived-metric observer panel
                    [--rounds N] [--seeds N...]           #   (long-horizon / sweep modes)
                    [--observers NAME...]                 #   (subset of the panel)
                    [--cache-dir DIR] [--no-cache]        #   (store-first, run on miss)
    repro cache ls     [--json] [--cache-dir DIR]         # list stored campaigns
    repro cache prune  --keep-latest N [--cache-dir DIR]  # drop all but the newest N
    repro profile   [--scale S] [--seed N] [--out P]      # phase-time breakdown + JSON report
    repro bench     [--scale S] [--seed N] [--out P]      # perf workloads + BENCH_rounds.json
                    [--smoke] [--check] [--baseline P]    #   (deterministic regression gates)
                    [--compare P]                         #   (speedup summary vs old report)
    repro show-config                                     # the default scenario, as text

Every campaign subcommand also takes ``--backend serial|process`` and
``--jobs N`` to pick the execution engine backend; both backends produce
bit-identical measurement repositories.  ``run-all``, ``quickrun``, and
``export`` additionally take ``--faults none|mild|heavy`` (default:
``$REPRO_FAULTS`` or none) to inject the seeded failure schedule of
``repro.faults``.

A global ``--log-level`` flag turns on structured (key=value) logging to
stderr for every subcommand; observability never touches stdout, so
seeded results are bit-identical with it on or off.

Installed as the ``repro`` console script (or run via
``python -m repro.cli``).
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from . import obs
from .analysis.hypotheses import ASVerdict, verdict_fractions
from .config import EXECUTION_BACKENDS, ExecutionConfig, default_config, small_config
from .core import build_world, run_campaign
from .data.series import transition_counts
from .experiments import run_all as run_all_module
from .experiments import scenario
from .experiments.scenario import build_contexts
from .faults import FAULT_PRESETS, resolve_faults
from .monitor.export import export_repository
from .perf import (
    DEFAULT_REPORT as BENCH_DEFAULT_OUT,
    DEFAULT_SCALE as BENCH_DEFAULT_SCALE,
    DEFAULT_SEED as BENCH_DEFAULT_SEED,
    WORKLOADS,
    compare_reports,
    compare_serve_reports,
    evaluate_gates,
    evaluate_serve_gates,
    serve_wall_clock_deltas,
    read_report as read_bench_report,
    render_comparison as render_bench_comparison,
    render_report,
    run_bench,
    wall_clock_deltas,
    write_report as write_bench_report,
)

#: default output of ``repro profile`` (the perf-trajectory seed file).
PROFILE_DEFAULT_OUT = "BENCH_profile_small.json"


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=EXECUTION_BACKENDS,
        default=None,
        help="execution backend (default: $REPRO_BACKEND or serial)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --backend process (default: $REPRO_JOBS or 1)",
    )


def _execution_from(args: argparse.Namespace) -> ExecutionConfig | None:
    """Build an ExecutionConfig from CLI flags; None defers to the env."""
    if args.backend is None and args.jobs is None:
        return None
    base = ExecutionConfig.from_env()
    return ExecutionConfig(
        backend=args.backend if args.backend is not None else base.backend,
        jobs=args.jobs if args.jobs is not None else base.jobs,
    )


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        choices=sorted(FAULT_PRESETS),
        default=None,
        help="fault-injection preset (default: $REPRO_FAULTS or none)",
    )


def _with_faults(config, args: argparse.Namespace):
    """Apply the --faults / $REPRO_FAULTS selection to a scenario config."""
    return dataclasses.replace(config, faults=resolve_faults(args.faults))


def _add_transition_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transition",
        action="store_true",
        help="enable the NAT64/DNS64 transition axis: DNS64-synthesized "
        "AAAA records, translated forwarding paths, and per-site "
        "transition recording (default: off, bit-identical to before)",
    )


def _with_transition(config, args: argparse.Namespace):
    """Apply the --transition axis (NAT64/DNS64) to a scenario config."""
    if not getattr(args, "transition", False):
        return config
    return dataclasses.replace(
        config, dns64=dataclasses.replace(config.dns64, enabled=True)
    )


def _cmd_run_all(args: argparse.Namespace) -> int:
    argv = ["--scale", str(args.scale), "--seed", str(args.seed)]
    if args.profile:
        argv += ["--profile", args.profile]
    if args.backend is not None:
        argv += ["--backend", args.backend]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.faults is not None:
        argv += ["--faults", args.faults]
    if args.transition:
        argv += ["--transition"]
    return run_all_module.main(argv)


def _cmd_quickrun(args: argparse.Namespace) -> int:
    config = _with_transition(
        _with_faults(small_config(seed=args.seed, scale=args.scale), args),
        args,
    )
    world = build_world(config)
    result = run_campaign(world, execution=_execution_from(args))
    contexts = build_contexts(config, result)
    print("vantage    SP comparable   DP comparable")
    for name, context in contexts.items():
        sp = verdict_fractions(context.sp_evaluations.values())
        dp = verdict_fractions(context.dp_evaluations.values())
        print(
            f"{name:9s}  {100 * sp[ASVerdict.COMPARABLE]:12.1f}%  "
            f"{100 * dp[ASVerdict.COMPARABLE]:12.1f}%"
        )
    print("H1 expects the left column high; H2 expects the right column low.")
    if config.dns64.enabled:
        counts: dict[str, int] = {}
        for _, cdb in result.repository.items():
            for kind, n in transition_counts(cdb).items():
                counts[kind] = counts.get(kind, 0) + n
        rendered = ", ".join(
            f"{kind}={counts.get(kind, 0)}"
            for kind in ("native", "tunneled", "translated")
        )
        print(f"transition rows (all vantages): {rendered}")
    return 0


def _apply_cache_args(args: argparse.Namespace) -> None:
    """Honour --cache-dir / --no-cache before the store is first used."""
    if getattr(args, "no_cache", False):
        scenario.configure_cache(None)
    elif getattr(args, "cache_dir", None) is not None:
        scenario.configure_cache(args.cache_dir)


def _cmd_export(args: argparse.Namespace) -> int:
    """Export campaign CSVs, store-first.

    Without explicit ``--backend``/``--jobs`` the campaign store is
    consulted: a hit exports the serialized measurement repository
    directly — no world build, no campaign re-run — and a miss runs the
    campaign then stores it.  Explicit backend flags always run the
    campaign on that backend (the CI backend-equivalence job relies on
    this), leaving the store untouched.
    """
    from .engine import WEEKLY

    _apply_cache_args(args)
    config = _with_transition(
        _with_faults(small_config(seed=args.seed, scale=args.scale), args),
        args,
    )
    execution = _execution_from(args)
    store = scenario.get_store() if execution is None else None
    repository = None
    if store is not None:
        repository = store.load_repository(config, kind=WEEKLY)
        if repository is not None:
            print("campaign store hit; exporting stored measurement data")
    if repository is None:
        world = build_world(config)
        result = run_campaign(world, execution=execution)
        repository = result.repository
        if store is not None:
            store.save(
                config, result.repository, result.reports, kind=WEEKLY,
                world=world,
            )
    manifest = export_repository(repository, pathlib.Path(args.out))
    print(f"exported campaign data; manifest at {manifest}")
    print(f"repository digest: {repository.content_digest()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the campaign store over HTTP (lazy import: stdlib http)."""
    from .data.serve import ServeConfig, run_server

    _apply_cache_args(args)
    store = scenario.get_store()
    if store is None:
        print("repro serve: the campaign store is disabled (--no-cache?)")
        return 1
    # --lru wins; otherwise ServeConfig falls back to $REPRO_SERVE_LRU.
    extra = {}
    if args.lru is not None:
        extra["lru_campaigns"] = args.lru
    if args.workers is not None:
        extra["workers"] = args.workers
    if args.response_cache is not None:
        extra["response_cache_entries"] = args.response_cache
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_root=str(store.root),
        max_rows=args.max_rows,
        verify_cache_hits=args.verify_cache_hits,
        reuse_port=args.reuse_port,
        **extra,
    )
    return run_server(config, store)


#: ``repro loadtest`` smoke preset (matches the checked-in BENCH_serve.json).
LOADTEST_SMOKE_REQUESTS = 240
LOADTEST_DEFAULT_REQUESTS = 2000


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay a seeded Zipf query mix against a live ``repro serve``.

    Store-first like ``export``: a campaign for (seed, scale) is looked
    up in the store and built+saved on a miss, so the mix always has a
    real content-addressed campaign to target.  Without ``--url`` an
    in-process server is spawned on an ephemeral port; with it, an
    externally started server (the CI loadtest-smoke job's) is driven
    instead.  ``--smoke`` uses the small request preset and evaluates
    the structural gates; ``--check`` additionally compares the mix
    digest and error block against the checked-in baseline.
    """
    import threading

    from .data.loadtest import (
        LoadtestOptions,
        generate_mix,
        read_serve_report,
        render_serve_report,
        run_loadtest,
        write_serve_report,
    )
    from .data.serve import ServeConfig, make_server
    from .engine import WEEKLY
    from .engine.store import config_digest

    _apply_cache_args(args)
    store = scenario.get_store()
    if store is None:
        print("repro loadtest: the campaign store is disabled (--no-cache?)")
        return 1
    config = small_config(seed=args.seed, scale=args.scale)
    digest = config_digest(config, WEEKLY)
    loaded = store.load_columnar_entry(digest)
    if loaded is None:
        print(f"campaign {digest[:16]} not stored; building it first")
        world = build_world(config)
        result = run_campaign(world, execution=_execution_from(args))
        store.save(
            config, result.repository, result.reports, kind=WEEKLY, world=world
        )
        loaded = store.load_columnar_entry(digest)
        if loaded is None:
            print("repro loadtest: failed to store the campaign")
            return 1
    _, columnar = loaded
    vantages = sorted(columnar.vantages)
    downloads = columnar.databases[vantages[0]].table("downloads")
    site_column = downloads.columns["site_id"]
    site_ids = sorted({site_column.get(i) for i in range(downloads.n_rows)})

    if args.requests is not None:
        n_requests = args.requests
    else:
        n_requests = (
            LOADTEST_SMOKE_REQUESTS if args.smoke else LOADTEST_DEFAULT_REQUESTS
        )
    mix = generate_mix(
        digest, vantages, site_ids, n_requests, seed=args.seed,
        zipf_s=args.zipf_s,
    )

    server = None
    meta = {"scale": args.scale}
    if args.url:
        base_url = args.url
        meta["workers"] = None
    else:
        serve_config = ServeConfig(
            host="127.0.0.1",
            port=0,
            cache_root=str(store.root),
            workers=args.workers,
        )
        server = make_server(serve_config, store)
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        threading.Thread(target=server.serve_forever, daemon=True).start()
        meta["workers"] = args.workers
        print(f"spawned in-process server at {base_url} "
              f"({args.workers} worker(s))")
    try:
        options = LoadtestOptions(
            clients=args.clients,
            target_qps=args.qps,
            parity_every=args.parity_every,
        )
        report = run_loadtest(base_url, mix, options, store=store, meta=meta)
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()

    print(render_serve_report(report))
    failures = 0
    if args.smoke or args.check:
        gates = evaluate_serve_gates(report)
        print("\nstructural gates:")
        for gate in gates:
            print(f"  {gate.render()}")
        failures += sum(1 for g in gates if not g.passed)
    if args.check:
        baseline_path = pathlib.Path(args.baseline)
        if not baseline_path.exists():
            print(f"\nbaseline {baseline_path} not found; cannot --check")
            failures += 1
        else:
            baseline = read_serve_report(baseline_path)
            comparisons = compare_serve_reports(report, baseline)
            mismatched = [c for c in comparisons if not c.passed]
            print(
                f"\nbaseline comparison vs {baseline_path}: "
                f"{len(comparisons) - len(mismatched)}/{len(comparisons)} "
                "checks match"
            )
            for comparison in mismatched:
                print(f"  {comparison.render()}")
            for line in serve_wall_clock_deltas(report, baseline):
                print(f"  {line}")
            failures += len(mismatched)
    if args.out:
        write_serve_report(report, args.out)
        print(f"\nserve report written to {args.out}")
    if failures:
        print(f"\n{failures} loadtest gate(s) failed")
        return 1
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    """Run the derived-metric observer panel, store-first.

    Single-seed: the observer reports (with per-round trend flags) over
    one campaign.  ``--rounds`` runs a longer horizon than the default
    scenario; ``--seeds`` sweeps the panel over several seeds and prints
    the headline spread.  ``--json`` emits the canonical report document
    — byte-identical across execution backends, which the CI
    observer-parity job diffs directly.
    """
    from .data.columnar import ColumnarRepository
    from .engine import WEEKLY
    from .engine.store import config_digest
    from .observers import canonical_json, run_panel

    _apply_cache_args(args)
    execution = _execution_from(args)
    store = scenario.get_store() if execution is None else None
    seeds = args.seeds if args.seeds else [args.seed]
    names = args.observers or None
    documents: dict[int, tuple[str, dict]] = {}
    for seed in seeds:
        config = _with_transition(
            _with_faults(small_config(seed=seed, scale=args.scale), args),
            args,
        )
        if args.rounds is not None:
            config = dataclasses.replace(
                config,
                campaign=dataclasses.replace(
                    config.campaign, n_rounds=args.rounds
                ),
            )
        digest = config_digest(config, WEEKLY)
        # a hit runs the panel on the entry's decoded columns, a miss on
        # the campaign's own frozen columns
        loaded = store.load_columnar_entry(digest) if store is not None else None
        if loaded is not None:
            columnar = loaded[1]
        else:
            world = build_world(config)
            result = run_campaign(world, execution=execution)
            if store is not None:
                store.save(
                    config, result.repository, result.reports, kind=WEEKLY,
                    world=world,
                )
            columnar = ColumnarRepository.from_repository(result.repository)
        reports = run_panel(columnar, campaign_digest=digest, names=names)
        if store is not None:
            store.save_observer_reports(digest, reports)
        documents[seed] = (digest, reports)

    if args.json:
        if len(seeds) == 1:
            digest, reports = documents[seeds[0]]
            doc = {
                "campaign_digest": digest,
                "reports": {
                    name: reports[name].to_payload() for name in sorted(reports)
                },
            }
        else:
            doc = {
                "sweep": {
                    str(seed): {
                        "campaign_digest": documents[seed][0],
                        "reports": {
                            name: documents[seed][1][name].to_payload()
                            for name in sorted(documents[seed][1])
                        },
                    }
                    for seed in seeds
                }
            }
        sys.stdout.buffer.write(canonical_json(doc) + b"\n")
        return 0

    from .observers import get_observer

    for seed in seeds:
        digest, reports = documents[seed]
        print(f"campaign {digest[:16]} (seed {seed}):")
        print(f"  {'OBSERVER':18s} {'VER':>3s}  {'HEADLINE':>28s}  "
              f"{'TRENDS':>6s}  DIGEST")
        for name in sorted(reports):
            report = reports[name]
            observer = get_observer(name)
            value = report.body["summary"].get(observer.headline)
            rendered = (
                f"{observer.headline}={value:.4f}"
                if isinstance(value, float)
                else f"{observer.headline}={value}"
            )
            n_flags = len(report.body.get("trends", []))
            print(
                f"  {name:18s} {report.version:>3d}  {rendered:>28s}  "
                f"{n_flags:>6d}  {report.digest[:12]}"
            )
        for name in sorted(reports):
            for flag in reports[name].body.get("trends", []):
                arrow = "rising" if flag["direction"] > 0 else "falling"
                print(
                    f"  trend: {name}/{flag['series']} {flag['kind']} "
                    f"{arrow} (magnitude {flag['magnitude']:+.4f})"
                )
    if len(seeds) > 1:
        print("headline spread across seeds:")
        observers_in_all = sorted(documents[seeds[0]][1])
        for name in observers_in_all:
            headline = get_observer(name).headline
            values = [
                documents[seed][1][name].body["summary"].get(headline)
                for seed in seeds
            ]
            numeric = [v for v in values if isinstance(v, (int, float))]
            if not numeric:
                continue
            mean = sum(numeric) / len(numeric)
            print(
                f"  {name:18s} {headline}: min {min(numeric):.4f}  "
                f"mean {mean:.4f}  max {max(numeric):.4f}"
            )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the on-disk campaign store."""
    import json as json_module

    _apply_cache_args(args)
    store = scenario.get_store()
    if store is None:
        print("repro cache: the campaign store is disabled")
        return 1
    if args.cache_command == "ls":
        entries = store.entries()
        if args.json:
            print(
                json_module.dumps(
                    [
                        {
                            "digest": e.digest,
                            "kind": e.kind,
                            "seed": e.seed,
                            "repository_digest": e.repository_digest,
                            "size_bytes": e.size_bytes,
                            "bin_bytes": e.bin_bytes,
                        }
                        for e in entries
                    ],
                    indent=2,
                )
            )
            return 0
        if not entries:
            print(f"no stored campaigns under {store.root}")
            return 0
        print(
            f"{'DIGEST':16s}  {'KIND':8s}  {'SEED':>10s}  {'SIZE':>10s}  "
            f"{'BIN':>10s}"
        )
        for entry in entries:
            seed = "-" if entry.seed is None else str(entry.seed)
            binary_size = entry.bin_bytes
            print(
                f"{entry.digest[:16]:16s}  {entry.kind:8s}  {seed:>10s}  "
                f"{entry.size_bytes:>10d}  "
                f"{'-' if binary_size is None else binary_size:>10}"
            )
        return 0
    # prune
    removed = store.prune(args.keep_latest)
    kept = len(store.entries())
    print(
        f"pruned {len(removed)} stored campaign(s); {kept} kept "
        f"under {store.root}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the small campaign under tracing; print the phase breakdown."""
    obs.enable()
    config = small_config(seed=args.seed, scale=args.scale)
    world = build_world(config)
    result = run_campaign(world, execution=_execution_from(args))
    build_contexts(config, result)
    report = obs.build_report(
        bench="profile_small",
        meta={"seed": args.seed, "scale": args.scale},
    )
    print(obs.render_breakdown(report))
    path = obs.write_report(
        args.out,
        bench="profile_small",
        meta={"seed": args.seed, "scale": args.scale},
    )
    print(f"profile report written to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf workloads; gate on deterministic work counters."""
    report = run_bench(
        seed=args.seed, scale=args.scale, workloads=args.workloads or None
    )
    print(render_report(report))
    failures = 0
    if args.smoke or args.check:
        gates = evaluate_gates(report)
        print("\nstructural gates:")
        for gate in gates:
            print(f"  {gate.render()}")
        failures += sum(1 for g in gates if not g.passed)
    if args.check:
        baseline_path = pathlib.Path(args.baseline)
        if not baseline_path.exists():
            print(f"\nbaseline {baseline_path} not found; cannot --check")
            failures += 1
        else:
            baseline = read_bench_report(baseline_path)
            comparisons = compare_reports(report, baseline)
            mismatched = [c for c in comparisons if not c.passed]
            print(
                f"\nbaseline comparison vs {baseline_path}: "
                f"{len(comparisons) - len(mismatched)}/{len(comparisons)} "
                "counters match"
            )
            for comparison in mismatched:
                print(f"  {comparison.render()}")
            for line in wall_clock_deltas(report, baseline):
                print(f"  {line}")
            failures += len(mismatched)
    if args.compare:
        compare_path = pathlib.Path(args.compare)
        if not compare_path.exists():
            print(f"\ncomparison report {compare_path} not found")
            failures += 1
        else:
            print()
            print(render_bench_comparison(read_bench_report(compare_path), report))
    if args.out:
        path = write_bench_report(report, args.out)
        print(f"\nbench report written to {path}")
    if failures:
        print(f"\n{failures} perf gate(s) failed")
        return 1
    return 0


def _cmd_show_config(args: argparse.Namespace) -> int:
    config = default_config()
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            print(f"[{field.name}]")
            for sub in dataclasses.fields(value):
                print(f"  {sub.name} = {getattr(value, sub.name)}")
        else:
            print(f"{field.name} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="enable structured logging to stderr at this level",
    )
    parser.add_argument(
        "--log-format",
        default="kv",
        choices=["kv", "json"],
        help="structured log line format (default: key=value)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_all = sub.add_parser("run-all", help="reproduce every figure and table")
    run_all.add_argument("--scale", type=float, default=0.5)
    run_all.add_argument("--seed", type=int, default=20111206)
    run_all.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="write a JSON observability report to PATH",
    )
    run_all.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="campaign store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    run_all.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk campaign store",
    )
    _add_execution_args(run_all)
    _add_faults_arg(run_all)
    _add_transition_arg(run_all)
    run_all.set_defaults(func=_cmd_run_all)

    quickrun = sub.add_parser("quickrun", help="small world, H1/H2 verdicts")
    quickrun.add_argument("--scale", type=float, default=1.0)
    quickrun.add_argument("--seed", type=int, default=11)
    _add_execution_args(quickrun)
    _add_faults_arg(quickrun)
    _add_transition_arg(quickrun)
    quickrun.set_defaults(func=_cmd_quickrun)

    export = sub.add_parser("export", help="export campaign data to CSV")
    export.add_argument("--out", required=True)
    export.add_argument("--scale", type=float, default=1.0)
    export.add_argument("--seed", type=int, default=11)
    export.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="campaign store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    export.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk campaign store",
    )
    _add_execution_args(export)
    _add_faults_arg(export)
    _add_transition_arg(export)
    export.set_defaults(func=_cmd_export)

    serve = sub.add_parser(
        "serve", help="serve stored campaigns over an HTTP JSON API"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="campaign store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve.add_argument(
        "--max-rows",
        type=int,
        default=10_000,
        help="per-request row ceiling (larger requests get a 413)",
    )
    serve.add_argument(
        "--lru",
        type=int,
        default=None,
        help="loaded campaigns kept in memory (default: $REPRO_SERVE_LRU or 4)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads requests are dispatched across "
        "(0 = one thread per request; default: 4)",
    )
    serve.add_argument(
        "--response-cache",
        type=int,
        default=None,
        metavar="N",
        help="response-cache capacity in entries (0 disables; default: 256)",
    )
    serve.add_argument(
        "--verify-cache-hits",
        action="store_true",
        help="byte-verify every response-cache hit against a fresh "
        "computation (slow; for soak testing)",
    )
    serve.add_argument(
        "--reuse-port",
        action="store_true",
        help="set SO_REUSEPORT so several serve processes share one port",
    )
    serve.set_defaults(func=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="replay a seeded Zipf-skewed query mix against repro serve",
    )
    loadtest.add_argument(
        "--url",
        default=None,
        help="base URL of a running server (default: spawn one in-process)",
    )
    loadtest.add_argument("--seed", type=int, default=11)
    loadtest.add_argument("--scale", type=float, default=0.4)
    loadtest.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests to replay (default: 2000, or 240 with --smoke)",
    )
    loadtest.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent client threads (default: 8)",
    )
    loadtest.add_argument(
        "--qps",
        type=float,
        default=None,
        help="target total request rate (default: unpaced)",
    )
    loadtest.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf skew exponent of the query mix (default: 1.1)",
    )
    loadtest.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads for the in-process server (default: 2)",
    )
    loadtest.add_argument(
        "--parity-every",
        type=int,
        default=10,
        metavar="K",
        help="byte-verify every K-th response against direct computation "
        "(0 disables; default: 10)",
    )
    loadtest.add_argument(
        "--smoke",
        action="store_true",
        help="small request preset + structural gates (exit 1 on failure)",
    )
    loadtest.add_argument(
        "--check",
        action="store_true",
        help="also compare the mix digest and error block vs --baseline",
    )
    loadtest.add_argument(
        "--baseline",
        default="BENCH_serve.json",
        help="baseline serve report for --check (default: BENCH_serve.json)",
    )
    loadtest.add_argument(
        "--out",
        default=None,
        help="write the JSON serve report to this path",
    )
    loadtest.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="campaign store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    loadtest.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk campaign store (loadtest then fails)",
    )
    _add_execution_args(loadtest)
    loadtest.set_defaults(func=_cmd_loadtest)

    observe = sub.add_parser(
        "observe", help="run the derived-metric observer panel"
    )
    observe.add_argument("--scale", type=float, default=1.0)
    observe.add_argument("--seed", type=int, default=11)
    observe.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="override the campaign round count (long-horizon mode)",
    )
    observe.add_argument(
        "--seeds",
        type=int,
        nargs="*",
        default=None,
        help="sweep the panel over several seeds and print headline spread",
    )
    observe.add_argument(
        "--observers",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of the observer panel to run (default: all)",
    )
    observe.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical report document on stdout",
    )
    observe.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="campaign store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    observe.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk campaign store",
    )
    _add_execution_args(observe)
    _add_faults_arg(observe)
    _add_transition_arg(observe)
    observe.set_defaults(func=_cmd_observe)

    cache = sub.add_parser("cache", help="inspect the campaign store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list stored campaigns")
    cache_ls.add_argument("--json", action="store_true")
    cache_ls.add_argument("--cache-dir", metavar="DIR", default=None)
    cache_ls.set_defaults(func=_cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune", help="delete all but the newest N stored campaigns"
    )
    cache_prune.add_argument("--keep-latest", type=int, required=True)
    cache_prune.add_argument("--cache-dir", metavar="DIR", default=None)
    cache_prune.set_defaults(func=_cmd_cache)

    profile = sub.add_parser(
        "profile", help="run the small campaign and print a phase-time breakdown"
    )
    profile.add_argument("--scale", type=float, default=1.0)
    profile.add_argument("--seed", type=int, default=11)
    profile.add_argument("--out", default=PROFILE_DEFAULT_OUT)
    _add_execution_args(profile)
    profile.set_defaults(func=_cmd_profile)

    bench = sub.add_parser(
        "bench",
        help="run the perf workloads and check the deterministic gates",
    )
    bench.add_argument("--scale", type=float, default=BENCH_DEFAULT_SCALE)
    bench.add_argument("--seed", type=int, default=BENCH_DEFAULT_SEED)
    bench.add_argument(
        "--workloads",
        nargs="*",
        choices=sorted(WORKLOADS),
        default=None,
        help="subset of workloads to run (default: all)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="evaluate the structural work-counter gates (exit 1 on failure)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="also compare work counters against --baseline (exact match)",
    )
    bench.add_argument(
        "--baseline",
        default=BENCH_DEFAULT_OUT,
        help=f"baseline report for --check (default: {BENCH_DEFAULT_OUT})",
    )
    bench.add_argument(
        "--compare",
        metavar="PATH",
        default=None,
        help="print a speedup summary (median old/new, counter deltas) "
        "against an older bench report",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the JSON bench report to this path",
    )
    bench.set_defaults(func=_cmd_bench)

    show = sub.add_parser("show-config", help="print the default scenario")
    show.set_defaults(func=_cmd_show_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        obs.setup_logging(level=args.log_level, fmt=args.log_format)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
