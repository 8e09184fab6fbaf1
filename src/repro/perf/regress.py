"""Deterministic perf-regression gates.

Wall-clock on shared CI runners is noise; the gates here are exact
arithmetic over the work counters a :mod:`repro.perf.workloads` run
snapshots.  Two layers:

* :func:`evaluate_gates` — structural invariants with hard bounds
  (zone walks per site, endpoint/path lookups per download loop, RNG
  constructions per fault decision).  These encode the optimization
  contract directly and hold at any (seed, scale).
* :func:`compare_reports` — exact counter equality against a checked-in
  baseline report of the same configuration; wall-clock deltas ride
  along as information for the humans, never as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workloads import STORE_IO_LOADS

#: hard bounds for the structural gates.  Pre-optimization the round loop
#: walked the zones ~2.89 times per monitored site and resolved the
#: endpoint/path once per *sample* (~5+ per loop); the bounds assert the
#: optimized shape with a little slack for config-shape variation, not
#: for regressions.
MAX_ZONE_WALKS_PER_SITE = 1.5
MAX_ENDPOINT_LOOKUPS_PER_LOOP = 1.25
MAX_RNG_CONSTRUCTIONS_PER_DECISION = 0.0
#: the query battery is point lookups (indexable) plus one group
#: aggregate per vantage; pushdown must cover nearly every scan.
MIN_INDEX_HIT_FRACTION = 0.95
#: the observer panel reads per-(site, family) series from each
#: vantage's series index and scans only whole small tables (dns_counts,
#: faults, transitions), so it may issue at most this many query scans
#: per vantage per observer (point lookups per site would read ~69).
MAX_OBSERVER_SCANS_PER_VANTAGE = 2.0
#: series index builds per vantage for a whole panel: one per table
#: (downloads, paths), shared by every observer.
OBSERVER_SERIES_BUILDS_PER_VANTAGE = 2
#: each observer may read the campaign a bounded constant number of
#: times; the unit is download loops (~downloads-table rows), which makes
#: the bound scale-free.  Measured shape: ~2.0 rows per loop per observer
#: with per-site point lookups, ~0.002 since the panel reads the series
#: index (its builds read columns directly, outside ``scan``).
MAX_OBSERVER_ROWS_PER_LOOP = 4.0
#: a Zipf-skewed mix repeats its head templates constantly, so the
#: response cache must answer at least this fraction of lookups; the
#: quota-based mix guarantees hits = n_requests - templates_touched, so
#: the floor holds deterministically at the smoke configuration and up.
MIN_SERVE_CACHE_HIT_FRACTION = 0.5


@dataclass(frozen=True)
class GateResult:
    """One gate's verdict: what was checked, observed, and required."""

    workload: str
    gate: str
    passed: bool
    observed: float
    bound: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.workload}.{self.gate}: "
            f"observed {self.observed:g}, require {self.bound}"
        )


def _workload(report: dict, name: str) -> dict | None:
    return report.get("workloads", {}).get(name)


def evaluate_gates(report: dict) -> list[GateResult]:
    """Run every applicable structural gate over a bench report."""
    results: list[GateResult] = []

    for name in ("round_loop", "end_to_end"):
        data = _workload(report, name)
        if data is None:
            continue
        counters = data["counters"]
        derived = data["derived"]
        results.append(
            GateResult(
                workload=name,
                gate="zone_walks_per_site",
                passed=derived["zone_walks_per_site"] <= MAX_ZONE_WALKS_PER_SITE,
                observed=derived["zone_walks_per_site"],
                bound=f"<= {MAX_ZONE_WALKS_PER_SITE}",
            )
        )
        results.append(
            GateResult(
                workload=name,
                gate="endpoint_lookups_per_loop",
                passed=(
                    derived["endpoint_lookups_per_loop"]
                    <= MAX_ENDPOINT_LOOKUPS_PER_LOOP
                ),
                observed=derived["endpoint_lookups_per_loop"],
                bound=f"<= {MAX_ENDPOINT_LOOKUPS_PER_LOOP}",
            )
        )
        results.append(
            GateResult(
                workload=name,
                gate="endpoint_equals_path_lookups",
                passed=(
                    counters["web.endpoint_lookups"]
                    == counters["web.path_lookups"]
                ),
                observed=(
                    counters["web.endpoint_lookups"]
                    - counters["web.path_lookups"]
                ),
                bound="== 0 (every open does exactly one of each)",
            )
        )
        results.append(
            GateResult(
                workload=name,
                gate="sessions_bounded_by_dual_stack",
                passed=(
                    counters["web.sessions"]
                    <= 2 * counters["monitor.dual_stack"]
                ),
                observed=counters["web.sessions"],
                bound=f"<= {2 * counters['monitor.dual_stack']:g} "
                      "(2 per dual-stack site-round)",
            )
        )
        results.append(
            GateResult(
                workload=name,
                gate="dns_cache_hits_nonzero",
                passed=counters["dns.cache_hits"] > 0,
                observed=counters["dns.cache_hits"],
                bound="> 0 (second family answered from cache)",
            )
        )

    data = _workload(report, "dns_phase")
    if data is not None:
        walks_per_query = data["derived"]["zone_walks_per_query"]
        results.append(
            GateResult(
                workload="dns_phase",
                gate="zone_walks_per_query",
                passed=walks_per_query <= 0.75,
                observed=walks_per_query,
                bound="<= 0.75 (one walk answers both families)",
            )
        )

    data = _workload(report, "query")
    if data is not None:
        counters = data["counters"]
        hit_fraction = data["derived"]["index_hit_fraction"]
        results.append(
            GateResult(
                workload="query",
                gate="index_hit_fraction",
                passed=hit_fraction >= MIN_INDEX_HIT_FRACTION,
                observed=hit_fraction,
                bound=f">= {MIN_INDEX_HIT_FRACTION} (pushdown stays wired in)",
            )
        )
        results.append(
            GateResult(
                workload="query",
                gate="groups_emitted_nonzero",
                passed=counters["data.query.groups_emitted"] > 0,
                observed=counters["data.query.groups_emitted"],
                bound="> 0 (the dual-stack group-aggregate ran)",
            )
        )
        encodes = counters["data.columnar.encodes"]
        scans = counters["data.query.scans"]
        results.append(
            GateResult(
                workload="query",
                gate="columnar_view_memoized",
                passed=0 < encodes <= scans / 50 if scans else False,
                observed=encodes,
                bound=f"in 1..{scans / 50:g} (one encode per vantage, "
                      "reused across the whole battery)",
            )
        )

    data = _workload(report, "observers")
    if data is not None:
        counters = data["counters"]
        derived = data["derived"]
        scans = derived["scans_per_vantage_observer"]
        results.append(
            GateResult(
                workload="observers",
                gate="scans_per_vantage_observer",
                passed=scans <= MAX_OBSERVER_SCANS_PER_VANTAGE,
                observed=scans,
                bound=f"<= {MAX_OBSERVER_SCANS_PER_VANTAGE:g} "
                      "(series reads, not per-site point lookups)",
            )
        )
        builds = OBSERVER_SERIES_BUILDS_PER_VANTAGE * data["meta"]["n_vantages"]
        results.append(
            GateResult(
                workload="observers",
                gate="series_builds",
                passed=derived["series_builds"] == builds,
                observed=derived["series_builds"],
                bound=f"== {builds} (one per table and vantage, shared "
                      "by the panel)",
            )
        )
        loops = (
            counters["download.loops_converged"]
            + counters["download.loops_exhausted"]
            + counters["download.loops_gave_up"]
        )
        rows_per_observer = derived["rows_scanned_per_observer"]
        bound = MAX_OBSERVER_ROWS_PER_LOOP * loops
        results.append(
            GateResult(
                workload="observers",
                gate="rows_scanned_per_observer",
                passed=rows_per_observer <= bound if loops else False,
                observed=rows_per_observer,
                bound=f"<= {bound:g} ({MAX_OBSERVER_ROWS_PER_LOOP:g} rows "
                      "per download loop per observer)",
            )
        )
        results.append(
            GateResult(
                workload="observers",
                gate="observer_errors",
                passed=counters["observers.errors"] == 0,
                observed=counters["observers.errors"],
                bound="== 0 (no observer raised)",
            )
        )
        results.append(
            GateResult(
                workload="observers",
                gate="every_run_reported",
                passed=(
                    counters["observers.reports"] == counters["observers.runs"]
                    and counters["observers.runs"] > 0
                ),
                observed=counters["observers.reports"],
                bound=f"== {counters['observers.runs']:g} (runs) and > 0",
            )
        )

    data = _workload(report, "store_io")
    if data is not None:
        counters = data["counters"]
        results.append(
            GateResult(
                workload="store_io",
                gate="every_load_from_bin",
                passed=counters["engine.store.bin_loads"] == STORE_IO_LOADS,
                observed=counters["engine.store.bin_loads"],
                bound=f"== {STORE_IO_LOADS} (every load served from columnar.bin)",
            )
        )
        decodes = counters["data.columnar.bin_decodes"]
        verified = counters["data.columnar.bin_digest_verified"]
        results.append(
            GateResult(
                workload="store_io",
                gate="digest_verified_every_load",
                passed=decodes > 0 and verified == decodes,
                observed=verified,
                bound=f"== {decodes:g} (decodes) and > 0 "
                      "(sha256 checked before any buffer is trusted)",
            )
        )

    data = _workload(report, "dns64")
    if data is not None:
        counters = data["counters"]
        derived = data["derived"]
        meta = data.get("meta", {})
        results.append(
            GateResult(
                workload="dns64",
                gate="synthesized_nonzero",
                passed=counters["dns.dns64.synthesized"] > 0,
                observed=counters["dns.dns64.synthesized"],
                bound="> 0 (DNS64 actually synthesized AAAA answers)",
            )
        )
        results.append(
            GateResult(
                workload="dns64",
                gate="transitions_recorded",
                passed=meta.get("n_transitions", 0) > 0,
                observed=meta.get("n_transitions", 0),
                bound="> 0 (the monitor recorded per-site transitions)",
            )
        )
        results.append(
            GateResult(
                workload="dns64",
                gate="translated_share_nonzero",
                passed=derived["translated_share"] > 0,
                observed=derived["translated_share"],
                bound="> 0 (some sites were reached through NAT64)",
            )
        )
        results.append(
            GateResult(
                workload="dns64",
                gate="index_hit_fraction",
                passed=derived["index_hit_fraction"] >= MIN_INDEX_HIT_FRACTION,
                observed=derived["index_hit_fraction"],
                bound=f">= {MIN_INDEX_HIT_FRACTION} (the transitions table "
                      "does not degrade pushdown)",
            )
        )
        results.append(
            GateResult(
                workload="dns64",
                gate="no_nat64_outages_faults_off",
                passed=counters["faults.nat64_outages"] == 0,
                observed=counters["faults.nat64_outages"],
                bound="== 0 (outages only under a fault preset)",
            )
        )

    data = _workload(report, "fault_plan")
    if data is not None:
        per_decision = data["derived"]["rng_constructions_per_decision"]
        results.append(
            GateResult(
                workload="fault_plan",
                gate="rng_constructions_per_decision",
                passed=per_decision <= MAX_RNG_CONSTRUCTIONS_PER_DECISION,
                observed=per_decision,
                bound=f"<= {MAX_RNG_CONSTRUCTIONS_PER_DECISION:g} "
                      "(digest uniforms, no generator objects)",
            )
        )

    return results


def _meta_matches(report: dict, baseline: dict) -> bool:
    keys = ("seed", "scale")
    rm, bm = report.get("meta", {}), baseline.get("meta", {})
    return all(rm.get(k) == bm.get(k) for k in keys)


def compare_reports(report: dict, baseline: dict) -> list[GateResult]:
    """Exact work-counter comparison against a baseline bench report.

    Only valid for matching (seed, scale); a configuration mismatch is
    itself reported as a failed gate rather than silently comparing
    apples to oranges.  Wall-clock is deliberately not compared.
    """
    results: list[GateResult] = []
    if not _meta_matches(report, baseline):
        results.append(
            GateResult(
                workload="report",
                gate="baseline_config_matches",
                passed=False,
                observed=0.0,
                bound=(
                    f"meta {report.get('meta')} vs baseline "
                    f"{baseline.get('meta')}"
                ),
            )
        )
        return results
    for name, base_data in baseline.get("workloads", {}).items():
        data = _workload(report, name)
        if data is None:
            results.append(
                GateResult(
                    workload=name,
                    gate="present",
                    passed=False,
                    observed=0.0,
                    bound="workload missing from report",
                )
            )
            continue
        for counter, base_value in base_data.get("counters", {}).items():
            value = data["counters"].get(counter, 0.0)
            results.append(
                GateResult(
                    workload=name,
                    gate=f"counter:{counter}",
                    passed=value == base_value,
                    observed=value,
                    bound=f"== {base_value:g}",
                )
            )
        base_reports = base_data.get("meta", {}).get("report_digests")
        if base_reports is not None:
            report_digests = data.get("meta", {}).get("report_digests")
            for observer, base_value in base_reports.items():
                value = (report_digests or {}).get(observer)
                results.append(
                    GateResult(
                        workload=name,
                        gate=f"report_digest:{observer}",
                        passed=value == base_value,
                        observed=float(value == base_value),
                        bound=f"== {base_value[:12]}…",
                    )
                )
        base_digest = base_data.get("meta", {}).get("repository_digest")
        if base_digest is not None:
            digest = data.get("meta", {}).get("repository_digest")
            results.append(
                GateResult(
                    workload=name,
                    gate="repository_digest",
                    passed=digest == base_digest,
                    observed=float(digest == base_digest),
                    bound=f"== {base_digest[:12]}…",
                )
            )
    return results


def evaluate_serve_gates(report: dict) -> list[GateResult]:
    """Structural gates over a ``BENCH_serve.json`` loadtest report.

    Everything here is deterministic for a healthy server: the error
    counts and parity verdicts are exact, and the cache-hit floor holds
    by construction of the quota-based Zipf mix.  Latency and throughput
    are *never* gated — they are the informational payload.
    """
    errors = report.get("errors", {})
    parity = report.get("parity", {})
    cache = report.get("cache", {})
    mix = report.get("mix", {})
    results = [
        GateResult(
            workload="loadtest",
            gate="zero_5xx",
            passed=errors.get("n_5xx", 1) == 0,
            observed=errors.get("n_5xx", 1),
            bound="== 0 (no internal errors under load)",
        ),
        GateResult(
            workload="loadtest",
            gate="zero_4xx",
            passed=errors.get("n_4xx", 1) == 0,
            observed=errors.get("n_4xx", 1),
            bound="== 0 (every mix template is a valid request)",
        ),
        GateResult(
            workload="loadtest",
            gate="zero_transport_errors",
            passed=errors.get("n_transport", 1) == 0,
            observed=errors.get("n_transport", 1),
            bound="== 0 (no dropped/failed connections)",
        ),
        GateResult(
            workload="loadtest",
            gate="byte_parity",
            passed=(
                parity.get("mismatched", 1) == 0
                and parity.get("sampled", 0) > 0
            ),
            observed=parity.get("mismatched", 1),
            bound="== 0 mismatches over > 0 sampled responses",
        ),
        GateResult(
            workload="loadtest",
            gate="cache_hit_fraction",
            passed=cache.get("hit_fraction", 0.0)
            >= MIN_SERVE_CACHE_HIT_FRACTION,
            observed=cache.get("hit_fraction", 0.0),
            bound=f">= {MIN_SERVE_CACHE_HIT_FRACTION} "
            "(the Zipf head is served from the response cache)",
        ),
        GateResult(
            workload="loadtest",
            gate="mix_digest_sealed",
            passed=len(mix.get("digest", "")) == 64,
            observed=float(len(mix.get("digest", ""))),
            bound="== 64 hex chars (the mix is content-addressed)",
        ),
    ]
    return results


#: serve-report meta fields that must match for a baseline comparison
#: to be meaningful (they pin the mix generator's inputs).
_SERVE_META_KEYS = ("seed", "zipf_s", "n_requests", "clients")


def compare_serve_reports(report: dict, baseline: dict) -> list[GateResult]:
    """Deterministic comparison against a checked-in ``BENCH_serve.json``.

    Latency and throughput are machine-dependent and deliberately not
    compared; what must match is everything the seeded generator and a
    correct server fully determine — the mix digest and per-kind request
    counts, and the all-zero error block.
    """
    results: list[GateResult] = []
    rm, bm = report.get("meta", {}), baseline.get("meta", {})
    meta_ok = all(rm.get(k) == bm.get(k) for k in _SERVE_META_KEYS)
    results.append(
        GateResult(
            workload="loadtest",
            gate="baseline_config_matches",
            passed=meta_ok,
            observed=float(meta_ok),
            bound=f"meta keys {_SERVE_META_KEYS} equal "
            f"({ {k: rm.get(k) for k in _SERVE_META_KEYS} } vs "
            f"{ {k: bm.get(k) for k in _SERVE_META_KEYS} })",
        )
    )
    if not meta_ok:
        return results
    results.append(
        GateResult(
            workload="loadtest",
            gate="mix_digest",
            passed=report.get("mix", {}).get("digest")
            == baseline.get("mix", {}).get("digest"),
            observed=float(
                report.get("mix", {}).get("digest")
                == baseline.get("mix", {}).get("digest")
            ),
            bound=f"== {str(baseline.get('mix', {}).get('digest'))[:12]}… "
            "(same seed ⇒ same request sequence)",
        )
    )
    base_kinds = baseline.get("mix", {}).get("kinds", {})
    kinds = report.get("mix", {}).get("kinds", {})
    results.append(
        GateResult(
            workload="loadtest",
            gate="mix_kinds",
            passed=kinds == base_kinds,
            observed=float(kinds == base_kinds),
            bound=f"== {base_kinds}",
        )
    )
    for key in ("n_5xx", "n_4xx", "n_transport"):
        base_value = baseline.get("errors", {}).get(key, 0)
        value = report.get("errors", {}).get(key, -1)
        results.append(
            GateResult(
                workload="loadtest",
                gate=f"errors:{key}",
                passed=value == base_value == 0,
                observed=value,
                bound="== 0 (baseline and current)",
            )
        )
    return results


def serve_wall_clock_deltas(report: dict, baseline: dict) -> list[str]:
    """Informational latency/throughput lines vs the checked-in report."""
    lines = []
    base_latency = baseline.get("latency_ms", {})
    latency = report.get("latency_ms", {})
    for key in ("p50", "p95", "p99"):
        if key in latency and key in base_latency:
            lines.append(
                f"latency {key}: {latency[key]:.2f}ms vs baseline "
                f"{base_latency[key]:.2f}ms (informational)"
            )
    base_rps = baseline.get("throughput_rps", 0.0)
    rps = report.get("throughput_rps", 0.0)
    if base_rps:
        lines.append(
            f"throughput: {rps:.1f} rps vs baseline {base_rps:.1f} rps "
            f"({rps / base_rps:.2f}x, informational)"
        )
    return lines


def wall_clock_deltas(report: dict, baseline: dict) -> list[str]:
    """Informational wall-clock comparison lines (never gate failures)."""
    lines = []
    for name, base_data in baseline.get("workloads", {}).items():
        data = _workload(report, name)
        if data is None:
            continue
        base_wall = base_data.get("wall_seconds", 0.0)
        wall = data.get("wall_seconds", 0.0)
        if base_wall > 0:
            ratio = wall / base_wall
            lines.append(
                f"{name}: {wall:.3f}s vs baseline {base_wall:.3f}s "
                f"({ratio:.2f}x, informational)"
            )
    return lines
