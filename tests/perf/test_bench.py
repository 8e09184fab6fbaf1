"""The benchmark + perf-regression subsystem (``repro bench``)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf import (
    SCHEMA,
    WORKLOADS,
    compare_reports,
    evaluate_gates,
    read_report,
    render_report,
    run_bench,
    wall_clock_deltas,
    write_report,
)

#: tiny configuration so the whole file stays CI-cheap; every workload
#: still exercises its real code path.
SEED = 11
SCALE = 0.05


@pytest.fixture(scope="module")
def report() -> dict:
    return run_bench(seed=SEED, scale=SCALE)


class TestRunBench:
    def test_registry_covers_the_hot_paths(self):
        assert set(WORKLOADS) == {
            "round_loop",
            "dns_phase",
            "fault_plan",
            "end_to_end",
            "query",
            "observers",
            "store_io",
            "dns64",
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workloads"):
            run_bench(seed=SEED, scale=SCALE, workloads=["nope"])

    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA
        assert report["meta"] == {"seed": SEED, "scale": SCALE}
        assert set(report["workloads"]) == set(WORKLOADS)
        for data in report["workloads"].values():
            assert data["wall_seconds"] > 0
            assert data["counters"]
            assert data["derived"]

    def test_subset_runs_only_named_workloads(self):
        report = run_bench(seed=SEED, workloads=["fault_plan"])
        assert set(report["workloads"]) == {"fault_plan"}

    def test_end_to_end_carries_repository_digest(self, report):
        digest = report["workloads"]["end_to_end"]["meta"]["repository_digest"]
        assert isinstance(digest, str) and len(digest) == 64

    def test_counters_are_integral(self, report):
        """Work counters must be exact integers — that is what makes them
        gateable across machines, unlike wall-clock."""
        for data in report["workloads"].values():
            for name, value in data["counters"].items():
                assert value == int(value), name


class TestGates:
    def test_optimized_tree_passes_all_gates(self, report):
        gates = evaluate_gates(report)
        assert gates, "no gates evaluated"
        failed = [g.render() for g in gates if not g.passed]
        assert not failed

    def test_gate_catches_per_sample_endpoint_lookups(self, report):
        tampered = copy.deepcopy(report)
        data = tampered["workloads"]["round_loop"]
        # Simulate the pre-optimization shape: one lookup per sample.
        data["derived"]["endpoint_lookups_per_loop"] = 5.2
        failed = {
            (g.workload, g.gate)
            for g in evaluate_gates(tampered)
            if not g.passed
        }
        assert ("round_loop", "endpoint_lookups_per_loop") in failed

    def test_gate_catches_zone_walk_regression(self, report):
        tampered = copy.deepcopy(report)
        tampered["workloads"]["end_to_end"]["derived"]["zone_walks_per_site"] = 2.9
        failed = {
            (g.workload, g.gate)
            for g in evaluate_gates(tampered)
            if not g.passed
        }
        assert ("end_to_end", "zone_walks_per_site") in failed

    def test_gate_catches_rng_construction_in_fault_plan(self, report):
        tampered = copy.deepcopy(report)
        tampered["workloads"]["fault_plan"]["derived"][
            "rng_constructions_per_decision"
        ] = 1.0
        failed = {g.gate for g in evaluate_gates(tampered) if not g.passed}
        assert "rng_constructions_per_decision" in failed

    def test_gate_catches_observer_scan_regression(self, report):
        tampered = copy.deepcopy(report)
        data = tampered["workloads"]["observers"]
        loops = (
            data["counters"]["download.loops_converged"]
            + data["counters"]["download.loops_exhausted"]
            + data["counters"]["download.loops_gave_up"]
        )
        # Simulate an observer re-scanning the campaign per site-round
        # with point lookups, each rebuilding its own series.
        data["derived"]["rows_scanned_per_observer"] = 100.0 * loops
        data["derived"]["scans_per_vantage_observer"] = 69.0
        data["derived"]["series_builds"] += 1
        failed = {
            (g.workload, g.gate)
            for g in evaluate_gates(tampered)
            if not g.passed
        }
        assert ("observers", "rows_scanned_per_observer") in failed
        assert ("observers", "scans_per_vantage_observer") in failed
        assert ("observers", "series_builds") in failed

    def test_gate_catches_observer_errors(self, report):
        tampered = copy.deepcopy(report)
        tampered["workloads"]["observers"]["counters"]["observers.errors"] = 2.0
        failed = {g.gate for g in evaluate_gates(tampered) if not g.passed}
        assert "observer_errors" in failed


class TestCompareReports:
    def test_rerun_is_counter_identical(self, report):
        again = run_bench(seed=SEED, scale=SCALE)
        comparisons = compare_reports(again, report)
        assert comparisons
        failed = [c.render() for c in comparisons if not c.passed]
        assert not failed

    def test_counter_drift_is_flagged(self, report):
        drifted = copy.deepcopy(report)
        drifted["workloads"]["round_loop"]["counters"]["dns.zone_walks"] += 100
        mismatched = [c for c in compare_reports(drifted, report) if not c.passed]
        assert [c.gate for c in mismatched] == ["counter:dns.zone_walks"]

    def test_digest_drift_is_flagged(self, report):
        drifted = copy.deepcopy(report)
        drifted["workloads"]["end_to_end"]["meta"]["repository_digest"] = "0" * 64
        mismatched = [c for c in compare_reports(drifted, report) if not c.passed]
        assert [c.gate for c in mismatched] == ["repository_digest"]

    def test_observer_report_digest_drift_is_flagged(self, report):
        drifted = copy.deepcopy(report)
        digests = drifted["workloads"]["observers"]["meta"]["report_digests"]
        assert digests, "observers workload must pin its report digests"
        name = sorted(digests)[0]
        digests[name] = "0" * 64
        mismatched = [c for c in compare_reports(drifted, report) if not c.passed]
        assert [c.gate for c in mismatched] == [f"report_digest:{name}"]

    def test_config_mismatch_refuses_to_compare(self, report):
        other = copy.deepcopy(report)
        other["meta"]["scale"] = SCALE * 2
        comparisons = compare_reports(other, report)
        assert len(comparisons) == 1
        assert comparisons[0].gate == "baseline_config_matches"
        assert not comparisons[0].passed

    def test_missing_workload_is_flagged(self, report):
        partial = copy.deepcopy(report)
        del partial["workloads"]["dns_phase"]
        mismatched = [c for c in compare_reports(partial, report) if not c.passed]
        assert ("dns_phase", "present") in {
            (c.workload, c.gate) for c in mismatched
        }

    def test_wall_clock_is_informational_only(self, report):
        slower = copy.deepcopy(report)
        for data in slower["workloads"].values():
            data["wall_seconds"] *= 100
        # A 100x slowdown fails nothing...
        assert all(c.passed for c in compare_reports(slower, report))
        # ...but is surfaced to the humans.
        lines = wall_clock_deltas(slower, report)
        assert lines and all("informational" in line for line in lines)


class TestReportIo:
    def test_write_read_round_trip(self, report, tmp_path):
        path = write_report(report, tmp_path / "BENCH_rounds.json")
        assert read_report(path) == report
        # The on-disk form is plain indented JSON ending in a newline, so
        # checked-in baselines diff cleanly in review.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_render_mentions_every_workload(self, report):
        rendered = render_report(report)
        for name in WORKLOADS:
            assert name in rendered
        assert f"seed {SEED}" in rendered


class TestCli:
    def test_bench_smoke_passes(self, capsys):
        from repro.cli import main

        code = main(
            ["bench", "--smoke", "--scale", str(SCALE),
             "--workloads", "fault_plan", "dns_phase"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "structural gates:" in out
        assert "FAIL" not in out

    def test_bench_check_missing_baseline_fails(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            ["bench", "--check", "--baseline", str(tmp_path / "nope.json"),
             "--scale", str(SCALE), "--workloads", "fault_plan"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "not found" in out

    def test_bench_check_against_fresh_baseline_passes(self, capsys, tmp_path):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "--scale", str(SCALE), "--workloads", "fault_plan",
             "--out", str(baseline)]
        ) == 0
        code = main(
            ["bench", "--check", "--baseline", str(baseline),
             "--scale", str(SCALE), "--workloads", "fault_plan"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "counters match" in out


class TestComparison:
    def test_render_comparison_reports_speedups_and_deltas(self, report):
        from repro.perf import render_comparison

        old = copy.deepcopy(report)
        old_round = old["workloads"]["round_loop"]
        old_round["wall_seconds"] *= 2.0
        old_round["spans"]["campaign.round"]["median_s"] *= 2.0
        old_round["counters"]["dns.zone_walks"] += 5
        rendered = render_comparison(old, report)
        assert "campaign.round median" in rendered
        assert "(2.00x)" in rendered
        assert "dns.zone_walks" in rendered
        # Untouched workloads report unchanged counters, not noise.
        assert "counters: unchanged" in rendered

    def test_render_comparison_tolerates_pre_median_baselines(self, report):
        from repro.perf import render_comparison

        old = copy.deepcopy(report)
        for data in old["workloads"].values():
            for span in data["spans"].values():
                span.pop("median_s", None)
        rendered = render_comparison(old, report)
        assert "campaign.round median" in rendered

    def test_render_comparison_warns_on_config_mismatch(self, report):
        from repro.perf import render_comparison

        old = copy.deepcopy(report)
        old["meta"]["scale"] = 9.9
        assert "WARNING: configs differ" in render_comparison(old, report)

    def test_cli_compare_prints_summary(self, capsys, tmp_path):
        from repro.cli import main

        baseline = tmp_path / "old.json"
        assert main(
            ["bench", "--scale", str(SCALE), "--workloads", "fault_plan",
             "--out", str(baseline)]
        ) == 0
        code = main(
            ["bench", "--compare", str(baseline),
             "--scale", str(SCALE), "--workloads", "fault_plan"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "comparison vs baseline" in out

    def test_cli_compare_missing_report_fails(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            ["bench", "--compare", str(tmp_path / "gone.json"),
             "--scale", str(SCALE), "--workloads", "fault_plan"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "not found" in out
