"""The initial observer panel (~50 lines each, à la world-observer).

Derived-metric observers over the columnar tables, each turning one of the
paper's one-shot findings into a continuously watchable health signal:

* ``region_adoption``   — per-region IPv6 adoption score (Fig 1 / 3a);
* ``speed_parity``      — v6/v4 speed-parity index (H1/H2's observable);
* ``path_stability``    — modal-AS-path change rate (§5.4's churn);
* ``tunnel_prevalence`` — the Table-7 tunnel signature, watched;
* ``failure_watch``     — injected-failure/retry rate (faults table);
* ``hop_inflation``     — v6 vs v4 AS-path length inflation (Tables 7/9);
* ``transition_matrix`` — native/tunneled/translated adoption and the
  native-vs-NAT64 speed gap (transitions table; empty when off).

The four series observers (``speed_parity``, ``path_stability``,
``tunnel_prevalence``, ``hop_inflation``) and ``transition_matrix`` read
each vantage's :mod:`~repro.data.series` index — its ``downloads`` and
``paths`` tables grouped once into (site, family) series and per-round
groups, shared by the whole panel and by the analysis — instead of
issuing point lookups; the others read whole tables through
:func:`~repro.data.query.scan` or, like ``failure_watch``, one pass over
a table's decoded columns.

Every body follows the same convention: ``summary`` (headline scalars),
``per_vantage`` (the breakdown), and ``series`` (per-round trajectories
the trend significance model runs over).  All arithmetic iterates
vantages in sorted-name order and rows in ascending row id, so float
summation order — and therefore the report digest — is identical across
execution backends.
"""

from __future__ import annotations

from ..analysis.hopcount import BUCKETS, bucket_of
from ..data.columnar import TRANSITION_KINDS, ColumnarRepository
from ..data.query import gather, scan
from ..data.query import run_query  # noqa: F401  (a perfbench timer target)
from ..data.series import series_index
from ..net.addresses import AddressFamily
from .registry import register

#: the paper's comparability band, reused as the parity band.
COMPARABLE_BAND = 0.10
#: apparent AS-hop ceiling of the tunnel signature (Table 7's anomaly).
TUNNEL_MAX_HOPS = 2

_FAMILIES = (AddressFamily.IPV4, AddressFamily.IPV6)


def _sorted_vantages(repository: ColumnarRepository):
    for name in sorted(repository.databases):
        yield name, repository.vantages.get(name, {}), repository.databases[name]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _series(points: dict[int, float]) -> dict:
    rounds = sorted(points)
    return {"rounds": rounds, "values": [points[r] for r in rounds]}


@register(
    name="region_adoption",
    version=1,
    description=(
        "Per-region IPv6 adoption score: the fraction of DNS-queried "
        "sites answering with a AAAA record, by vantage region and round "
        "(the paper's Fig 1 reachability curve, continuously derived)."
    ),
    required_tables=("dns_counts",),
    headline="adoption_score",
)
def region_adoption(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    regions: dict[str, list[float]] = {}
    global_aaaa: dict[int, int] = {}
    global_queried: dict[int, int] = {}
    for name, meta, cdb in _sorted_vantages(repository):
        table = cdb.table("dns_counts")
        rows = scan(table)
        rounds = gather(table, "round", rows)
        queried = gather(table, "queried", rows)
        with_aaaa = gather(table, "with_aaaa", rows)
        fractions = [
            (a / q) if q else 0.0 for a, q in zip(with_aaaa, queried)
        ]
        final = fractions[-1] if fractions else 0.0
        region = meta.get("location", name)
        per_vantage[name] = {
            "region": region,
            "n_rounds": len(rounds),
            "adoption_final": final,
            "adoption_mean": _mean(fractions),
        }
        regions.setdefault(region, []).append(final)
        for r, q, a in zip(rounds, queried, with_aaaa):
            global_queried[r] = global_queried.get(r, 0) + q
            global_aaaa[r] = global_aaaa.get(r, 0) + a
    adoption = {
        r: (global_aaaa[r] / global_queried[r]) if global_queried[r] else 0.0
        for r in global_queried
    }
    finals = [per_vantage[name]["adoption_final"] for name in sorted(per_vantage)]
    return {
        "summary": {
            "adoption_score": _mean(finals),
            "n_vantages": len(per_vantage),
            "n_regions": len(regions),
        },
        "per_region": {
            region: _mean(values) for region, values in sorted(regions.items())
        },
        "per_vantage": per_vantage,
        "series": {"adoption": _series(adoption)},
    }


@register(
    name="speed_parity",
    version=1,
    description=(
        "v6/v4 speed-parity index over dual-stack sites: mean per-site "
        "speed ratio and the fraction inside the paper's 10% "
        "comparability band (H1/H2's observable, per round)."
    ),
    required_tables=("downloads",),
    headline="parity_index",
)
def speed_parity(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    all_ratios: list[float] = []
    n_comparable = 0
    round_speeds: dict[int, dict[str, list[float]]] = {}
    for name, _, cdb in _sorted_vantages(repository):
        index = series_index(cdb)
        downloads = index.downloads
        ratios: list[float] = []
        for site_id in index.dual_stack_sites:
            v4 = downloads.series(site_id, AddressFamily.IPV4).mean_speed
            v6 = downloads.series(site_id, AddressFamily.IPV6).mean_speed
            if v4:
                ratios.append(v6 / v4)
        comparable = sum(1 for r in ratios if abs(r - 1.0) <= COMPARABLE_BAND)
        per_vantage[name] = {
            "n_sites": len(ratios),
            "parity_index": _mean(ratios),
            "comparable_fraction": (
                comparable / len(ratios) if ratios else None
            ),
        }
        all_ratios.extend(ratios)
        n_comparable += comparable
        # Per-round family means over converged downloads.
        for (r, family), speed in downloads.round_means.items():
            round_speeds.setdefault(r, {}).setdefault(family.value, []).append(
                speed
            )
    parity_by_round: dict[int, float] = {}
    for r, families in round_speeds.items():
        v4 = _mean(families.get(AddressFamily.IPV4.value, []))
        v6 = _mean(families.get(AddressFamily.IPV6.value, []))
        if v4 and v6 is not None:
            parity_by_round[r] = v6 / v4
    return {
        "summary": {
            "parity_index": _mean(all_ratios),
            "comparable_fraction": (
                n_comparable / len(all_ratios) if all_ratios else None
            ),
            "n_sites": len(all_ratios),
        },
        "per_vantage": per_vantage,
        "series": {"parity": _series(parity_by_round)},
    }


@register(
    name="path_stability",
    version=1,
    description=(
        "Modal-AS-path stability: the rate of observed AS-path changes "
        "per path transition, by family (the churn behind the paper's "
        "path-change step sites), and the per-round change count."
    ),
    required_tables=("paths",),
    headline="stability_index",
)
def path_stability(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    total_changes = {f.value: 0 for f in _FAMILIES}
    total_transitions = {f.value: 0 for f in _FAMILIES}
    changes_by_round: dict[int, float] = {}
    for name, _, cdb in _sorted_vantages(repository):
        changes = {f: 0 for f in _FAMILIES}
        transitions = {f: 0 for f in _FAMILIES}
        for family, by_site in series_index(cdb).paths.by_family.items():
            for series in by_site.values():
                changes[family] += len(series.change_rounds)
                transitions[family] += series.n_rows - 1
                for r in series.change_rounds:
                    changes_by_round[r] = changes_by_round.get(r, 0.0) + 1.0
        per_vantage[name] = {
            family.value: {
                "changes": changes[family],
                "transitions": transitions[family],
                "change_rate": (
                    changes[family] / transitions[family]
                    if transitions[family]
                    else None
                ),
            }
            for family in _FAMILIES
        }
        for family in _FAMILIES:
            total_changes[family.value] += changes[family]
            total_transitions[family.value] += transitions[family]
    n_changes = sum(total_changes.values())
    n_transitions = sum(total_transitions.values())
    overall_rate = n_changes / n_transitions if n_transitions else 0.0
    return {
        "summary": {
            "stability_index": 1.0 - overall_rate,
            "change_rate": overall_rate,
            "change_rate_v4": (
                total_changes[AddressFamily.IPV4.value]
                / total_transitions[AddressFamily.IPV4.value]
                if total_transitions[AddressFamily.IPV4.value]
                else None
            ),
            "change_rate_v6": (
                total_changes[AddressFamily.IPV6.value]
                / total_transitions[AddressFamily.IPV6.value]
                if total_transitions[AddressFamily.IPV6.value]
                else None
            ),
        },
        "per_vantage": per_vantage,
        "series": {"path_changes": _series(changes_by_round)},
    }


@register(
    name="tunnel_prevalence",
    version=1,
    description=(
        "Tunnel-signature watcher: dual-stack sites whose modal IPv6 AS "
        "path looks 1-2 hops long while the IPv4 path is longer — the "
        "apparent shortening 6to4/brokered tunnels cause (Table 7's "
        "low-hop anomaly), as a prevalence fraction per round."
    ),
    required_tables=("paths",),
    headline="prevalence",
)
def tunnel_prevalence(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    n_suspected = 0
    n_population = 0
    short_by_round: dict[int, list[int]] = {}
    for name, _, cdb in _sorted_vantages(repository):
        suspected = 0
        shortenings: list[float] = []
        paths = series_index(cdb).paths
        population = paths.dual_stack_sites
        for site_id in population:
            v4 = paths.series(site_id, AddressFamily.IPV4).modal_path
            v6 = paths.series(site_id, AddressFamily.IPV6).modal_path
            v4_hops, v6_hops = len(v4) - 1, len(v6) - 1
            if 1 <= v6_hops <= TUNNEL_MAX_HOPS and v4_hops > v6_hops:
                suspected += 1
                shortenings.append(float(v4_hops - v6_hops))
        per_vantage[name] = {
            "n_sites": len(population),
            "n_suspected": suspected,
            "prevalence": suspected / len(population) if population else None,
            "mean_apparent_shortening": _mean(shortenings),
        }
        n_suspected += suspected
        n_population += len(population)
        # Per-round share of v6 path observations that look tunnel-short.
        for (r, family), hops in paths.round_hops.items():
            if family is not AddressFamily.IPV6:
                continue
            bucket = short_by_round.setdefault(r, [0, 0])
            for length, n in hops.items():
                bucket[0] += n if 1 <= length <= TUNNEL_MAX_HOPS else 0
                bucket[1] += n
    short_fraction = {
        r: (short / total) if total else 0.0
        for r, (short, total) in short_by_round.items()
    }
    return {
        "summary": {
            "prevalence": (
                n_suspected / n_population if n_population else None
            ),
            "n_suspected": n_suspected,
            "n_sites": n_population,
        },
        "per_vantage": per_vantage,
        "series": {"short_v6_fraction": _series(short_fraction)},
    }


@register(
    name="failure_watch",
    version=1,
    description=(
        "Injected-failure watcher over the faults table: failure counts "
        "by kind and family, the failure rate per recorded download "
        "row, and the per-round fault count (all zero on faults-off "
        "campaigns)."
    ),
    required_tables=("faults", "downloads"),
    headline="failure_rate",
)
def failure_watch(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    by_kind: dict[str, int] = {}
    by_family: dict[str, int] = {}
    n_faults = 0
    n_downloads = 0
    faults_by_round: dict[int, float] = {}
    for name, _, cdb in _sorted_vantages(repository):
        faults = cdb.table("faults")
        downloads = cdb.table("downloads")
        # One pass over the faults table tallies kind, family and round
        # together; counts are ints, as a ``count`` aggregate emits them.
        rows = range(faults.n_rows)
        vantage_kinds: dict[str, int] = {}
        vantage_families: dict[str, int] = {}
        vantage_rounds: dict[int, int] = {}
        for kind, family, r in zip(
            faults.column("kind").take(rows),
            faults.column("family").take(rows),
            faults.column("round").take(rows),
        ):
            vantage_kinds[kind] = vantage_kinds.get(kind, 0) + 1
            vantage_families[family] = vantage_families.get(family, 0) + 1
            vantage_rounds[r] = vantage_rounds.get(r, 0) + 1
        vantage_kinds = dict(sorted(vantage_kinds.items()))
        vantage_families = dict(sorted(vantage_families.items()))
        for r, n in vantage_rounds.items():
            faults_by_round[r] = faults_by_round.get(r, 0.0) + n
        per_vantage[name] = {
            "n_faults": faults.n_rows,
            "n_downloads": downloads.n_rows,
            "failure_rate": (
                faults.n_rows / downloads.n_rows if downloads.n_rows else None
            ),
            "by_kind": vantage_kinds,
            "by_family": vantage_families,
        }
        n_faults += faults.n_rows
        n_downloads += downloads.n_rows
        for kind, n in vantage_kinds.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
        for family, n in vantage_families.items():
            by_family[family] = by_family.get(family, 0) + n
    return {
        "summary": {
            "failure_rate": n_faults / n_downloads if n_downloads else 0.0,
            "n_faults": n_faults,
            "n_downloads": n_downloads,
        },
        "by_kind": dict(sorted(by_kind.items())),
        "by_family": dict(sorted(by_family.items())),
        "per_vantage": per_vantage,
        "series": {"faults": _series(faults_by_round)},
    }


@register(
    name="hop_inflation",
    version=1,
    description=(
        "AS-path hopcount-inflation index: mean modal-path length per "
        "family over dual-stack sites, their difference (v6 minus v4), "
        "and the Table-7/9 hop-bucket histogram, per round."
    ),
    required_tables=("paths",),
    headline="inflation_hops",
)
def hop_inflation(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    all_hops: dict[str, list[float]] = {f.value: [] for f in _FAMILIES}
    histogram: dict[str, dict[str, int]] = {
        f.value: {bucket: 0 for bucket in BUCKETS} for f in _FAMILIES
    }
    # round -> family -> [hop sum, rows]
    hops_by_round: dict[int, dict[str, list[int]]] = {}
    for name, _, cdb in _sorted_vantages(repository):
        paths = series_index(cdb).paths
        vantage_hops: dict[str, list[float]] = {f.value: [] for f in _FAMILIES}
        for family in _FAMILIES:
            family_hops = vantage_hops[family.value]
            buckets = histogram[family.value]
            for site_id in paths.dual_stack_sites:
                hops = len(paths.series(site_id, family).modal_path) - 1
                if hops < 1:
                    continue
                family_hops.append(float(hops))
                buckets[bucket_of(hops)] += 1
        v4_mean = _mean(vantage_hops[AddressFamily.IPV4.value])
        v6_mean = _mean(vantage_hops[AddressFamily.IPV6.value])
        per_vantage[name] = {
            "mean_hops_v4": v4_mean,
            "mean_hops_v6": v6_mean,
            "inflation_hops": (
                v6_mean - v4_mean
                if v4_mean is not None and v6_mean is not None
                else None
            ),
        }
        for family_value, values in vantage_hops.items():
            all_hops[family_value].extend(values)
        # Per-round mean path length per family.
        for (r, family), hops in paths.round_hops.items():
            total = hops_by_round.setdefault(r, {}).setdefault(
                family.value, [0, 0]
            )
            for length, n in hops.items():
                total[0] += length * n
                total[1] += n
    inflation_by_round: dict[int, float] = {}
    for r, families in hops_by_round.items():
        v4 = families.get(AddressFamily.IPV4.value)
        v6 = families.get(AddressFamily.IPV6.value)
        if v4 and v6:
            inflation_by_round[r] = (v6[0] / v6[1]) - (v4[0] / v4[1])
    v4_mean = _mean(all_hops[AddressFamily.IPV4.value])
    v6_mean = _mean(all_hops[AddressFamily.IPV6.value])
    return {
        "summary": {
            "mean_hops_v4": v4_mean,
            "mean_hops_v6": v6_mean,
            "inflation_hops": (
                v6_mean - v4_mean
                if v4_mean is not None and v6_mean is not None
                else None
            ),
        },
        "histogram": histogram,
        "per_vantage": per_vantage,
        "series": {"inflation": _series(inflation_by_round)},
    }


@register(
    name="transition_matrix",
    version=1,
    description=(
        "IPv6 transition-mechanism matrix over the transitions table: "
        "per-vantage adoption of native / tunneled / translated (NAT64) "
        "connectivity, the native-vs-NAT64 mean v6 speed gap, and the "
        "per-round translated share (all empty unless the scenario's "
        "DNS64 axis recorded transitions)."
    ),
    required_tables=("transitions", "downloads"),
    headline="translated_share",
)
def transition_matrix(repository: ColumnarRepository) -> dict:
    per_vantage: dict[str, dict] = {}
    total_kinds = {kind: 0 for kind in TRANSITION_KINDS}
    speeds: dict[str, list[float]] = {kind: [] for kind in TRANSITION_KINDS}
    translated_by_round: dict[int, list[int]] = {}
    for name, _, cdb in _sorted_vantages(repository):
        table = cdb.table("transitions")
        rows = scan(table)
        sites = gather(table, "site_id", rows)
        rounds = gather(table, "round", rows)
        kinds = gather(table, "transition", rows)
        # A site's classification follows its most recent round, so a
        # mid-campaign native-IPv6 adopter counts as native, not NAT64.
        latest: dict[int, str] = {}
        for site_id, r, kind in zip(sites, rounds, kinds):
            latest[site_id] = kind
            bucket = translated_by_round.setdefault(r, [0, 0])
            bucket[0] += 1 if kind == "translated" else 0
            bucket[1] += 1
        vantage_kinds = {kind: 0 for kind in TRANSITION_KINDS}
        for site_id in sorted(latest):
            kind = latest[site_id]
            vantage_kinds[kind] += 1
            series = series_index(cdb).downloads.series(
                site_id, AddressFamily.IPV6
            )
            if series is not None:
                speeds[kind].append(series.mean_speed)
        n_sites = len(latest)
        per_vantage[name] = {
            "n_sites": n_sites,
            "by_kind": vantage_kinds,
            "translated_share": (
                vantage_kinds["translated"] / n_sites if n_sites else None
            ),
        }
        for kind, n in vantage_kinds.items():
            total_kinds[kind] += n
    n_total = sum(total_kinds.values())
    native_speed = _mean(speeds["native"])
    translated_speed = _mean(speeds["translated"])
    translated_share = {
        r: (translated / total) if total else 0.0
        for r, (translated, total) in translated_by_round.items()
    }
    return {
        "summary": {
            "translated_share": (
                total_kinds["translated"] / n_total if n_total else 0.0
            ),
            "n_sites": n_total,
            "by_kind": dict(sorted(total_kinds.items())),
            "native_mean_speed": native_speed,
            "translated_mean_speed": translated_speed,
            "native_over_translated": (
                native_speed / translated_speed
                if native_speed is not None and translated_speed
                else None
            ),
            "tunneled_mean_speed": _mean(speeds["tunneled"]),
        },
        "per_vantage": per_vantage,
        "series": {"translated_share": _series(translated_share)},
    }
