"""Vantage-point anatomy: why the same Internet looks different per vantage.

The paper's Table 4 shows wildly different SP/DP splits per vantage
point (Penn saw 6% SP; UPC Broadband 66%).  The split is a property of
the *vantage's neighbourhood*: how much of its upstream peering fabric
is mirrored in IPv6.  This example dissects each vantage point: its AS,
its v6 uplinks, its SP/DP/DL mix, and a side-by-side of the same
destination's v4/v6 paths from two different vantage points.

Run with::

    python examples/vantage_point_study.py
"""

from __future__ import annotations

from repro import build_world, run_campaign, small_config
from repro.analysis.classify import SiteCategory
from repro.data.series import converged_speeds, modal_as_path
from repro.dataplane.path import ForwardingPath
from repro.experiments.scenario import build_contexts
from repro.net.addresses import AddressFamily

V4, V6 = AddressFamily.IPV4, AddressFamily.IPV6


def main() -> int:
    config = small_config(seed=31)
    world = build_world(config)
    result = run_campaign(world)
    contexts = build_contexts(config, result)

    print("Vantage-point anatomy")
    print("=" * 70)
    for vantage in world.vantages:
        ds = world.dualstack
        v4_up = sorted(ds.providers_of(vantage.asn, V4))
        v6_up = sorted(ds.providers_of(vantage.asn, V6))
        v6_peers_of_providers = sum(
            len(ds.peers_of(p, V6)) for p in v6_up
        )
        line = (
            f"{vantage.name:9s} AS{vantage.asn:<5d} "
            f"v4 uplinks: {len(v4_up)}  v6 uplinks: {len(v6_up)}  "
            f"v6 peering behind providers: {v6_peers_of_providers}"
        )
        context = contexts.get(vantage.name)
        if context is not None:
            sp = len(context.sites_in(SiteCategory.SP))
            dp = len(context.sites_in(SiteCategory.DP))
            dl = len(context.sites_in(SiteCategory.DL))
            total = max(1, sp + dp)
            line += f"  | DL/SP/DP: {dl}/{sp}/{dp} (SP share {100 * sp / total:.0f}%)"
        print(line)

    # Pick a destination measured from two AS_PATH vantages and compare.
    names = [n for n in contexts]
    if len(names) >= 2:
        a, b = contexts[names[0]], contexts[names[1]]
        common = sorted(set(a.kept) & set(b.kept))
        if common:
            sid = common[0]
            site = world.catalog.site(sid)
            print(f"\nSame destination, two vantage points: {site.name}")
            for context in (a, b):
                print(f"  from {context.vantage.name}:")
                for family in (V4, V6):
                    as_path = modal_as_path(context.db, sid, family)
                    if as_path is None:
                        print(f"    {family}: unreachable")
                        continue
                    path = ForwardingPath.from_as_path(
                        world.dualstack, as_path, family
                    )
                    speeds = converged_speeds(context.db, sid, family)
                    mean = sum(speeds) / len(speeds)
                    print(f"    {path.describe()}  mean {mean:.1f} kB/s")
    print(
        "\nReading: the vantage with the richest v6 peering neighbourhood "
        "sees the highest SP share - its v6 routes simply coincide with v4."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
