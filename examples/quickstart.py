"""Quickstart: build a synthetic dual-stack Internet, run the monitoring
campaign, and check the paper's two headline findings.

Run with::

    python examples/quickstart.py [--seed 11]

Takes ~15-60 seconds depending on scale.
"""

from __future__ import annotations

import argparse
import time

from repro import build_world, run_campaign, small_config
from repro.analysis.classify import SiteCategory
from repro.analysis.hypotheses import ASVerdict, verdict_fractions
from repro.data.series import (
    converged_speeds,
    dual_stack_sites,
    modal_as_path,
    v6_reachability,
)
from repro.experiments.scenario import build_contexts
from repro.net.addresses import AddressFamily


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    config = small_config(seed=args.seed)
    print("Building the world (topology, IPv6 overlay, DNS, sites)...")
    t0 = time.time()
    world = build_world(config)
    summary = world.dualstack.summary()
    print(
        f"  {summary['ases']} ASes ({summary['v6_enabled']} v6-enabled), "
        f"{summary['v4_links']} v4 links / {summary['v6_links']} v6 links, "
        f"{summary['tunnels']} tunnels, {len(world.catalog)} sites "
        f"[{time.time() - t0:.1f}s]"
    )

    print(f"Running {config.campaign.n_rounds} weekly monitoring rounds "
          f"from {len(world.vantages)} vantage points...")
    t0 = time.time()
    result = run_campaign(world)
    print(f"  done in {time.time() - t0:.1f}s, "
          f"{result.total_measurements()} download statistics recorded")

    print("\nPer-vantage view:")
    contexts = build_contexts(config, result)
    for name, context in contexts.items():
        reach = v6_reachability(context.db, config.campaign.n_rounds - 1)
        print(
            f"  {name:8s} dual-stack sites: {len(context.dual_stack_sites):4d} "
            f"kept: {len(context.kept):4d} "
            f"DL/SP/DP: {len(context.sites_in(SiteCategory.DL)):3d}/"
            f"{len(context.sites_in(SiteCategory.SP)):3d}/"
            f"{len(context.sites_in(SiteCategory.DP)):3d} "
            f"IPv6 reachability: {100 * reach:.1f}%"
        )

    print("\nHypothesis checks (the paper's findings):")
    for name, context in contexts.items():
        sp = verdict_fractions(context.sp_evaluations.values())
        dp = verdict_fractions(context.dp_evaluations.values())
        print(
            f"  {name:8s} SP comparable: {100 * sp[ASVerdict.COMPARABLE]:5.1f}%   "
            f"DP comparable: {100 * dp[ASVerdict.COMPARABLE]:5.1f}%"
        )
    print(
        "\nH1: on shared paths IPv6 performs on par with IPv4 "
        "(SP column high).\n"
        "H2: routing differences drive poorer IPv6 performance "
        "(DP column low)."
    )

    # Bonus: look at one dual-stack site's paths.
    penn = world.vantages[0]
    db = result.repository.database(penn.name)
    dual = dual_stack_sites(db)
    if dual:
        sid = dual[0]
        site = world.catalog.site(sid)
        print(f"\nExample site {site.name} from {penn.name}:")
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            path = modal_as_path(db, sid, family)
            speeds = converged_speeds(db, sid, family)
            mean = sum(speeds) / len(speeds) if speeds else float("nan")
            print(f"  {family}: path={path} mean speed={mean:.1f} kB/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
