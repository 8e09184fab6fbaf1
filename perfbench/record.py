#!/usr/bin/env python3
"""Record the expected output digests the benchmark checks against.

    python3 perfbench/record.py        # rewrites perfbench/expected.json

For every workload, at full and at smoke size, and for every seed of the
workload's seed pool, runs one pipeline pass and keeps the campaign's
``content_digest`` and observer-report digests.  Run it only when the
simulation is meant to change; the digests are the benchmark's oracle.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, SRC, WORK, load_json


def main() -> int:
    sys.path.insert(0, str(SRC))
    from pipeline import run_pass, scenario
    from speed import Meter

    workloads = load_json("workloads.json")
    record: dict = {"full": {}, "smoke": {}}
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for size, scale in (("full", "scale"), ("smoke", "smoke_scale")):
            for workload, spec in workloads.items():
                by_seed = record[size][workload] = {}
                for seed in spec["seed_pool"]:
                    result = run_pass(scenario(spec, seed, spec[scale]),
                                      WORK / f"{size}-{workload}-{seed}",
                                      Meter(probing=False), 1, 1, 1)
                    by_seed[str(seed)] = result.record()
                    print(size, workload, seed, result.content_digest[:12], flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
