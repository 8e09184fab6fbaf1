"""The monitoring tool — the paper's Fig 2 pipeline.

Each round:

1. retrieve the latest top list (plus any external inputs) and add
   never-before-seen sites to the monitored set — once monitored, a site
   is tracked "from this point onward";
2. randomise the monitoring order (to avoid time-of-day bias);
3. per site: DNS A + AAAA queries; if dual-stack, download the main page
   over both families and compare byte counts (identical within 6%); if
   identical, run the repeated-download loop per family and record the
   statistics and the BGP path.

Sites are dispatched to a bounded worker pool (<= 25 concurrent) whose
schedule stamps every measurement with its simulated wall-clock time.
Step 3 runs on the round plane in :mod:`repro.batch`: a plan step
files every site from its DNS answers and opens its sessions, then an
execute step walks the dispatch order doing each site's faults, probes
and download loops.
Injected faults are per-site fates decided there, so faulty and
fault-free rounds take the one path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..config import MonitorConfig
from ..dataplane.clock import SimulationClock
from ..dns.resolver import Resolver
from ..errors import MonitorError
from ..web.http import HttpClient
from .database import MeasurementDatabase
from .vantage import VantagePoint


@dataclass
class VantageEnvironment:
    """Everything one monitor needs from the world, injected as callables."""

    resolver: Resolver
    client: HttpClient
    clock: SimulationClock
    #: round -> ranked site names (the freshly retrieved top list).
    site_list: Callable[[int], list[str]]
    #: round -> extra names manually imported (Penn's DNS-cache feed).
    external_inputs: Callable[[int], list[str]]
    #: site name -> stable site id.
    site_id_of: Callable[[str], int]
    #: record per-(site, round) IPv6 transition kinds (on when the
    #: scenario's NAT64/DNS64 axis is enabled; legacy campaigns record
    #: nothing and keep their wire form bit-identical).
    record_transitions: bool = False


@dataclass(frozen=True)
class RoundReport:
    """Summary of one monitoring round (for logs and tests)."""

    round_idx: int
    n_monitored: int
    n_new: int
    n_dual_stack: int
    n_measured: int
    makespan_seconds: float
    #: injected failures observed this round (0 in fault-free runs).
    n_failures: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form (the engine's shard-result wire format)."""
        data = {
            "round_idx": self.round_idx,
            "n_monitored": self.n_monitored,
            "n_new": self.n_new,
            "n_dual_stack": self.n_dual_stack,
            "n_measured": self.n_measured,
            "makespan_seconds": self.makespan_seconds,
        }
        if self.n_failures:
            # Key emitted only when nonzero: fault-free payloads (and the
            # digests over them) stay bit-identical to earlier versions.
            data["n_failures"] = self.n_failures
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RoundReport":
        """Rebuild a report from :meth:`to_dict` output (lossless)."""
        return cls(
            round_idx=data["round_idx"],
            n_monitored=data["n_monitored"],
            n_new=data["n_new"],
            n_dual_stack=data["n_dual_stack"],
            n_measured=data["n_measured"],
            makespan_seconds=data["makespan_seconds"],
            n_failures=data.get("n_failures", 0),
        )


class MonitoringTool:
    """One vantage point's monitor, accumulating into its own database."""

    def __init__(
        self,
        vantage: VantagePoint,
        env: VantageEnvironment,
        config: MonitorConfig,
        rng: random.Random,
        max_sites_per_round: int = 0,
    ) -> None:
        config.validate()
        if max_sites_per_round < 0:
            raise MonitorError("max_sites_per_round must be >= 0")
        self.vantage = vantage
        self.env = env
        self.config = config
        self.rng = rng
        self.max_sites_per_round = max_sites_per_round
        self.database = MeasurementDatabase(vantage_name=vantage.name)
        self._monitored: list[str] = []
        self._monitored_set: set[str] = set()
        self._last_round: int | None = None
        #: name → site id memo (stable for the life of the world).
        self._site_ids: dict[str, int] = {}

    # -- public API -----------------------------------------------------------

    def run_round(self, round_idx: int) -> RoundReport:
        """Run one full monitoring round; returns a summary report."""
        if self._last_round is not None and round_idx <= self._last_round:
            raise MonitorError(
                f"rounds must be monotonically increasing "
                f"(got {round_idx} after {self._last_round})"
            )
        self._last_round = round_idx
        if not self.vantage.active_at(round_idx):
            return RoundReport(round_idx, 0, 0, 0, 0, 0.0)

        listed = self.env.site_list(round_idx)
        listed_now = set(listed)
        n_new = self._ingest_lists(round_idx, listed)
        order = list(self._monitored)
        self.rng.shuffle(order)
        if self.max_sites_per_round:
            order = order[: self.max_sites_per_round]

        round_start = self.env.clock.time_of_round(round_idx)
        # Deferred: the batch package's plan/execute modules import this one.
        from ..batch.execute import run_batched_round

        return run_batched_round(
            self, round_idx, order, listed_now, n_new, round_start
        )

    # -- internals --------------------------------------------------------------

    def _ingest_lists(self, round_idx: int, names: list[str]) -> int:
        """Append the round's unseen names (``names`` is its top list)."""
        if self.vantage.external_inputs:
            names = names + self.env.external_inputs(round_idx)
        n_new = 0
        for name in names:
            if name not in self._monitored_set:
                self._monitored_set.add(name)
                self._monitored.append(name)
                n_new += 1
        return n_new
