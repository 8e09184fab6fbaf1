"""The Alexa-like ranked site list, with churn.

Each monitoring round retrieves "the latest top list".  The list is not
static: sites enter and leave, and the paper notes that churn alone made
the monitored population grow past 2M sites within a year (the monitor
never forgets a site it has seen).  The model keeps a fixed-size ranked
window over a larger site universe and rotates a configurable fraction
in and out every round, deterministically from the RNG stream.
"""

from __future__ import annotations

import random

from ..errors import ConfigError


class SiteRanking:
    """A ranked window of ``list_size`` site ids over a larger universe.

    Site ids are dense integers (0-based).  ``list_at_round(r)`` returns
    the ranked list for round ``r``; rank = index + 1.  The sequence of
    lists is generated lazily and cached, so it is identical no matter
    the order rounds are requested in.
    """

    def __init__(
        self,
        universe_size: int,
        list_size: int,
        churn_rate: float,
        rng: random.Random,
    ) -> None:
        if list_size < 1 or universe_size < list_size:
            raise ConfigError("need universe_size >= list_size >= 1")
        if not 0.0 <= churn_rate < 1.0:
            raise ConfigError("churn_rate must be in [0, 1)")
        self.universe_size = universe_size
        self.list_size = list_size
        self.churn_rate = churn_rate
        self._rng = rng
        #: ids not currently (and never previously) on the list, FIFO reserve.
        self._reserve = list(range(list_size, universe_size))
        self._rng.shuffle(self._reserve)
        self._lists: list[list[int]] = [list(range(list_size))]

    def _advance(self) -> None:
        current = list(self._lists[-1])
        n_churn = min(
            int(round(self.churn_rate * self.list_size)), len(self._reserve)
        )
        if n_churn > 0:
            leave_positions = self._rng.sample(range(self.list_size), n_churn)
            newcomers = [self._reserve.pop() for _ in range(n_churn)]
            for pos, site_id in zip(sorted(leave_positions), newcomers):
                current[pos] = site_id
        self._lists.append(current)

    def list_at_round(self, round_idx: int) -> list[int]:
        """The ranked site-id list of round ``round_idx`` (index 0 = rank 1)."""
        if round_idx < 0:
            raise ConfigError("round index must be >= 0")
        while len(self._lists) <= round_idx:
            self._advance()
        return list(self._lists[round_idx])
