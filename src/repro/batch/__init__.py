"""The batched round execution plane.

The monitor's per-site walk handles one site at a time; this package
restructures a fault-free round into a *plan* step that enumerates the
whole site batch (DNS answers, sessions) and an *execute* step that
walks the dispatch schedule consuming bulk draws and materializing
observation rows in columnar order.  Both steps are engineered to be
bit-identical to the per-site walk: same shared-RNG draw order, same
float expressions, same database row order, so the pinned faults-off
digest and serial-vs-process parity are preserved.

Rounds with injected faults always run the per-site walk, and
``REPRO_BATCH=0`` forces it on fault-free rounds too.
"""

from __future__ import annotations

import os

from .sampling import gauss_block, uniform_block


def batching_enabled() -> bool:
    """Whether rounds run on the batched plane (default) or scalar."""
    return os.environ.get("REPRO_BATCH", "1").lower() not in ("0", "false", "no")


__all__ = ["batching_enabled", "gauss_block", "uniform_block"]
