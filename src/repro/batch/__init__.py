"""The round plane: every monitoring round runs as plan, then execute.

A *plan* step files the whole site batch from its DNS answers (no RNG,
no clock), and an *execute* step walks the dispatch schedule doing each
site's order-sensitive work — injected DNS timeouts, session opens,
identity probes, download loops — and materializes observation rows in
columnar order.  Injected faults are per-site fates decided in the
execute step, so faulty and fault-free rounds share this one path.  The
shared-RNG draw order, float expressions and row order are fixed by the
pinned content digests and golden fixtures.
"""

from __future__ import annotations

from .sampling import gauss_block, uniform_block

__all__ = ["gauss_block", "uniform_block"]
