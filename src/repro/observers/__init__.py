"""Pluggable derived-metric observers over the columnar tables.

The ROADMAP's observer framework: the paper's one-shot findings (speed
gaps, path divergence, tunnel inflation) recast as small, pure,
versioned observer functions over :mod:`repro.data.series` and
:mod:`repro.data.query`, producing
content-addressed canonical-JSON reports with long-horizon trend flags.

* :mod:`repro.observers.registry` — observer declaration + registry;
* :mod:`repro.observers.reports` — versioned content-addressed reports;
* :mod:`repro.observers.panel` — the derived-metric observer panel;
* :mod:`repro.observers.trends` — the trend-significance model;
* :mod:`repro.observers.runner` — the single execution path.
"""

from .registry import Observer, all_observers, get_observer, observer_names, register
from .reports import REPORT_SCHEMA, ObserverReport, canonical_json
from .runner import run_observer, run_panel
from .trends import TrendFlag, analyze_series, flag_series

__all__ = [
    "Observer",
    "ObserverReport",
    "REPORT_SCHEMA",
    "TrendFlag",
    "all_observers",
    "analyze_series",
    "canonical_json",
    "flag_series",
    "get_observer",
    "observer_names",
    "register",
    "run_observer",
    "run_panel",
]
