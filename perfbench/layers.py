"""Layer timers for the traced benchmark run.

Each timer wraps one public function of a ``repro`` layer, patched where
its caller looks the name up (``repro.engine.executor.execute_shard``,
not only ``repro.engine.shard.execute_shard``).  Nothing under ``src/``
is edited: the wrappers are installed from outside and removed again.

A timer records, per layer, its call count, its busy time (outermost
call only, so recursion is not counted twice) and the part of that busy
time covered by other timed layers called from inside it.  The stage
frames the benchmark opens itself (``frame(...)``) use the same stack,
so ``<stage>.unattributed_s`` is the stage's time minus the time of the
timed layers it called directly.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


class Layer:
    __slots__ = ("name", "calls", "busy", "covered", "active")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.busy = 0.0
        self.covered = 0.0
        self.active = False

    @property
    def unattributed(self) -> float:
        return self.busy - self.covered


#: every layer timer and stage frame seen in this process, by name.
LAYERS: dict[str, Layer] = {}
#: time covered by timed children, one slot per open frame.  The pipeline
#: runs on one thread; the server's timers live in ``serve_launcher.py``.
_STACK: list[list[float]] = []


def layer(name: str) -> Layer:
    found = LAYERS.get(name)
    if found is None:
        found = LAYERS[name] = Layer(name)
    return found


def reset() -> None:
    LAYERS.clear()


def _close(target: Layer, covered: list[float], elapsed: float) -> None:
    _STACK.pop()
    target.active = False
    target.calls += 1
    target.busy += elapsed
    target.covered += covered[0]
    if _STACK:
        _STACK[-1][0] += elapsed


def timed(name: str, fn):
    """``fn`` timed as layer ``name``; nested calls of the same layer pass through."""
    target = layer(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.active:
            return fn(*args, **kwargs)
        target.active = True
        covered = [0.0]
        _STACK.append(covered)
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(target, covered, clock() - started)

    return wrapper


@contextmanager
def frame(name: str):
    """A stage frame: the ``with`` body timed as layer ``name``."""
    target = layer(name)
    if target.active:
        yield
        return
    target.active = True
    covered = [0.0]
    _STACK.append(covered)
    started = time.perf_counter()
    try:
        yield
    finally:
        _close(target, covered, time.perf_counter() - started)


def _resolve(target: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` → (owner, attr)."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Patches:
    """Install timers at ``module:attr`` call sites; ``undo()`` restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def time(self, target: str, name: str) -> None:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(timed(name, raw.__func__))
        else:
            replacement = timed(name, raw)
        self.replace(owner, attr, replacement)

    def replace(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


#: (call site, layer name) for every timer the traced pipeline installs.
PIPELINE_TIMERS = (
    ("repro.core.world:generate_topology", "topology.generate"),
    ("repro.core.world:deploy_ipv6", "topology.deploy_ipv6"),
    ("repro.core.world:build_catalog", "sites.catalog"),
    ("repro.engine.executor:execute_shard", "engine.shard"),
    ("repro.core.campaign:merge_shard_results", "engine.aggregate"),
    ("repro.batch.execute:build_round_plan", "batch.plan"),
    ("repro.batch.execute:run_batched_round", "batch.round"),
    ("repro.bgp.routing:compute_routes_to", "bgp.routes"),
    ("repro.monitor.aggregate:CentralRepository.to_dict", "store.to_dict"),
    ("repro.data.columnar:ColumnarRepository.from_repository",
     "columnar.from_repository"),
    ("repro.data.columnar:write_columnar_json", "columnar.write_json"),
    ("repro.data.columnar:write_columnar_binary", "columnar.write_bin"),
    ("repro.data.columnar:load_columnar_binary", "store.load_bin"),
    ("repro.data.columnar:columnar_view", "columnar.view"),
    ("repro.analysis.classify:columnar_view", "columnar.view"),
    ("repro.analysis.confidence:columnar_view", "columnar.view"),
    ("repro.analysis.hopcount:columnar_view", "columnar.view"),
    ("repro.data.query:run_query", "query.run"),
    ("repro.observers.panel:run_query", "query.run"),
    ("repro.experiments.scenario:screen_all", "analysis.screen"),
    ("repro.experiments.scenario:classify_sites", "analysis.classify"),
    ("repro.experiments.scenario:evaluate_groups", "analysis.evaluate"),
    ("repro.stats.regression:detect_trend", "stats.trend"),
    ("repro.analysis.confidence:detect_trend", "stats.trend"),
    ("repro.observers.trends:detect_trend", "stats.trend"),
)


def install_pipeline_timers() -> Patches:
    """Patch every pipeline timer, plus one timer per observer."""
    from repro.observers import runner

    patches = Patches()
    for target, name in PIPELINE_TIMERS:
        patches.time(target, name)
    original = runner.run_observer

    @functools.wraps(original)
    def run_observer(observer, repository, campaign_digest=None):
        with frame("observers.run"), frame(f"observers.{observer.name}"):
            return original(observer, repository, campaign_digest)

    patches.replace(runner, "run_observer", run_observer)
    return patches


def counter_values() -> dict[str, float]:
    """Every counter and histogram count/sum in the ``repro.obs`` registry."""
    from repro.obs import metrics

    registry = metrics.get_registry()
    values: dict[str, float] = {}
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, metrics.Counter):
            values[name] = metric.value
        elif isinstance(metric, metrics.Histogram):
            values[f"{name}.count"] = metric.count
            values[f"{name}.sum"] = metric.total
    return values


def delta(after: dict, before: dict) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}
