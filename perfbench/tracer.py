"""Outside-in tracer for a replay.

It times the calls into each layer by rebinding, for the length of one
replay, the names through which ``driftstream.pipeline`` calls that layer.
It counts distance computations by rebinding ``haversine_km`` in
``driftstream.corroborate`` and ``cosine_distance`` in ``driftstream.pool``
and ``driftstream.ensemble``. Nothing inside the library changes.

Spans (name, start, end, parent) stay in memory and are written out by the
caller. A span's self time is its duration minus the time its child spans
cover. A name that no longer exists is recorded as an absent layer and
traced as nothing, so a later refactor can rename or remove it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path

ROOT = "replay"

# (module, attribute path, span name); two names may share one span name
SPANS = (
    ("driftstream.pipeline", "Embedder", "core.embedder_init"),
    ("driftstream.pipeline", "load_stream", "pipeline.load_stream"),
    ("driftstream.pipeline", "load_events", "corroborate.load_events"),
    ("driftstream.pipeline", "process_point", "pool.process_point"),
    ("driftstream.pipeline", "form_team", "ensemble.form_team"),
    ("driftstream.pipeline", "team_predict", "ensemble.team_predict"),
    ("driftstream.pipeline", "assign_labels", "corroborate.assign_labels"),
    ("driftstream.pipeline", "Pool.apply_labels", "pool.apply_labels"),
    ("driftstream.pipeline", "evaluate_models", "pool.evaluate_models"),
    ("driftstream.pipeline", "DataWindow", "windows.live_window"),
    ("driftstream.pipeline", "detect_drift", "drift.detect_drift"),
    ("driftstream.pipeline", "on_drift", "pool.on_drift"),
    ("driftstream.pipeline", "save_pool", "pool.save_pool"),
    ("driftstream.pipeline", "_write_jsonl", "pipeline.artifact_write"),
    ("driftstream.pipeline", "write_reports_csv", "pipeline.artifact_write"),
)

# (module, attribute, counter name)
COUNTED = (
    ("driftstream.corroborate", "haversine_km", "corroborate.haversine_calls"),
    ("driftstream.pool", "cosine_distance", "core.cosine_distance_calls"),
    ("driftstream.ensemble", "cosine_distance", "core.cosine_distance_calls"),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path under a module, or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@contextmanager
def rebound(owner, attr: str, replacement):
    """Bind ``owner.attr`` to ``replacement`` for the length of the block."""
    own = attr in vars(owner)
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class Tracer:
    """Spans and counts for one replay."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.absent: list[str] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _timed(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def timed(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if observe is not None:
                try:
                    observe(self, result, args)
                except (AttributeError, TypeError, IndexError, OSError):
                    # the layer exists but its outcome changed shape
                    if f"{name} outcome" not in self.absent:
                        self.absent.append(f"{name} outcome")
            return result

        return timed

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under a root span with every layer name rebound."""
        with ExitStack() as stack:
            for module, path, name in SPANS:
                self._bind(stack, module, path, lambda f, n=name: self._timed(n, f))
            for module, attr, name in COUNTED:
                self._bind(stack, module, attr, lambda f, n=name: self._counted(n, f))
            index = self._begin(ROOT)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

    def _bind(self, stack: ExitStack, module: str, path: str, make) -> None:
        target = _resolve(module, path)
        if target is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr = target
        stack.enter_context(rebound(owner, attr, make(getattr(owner, attr))))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding the time of child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return dict(out)

    def boundary_gaps(self, window_size: int) -> list[float]:
        """Seconds from each window's last routed point to the next window's first."""
        routed = [s for s in self.spans if s[0] == "pool.process_point"]
        return [
            routed[i][1] - routed[i - 1][2]
            for i in range(window_size, len(routed), window_size)
        ]

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "absent": self.absent,
            "counts": dict(self.counts),
            "gauges": self.gauges,
            "self_s": self.self_times(),
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


# What each layer's return value tells us, beyond its timing.

def _routed(tracer: Tracer, outcome, args) -> None:
    tracer.counts["pool.general_memory_hits"] += bool(outcome.general_memory_hit)


def _team(tracer: Tracer, team, args) -> None:
    if team is not None:
        tracer.counts["ensemble.teams"] += 1
        tracer.counts["ensemble.team_members"] += len(team.members)


def _verdict(tracer: Tracer, verdict, args) -> None:
    if verdict is not None:
        tracer.counts["drift.verdicts"] += 1
        tracer.counts["drift.alarms"] += bool(verdict.drifted)


def _drift_response(tracer: Tracer, delta, args) -> None:
    tracer.counts["pool.retrained"] += len(delta.retrained)
    tracer.counts["pool.generated"] += len(delta.generated)
    tracer.gauges["pool.models_final"] = len(args[0].models)


def _checkpoint(tracer: Tracer, _, args) -> None:
    tracer.counts["pool.checkpoint_bytes"] += Path(args[1]).stat().st_size


_OBSERVERS = {
    "pool.process_point": _routed,
    "ensemble.form_team": _team,
    "drift.detect_drift": _verdict,
    "pool.on_drift": _drift_response,
    "pool.save_pool": _checkpoint,
}


def layer_metrics(tracer: Tracer, window_size: int,
                  labels_assigned: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay, as name -> (value, unit).

    ``labels_assigned`` comes from the output check's own observer of
    ``assign_labels`` (check.observe_labels), so the tracer only times it.
    """
    self_s = tracer.self_times()
    c = tracer.counts
    gaps = tracer.boundary_gaps(window_size)
    verdicts = c["drift.verdicts"]
    seconds = {
        "corroborate.assign_labels_s": "corroborate.assign_labels",
        "ensemble.form_team_s": "ensemble.form_team",
        "ensemble.team_predict_s": "ensemble.team_predict",
        "core.embedder_init_s": "core.embedder_init",
        "pool.process_point_s": "pool.process_point",
        "pool.apply_labels_s": "pool.apply_labels",
        "pool.evaluate_models_s": "pool.evaluate_models",
        "pool.on_drift_s": "pool.on_drift",
        "pool.save_pool_s": "pool.save_pool",
        "drift.detect_drift_s": "drift.detect_drift",
        "windows.live_window_s": "windows.live_window",
        "pipeline.load_stream_s": "pipeline.load_stream",
        "pipeline.artifact_write_s": "pipeline.artifact_write",
        "pipeline.other_s": ROOT,
    }
    out = {metric: (self_s.get(span, 0.0), "s") for metric, span in seconds.items()}
    out.update({
        "corroborate.haversine_calls": (c["corroborate.haversine_calls"], "count"),
        "corroborate.labels_assigned": (labels_assigned, "count"),
        "corroborate.haversine_per_label": (
            c["corroborate.haversine_calls"] / max(labels_assigned, 1), "ratio"),
        "ensemble.team_size_mean": (
            c["ensemble.team_members"] / max(c["ensemble.teams"], 1), "count"),
        "core.cosine_distance_calls": (c["core.cosine_distance_calls"], "count"),
        "pool.general_memory_hits": (c["pool.general_memory_hits"], "count"),
        "pool.retrained": (c["pool.retrained"], "count"),
        "pool.generated": (c["pool.generated"], "count"),
        "pool.models_final": (tracer.gauges.get("pool.models_final", 0), "count"),
        "pool.checkpoint_mb": (c["pool.checkpoint_bytes"] / 2**20, "MB"),
        "drift.verdicts": (verdicts, "count"),
        "drift.alarm_rate": (c["drift.alarms"] / verdicts if verdicts else 0.0, "ratio"),
        "pipeline.boundary_s_p50": (statistics.median(gaps) if gaps else 0.0, "s"),
        "pipeline.boundary_s_max": (max(gaps, default=0.0), "s"),
        "pipeline.boundary_samples": (len(gaps), "count"),
    })
    return out
