"""Output check for the artifacts of one replay.

Rules, each of which a corrupted or wrong artifact breaks:

- ``decisions.jsonl`` and ``baseline_decisions.jsonl`` hold one row per point
  after window 0, in stream order;
- every decided row has ``p`` in [0, 1] and ``label == int(p >= 0.5)``; an
  undecided row has neither;
- every point an event is centred on receives a corroborative label, and
  ``window_stats.jsonl`` reports as many labels per window as labeling made;
- ``reports.csv`` has one row per window after window 0, with F1 in [0, 1].

The labeled point ids come from observing ``driftstream.pipeline.assign_labels``
during the replay. Where that name no longer exists, or its result changed
shape, the rule falls back to requiring, per window, at least as many
reported labels as event centres.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from tracer import rebound
from workloads import Inputs

HASHED = ("decisions.jsonl", "verdicts.jsonl")


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    undecided: int = 0  # points after window 0 without a decision
    adaptive_f1: float = math.nan
    static_f1: float = math.nan
    sha256: dict[str, str] = field(default_factory=dict)


class LabelLog:
    """Ids of the points labeled during one replay; None if not observable."""

    def __init__(self):
        self.ids: list[str] | None = []


@contextmanager
def observe_labels():
    """Record the points that replay's labeling step labels, into a LabelLog."""
    import driftstream.pipeline as pipeline

    log = LabelLog()
    labeler = getattr(pipeline, "assign_labels", None)
    if labeler is None:
        log.ids = None
        yield log
        return

    def observed(*args, **kwargs):
        assignments = labeler(*args, **kwargs)
        if log.ids is not None:
            try:
                log.ids.extend([a.point_id for a in assignments])
            except (AttributeError, TypeError):
                log.ids = None  # the labeler's result changed shape
        return assignments

    with rebound(pipeline, "assign_labels", observed):
        yield log


def check_replay(run_dir: Path, inputs: Inputs, labeled_ids: list[str] | None) -> Outcome:
    out = Outcome()
    try:
        _check(run_dir, inputs, labeled_ids, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.errors.append(f"unreadable artifact: {exc!r}")
    return out


def _check(run_dir: Path, inputs: Inputs, labeled_ids: list[str] | None, out: Outcome) -> None:
    expected = inputs.point_ids[inputs.window_size:]
    for name in ("decisions.jsonl", "baseline_decisions.jsonl"):
        rows = _jsonl(run_dir / name)
        if [r["point_id"] for r in rows] != expected:
            out.errors.append(
                f"{name}: {len(rows)} rows, expected one per point after window 0 "
                f"({len(expected)}) in stream order"
            )
        for r in rows:
            p, label = r["p"], r["label"]
            if p is None and label is None:
                out.undecided += name == "decisions.jsonl"
            elif p is None or not 0.0 <= p <= 1.0 or label != int(p >= 0.5):
                out.errors.append(f"{name}: point {r['point_id']} has p={p!r}, label={label!r}")
                break

    stats = _jsonl(run_dir / "window_stats.jsonl")
    if len(stats) != inputs.n_windows:
        out.errors.append(f"window_stats.jsonl: {len(stats)} rows, expected {inputs.n_windows}")
    labeled = None if labeled_ids is None else set(labeled_ids)
    ws = inputs.window_size
    for row, centres in zip(stats, inputs.centres):
        w, reported = row["window"], row["corroborative"]
        if labeled is None:
            if reported < len(centres):
                out.errors.append(
                    f"window {w}: {reported} labels for {len(centres)} event centres")
            continue
        missed = sorted(centres - labeled)
        if missed:
            out.errors.append(
                f"window {w}: {len(missed)} event centres unlabeled, first {missed[0]}")
        made = sum(pid in labeled for pid in inputs.point_ids[w * ws:(w + 1) * ws])
        if reported != made:
            out.errors.append(f"window {w}: window_stats reports {reported} labels, labeling made {made}")

    with open(run_dir / "reports.csv", encoding="utf-8", newline="") as fh:
        reports = list(csv.DictReader(fh))
    if len(reports) != inputs.n_windows - 1:
        out.errors.append(f"reports.csv: {len(reports)} rows, expected {inputs.n_windows - 1}")
    f1 = {}
    for key in ("adaptive_f1", "static_f1"):
        values = [float(r[key]) for r in reports]
        if not values or not all(0.0 <= v <= 1.0 for v in values):
            out.errors.append(f"reports.csv: {key} values {values} not all in [0, 1]")
            continue
        f1[key] = sum(values) / len(values)
    out.adaptive_f1 = f1.get("adaptive_f1", math.nan)
    out.static_f1 = f1.get("static_f1", math.nan)

    for name in HASHED:
        out.sha256[name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
