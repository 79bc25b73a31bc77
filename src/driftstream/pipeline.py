"""End-to-end orchestration: stream replay, maintenance, and reporting.

Replay runs two paths. The prediction path gives every point its own teamed
classifier, formed for a whole window at once from an immutable pool
snapshot, and logs one decision per point; the maintenance path fires at
window boundaries: retroactive corroborative labeling, model evaluation,
per-model drift verdicts, then retraining and generation. Predictions for a
window always use the snapshot taken at the previous boundary, so the
bootstrap window emits no predictions at all.

Everything is deterministic given the input files and the seed; two replays
of the same inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DataPoint,
    Embedder,
    EmbedderConfig,
    InputError,
    SOURCE_CORROBORATIVE,
    check_label,
    check_string,
    check_ts,
    read_lines,
)
from .corroborate import assign_labels, load_events
from .drift import DEFAULT_KL_THRESHOLD, DEFAULT_BINS, detect_drift
from .ensemble import predict_window
from .pool import (
    Pool,
    PoolConfig,
    evaluate_models,
    f_score,
    on_drift,
    process_point,
    save_pool,
)
from .windows import DataWindow, DEFAULT_DELTA, DEFAULT_WINDOW_SIZE


# What each numeric setting must satisfy, as (test, rule); NaN fails every test.
_RANGES = {
    "window_size": (lambda v: v >= 1, ">= 1"),
    "k": (lambda v: v >= 1, ">= 1"),
    "delta": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "bins": (lambda v: v >= 2, ">= 2"),
    "epochs": (lambda v: v >= 0, ">= 0"),
    "min_train": (lambda v: v >= 1, ">= 1"),
    "learn_rate": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "kl_threshold": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "pad_seconds": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "lam": (lambda v: v is None or 0.0 <= v <= 1.0, "auto or in [0, 1]"),
}


@dataclass
class PipelineConfig:
    """Flat run configuration; round-trips through the key=value file format.

    Numeric settings outside the ranges the pipeline works in are a
    :class:`ConfigError` at construction.
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    delta: float = DEFAULT_DELTA
    kl_threshold: float = DEFAULT_KL_THRESHOLD
    k: int = 5
    lam: float | None = None
    pad_seconds: float = 86400.0
    dim: int = 300
    embed_mode: str = "feature_hash"
    table_path: str | None = None
    hash_seed: int = 0
    seed: int = 0
    min_train: int = 50
    learn_rate: float = 0.1
    epochs: int = 20
    bins: int = DEFAULT_BINS
    stream: str | None = None
    corroborative: str | None = None
    knowledgebase: str | None = None
    reports: str | None = None

    def __post_init__(self):
        for key, (ok, rule) in _RANGES.items():
            value = getattr(self, key)
            if not ok(value):
                name = "lambda" if key == "lam" else key
                raise ConfigError(f"{name}={value} out of range: must be {rule}")
        self.embedder_config()  # refuses a bad dim or embed_mode here, not at replay

    def embedder_config(self) -> EmbedderConfig:
        return EmbedderConfig(
            dim=self.dim, mode=self.embed_mode,
            table_path=self.table_path, hash_seed=self.hash_seed,
        )

    def pool_config(self) -> PoolConfig:
        return PoolConfig(
            lam=self.lam, delta=self.delta, k=self.k, min_train=self.min_train,
            learn_rate=self.learn_rate, epochs=self.epochs,
        )


_CONFIG_KEY_ALIASES = {"lambda": "lam"}
_NONE_TOKEN = "auto"
_INT_KEYS = {"window_size", "k", "dim", "hash_seed", "seed", "min_train", "epochs", "bins"}
_FLOAT_KEYS = {"delta", "kl_threshold", "lam", "pad_seconds", "learn_rate"}
_OPTIONAL_KEYS = {f.name for f in fields(PipelineConfig) if f.default is None}


def serialize_config(cfg: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        key = "lambda" if f.name == "lam" else f.name
        value = getattr(cfg, f.name)
        lines.append(f"{key}={_NONE_TOKEN if value is None else value}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PipelineConfig:
    """Parse the flat key=value format; unknown and repeated keys are configuration errors."""
    # universal newlines end lines where read_lines does
    return _config_from(enumerate(io.StringIO(text, newline=None), 1))


def _config_from(lines) -> PipelineConfig:
    known = {f.name for f in fields(PipelineConfig)}
    values, repeats = {}, []
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        name, _, raw = line.partition("=")
        key = _CONFIG_KEY_ALIASES.get(name.strip(), name.strip())
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            repeats.append(f"config line {lineno}: duplicate key {name.strip()!r}, "
                           f"first on line {values[key][0]}")
        values[key] = (lineno, _parse_value(key, raw.strip(), lineno))
    # a value out of range is named before a repeated key
    cfg = PipelineConfig(**{key: value for key, (_, value) in values.items()})
    if repeats:
        raise ConfigError(repeats[0])
    return cfg


def _parse_value(key: str, raw: str, lineno: int):
    if raw == _NONE_TOKEN or raw == "":
        if key not in _OPTIONAL_KEYS:
            raise ConfigError(f"config line {lineno}: {key} needs a value, got {raw!r}")
        return None
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config line {lineno}: bad value for {key}: {raw!r}") from exc
    return raw


def load_config(path: str | Path) -> PipelineConfig:
    lines = list(read_lines(path, ConfigError, "config"))
    try:
        return _config_from(lines)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg), encoding="utf-8")


# ---------------------------------------------------------------------------
# Stream input
# ---------------------------------------------------------------------------

def load_stream(path: str | Path, embedder: Embedder) -> tuple[list[DataPoint], dict[str, int]]:
    """Parse and embed a stream file, separating ground-truth labels.

    Truth labels never enter the pipeline's points; they come back as a
    separate id-to-label map used only for evaluation. The stream must be
    sorted by timestamp, point ids must be unique strings, and a text, when
    present, must be a string.
    """
    points: list[DataPoint] = []
    truth: dict[str, int] = {}
    first_line: dict[str, int] = {}
    last_ts = None
    for lineno, line in read_lines(path, InputError, "stream"):
        try:
            d = json.loads(line)
            ts, point_id = check_ts(d["ts"]), check_string(d["id"], "id")
            post_text = check_string(d.get("text", ""), "text")
            point = DataPoint(
                id=point_id, ts=ts, text=post_text, lat=d.get("lat"), lon=d.get("lon"),
                vec=embedder.embed(post_text),
            )
            if d.get("label") is not None:
                truth[point.id] = check_label(d["label"])
        except (KeyError, ValueError, TypeError, InputError) as exc:
            raise InputError(f"{path}:{lineno}: malformed stream line: {exc}") from exc
        if last_ts is not None and point.ts < last_ts:
            raise InputError(f"{path}:{lineno}: stream not sorted by ts")
        first = first_line.setdefault(point.id, lineno)
        if first != lineno:
            raise InputError(f"{path}:{lineno}: duplicate id {point.id!r}, first on line {first}")
        last_ts = point.ts
        points.append(point)
    return points, truth


# ---------------------------------------------------------------------------
# Knowledgebase aggregation
# ---------------------------------------------------------------------------

@dataclass
class DetectedEvent:
    """Positively classified points grouped by one-degree cell and UTC day."""

    cell_id: str
    date: str
    point_ids: list[str]
    first_ts: int
    last_ts: int
    mean_probability: float
    centroid_geo: tuple[float, float] | None

    def record(self) -> dict:
        return {
            "cell": self.cell_id, "date": self.date, "points": self.point_ids,
            "first_ts": self.first_ts, "last_ts": self.last_ts,
            "mean_probability": self.mean_probability,
            "centroid_geo": list(self.centroid_geo) if self.centroid_geo else None,
        }


def _cell_of(point: DataPoint) -> str:
    if point.geo is None:
        return "global"
    return f"{int(math.floor(point.lat))}:{int(math.floor(point.lon))}"


def _date_of(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


def aggregate_events(positives: list[tuple[DataPoint, float]]) -> tuple[list[DetectedEvent], dict[int, int]]:
    """Group positive predictions into detected events plus a posts-per-event
    histogram (number of events keyed by their post count)."""
    groups: dict[tuple[str, str], list[tuple[DataPoint, float]]] = {}
    for point, prob in positives:
        groups.setdefault((_cell_of(point), _date_of(point.ts)), []).append((point, prob))
    events = []
    for (cell, date) in sorted(groups):
        members = groups[(cell, date)]
        pts = [p for p, _ in members]
        geo_pts = [p for p in pts if p.geo is not None]
        centroid = None
        if geo_pts:
            centroid = (
                sum(p.lat for p in geo_pts) / len(geo_pts),
                sum(p.lon for p in geo_pts) / len(geo_pts),
            )
        events.append(
            DetectedEvent(
                cell_id=cell, date=date, point_ids=[p.id for p in pts],
                first_ts=min(p.ts for p in pts), last_ts=max(p.ts for p in pts),
                mean_probability=sum(pr for _, pr in members) / len(members),
                centroid_geo=centroid,
            )
        )
    return events, dict(Counter(len(e.point_ids) for e in events))


# ---------------------------------------------------------------------------
# Window reports
# ---------------------------------------------------------------------------

@dataclass
class WindowReport:
    window: int
    static_f1: float
    adaptive_f1: float
    unlabeled_count: int
    corroborative_count: int
    pct_labeled: float
    improvement_pct: float

    @staticmethod
    def csv_header() -> list[str]:
        return [
            "window", "static_f1", "adaptive_f1", "unlabeled",
            "corroborative", "pct_labeled", "improvement_pct",
        ]

    def csv_row(self) -> list[str]:
        return [repr(getattr(self, f.name)) for f in fields(self)]


def _window_f1(point_ids: list[str], predictions: dict[str, int], truth: dict[str, int]) -> float:
    scored = [(truth[pid], predictions.get(pid, 0)) for pid in point_ids if pid in truth]
    if not scored:
        return float("nan")
    y_true = [t for t, _ in scored]
    y_pred = [p for _, p in scored]
    return f_score(y_true, y_pred)


def build_reports(
    window_stats: list[dict],
    adaptive_pred: dict[str, int],
    static_pred: dict[str, int],
    truth: dict[str, int],
) -> list[WindowReport]:
    """Per-window f-scores of the frozen and the live pool plus label stats.

    The bootstrap window (index 0) emits no predictions and gets no report.
    Unclassified points count as predicted irrelevant.
    """
    reports = []
    for stats in window_stats:
        if stats["window"] == 0:
            continue
        static_f1 = _window_f1(stats["point_ids"], static_pred, truth)
        adaptive_f1 = _window_f1(stats["point_ids"], adaptive_pred, truth)
        improvement = (
            100.0 * adaptive_f1 / static_f1
            if static_f1 and static_f1 > 0.0 else float("nan")
        )
        count = stats["corroborative"] + stats["unlabeled"]
        reports.append(
            WindowReport(
                window=stats["window"],
                static_f1=static_f1,
                adaptive_f1=adaptive_f1,
                unlabeled_count=stats["unlabeled"],
                corroborative_count=stats["corroborative"],
                pct_labeled=100.0 * stats["corroborative"] / count if count else 0.0,
                improvement_pct=improvement,
            )
        )
    return reports


def write_reports_csv(reports: list[WindowReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WindowReport.csv_header())
        for r in reports:
            writer.writerow(r.csv_row())


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    knowledgebase: Path
    reports: Path
    decisions: Path
    baseline_decisions: Path
    verdicts: Path
    static_pool: Path
    window_stats: Path
    events_histogram: Path
    report_rows: list[WindowReport]


def _predict_window(snapshot, window_points, X, cfg: PipelineConfig):
    """Team predictions for one window (vector matrix ``X``) against a fixed snapshot."""
    rows = []
    predictions: dict[str, int] = {}
    positives = []
    for point, decision in zip(window_points, predict_window(snapshot, X, cfg.k)):
        rows.append({"point_id": point.id, **decision})
        label = decision["label"]
        if label is None:
            continue
        predictions[point.id] = label
        if label == 1:
            positives.append((point, decision["p"]))
    return rows, predictions, positives


def replay(
    stream_path: str | Path,
    corroborative_path: str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path | None = None,
) -> ReplayResult:
    """Replay a stream against a corroborative feed, producing all artifacts."""
    if out_dir is not None:
        out = Path(out_dir)
        kb_path = out / "knowledgebase.jsonl"
        reports_path = out / "reports.csv"
    elif cfg.knowledgebase and cfg.reports:
        kb_path = Path(cfg.knowledgebase)
        reports_path = Path(cfg.reports)
        out = kb_path.parent
    else:
        raise ConfigError("no output directory: pass out_dir or set knowledgebase/reports paths")
    out.mkdir(parents=True, exist_ok=True)

    embedder = Embedder(cfg.embedder_config())
    points, truth = load_stream(stream_path, embedder)
    events = load_events(corroborative_path)

    pool = Pool(general_capacity=cfg.window_size)
    pool_cfg = cfg.pool_config()
    snapshot = []
    static_snapshot = None

    decision_rows: list[dict] = []
    baseline_rows: list[dict] = []
    verdict_rows: list[dict] = []
    window_stats: list[dict] = []
    adaptive_pred: dict[str, int] = {}
    static_pred: dict[str, int] = {}
    positives: list[tuple[DataPoint, float]] = []

    static_pool_path = out / "static_pool.json"
    window_points: list[DataPoint] = []
    window_index = 0

    for idx, point in enumerate(points):
        window_points.append(point)
        process_point(pool, point, pool_cfg)
        if len(window_points) == cfg.window_size or idx == len(points) - 1:
            # predictions for this window use the snapshot from the previous
            # boundary; the bootstrap window has none and emits nothing
            if window_index > 0:
                X = np.vstack([p.vec for p in window_points])
                rows, preds, pos = _predict_window(snapshot, window_points, X, cfg)
                decision_rows.extend(rows)
                adaptive_pred.update(preds)
                positives.extend(pos)
                srows, spreds, _ = _predict_window(static_snapshot, window_points, X, cfg)
                baseline_rows.extend(srows)
                static_pred.update(spreds)

            assignments = assign_labels(window_points, events, cfg.pad_seconds)
            label_map = {a.point_id: (a.label, SOURCE_CORROBORATIVE) for a in assignments}
            pool.apply_labels(label_map)
            labeled = [
                p.with_label(*label_map[p.id]) for p in window_points if p.id in label_map
            ]
            if pool.models and labeled:
                evaluate_models(pool, labeled, window_index)

            live = DataWindow(window_points, capacity=cfg.window_size,
                              window_id=f"w{window_index:04d}")
            verdicts = {}
            for model in pool.models:
                verdict = detect_drift(
                    model.memory, live, cfg.delta, cfg.kl_threshold, cfg.bins,
                    since_rollover=len(live),
                )
                if verdict is not None:
                    verdicts[model.id] = verdict
                    verdict_rows.append(verdict.record(ts=window_points[-1].ts))
            on_drift(pool, verdicts, pool_cfg, window_index)

            if window_index == 0:
                static_snapshot = pool.snapshot()
                save_pool(pool, static_pool_path)
            snapshot = pool.snapshot()

            window_stats.append({
                "window": window_index,
                "count": len(window_points),
                "corroborative": len(assignments),
                "unlabeled": len(window_points) - len(assignments),
                "first_ts": window_points[0].ts,
                "last_ts": window_points[-1].ts,
                "point_ids": [p.id for p in window_points],
            })
            window_points = []
            window_index += 1

    detected, histogram = aggregate_events(positives)
    _write_jsonl(kb_path, (e.record() for e in detected))
    (out / "events_histogram.json").write_text(
        json.dumps({str(k): histogram[k] for k in sorted(histogram)}, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    _write_jsonl(out / "decisions.jsonl", decision_rows)
    _write_jsonl(out / "baseline_decisions.jsonl", baseline_rows)
    _write_jsonl(out / "verdicts.jsonl", verdict_rows)
    _write_jsonl(out / "window_stats.jsonl", window_stats)

    report_rows = build_reports(window_stats, adaptive_pred, static_pred, truth)
    write_reports_csv(report_rows, reports_path)
    save_pool(pool, out / "final_pool.json")

    return ReplayResult(
        knowledgebase=kb_path, reports=reports_path,
        decisions=out / "decisions.jsonl",
        baseline_decisions=out / "baseline_decisions.jsonl",
        verdicts=out / "verdicts.jsonl", static_pool=static_pool_path,
        window_stats=out / "window_stats.jsonl",
        events_histogram=out / "events_histogram.json",
        report_rows=report_rows,
    )


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def evaluate_windows(run_dir: str | Path, truth_path: str | Path) -> list[WindowReport]:
    """Rebuild window reports from replay artifacts plus a ground-truth file.

    The truth file is a stream JSONL whose points carry labels (the synthetic
    generator's output qualifies). Writes reports.csv into the run directory
    and returns the rows. A line of any of these files that is not JSON, lacks
    a needed key or holds a bad value fails with the file and line.
    """
    run = Path(run_dir)
    window_stats = _read_jsonl(run / "window_stats.jsonl", "window stats", _stats_row)
    adaptive_pred = _labels_from(run / "decisions.jsonl", "decision", _decision_row)
    static_pred = _labels_from(run / "baseline_decisions.jsonl", "decision", _decision_row)
    truth = _labels_from(Path(truth_path), "truth", _truth_row)
    reports = build_reports(window_stats, adaptive_pred, static_pred, truth)
    write_reports_csv(reports, run / "reports.csv")
    return reports


def _read_jsonl(path: Path, what: str, parse) -> list:
    """``parse`` applied to the JSON of each non-blank line of ``path``."""
    rows = []
    for lineno, line in read_lines(path, InputError, f"{what} file"):
        try:
            rows.append(parse(json.loads(line)))
        except (KeyError, ValueError, TypeError, InputError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise InputError(f"{path}:{lineno}: malformed {what} line: {detail}") from exc
    return rows


def _stats_row(d: dict) -> dict:
    for key in ("window", "corroborative", "unlabeled"):
        if type(d[key]) is not int:
            raise ValueError(f"{key} {d[key]!r} is not an integer")
    if type(d["point_ids"]) is not list:
        raise ValueError("point_ids is not a list")
    return d


def _truth_row(d: dict) -> tuple[str, int | None]:
    return check_string(d["id"], "id"), None if d.get("label") is None else check_label(d["label"])


def _decision_row(d: dict) -> tuple[str, int | None]:
    label = d["label"]
    return check_string(d["point_id"], "point_id"), None if label is None else check_label(label)


def _labels_from(path: Path, what: str, row) -> dict[str, int]:
    """Id-to-label map of the rows of ``path`` whose label is not null."""
    return {pid: label for pid, label in _read_jsonl(path, what, row) if label is not None}
