"""End-to-end orchestration: stream replay, maintenance, and reporting.

Replay runs two paths. The prediction path gives every point its own teamed
classifier, formed for a whole window at once from the pool as the previous
boundary left it, before the window's points are routed, and logs one
decision per point; baseline decisions read the bootstrap pool as restored
from its checkpoint, and the bootstrap window emits none. The maintenance
path fires at window boundaries: model evaluation on the window's
corroborative labels, per-model drift verdicts, then retraining and generation.

Each window is one step: it is predicted, its points get their corroborative
labels, which routing ignores, its points are routed, its boundary runs, and
its decision, baseline, verdict and window-stats rows are appended.
The knowledgebase, event histogram, reports and final checkpoint wait for the
end of the stream, and each knowledgebase row is written as it is formed;
replay first deletes these and the static checkpoint of an earlier run.

Replay draws no random numbers: two replays of the same inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass, fields
from datetime import date
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np

from .core import (
    CONFIG_KEYS,
    ConfigError,
    DataPoint,
    EmbedderConfig,
    InputError,
    check_geo,
    check_label,
    check_ranges,
    check_string,
    check_ts,
    check_unique,
    embed_texts,
    json_line,
    line_fault,
    read_jsonl,
    read_lines,
    setting_types,
)
from .corroborate import DEFAULT_PAD_SECONDS, assign_labels, load_events
from .drift import DEFAULT_KL_THRESHOLD, DEFAULT_BINS, detect_drift
from .ensemble import decision_lines
from .pool import (
    Pool,
    PoolConfig,
    evaluate_models,
    f_score,
    load_pool,
    on_drift,
    route_window,
    save_pool,
)
from .windows import DataWindow, DEFAULT_WINDOW_SIZE


@dataclass(frozen=True)
class PipelineConfig(PoolConfig, EmbedderConfig):
    """Flat run configuration: :class:`EmbedderConfig`'s settings, then
    :class:`PoolConfig`'s, then the run's own; round-trips through the
    key=value file format.

    A setting of another type than its annotation, or out of range, is a
    :class:`ConfigError` at construction, and a config never changes after.
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    kl_threshold: float = DEFAULT_KL_THRESHOLD
    pad_seconds: float = DEFAULT_PAD_SECONDS
    seed: int = 0
    bins: int = DEFAULT_BINS
    stream: str | None = None
    corroborative: str | None = None

    def __post_init__(self):
        check_ranges(self, {
            "window_size": (lambda v: v >= 1, ">= 1"),
            "bins": (lambda v: v >= 2, ">= 2"),
            "kl_threshold": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
            "pad_seconds": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
            **{key: _PATH_RULE for key in ("table_path", "stream", "corroborative")},
        })
        PoolConfig.__post_init__(self)
        EmbedderConfig.__post_init__(self)

    def embedder_config(self) -> EmbedderConfig:
        """The embedding settings, which this config itself holds."""
        return self


_FIELD_OF_KEY = {key: name for name, key in CONFIG_KEYS.items()}
_NONE_TOKEN = "auto"
# A path setting reads back from this format as itself: set, stripped and on one line.
_PATH_RULE = (lambda v: v is None or (v == v.strip() and v not in ("", _NONE_TOKEN)
                                      and "\n" not in v and "\r" not in v),
              f"unset, or a non-empty path other than {_NONE_TOKEN} on one line, unpadded")


def serialize_config(cfg: PipelineConfig) -> str:
    values = {CONFIG_KEYS.get(f.name, f.name): getattr(cfg, f.name) for f in fields(cfg)}
    return "".join(f"{key}={_NONE_TOKEN if v is None else v}\n" for key, v in values.items())


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
        key = _FIELD_OF_KEY.get(name.strip(), name.strip())
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
    (kind, _, _), optional = setting_types(PipelineConfig)[key]
    if raw == _NONE_TOKEN or raw == "":
        if not optional:
            raise ConfigError(f"config line {lineno}: {key} needs a value, got {raw!r}")
        return None
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config line {lineno}: bad value for {key}: {raw!r}") from exc


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

def load_stream(path: str | Path, cfg: EmbedderConfig) -> tuple[list[DataPoint], dict[str, int]]:
    """Parse and embed a stream file, separating ground-truth labels.

    Truth labels never enter the pipeline's points; they come back as a
    separate id-to-label map used only for evaluation. The stream must be
    sorted by timestamp, point ids must be unique strings, and a text, when
    present, must be a string. Every line is checked first; then all texts
    are embedded at once by :func:`embed_texts`, in one pass over a table,
    each point's ``vec`` is a read-only row of that one block, and
    :class:`DataPoint`'s rules refuse a bad point: the block's rows are
    checked for finite values a slice at a time, and a place only where it
    is given. A table's fault is reported before any fault of the stream;
    then the first bad line, a bad point before the other faults of its line.
    """
    rows: list[tuple[int, str, int, object, object]] = []  # lineno, id, ts, lat, lon
    texts: list[str] = []
    truth: dict[str, int] = {}
    first_line: dict[str, int] = {}
    last_ts = None
    fault = None  # the first bad line, raised once the points before it are built
    try:
        for lineno, line in read_lines(path, InputError, "stream"):
            try:
                d = json.loads(line)
                ts, point_id = check_ts(d["ts"]), check_string(d["id"], "id")
                texts.append(check_string(d.get("text", ""), "text"))
                rows.append((lineno, point_id, ts, d.get("lat"), d.get("lon")))
                if d.get("label") is not None:
                    truth[point_id] = check_label(d["label"])
            except (KeyError, ValueError, TypeError, InputError) as exc:
                raise line_fault(path, lineno, "stream", exc) from exc
            if last_ts is not None and ts < last_ts:
                raise InputError(f"{path}:{lineno}: stream not sorted by ts")
            check_unique(first_line, point_id, path, lineno)
            last_ts = ts
    except InputError as exc:
        fault = exc
    vecs = embed_texts(texts, cfg)
    vecs.flags.writeable = False
    bad = _first_nonfinite_row(vecs)
    points = []
    for i, ((lineno, point_id, ts, lat, lon), text, vec) in enumerate(zip(rows, texts, vecs)):
        try:
            if i == bad:  # DataPoint refuses the row, in its own words
                DataPoint(id=point_id, ts=ts, text=text, vec=vec, lat=lat, lon=lon)
            if lat is not None or lon is not None:
                check_geo(lat, lon, f"point {point_id}: ")
        except InputError as exc:
            raise line_fault(path, lineno, "stream", exc) from exc
        points.append(DataPoint.from_checked(point_id, ts, text, vec, lat, lon))
    if fault is not None:
        raise fault
    return points, truth


def _first_nonfinite_row(block: np.ndarray) -> int:
    """Index of the first row of ``block`` holding a non-finite value, or its
    length; 1024 rows are tested at a time, so no n x d temporary is made."""
    for start in range(0, len(block), 1024):
        bad = np.flatnonzero(~np.isfinite(block[start:start + 1024]).all(axis=1))
        if bad.size:
            return start + int(bad[0])
    return len(block)


# ---------------------------------------------------------------------------
# Knowledgebase aggregation
# ---------------------------------------------------------------------------

def _cell_of(point: DataPoint) -> str:
    if point.geo is None:
        return "global"
    return f"{int(math.floor(point.lat))}:{int(math.floor(point.lon))}"


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def aggregate_events(positives: list[tuple[DataPoint, float]]) -> Iterator[tuple[str, int]]:
    """(line, post count) of each knowledgebase row, one per detected event,
    each formed as it is taken.

    An event is the positives of one 1-degree cell and one UTC day. Rows come
    sorted by cell, then day, and give the day as an ISO ``YYYY-MM-DD`` date;
    each group is dropped once its row is yielded. A line is what ``json_line``
    writes of ``{"cell", "date", "points", "first_ts", "last_ts",
    "mean_probability", "centroid_geo"}``, formatted straight from the fields
    with the encoder's own string escaper and the int and float reprs it writes
    numbers with (a mean of finite numbers is a finite float).
    """
    groups: dict[tuple[str, int], list[tuple[DataPoint, float]]] = {}
    for point, prob in positives:
        groups.setdefault((_cell_of(point), point.ts // 86400), []).append((point, prob))
    dates: dict[int, str] = {}  # each day's quoted ISO date, formatted once
    for cell, day in sorted(groups):
        members = groups.pop((cell, day))
        pts = [p for p, _ in members]
        if day not in dates:
            dates[day] = _string(date.fromordinal(_EPOCH_ORDINAL + day).isoformat())
        # _cell_of puts every post without coordinates, and only those, in "global"
        centroid = "null" if cell == "global" else (
            f"[{float.__repr__(sum(p.lat for p in pts) / len(pts))},"
            f"{float.__repr__(sum(p.lon for p in pts) / len(pts))}]")
        ts = [p.ts for p in pts]
        mean = sum(pr for _, pr in members) / len(members)
        yield (f'{{"cell":{_string(cell)},"date":{dates[day]},'
               f'"points":[{",".join([_string(p.id) for p in pts])}],'
               f'"first_ts":{int.__repr__(min(ts))},"last_ts":{int.__repr__(max(ts))},'
               f'"mean_probability":{float.__repr__(mean)},"centroid_geo":{centroid}}}\n',
               len(pts))


# ---------------------------------------------------------------------------
# Window reports
# ---------------------------------------------------------------------------

@dataclass
class WindowReport:
    window: int
    static_f1: float
    adaptive_f1: float
    unlabeled: int
    corroborative: int
    pct_labeled: float
    improvement_pct: float


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
                unlabeled=stats["unlabeled"],
                corroborative=stats["corroborative"],
                pct_labeled=100.0 * stats["corroborative"] / count if count else 0.0,
                improvement_pct=improvement,
            )
        )
    return reports


def write_reports_csv(reports: list[WindowReport], path: str | Path) -> None:
    names = [f.name for f in fields(WindowReport)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(getattr(r, name)) for name in names] for r in reports)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(
    stream_path: str | Path,
    corroborative_path: str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path,
) -> list[WindowReport]:
    """Replay a stream against a corroborative feed, writing all artifacts to
    ``out_dir``; returns the rows written to its reports.csv."""
    # the table is read in one pass as the stream is embedded, never held whole
    points, truth = load_stream(stream_path, cfg)
    events = load_events(corroborative_path)
    # every vec is a row of load_stream's one block: a window's rows are a slice of it
    block = points[0].vec.base if points else None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a replay that fails part-way must leave no end-of-run file of an earlier run
    for name in ("knowledgebase.jsonl", "reports.csv", "events_histogram.json",
                 "static_pool.json", "final_pool.json"):
        (out / name).unlink(missing_ok=True)
    pool = Pool(general_capacity=cfg.window_size)
    bootstrap = None  # the models of the pool after window 0, read back from its checkpoint
    positives: list[tuple[DataPoint, float]] = []
    report_rows: list[WindowReport] = []

    with ExitStack() as stack:
        files = {name: stack.enter_context(open(out / f"{name}.jsonl", "w", encoding="utf-8"))
                 for name in ("decisions", "baseline_decisions", "verdicts", "window_stats")}
        for start in range(0, len(points), cfg.window_size):
            window = points[start:start + cfg.window_size]
            index = start // cfg.window_size
            ids = [p.id for p in window]
            # the pool as the previous boundary left it predicts the window before routing
            decided: dict[str, tuple[list[str], list[float | None]]] = {}  # file -> (lines, p)
            if index > 0:
                X = block[start:start + len(window)]
                for name, models in (("decisions", pool.models), ("baseline_decisions", bootstrap)):
                    decided[name] = decision_lines(ids, models, X, cfg.k)

            # each label goes on its point once, before routing, which reads no label
            assignments = assign_labels(window, events, cfg.pad_seconds)
            label_map = {a.point_id: a.label for a in assignments}
            window = [p.with_label(label_map[p.id]) if p.id in label_map else p for p in window]
            route_window(pool, window, cfg)
            labeled = [p for p in window if p.label is not None]
            if pool.models and labeled:
                evaluate_models(pool, labeled, index)

            live = DataWindow(window, capacity=cfg.window_size, window_id=f"w{index:04d}")
            verdicts = {}
            for model in pool.models:
                verdict = detect_drift(model.memory, live, cfg.delta, cfg.kl_threshold, cfg.bins)
                if verdict is not None:
                    verdicts[model.id] = verdict
            on_drift(pool, verdicts, cfg, index)

            if index == 0:
                save_pool(pool, out / "static_pool.json")
                bootstrap = load_pool(out / "static_pool.json").models

            stats = {
                "window": index,
                "count": len(window),
                "corroborative": len(assignments),
                "unlabeled": len(window) - len(assignments),
                "first_ts": window[0].ts,
                "last_ts": window[-1].ts,
                "point_ids": ids,
            }
            for name, (lines, _) in decided.items():
                files[name].writelines(lines)
            _write_jsonl(files["verdicts"], map(vars, verdicts.values()))
            _write_jsonl(files["window_stats"], [stats])
            if index > 0:
                # a row's label is int(p >= 0.5) by construction
                adaptive, static = ({pid: int(pr >= 0.5) for pid, pr in zip(ids, decided[name][1])
                                     if pr is not None} for name in ("decisions", "baseline_decisions"))
                positives += [(p, pr) for p, pr in zip(window, decided["decisions"][1])
                              if adaptive.get(p.id)]
                report_rows += build_reports([stats], adaptive, static, truth)

    histogram: Counter = Counter()  # number of events keyed by their post count
    with open(out / "knowledgebase.jsonl", "w", encoding="utf-8") as fh:
        for line, size in aggregate_events(positives):
            histogram[size] += 1
            fh.write(line)
    (out / "events_histogram.json").write_text(
        json_line({str(k): histogram[k] for k in sorted(histogram)}), encoding="utf-8")
    write_reports_csv(report_rows, out / "reports.csv")
    save_pool(pool, out / "final_pool.json")
    return report_rows


def _write_jsonl(fh, rows) -> None:
    """Append ``rows`` to the open text file ``fh``, one compact JSON object a line."""
    for row in rows:
        fh.write(json_line(row))


def evaluate_windows(run_dir: str | Path, truth_path: str | Path) -> list[WindowReport]:
    """Rebuild window reports from replay artifacts plus a ground-truth file.

    The truth file is a stream JSONL whose points carry labels (the synthetic
    generator's output qualifies). Writes reports.csv into the run directory
    and returns the rows. A line of any of these files that is not JSON, lacks
    a needed key or holds a bad value fails with the file and line.
    """
    run = Path(run_dir)
    stats_path = run / "window_stats.jsonl"
    window_stats = []
    first_line: dict[int | str, int] = {}  # window index or point id -> its first line
    for lineno, row in read_jsonl(stats_path, "window stats", _stats_row):
        for key in (row["window"], *row["point_ids"]):
            check_unique(first_line, key, stats_path, lineno)
        window_stats.append(row)
    adaptive_pred = _labels_from(run / "decisions.jsonl", "decision", _decision_row)
    static_pred = _labels_from(run / "baseline_decisions.jsonl", "decision", _decision_row)
    truth = _labels_from(Path(truth_path), "truth", _truth_row)
    reports = build_reports(window_stats, adaptive_pred, static_pred, truth)
    write_reports_csv(reports, run / "reports.csv")
    return reports


def _stats_row(d: dict) -> dict:
    """A window-stats row as replay writes it: its point ids are distinct strings,
    and its corroborative and unlabeled counts are >= 0 and add up to their number."""
    for key in ("window", "corroborative", "unlabeled"):
        if type(d[key]) is not int:
            raise ValueError(f"{key} {d[key]!r} is not an integer")
    ids = d["point_ids"]
    if type(ids) is not list:
        raise ValueError("point_ids is not a list")
    for pid in ids:
        check_string(pid, "point id")
    repeated = [pid for pid, n in Counter(ids).items() if n > 1]
    if repeated:
        raise ValueError(f"point id {repeated[0]!r} is listed twice")
    counts = d["corroborative"], d["unlabeled"]
    if min(counts) < 0 or sum(counts) != len(ids):
        raise ValueError(f"corroborative {counts[0]} and unlabeled {counts[1]} do not "
                         f"split {len(ids)} points")
    return d


def _truth_row(d: dict) -> tuple[str, int | None]:
    return check_string(d["id"], "id"), None if d.get("label") is None else check_label(d["label"])


def _decision_row(d: dict) -> tuple[str, int | None]:
    label = d["label"]
    return check_string(d["point_id"], "point_id"), None if label is None else check_label(label)


def _labels_from(path: Path, what: str, row) -> dict[str, int]:
    """Id-to-label map of the rows of ``path`` whose label is not null; an id
    on two lines is an :class:`InputError` naming both."""
    labels: dict[str, int] = {}
    first_line: dict[str, int] = {}
    for lineno, (pid, label) in read_jsonl(path, what, row):
        check_unique(first_line, pid, path, lineno)
        if label is not None:
            labels[pid] = label
    return labels
