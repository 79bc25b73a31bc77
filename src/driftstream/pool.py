"""The classifier pool: model records with data memories and their upkeep.

Each model couples a logistic classifier with the window of points it was
built from, the dense distance band of that window, and a performance score
omega. Every memory, a model's or the general memory of points that fit no
model, is a :class:`DataWindow`. Routing only files points into memories,
reads no label and never changes weights; in a replay a window's points carry
their corroborative labels before they are routed. Learning happens only at
window boundaries: drift verdicts refit drifted models, and the labeled
general memory seeds new models.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    DataPoint, InputError, _cosine, centroid_cosine_distances, check_int, check_ranges,
    check_string, check_ts, is_number, json_line, stack_vectors, vector_norm,
)
from .windows import (
    DEFAULT_DELTA,
    DEFAULT_WINDOW_SIZE,
    INSIDE,
    OUTSIDE,
    DataWindow,
    DeltaBand,
    centroid_distances,
    empirical_delta_band,
    in_band,
    membership,
)

log = logging.getLogger(__name__)

GENERAL_ID = "general"  # window id of the general memory
LAMBDA_MARGIN = 0.05  # generalization band width beyond the delta band


class PoolError(Exception):
    """Training preconditions not met; caller should defer."""


@dataclass(frozen=True)
class PoolConfig:
    """Knobs for routing, training, and team selection, type- and range-checked at construction."""

    lam: float | None = None  # None: per model, band.hi + LAMBDA_MARGIN capped at 1
    delta: float = DEFAULT_DELTA
    k: int = 5
    min_train: int = 50
    learn_rate: float = 0.1
    epochs: int = 20

    def __post_init__(self):
        check_ranges(self, {
            "k": (lambda v: v >= 1, ">= 1"),
            "delta": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            "epochs": (lambda v: v >= 0, ">= 0"),
            "min_train": (lambda v: v >= 1, ">= 1"),
            "learn_rate": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
            "lam": (lambda v: v is None or 0.0 <= v <= 1.0, "auto or in [0, 1]"),
        })

    def effective_lambda(self, band: DeltaBand) -> float:
        if self.lam is None:
            return min(band.hi + LAMBDA_MARGIN, 1.0)
        # a configured lambda below a band's hi is clamped up per model
        return min(max(self.lam, band.hi), 1.0)


@dataclass
class ModelRecord:
    """A classifier plus the memory window and band that define its region."""

    id: str
    weights: np.ndarray  # length d+1, bias last
    memory: DataWindow
    band: DeltaBand
    omega: float
    created_at: int
    last_evaluated: int

    def __post_init__(self):
        if not (is_number(self.omega) and 0.0 <= self.omega <= 1.0):
            raise InputError(f"omega {self.omega!r} outside [0, 1]")

    @property
    def centroid(self) -> np.ndarray:
        return self.memory.centroid


class Pool:
    """Mutable pool of model records plus the general memory. Single writer."""

    def __init__(self, general_capacity: int = DEFAULT_WINDOW_SIZE):
        self.models: list[ModelRecord] = []
        self.general = DataWindow(capacity=general_capacity, window_id=GENERAL_ID)
        self._next_model = 0  # number of the last generated model id


@dataclass(frozen=True)
class PoolDelta:
    retrained: tuple[str, ...]
    generated: tuple[str, ...]


def f_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall at the 0.5 threshold.

    All-correct with no positives anywhere counts as 1.0; any missed or
    spurious positive with zero true positives counts as 0.0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def _design_matrix(points: list[DataPoint]) -> tuple[np.ndarray, np.ndarray]:
    x = np.hstack([stack_vectors([p.vec for p in points]), np.ones((len(points), 1))])  # bias
    y = np.array([p.label for p in points], dtype=np.float64)
    return x, y


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_loss_and_grad(
    weights: np.ndarray, x: np.ndarray, y: np.ndarray, sample_weight=None
):
    """Mean negative log-likelihood of the logistic model and its gradient."""
    w = np.ones_like(y) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    p, grad = _logistic_grad(weights, x, y, w)
    loss = float(-np.sum(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))) / w.sum())
    return loss, grad


def _logistic_grad(weights, x, y, w) -> tuple[np.ndarray, np.ndarray]:
    """(p, gradient): the clipped probabilities and the gradient of the
    ``w``-weighted mean negative log-likelihood, the gradient the fit steps by."""
    p = np.clip(sigmoid(x @ weights), 1e-12, 1.0 - 1e-12)
    return p, x.T @ (w * (p - y)) / w.sum()


def _balanced_weights(y: np.ndarray) -> np.ndarray:
    # corroborative labels arrive with arbitrary class skew; weighting each
    # class to equal mass keeps the bias from chasing the label supply
    pos = float(np.sum(y == 1))
    neg = float(len(y) - pos)
    return np.where(y == 1, 0.5 * len(y) / pos, 0.5 * len(y) / neg)


def _fit_logistic(x, y, cfg: PoolConfig, init: np.ndarray | None) -> np.ndarray:
    w = np.zeros(x.shape[1]) if init is None else init.astype(np.float64).copy()
    sample_weight = _balanced_weights(y)
    for _ in range(cfg.epochs):
        _, grad = _logistic_grad(w, x, y, sample_weight)
        w -= cfg.learn_rate * grad
    return w


def score_columns(models: list[ModelRecord], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dist, probs) with one column per model: the cosine distance of each row
    of ``X`` to model j's memory centroid, and model j's probability
    sigmoid(w.x + b) of the row, kept strictly inside (0, 1)."""
    dist = np.empty((len(X), len(models)))
    logits = np.empty((len(X), len(models)))
    # one column per model, so that bit-equal centroids give bit-equal columns
    # (a single X @ C.T may round one column differently and break a tie)
    for j, m in enumerate(models):
        dist[:, j] = centroid_cosine_distances(X, m.centroid)
        logits[:, j] = X @ m.weights[:-1] + m.weights[-1]
    return dist, np.clip(sigmoid(logits), 1e-15, 1.0 - 1e-15)


def train_classifier(
    data: list[DataPoint],
    cfg: PoolConfig,
    model_id: str = "m0001",
    created_at: int = 0,
    memory_capacity: int = DEFAULT_WINDOW_SIZE,
) -> ModelRecord:
    """Fit a logistic model by full-batch gradient descent.

    Weights are learned on the labeled subset; all passed points form the
    memory window whose distance band defines the model's region. Omega starts
    as the f-score on the training labels.
    """
    labeled = [p for p in data if p.label is not None]
    classes = {p.label for p in labeled}
    if len(labeled) < cfg.min_train:
        raise PoolError(
            f"need at least {cfg.min_train} labeled points, got {len(labeled)}; defer generation"
        )
    if classes != {0, 1}:
        raise PoolError("single-class training data; defer generation")
    x, y = _design_matrix(labeled)
    weights = _fit_logistic(x, y, cfg, None)
    memory = DataWindow(data, capacity=max(memory_capacity, len(data)), window_id=model_id)
    band = empirical_delta_band(centroid_distances(memory), cfg.delta)
    preds = (sigmoid(x @ weights) >= 0.5).astype(int)
    omega = f_score(y.astype(int), preds)
    return ModelRecord(
        id=model_id, weights=weights, memory=memory, band=band,
        omega=omega, created_at=created_at, last_evaluated=created_at,
    )


def route_window(pool: Pool, points: Sequence[DataPoint], cfg: PoolConfig) -> None:
    """Route ``points`` one after another through the k models nearest each.

    A point's distance to a model is the cosine distance to the memory's
    centroid as the points before it left it, one per (point, model). The k
    nearest are taken in (distance, created_at, id) order. A point landing
    strictly inside a model's band joins that memory and marks the point as
    owned. A point in the generalization margin joins the memory without
    claiming ownership. Unowned points fall through to the general memory.
    Routing reads no label and never changes a model's weights or band: in a
    replay a window's points carry their labels when they are routed, and
    models learn from them only at the boundary. So each model's memory,
    order key, band ends and effective lambda are read once per call. It
    returns nothing: a memory took a point iff the point is in it.
    """
    memories = [m.memory for m in pool.models]
    keys = [(m.created_at, m.id) for m in pool.models]
    regions = [(m.band.lo, m.band.hi, cfg.effective_lambda(m.band)) for m in pool.models]
    k, general = cfg.k, pool.general
    for point in points:
        vec = point.vec
        shape, norm = vec.shape, vector_norm(vec)
        keyed = []
        for j, memory in enumerate(memories):
            centroid, centroid_norm = memory.centroid_and_norm()
            if centroid.shape != shape:
                raise InputError(f"dimension mismatch: {shape} vs {centroid.shape}")
            # (d, (created_at, id), j): j keeps equal keys in pool order
            keyed.append((_cosine(vec, centroid, norm, centroid_norm), keys[j], j))
        keyed.sort()
        owned = False
        for d, _, j in keyed[:k]:
            where = membership(*regions[j], d)
            if where != OUTSIDE:
                memories[j].append(point)
                owned |= where == INSIDE
        if not owned:
            general.append(point)


def on_drift(pool: Pool, verdicts: dict, cfg: PoolConfig, window_index: int = 0) -> PoolDelta:
    """React to drift verdicts: retrain drifted models, generate from general memory.

    Drifted models are refit (warm start) on their memory's labeled subset when
    both classes are present, and their bands are rebuilt either way. Then
    one new model is trained on the general memory; when that succeeds the
    general memory is emptied, and when :func:`train_classifier` finds too few
    labels, or one class only, generation waits for a later boundary.
    """
    retrained: list[str] = []
    generated: list[str] = []
    for model in pool.models:
        verdict = verdicts.get(model.id)
        if verdict is None or not verdict.drifted:
            continue
        labeled = [p for p in model.memory.points if p.label is not None]
        if labeled and {p.label for p in labeled} == {0, 1}:
            x, y = _design_matrix(labeled)
            model.weights = _fit_logistic(x, y, cfg, init=model.weights)
        else:
            log.info("model %s drifted but lacks two-class labels; band rebuild only", model.id)
        model.band = empirical_delta_band(centroid_distances(model.memory), cfg.delta)
        retrained.append(model.id)

    # numbered past every mNNNN id the pool holds, which may come from outside replay
    number = 1 + max([pool._next_model] + [int(m.id[1:]) for m in pool.models
                                           if m.id[:1] == "m" and m.id[1:].isdecimal()])
    model_id = f"m{number:04d}"
    try:
        record = train_classifier(
            pool.general.points, cfg, model_id=model_id,
            created_at=window_index, memory_capacity=pool.general.capacity,
        )
    except PoolError as exc:
        log.info("general memory: %s", exc)
    else:
        pool._next_model = number
        pool.models.append(record)
        pool.general = DataWindow(capacity=pool.general.capacity, window_id=GENERAL_ID)
        generated.append(model_id)
    return PoolDelta(tuple(retrained), tuple(generated))


def evaluate_models(pool: Pool, labeled: list[DataPoint], window_index: int | None = None) -> None:
    """Refresh omega as the f-score over labeled points inside each model's band.

    Models with no in-band labeled evidence keep their previous omega. A
    labeled point of another width than the models' is an :class:`InputError`,
    raised before any model changes.
    """
    if not labeled:
        raise InputError("need at least one labeled point")
    if pool.models:
        width = len(pool.models[0].centroid)
        for p in labeled:
            if p.vec.shape != (width,):
                raise InputError(f"labeled point {p.id} of width {len(p.vec)} "
                                 f"for models of width {width}")
    y = np.array([p.label for p in labeled])
    dist, probs = score_columns(pool.models, stack_vectors([p.vec for p in labeled]))
    for j, model in enumerate(pool.models):
        rows = in_band(model.band, dist[:, j])
        if rows.any():
            model.omega = f_score(y[rows], probs[rows, j] >= 0.5)
            if window_index is not None:
                model.last_evaluated = window_index


# ---------------------------------------------------------------------------
# Checkpointing: one JSON document. Point metadata, bands, omega, ids and
# counters are plain JSON; every float64 array (a window's vectors stacked
# row-major into one n x d matrix, its running sum, model weights) is one
# block {"shape": [...], "f8": base64 of its little-endian bytes}, so vectors
# come back bit-exact without a decimal round trip. An empty window stores a
# [0, 0] block. The document is written piece by piece, a window record at a
# time, and its bytes are json_line of the whole document.
# ---------------------------------------------------------------------------

def _json(obj) -> bytes:
    """``obj`` as compact ASCII JSON, without the newline."""
    return json_line(obj)[:-1].encode("ascii")


def _write_f8(fh, a: np.ndarray) -> None:
    """Write ``a`` as one block, base64-encoded straight from its buffer in
    slices of a multiple of 3 bytes, so the encoding costs one slice, not
    twice the block, and the bytes are those of one encode."""
    a = np.ascontiguousarray(a, dtype="<f8")
    fh.write(b'{"shape":%s,"f8":"' % _json(list(a.shape)))
    raw = a.reshape(-1).view(np.uint8)
    for i in range(0, raw.size, 3 << 16):
        fh.write(base64.b64encode(raw[i:i + (3 << 16)]))
    fh.write(b'"}')


def _write_window(fh, w: DataWindow) -> None:
    fh.write(b'{"capacity":%s,"id":%s,"vec_sum":' % (_json(w.capacity), _json(w.id)))
    if w._vec_sum is None:
        fh.write(b"null")
    else:
        _write_f8(fh, w._vec_sum)
    fh.write(b',"points":%s,"vecs":' % _json([
        {"id": p.id, "ts": p.ts, "lat": p.lat, "lon": p.lon, "text": p.text, "label": p.label}
        for p in w.points
    ]))
    _write_f8(fh, w.vectors() if w.points else np.empty((0, 0)))
    fh.write(b"}")


def _decode_f8(block: dict) -> np.ndarray:
    """An owned, writable native float64 copy of a block of finite values."""
    shape = tuple(block["shape"])
    raw = base64.b64decode(block["f8"], validate=True)
    if any(type(n) is not int or n < 0 for n in shape) or len(raw) != 8 * math.prod(shape):
        raise ValueError(f"block of {len(raw)} bytes does not hold shape {list(shape)}")
    a = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"block of shape {list(shape)} holds non-finite values")
    return a


def _window_from_json(d: dict) -> DataWindow:
    meta, vecs = d["points"], _decode_f8(d["vecs"])
    vec_sum = None if d["vec_sum"] is None else _decode_f8(d["vec_sum"])
    if len(vecs) != len(meta) or (meta and vecs.ndim != 2):
        raise ValueError(f"{len(meta)} points but vector block of shape {list(vecs.shape)}")
    # a window holds a running sum of its vectors' width exactly when it holds points
    if (None if vec_sum is None else vec_sum.shape) != (vecs.shape[1:] if meta else None):
        raise ValueError(f"running sum does not fit the {len(meta)} points of the window")
    points = [DataPoint(id=check_string(m["id"], "point id"), ts=check_ts(m["ts"]),
                        text=check_string(m["text"], "text"), lat=m["lat"], lon=m["lon"],
                        label=m["label"], vec=v) for m, v in zip(meta, vecs)]
    return DataWindow.restore(points, vec_sum, capacity=d["capacity"],
                              window_id=check_string(d["id"], "window id"))


def save_pool(pool: Pool, path: str | Path) -> None:
    """Write the checkpoint to a sibling temporary file, then rename it to
    ``path``; a save that fails part-way leaves whatever ``path`` held."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b'{"next_model":%s,"general":' % _json(pool._next_model))
            _write_window(fh, pool.general)
            fh.write(b',"models":[')
            for i, m in enumerate(pool.models):
                if i:
                    fh.write(b",")
                fh.write(b'{"id":%s,"weights":' % _json(m.id))
                _write_f8(fh, m.weights)
                fh.write(b',"omega":%s,"created_at":%s,"last_evaluated":%s,"band":%s,"memory":'
                         % (_json(m.omega), _json(m.created_at), _json(m.last_evaluated),
                            _json(vars(m.band))))
                _write_window(fh, m.memory)
                fh.write(b"}")
            fh.write(b"]}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_pool(path: str | Path) -> Pool:
    """Read a checkpoint written by :func:`save_pool`; anything else is an
    :class:`InputError` naming the file. That includes vectors stored as float
    lists, a general memory that is not a window record, a count, capacity,
    omega, band delta or bound, timestamp or id of the wrong type or range (a
    bool is no number), a band record whose keys are not exactly its fields
    (delta, lo, hi), a window over its capacity, a non-finite float, a running
    sum or weights that do not fit the pool's one vector width, and two models
    with one id."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pool = Pool()
        pool._next_model = check_int(doc["next_model"], "next_model", 0)
        pool.general = _window_from_json(doc["general"])
        widths = {len(pool.general.centroid)} if pool.general.points else set()
        keys = [f.name for f in fields(DeltaBand)]  # a band's record is its fields
        for md in doc["models"]:
            if sorted(md["band"]) != sorted(keys):
                raise InputError(f"band keys {sorted(md['band'])}, not {keys}")
            model = ModelRecord(
                id=check_string(md["id"], "model id"), weights=_decode_f8(md["weights"]),
                memory=_window_from_json(md["memory"]), band=DeltaBand(**md["band"]),
                omega=md["omega"],
                created_at=check_int(md["created_at"], "created_at", 0),
                last_evaluated=check_int(md["last_evaluated"], "last_evaluated", 0),
            )
            if model.id in {m.id for m in pool.models}:
                raise InputError(f"two models with id {model.id!r}")
            # every vector of the pool has one width d and every model d + 1
            # weights; the centroid refuses an empty memory
            widths.add(len(model.centroid))
            if len(widths) > 1 or model.weights.shape != (len(model.centroid) + 1,):
                raise InputError(f"model {model.id}: weights of shape {list(model.weights.shape)} "
                                 f"for vectors of widths {sorted(widths)}")
            pool.models.append(model)
    except (OSError, KeyError, ValueError, TypeError, InputError) as exc:
        raise InputError(f"{path}: unreadable checkpoint: {type(exc).__name__}: {exc}") from exc
    return pool
