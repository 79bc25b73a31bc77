"""Teamed classifiers: select the nearest models, weight them by performance
and proximity, and aggregate their probabilities.

Every point gets its own team, but the teams of a window are formed together
from one state of the pool: one distance column and one probability column
per model, then a stable sort of each row. Replay predicts a window before
routing its points, so the teams read the pool as the previous boundary left it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from typing import Sequence

import numpy as np

from .pool import ModelRecord, score_columns


def team_weights(members: Sequence[tuple[float, float]]) -> np.ndarray:
    """Softmax weights from (omega, distance) pairs.

    The raw score is omega * (1 - distance), so nearer models dominate.
    """
    if len(members) == 0:
        raise ValueError("need at least one member")
    omega = np.array([m[0] for m in members], dtype=np.float64)
    dist = np.array([m[1] for m in members], dtype=np.float64)
    return _softmax(omega * (1.0 - dist))


def _softmax(raw: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by its maximum."""
    shifted = np.exp(raw - raw.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _teams(models: Sequence[ModelRecord], X: np.ndarray, k: int):
    """(ids, team, d, w, p) for a non-empty pool: the model ids in
    (created_at, id) order, each row's team as indices into them, the team's
    distances and weights, and each row's probability."""
    ordered = sorted(models, key=lambda m: (m.created_at, m.id))
    dist, probs = score_columns(ordered, X)
    team = np.argsort(dist, axis=1, kind="stable")[:, :k]
    d = np.take_along_axis(dist, team, axis=1)
    omega = np.array([m.omega for m in ordered])
    w = _softmax(omega[team] * (1.0 - d))
    # members are added in team order, as a point-by-point loop would add them
    p = np.zeros(len(X))
    for column in (w * np.take_along_axis(probs, team, axis=1)).T:
        p += column
    np.clip(p, 0.0, 1.0, out=p)
    return [m.id for m in ordered], team, d, w, p


def predict_window(
    models: Sequence[ModelRecord], X: np.ndarray, k: int,
) -> list[dict]:
    """One decision per row of ``X``: ``{"team", "p", "label"}``.

    The team holds the k models whose memory centroids are nearest to the
    row, sorted by distance with ties toward older created_at, then smaller
    id, each as ``{"model", "d", "w"}`` with softmax weight w over
    omega * (1 - d). p is the weighted mean of the members' probabilities and
    the label is 1 iff p >= 0.5. An empty pool leaves every row unclassified
    (empty team, p and label None).
    """
    if not models:
        return [{"team": [], "p": None, "label": None} for _ in range(len(X))]
    ids, team, d, w, p = _teams(models, X, k)
    return [{"team": [{"model": ids[j], "d": dj, "w": wj} for j, dj, wj in zip(tr, dr, wr)],
             "p": pr, "label": int(pr >= 0.5)}
            for tr, dr, wr, pr in zip(team.tolist(), d.tolist(), w.tolist(), p.tolist())]


def decision_lines(
    point_ids: Sequence[str], models: Sequence[ModelRecord], X: np.ndarray, k: int,
) -> tuple[list[str], list[float | None]]:
    """(lines, p): row i of :func:`predict_window` as ``json_line({"point_id":
    point_ids[i], **row})`` writes it, formatted straight from the team arrays
    with the encoder's own string escaper and its ``float.__repr__`` of a finite
    float (d, w and p are finite for finite rows and centroids), and its p."""
    pids = [_string(pid) for pid in point_ids]
    if not models:
        return ([f'{{"point_id":{pid},"team":[],"p":null,"label":null}}\n' for pid in pids],
                [None] * len(pids))
    ids, team, d, w, p = _teams(models, X, k)
    heads = [f'{{"model":{_string(i)},"d":' for i in ids]
    # every member of every row, row after row
    members = [f'{heads[j]}{dj!r},"w":{wj!r}}}'
               for j, dj, wj in zip(team.ravel().tolist(), d.ravel().tolist(), w.ravel().tolist())]
    size = team.shape[1]
    p = p.tolist()
    lines = [f'{{"point_id":{pid},"team":[{",".join(members[i * size:(i + 1) * size])}],'
             f'"p":{pr!r},"label":{int(pr >= 0.5)}}}\n' for i, (pid, pr) in enumerate(zip(pids, p))]
    return lines, p
