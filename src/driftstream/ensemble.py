"""Per-point teamed classifiers: select the nearest models, weight them by
performance and proximity, and aggregate their probabilities.

The team is rebuilt for every data point from an immutable pool snapshot, so
the prediction path can run in parallel with pool maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DataPoint
from .pool import ModelRecord, k_nearest, predict_raw

DEFAULT_K = 5


@dataclass(frozen=True)
class TeamMember:
    model_id: str
    distance: float
    raw_weight: float
    weight: float


@dataclass(frozen=True)
class TeamSelection:
    """The models chosen for one point, sorted by ascending distance."""

    point_id: str
    members: tuple[TeamMember, ...]

    def record(self, probability: float | None, label: int | None) -> dict:
        """JSONL row for the per-point decision log."""
        return {
            "point_id": self.point_id,
            "team": [
                {"model": m.model_id, "d": m.distance, "w": m.weight} for m in self.members
            ],
            "p": probability,
            "label": label,
        }


def select_models(models: Sequence[ModelRecord], point: DataPoint, k: int = DEFAULT_K) -> list[str]:
    """Ids of the k models whose memory centroids are nearest to the point."""
    return [m.id for _, m in k_nearest(list(models), point.vec, k)]


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
    shifted = np.exp(raw - raw.max())
    return shifted / shifted.sum()


def form_team(
    models: Sequence[ModelRecord], point: DataPoint, k: int = DEFAULT_K,
) -> TeamSelection | None:
    """Build the weighted team for a point; None when the pool is empty."""
    chosen = k_nearest(list(models), point.vec, k)
    if not chosen:
        return None
    raw = np.array([m.omega * (1.0 - d) for d, m in chosen])
    members = tuple(
        TeamMember(model_id=m.id, distance=d, raw_weight=float(r), weight=float(w))
        for (d, m), r, w in zip(chosen, raw, _softmax(raw))
    )
    return TeamSelection(point_id=point.id, members=members)


def team_predict(
    team: TeamSelection | None,
    models_by_id: dict[str, ModelRecord],
    point: DataPoint,
) -> tuple[float, int] | None:
    """Weighted mean probability and its thresholded label (1 iff p >= 0.5).

    An empty team yields None: the point stays unclassified rather than
    erroring out.
    """
    if team is None or not team.members:
        return None
    probability = 0.0
    for member in team.members:
        probability += member.weight * predict_raw(models_by_id[member.model_id], point)
    probability = float(min(max(probability, 0.0), 1.0))
    return probability, int(probability >= 0.5)
