"""Data windows over the stream and the density bands built from them.

A window keeps an ordered set of embedded points with an incrementally
maintained centroid. The band machinery turns the window's distribution of
point-to-centroid distances into an interval holding a chosen probability
mass, either empirically (quantiles) or through a normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import (
    ConfigError, DataPoint, InputError, centroid_cosine_distances, check_int, vector_norm,
)

DEFAULT_WINDOW_SIZE = 3000
DEFAULT_DELTA = 0.6

INSIDE = "inside"
GENERALIZATION = "generalization"
OUTSIDE = "outside"


class DataWindow:
    """Ordered, capacity-bounded set of points with a running centroid.

    Single writer; the centroid is maintained incrementally from a running
    vector sum and stays within 1e-9 of the batch mean. When full, appending
    evicts the oldest point. The centroid and its norm are computed once per
    change of the window.
    """

    def __init__(self, points=(), capacity: int = DEFAULT_WINDOW_SIZE, window_id: str = ""):
        self.capacity = check_int(capacity, "window capacity", 1)
        self.id = window_id
        self.points: list[DataPoint] = []
        self._vec_sum: np.ndarray | None = None
        self._centroid: tuple[np.ndarray, float] | None = None
        for p in points:
            self.append(p)

    @classmethod
    def restore(cls, points, vec_sum, capacity: int, window_id: str) -> "DataWindow":
        """A window of ``points`` whose running sum is a copy of ``vec_sum``, not
        rebuilt by re-appending (which can change its last bits)."""
        w = cls(capacity=capacity, window_id=window_id)
        w.points = list(points)
        w._vec_sum = None if vec_sum is None else np.array(vec_sum, dtype=np.float64)
        return w

    def copy(self) -> "DataWindow":
        return self.restore(self.points, self._vec_sum, self.capacity, self.id)

    def __len__(self) -> int:
        return len(self.points)

    def append(self, point: DataPoint) -> DataPoint | None:
        """Add a point, returning the evicted oldest point if at capacity."""
        evicted = None
        if self._vec_sum is None:
            self._vec_sum = np.zeros_like(point.vec)
        if len(self.points) >= self.capacity:
            evicted = self.points.pop(0)
            self._vec_sum -= evicted.vec
        self.points.append(point)
        self._vec_sum += point.vec
        self._centroid = None
        return evicted

    @property
    def centroid(self) -> np.ndarray:
        """The mean vector, read-only."""
        return self.centroid_and_norm()[0]

    def centroid_and_norm(self) -> tuple[np.ndarray, float]:
        """The read-only mean vector and its ``vector_norm``."""
        if self._centroid is None:
            if not self.points:
                raise InputError("empty window has no centroid")
            centroid = self._vec_sum / len(self.points)
            centroid.flags.writeable = False
            self._centroid = (centroid, vector_norm(centroid))
        return self._centroid

    def vectors(self) -> np.ndarray:
        return np.stack([p.vec for p in self.points])


@dataclass(frozen=True)
class DeltaBand:
    """Interval of centroid distances holding ``delta`` probability mass."""

    delta: float
    lo: float
    hi: float
    estimate_kind: str = "empirical"

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise InputError(f"invalid band bounds [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class GaussianBandEstimate:
    """Normal fit N(mu, sigma^2) of the centroid-distance distribution."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (0.0 <= self.mu <= 1.0):
            raise InputError(f"mu {self.mu} outside [0, 1]")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InputError(f"sigma {self.sigma} must be finite and >= 0")

    @classmethod
    def fit(cls, distances) -> "GaussianBandEstimate":
        d = np.asarray(distances, dtype=np.float64)
        return cls(mu=float(np.mean(d)), sigma=float(np.std(d)))


def centroid_distances(window: DataWindow) -> np.ndarray:
    """Cosine distance of every window point to the window centroid, in order."""
    if len(window) < 1:
        raise InputError("need at least one point")
    return centroid_cosine_distances(window.vectors(), window.centroid)


def _quantile_hazen(sorted_values: np.ndarray, p: float) -> float:
    # Hazen plotting positions (h = N*p + 0.5) interpolated between order
    # statistics keep closed-band mass within 1/N of the target for
    # tie-free samples; plain (N-1)*p positions do not.
    n = len(sorted_values)
    h = n * p - 0.5
    if h <= 0.0:
        return float(sorted_values[0])
    if h >= n - 1:
        return float(sorted_values[-1])
    k = int(math.floor(h))
    g = h - k
    return float(sorted_values[k] + g * (sorted_values[k + 1] - sorted_values[k]))


def empirical_delta_band(distances, delta: float) -> DeltaBand:
    """Band between the (1-delta)/2 and (1+delta)/2 sample quantiles."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise InputError("need at least one distance")
    if not (0.0 < delta <= 1.0):
        raise InputError(f"delta must be in (0, 1], got {delta}")
    s = np.sort(d)
    lo = _quantile_hazen(s, (1.0 - delta) / 2.0)
    hi = _quantile_hazen(s, (1.0 + delta) / 2.0)
    return DeltaBand(delta=delta, lo=lo, hi=hi, estimate_kind="empirical")


def gaussian_delta_band(est: GaussianBandEstimate, delta: float) -> DeltaBand:
    """Symmetric normal band mu +/- z*sigma with z at the (1+delta)/2 quantile."""
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must be in (0, 1), got {delta}")
    z = NormalDist().inv_cdf((1.0 + delta) / 2.0)
    lo = max(0.0, est.mu - z * est.sigma)
    hi = min(1.0, est.mu + z * est.sigma)
    return DeltaBand(delta=delta, lo=lo, hi=hi, estimate_kind="gaussian")


def unit_hypersphere_volume(d: int) -> float:
    """Volume of the diameter-1 ball in d dimensions: 0.5^d pi^(d/2) / Gamma(d/2 + 1).

    Diagnostic for why density regions are bands rather than spheres: the
    volume vanishes as d grows, so the region near the centroid is empty.
    """
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    return 0.5**d * math.pi ** (0.5 * d) / math.gamma(0.5 * d + 1.0)


def in_band(band: DeltaBand, dist):
    """The INSIDE rule, elementwise on an array of distances: lo < dist < hi,
    or dist == lo when the band is degenerate."""
    if band.lo == band.hi:
        return dist == band.lo
    return (band.lo < dist) & (dist < band.hi)


def band_membership(band: DeltaBand, dist: float, lam: float) -> str:
    """Classify a distance against a band and its generalization margin.

    ``inside`` for lo < dist < hi (closed when the band is degenerate),
    ``generalization`` for hi <= dist < lam, ``outside`` otherwise.
    """
    if lam < band.hi:
        raise ConfigError(f"lambda {lam} below band hi {band.hi}")
    if in_band(band, dist):
        return INSIDE
    if band.hi <= dist < lam:
        return GENERALIZATION
    return OUTSIDE
