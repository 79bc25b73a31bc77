"""Data windows over the stream and the density bands built from them.

A window keeps an ordered set of embedded points with an incrementally
maintained centroid. The band machinery turns the window's distribution of
point-to-centroid distances into the interval between two sample quantiles
that holds a chosen probability mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError, DataPoint, InputError, centroid_cosine_distances, check_int, is_number,
    stack_vectors, vector_norm,
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
    evicts the oldest point. The centroid and its norm, and the points'
    distances to it, are each computed once per change of the window, kept
    read-only, and dropped by the next append.
    """

    def __init__(self, points=(), capacity: int = DEFAULT_WINDOW_SIZE, window_id: str = ""):
        """The window of appending ``points`` in order; more points than
        ``capacity`` are an :class:`InputError`. The running sum is taken from
        zeros and in order as appending takes it, so it has the same bits."""
        self.capacity = check_int(capacity, "window capacity", 1)
        self.id = window_id
        self.points: list[DataPoint] = []
        self._vec_sum: np.ndarray | None = None
        self._centroid: tuple[np.ndarray, float] | None = None
        self._distances: np.ndarray | None = None
        points = list(points)
        if len(points) > self.capacity:
            raise InputError(f"{len(points)} points exceed window capacity {self.capacity}")
        if points:
            vec_sum = np.zeros_like(points[0].vec)
            for p in points:
                self._check_width(p, vec_sum)
                vec_sum += p.vec
            self.points, self._vec_sum = points, vec_sum

    @classmethod
    def restore(cls, points, vec_sum, capacity: int, window_id: str) -> "DataWindow":
        """A window of ``points`` whose running sum is a copy of ``vec_sum``, not
        rebuilt by re-appending (which can change its last bits)."""
        w = cls(capacity=capacity, window_id=window_id)
        w.points = list(points)
        if len(w.points) > w.capacity:
            raise InputError(f"{len(w.points)} points exceed window capacity {w.capacity}")
        w._vec_sum = None if vec_sum is None else np.array(vec_sum, dtype=np.float64)
        return w

    def _check_width(self, point: DataPoint, vec_sum: np.ndarray) -> None:
        if point.vec.shape != vec_sum.shape:
            raise InputError(f"point {point.id} of width {len(point.vec)} in window "
                             f"{self.id!r} of width {len(vec_sum)}")

    def __len__(self) -> int:
        return len(self.points)

    def append(self, point: DataPoint) -> None:
        """Add a point, evicting the oldest point if at capacity; a vector of
        another width than the window's is an :class:`InputError`."""
        if self._vec_sum is None:
            self._vec_sum = np.zeros_like(point.vec)
        else:
            self._check_width(point, self._vec_sum)
        if len(self.points) >= self.capacity:
            self._vec_sum -= self.points.pop(0).vec
        self.points.append(point)
        self._vec_sum += point.vec
        self._centroid = self._distances = None

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
        return stack_vectors([p.vec for p in self.points])


@dataclass(frozen=True)
class DeltaBand:
    """Interval of centroid distances holding ``delta`` probability mass."""

    delta: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (all(map(is_number, (self.delta, self.lo, self.hi)))
                and 0.0 < self.delta <= 1.0 and 0.0 <= self.lo <= self.hi <= 1.0):
            raise InputError(f"bad band: delta {self.delta!r}, bounds [{self.lo!r}, {self.hi!r}]")


def centroid_distances(window: DataWindow) -> np.ndarray:
    """Cosine distance of every window point to the window centroid, in order,
    read-only."""
    if len(window) < 1:
        raise InputError("need at least one point")
    if window._distances is None:
        d = centroid_cosine_distances(window.vectors(), window.centroid)
        d.flags.writeable = False
        window._distances = d
    return window._distances


def empirical_delta_band(distances, delta: float) -> DeltaBand:
    """Band between the (1-delta)/2 and (1+delta)/2 sample quantiles; a
    distance outside [0, 1], NaN included, is refused."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise InputError("need at least one distance")
    if not (0.0 < delta <= 1.0):
        raise InputError(f"delta must be in (0, 1], got {delta}")
    if not np.all((d >= 0.0) & (d <= 1.0)):
        raise InputError("distance outside [0, 1]")
    # Hazen plotting positions (h = N*p + 0.5) interpolated between order
    # statistics keep closed-band mass within 1/N of the target for
    # tie-free samples; plain (N-1)*p positions do not.
    lo, hi = np.quantile(d, [(1.0 - delta) / 2.0, (1.0 + delta) / 2.0], method="hazen").tolist()
    return DeltaBand(delta=delta, lo=lo, hi=hi)


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
    return membership(band.lo, band.hi, lam, dist)


def membership(lo: float, hi: float, lam: float, dist: float) -> str:
    """:func:`band_membership` of a band's ends and a lambda of at least ``hi``,
    on floats: :func:`in_band`'s rule, then the margin below ``lam``."""
    if lo < dist < hi or dist == lo == hi:
        return INSIDE
    return GENERALIZATION if hi <= dist < lam else OUTSIDE
