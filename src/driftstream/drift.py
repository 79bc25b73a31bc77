"""Unsupervised drift detection on centroid-distance distributions.

The classifier window acts as the prior and the live stream window as the
posterior; both are reduced to their dense distance bands, histogrammed, and
compared with KL divergence. Zero bins are patched with the smallest nonzero
probability so the divergence stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError
from .windows import DataWindow, centroid_distances, empirical_delta_band

DEFAULT_BINS = 32
DEFAULT_KL_THRESHOLD = 0.05  # nats; calibrated on stationary streams


@dataclass(frozen=True)
class DistanceHistogram:
    """Probabilities over B uniform bins spanning [0, 1]."""

    bins: np.ndarray
    count: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.float64)
        object.__setattr__(self, "bins", bins)
        if bins.ndim != 1 or len(bins) < 2:
            raise InputError("histogram needs at least 2 bins")
        if np.any(bins < 0.0):
            raise InputError("negative bin probability")
        if abs(float(bins.sum()) - 1.0) > 1e-9:
            raise InputError(f"bin probabilities sum to {bins.sum()}, not 1")


@dataclass(frozen=True)
class DriftVerdict:
    """One verdict; its fields, in order, are its row of the verdict log."""

    ts: int  # the live window's last timestamp
    prior_id: str
    live_id: str
    kl: float
    threshold: float
    drifted: bool


def histogram(distances, bins: int = DEFAULT_BINS) -> DistanceHistogram:
    """Uniform-bin histogram of distances in [0, 1]; 1.0 lands in the last bin."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise InputError("need at least one distance")
    if bins < 2:
        raise InputError(f"need at least 2 bins, got {bins}")
    if np.any(d < 0.0) or np.any(d > 1.0):
        raise InputError("distance outside [0, 1]")
    idx = np.minimum((d * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    return DistanceHistogram(bins=counts / d.size, count=int(d.size))


def smooth_zero_bins(
    pa: DistanceHistogram, pb: DistanceHistogram
) -> tuple[DistanceHistogram, DistanceHistogram]:
    """Replace zero bins in either histogram with the smallest nonzero
    probability seen across both, then renormalize each to sum 1."""
    if len(pa.bins) != len(pb.bins):
        raise InputError("histograms have different bin counts")
    stacked = np.concatenate([pa.bins, pb.bins])
    positive = stacked[stacked > 0.0]
    if positive.size == 0:
        raise InputError("both histograms are all-zero")
    floor = float(positive.min())

    def patch(h: DistanceHistogram) -> DistanceHistogram:
        bins = np.where(h.bins == 0.0, floor, h.bins)
        return DistanceHistogram(bins=bins / bins.sum(), count=h.count)

    return patch(pa), patch(pb)


def kl_divergence(pa: DistanceHistogram, pb: DistanceHistogram) -> float:
    """KL(P_A || P_B) in nats; expects smoothed histograms (no one-sided zeros)."""
    if len(pa.bins) != len(pb.bins):
        raise InputError("histograms have different bin counts")
    a = pa.bins
    b = pb.bins
    if np.any((a == 0.0) != (b == 0.0)):
        raise InputError("one-sided zero bin; apply smooth_zero_bins first")
    mask = a > 0.0
    value = float(np.sum(a[mask] * np.log(a[mask] / b[mask])))
    return max(value, 0.0)


def smoothing_points(window_capacity: int) -> int:
    """Grace period after a window rollover during which verdicts are withheld."""
    return window_capacity // 10


def detect_drift(
    prior: DataWindow,
    live: DataWindow,
    delta: float,
    threshold: float = DEFAULT_KL_THRESHOLD,
    bins: int = DEFAULT_BINS,
    since_rollover: int | None = None,
) -> DriftVerdict | None:
    """Compare the dense distance bands of two windows.

    Both windows are reduced to centroid distances within their own empirical
    delta band, histogrammed, smoothed, and scored with KL divergence. Returns
    None (verdict withheld) while the live window is still inside the
    smoothing period after a rollover.
    """
    if len(prior) == 0 or len(live) == 0:
        raise InputError("both windows must be nonempty")
    if since_rollover is not None and since_rollover < smoothing_points(live.capacity):
        return None

    def band_distances(window: DataWindow) -> np.ndarray:
        d = centroid_distances(window)
        band = empirical_delta_band(d, delta)
        kept = d[(d >= band.lo) & (d <= band.hi)]
        return kept if kept.size else d

    pa, pb = smooth_zero_bins(
        histogram(band_distances(prior), bins),
        histogram(band_distances(live), bins),
    )
    kl = kl_divergence(pa, pb)
    return DriftVerdict(ts=live.points[-1].ts, prior_id=prior.id, live_id=live.id,
                        kl=kl, threshold=threshold, drifted=kl > threshold)
