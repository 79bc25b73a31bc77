"""Unsupervised drift detection on centroid-distance distributions.

The classifier window acts as the prior and the live stream window as the
posterior; both are reduced to their dense distance bands, histogrammed, and
compared with KL divergence. Zero bins are patched with the smallest nonzero
probability so the divergence stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, check_int
from .windows import DataWindow, centroid_distances, empirical_delta_band

DEFAULT_BINS = 32
DEFAULT_KL_THRESHOLD = 0.05  # nats; calibrated on stationary streams


@dataclass(frozen=True)
class DriftVerdict:
    """One verdict; its fields, in order, are its row of the verdict log."""

    ts: int  # the live window's last timestamp
    prior_id: str
    live_id: str
    kl: float
    threshold: float
    drifted: bool


def histogram(distances, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Probabilities over ``bins`` uniform bins spanning [0, 1]; 1.0 lands in
    the last bin."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise InputError("need at least one distance")
    check_int(bins, "bins", 2)
    if not np.all((d >= 0.0) & (d <= 1.0)):  # NaN fails too
        raise InputError("distance outside [0, 1]")
    idx = np.minimum((d * bins).astype(np.int64), bins - 1)
    return np.bincount(idx, minlength=bins) / d.size


def _probabilities(pa, pb) -> tuple[np.ndarray, np.ndarray]:
    """``pa`` and ``pb`` as float64 arrays, refused unless each holds at least
    2 nonnegative bin probabilities summing to 1 within 1e-9, and both as many."""
    pair = tuple(np.asarray(p, dtype=np.float64) for p in (pa, pb))
    for p in pair:
        if p.ndim != 1 or len(p) < 2:
            raise InputError("histogram needs at least 2 bins")
        if not np.all(p >= 0.0):
            raise InputError("negative or NaN bin probability")
        if not abs(float(p.sum()) - 1.0) <= 1e-9:
            raise InputError(f"bin probabilities sum to {p.sum()}, not 1")
    if len(pair[0]) != len(pair[1]):
        raise InputError("histograms have different bin counts")
    return pair


def smooth_zero_bins(pa, pb) -> tuple[np.ndarray, np.ndarray]:
    """Replace zero bins in either histogram with the smallest nonzero
    probability seen across both, then renormalize each to sum 1."""
    pa, pb = _probabilities(pa, pb)
    stacked = np.concatenate([pa, pb])
    floor = float(stacked[stacked > 0.0].min())

    def patch(h: np.ndarray) -> np.ndarray:
        bins = np.where(h == 0.0, floor, h)
        return bins / bins.sum()

    return patch(pa), patch(pb)


def kl_divergence(pa, pb) -> float:
    """KL(P_A || P_B) in nats; expects smoothed histograms (no one-sided zeros)."""
    a, b = _probabilities(pa, pb)
    if np.any((a == 0.0) != (b == 0.0)):
        raise InputError("one-sided zero bin; apply smooth_zero_bins first")
    mask = a > 0.0
    value = float(np.sum(a[mask] * np.log(a[mask] / b[mask])))
    return max(value, 0.0)


def smoothing_points(window_capacity: int) -> int:
    """Points a live window needs before its verdicts are given."""
    return window_capacity // 10


def detect_drift(
    prior: DataWindow,
    live: DataWindow,
    delta: float,
    threshold: float = DEFAULT_KL_THRESHOLD,
    bins: int = DEFAULT_BINS,
) -> DriftVerdict | None:
    """Compare the dense distance bands of two windows of one width.

    Both windows are reduced to centroid distances within their own empirical
    delta band, histogrammed, smoothed, and scored with KL divergence. Returns
    None (verdict withheld) while the live window holds fewer points than the
    smoothing period of its capacity.
    """
    if len(prior) == 0 or len(live) == 0:
        raise InputError("both windows must be nonempty")
    widths = (prior.points[0].vec.size, live.points[0].vec.size)
    if widths[0] != widths[1]:
        raise InputError(f"window {prior.id!r} of width {widths[0]} against "
                         f"window {live.id!r} of width {widths[1]}")
    if len(live) < smoothing_points(live.capacity):
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
