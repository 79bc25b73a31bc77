"""Unsupervised drift detection with band-restricted KL divergence.

Builds a classifier window and a sequence of live windows, one matching the
training distribution and one shifted, and shows how the histogram + KL
machinery separates the two without any labels.

Run: python3 demos/02_drift_detection.py
"""

import numpy as np

from driftstream import DataPoint, DataWindow, detect_drift, histogram, kl_divergence, smooth_zero_bins
from driftstream.windows import centroid_distances, empirical_delta_band


def window_from(rng, centers_and_counts, noise, wid):
    pts = []
    i = 0
    for center, count in centers_and_counts:
        for _ in range(count):
            pts.append(DataPoint(id=f"{wid}{i}", ts=i, text="",
                                 vec=center + noise * rng.standard_normal(len(center))))
            i += 1
    return DataWindow(pts, capacity=i, window_id=wid)


rng = np.random.default_rng(1)
dim = 24
u = np.zeros(dim); u[0] = 1.0          # background chatter
v = np.zeros(dim); v[1] = 1.0          # the topic a classifier was trained on
w = np.zeros(dim); w[2] = 1.0          # a region nobody has seen yet

classifier_window = window_from(rng, [(u, 900), (v, 600)], 0.15, "train")
live_same = window_from(rng, [(u, 900), (v, 600)], 0.15, "live-stationary")
live_drift = window_from(rng, [(u, 900), (v, 200), (w, 400)], 0.15, "live-drifted")

print("== the two-histogram comparison, step by step ==")
prior_d = centroid_distances(classifier_window)
band = empirical_delta_band(prior_d, 0.6)
kept = prior_d[(prior_d >= band.lo) & (prior_d <= band.hi)]
print(f"  classifier window: {len(prior_d)} distances, 0.6-band "
      f"[{band.lo:.3f}, {band.hi:.3f}] keeps {len(kept)}")

pa = histogram(kept, bins=32)
pb = histogram(centroid_distances(live_same), bins=32)
pa_s, pb_s = smooth_zero_bins(pa, pb)
print(f"  zero bins before smoothing: prior {int(np.sum(pa == 0))}, "
      f"live {int(np.sum(pb == 0))}; after: "
      f"{int(np.sum(pa_s == 0))} and {int(np.sum(pb_s == 0))}")
print(f"  raw KL on those histograms: {kl_divergence(pa_s, pb_s):.4f} nats")

print("\n== verdicts at the default threshold (0.05 nats) ==")
for live in (live_same, live_drift):
    verdict = detect_drift(classifier_window, live, delta=0.6, threshold=0.05)
    flag = "DRIFT" if verdict.drifted else "ok"
    print(f"  vs {live.id:<16s} kl={verdict.kl:8.4f}  -> {flag}")

print("\n== the smoothing period after a window rollover ==")


def prefix(n):
    """The first n points of the drifted window, in a window of its full capacity."""
    return DataWindow(live_drift.points[:n], capacity=live_drift.capacity, window_id=live_drift.id)


young = detect_drift(classifier_window, prefix(50), 0.6, 0.05)
mature = detect_drift(classifier_window, prefix(500), 0.6, 0.05)
print(f"  50 points into a fresh window : verdict withheld -> {young}")
print(f"  500 points in                 : kl={mature.kl:.3f} drifted={mature.drifted}")
