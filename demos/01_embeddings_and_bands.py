"""Embeddings, cosine distances, and density bands.

Walks through the geometric vocabulary the rest of the system builds on:
deterministic text embeddings, the [0, 1] cosine distance, the distribution
of distances to a window centroid, and the bands that hold a chosen share of
that distribution.

Run: python3 demos/01_embeddings_and_bands.py
"""

import numpy as np

from driftstream import (
    DataPoint,
    DataWindow,
    Embedder,
    EmbedderConfig,
    GaussianBandEstimate,
    centroid_distances,
    cosine_distance,
    empirical_delta_band,
    gaussian_delta_band,
    unit_hypersphere_volume,
)

embedder = Embedder(EmbedderConfig(dim=64))

print("== deterministic embeddings ==")
texts = [
    "landslide blocks the mountain road",
    "mudslide closes the mountain road",
    "election won by a landslide margin",
]
vectors = {t: embedder.embed(t) for t in texts}
for t, v in vectors.items():
    print(f"  |v|={np.linalg.norm(v):.3f}  {t!r}")

print("\n== cosine distance (0 same direction, 0.5 orthogonal, 1 opposite) ==")
a, b, c = (vectors[t] for t in texts)
print(f"  landslide-road vs mudslide-road : {cosine_distance(a, b):.3f}")
print(f"  landslide-road vs election      : {cosine_distance(a, c):.3f}")
print(f"  repeat embedding is bit-equal   : {np.array_equal(a, embedder.embed(texts[0]))}")

print("\n== a window of points and its distance distribution ==")
rng = np.random.default_rng(0)
center = np.zeros(16)
center[0] = 1.0
points = [
    DataPoint(id=f"p{i}", ts=i, text="", vec=center + 0.2 * rng.standard_normal(16))
    for i in range(500)
]
window = DataWindow(points, capacity=500, window_id="demo")
distances = centroid_distances(window)
print(f"  {len(window)} points, distance to centroid: "
      f"mean={distances.mean():.4f} sd={distances.std():.4f}")

for delta in (0.3, 0.6, 0.9):
    band = empirical_delta_band(distances, delta)
    mass = np.mean((distances >= band.lo) & (distances <= band.hi))
    print(f"  empirical {delta:.1f}-band [{band.lo:.4f}, {band.hi:.4f}] "
          f"holds {100 * mass:.1f}% of the window")

est = GaussianBandEstimate.fit(distances)
gband = gaussian_delta_band(est, 0.6)
print(f"  normal fit mu={est.mu:.4f} sigma={est.sigma:.4f} "
      f"-> 0.6-band [{gband.lo:.4f}, {gband.hi:.4f}]")

print("\n== why bands, not spheres ==")
print("  volume of the diameter-1 ball collapses with dimension:")
for d in (1, 3, 10, 30, 100, 300):
    print(f"    d={d:<4d} V={unit_hypersphere_volume(d):.3e}")
print("  in high dimension nothing lives near the centroid, so a model owns")
print("  an interval of distances (a band) instead of a ball.")
