"""The classifier pool and per-point teamed prediction.

Trains two regional models, routes fresh points through the pool (band
membership decides which memories absorb them), then predicts a window of
query points from the pool's models, which prediction leaves unchanged: each
point gets a weighted team of the nearest models, which blends the members'
probabilities. Replay makes the same call once per window and writes the same
decision rows.

Run: python3 demos/03_teamed_classifiers.py
"""

import json

import numpy as np

from driftstream import (
    DataPoint,
    Pool,
    PoolConfig,
    decision_lines,
    route_window,
    train_classifier,
)


def labeled_cluster(rng, center, label, n, prefix, noise=0.15):
    return [
        DataPoint(id=f"{prefix}{i}", ts=i, text="",
                  vec=center + noise * rng.standard_normal(len(center)),
                  label=label)
        for i in range(n)
    ]


rng = np.random.default_rng(2)
dim = 16
storms = np.zeros(dim); storms[0] = 1.0
quiet = np.zeros(dim); quiet[1] = 1.0
slides = np.zeros(dim); slides[2] = 1.0

cfg = PoolConfig(min_train=30)
pool = Pool()

print("== two regional models ==")
region_a = labeled_cluster(rng, storms, 1, 60, "storm") + labeled_cluster(rng, quiet, 0, 60, "quiet")
model_a = train_classifier(region_a, cfg, model_id="m-flood", created_at=0)
pool.models.append(model_a)

region_b = labeled_cluster(rng, slides, 1, 60, "slide") + labeled_cluster(rng, quiet, 0, 60, "calm")
model_b = train_classifier(region_b, cfg, model_id="m-slide", created_at=1)
pool.models.append(model_b)

for m in pool.models:
    print(f"  {m.id}: omega={m.omega:.2f} band=[{m.band.lo:.3f}, {m.band.hi:.3f}] "
          f"memory={len(m.memory)} points")

print("\n== routing fresh points through the pool ==")
from driftstream.core import cosine_distance  # noqa: E402
from driftstream.windows import band_membership  # noqa: E402

# pick a probe that genuinely sits inside the first model's band: points can
# also fall in the empty inner region below the band, which routes away
inside_vec = next(
    vec for vec in (storms + 0.1 * rng.standard_normal(dim) for _ in range(100))
    if band_membership(model_a.band,
                       cosine_distance(vec, model_a.memory.centroid),
                       cfg.effective_lambda(model_a.band)) == "inside"
)
probes = {
    "inside a region": inside_vec,
    "nowhere near anything": -(storms + quiet + slides),
}
# routing returns nothing; the memories that now hold a probe are its record
for name, vec in probes.items():
    x = DataPoint(id=name, ts=99, text="", vec=vec)
    route_window(pool, [x], cfg)
    held = [m.id for m in pool.models if x in m.memory.points]
    print(f"  {name:<24s} held by {held or 'no model memory'}, "
          f"general memory: {x in pool.general.points}")
print(f"  general memory now holds {len(pool.general)} point(s) for future models")

print("\n== teamed prediction for a window of one point ==")
query = storms + 0.1 * rng.standard_normal(dim)
omega = {m.id: m.omega for m in pool.models}
lines, _ = decision_lines(["query"], pool.models, query[None, :], k=cfg.k)
print(f"  decision row: {lines[0].rstrip()}")
decision = json.loads(lines[0])
for member in decision["team"]:
    raw = omega[member["model"]] * (1.0 - member["d"])
    print(f"  {member['model']}: distance={member['d']:.3f} "
          f"raw={raw:.3f} softmax weight={member['w']:.3f}")
print(f"  blended probability {decision['p']:.3f} -> label {decision['label']}")
