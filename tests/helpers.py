"""Shared fixtures-by-hand for the test suite: geometry builders, the
independent routing oracle, the pair-by-pair labeling reference, the
scalar classifier with the point-by-point team prediction and model
evaluation references built on it, the text-by-text embedding reference and
the numpy-call cosine distance the lean one must equal."""

import math

import numpy as np

from driftstream.core import DataPoint, _token_bucket_sign, cosine_distance, tokenize
from driftstream.corroborate import LabelAssignment, haversine_km
from driftstream.pool import ModelRecord, f_score, k_nearest, sigmoid
from driftstream.windows import INSIDE, DataWindow, DeltaBand, band_membership


def point(pid, vec, label=None, ts=0):
    return DataPoint(id=pid, ts=ts, text="", vec=np.asarray(vec, dtype=float), label=label)


def vec_at_distance(d, dim=2):
    """Unit vector at a chosen cosine distance from e1."""
    cos = 1.0 - 2.0 * d
    v = np.zeros(dim)
    v[0] = cos
    v[1] = math.sqrt(max(0.0, 1.0 - cos * cos))
    return v


def make_model(mid, centroid, band, weights=None, omega=0.9, created_at=0, dim=None):
    dim = dim if dim is not None else len(centroid)
    memory = DataWindow([point(f"{mid}-seed", centroid)], capacity=64, window_id=mid)
    w = np.zeros(dim + 1) if weights is None else np.asarray(weights, dtype=float)
    return ModelRecord(id=mid, weights=w, memory=memory, band=band,
                       omega=omega, created_at=created_at, last_evaluated=created_at)


def oracle_route(models_state, x, lam_value):
    """Alg-style routing re-derived from the rules, checking every model.

    models_state rows: (model_id, centroid, band_lo, band_hi).
    """
    appended, owned = set(), False
    for mid, centroid, lo, hi in models_state:
        nx, nc = np.linalg.norm(x.vec), np.linalg.norm(centroid)
        if nx == 0.0 or nc == 0.0:
            d = 0.5
        else:
            d = (1.0 - min(1.0, max(-1.0, float(x.vec @ centroid) / (nx * nc)))) / 2.0
        lam = min(max(lam_value, hi), 1.0) if lam_value is not None else min(hi + 0.05, 1.0)
        inside = (lo < d < hi) or (lo == hi == d)
        if inside:
            appended.add(mid)
            owned = True
        elif hi <= d < lam:
            appended.add(mid)
    return appended, not owned


def random_routing_fixture(rng):
    """One randomized pool + point for oracle-equivalence checks."""
    from driftstream.pool import Pool, PoolConfig

    dim = int(rng.integers(2, 6))
    n_models = int(rng.integers(1, 6))
    pool = Pool()
    state = []
    for j in range(n_models):
        centroid = rng.standard_normal(dim)
        lo = float(rng.uniform(0.0, 0.6))
        hi = float(rng.uniform(lo + 0.05, 1.0))
        pool.models.append(make_model(f"m{j}", centroid, DeltaBand(0.6, lo, hi),
                                      created_at=j))
        state.append((f"m{j}", centroid.copy(), lo, hi))
    lam = None if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
    labeled = rng.random() < 0.4
    x = point("x", rng.standard_normal(dim), label=int(rng.integers(0, 2)) if labeled else None)
    return pool, state, x, PoolConfig(lam=lam)


def cone_window(rng, n, angle_deg, spread_deg, dim=16, wid="w"):
    """Points at a controlled mean angle from e1; their distance-to-centroid
    distribution centers near (1 - cos(angle)) / 2."""
    phi = np.radians(rng.normal(angle_deg, spread_deg, n))
    axis = np.zeros(dim)
    axis[0] = 1.0
    pts = []
    for i, a in enumerate(phi):
        q = rng.standard_normal(dim)
        q[0] = 0.0
        q /= np.linalg.norm(q)
        pts.append(point(f"{wid}{i}", np.cos(a) * axis + np.sin(a) * q, ts=i))
    return DataWindow(pts, capacity=n, window_id=wid)


def reference_assign_labels(points, events, pad_seconds):
    """The labeling rule checked for every (point, event) pair with the scalar
    haversine; assign_labels must return exactly this list."""
    out = []
    for p in points:
        if p.geo is None:
            continue
        best = None
        for e in events:
            if not (e.ts_start - pad_seconds <= p.ts <= e.ts_end + pad_seconds):
                continue
            dist = haversine_km(p.geo, (e.lat, e.lon))
            if dist > e.radius_km:
                continue
            key = (dist, e.id)
            if best is None or key < (best[0], best[1]):
                best = (dist, e.id, e)
        if best is not None:
            dist, _, e = best
            out.append(LabelAssignment(point_id=p.id, event_id=e.id, label=e.label,
                                       distance_km=dist))
    return out


def predict_raw(model, point):
    """The scalar classifier: sigmoid(w.x + b) of one point, kept strictly inside (0, 1)."""
    w = model.weights
    z = float(point.vec @ w[:-1] + w[-1])
    return float(np.clip(sigmoid(np.float64(z)), 1e-15, 1.0 - 1e-15))


def reference_evaluate_models(pool, labeled, window_index=None):
    """Omega refreshed model by model and point by point with the scalar
    distance, band_membership and the scalar classifier; evaluate_models must
    leave every model with the same omega and last_evaluated."""
    omegas = {}
    for model in pool.models:
        in_band = [p for p in labeled
                   if band_membership(model.band, cosine_distance(p.vec, model.centroid),
                                      model.band.hi) == INSIDE]
        if in_band:
            model.omega = f_score([p.label for p in in_band],
                                  [1 if predict_raw(model, p) >= 0.5 else 0 for p in in_band])
            if window_index is not None:
                model.last_evaluated = window_index
        omegas[model.id] = model.omega
    return omegas


def reference_predict(models, x, k):
    """The teamed prediction for one point, built model by model with the
    scalar distance and the scalar classifier; each row of decision_lines must
    agree with it."""
    chosen = k_nearest(list(models), x.vec, k)
    if not chosen:
        return {"team": [], "p": None, "label": None}
    raw = np.array([m.omega * (1.0 - d) for d, m in chosen])
    shifted = np.exp(raw - raw.max())
    weights = shifted / shifted.sum()
    probability = 0.0
    for (_, m), w in zip(chosen, weights):
        probability += w * predict_raw(m, x)
    probability = float(min(max(probability, 0.0), 1.0))
    return {
        "team": [{"model": m.id, "d": d, "w": float(w)} for (d, m), w in zip(chosen, weights)],
        "p": probability,
        "label": int(probability >= 0.5),
    }


def reference_embed(embedder, text):
    """One text embedded on its own, token by token: the table mean of the
    tokens found or the hashed +-1 bucket sums, divided by its norm when that
    is positive. A finite vector whose norm overflows is first divided by its
    largest magnitude. Each row of ``embedder.embed_all`` must equal it bit for bit."""
    tokens = tokenize(text)
    vec = np.zeros(embedder.cfg.dim, dtype=np.float64)
    if embedder._table is not None:
        hits = [embedder._table[t] for t in tokens if t in embedder._table]
        if hits:
            vec = np.mean(hits, axis=0)
    else:
        for token in tokens:
            bucket, sign = _token_bucket_sign(token, embedder.cfg.dim, embedder.cfg.hash_seed)
            vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == np.inf and np.isfinite(vec).all():
        vec = vec / np.max(np.abs(vec))
        norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return vec


def reference_cosine_distance(a, b, na=None, nb=None):
    """The cosine distance through np.asarray, np.linalg.norm and np.dot, with
    tiny norms rescaled by the largest magnitude; wherever both norms are
    finite, core.cosine_distance must equal it bit for bit."""

    def rescaled(v, norm):
        if norm >= 1e-150:
            return v, norm
        scale = float(np.max(np.abs(v), initial=0.0))
        if scale == 0.0:
            return v, 0.0
        v = v / scale
        return v, float(np.linalg.norm(v))

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if na is None:
        na = float(np.linalg.norm(a))
    if nb is None:
        nb = float(np.linalg.norm(b))
    if na < 1e-150 or nb < 1e-150:
        a, na = rescaled(a, na)
        b, nb = rescaled(b, nb)
        if na == 0.0 or nb == 0.0:
            return 0.5
    sim = float(np.dot(a, b) / (na * nb))
    sim = max(-1.0, min(1.0, sim))
    return (1.0 - sim) / 2.0
