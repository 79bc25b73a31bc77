"""Synthetic drifting streams with ground truth and corroborative events.

Points come from two Gaussian clusters in embedding space (relevant and
irrelevant). Drift schedules move the relevant cluster's center between
windows: stepwise (gradual), all at once halfway through (sudden), or
flip-flopping with period 2 (cyclic). A configurable fraction of points per
class gets a corroborative event centered on it, so delayed labeling can
find it later.

The generator writes an embedding table mapping one synthetic token per point
to its designed vector, which keeps the cluster geometry exact end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corroborate import CorroborativeEvent, save_events

SCHEDULES = ("gradual", "sudden", "cyclic")

RELEVANT_FRACTION = 0.5
NOISE = 0.08
BASE_ANGLE_DEG = 50.0
# component of the new center pushed into the old decision boundary's
# negative side; makes a stale pool confidently wrong on moved points
TILT = 0.25
START_TS = 1735689600  # 2025-01-01T00:00:00Z
DT_SECONDS = 60


@dataclass
class SynthConfig:
    schedule: str = "sudden"
    n_windows: int = 6
    window_size: int = 3000
    dim: int = 32
    seed: int = 0
    corroborative_fraction: float = 0.03
    # jump scales how far the relevant center relocates; 0 keeps the stream
    # stationary regardless of schedule
    jump: float = 1.0
    # fraction of post-drift relevant points still drawn at the old center,
    # so a frozen classifier keeps partial recall and f-scores stay comparable
    carryover: float = 0.2
    step: float = 0.25  # gradual schedule: relocation fraction gained per window

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.n_windows < 2:
            raise ValueError("need at least 2 windows")
        if self.window_size < 1:
            raise ValueError("need window_size >= 1")
        if self.dim < 3:
            raise ValueError("need dim >= 3 for the drift geometry")
        if self.seed < 0:
            raise ValueError("need seed >= 0")
        if not 0.0 <= self.corroborative_fraction <= 1.0:
            raise ValueError("need corroborative_fraction in [0, 1]")
        if not 0.0 <= self.jump < math.inf:
            raise ValueError("need a finite jump >= 0")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _centers(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Irrelevant center, relevant center, and the post-drift relevant center."""
    base = math.radians(BASE_ANGLE_DEG)
    u = np.zeros(cfg.dim)
    u[0] = 1.0
    v = np.zeros(cfg.dim)
    v[0] = math.cos(base)
    v[1] = math.sin(base)
    w_hat = _unit(v - u)            # stale pool's discriminant direction
    c_hat = _unit(u + v)            # stale pool's centroid direction
    fresh = np.zeros(cfg.dim)
    fresh[2] = 1.0
    moved = _unit(0.6 * fresh - 0.8 * c_hat - TILT * w_hat)
    return u, v, moved


def _relocation(cfg: SynthConfig, window: int) -> float:
    """Fraction of the center relocation applied in a given window."""
    if cfg.schedule == "sudden":
        return cfg.jump if window >= cfg.n_windows // 2 else 0.0
    if cfg.schedule == "gradual":
        return cfg.jump * min(1.0, cfg.step * window)
    return cfg.jump * (window % 2)  # cyclic


@dataclass
class SynthStream:
    stream_path: Path
    corroborative_path: Path
    table_path: Path
    n_points: int
    events: int


def generate_synthetic(cfg: SynthConfig, out_dir: str | Path) -> SynthStream:
    """Write stream.jsonl, corroborative.jsonl, and embeddings.tsv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    u, v, moved = _centers(cfg)

    stream_path = out / "stream.jsonl"
    table_path = out / "embeddings.tsv"
    events: list[CorroborativeEvent] = []
    n_total = cfg.n_windows * cfg.window_size

    with open(stream_path, "w", encoding="utf-8") as sf, \
            open(table_path, "w", encoding="utf-8") as tf:
        for idx in range(n_total):
            window = idx // cfg.window_size
            relocation = _relocation(cfg, window)
            relevant = rng.random() < RELEVANT_FRACTION
            if relevant:
                if relocation > 0.0 and rng.random() >= cfg.carryover:
                    center = _unit((1.0 - relocation) * v + relocation * moved)
                else:
                    center = v
            else:
                center = u
            vec = center + NOISE * rng.standard_normal(cfg.dim)

            token = f"tok{idx:06d}"
            ts = START_TS + idx * DT_SECONDS
            lat = float(rng.uniform(-60.0, 60.0))
            lon = float(rng.uniform(-180.0, 180.0))
            label = 1 if relevant else 0

            tf.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")
            sf.write(
                '{"id":"p%06d","ts":%d,"lat":%s,"lon":%s,"text":"%s","label":%d}\n'
                % (idx, ts, repr(lat), repr(lon), token, label)
            )

            if rng.random() < cfg.corroborative_fraction:
                events.append(
                    CorroborativeEvent(
                        id=f"e{idx:06d}",
                        ts_start=ts - 86400, ts_end=ts + 86400,
                        lat=lat, lon=lon, radius_km=50.0,
                        polarity="relevant" if relevant else "irrelevant",
                        source="synthetic",
                    )
                )

    corroborative_path = out / "corroborative.jsonl"
    save_events(events, corroborative_path)
    return SynthStream(
        stream_path=stream_path, corroborative_path=corroborative_path,
        table_path=table_path, n_points=n_total, events=len(events),
    )
