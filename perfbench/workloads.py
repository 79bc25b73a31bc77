"""Benchmark workloads and their seeded inputs.

Each workload is a synthetic stream from ``driftstream.synth`` plus, for the
sparse-geotag workloads, a thinning step that lives here and not in the
library: real posts are mostly untagged, and only tagged posts can receive a
corroborative label. Thinning keeps the geotag on every point an event is
centred on (so the label supply is unchanged) and on a small share of the
rest, which shrinks the set of points the labeler has to scan.

The same (workload, seed) always produces byte-identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# share of the points that no event is centred on which keep their geotag
GEO_KEEP_FRACTION = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields other than the seed
    thin_geo: bool


# Why each workload exists, and the layer it loads, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # the ROADMAP headline; corroborative labeling takes most of the time
        Workload(
            "headline",
            dict(schedule="sudden", n_windows=6, window_size=3000, dim=32,
                 corroborative_fraction=0.03),
            thin_geo=False,
        ),
        # a growing pool: routing, team prediction and drift verdicts dominate
        Workload(
            "sparse_geo",
            dict(schedule="gradual", step=0.1, n_windows=20, window_size=1000, dim=32,
                 corroborative_fraction=0.08),
            thin_geo=True,
        ),
        # the default dimension: ingest, the embedding table and checkpoints
        Workload(
            "wide_stationary",
            dict(schedule="sudden", jump=0.0, n_windows=6, window_size=1500, dim=300,
                 corroborative_fraction=0.06),
            thin_geo=True,
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus what the output check needs to know about them."""

    stream: Path
    events: Path
    config: Path
    point_ids: list[str]
    window_size: int
    n_windows: int
    centres: list[set[str]]  # per window, the ids of points an event is centred on

    @property
    def n_points(self) -> int:
        return len(self.point_ids)


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write stream, events, embedding table and config for one seed."""
    from driftstream.pipeline import PipelineConfig, save_config
    from driftstream.synth import SynthConfig, generate_synthetic

    scfg = SynthConfig(seed=seed, **workload.synth)
    gen = generate_synthetic(scfg, out_dir)
    rows = [json.loads(line) for line in gen.stream_path.read_text(encoding="utf-8").splitlines()]
    by_ts = {r["ts"]: r for r in rows}
    centre_ids = set()
    for line in gen.corroborative_path.read_text(encoding="utf-8").splitlines():
        e = json.loads(line)
        # synth centres every event on one point, in space and in time
        r = by_ts.get((e["ts_start"] + e["ts_end"]) // 2)
        if r is None or (r["lat"], r["lon"]) != (e["lat"], e["lon"]):
            raise RuntimeError(f"event {e['id']} is not centred on a stream point")
        centre_ids.add(r["id"])

    if workload.thin_geo:
        rng = np.random.default_rng([seed, 1])
        for r in rows:
            if r["id"] not in centre_ids and rng.random() >= GEO_KEEP_FRACTION:
                del r["lat"], r["lon"]
        gen.stream_path.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows),
            encoding="utf-8",
        )

    cfg = PipelineConfig(
        window_size=scfg.window_size, dim=scfg.dim, embed_mode="table",
        table_path=str(gen.table_path.resolve()), seed=seed,
    )
    config_path = out_dir / "config.txt"
    save_config(cfg, config_path)

    ids = [r["id"] for r in rows]
    ws = scfg.window_size
    centres = [
        {pid for pid in ids[w * ws:(w + 1) * ws] if pid in centre_ids}
        for w in range(scfg.n_windows)
    ]
    return Inputs(
        stream=gen.stream_path, events=gen.corroborative_path, config=config_path,
        point_ids=ids, window_size=ws, n_windows=scfg.n_windows, centres=centres,
    )
