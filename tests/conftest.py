import time
from types import SimpleNamespace

import pytest

from driftstream.pipeline import PipelineConfig, replay
from driftstream.synth import SynthConfig, generate_synthetic


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    """The headline scenario: 6 windows x 3000 points, sudden drift at window
    3, 3% corroborative labels, fixed seed. Shared across criteria: ``reports``
    holds replay's report rows and ``run`` its run directory."""
    base = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()
    scfg = SynthConfig(
        schedule="sudden", n_windows=6, window_size=3000, dim=32, seed=2,
        corroborative_fraction=0.03,
    )
    gen = generate_synthetic(scfg, base / "data")
    cfg = PipelineConfig(
        window_size=3000, dim=32, embed_mode="table",
        table_path=str(gen.table_path), seed=2,
    )
    run = base / "run"
    reports = replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=run)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(gen=gen, cfg=cfg, reports=reports, run=run, elapsed=elapsed, base=base)
