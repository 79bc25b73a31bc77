"""The measured process: set-up, then replays for a fixed time budget.

run.py starts this file in a fresh interpreter, with the library's sources
on PYTHONPATH and BLAS pinned to one thread, so that its peak resident memory
covers set-up and replay but not input generation. It reads a job JSON file
and writes a result JSON file; with tracing on, it also writes the spans of
its last traced replay.

    python3 perfbench/child.py JOB.json RESULT.json
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))

    import numpy
    from driftstream import Embedder
    from driftstream.corroborate import load_events
    from driftstream.pipeline import load_config, replay

    from check import observe_labels
    from speed import sampling
    from tracer import Tracer, layer_metrics

    setups: list[dict] = []

    def set_up():
        """What replay needs before its first point, timed on its own."""
        gc.collect()
        # both stay referenced until after the clock stops, so that freeing
        # them is not timed
        with sampling() as sample:
            cfg = load_config(job["config"])
            embedder = Embedder(cfg.embedder_config())
            events = load_events(job["events"])
        setups.append({"wall_s": sample.own_s, "cpu_s": sample.busy_s,
                       "reference_s": sample.reference_s(), "slowdown": sample.slowdown()})
        del embedder, events
        return cfg

    def run_replay(index: int, traced: bool) -> tuple[dict, Tracer | None]:
        out_dir = Path(job["run_root"]) / f"run-{index}"
        tracer = Tracer() if traced else None
        record = {"dir": str(out_dir), "traced": traced, "error": None}
        gc.collect()
        # untraced replays carry the speed reference; it would skew spans
        with observe_labels() as labels, (nullcontext() if traced else sampling()) as sample:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    replay(job["stream"], job["events"], cfg, out_dir=out_dir)
                else:
                    tracer.run(replay, job["stream"], job["events"], cfg, out_dir=out_dir)
            except Exception:  # the run reports the failure; nothing else runs
                record["error"] = traceback.format_exc()
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = time.process_time() - cpu0
        if sample is not None:
            record["wall_s"] = sample.own_s
            record["cpu_s"] = sample.busy_s
            record["reference_s"] = sample.reference_s()
            record["slowdown"] = sample.slowdown()
        record["labeled_ids"] = labels.ids
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, cfg.window_size, len(labels.ids or ()))
            record["absent"] = tracer.absent
        return record, tracer

    # One set-up and one replay, as a CLI run does, fix the peak memory; the
    # later set-ups and replays only add samples for the medians.
    cfg = set_up()
    first, _ = run_replay(0, traced=False)
    replays = [first]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < job["setup_reps"] or sum(s["wall_s"] for s in setups) < job["setup_seconds"]:
        cfg = set_up()

    last_tracer = None
    while not replays[-1]["error"]:
        # at least two replays, so that a traced run has one of each kind;
        # then stop before a replay as slow as the slowest so far would overrun
        walls = [r["wall_s"] for r in replays]
        if len(walls) >= 2 and sum(walls) + max(walls) > job["seconds"]:
            break
        traced = bool(job["trace"]) and len(replays) % 2 == 1
        record, tracer = run_replay(len(replays), traced)
        replays.append(record)
        last_tracer = tracer or last_tracer

    result = {
        "setups": setups,
        "replays": replays,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if last_tracer is not None:
        last_tracer.write(Path(job["trace_file"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
