"""Replay benchmark for driftstream.

Generates one workload's inputs from a seed, replays them in a separate
measured process for a fixed time, checks every replay's artifacts, and
prints each metric with its unit. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload headline --seed 2 --seconds 20 --trace 0

Run it from the repository root; it builds nothing and reads the library
from ./src. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced replays and reports the
per-layer metrics. Set-up and replay times are reported at reference
processor speed (speed.py). Work files go to ./.perfbench_work. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# set-up is short, so it repeats until both limits are reached
SETUP_REPS = 3
SETUP_SECONDS = 3.0
# the whole run must end within 180 s; the child gets what is left of this
RUN_DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "driftstream" / "__init__.py").is_file():
        print(f"error: no driftstream sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, src, work, work_root / f"trace-{args.workload}-{args.seed}.json",
                   deadline=started + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, src: Path, work: Path, trace_file: Path, deadline: float) -> int:
    machine = machine_info()
    t0 = time.perf_counter()
    inputs = generate(WORKLOADS[args.workload], args.seed, work / "data")
    print(f"{args.workload} seed {args.seed}: {inputs.n_points} points, "
          f"{sum(map(len, inputs.centres))} events, inputs in {time.perf_counter() - t0:.2f} s")

    job = {
        "config": str(inputs.config), "stream": str(inputs.stream),
        "events": str(inputs.events), "run_root": str(work / "runs"),
        "seconds": args.seconds, "trace": args.trace, "setup_reps": SETUP_REPS,
        "setup_seconds": SETUP_SECONDS, "trace_file": str(trace_file),
    }
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(src)}
    errors: list[str] = []
    try:
        # on a timeout, subprocess.run kills the child and waits for it
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
            env=env, stdout=sys.stderr, check=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        # a crashed, killed or overrunning child counts as one failed replay
        errors.append(f"measured process failed: {exc}")
        result = {"setups": [], "replays": [], "peak_rss_mb": 0.0, "numpy": None}
    machine["numpy"] = result["numpy"]
    print(f"machine: {json.dumps(machine)}")

    from check import check_replay

    attempted = failed = 0 if result["replays"] else inputs.n_points
    outcomes = []
    for i, rec in enumerate(result["replays"]):
        attempted += inputs.n_points
        if rec["error"]:
            errors.append(f"replay {i} raised:\n{rec['error']}")
            failed += inputs.n_points
            continue
        outcome = check_replay(Path(rec["dir"]), inputs, rec["labeled_ids"])
        outcomes.append(outcome)
        errors += [f"replay {i}: {e}" for e in outcome.errors]
        failed += inputs.n_points if outcome.errors else outcome.undecided
        speed = (f"slowdown {rec['slowdown']:.3f}, "
                 f"{inputs.n_points / rec['reference_s']:.1f} points/s at reference speed, "
                 if "slowdown" in rec else "traced, ")
        print(f"replay {i}: {rec['wall_s']:.3f} s wall, {rec['cpu_s']:.3f} s cpu, "
              f"{inputs.n_points / rec['wall_s']:.1f} points/s wall, {speed}"
              f"{outcome.undecided} undecided, check {'ok' if not outcome.errors else 'FAILED'}")
    for s in result["setups"]:
        print(f"set-up: {s['wall_s']:.3f} s wall, slowdown {s['slowdown']:.3f}, "
              f"{s['reference_s']:.3f} s at reference speed")
    hashes = sorted({json.dumps(o.sha256, sort_keys=True) for o in outcomes})
    if len(hashes) > 1:
        errors.append(f"replays of the same inputs wrote different artifacts: {hashes}")
    for name, digest in (json.loads(hashes[0]) if hashes else {}).items():
        print(f"sha256 {name}: {digest}")
    for e in errors:
        print(f"check error: {e}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(result["replays"])
    else:
        metrics = end_to_end_metrics(result, outcomes, inputs.n_points)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    absent = sorted({a for r in result["replays"] for a in r.get("absent", [])})
    if absent:
        print(f"absent layers: {', '.join(absent)}")

    summary = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "loadavg_end": os.getloadavg(),
        "replays": [{k: r.get(k) for k in ("traced", "wall_s", "cpu_s", "slowdown")}
                    for r in result["replays"]],
        "setups": result["setups"],
        "sha256": json.loads(hashes[0]) if len(hashes) == 1 else hashes,
        "absent": absent, "errors": errors, **summary,
    }
    with open(work.parent / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _finite(value: float) -> float:
    # a failed check can leave an F1 undefined; JSON has no NaN
    return value if math.isfinite(value) else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(result: dict, outcomes, n_points: int) -> dict:
    untraced = [r for r in result["replays"] if not r["traced"] and not r["error"]]
    return {
        "points_per_s": _metric(_median(n_points / r["reference_s"] for r in untraced), "1/s"),
        "setup_s": _metric(_median(s["reference_s"] for s in result["setups"]), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "adaptive_f1": _metric(_finite(outcomes[0].adaptive_f1 if outcomes else 0.0), "score"),
        "static_f1": _metric(_finite(outcomes[0].static_f1 if outcomes else 0.0), "score"),
    }


def traced_metrics(replays: list[dict]) -> dict:
    ok = [r for r in replays if not r["error"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    # without a traced replay every layer metric still appears, reading 0
    for name, (_, unit) in layer_metrics(Tracer(), 1, 0).items():
        metrics[name] = _metric(_median(r["layers"][name][0] for r in traced), unit)
    # processor time, which leaves out the time the host gave to others
    untraced_s = _median(r["cpu_s"] for r in ok if not r["traced"])
    traced_s = _median(r["cpu_s"] for r in traced)
    overhead = 100.0 * (traced_s / untraced_s - 1.0) if untraced_s and traced_s else 0.0
    metrics["trace_overhead_pct"] = _metric(overhead, "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
