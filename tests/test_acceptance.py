"""End-to-end acceptance suite. Each test prints one PASS/FAIL line with the
measured values, then asserts."""

import json

import numpy as np
from helpers import cone_window, oracle_route, random_routing_fixture

from driftstream.corroborate import CorroborativeEvent, assign_labels, haversine_km
from driftstream.drift import DistanceHistogram, detect_drift, kl_divergence
from driftstream.ensemble import _softmax
from driftstream.pipeline import PipelineConfig, replay
from driftstream.pool import logistic_loss_and_grad, process_point
from driftstream.synth import SynthConfig, generate_synthetic
from driftstream.windows import (
    GaussianBandEstimate,
    centroid_distances,
    empirical_delta_band,
    gaussian_delta_band,
)


def report(criterion, name, ok, detail):
    print(f"\nACCEPTANCE {criterion:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def test_01_adaptive_beats_static_after_drift(acceptance_run):
    rows = acceptance_run.result.report_rows
    post = [r for r in rows if r.window >= 3]
    every = all(r.adaptive_f1 >= r.static_f1 for r in post)
    mean_improvement = sum(r.improvement_pct for r in post) / len(post)
    in_time = acceptance_run.elapsed <= 300.0
    detail = (
        f"post-drift windows {[f'{r.static_f1:.3f}/{r.adaptive_f1:.3f}' for r in post]}, "
        f"mean improvement {mean_improvement:.1f}%, elapsed {acceptance_run.elapsed:.0f}s"
    )
    report(1, "adaptive-vs-static", every and mean_improvement >= 120.0 and in_time, detail)


def test_02_sparse_label_fraction(acceptance_run):
    rows = acceptance_run.result.report_rows
    fractions = [r.pct_labeled for r in rows]
    ok = all(f <= 5.0 for f in fractions)
    report(2, "sparse-labels", ok,
           "pct_labeled per window: " + ", ".join(f"{f:.2f}%" for f in fractions))


def test_03_static_degrades_adaptive_holds(tmp_path):
    passes = 0
    details = []
    for seed in range(10):
        scfg = SynthConfig(schedule="sudden", n_windows=6, window_size=3000,
                           dim=32, seed=seed, corroborative_fraction=0.03)
        gen = generate_synthetic(scfg, tmp_path / f"s{seed}")
        cfg = PipelineConfig(window_size=3000, dim=32, embed_mode="table",
                             table_path=str(gen.table_path), seed=seed)
        result = replay(gen.stream_path, gen.corroborative_path, cfg,
                        out_dir=tmp_path / f"s{seed}" / "run")
        rows = {r.window: r for r in result.report_rows}
        # baseline is the last pre-drift window, the end state the last window
        static_drop = rows[2].static_f1 - rows[5].static_f1
        adaptive_drop = rows[2].adaptive_f1 - rows[5].adaptive_f1
        ok = static_drop >= 0.15 and adaptive_drop <= 0.10
        passes += ok
        details.append(f"seed{seed}: -{static_drop:.2f}/-{adaptive_drop:.2f}")
    report(3, "static-degradation", passes >= 9,
           f"{passes}/10 seeds (static drop/adaptive drop: {'; '.join(details)})")


def test_04_drift_detector_calibration(tmp_path):
    # false alarms: a stationary stream over 20 maintenance boundaries
    scfg = SynthConfig(schedule="sudden", n_windows=21, window_size=3000,
                       dim=16, seed=7, jump=0.0)
    gen = generate_synthetic(scfg, tmp_path / "stationary")
    cfg = PipelineConfig(window_size=3000, dim=16, embed_mode="table",
                         table_path=str(gen.table_path), seed=7)
    result = replay(gen.stream_path, gen.corroborative_path, cfg,
                    out_dir=tmp_path / "stationary" / "run")
    verdicts = [json.loads(l) for l in result.verdicts.read_text().splitlines()]
    alarms = sum(1 for v in verdicts if v["drifted"])
    false_alarm_rate = alarms / len(verdicts) if verdicts else 0.0

    # detection: a +0.3 shift of the distance-to-centroid mean, ten seeds,
    # flagged within the first two post-shift windows
    detected_in = []
    shifts = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        prior = cone_window(rng, 1500, 45.57, 6.0, wid="prior")
        lives = [cone_window(rng, 1500, 85.0, 6.0, wid=f"live{i}") for i in range(2)]
        shifts.append(centroid_distances(lives[0]).mean() - centroid_distances(prior).mean())
        hit = 0
        for i, live in enumerate(lives, start=1):
            if detect_drift(prior, live, 0.6, 0.05).drifted:
                hit = i
                break
        detected_in.append(hit)
    shift_ok = all(0.25 <= s <= 0.35 for s in shifts)
    detect_ok = all(1 <= h <= 2 for h in detected_in)
    ok = false_alarm_rate <= 0.05 and detect_ok and shift_ok
    report(4, "detector-calibration", ok,
           f"false alarms {alarms}/{len(verdicts)} ({100 * false_alarm_rate:.1f}%), "
           f"mean shift {np.mean(shifts):+.3f}, detected in windows {detected_in}")


def test_05_kl_properties():
    rng = np.random.default_rng(55)
    n = 100_000
    worst = 0.0
    for _ in range(n):
        a = rng.random(8) + 1e-9
        b = rng.random(8) + 1e-9
        pa = DistanceHistogram(bins=a / a.sum(), count=8)
        pb = DistanceHistogram(bins=b / b.sum(), count=8)
        kl = kl_divergence(pa, pb)
        worst = min(worst, kl)
        if kl < 0.0:
            break
    nonneg_ok = worst >= 0.0

    ident_worst = 0.0
    for _ in range(1000):
        a = rng.random(16) + 1e-9
        pa = DistanceHistogram(bins=a / a.sum(), count=16)
        ident_worst = max(ident_worst, abs(kl_divergence(pa, pa)))
    ident_ok = ident_worst <= 1e-9

    pa = DistanceHistogram(bins=np.array([0.5, 0.5]), count=2)
    pb = DistanceHistogram(bins=np.array([0.9, 0.1]), count=2)
    worked = kl_divergence(pa, pb)
    worked_ok = abs(worked - 0.51083) <= 1e-5

    report(5, "kl-properties", nonneg_ok and ident_ok and worked_ok,
           f"min KL over 1e5 pairs {worst:.2e}, max |KL(p,p)| {ident_worst:.2e}, "
           f"worked pair {worked:.5f} nats")


def test_06_band_mass_and_gaussian_band():
    rng = np.random.default_rng(66)
    failures = 0
    trials = 0
    for _ in range(1000):
        n = int(rng.integers(5, 500))
        d = rng.random(n)  # continuous, ties have probability zero
        for delta in (0.3, 0.6, 0.9):
            band = empirical_delta_band(d, delta)
            mass = float(np.mean((d >= band.lo) & (d <= band.hi)))
            trials += 1
            if abs(mass - delta) > 1.0 / n + 1e-12:
                failures += 1
    gauss = gaussian_delta_band(GaussianBandEstimate(mu=0.5, sigma=0.1), 0.6)
    gauss_ok = abs(gauss.lo - 0.41584) <= 1e-4 and abs(gauss.hi - 0.58416) <= 1e-4
    report(6, "band-mass", failures == 0 and gauss_ok,
           f"{trials - failures}/{trials} samples within 1/N, "
           f"gaussian band [{gauss.lo:.5f}, {gauss.hi:.5f}]")


def test_07_routing_oracle_equivalence():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        pool, state, x, cfg = random_routing_fixture(rng)
        outcome = process_point(pool, x, cfg)
        exp_app, exp_gm = oracle_route(state, x, cfg.lam)
        if set(outcome.models_appended) != exp_app or outcome.general_memory_hit != exp_gm:
            mismatches += 1
    report(7, "routing-oracle", mismatches == 0,
           f"{1000 - mismatches}/1000 randomized fixtures match exactly")


def test_08_ensemble_algebra():
    rng = np.random.default_rng(88)
    sum_worst = 0.0
    shift_worst = 0.0
    mono_violations = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        members = [(float(rng.random()), float(rng.random())) for _ in range(k)]
        omega, d = np.array(members).T
        raw = omega * (1.0 - d)  # the weight rule replay's teams apply
        w = _softmax(raw)
        sum_worst = max(sum_worst, abs(float(w.sum()) - 1.0))

        shift = float(rng.uniform(-2.0, 2.0))
        shifted = np.exp((raw + shift) - (raw + shift).max())
        shifted /= shifted.sum()
        base = np.exp(raw - raw.max())
        base /= base.sum()
        shift_worst = max(shift_worst, float(np.abs(base - shifted).max()))

        # monotonicity: raising one member's output never lowers the blend
        outputs = rng.uniform(0.01, 0.94, k)
        weights = rng.random(k)
        weights /= weights.sum()
        p_base = float(np.dot(weights, outputs))
        j = int(rng.integers(0, k))
        raised = outputs.copy()
        raised[j] += 0.05
        if float(np.dot(weights, raised)) < p_base - 1e-12:
            mono_violations += 1
    ok = sum_worst <= 1e-9 and shift_worst <= 1e-9 and mono_violations == 0
    report(8, "ensemble-algebra", ok,
           f"max |sum-1| {sum_worst:.2e}, max shift deviation {shift_worst:.2e}, "
           f"monotonicity violations {mono_violations}")


def test_09_gradient_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        dim = int(rng.integers(2, 8))
        x = np.hstack([rng.standard_normal((n, dim)), np.ones((n, 1))])
        y = rng.integers(0, 2, n).astype(float)
        w = rng.standard_normal(dim + 1)
        _, grad = logistic_loss_and_grad(w, x, y)
        h = 1e-6
        for j in range(dim + 1):
            step = np.zeros(dim + 1)
            step[j] = h
            lp, _ = logistic_loss_and_grad(w + step, x, y)
            lm, _ = logistic_loss_and_grad(w - step, x, y)
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(grad[j] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
    report(9, "gradient-check", worst <= 1e-5,
           f"max relative error {worst:.2e} over 100 fixtures")


def test_10_corroborative_labeling_oracle():
    from driftstream.core import DataPoint

    rng = np.random.default_rng(1010)
    points = [
        DataPoint(id=f"p{i}", ts=int(rng.integers(0, 10_000)), text="",
                  vec=np.zeros(2), lat=float(rng.uniform(-60, 60)),
                  lon=float(rng.uniform(-179, 179)))
        for i in range(100)
    ]
    events = [
        CorroborativeEvent(
            id=f"e{i}", ts_start=int(rng.integers(0, 5000)),
            ts_end=int(rng.integers(5000, 10_000)),
            lat=float(rng.uniform(-60, 60)), lon=float(rng.uniform(-179, 179)),
            radius_km=float(rng.uniform(50, 1000)),
            polarity="relevant" if rng.random() < 0.5 else "irrelevant",
        )
        for i in range(100)
    ]
    pad = 1200.0
    expected = {}
    for p in points:
        candidates = []
        for e in events:
            d = haversine_km(p.geo, (e.lat, e.lon))
            if d <= e.radius_km and e.ts_start - pad <= p.ts <= e.ts_end + pad:
                candidates.append((d, e.id, e.label))
        if candidates:
            candidates.sort()
            expected[p.id] = (candidates[0][1], candidates[0][2])
    got = {a.point_id: (a.event_id, a.label) for a in assign_labels(points, events, pad)}
    exact = got == expected

    half = haversine_km((0.0, 0.0), (0.0, 180.0))
    half_ok = abs(half - 20015.1) <= 0.1
    report(10, "labeling-oracle", exact and half_ok,
           f"{len(got)} assignments over 10^4 pairs match brute force exactly; "
           f"half circumference {half:.1f} km")


def test_11_replay_determinism(acceptance_run, tmp_path):
    again = replay(acceptance_run.gen.stream_path, acceptance_run.gen.corroborative_path,
                   acceptance_run.cfg, out_dir=tmp_path / "rerun")
    first = acceptance_run.result
    kb_same = first.knowledgebase.read_bytes() == again.knowledgebase.read_bytes()
    rep_same = first.reports.read_bytes() == again.reports.read_bytes()
    report(11, "determinism", kb_same and rep_same,
           f"knowledgebase identical: {kb_same}, reports identical: {rep_same}")


def test_12_reduction_without_corroboration(tmp_path):
    scfg = SynthConfig(schedule="sudden", n_windows=4, window_size=1500, dim=16,
                       seed=12, corroborative_fraction=0.0)
    gen = generate_synthetic(scfg, tmp_path / "zero")
    cfg = PipelineConfig(window_size=1500, dim=16, embed_mode="table",
                         table_path=str(gen.table_path), seed=12)
    result = replay(gen.stream_path, gen.corroborative_path, cfg,
                    out_dir=tmp_path / "zero" / "run")
    rows = result.report_rows
    ok = len(rows) > 0 and all(r.adaptive_f1 == r.static_f1 for r in rows)
    report(12, "reduction", ok,
           "adaptive == static exactly in windows " + ", ".join(str(r.window) for r in rows))


def test_13_weak_signal_event_histogram(acceptance_run):
    histo = json.loads(acceptance_run.result.events_histogram.read_text())
    total = sum(histo.values())
    small = sum(count for size, count in histo.items() if int(size) < 10)
    frac = small / total if total else 0.0
    report(13, "weak-signal-histogram", total > 0 and frac >= 0.95,
           f"{small}/{total} detected events have fewer than 10 posts ({100 * frac:.1f}%)")
