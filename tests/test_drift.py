import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import drift, windows
from driftstream.core import DataPoint, InputError
from driftstream.drift import (
    detect_drift,
    histogram,
    kl_divergence,
    smooth_zero_bins,
    smoothing_points,
)
from driftstream.windows import DataWindow, centroid_distances, empirical_delta_band, in_band


def make_window(vectors, wid="w", capacity=None):
    pts = [DataPoint(id=f"{wid}{i}", ts=i, text="", vec=np.asarray(v, dtype=float))
           for i, v in enumerate(vectors)]
    return DataWindow(pts, capacity=capacity or len(pts), window_id=wid)


def cluster(rng, center, n, noise=0.05):
    return center + noise * rng.standard_normal((n, len(center)))


class TestHistogram:
    def test_all_zero_distances(self):
        h = histogram([0.0, 0.0, 0.0], bins=4)
        np.testing.assert_allclose(h, [1.0, 0.0, 0.0, 0.0])

    def test_symmetric_split(self):
        h = histogram([0.1, 0.9], bins=2)
        np.testing.assert_allclose(h, [0.5, 0.5])

    def test_edge_rule_one_in_last_bin(self):
        h = histogram([0.0, 0.25, 0.5, 1.0], bins=4)
        np.testing.assert_allclose(h, [0.25, 0.25, 0.25, 0.25])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            histogram([0.5, 1.2], bins=4)
        with pytest.raises(InputError):
            histogram([-0.1], bins=4)

    @pytest.mark.parametrize("bins", [1, 2.5, 3.0, True])
    def test_bins_not_an_integer_of_at_least_2_rejected(self, bins):
        with pytest.raises(InputError, match=r"bins .* is not an integer >= 2"):
            histogram([0.5, 0.9], bins)

    def test_nan_rejected(self):
        with pytest.raises(InputError, match=r"distance outside \[0, 1\]"):
            histogram([0.5, float("nan")], bins=4)

    def test_is_a_float64_probability_array(self):
        h = histogram([0.1, 0.2, 0.9], bins=4)
        assert h.dtype == np.float64 and h.shape == (4,)
        np.testing.assert_array_equal(h, np.array([2, 0, 0, 1]) / 3)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=100), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, distances, rnd):
        shuffled = list(distances)
        rnd.shuffle(shuffled)
        np.testing.assert_allclose(
            histogram(distances, 16), histogram(shuffled, 16), atol=1e-12
        )

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_probabilities_sum_to_one(self, distances):
        h = histogram(distances, 8)
        assert float(h.sum()) == pytest.approx(1.0, abs=1e-9)


class TestSmoothZeroBins:
    def test_no_zeros_unchanged(self):
        pa = histogram([0.1, 0.4, 0.6, 0.9], bins=2)
        pb = histogram([0.2, 0.8], bins=2)
        sa, sb = smooth_zero_bins(pa, pb)
        np.testing.assert_allclose(sa, pa)
        np.testing.assert_allclose(sb, pb)

    def test_worked_substitution(self):
        pa = np.array([0.5, 0.5, 0.0, 0.0])
        pb = np.array([0.25, 0.25, 0.25, 0.25])
        sa, sb = smooth_zero_bins(pa, pb)
        np.testing.assert_allclose(sa, [1 / 3, 1 / 3, 1 / 6, 1 / 6])
        np.testing.assert_allclose(sb, [0.25, 0.25, 0.25, 0.25])

    def test_identical_inputs_stay_identical(self):
        pa = np.array([0.7, 0.0, 0.3, 0.0])
        sa, sb = smooth_zero_bins(pa, pa)
        np.testing.assert_allclose(sa, sb)

    def test_outputs_sum_to_one(self):
        pa = np.array([1.0, 0.0, 0.0])
        pb = np.array([0.0, 0.5, 0.5])
        sa, sb = smooth_zero_bins(pa, pb)
        assert float(sa.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(sb.sum()) == pytest.approx(1.0, abs=1e-9)


class TestHistogramChecks:
    """smooth_zero_bins and kl_divergence refuse a bad histogram on either side."""

    @pytest.mark.parametrize("bad,message", [
        ([1.2, -0.2], "negative or NaN bin probability"),
        ([0.5, float("nan"), 0.5], "negative or NaN bin probability"),
        ([0.5, 0.4], "sum to 0.9"),
        ([0.5, float("inf")], "sum to inf"),
        ([[0.25, 0.25], [0.25, 0.25]], "at least 2 bins"),
        ([1.0], "at least 2 bins"),
        ([1 / 3, 1 / 3, 1 / 3], "different bin counts"),
    ])
    @pytest.mark.parametrize("fn", [smooth_zero_bins, kl_divergence])
    def test_refused(self, fn, bad, message):
        for pair in ((bad, [0.5, 0.5]), ([0.5, 0.5], bad)):
            with pytest.raises(InputError, match=message):
                fn(*map(np.array, pair))


class TestKLDivergence:
    def test_identical_is_zero(self):
        h = histogram([0.1, 0.5, 0.9, 0.3], bins=8)
        assert kl_divergence(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_worked_pair(self):
        pa = np.array([0.5, 0.5])
        pb = np.array([0.9, 0.1])
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert expected == pytest.approx(0.51083, abs=1e-5)
        assert kl_divergence(pa, pb) == pytest.approx(expected, abs=1e-12)

    def test_asymmetry(self):
        pa = np.array([0.5, 0.5])
        pb = np.array([0.9, 0.1])
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert expected == pytest.approx(0.36807, abs=1e-5)
        assert kl_divergence(pb, pa) == pytest.approx(expected, abs=1e-12)

    def test_one_sided_zero_is_contract_violation(self):
        pa = np.array([1.0, 0.0])
        pb = np.array([0.5, 0.5])
        with pytest.raises(InputError):
            kl_divergence(pa, pb)

    def test_shared_zero_bins_allowed(self):
        pa = np.array([0.6, 0.4, 0.0])
        pb = np.array([0.2, 0.8, 0.0])
        assert kl_divergence(pa, pb) > 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(16) + 1e-6
        b = rng.random(16) + 1e-6
        pa = a / a.sum()
        pb = b / b.sum()
        assert kl_divergence(pa, pb) >= 0.0


class TestDetectDrift:
    def test_identical_windows_not_drifted(self):
        rng = np.random.default_rng(2)
        w = make_window(cluster(rng, np.array([1.0, 0.0, 0.0, 0.0]), 200))
        verdict = detect_drift(w, w, delta=0.6, threshold=0.05)
        assert verdict.kl == pytest.approx(0.0, abs=1e-12)
        assert not verdict.drifted

    def test_stationary_windows_not_drifted(self):
        center = np.zeros(8)
        center[0] = 1.0
        flags = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            prior = make_window(cluster(rng, center, 400, noise=0.2), wid="p")
            live = make_window(cluster(rng, center, 400, noise=0.2), wid="l")
            flags.append(detect_drift(prior, live, 0.6, 0.05).drifted)
        assert sum(flags) <= 1  # at most 5% of 20 trials

    def test_shifted_window_drifts(self):
        rng = np.random.default_rng(4)
        center = np.zeros(8)
        center[0] = 1.0
        prior = make_window(cluster(rng, center, 500, noise=0.1), wid="p")
        moved = np.zeros(8)
        moved[1] = 1.0
        mixed = np.vstack([
            cluster(rng, center, 250, noise=0.1),
            cluster(rng, moved, 250, noise=0.1),
        ])
        live = make_window(mixed, wid="l")
        verdict = detect_drift(prior, live, 0.6, 0.05)
        assert verdict.drifted and verdict.kl > 0.05

    def test_band_is_closed_at_tied_edges(self):
        # the prior's distances tie at both band edges: the closed rule lo <= d <= hi
        # keeps all 15 of them, in_band's open rule would keep only 5
        angles = np.repeat([0.0, 0.6, 1.2], 5)
        prior = make_window(np.column_stack([np.cos(angles), np.sin(angles)]), wid="p")
        angles = np.linspace(0.0, 1.4, 15)
        live = make_window(np.column_stack([np.cos(angles), np.sin(angles)]), wid="l")

        def kept(window, closed):
            d = centroid_distances(window)
            band = empirical_delta_band(d, 0.6)
            return d[(d >= band.lo) & (d <= band.hi)] if closed else d[in_band(band, d)]

        def kl(closed):
            return kl_divergence(*smooth_zero_bins(histogram(kept(prior, closed), 32),
                                                   histogram(kept(live, closed), 32)))

        assert (len(kept(prior, True)), len(kept(prior, False))) == (15, 5)
        assert (round(kl(True), 4), round(kl(False), 4)) == (0.0572, 0.0112)
        assert detect_drift(prior, live, 0.6, 0.05, 32).kl == kl(True)

    def test_verdict_fields(self):
        rng = np.random.default_rng(6)
        w1 = make_window(cluster(rng, np.array([1.0, 0.0]), 50), wid="prior")
        w2 = make_window(cluster(rng, np.array([1.0, 0.0]), 50), wid="live")
        verdict = detect_drift(w1, w2, 0.6, 0.05)
        assert (verdict.prior_id, verdict.live_id) == ("prior", "live")
        assert verdict.ts == w2.points[-1].ts
        assert verdict.drifted == (verdict.kl > verdict.threshold)
        # the fields, in order, are the verdict-log row replay writes
        assert list(vars(verdict)) == ["ts", "prior_id", "live_id", "kl", "threshold", "drifted"]

    def test_smoothing_period_withholds_verdict(self):
        rng = np.random.default_rng(8)
        w1 = make_window(cluster(rng, np.array([1.0, 0.0]), 100), wid="p")
        live = cluster(rng, np.array([0.0, 1.0]), 100)
        assert smoothing_points(100) == 10
        assert detect_drift(w1, make_window(live[:9], "l", capacity=100), 0.6, 0.05) is None
        assert detect_drift(w1, make_window(live[:10], "l", capacity=100), 0.6, 0.05) is not None

    def test_live_window_distances_are_computed_once_for_every_prior(self, monkeypatch):
        rng = np.random.default_rng(12)
        priors = [make_window(cluster(rng, np.array([1.0, 0.0]), 40), wid=f"p{i}")
                  for i in range(3)]
        live = make_window(cluster(rng, np.array([0.8, 0.6]), 40), wid="l")
        computed = []
        original = windows.centroid_cosine_distances

        def counted(vectors, centroid):
            computed.append(len(vectors))
            return original(vectors, centroid)

        monkeypatch.setattr(windows, "centroid_cosine_distances", counted)
        verdicts = [detect_drift(prior, live, 0.6, 0.05) for prior in priors]
        assert computed == [40, 40, 40, 40]  # the first prior, the live window, two priors
        assert [detect_drift(prior, live, 0.6, 0.05) for prior in priors] == verdicts
        assert len(computed) == 4

    def test_windows_of_different_widths_rejected(self, monkeypatch):
        rng = np.random.default_rng(3)
        prior = make_window(cluster(rng, np.array([1.0, 0.0]), 50), wid="p")
        live = make_window(cluster(rng, np.eye(7)[0], 50), wid="l")

        def no_distance(window):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(drift, "centroid_distances", no_distance)
        with pytest.raises(InputError, match="window 'p' of width 2 against window 'l' of width 7"):
            detect_drift(prior, live, 0.6, 0.05)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        w1 = make_window(cluster(rng, np.array([1.0, 0.0, 0.0]), 120), wid="p")
        w2 = make_window(cluster(rng, np.array([0.8, 0.1, 0.0]), 120), wid="l")
        v1 = detect_drift(w1, w2, 0.6, 0.05)
        v2 = detect_drift(w1, w2, 0.6, 0.05)
        assert v1.kl == v2.kl and v1.drifted == v2.drifted

    def test_empty_window_rejected(self):
        rng = np.random.default_rng(1)
        w = make_window(cluster(rng, np.array([1.0, 0.0]), 10))
        with pytest.raises(InputError):
            detect_drift(w, DataWindow(capacity=5), 0.6, 0.05)
