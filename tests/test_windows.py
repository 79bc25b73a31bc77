import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream.core import ConfigError, DataPoint, InputError, cosine_distance
from driftstream.windows import (
    DataWindow,
    DeltaBand,
    GENERALIZATION,
    INSIDE,
    OUTSIDE,
    band_membership,
    centroid_distances,
    empirical_delta_band,
)


def make_window(vectors, capacity=None, wid="w"):
    pts = [DataPoint(id=f"{wid}{i}", ts=i, text="", vec=np.asarray(v, dtype=float))
           for i, v in enumerate(vectors)]
    return DataWindow(pts, capacity=capacity or max(len(pts), 1), window_id=wid)


class TestDataWindow:
    def test_centroid_is_mean(self):
        w = make_window([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(w.centroid, [2.0 / 3.0, 2.0 / 3.0])

    def test_capacity_eviction_oldest_first(self):
        w = make_window([[1.0], [2.0], [3.0]], capacity=3)
        w.append(DataPoint(id="new", ts=9, text="", vec=np.array([4.0])))
        assert [p.id for p in w.points] == ["w1", "w2", "new"]
        np.testing.assert_allclose(w.centroid, [3.0])

    def test_incremental_centroid_matches_batch(self):
        rng = np.random.default_rng(5)
        w = DataWindow(capacity=64)
        for i in range(500):
            w.append(DataPoint(id=str(i), ts=i, text="", vec=rng.standard_normal(8)))
            batch = np.mean([p.vec for p in w.points], axis=0)
            np.testing.assert_allclose(w.centroid, batch, atol=1e-9)

    def test_cached_centroid_is_read_only_and_follows_appends(self):
        w = make_window([[3.0, 4.0]], capacity=4)
        assert w.centroid is w.centroid and w.centroid_and_norm()[1] == 5.0
        with pytest.raises(ValueError, match="read-only"):
            w.centroid[0] = 1.0
        distances = centroid_distances(w)
        assert centroid_distances(w) is distances and distances.tolist() == [0.0]
        with pytest.raises(ValueError, match="read-only"):
            distances[0] = 1.0
        w.append(DataPoint(id="new", ts=9, text="", vec=np.array([-3.0, 4.0])))
        assert w.centroid.tolist() == [0.0, 4.0] and w.centroid_and_norm()[1] == 4.0
        # cos = 16 / (5 * 4) = 0.8 for both points against the new centroid
        assert centroid_distances(w).tolist() == pytest.approx([0.1, 0.1])
        restored = DataWindow.restore(w.points, [0.0, 8.0], capacity=4, window_id="r")
        assert restored.centroid.tolist() == [0.0, 4.0] and restored.centroid_and_norm()[1] == 4.0

    @given(rows=st.integers(1, 12).flatmap(lambda d: st.lists(
               st.lists(st.sampled_from([-0.0, 0.0, 1e308, -1e-310])
                        | st.floats(-1e6, 1e6, allow_subnormal=True),
                        min_size=d, max_size=d),
               min_size=1, max_size=40)),
           spare=st.integers(0, 3))
    @example(rows=[[-0.0, 1.0], [-0.0, -0.0]], spare=0)  # appending starts from +0.0
    @example(rows=[[1e16]] + [[1.0]] * 14 + [[-1e16]], spare=0)  # each 1.0 is lost, in order
    @settings(max_examples=300, deadline=None)
    def test_built_window_is_the_appended_window(self, rows, spare):
        # the constructor sums the points from zeros, in order: every bit as appending
        # them one by one, full windows (spare 0) and -0.0 included
        block = np.array(rows, dtype=np.float64)
        block.flags.writeable = False
        points = [DataPoint.from_checked(f"p{i}", i, "", row, None, None)
                  for i, row in enumerate(block)]
        capacity = len(points) + spare
        with np.errstate(over="ignore", invalid="ignore"):  # sums of 1e308 overflow
            appended = DataWindow(capacity=capacity, window_id="w")
            for p in points:
                appended.append(p)
            built = DataWindow(points, capacity=capacity, window_id="w")
            assert built.points == appended.points and built.capacity == capacity
            assert built._vec_sum.tobytes() == appended._vec_sum.tobytes()
            (c1, n1), (c2, n2) = built.centroid_and_norm(), appended.centroid_and_norm()
            assert c1.tobytes() == c2.tobytes() and struct.pack("<d", n1) == struct.pack("<d", n2)
            assert centroid_distances(built).tobytes() == centroid_distances(appended).tobytes()

    @pytest.mark.parametrize("capacity", [3, 4])
    def test_built_window_refuses_a_point_of_another_width(self, capacity):
        points = [DataPoint(id=f"p{i}", ts=i, text="", vec=np.zeros(w))
                  for i, w in enumerate([2, 2, 1])]
        with pytest.raises(InputError, match=r"point p2 of width 1 in window 'w' of width 2"):
            DataWindow(points, capacity=capacity, window_id="w")

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_built_window_refuses_more_points_than_its_capacity(self, capacity):
        # as a restored window does: the constructor never evicts
        points = [DataPoint(id=f"p{i}", ts=i, text="", vec=np.zeros(2)) for i in range(3)]
        message = rf"^3 points exceed window capacity {capacity}$"
        with pytest.raises(InputError, match=message):
            DataWindow(points, capacity=capacity, window_id="w")
        with pytest.raises(InputError, match=message):
            DataWindow.restore(points, np.zeros(2), capacity=capacity, window_id="w")

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_point_of_another_width_is_refused(self, capacity):
        w = make_window([[1.0, 0.0, 0.0]], capacity=capacity)
        narrow = DataPoint(id="narrow", ts=9, text="", vec=np.array([2.0]))
        with pytest.raises(InputError, match=r"point narrow of width 1 in window 'w' of width 3"):
            w.append(narrow)
        # the refused point changed nothing
        assert [p.id for p in w.points] == ["w0"] and w.centroid.tolist() == [1.0, 0.0, 0.0]


class TestCentroidDistances:
    def test_single_point_distance_zero(self):
        w = make_window([[0.2, 0.7]])
        np.testing.assert_allclose(centroid_distances(w), [0.0], atol=1e-12)

    def test_antipodal_pair_zero_centroid(self):
        w = make_window([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(centroid_distances(w), [0.5, 0.5])

    def test_three_unit_vectors_match_direct_formula(self):
        vecs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                np.array([0.6, 0.0, 0.8])]
        w = make_window(vecs)
        centroid = sum(vecs) / 3.0
        expected = [cosine_distance(v, centroid) for v in vecs]
        np.testing.assert_allclose(centroid_distances(w), expected, atol=1e-12)


class TestEmpiricalBand:
    def test_full_mass_is_min_max(self):
        d = [0.31, 0.05, 0.77, 0.42]
        band = empirical_delta_band(d, 1.0)
        assert (band.lo, band.hi) == (0.05, 0.77)

    def test_decile_sample_band(self):
        band = empirical_delta_band([round(0.1 * i, 1) for i in range(1, 11)], 0.6)
        assert (band.lo, band.hi) == (pytest.approx(0.25), pytest.approx(0.85))

    @given(
        # a coarse grid draws ties as often as distinct values
        st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 20).map(lambda i: i / 20)),
                 min_size=1, max_size=400),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @example([round(0.1 * i, 1) for i in range(1, 11)], 0.6)
    @settings(max_examples=300, deadline=None)
    def test_band_ends_match_brute_force_quantiles(self, d, delta):
        def brute_quantile(sample, p):
            s = sorted(sample)
            n = len(s)
            h = n * p + 0.5  # 1-based Hazen plotting position, evaluated independently
            if h <= 1.0:
                return s[0]
            if h >= n:
                return s[-1]
            k = int(math.floor(h))
            g = h - k
            return s[k - 1] + g * (s[k] - s[k - 1])

        band = empirical_delta_band(d, delta)
        assert abs(band.lo - brute_quantile(d, (1.0 - delta) / 2.0)) <= 1e-15
        assert abs(band.hi - brute_quantile(d, (1.0 + delta) / 2.0)) <= 1e-15

    @pytest.mark.parametrize("d", [
        [0.1, 0.2, 0.3, 0.4, math.nan], [0.2, 0.3, 1.5], [-0.1, 0.5], [0.5, math.inf],
    ])
    @pytest.mark.parametrize("delta", [0.2, 0.9])
    def test_refuses_distance_outside_unit_interval(self, d, delta):
        with pytest.raises(InputError, match=r"distance outside \[0, 1\]"):
            empirical_delta_band(d, delta)

    def test_constant_sample_degenerate_band(self):
        band = empirical_delta_band([0.4] * 7, 0.6)
        assert band.lo == band.hi == 0.4
        assert band_membership(band, 0.4, 0.5) == INSIDE

    @given(
        # distinct values on a fine grid: ties degenerate the band to a point,
        # and ULP-adjacent values leave interpolation nothing to land on
        st.lists(st.integers(0, 10**9), min_size=1, max_size=400, unique=True),
        st.sampled_from([0.3, 0.6, 0.9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_band_mass_within_one_over_n(self, grid_values, delta):
        d = np.array(grid_values, dtype=np.float64) / 1e9
        band = empirical_delta_band(d, delta)
        mass = np.mean((d >= band.lo) & (d <= band.hi))
        assert abs(mass - delta) <= 1.0 / len(d) + 1e-9

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_band_monotone_in_delta(self, data):
        d = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=100))
        d1 = data.draw(st.floats(0.05, 0.95))
        d2 = data.draw(st.floats(d1, 1.0))
        small = empirical_delta_band(d, d1)
        large = empirical_delta_band(d, d2)
        assert large.lo <= small.lo + 1e-12
        assert small.hi <= large.hi + 1e-12


class TestDeltaBand:
    def test_fields_are_the_checkpoint_record(self):
        # a checkpoint writes a band as its fields, so they are its record's keys
        assert [f.name for f in fields(DeltaBand)] == ["delta", "lo", "hi"]

    @pytest.mark.parametrize("delta,lo,hi", [(1.0, 0.0, 1.0), (0.6, 0.3, 0.3), (1e-9, 0.0, 0.0)])
    def test_closed_ends_accepted(self, delta, lo, hi):
        band = DeltaBand(delta, lo, hi)
        assert (band.delta, band.lo, band.hi) == (delta, lo, hi)

    BAD = {
        "delta_zero": (0.0, 0.1, 0.4),
        "delta_over_one": (1.5, 0.1, 0.4),
        "delta_nan": (math.nan, 0.1, 0.4),
        "delta_bool": (True, 0.1, 0.4),
        "lo_negative": (0.6, -0.1, 0.4),
        "lo_nan": (0.6, math.nan, 0.4),
        "lo_string": (0.6, "0.1", 0.4),
        "hi_over_one": (0.6, 0.1, 1.5),
        "hi_null": (0.6, 0.1, None),
        "lo_above_hi": (0.6, 0.5, 0.4),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_refused(self, case):
        with pytest.raises(InputError, match="bad band"):
            DeltaBand(*self.BAD[case])


class TestBandMembership:
    def test_inside(self):
        assert band_membership(DeltaBand(0.6, 0.4, 0.6), 0.5, 0.7) == INSIDE

    def test_generalization(self):
        assert band_membership(DeltaBand(0.6, 0.4, 0.6), 0.65, 0.7) == GENERALIZATION

    def test_outside_beyond_lambda(self):
        assert band_membership(DeltaBand(0.6, 0.4, 0.6), 0.9, 0.7) == OUTSIDE

    def test_inner_region_is_outside(self):
        assert band_membership(DeltaBand(0.6, 0.4, 0.6), 0.1, 0.7) == OUTSIDE

    def test_boundaries(self):
        band = DeltaBand(0.6, 0.4, 0.6)
        assert band_membership(band, 0.4, 0.7) == OUTSIDE  # lo is exclusive
        assert band_membership(band, 0.6, 0.7) == GENERALIZATION  # hi starts the margin
        assert band_membership(band, 0.7, 0.7) == OUTSIDE  # lambda is exclusive

    def test_lambda_below_hi_rejected(self):
        with pytest.raises(ConfigError):
            band_membership(DeltaBand(0.6, 0.4, 0.6), 0.5, 0.55)
