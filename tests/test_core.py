import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftstream.core import (
    ConfigError,
    DataPoint,
    Embedder,
    EmbedderConfig,
    InputError,
    centroid_cosine_distances,
    cosine_distance,
    embed,
    tokenize,
)


class TestDataPoint:
    def test_valid_point(self):
        p = DataPoint(id="a", ts=0, text="hi", vec=np.ones(4), lat=10.0, lon=20.0)
        assert p.geo == (10.0, 20.0)

    def test_geo_optional(self):
        p = DataPoint(id="a", ts=0, text="", vec=np.zeros(3))
        assert p.geo is None

    def test_lat_out_of_range(self):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.zeros(3), lat=91.0, lon=0.0)

    @pytest.mark.parametrize("lat,lon", [(True, False), (1.0, True), (False, 0.0)])
    def test_boolean_coordinates_rejected(self, lat, lon):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.zeros(3), lat=lat, lon=lon)

    def test_label_requires_source(self):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.zeros(3), label=1)

    def test_nonfinite_vec_rejected(self):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.array([1.0, np.nan]))

    def test_with_label_copies(self):
        p = DataPoint(id="a", ts=0, text="", vec=np.zeros(3))
        q = p.with_label(1, "corroborative")
        assert p.label is None and q.label == 1 and q.label_source == "corroborative"


class TestEmbed:
    def test_empty_text_is_zero_vector(self):
        cfg = EmbedderConfig(dim=8)
        assert np.array_equal(embed("", cfg), np.zeros(8))

    def test_deterministic(self):
        cfg = EmbedderConfig(dim=32)
        a = embed("landslide in Austin", cfg)
        b = embed("landslide in Austin", cfg)
        assert np.array_equal(a, b)

    def test_single_token_is_one_hot_unit(self):
        # one token hits one bucket with weight +-1; normalization makes the
        # single nonzero component exactly magnitude 1
        vec = embed("flood", EmbedderConfig(dim=4, hash_seed=0))
        nonzero = np.flatnonzero(vec)
        assert len(nonzero) == 1
        assert abs(vec[nonzero[0]]) == pytest.approx(1.0, abs=0)

    def test_normalized_when_nonzero(self):
        vec = embed("flood in the valley after rain", EmbedderConfig(dim=16))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_tokenize_lowercase_nonalnum_split(self):
        assert tokenize("Flood, in-Austin!2024") == ["flood", "in", "austin", "2024"]

    def test_seed_changes_vectors(self):
        a = embed("flood warning", EmbedderConfig(dim=64, hash_seed=0))
        b = embed("flood warning", EmbedderConfig(dim=64, hash_seed=1))
        assert not np.array_equal(a, b)

    def test_table_mode_averages_and_skips_unknown(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("flood 1.0 0.0\nrain 0.0 1.0\n")
        cfg = EmbedderConfig(dim=2, mode="table", table_path=str(table))
        vec = Embedder(cfg).embed("flood rain unknowntoken")
        expected = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        np.testing.assert_allclose(vec, expected)

    def test_table_missing_file_is_config_error(self, tmp_path):
        cfg = EmbedderConfig(dim=2, mode="table", table_path=str(tmp_path / "nope.tsv"))
        with pytest.raises(ConfigError):
            Embedder(cfg)

    def test_table_bad_width_is_config_error(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("flood 1.0 0.0 0.0\n")
        with pytest.raises(ConfigError):
            Embedder(EmbedderConfig(dim=2, mode="table", table_path=str(table)))

    @pytest.mark.parametrize("value", ["x", "1,5", "nan", "inf", "-Infinity", "1e999"])
    def test_table_bad_value_is_config_error_with_line(self, tmp_path, value):
        table = tmp_path / "emb.tsv"
        table.write_text(f"rain 0.0 1.0\n\nflood 1.0 {value}\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:3: "):
            Embedder(EmbedderConfig(dim=2, mode="table", table_path=str(table)))

    @given(st.text(max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_pure_function_of_text(self, text):
        cfg = EmbedderConfig(dim=16)
        assert np.array_equal(embed(text, cfg), embed(text, cfg))


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 1.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_antiparallel(self):
        v = np.array([0.5, 2.0, -1.0])
        assert cosine_distance(v, -v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_gives_half(self):
        assert cosine_distance(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cosine_distance(np.ones(3), np.ones(4))

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        a, b = np.array(a), np.array(b)
        d1 = cosine_distance(a, b)
        d2 = cosine_distance(b, a)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert -1e-12 <= d1 <= 1.0 + 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    @example(a=[0.0, 0.0, 0.0, 2.27e-162], scale=4.0)
    def test_positive_scaling_invariance(self, a, scale):
        a = np.array(a)
        # a product that lands below the smallest normal float loses bits or
        # becomes 0 (5e-324 * 0.5 == 0.0), so a * scale is then no positive
        # multiple of a and the property does not apply
        scaled = np.abs(a * scale)
        assume(np.all((a == 0.0) | (scaled >= np.finfo(np.float64).tiny)))
        b = np.array([1.0, -2.0, 0.5, 3.0])
        assert cosine_distance(a, b) == pytest.approx(
            cosine_distance(a * scale, b), abs=1e-9
        )

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((20, 5))
        # rows whose squared components underflow, and a true zero row
        vectors = np.vstack([vectors, [0.0, 0.0, 0.0, 0.0, 2.27e-162],
                             [1e-170, -3e-170, 0.0, 0.0, 0.0], np.zeros(5)])
        centroid = rng.standard_normal(5)
        batch = centroid_cosine_distances(vectors, centroid)
        scalar = [cosine_distance(v, centroid) for v in vectors]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)
