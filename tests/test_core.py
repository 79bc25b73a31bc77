import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftstream import core
from driftstream.core import (
    ConfigError,
    DataPoint,
    Embedder,
    EmbedderConfig,
    InputError,
    _read_table_blocks,
    _read_table_lines,
    centroid_cosine_distances,
    cosine_distance,
    load_embedding_table,
    tokenize,
    vector_norm,
)
from helpers import reference_cosine_distance, reference_embed


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

    @pytest.mark.parametrize("label", [True, False, 2, -1, 1.0, "1"])
    def test_label_other_than_zero_or_one_rejected(self, label):
        with pytest.raises(InputError, match="point a: label"):
            DataPoint(id="a", ts=0, text="", vec=np.zeros(3), label=label)

    def test_nonfinite_vec_rejected(self):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.array([1.0, np.nan]))

    def test_with_label_copies(self):
        p = DataPoint(id="a", ts=0, text="", vec=np.zeros(3))
        q = p.with_label(1)
        assert p.label is None and q.label == 1


class TestEmbed:
    def test_empty_text_is_zero_vector(self):
        cfg = EmbedderConfig(dim=8)
        assert np.array_equal(Embedder(cfg).embed(""), np.zeros(8))

    def test_deterministic(self):
        cfg = EmbedderConfig(dim=32)
        a = Embedder(cfg).embed("landslide in Austin")
        b = Embedder(cfg).embed("landslide in Austin")
        assert np.array_equal(a, b)

    def test_single_token_is_one_hot_unit(self):
        # one token hits one bucket with weight +-1; normalization makes the
        # single nonzero component exactly magnitude 1
        vec = Embedder(EmbedderConfig(dim=4, hash_seed=0)).embed("flood")
        nonzero = np.flatnonzero(vec)
        assert len(nonzero) == 1
        assert abs(vec[nonzero[0]]) == pytest.approx(1.0, abs=0)

    def test_normalized_when_nonzero(self):
        vec = Embedder(EmbedderConfig(dim=16)).embed("flood in the valley after rain")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_tokenize_lowercase_nonalnum_split(self):
        assert tokenize("Flood, in-Austin!2024") == ["flood", "in", "austin", "2024"]

    def test_seed_changes_vectors(self):
        a = Embedder(EmbedderConfig(dim=64, hash_seed=0)).embed("flood warning")
        b = Embedder(EmbedderConfig(dim=64, hash_seed=1)).embed("flood warning")
        assert not np.array_equal(a, b)

    def test_table_mode_averages_and_skips_unknown(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("flood 1.0 0.0\nrain 0.0 1.0\n")
        cfg = EmbedderConfig(dim=2, embed_mode="table", table_path=str(table))
        vec = Embedder(cfg).embed("flood rain unknowntoken")
        expected = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        np.testing.assert_allclose(vec, expected)

    def test_table_missing_file_is_config_error(self, tmp_path):
        cfg = EmbedderConfig(dim=2, embed_mode="table", table_path=str(tmp_path / "nope.tsv"))
        with pytest.raises(ConfigError):
            Embedder(cfg)

    def test_table_bad_width_is_config_error(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("flood 1.0 0.0 0.0\n")
        with pytest.raises(ConfigError):
            Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))

    @pytest.mark.parametrize("value", ["x", "1,5", "nan", "inf", "-Infinity", "1e999"])
    def test_table_bad_value_is_config_error_with_line(self, tmp_path, value):
        table = tmp_path / "emb.tsv"
        table.write_text(f"rain 0.0 1.0\n\nflood 1.0 {value}\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:3: "):
            Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))

    def test_table_duplicate_token_is_config_error_naming_both_lines(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("flood 1 0\nrain 0 1\n\nflood 0 1\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:4: duplicate token 'flood', "
                                              r"first on line 1"):
            Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_table_lines_end_only_at_newlines(self, tmp_path, newline):
        # a trailing U+2028 or U+0085 is whitespace in its row, not a line end,
        # so line numbers count newlines only
        table = tmp_path / "emb.tsv"
        rows = ["flood 1.0 0.0\u2028", "rain 0.0 1.0\x85", "", "wind 1.0 nan"]
        table.write_bytes(newline.join(rows).encode("utf-8"))
        with pytest.raises(ConfigError, match=r"emb\.tsv:4: non-finite value"):
            Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))
        table.write_bytes(newline.join(rows[:3]).encode("utf-8"))
        embedder = Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))
        np.testing.assert_array_equal(embedder.embed("flood"), [1.0, 0.0])
        np.testing.assert_array_equal(embedder.embed("rain"), [0.0, 1.0])

    @given(st.text(max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_pure_function_of_text(self, text):
        cfg = EmbedderConfig(dim=16)
        assert np.array_equal(Embedder(cfg).embed(text), Embedder(cfg).embed(text))


# Table values whose means round, cancel, hold a negative zero, or overflow.
EMBED_TABLE = {
    "flood": [0.1, -0.0, 3.0],
    "rain": [0.2, -0.0, -3.0],
    "wind": [1e-300, 2.5e-310, 0.7],
    "fire": [-0.1, 1e308, 1.0 / 3.0],
    "heat": [0.3, 1e308, -2.0 / 3.0],
    "zero": [0.0, 0.0, 0.0],
}


@pytest.fixture(scope="module")
def embedders(tmp_path_factory):
    table = tmp_path_factory.mktemp("embed") / "emb.tsv"
    table.write_text("".join(f"{t} {' '.join(map(repr, v))}\n" for t, v in EMBED_TABLE.items()))
    return [
        Embedder(EmbedderConfig(dim=3, embed_mode="table", table_path=str(table))),
        Embedder(EmbedderConfig(dim=3, hash_seed=7)),  # few buckets: tokens collide and cancel
        Embedder(EmbedderConfig(dim=64)),
    ]


class TestEmbedAll:
    texts = st.lists(
        st.lists(st.sampled_from([*EMBED_TABLE, "unknown", "Flood", "rain,", "_", "ñandú"]),
                 max_size=6).map(" ".join)
        | st.text(max_size=20),
        max_size=12,
    )

    @given(texts=texts)
    @settings(max_examples=150, deadline=None)
    def test_rows_bit_equal_to_text_by_text(self, embedders, texts):
        for embedder in embedders:
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 rows overflow
                block = embedder.embed_all(texts)
                assert block.shape == (len(texts), embedder.cfg.dim)
                for text, row in zip(texts, block):
                    assert row.tobytes() == reference_embed(embedder, text).tobytes()
                    assert embedder.embed(text).tobytes() == row.tobytes()

    def test_overflowing_mean_gives_non_finite_row(self, embedders):
        with pytest.warns(RuntimeWarning):  # overflow in the mean, then inf / inf
            block = embedders[0].embed_all(["flood", "fire heat", ""])
        assert np.isfinite(block[0]).all() and not np.isfinite(block[1]).all()
        assert block[2].tobytes() == np.zeros(3).tobytes()

    def test_finite_row_with_overflowing_norm_keeps_its_direction(self, tmp_path):
        table = tmp_path / "big.tsv"
        table.write_text("a 1e200 1e200\n")
        embedder = Embedder(EmbedderConfig(dim=2, embed_mode="table", table_path=str(table)))
        with np.errstate(over="ignore"):
            vec = embedder.embed("a")
        assert vec.tolist() == [1 / np.sqrt(2)] * 2


def write_table(path, data: str, newline: str) -> None:
    path.write_bytes(data.replace("\n", newline).encode("utf-8"))


def table_result(read, path, dim):
    """The table as {token: vector bytes}, or the ConfigError text."""
    try:
        return {t: v.tobytes() for t, v in read(path, dim).items()}
    except ConfigError as exc:
        return str(exc)


VALID_VALUES = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.integers(-10**20, 10**20).map(str)
                | st.sampled_from(["-0.0", "+1.5", ".5", "5.", "1E5", "1e-400", "007"]))
# float() takes these and numpy's C reader does not
FLOAT_ONLY_VALUES = st.sampled_from(["1_0", "-2_5.0", "\u0661\u0662", "\uff11.5", "\u0969e2"])
BAD_VALUES = st.sampled_from(["#", "#1", "0x10", "1e", "nan", "-inf", "1e400", "1,5", '"1"',
                              "Infinity", "1\x00", "1__0", "_1"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2028", "\x85",
                              "\x1c", " \t"])
TOKENS = st.sampled_from(["flood", "rain", "wind", '"quoted"', '"a', 'b"', "1.5", "#", "x\x00"])


@st.composite
def table_texts(draw):
    """(file text with \\n line ends, dim) of a table mixing plain rows with
    rows of odd separators, number spellings, tokens and widths, duplicate
    tokens and blank lines."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["plain", "plain", "spelled", "spaced", "odd", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u2028", "\u2028\u2028", "\x85"])))
            continue
        token, values, sep = draw(TOKENS), VALID_VALUES, " "
        if kind == "spelled":
            values = VALID_VALUES | FLOAT_ONLY_VALUES
        elif kind == "spaced":
            sep = draw(SEPARATORS)
        width = dim
        if kind == "odd":
            token = draw(TOKENS | st.text(st.characters(codec="utf-8"), min_size=1, max_size=3))
            values = VALID_VALUES | FLOAT_ONLY_VALUES | BAD_VALUES
            sep = draw(SEPARATORS)
            width = draw(st.integers(0, dim + 1))
        fields = [token, *draw(st.lists(values, min_size=width, max_size=width))]
        lines.append(draw(st.sampled_from(["", " ", "\u2028"])) + sep.join(fields))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join(lines) + draw(st.sampled_from(["", "\n"])), dim


class TestTableReader:
    @given(table=table_texts(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           chunk=st.sampled_from([1, 40, 1 << 20]))
    @settings(max_examples=400, deadline=None)
    def test_block_reader_agrees_with_line_reader(self, tmp_path_factory, table, newline, chunk):
        text, dim = table
        path = tmp_path_factory.getbasetemp() / "differential.tsv"
        write_table(path, text, newline)
        with mock.patch.object(core, "_TABLE_CHUNK_BYTES", chunk):
            got = table_result(load_embedding_table, path, dim)
            taken = _read_table_blocks(path, dim)
        assert got == table_result(_read_table_lines, path, dim)
        if taken is not None:  # what the block reader takes, the line reader takes alike
            assert {t: v.tobytes() for t, v in taken.items()} == got

    @pytest.mark.parametrize("chunk", [1, 100, 1 << 20])
    def test_block_reader_takes_a_plain_table(self, tmp_path, chunk):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 1))
        text = "".join(f"t{i}\t{' '.join(map(repr, v.tolist()))}\n\n"
                       for i, v in enumerate(vectors))
        path = tmp_path / "emb.tsv"
        write_table(path, text, "\r\n")
        with mock.patch.object(core, "_TABLE_CHUNK_BYTES", chunk):
            table = _read_table_blocks(path, 4)
        assert table is not None and list(table) == [f"t{i}" for i in range(50)]
        assert np.stack(list(table.values())).tobytes() == vectors.tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", " \u2028\n"])
    def test_table_without_rows_is_empty(self, tmp_path, text):
        path = tmp_path / "emb.tsv"
        write_table(path, text, "\n")
        assert _read_table_blocks(path, 2) == {} and load_embedding_table(path, 2) == {}


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

    def test_overflowing_norm_keeps_direction(self):
        with np.errstate(over="ignore"):  # the squares inside each norm overflow
            assert cosine_distance(np.array([1e200, 0.0]), np.array([1.0, 0.0])) == 0.0
            assert cosine_distance(np.array([-1e200, 0.0]), np.array([1.0, 0.0])) == 1.0
            assert cosine_distance([3e300, 4e300], [-3e200, -4e200]) == 1.0
            assert cosine_distance([1e200, 0.0], [0.0, 1e-200]) == 0.5
            rows = centroid_cosine_distances([[1e200, 0.0], [-1e200, 0.0]], [1.0, 0.0])
            centroid = centroid_cosine_distances([[1.0, 0.0], [-1.0, 0.0]], [1e200, 0.0])
        assert rows.tolist() == [0.0, 1.0] and centroid.tolist() == [0.0, 1.0]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# values from subnormal to near the square-root overflow, and zeros
magnitude = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-320, 150)),
    st.sampled_from([5e-324, -2.5e-310, 3e-170, -1e-160, 1e154, -1.3e154]),
)


@st.composite
def vector_pairs(draw):
    """Two vectors of one dimension, the second often a multiple of the first,
    as lists, int lists, float32 arrays, or float64 arrays (some strided)."""
    dim = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["list", "int", "f4", "f8", "strided"]))
    if kind == "int":
        vec = st.lists(st.integers(-10**6, 10**6), min_size=dim, max_size=dim)
    elif kind == "f4":
        vec = st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)
    else:
        vec = st.lists(magnitude, min_size=dim, max_size=dim)
    a = draw(vec)
    if draw(st.booleans()):
        factor = draw(st.sampled_from([1, -1, 2, -3, 0.5, -1e-3, 1e-150]))
        b = [x * factor for x in a]
        if kind == "int":
            b = [int(x) for x in b]
    else:
        b = draw(vec)
    if kind == "f4":
        return np.array(a, dtype=np.float32), np.array(b, dtype=np.float32)
    if kind == "f8":
        return np.array(a), np.array(b)
    if kind == "strided":
        return np.repeat(a, 2)[::2], np.repeat(b, 2)[::2]
    return a, b


# a strided vector whose dot product sums in another order than a contiguous one's
STRIDED = np.repeat([2.041, -2.556, 0.418, -0.568], 2)[::2]


class TestLeanMath:
    @given(vector_pairs(), st.booleans())
    @settings(max_examples=1000, deadline=None)
    @example(([1e-160, 0.0], [0.0, 3e-170]), True)
    @example(([0.0, 0.0], [1.0, 2.0]), False)
    @example((STRIDED, STRIDED[::-1]), False)
    def test_cosine_distance_equals_reference_bit_for_bit(self, pair, given_norms):
        a, b = pair
        with np.errstate(over="ignore"):  # an overflowing norm is assumed away
            na, nb = (float(np.linalg.norm(np.asarray(v, dtype=np.float64))) for v in (a, b))
            assume(np.isfinite(na) and np.isfinite(nb))
            norms = (na, nb) if given_norms else ()
            got, want = cosine_distance(a, b, *norms), reference_cosine_distance(a, b, *norms)
        assert bits(got) == bits(want)

    @given(st.lists(magnitude | st.floats(-2.0, 2.0) | st.sampled_from([1e200, -1e300]),
                    min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=500, deadline=None)
    @example(STRIDED.tolist(), True)
    def test_vector_norm_is_numpy_norm(self, values, strided):
        v = np.repeat(values, 2)[::2] if strided else np.array(values)
        with np.errstate(over="ignore"):  # a norm past the float range is inf in both
            assert bits(vector_norm(v)) == bits(float(np.linalg.norm(v)))

    @pytest.mark.parametrize("a, b", [([np.nan, 1.0], [1.0, 0.0]), ([np.inf, 0.0], [1.0, 0.0]),
                                      ([np.inf, 1.0], [0.0, 1.0]), ([-np.inf, 0.0], [0.0, 0.0])])
    def test_non_finite_vectors_give_the_reference_distance(self, a, b):
        with np.errstate(invalid="ignore"):  # inf / inf and inf * 0
            assert bits(cosine_distance(a, b)) == bits(reference_cosine_distance(a, b))
