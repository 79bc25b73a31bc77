import dataclasses
import gzip
import hashlib
import logging
import os
import re
import struct
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import driftstream.core as core
from driftstream.core import (
    ConfigError,
    DataPoint,
    Embedder,
    EmbedderConfig,
    InputError,
    _read_table_block,
    _read_table_lines,
    centroid_cosine_distances,
    cosine_distance,
    embed_texts,
    read_lines,
    stack_vectors,
    table_chunks,
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

    @pytest.mark.parametrize("field,value,message", [
        ("id", 5, r"^point id 5 is not a string$"),
        ("ts", "soon", r"^point a: ts 'soon' is not an integer$"),
        ("ts", True, r"^point a: ts True is not an integer$"),
        ("ts", 2**60, rf"^point a: ts {2**60} outside years 1-9999$"),
        ("ts", core.MIN_TS - 1, rf"^point a: ts {core.MIN_TS - 1} outside years 1-9999$"),
        ("ts", np.int64(5), rf"^point a: ts {re.escape(repr(np.int64(5)))} is not an integer$"),
        ("text", None, r"^point a: text None is not a string$"),
    ])
    def test_bad_id_ts_or_text_is_refused_naming_the_field(self, field, value, message):
        # a checkpoint refuses these values, so a point never holds them
        fields = {"id": "a", "ts": 0, "text": "", "vec": np.zeros(3), field: value}
        with pytest.raises(InputError, match=message):
            DataPoint(**fields)

    # coordinates its checkpoint record cannot hold: json_line writes int and float
    # instances only, and np.float64 is a float
    @pytest.mark.parametrize("field", ["lat", "lon"])
    @pytest.mark.parametrize("value", [np.float32(1.5), np.int64(3)])
    def test_numpy_coordinate_other_than_float64_is_refused_naming_the_field(self, field, value):
        fields = {"id": "a", "ts": 0, "text": "", "vec": np.zeros(3), "lat": 1.0, "lon": 2.0,
                  field: value}
        with pytest.raises(InputError,
                           match=f"^point a: {field} {re.escape(repr(value))} out of range$"):
            DataPoint(**fields)

    def test_float64_coordinates_accepted(self):
        p = DataPoint(id="a", ts=0, text="", vec=np.zeros(3), lat=np.float64(2.5),
                      lon=np.float64(-0.0))
        assert p.geo == (2.5, 0.0)

    def test_nonfinite_vec_rejected(self):
        with pytest.raises(InputError):
            DataPoint(id="a", ts=0, text="", vec=np.array([1.0, np.nan]))

    def test_with_label_copies(self):
        p = DataPoint(id="a", ts=0, text="", vec=np.zeros(3), lat=1.5, lon=-2.0)
        q = p.with_label(1)
        assert p.label is None and q == DataPoint(id="a", ts=0, text="", vec=p.vec, lat=1.5,
                                                  lon=-2.0, label=1)
        assert q.vec is p.vec
        assert [getattr(q, f.name) for f in dataclasses.fields(DataPoint)] == [
            p.id, p.ts, p.text, p.vec, p.lat, p.lon, 1]
        # a point's fields are slots: a point has no __dict__
        assert not hasattr(p, "__dict__") and not hasattr(q, "__dict__")

    @pytest.mark.parametrize("label", [2, True, 1.0, None])
    def test_with_label_refuses_what_the_constructor_refuses(self, label):
        with pytest.raises(InputError, match=r"point a: label"):
            DataPoint(id="a", ts=0, text="", vec=np.zeros(3)).with_label(label)


class TestStackVectors:
    def test_same_bytes_as_np_stack(self):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((6, 5))
        # row views of one block, a separate vector and a strided view
        vecs = [*block, rng.standard_normal(5), rng.standard_normal(10)[::2]]
        stacked = stack_vectors(vecs)
        assert stacked.shape == (8, 5) and stacked.tobytes() == np.stack(vecs).tobytes()


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

    def test_table_with_byte_order_mark_is_config_error(self, tmp_path):
        # the mark would join the first token, whose row no text can then reach
        table = tmp_path / "emb.tsv"
        table.write_bytes(b"\xef\xbb\xbfflood 1.0 0.0\nrain 0.0 1.0\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:1: embedding table starts with a "
                                              r"UTF-8 byte-order mark"):
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
        vec = embedder.embed("a")  # the squares overflow, but no warning is raised
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


def load_embedding_table(path, dim):
    """The whole table as ``Embedder`` holds it: each vector a row view of its chunk's block."""
    return {t: v for tokens, vecs in table_chunks(path, dim) for t, v in zip(tokens, vecs)}


def line_reader(path, dim):
    """The whole table read by the line reader alone."""
    return dict(zip(*_read_table_lines(read_lines(path, ConfigError, "embedding table"),
                                       path, dim)))


def chunk_rows(rows, dim):
    """Read tables of width ``dim`` in chunks of ``rows`` lines for the length of the block."""
    return mock.patch.object(core, "_TABLE_CHUNK_VALUES", rows * (dim + 1))


def table_lines(path):
    with open(path, encoding="utf-8") as fh:
        return list(fh)


class TestTableReader:
    @given(table=table_texts(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           chunk=st.sampled_from([1, 2, 3, 1 << 16]))
    @settings(max_examples=400, deadline=None)
    def test_block_reader_agrees_with_line_reader(self, tmp_path_factory, table, newline, chunk):
        text, dim = table
        path = tmp_path_factory.getbasetemp() / "differential.tsv"
        write_table(path, text, newline)
        with chunk_rows(chunk, dim):
            got = table_result(load_embedding_table, path, dim)
            try:
                embed_texts(["flood"], EmbedderConfig(dim=dim, embed_mode="table",
                                                      table_path=str(path)))
                one_pass = None
            except ConfigError as exc:
                one_pass = str(exc)
        assert got == table_result(line_reader, path, dim)
        # the one-pass embed refuses what the table reader refuses, in its words
        assert one_pass == (got if isinstance(got, str) else None)
        taken = _read_table_block(table_lines(path), dim)
        if taken is not None and len(set(taken[0])) == len(taken[0]):
            # what the C reader takes, tokens repeated aside, the line reader takes alike
            assert {t: v.tobytes() for t, v in zip(*taken)} == got

    def test_block_reader_takes_a_plain_table(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 1))
        text = "".join(f"t{i}\t{' '.join(map(repr, v.tolist()))}\n\n"
                       for i, v in enumerate(vectors))
        path = tmp_path / "emb.tsv"
        write_table(path, text, "\r\n")
        taken = _read_table_block(table_lines(path), 4)
        assert taken is not None and taken[0] == [f"t{i}" for i in range(50)]
        assert taken[1].tobytes() == vectors.tobytes()

    def test_block_reader_holds_the_table_once(self, tmp_path):
        # each vector is a row view of its chunk's one float64 block, and the
        # blocks hold each row once
        path = tmp_path / "emb.tsv"
        write_table(path, "a 1 2\nb 3 4\nc 5 6\n", "\n")
        with chunk_rows(2, 2):
            table = load_embedding_table(path, 2)
        a, b, c = (table[t].base for t in "abc")
        assert a is b and b is not c and a.dtype == c.dtype == np.float64
        assert a.shape == (2, 3) and c.shape == (1, 3)

    def test_compressed_table_is_unreadable(self, tmp_path):
        path = tmp_path / "emb.tsv.gz"
        path.write_bytes(gzip.compress(b"a 1 2\nb 3 4\n"))
        with pytest.raises(ConfigError, match=r"cannot read embedding table .*emb\.tsv\.gz"):
            load_embedding_table(path, 2)

    @pytest.mark.parametrize("text", ["", "\n\n", " \u2028\n"])
    def test_table_without_rows_is_empty(self, tmp_path, text):
        path = tmp_path / "emb.tsv"
        write_table(path, text, "\n")
        assert load_embedding_table(path, 2) == {}
        assert all(tokens == [] for tokens, _ in table_chunks(path, 2))

    def test_chunks_follow_the_file(self, tmp_path):
        # blank lines count toward a chunk's lines, and a chunk the C reader
        # refuses (1_0) is read by the line reader in place
        path = tmp_path / "emb.tsv"
        write_table(path, "a 1 2\n\nb 3 4\nc 1_0 6\nd 7 8\n", "\n")
        with chunk_rows(2, 2):
            chunks = list(table_chunks(path, 2))
        assert [tokens for tokens, _ in chunks] == [["a"], ["b", "c"], ["d"]]
        assert chunks[1][1].tolist() == [[3.0, 4.0], [10.0, 6.0]]


# Tables of width 2 that the reader refuses, and the ConfigError text of each.
REFUSED_TABLES = [
    (b"a 1 0\nb 0 1\n\nc 1 1\nd 1 2 3\n", "{path}:5: expected token + 2 floats, got 3"),
    (b"a 1 0\nb 0 1\nc 1 1\n\na 2 2\n", "{path}:5: duplicate token 'a', first on line 1"),
    ("\ufeffa 1 0\nb 0 1\n".encode(),
     "{path}:1: embedding table starts with a UTF-8 byte-order mark"),
    (b"a 1 0\nb 0 1\nc inf 1\nd 1 1\n", "{path}:3: non-finite value"),
    # a later line of the wrong width is named before a non-finite value
    (b"a 1 0\nb nan 1\nc 1 1\nd 1 2 3\n", "{path}:4: expected token + 2 floats, got 3"),
    (b"a 1 0\nb 0 1e999\n", "{path}:2: non-finite value"),
    (b"a 1 0\nb 0 1\nc 1 x\n", "{path}:3: could not convert string to float: 'x'"),
    (gzip.compress(b"a 1 2\nb 3 4\n", mtime=0), "cannot read embedding table {path}: "
     "'utf-8' codec can't decode byte 0x8b in position 1: invalid start byte"),
]


class TestOnePassEmbed:
    """``embed_texts`` against ``Embedder(cfg).embed_all`` on the same table."""

    @staticmethod
    def config(path, dim=3):
        return EmbedderConfig(dim=dim, embed_mode="table", table_path=str(path))

    @given(texts=TestEmbedAll.texts, order=st.permutations(list(EMBED_TABLE)),
           blank=st.lists(st.booleans(), min_size=6, max_size=6), chunk=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_block_equals_embed_all(self, tmp_path_factory, texts, order, blank, chunk):
        path = tmp_path_factory.getbasetemp() / "one-pass.tsv"
        path.write_text("".join(f"{t} {' '.join(map(repr, EMBED_TABLE[t]))}\n" + "\n" * gap
                                for t, gap in zip(order, blank)))
        cfg = self.config(path)
        with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 rows overflow
            expected = Embedder(cfg).embed_all(texts)
            with chunk_rows(chunk, 3):
                got = embed_texts(texts, cfg)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_repeated_absent_and_overflowing_tokens(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("".join(f"{t} {' '.join(map(repr, v))}\n" for t, v in EMBED_TABLE.items()))
        texts = ["flood", "flood rain", "rain rain", "flood unknown", "unknown", "",
                 "fire heat", "wind wind zero", "zero", "flood unknown flood"]
        with np.errstate(over="ignore", invalid="ignore"), chunk_rows(2, 3):
            got = embed_texts(texts, self.config(path))
            expected = Embedder(self.config(path)).embed_all(texts)
        assert got.tobytes() == expected.tobytes()
        assert not np.isfinite(got[6]).all()  # an overflowing mean stays non-finite

    def test_hashed_texts_embed_as_the_embedder_does(self):
        cfg = EmbedderConfig(dim=16, hash_seed=3)
        texts = ["flood in the valley", "", "rain rain"]
        assert embed_texts(texts, cfg).tobytes() == Embedder(cfg).embed_all(texts).tobytes()

    @pytest.mark.parametrize("data,message", REFUSED_TABLES)
    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
    def test_refuses_what_the_table_reader_refuses_in_its_words(
            self, tmp_path, data, message, chunk):
        path = tmp_path / "emb.tsv"
        path.write_bytes(data)
        for read in (lambda: load_embedding_table(path, 2),
                     lambda: Embedder(self.config(path, 2)),
                     lambda: embed_texts(["a", "b c"], self.config(path, 2))):
            with chunk_rows(chunk, 2), pytest.raises(ConfigError) as refused:
                read()
            assert str(refused.value) == message.format(path=path)

    @pytest.mark.parametrize("kind", ["pipe", "fifo", "directory"])
    @pytest.mark.parametrize("read", ["Embedder", "embed_texts"])
    def test_refuses_a_table_that_is_not_a_regular_file(self, tmp_path, kind, read):
        # the line reader names a fault by reading the table again from the start,
        # which a pipe cannot give, and opening a FIFO without a writer would wait
        path = tmp_path / "emb.tsv"
        if kind == "pipe":
            if not os.path.isdir("/dev/fd"):
                pytest.skip("no /dev/fd")
            out, into = os.pipe()
            os.write(into, b"a 1 0\nb 0 1\n")
            os.close(into)
            path = f"/dev/fd/{out}"
        elif kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no mkfifo")
            os.mkfifo(path)
        else:
            path.mkdir()
        cfg = self.config(path, 2)
        raised = []

        def run():
            try:
                Embedder(cfg) if read == "Embedder" else embed_texts(["a", "b a"], cfg)
            except Exception as exc:
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(5)
        if kind == "pipe":
            os.close(out)
        assert not worker.is_alive(), "the reader waits to open the table"
        assert [type(exc) for exc in raised] == [ConfigError]
        assert str(raised[0]) == f"cannot read embedding table {path}: not a regular file"

    def test_refuses_a_table_that_changes_between_its_reads(self, tmp_path, monkeypatch):
        # a repeated token stops the first pass; the table is mended before the
        # line reader reads it again, so that reader finds no fault to name
        path = tmp_path / "emb.tsv"
        lines = core.read_lines

        def mended(*args):
            path.write_text("a 1 0\nb 0 1\n")
            return lines(*args)

        monkeypatch.setattr(core, "read_lines", mended)
        for read in (lambda: Embedder(self.config(path, 2)),
                     lambda: embed_texts(["a", "b a"], self.config(path, 2))):
            path.write_text("a 1 0\na 0 1\n")
            with pytest.raises(ConfigError) as refused:
                read()
            assert str(refused.value) == (
                f"cannot read embedding table {path}: it changed while being read")

    def test_keeps_only_the_rows_of_texts_of_several_tokens(self, tmp_path, monkeypatch):
        # one chunk at a time: a text of one token takes its row from the
        # chunk, so no chunk outlives the pass
        path = tmp_path / "emb.tsv"
        path.write_text("".join(f"t{i} {i} 1\n" for i in range(12)))
        texts = ["t1", "t0 t5", "t11"]
        expected = Embedder(self.config(path, 2)).embed_all(texts)
        alive = []
        chunks = core.table_chunks

        def watched(*args):
            for tokens, vecs in chunks(*args):
                alive.append(weakref.ref(vecs.base))
                assert sum(ref() is not None for ref in alive) <= 2  # this chunk, the last
                yield tokens, vecs

        monkeypatch.setattr(core, "table_chunks", watched)
        with chunk_rows(4, 2):
            assert embed_texts(texts, self.config(path, 2)).tobytes() == expected.tobytes()
        assert len(alive) == 3 and all(ref() is None for ref in alive)


def sidecar_of(path) -> Path:
    return Path(str(path) + core.SIDECAR_SUFFIX)


def chunks_read(path, dim):
    """Every token and the bytes of every vector that ``table_chunks`` yields,
    in row order, or the ConfigError text."""
    try:
        chunks = list(table_chunks(path, dim))
    except ConfigError as exc:
        return str(exc)
    return [t for tokens, _ in chunks for t in tokens], b"".join(v.tobytes() for _, v in chunks)


def table_config(path, dim):
    return EmbedderConfig(dim=dim, embed_mode="table", table_path=str(path))


SIDECAR_TEXTS = ["flood", "rain wind", "quoted flood", "x", "1 5", "", "unknown rain"]

# Each reader of a table: its result for the table at a path, or its ConfigError text.
READERS = (
    chunks_read,
    lambda path, dim: table_result(lambda p, d: Embedder(table_config(p, d))._table, path, dim),
    lambda path, dim: table_result(
        lambda p, d: {"block": embed_texts(SIDECAR_TEXTS, table_config(p, d))}, path, dim),
)


def read_all(path, dim, sidecar: bytes | None = None):
    """What each reader gives for the table at ``path``, each read with
    ``sidecar`` as its sidecar, or with none."""
    results = []
    for read in READERS:
        side = sidecar_of(path)
        side.unlink(missing_ok=True)
        if sidecar is not None:
            side.write_bytes(sidecar)
            side.chmod(0o600)
        results.append(read(path, dim))
    return results


def edited(data: bytes, edit: str, at: int, dim: int) -> bytes:
    if edit == "digit":  # in place: same size, one value changed
        digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
        assume(digits)
        i = digits[at % len(digits)]
        return data[:i] + bytes([0x30 + (data[i] - 0x30 + 1) % 10]) + data[i + 1:]
    if edit == "append":
        return data + f"\nappended {' '.join(['2'] * dim)}\n".encode()
    if edit == "truncate":
        return data[:at % max(len(data), 1)]
    return b"\xef\xbb\xbf" + data  # a byte-order mark


def forged_sidecar(path, dim, tokens, rows, *, version=core._SIDECAR_VERSION, head_dim=None,
                   digest=None) -> bytes:
    """A sidecar of the table at ``path`` holding ``tokens`` and ``rows``."""
    blob = "\n".join(tokens).encode()
    rows = np.asarray(rows, dtype="<f8")
    digest = hashlib.sha256(path.read_bytes()).digest() if digest is None else digest
    return (core._SIDECAR_HEAD.pack(core._SIDECAR_MAGIC, version, head_dim or dim, len(rows),
                                    len(blob), digest) + rows.tobytes() + blob)


def parse_nothing():
    """Fail a read that parses the table's text, not its sidecar."""
    return mock.patch.object(core, "_read_table_block", side_effect=AssertionError("parsed"))


class TestTableSidecar:
    """``table_chunks`` keeps a table read without a fault as a binary sidecar
    and reads it back in place of the text only while the text is unchanged."""

    @given(table=table_texts(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           chunk=st.sampled_from([1, 2, 3, 1 << 16]),
           edit=st.sampled_from(["digit", "append", "truncate", "bom", "dim"]),
           at=st.integers(0, 1 << 20))
    @settings(max_examples=500, deadline=None)  # about one in four tables is read without a fault
    def test_cold_and_warm_reads_agree(self, tmp_path_factory, table, newline, chunk, edit, at):
        text, dim = table
        path = tmp_path_factory.getbasetemp() / "cached.tsv"
        write_table(path, text, newline)
        truth = table_result(line_reader, path, dim)
        with chunk_rows(chunk, dim), np.errstate(over="ignore", invalid="ignore"):
            cold = read_all(path, dim)
            # a second read of the same path: from the sidecar the first one left
            assert [read(path, dim) for read in READERS] == cold
            assert sidecar_of(path).exists() == (not isinstance(truth, str))
            assert cold[0] == (truth if isinstance(truth, str)
                               else (list(truth), b"".join(truth.values())))
            assert cold[1] == truth
            assert isinstance(cold[2], str) == isinstance(truth, str)
            if isinstance(truth, str):
                assert cold[2] == truth
                return
            # a sidecar of the table before an edit: the edited table reads as
            # if it had none, refusals and their words included
            cached = sidecar_of(path).read_bytes()
            if edit == "dim":
                dim += 1
            else:
                path.write_bytes(edited(path.read_bytes(), edit, at, dim))
            assert read_all(path, dim, cached) == read_all(path, dim)

    def test_warm_read_parses_no_text(self, tmp_path):
        path = tmp_path / "emb.tsv"
        write_table(path, "a 1 -0.0\n\nb 3 4\nc 1_0 6\nd 7 8\n", "\n")
        with chunk_rows(2, 2):
            cold = list(table_chunks(path, 2))
            with parse_nothing():
                warm = list(table_chunks(path, 2))
        # the cold chunks follow the file's lines, the warm ones its rows
        assert [tokens for tokens, _ in cold] == [["a"], ["b", "c"], ["d"]]
        assert [tokens for tokens, _ in warm] == [["a", "b"], ["c", "d"]]
        assert np.concatenate([v for _, v in warm]).tobytes() == \
            np.concatenate([v for _, v in cold]).tobytes()
        # each chunk's vectors are views of a writable float64 block of their own
        (_, first), (_, second) = warm
        assert first.base is not None and first.base is not second.base
        assert first.dtype == np.float64 and first.flags.writeable and first.shape == (2, 2)

    def test_a_chunk_read_again_is_hashed_once(self, tmp_path):
        # the line reader reads the chunk with 1_0 again from its start, and
        # that read runs on past the bytes read so far
        path = tmp_path / "emb.tsv"
        path.write_text("".join(f"t{i} {'1_0' if i == 150 else i} 1\n" for i in range(8000)))
        assert path.stat().st_size > core._TEXT_BUFFER
        with chunk_rows(100, 2):
            cold = chunks_read(path, 2)
            with parse_nothing():
                assert chunks_read(path, 2) == cold

    def test_a_trusted_sidecar_stands_for_the_text(self, tmp_path):
        # a sidecar is read as it stands: these rows are not the text's
        path = tmp_path / "emb.tsv"
        path.write_text("a 1 0\nb 0 1\n")
        sidecar_of(path).write_bytes(forged_sidecar(path, 2, ["a", "b"], [[7.0, 7.0], [8.0, 8.0]]))
        sidecar_of(path).chmod(0o600)
        with parse_nothing():
            assert chunks_read(path, 2) == (["a", "b"], np.array([[7.0, 7.0], [8.0, 8.0]]).tobytes())

    @pytest.mark.parametrize("fault", [
        "truncated", "padded", "version", "dim", "digest", "nan", "repeated token", "two-field token",
        "symlink", "group-writable", "world-writable", "foreign owner", "directory",
    ])
    def test_a_bad_sidecar_is_ignored(self, tmp_path, fault):
        path = tmp_path / "emb.tsv"
        path.write_text("a 1 0\nb 0 1\nc 1 1\n")
        tokens, rows = ["a", "b", "c"], np.full((3, 2), 7.0)
        side = sidecar_of(path)
        forged = {
            "version": lambda: forged_sidecar(path, 2, tokens, rows, version=2),
            "dim": lambda: forged_sidecar(path, 2, tokens, rows, head_dim=3),
            "digest": lambda: forged_sidecar(path, 2, tokens, rows, digest=bytes(32)),
            "nan": lambda: forged_sidecar(path, 2, tokens, [[7.0, 7.0], [np.nan, 7.0], [7.0, 7.0]]),
            "repeated token": lambda: forged_sidecar(path, 2, ["a", "b", "a"], rows),
            "two-field token": lambda: forged_sidecar(path, 2, ["a\tb"], rows[:2]),
        }.get(fault, lambda: forged_sidecar(path, 2, tokens, rows))()
        if fault in ("truncated", "padded"):
            forged = forged[:-1] if fault == "truncated" else forged + b"\n"
        if fault == "directory":
            side.mkdir()
        elif fault == "symlink":
            (tmp_path / "elsewhere").write_bytes(forged)
            (tmp_path / "elsewhere").chmod(0o600)
            side.symlink_to(tmp_path / "elsewhere")
        else:
            side.write_bytes(forged)
            side.chmod({"group-writable": 0o620, "world-writable": 0o602}.get(fault, 0o600))
            if fault == "foreign owner":
                if os.geteuid() != 0:
                    pytest.skip("only root can give a file to another user")
                os.chown(side, os.geteuid() + 1, -1)
        truth = table_result(line_reader, path, 2)
        assert table_result(load_embedding_table, path, 2) == truth
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"emb.tsv", side.name} | ({"elsewhere"} if fault == "symlink" else set()))
        if fault != "directory":  # the read put a sidecar of its own in the bad one's place
            assert side.is_file() and not side.is_symlink()
            with parse_nothing():
                assert table_result(load_embedding_table, path, 2) == truth

    @pytest.mark.parametrize("failure", ["mkstemp", "replace", "full disk"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, caplog, failure):
        path = tmp_path / "emb.tsv"
        path.write_text("".join(f"t{i} {i} 1\n" for i in range(5000)))
        truth = table_result(line_reader, path, 2)
        if failure == "full disk":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            partial = tmp_path / "emb.tsv.f8cache.partial"
            partial.touch()
            patched = mock.patch.object(
                core.tempfile, "mkstemp",
                lambda **_: (os.open("/dev/full", os.O_WRONLY), str(partial)))
        else:
            target = core.tempfile if failure == "mkstemp" else core.os
            patched = mock.patch.object(target, failure, side_effect=OSError(28, "No space left"))
        caplog.set_level(logging.DEBUG, logger="driftstream.core")
        with patched:
            assert table_result(load_embedding_table, path, 2) == truth
        assert [p.name for p in tmp_path.iterdir()] == ["emb.tsv"]
        assert "no embedding table sidecar" in caplog.text

    @pytest.mark.parametrize("data,message", REFUSED_TABLES)
    def test_refusals_are_the_text_readers_with_or_without_a_sidecar(self, tmp_path, data, message):
        path = tmp_path / "emb.tsv"
        path.write_bytes(b"a 1 0\nb 0 1\n")
        load_embedding_table(path, 2)
        cached = sidecar_of(path).read_bytes()
        path.write_bytes(data)
        for sidecar in (cached, None):  # a stale sidecar, then none
            assert read_all(path, 2, sidecar) == [message.format(path=path)] * 3
        # a refused table leaves no sidecar
        assert [p.name for p in tmp_path.iterdir()] == ["emb.tsv"]

    # 1_0 and non-ASCII digits take the line reader, the other rows numpy's
    # when a chunk is one line; a subnormal, -0.0, blank lines, \r and \r\n
    PINNED_TABLE = ("flood 1_0 -0.0\r\n\r\nrain 4e-320 \u0661\u0662\r"
                    "wind\t-1.5e3 .5\n \nstorm 2.2250738585072014e-308 7\r\n")
    PINNED_READ = (1, "cc22d933c49038ce185c899d19fa5ac0ecf244916798555fef24f11c9b9443db")

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_reader_rules_are_pinned_to_the_sidecar_version(self, tmp_path, chunk):
        # a sidecar keeps what the reader rules gave when it was written, so
        # a change to what they accept or yield must come with a new version
        path = tmp_path / "emb.tsv"
        path.write_bytes(self.PINNED_TABLE.encode("utf-8"))
        with chunk_rows(chunk, 2):
            tokens, vectors = chunks_read(path, 2)
        got = (core._SIDECAR_VERSION,
               hashlib.sha256("\n".join(tokens).encode("utf-8") + vectors).hexdigest())
        assert got == self.PINNED_READ, (
            "the table reader reads this table differently: bump core._SIDECAR_VERSION, "
            "so that no sidecar written under the old rules is read, and pin the new pair")


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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_without_a_zero_give_the_bits_of_the_masked_rows(self, order):
        # with every norm positive no row is masked out, and the rows are taken
        # as they are; a zero row makes the same rows go through the mask
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-5, 5, (40, 1))
        centroid = rng.standard_normal(7)
        whole = centroid_cosine_distances(np.asarray(vectors, order=order), centroid)
        masked = centroid_cosine_distances(
            np.asarray(np.vstack([vectors, np.zeros(7)]), order=order), centroid)
        assert whole.tobytes() == masked[:40].tobytes() and masked[40] == 0.5

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


F4_THIRD = float(np.float32(np.finfo(np.float32).max / 3))


@st.composite
def vector_pairs(draw):
    """Two vectors of one dimension, the second often a multiple of the first,
    as lists, int lists, float32 arrays, or float64 arrays (some strided)."""
    dim = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["list", "int", "f4", "f8", "strided"]))
    if kind == "int":
        vec = st.lists(st.integers(-10**6, 10**6), min_size=dim, max_size=dim)
    elif kind == "f4":
        # a third of float32's largest value, so that every multiple below is a float32 too
        vec = st.lists(st.floats(-F4_THIRD, F4_THIRD, width=32), min_size=dim, max_size=dim)
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
    @given(vector_pairs())
    @settings(max_examples=1000, deadline=None)
    @example(([1e-160, 0.0], [0.0, 3e-170]))
    @example(([0.0, 0.0], [1.0, 2.0]))
    @example((STRIDED, STRIDED[::-1]))
    def test_cosine_distance_equals_reference_bit_for_bit(self, pair):
        a, b = pair
        with np.errstate(over="ignore"):  # an overflowing norm is assumed away
            na, nb = (float(np.linalg.norm(np.asarray(v, dtype=np.float64))) for v in (a, b))
            assume(np.isfinite(na) and np.isfinite(nb))
            got, want = cosine_distance(a, b), reference_cosine_distance(a, b)
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
