"""Fuzz the four input parsers through ``driftstream replay``.

A small valid replay (stream, corroborative feed, embedding table, config) is
written afresh for each example, then one line of one file is replaced or
added: a record with one key set to any JSON value (wrong types, NaN,
infinities, huge integers) or dropped, any JSON value as the whole line, or
raw bytes that need not be UTF-8. Part of the JSON lines are written with
``ensure_ascii=False``, so raw U+2028, U+0085 and other Unicode separators
reach the parsers inside strings. The replay must either succeed or exit with
the code for that file (1 for stream and feed, 2 for table and config) and a
one-line ``input error:``/``config error:`` naming the file; no other
exception may escape ``main``.

Config values are kept to small integers, floats and short words: a large
``dim``, ``bins``, ``epochs`` or ``window_size`` is a valid request for a large
allocation or a long run, not a parse error.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream.cli import main

T0 = 1_735_689_600
TOKENS = {"flood": [1.0, 0.1], "water": [0.9, 0.2], "sunny": [-0.1, 1.0], "day": [0.2, 0.9]}
# flood posts at (10, 10) and sunny posts at (-10, -10): window 0 gets two
# labels of each class, so a model is generated and later windows predict
STREAM = [
    {"id": f"p{i:02d}", "ts": T0 + 60 * i,
     "lat": 10.0 if i % 2 == 0 else -10.0, "lon": 10.0 if i % 2 == 0 else -10.0,
     "text": "flood water" if i % 2 == 0 else "sunny day", "label": 1 - i % 2}
    for i in range(12)
]
FEED = [
    {"id": "e-flood", "ts_start": T0, "ts_end": T0 + 3600, "lat": 10.0, "lon": 10.0,
     "radius_km": 50.0, "polarity": "relevant", "source": "test"},
    {"id": "e-sunny", "ts_start": T0, "ts_end": T0 + 3600, "lat": -10.0, "lon": -10.0,
     "radius_km": 50.0, "polarity": "irrelevant", "source": "test"},
]
CONFIG_KEYS = (
    "window_size", "delta", "kl_threshold", "k", "lambda", "pad_seconds", "dim",
    "embed_mode", "hash_seed", "seed", "min_train", "learn_rate", "epochs", "bins",
)
EXIT_CODE = {"stream": 1, "feed": 1, "table": 2, "config": 2}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def json_lines(draw, records):
    record = dict(draw(st.sampled_from(records)))
    how = draw(st.sampled_from(["set", "drop", "whole"]))
    if how == "set":
        record[draw(st.sampled_from(sorted(record)) | st.text(max_size=4))] = draw(JSON)
    elif how == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    else:
        record = draw(JSON)
    return json.dumps(record, ensure_ascii=draw(st.booleans())).encode("utf-8")


def table_lines():
    value = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=4)
    return st.builds(
        lambda token, values: " ".join([token, *values]).encode("utf-8"),
        st.sampled_from(sorted(TOKENS)) | st.text(min_size=1, max_size=4),
        st.lists(value, max_size=4),
    )


def config_lines():
    value = (st.integers(-3, 60).map(str) | st.floats().map(repr)
             | st.sampled_from(["auto", "", "table", "feature_hash"])
             | st.text(max_size=4))
    return st.builds(
        lambda key, v: f"{key}={v}".encode("utf-8"),
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=4), value,
    )


def corrupted(lines):
    return st.one_of(lines, st.binary(max_size=12), st.text(max_size=12).map(str.encode))


def replay_with(kind: str, index: int, line: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        paths = {k: d / name for k, name in (
            ("stream", "stream.jsonl"), ("feed", "feed.jsonl"),
            ("table", "table.txt"), ("config", "config.txt"))}
        files = {
            "stream": [json.dumps(r).encode() for r in STREAM],
            "feed": [json.dumps(e).encode() for e in FEED],
            "table": [" ".join([t, *map(repr, v)]).encode() for t, v in TOKENS.items()],
            "config": [f"{k}={v}".encode() for k, v in (
                ("window_size", 4), ("dim", 2), ("embed_mode", "table"),
                ("table_path", paths["table"]), ("min_train", 2), ("k", 2))],
        }
        lines = files[kind]
        if index < len(lines):
            lines[index] = line
        else:
            lines.append(line)
        for name, path in paths.items():
            path.write_bytes(b"\n".join(files[name]) + b"\n")

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["replay", "--config", str(paths["config"]),
                         "--stream", str(paths["stream"]),
                         "--corroborative", str(paths["feed"]), "--out", str(d / "out")])
        message = err.getvalue()
        if code == 0:
            return
        assert code == EXIT_CODE[kind], message
        assert message.startswith("input error: " if code == 1 else "config error: "), message
        assert "Traceback" not in message
        # a config value is checked against the table it selects, so a
        # config line may also be refused by naming the table
        named = [paths[kind]] + ([paths["table"]] if kind == "config" else [])
        assert any(str(p) in message for p in named), message


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(STREAM)), corrupted(json_lines(STREAM)))
@example(0, b'{"id": ["a"], "ts": 1735689600}')
@example(0, b'{"id": "p00", "ts": 1735689600, "text": 5}')
@example(0, b'{"id": "p00", "ts": 1735689600, "text": null}')
@example(11, b'{"id": "p11", "ts": 1' + b"0" * 400 + b', "lat": 1.0, "lon": 1.0}')
@example(3, b'{"id": "p03", "ts": 1735689780, "text": "\xff"}')
@example(2, '{"id": "p02", "ts": 1735689720, "text": "flood\u2028water\x85"}'.encode())
def test_stream_lines(index, line):
    replay_with("stream", index, line)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(FEED)), corrupted(json_lines(FEED)))
@example(0, b"\xfe\xff")
@example(1, '{"id": "e", "ts_start": 0, "ts_end": 1, "lat": 0.0, "lon": 0.0, '
            '"polarity": "relevant", "source": "a\u2029b"}'.encode())
@example(0, b'{"id": "e", "ts_start": 1' + b"0" * 400 + b', "ts_end": 1' + b"0" * 401
            + b', "lat": 10.0, "lon": 10.0, "polarity": "relevant"}')
def test_feed_lines(index, line):
    replay_with("feed", index, line)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(TOKENS)), corrupted(table_lines()))
@example(0, b"flood \xff 0.1")
@example(1, b"water nan 0.2")
@example(0, "flood 1.0 0.1\u2028".encode())
def test_table_lines(index, line):
    replay_with("table", index, line)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), corrupted(config_lines()))
@example(6, b"window_size=0")
@example(6, b"k=0")
@example(6, b"delta=2")
@example(6, b"bins=1")
@example(6, b"epochs=-1")
@example(6, b"window_size=auto")
@example(6, b"embed_mode=words")
@example(6, b"dim=\xff")
@example(6, "seed=1\x85".encode())
def test_config_lines(index, line):
    replay_with("config", index, line)
