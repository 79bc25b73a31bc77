"""Each config field's annotation is the one statement of its type.

A value of the wrong declared type is a ConfigError naming the setting's key,
whichever config class is built: a float, bool or string for an int, a bool
or string for a float, a number for a string, and None where the field is not
optional. A run config either round-trips through the key=value format or
is refused, naming a path setting that format could not read back as itself.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import CONFIG_KEYS, ConfigError, EmbedderConfig
from driftstream.pipeline import PipelineConfig, parse_config, serialize_config
from driftstream.pool import PoolConfig
from driftstream.synth import SynthConfig

CONFIGS = (EmbedderConfig, PoolConfig, PipelineConfig, SynthConfig)

WRONG = {
    "int": st.floats() | st.booleans() | st.text(max_size=4),
    "float": st.booleans() | st.text(max_size=4),
    "str": st.integers() | st.floats() | st.booleans(),
}


def wrong_values(annotation: str):
    """Values that are not of the annotated type (annotations are strings)."""
    base, _, optional = annotation.partition(" | ")
    return WRONG[base] if optional == "None" else WRONG[base] | st.none()


@pytest.mark.parametrize("cls,field", [
    (cls, f) for cls in CONFIGS for f in dataclasses.fields(cls)
], ids=lambda v: v.__name__ if isinstance(v, type) else v.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wrong_type_is_config_error_naming_key(cls, field, data):
    value = data.draw(wrong_values(field.type))
    key = CONFIG_KEYS.get(field.name, field.name)
    with pytest.raises(ConfigError, match=rf"(?s)^{key}=.* is not an? "):
        cls(**{field.name: value})


@pytest.mark.parametrize("call,message", [
    (lambda: PipelineConfig(k=2.5), "k=2.5 is not an integer"),
    (lambda: PoolConfig(k=True), "k=True is not an integer"),
    (lambda: PipelineConfig(window_size=1000.0), "window_size=1000.0 is not an integer"),
    (lambda: EmbedderConfig(dim=3.5), "dim=3.5 is not an integer"),
    (lambda: SynthConfig(n_windows=2.5), "n_windows=2.5 is not an integer"),
    (lambda: PoolConfig(lam=True), "lambda=True is not a number"),
    (lambda: PipelineConfig(stream=3), "stream=3 is not a string"),
    (lambda: SynthConfig(schedule=None), "schedule=None is not a string"),
])
def test_wrong_type_message(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


def test_int_is_a_float_and_numpy_ints_are_ints():
    cfg = PipelineConfig(kl_threshold=0, pad_seconds=3600, k=np.int64(3))
    assert (cfg.kl_threshold, cfg.pad_seconds, cfg.k) == (0, 3600, 3)


# any text: a path setting the key=value format cannot read back as itself is refused
PATHS = st.text()
PATH_KEYS = ("table_path", "stream", "corroborative")


def finite(lo, exclude_min=False):
    return st.floats(lo, exclude_min=exclude_min, allow_infinity=False)


@st.composite
def pipeline_settings(draw):
    embed_mode = draw(st.sampled_from(["feature_hash", "table"]))
    return dict(
        dim=draw(st.integers(1, 10**6)), embed_mode=embed_mode,
        table_path=draw(PATHS if embed_mode == "table" else st.none() | PATHS),
        hash_seed=draw(st.integers(-2**63, 2**64)),
        lam=draw(st.none() | st.floats(0.0, 1.0)),
        delta=draw(st.floats(0.0, 1.0, exclude_min=True)),
        k=draw(st.integers(1, 100)), min_train=draw(st.integers(1, 10**6)),
        learn_rate=draw(finite(0.0, exclude_min=True)), epochs=draw(st.integers(0, 10**4)),
        window_size=draw(st.integers(1, 10**7)), kl_threshold=draw(finite(0.0)),
        pad_seconds=draw(finite(0.0)), seed=draw(st.integers(-2**63, 2**64)),
        bins=draw(st.integers(2, 10**4)),
        stream=draw(st.none() | PATHS), corroborative=draw(st.none() | PATHS),
    )


def reads_back(key: str, value: str) -> bool:
    """Whether a file holding ``key=value`` alone reads back as ``value``."""
    try:
        return getattr(parse_config(f"{key}={value}\n"), key) == value
    except ConfigError:
        return False


@settings(max_examples=300, deadline=None)
@given(pipeline_settings())
def test_config_round_trips_or_is_refused(values):
    try:
        cfg = PipelineConfig(**values)
    except ConfigError as exc:
        key = str(exc).partition("=")[0]
        assert key in PATH_KEYS and not reads_back(key, values[key]), exc
        return
    text = serialize_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text


@pytest.mark.parametrize("key", PATH_KEYS)
@pytest.mark.parametrize("value", ["", "auto", " a", "a\r", "a\nb", "a\x85"])
def test_unreadable_path_is_refused_naming_key(key, value):
    with pytest.raises(ConfigError, match=rf"^{key}={re.escape(repr(value))} out of range"):
        PipelineConfig(**{"embed_mode": "table", "table_path": "t.tsv", key: value})
