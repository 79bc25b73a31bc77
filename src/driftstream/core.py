"""Domain types, deterministic text embedding, and the shared distance metric.

Every other module works on :class:`DataPoint` values and measures proximity
with :func:`cosine_distance`. Embeddings are deterministic: either feature
hashing (no external model) or a lookup table of precomputed vectors.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import re
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_DIM = 300

# Stream and feed timestamps are integer Unix seconds within UTC years 1-9999:
# detected events are grouped by UTC date, and the labeler's float64 prefilter
# is exact on integers this small.
MIN_TS = -62135596800
MAX_TS = 253402300799

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The config-file key of each setting whose field name differs from its key.
CONFIG_KEYS = {"lam": "lambda"}

_JSON = json.JSONEncoder(separators=(",", ":"))


class ConfigError(Exception):
    """Bad or inconsistent configuration (missing table file, unknown keys...)."""


class InputError(Exception):
    """Malformed or contract-violating input data."""


def read_lines(path: str | Path, error: type[Exception], what: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each non-blank line of a UTF-8 file, read lazily.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, never at U+2028, U+0085 or
    other Unicode separators; an unreadable file raises ``error`` naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def check_ranges(config, ranges: dict) -> None:
    """Refuse the first setting of ``config`` failing its (test, rule); NaN fails every test."""
    for key, (ok, rule) in ranges.items():
        value = getattr(config, key)
        if not ok(value):
            raise ConfigError(f"{CONFIG_KEYS.get(key, key)}={value} out of range: must be {rule}")


def json_line(obj) -> str:
    """``obj`` as one line of compact JSON, newline included."""
    return _JSON.encode(obj) + "\n"


# Field rules of the data types and file readers: each raises an InputError naming
# the field (with any caller prefix) and the value. A bool is never a number,
# timestamp or label; exact int and float skip the slow numbers-ABC isinstance test.

def is_int(value) -> bool:
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_int(value, name: str, least: int) -> int:
    """An integer (never a bool) of at least ``least``."""
    if not is_int(value) or value < least:
        raise InputError(f"{name} {value!r} is not an integer >= {least}")
    return value


def check_ts(value, name: str = "ts") -> int:
    """An integer Unix timestamp within UTC years 1-9999."""
    if not is_int(value):
        raise InputError(f"{name} {value!r} is not an integer")
    if not MIN_TS <= value <= MAX_TS:
        raise InputError(f"{name} {value} outside years 1-9999")
    return value


def check_string(value, name: str) -> str:
    if type(value) is not str:
        raise InputError(f"{name} {value!r} is not a string")
    return value


def is_number(value) -> bool:
    return type(value) in (int, float) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def check_coordinates(lat, lon, where: str = "") -> None:
    """Degrees within ±90 and ±180; the range test also refuses NaN and infinities."""
    for name, value, limit in (("lat", lat, 90.0), ("lon", lon, 180.0)):
        if not is_number(value) or not -limit <= value <= limit:
            raise InputError(f"{where}{name} {value!r} out of range")


def check_geo(lat, lon, where: str = "") -> None:
    """No coordinates, or both within range."""
    if (lat is None) != (lon is None):
        raise InputError(f"{where}lat and lon must be given together")
    if lat is not None:
        check_coordinates(lat, lon, where)


def check_label(value, name: str = "label") -> int:
    """A label (truth, decision or point) is the integer 0 or 1."""
    if type(value) is not int or value not in (0, 1):
        raise InputError(f"{name} {value!r} is not 0 or 1")
    return value


@dataclass(frozen=True)
class DataPoint:
    """One stream item. Immutable; relabeling produces a new instance."""

    id: str
    ts: int
    text: str
    vec: np.ndarray
    lat: float | None = None
    lon: float | None = None
    label: int | None = None

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.float64)
        object.__setattr__(self, "vec", vec)
        if vec.ndim != 1:
            raise InputError(f"point {self.id}: vec must be 1-d, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise InputError(f"point {self.id}: vec has non-finite components")
        check_geo(self.lat, self.lon, f"point {self.id}: ")
        if self.label is not None:
            check_label(self.label, f"point {self.id}: label")

    @property
    def geo(self) -> tuple[float, float] | None:
        if self.lat is None:
            return None
        return (self.lat, self.lon)

    def with_label(self, label: int) -> "DataPoint":
        return replace(self, label=label)


@dataclass(frozen=True)
class EmbedderConfig:
    """How to turn text into a fixed-dimension vector."""

    dim: int = DEFAULT_DIM
    embed_mode: str = "feature_hash"  # or "table"
    table_path: str | None = None
    hash_seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"embedding dim must be positive, got {self.dim}")
        if self.embed_mode not in ("feature_hash", "table"):
            raise ConfigError(f"unknown embed_mode {self.embed_mode!r}")
        if self.embed_mode == "table" and not self.table_path:
            raise ConfigError("table mode requires table_path")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _token_bucket_sign(token: str, dim: int, seed: int) -> tuple[int, float]:
    # blake2b keyed by the seed keeps hashing stable across processes/platforms
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16, key=key).digest()
    bucket = int.from_bytes(digest[:8], "big") % dim
    sign = 1.0 if digest[8] & 1 else -1.0
    return bucket, sign


# The block reader hands numpy's C text reader about this many bytes of lines at a time.
_TABLE_CHUNK_BYTES = 1 << 20


def load_embedding_table(path: str | Path, dim: int) -> dict[str, np.ndarray]:
    """Read a token-to-vector table: a unique token plus ``dim`` finite floats per line.

    numpy's C text reader parses the file in blocks of lines. A table it does
    not take whole goes through :func:`_read_table_lines`, which alone refuses
    a table and names its line, and which also takes the spellings ``float``
    accepts beyond the C reader (``1_0``, non-ASCII digits). Both round
    decimals correctly, so either gives bit-equal vectors.
    """
    table = _read_table_blocks(path, dim)
    return _read_table_lines(path, dim) if table is None else table


def _read_table_blocks(path: str | Path, dim: int) -> dict[str, np.ndarray] | None:
    """The table parsed by ``np.loadtxt`` in chunks of lines, or None unless
    every chunk parses into rows of exactly ``dim`` finite values and every
    token is one unique ``str.split`` field."""
    flat = array("d")
    tokens: list[str] = []

    def token(field: str) -> float:
        tokens.append(field)
        return 0.0

    try:
        with open(path, encoding="utf-8") as fh:
            while chunk := fh.readlines(_TABLE_CHUNK_BYTES):
                rows = [line for line in chunk if line.strip()]
                if not rows:
                    continue  # loadtxt warns on a chunk without data
                # an explicit encoding hands converters str, not bytes, before numpy 2
                block = np.loadtxt(rows, comments=None, converters={0: token}, ndmin=2,
                                   encoding="utf-8")
                if block.shape[1] != dim + 1:
                    return None
                flat.frombytes(block[:, 1:].tobytes())
    except (OSError, ValueError):
        return None
    vecs = np.frombuffer(flat).reshape(-1, dim)
    if (len(vecs) != len(tokens) or len(set(tokens)) != len(tokens)
            or not np.isfinite(vecs).all() or any(t.split() != [t] for t in tokens)):
        return None
    return dict(zip(tokens, vecs))


def _read_table_lines(path: str | Path, dim: int) -> dict[str, np.ndarray]:
    """The table parsed line by line with ``float``; a bad line is a
    :class:`ConfigError` naming it."""
    flat = array("d")
    first_line: dict[str, int] = {}  # in row order
    for lineno, line in read_lines(path, ConfigError, "embedding table"):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ConfigError(
                f"{path}:{lineno}: expected token + {dim} floats, got {len(parts) - 1}"
            )
        try:
            flat.extend(map(float, parts[1:]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        first = first_line.setdefault(parts[0], lineno)
        if first != lineno:
            raise ConfigError(
                f"{path}:{lineno}: duplicate token {parts[0]!r}, first on line {first}"
            )
    vecs = np.frombuffer(flat).reshape(-1, dim)
    bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}:{list(first_line.values())[bad[0]]}: non-finite value")
    return dict(zip(first_line, vecs))


class Embedder:
    """Deterministic text embedder; equal (text, config) gives bit-equal vectors."""

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg
        self._table: dict[str, np.ndarray] | None = None
        if cfg.embed_mode == "table":
            self._table = load_embedding_table(cfg.table_path, cfg.dim)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_all([text])[0]

    def embed_all(self, texts: Sequence[str]) -> np.ndarray:
        """One ``(len(texts), dim)`` block: row i is the unit-length embedding of
        ``texts[i]``, or zeros when no token has a vector.

        A table row is the mean of the token vectors found; a hashed row sums
        +-1 per token in its bucket. A finite row keeps its direction even when
        its norm overflows; a mean that overflows gives a non-finite row, which
        the caller refuses.
        """
        dim = self.cfg.dim
        out = np.zeros((len(texts), dim))
        if self._table is not None:
            table = self._table
            for i, text in enumerate(texts):
                hits = [table[t] for t in tokenize(text) if t in table]
                if len(hits) == 1:
                    out[i] += hits[0]  # np.mean of one vector: 0.0 + v, so -0.0 becomes 0.0
                elif hits:
                    out[i] = np.mean(hits, axis=0)
        else:
            buckets: dict[str, tuple[int, float]] = {}
            for i, text in enumerate(texts):
                for token in tokenize(text):
                    if token not in buckets:
                        buckets[token] = _token_bucket_sign(token, dim, self.cfg.hash_seed)
                    bucket, sign = buckets[token]
                    out[i, bucket] += sign  # integer sums: exact in any order
        # a 1-d norm per row: norm(axis=1) would sum the squares in another order
        norms = np.array([vector_norm(row) for row in out])
        # a finite row whose squares overflow is first divided by its largest magnitude
        for i in np.flatnonzero(np.isinf(norms)):
            out[i], norms[i] = _rescaled(out[i], norms[i])
        np.divide(out, norms[:, None], out=out, where=norms[:, None] > 0.0)
        return out


# Below this norm the squares inside the norm may be subnormal or zero, and a
# finite vector whose squares overflow has an infinite norm: either vector is
# first divided by its largest magnitude.
_TINY_NORM = 1e-150
_F8 = np.dtype(np.float64)


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-d float64 array, bit for bit: numpy
    takes a vector's 2-norm as ``sqrt(x.dot(x))`` of its contiguous copy ``x``."""
    return math.sqrt(v.dot(v)) if v.flags.c_contiguous else float(np.linalg.norm(v))


def _rescaled(v: np.ndarray, norm: float) -> tuple[np.ndarray, float]:
    """``v`` and its norm, divided by max(abs(v)) when the norm is tiny, or
    infinite for a finite ``v``."""
    if not (norm < _TINY_NORM or norm == math.inf):
        return v, norm
    scale = float(np.max(np.abs(v), initial=0.0))
    if scale == 0.0 or scale == math.inf:
        return v, norm
    v = v / scale
    return v, vector_norm(v)


def cosine_distance(a: np.ndarray, b: np.ndarray,
                    na: float | None = None, nb: float | None = None) -> float:
    """Distance in [0, 1]: 0 identical direction, 0.5 orthogonal, 1 antiparallel.

    Maps cosine similarity s in [-1, 1] to (1 - s) / 2. A zero vector on either
    side yields 0.5 (maximal uncertainty) and is flagged in the debug log.
    ``na`` and ``nb``, when given, must be ``vector_norm`` of ``a`` and ``b``
    as float64 arrays; a caller that holds them saves recomputing them.
    """
    a = a if type(a) is np.ndarray and a.dtype is _F8 else np.asarray(a, dtype=np.float64)
    b = b if type(b) is np.ndarray and b.dtype is _F8 else np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = vector_norm(a) if na is None else na
    nb = vector_norm(b) if nb is None else nb
    if not (_TINY_NORM <= na < math.inf and _TINY_NORM <= nb < math.inf):
        a, na = _rescaled(a, na)
        b, nb = _rescaled(b, nb)
        if na == 0.0 or nb == 0.0:
            log.debug("cosine_distance on zero vector, returning 0.5")
            return 0.5
    sim = float(a.dot(b) / (na * nb))
    # clipped to [-1, 1]; NaN becomes 1.0, as under max(-1.0, min(1.0, sim))
    sim = 1.0 if not sim < 1.0 else -1.0 if sim < -1.0 else sim
    return (1.0 - sim) / 2.0


def centroid_cosine_distances(vectors: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Vectorized cosine_distance of each row of ``vectors`` to ``centroid``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    centroid, cnorm = _rescaled(centroid, vector_norm(centroid))
    tiny = np.flatnonzero((norms < _TINY_NORM) | np.isinf(norms))
    if tiny.size:
        vectors = vectors.copy()
        for i in tiny:
            vectors[i], norms[i] = _rescaled(vectors[i], norms[i])
    out = np.full(len(vectors), 0.5)
    if cnorm == 0.0:
        return out
    ok = norms > 0.0
    sims = (vectors[ok] @ centroid) / (norms[ok] * cnorm)
    np.clip(sims, -1.0, 1.0, out=sims)
    out[ok] = (1.0 - sims) / 2.0
    return out
