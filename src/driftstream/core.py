"""Domain types, deterministic text embedding, and the shared distance metric.

Every other module works on :class:`DataPoint` values and measures proximity
with :func:`cosine_distance`. Embeddings are deterministic: either feature
hashing (no external model) or a lookup table of precomputed vectors.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_DIM = 300

LABEL_RELEVANT = 1
LABEL_IRRELEVANT = 0

# how a label got attached to a point
SOURCE_GROUND_TRUTH = "ground_truth"
SOURCE_CORROBORATIVE = "corroborative"
SOURCE_PREDICTED = "predicted"
LABEL_SOURCES = (SOURCE_GROUND_TRUTH, SOURCE_CORROBORATIVE, SOURCE_PREDICTED)

# Stream and feed timestamps are integer Unix seconds within UTC years 1-9999:
# detected events are grouped by UTC date, and the labeler's float64 prefilter
# is exact on integers this small.
MIN_TS = -62135596800
MAX_TS = 253402300799

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class ConfigError(Exception):
    """Bad or inconsistent configuration (missing table file, unknown keys...)."""


class InputError(Exception):
    """Malformed or contract-violating input data."""


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
    label_source: str | None = None

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.float64)
        object.__setattr__(self, "vec", vec)
        if vec.ndim != 1:
            raise InputError(f"point {self.id}: vec must be 1-d, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise InputError(f"point {self.id}: vec has non-finite components")
        if (self.lat is None) != (self.lon is None):
            raise InputError(f"point {self.id}: lat and lon must be given together")
        for name, value, limit in (("lat", self.lat, 90.0), ("lon", self.lon, 180.0)):
            if value is not None and (isinstance(value, bool) or not -limit <= value <= limit):
                raise InputError(f"point {self.id}: {name} {value!r} out of range")
        if self.label is not None:
            if self.label not in (LABEL_RELEVANT, LABEL_IRRELEVANT):
                raise InputError(f"point {self.id}: label must be 0 or 1")
            if self.label_source not in LABEL_SOURCES:
                raise InputError(f"point {self.id}: labeled point needs a label_source")

    @property
    def geo(self) -> tuple[float, float] | None:
        if self.lat is None:
            return None
        return (self.lat, self.lon)

    def with_label(self, label: int, source: str) -> "DataPoint":
        return replace(self, label=label, label_source=source)


@dataclass(frozen=True)
class EmbedderConfig:
    """How to turn text into a fixed-dimension vector."""

    dim: int = DEFAULT_DIM
    mode: str = "feature_hash"  # or "table"
    table_path: str | None = None
    hash_seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"embedding dim must be positive, got {self.dim}")
        if self.mode not in ("feature_hash", "table"):
            raise ConfigError(f"unknown embed_mode {self.mode!r}")
        if self.mode == "table" and not self.table_path:
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


def load_embedding_table(path: str | Path, dim: int) -> dict[str, np.ndarray]:
    """Read a token-to-vector table: one token plus ``dim`` finite floats per line."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read embedding table {path}: {exc}") from exc
    lines = raw.splitlines()
    # row i holds line i + 1 (blank lines stay zero), so one finiteness check
    # at the end still names the offending line
    vecs = np.zeros((len(lines), dim))
    table: dict[str, np.ndarray] = {}
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise ConfigError(
                f"{path}:{i + 1}: expected token + {dim} floats, got {len(parts) - 1}"
            )
        try:
            vecs[i] = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"{path}:{i + 1}: {exc}") from exc
        table[parts[0]] = vecs[i]
    bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}:{bad[0] + 1}: non-finite value")
    return table


class Embedder:
    """Deterministic text embedder; equal (text, config) gives bit-equal vectors."""

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg
        self._table: dict[str, np.ndarray] | None = None
        if cfg.mode == "table":
            self._table = load_embedding_table(cfg.table_path, cfg.dim)

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        vec = np.zeros(self.cfg.dim, dtype=np.float64)
        if self._table is not None:
            hits = [self._table[t] for t in tokens if t in self._table]
            if hits:
                vec = np.mean(hits, axis=0)
        else:
            for token in tokens:
                bucket, sign = _token_bucket_sign(token, self.cfg.dim, self.cfg.hash_seed)
                vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / norm
        return vec


def embed(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """One-shot embedding; builds a table-backed embedder per call in table mode."""
    return Embedder(cfg).embed(text)


# Below this norm the squares inside np.linalg.norm may be subnormal or zero,
# so the vector is first divided by its largest magnitude.
_TINY_NORM = 1e-150


def _rescaled(v: np.ndarray, norm: float) -> tuple[np.ndarray, float]:
    """``v`` and its norm, divided by max(abs(v)) when the norm is tiny."""
    if norm >= _TINY_NORM:
        return v, norm
    scale = float(np.max(np.abs(v), initial=0.0))
    if scale == 0.0:
        return v, 0.0
    v = v / scale
    return v, float(np.linalg.norm(v))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance in [0, 1]: 0 identical direction, 0.5 orthogonal, 1 antiparallel.

    Maps cosine similarity s in [-1, 1] to (1 - s) / 2. A zero vector on either
    side yields 0.5 (maximal uncertainty) and is flagged in the debug log.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < _TINY_NORM or nb < _TINY_NORM:
        a, na = _rescaled(a, na)
        b, nb = _rescaled(b, nb)
        if na == 0.0 or nb == 0.0:
            log.debug("cosine_distance on zero vector, returning 0.5")
            return 0.5
    sim = float(np.dot(a, b) / (na * nb))
    sim = max(-1.0, min(1.0, sim))
    return (1.0 - sim) / 2.0


def centroid_cosine_distances(vectors: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Vectorized cosine_distance of each row of ``vectors`` to ``centroid``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    centroid, cnorm = _rescaled(centroid, float(np.linalg.norm(centroid)))
    tiny = np.flatnonzero(norms < _TINY_NORM)
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
