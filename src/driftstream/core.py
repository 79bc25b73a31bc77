"""Domain types, deterministic text embedding, and the shared distance metric.

Every other module works on :class:`DataPoint` values. Proximity is the one
cosine distance of :func:`cosine_distance`: routing takes it point by point
with :func:`_cosine` on norms it already holds, and scoring and bands take a
block of points to one centroid at once with
:func:`centroid_cosine_distances`. Embeddings are deterministic: either
feature hashing (no external model) or a lookup table of precomputed vectors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import logging
import math
import numbers
import os
import re
import stat
import struct
import tempfile
import warnings
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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
    other Unicode separators; an unreadable file, or one that starts with a
    byte-order mark, raises ``error`` naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if lineno == 1 and line.startswith("\ufeff"):
                    raise error(f"{path}:1: {what} starts with a UTF-8 byte-order mark")
                if line.strip():
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def line_fault(path: str | Path, lineno: int, what: str, exc: Exception) -> InputError:
    """The :class:`InputError` of a bad ``what`` line of ``path``; a missing key is named as one."""
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return InputError(f"{path}:{lineno}: malformed {what} line: {detail}")


def check_unique(first_line: dict, key: str, path: str | Path, lineno: int) -> None:
    """Note ``key`` on line ``lineno`` of ``path`` in ``first_line``; a key
    already on an earlier line is an :class:`InputError` naming both lines."""
    first = first_line.setdefault(key, lineno)
    if first != lineno:
        raise InputError(f"{path}:{lineno}: duplicate id {key!r}, first on line {first}")


def read_jsonl(path: str | Path, what: str, parse) -> Iterator[tuple[int, object]]:
    """(line number, ``parse`` applied to its JSON) for each non-blank line of
    ``path``. A line that is not JSON, lacks a key or holds a bad value is the
    :func:`line_fault` naming the file and line."""
    for lineno, line in read_lines(path, InputError, f"{what} file"):
        try:
            yield lineno, parse(json.loads(line))
        except (KeyError, ValueError, TypeError, InputError) as exc:
            raise line_fault(path, lineno, what, exc) from exc


def json_line(obj) -> str:
    """``obj`` as one line of compact JSON, newline included."""
    return _JSON.encode(obj) + "\n"


# Field rules of the data types and file readers: each raises an InputError naming
# the field (with any caller prefix) and the value. A bool is never a number,
# timestamp or label. A record's number is one json_line writes: an int or float
# instance (np.float64 is a float; np.int64 and np.float32 are neither). Settings,
# which hold such a number as the int or float it equals, and feed events also take
# any numbers.Integral or numbers.Real. Exact int and float skip the slower tests.

def is_int(value) -> bool:
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def is_number(value) -> bool:
    return type(value) in (int, float) or (isinstance(value, (int, float))
                                           and not isinstance(value, bool))


def is_integral(value) -> bool:
    return is_int(value) or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_real(value) -> bool:
    return is_number(value) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def check_int(value, name: str, least: int) -> int:
    """An integer (never a bool) of at least ``least``."""
    if not is_int(value) or value < least:
        raise InputError(f"{name} {value!r} is not an integer >= {least}")
    return value


def check_ts(value, name: str = "ts", is_kind=is_int) -> int:
    """An integer Unix timestamp within UTC years 1-9999, an integer by ``is_kind``."""
    if not is_kind(value):
        raise InputError(f"{name} {value!r} is not an integer")
    if not MIN_TS <= value <= MAX_TS:
        raise InputError(f"{name} {value} outside years 1-9999")
    return value


def check_string(value, name: str) -> str:
    if type(value) is not str:
        raise InputError(f"{name} {value!r} is not a string")
    return value


# A setting's type is its field's string annotation (``from __future__ import annotations``):
# "int", "float" or "str", or "T | None" when it may be unset. An int is a float; a bool is neither.
_SETTING_TYPES = {"int": (int, is_integral, "an integer"), "float": (float, is_real, "a number"),
                  "str": (str, lambda v: type(v) is str, "a string")}


def setting_types(cls) -> dict[str, tuple[tuple, bool]]:
    """((converter, test, name), optional) of each field of the config dataclass ``cls``."""
    return {f.name: (_SETTING_TYPES[f.type.removesuffix(" | None")], f.type.endswith(" | None"))
            for f in fields(cls)}


def check_ranges(config, ranges: dict) -> None:
    """Refuse the first setting of ``config`` whose value is not of its annotated
    type, then the first failing its (test, rule); NaN fails every test. A
    number no record takes (``np.int64(3)``) is held as the int or float it equals."""
    for key, ((_, is_kind, what), optional) in setting_types(type(config)).items():
        value = getattr(config, key)
        if not (is_kind(value) or optional and value is None):
            raise ConfigError(f"{CONFIG_KEYS.get(key, key)}={value!r} is not {what}")
        if is_real(value) and not is_number(value):
            object.__setattr__(config, key, int(value) if is_integral(value) else float(value))
    for key, (ok, rule) in ranges.items():
        value = getattr(config, key)
        if not ok(value):
            raise ConfigError(f"{CONFIG_KEYS.get(key, key)}={value!r} out of range: must be {rule}")


def check_coordinates(lat, lon, where: str = "", is_kind=is_number) -> None:
    """Degrees within ±90 and ±180, numbers by ``is_kind``; the range test also
    refuses NaN and infinities."""
    for name, value, limit in (("lat", lat, 90.0), ("lon", lon, 180.0)):
        if not is_kind(value) or not -limit <= value <= limit:
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


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One stream item. Immutable; relabeling produces a new instance. Its
    numbers are ones its checkpoint record can hold (see :func:`is_number`)."""

    id: str
    ts: int
    text: str
    vec: np.ndarray
    lat: float | None = None
    lon: float | None = None
    label: int | None = None

    def __post_init__(self):
        check_string(self.id, "point id")
        where = f"point {self.id}: "
        check_ts(self.ts, where + "ts")
        check_string(self.text, where + "text")
        vec = np.asarray(self.vec, dtype=np.float64)
        object.__setattr__(self, "vec", vec)
        if vec.ndim != 1:
            raise InputError(f"{where}vec must be 1-d, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise InputError(f"{where}vec has non-finite components")
        check_geo(self.lat, self.lon, where)
        if self.label is not None:
            check_label(self.label, where + "label")

    @classmethod
    def from_checked(cls, id, ts, text, vec, lat, lon, label=None) -> "DataPoint":
        """A point of fields its caller has already checked against every rule
        above, built without running them again; ``vec`` must be a 1-d float64
        array."""
        p = object.__new__(cls)
        put = object.__setattr__
        put(p, "id", id)
        put(p, "ts", ts)
        put(p, "text", text)
        put(p, "vec", vec)
        put(p, "lat", lat)
        put(p, "lon", lon)
        put(p, "label", label)
        return p

    @property
    def geo(self) -> tuple[float, float] | None:
        if self.lat is None:
            return None
        return (self.lat, self.lon)

    def with_label(self, label: int) -> "DataPoint":
        """This point with ``label``, the one field checked again."""
        check_label(label, f"point {self.id}: label")
        return self.from_checked(self.id, self.ts, self.text, self.vec, self.lat, self.lon, label)


def stack_vectors(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """The ``len(vecs)`` x d block of the non-empty 1-d float64 vectors
    ``vecs``, all of one width d, as ``np.stack`` would give it, byte for byte."""
    return np.concatenate(vecs).reshape(len(vecs), vecs[0].size)


@dataclass(frozen=True)
class EmbedderConfig:
    """How to turn text into a fixed-dimension vector."""

    dim: int = DEFAULT_DIM
    embed_mode: str = "feature_hash"  # or "table"
    table_path: str | None = None
    hash_seed: int = 0

    def __post_init__(self):
        check_ranges(self, {
            "dim": (lambda v: v >= 1, ">= 1"),
            "embed_mode": (lambda v: v in ("feature_hash", "table"), "feature_hash or table"),
        })
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


# Values of an embedding table, tokens included, parsed per np.loadtxt call:
# a block of about 512 KiB, small beside a table, yet large enough that malloc
# maps each block on its own, so a freed table leaves no holes in the heap.
_TABLE_CHUNK_VALUES = 1 << 16
# Bytes of a table's text read and decoded per call.
_TEXT_BUFFER = 1 << 16


def table_chunks(path: str | Path, dim: int) -> Iterator[tuple[list[str], np.ndarray]]:
    """(tokens, vectors) of each chunk of lines of the table, in file order,
    read in one pass over the file opened as UTF-8 text; a chunk holds
    ``_TABLE_CHUNK_VALUES // (dim + 1)`` lines, or one.

    numpy's C text reader parses each chunk in one call, its vectors the rows
    of one block, taking the lines one by one from the file. A chunk it does
    not take is read again by :func:`_read_table_lines`, which also takes the
    spellings ``float`` accepts beyond the C reader (``1_0``, non-ASCII
    digits); both round decimals correctly, so either gives bit-equal
    vectors. On any fault, whatever its chunk, the line reader reads the
    table again from the start and raises the :class:`ConfigError` naming its
    first bad line, as one pass of it over the whole table would; the chunks
    before the fault have been yielded by then. So a table is a regular file.

    A pass without a fault leaves the table's rows beside it in its sidecar
    (:data:`SIDECAR_SUFFIX`), keyed by the sha256 of the bytes parsed; a later
    read of the same bytes at the same ``dim`` yields the same chunks from
    the sidecar, a chunk's rows at a time, without parsing the text.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError(f"cannot read embedding table {path}: not a regular file")
    size = max(1, _TABLE_CHUNK_VALUES // (dim + 1))
    cached = _read_sidecar(path, dim)
    if cached is not None:
        sidecar, tokens = cached
        with sidecar:
            for first in range(0, len(tokens), size):
                rows = tokens[first:first + size]
                block = np.empty(len(rows) * dim, dtype="<f8")  # each chunk a block of its own
                if sidecar.readinto(block) != block.nbytes:
                    raise ConfigError(f"cannot read embedding table {path}: "
                                      "its sidecar changed while being read")
                yield rows, block.reshape(len(rows), dim)
        return
    seen: dict[str, None] = {}  # the tokens in row order
    sidecar = _SidecarWriter(path, dim)
    try:
        with _HashingFile(path) as raw, io.TextIOWrapper(
                io.BufferedReader(raw, _TEXT_BUFFER), encoding="utf-8") as fh:
            fh._CHUNK_SIZE = _TEXT_BUFFER  # one hashed read per 64 KiB of text, not per 8 KiB
            for start in itertools.count(1, size):
                at = fh.tell()
                chunk = _read_table_block(_next_lines(fh, size), dim)
                if chunk is None:  # the line reader takes the same lines
                    fh.seek(at)
                    lines = list(_next_lines(fh, size))
                    if start == 1 and lines and lines[0].startswith("\ufeff"):
                        break
                    chunk = _read_table_lines(
                        ((n, line) for n, line in enumerate(lines, start) if line.strip()),
                        path, dim)
                elif fh.tell() == at:  # the table has ended
                    sidecar.commit(seen, raw.sha256.digest())
                    return
                held = len(seen)
                seen.update(dict.fromkeys(chunk[0]))
                if len(seen) != held + len(chunk[0]):  # a token repeated
                    break
                sidecar.write(chunk[1])
                yield chunk
    except (OSError, UnicodeDecodeError, ConfigError):
        pass
    finally:
        sidecar.discard()
    # the line reader names the first fault, reading the table again from the start
    _read_table_lines(read_lines(path, ConfigError, "embedding table"), path, dim)
    raise ConfigError(f"cannot read embedding table {path}: it changed while being read")


def _next_lines(fh, n: int) -> Iterator[str]:
    """The next ``n`` lines of the text file ``fh``, read one by one with
    ``readline``, which, unlike iterating ``fh``, leaves ``tell`` usable."""
    return itertools.islice(iter(fh.readline, ""), n)


def _read_table_block(lines: Iterable[str], dim: int) -> tuple[list[str], np.ndarray] | None:
    """(tokens, vectors) of the table lines ``lines`` parsed by one
    ``np.loadtxt`` call, the vectors row views of one block, or None unless
    every row holds exactly ``dim`` finite values and every token is one
    ``str.split`` field that does not start with a byte-order mark."""
    tokens: list[str] = []

    def token(field: str) -> float:
        tokens.append(field)
        return 0.0

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # an explicit encoding hands converters str, not bytes, before numpy 2
            block = np.loadtxt(lines, comments=None, converters={0: token}, ndmin=2,
                               encoding="utf-8")
    except ValueError:
        return None
    vecs = block[:, 1:]
    if (tokens and block.shape[1] != dim + 1  # lines without rows read as shape (0, 1)
            or not np.isfinite(vecs).all() or any(t.split() != [t] for t in tokens)
            or tokens[:1] and tokens[0].startswith("\ufeff")):
        return None
    return tokens, vecs


def _read_table_lines(lines: Iterable[tuple[int, str]], path: str | Path,
                      dim: int) -> tuple[list[str], np.ndarray]:
    """(tokens, vectors) of the numbered non-blank table lines ``lines``,
    parsed one by one with ``float``; a bad line is a :class:`ConfigError`
    naming it in ``path``."""
    flat = array("d")
    first_line: dict[str, int] = {}  # in row order
    for lineno, line in lines:
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
    return list(first_line), vecs


# A table's sidecar is <table path>.f8cache: a header, the rows as
# little-endian float64 in row order, then the tokens in row order, UTF-8 and
# newline-separated. The rows come before the tokens so that a pass over the
# text can write each chunk's rows as it reads them.
SIDECAR_SUFFIX = ".f8cache"
# Bump the version whenever _read_table_block or _read_table_lines changes
# what it refuses or the values it yields: a sidecar records the text it was
# parsed from, not the reader rules, so an old one would keep serving what the
# old rules gave.
_SIDECAR_VERSION = 1
# magic, format version, dim, rows, token bytes, sha256 of the text
_SIDECAR_HEAD = struct.Struct("<8s4Q32s")
_SIDECAR_MAGIC = b"DSTABLE\x00"


class _HashingFile(io.FileIO):
    """A binary file that hashes each byte the first time it is read. A seek
    back (to read lines again) hashes nothing again, so at the end
    ``sha256`` is the digest of exactly the bytes read."""

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()
        self.hashed = 0  # bytes [0, hashed) are in the digest

    def readinto(self, b) -> int:
        at = self.tell()
        n = super().readinto(b)
        if at + n > self.hashed:  # seeks only go back, so at <= hashed
            with memoryview(b) as view:
                self.sha256.update(view.cast("B")[self.hashed - at:n])
            self.hashed = at + n
        return n


class _SidecarWriter:
    """A table's sidecar, written as the text is read: the rows go to a
    temporary file in the table's directory, renamed over the sidecar once
    the whole table is read without a fault. A directory that cannot be
    written, or a full disk, leaves no sidecar and no temporary file."""

    def __init__(self, path: str | Path, dim: int):
        self.target = os.fspath(path) + SIDECAR_SUFFIX
        self.dim = dim
        self.rows = 0
        self.fh = None
        try:
            fd, self.name = tempfile.mkstemp(prefix=os.path.basename(self.target) + ".",
                                             dir=os.path.dirname(self.target) or ".")
            self.fh = open(fd, "wb")
            self.fh.write(bytes(_SIDECAR_HEAD.size))  # the header is written last
        except OSError as exc:
            self.discard(exc)

    def write(self, vecs: np.ndarray) -> None:
        if self.fh is not None:
            try:
                self.fh.write(np.ascontiguousarray(vecs, dtype="<f8"))
                self.rows += len(vecs)
            except OSError as exc:
                self.discard(exc)

    def commit(self, tokens: Iterable[str], digest: bytes) -> None:
        """Write the tokens and the header, then put the file in the sidecar's place."""
        if self.fh is not None:
            try:
                blob = "\n".join(tokens).encode("utf-8")
                self.fh.write(blob)
                self.fh.seek(0)
                self.fh.write(_SIDECAR_HEAD.pack(_SIDECAR_MAGIC, _SIDECAR_VERSION, self.dim,
                                                 self.rows, len(blob), digest))
                self.fh.close()
                os.replace(self.name, self.target)
                self.fh = None
            except OSError as exc:
                self.discard(exc)

    def discard(self, exc: OSError | None = None) -> None:
        """Remove the temporary file, if it is still there; ``exc`` is why."""
        if exc is not None:
            log.debug("no embedding table sidecar %s: %s", self.target, exc)
        if self.fh is not None:
            fh, self.fh = self.fh, None
            with contextlib.suppress(OSError):
                fh.close()
            with contextlib.suppress(OSError):
                os.unlink(self.name)


def _read_sidecar(path: str | Path, dim: int) -> tuple[BinaryIO, list[str]] | None:
    """The open sidecar of the table at ``path``, at its first row, and its
    tokens; None unless the sidecar is a regular file, not a symlink, owned by
    this user and writable by no one else, of exactly its header's length,
    written for ``dim`` from text whose sha256 is the table's now, with
    finite rows and unique tokens, each one ``str.split`` field."""
    try:
        fh = open(os.open(os.fspath(path) + SIDECAR_SUFFIX,
                          os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK), "rb")
    except OSError:
        return None
    try:
        st = os.fstat(fh.fileno())
        head = fh.read(_SIDECAR_HEAD.size)
        if not (stat.S_ISREG(st.st_mode) and st.st_uid == os.geteuid()
                and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
                and len(head) == _SIDECAR_HEAD.size):
            raise ValueError("untrusted")
        magic, version, head_dim, rows, blob_size, digest = _SIDECAR_HEAD.unpack(head)
        if not (magic == _SIDECAR_MAGIC and version == _SIDECAR_VERSION and head_dim == dim
                and st.st_size == _SIDECAR_HEAD.size + 8 * rows * dim + blob_size
                and digest == _file_sha256(path)):
            raise ValueError("stale")
        fh.seek(_SIDECAR_HEAD.size + 8 * rows * dim)
        blob = fh.read(blob_size).decode("utf-8")
        tokens = blob.split()
        if len(tokens) != rows or "\n".join(tokens) != blob or len(set(tokens)) != rows:
            raise ValueError("bad tokens")
        fh.seek(_SIDECAR_HEAD.size)
        step = max(1, _TABLE_CHUNK_VALUES // (dim + 1)) * dim
        for first in range(0, rows * dim, step):
            values = np.frombuffer(fh.read(8 * min(step, rows * dim - first)), dtype="<f8")
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
        fh.seek(_SIDECAR_HEAD.size)
        return fh, tokens
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        fh.close()
        return None


def _file_sha256(path: str | Path) -> bytes:
    buf = bytearray(1 << 20)
    with _HashingFile(path) as fh:
        while fh.readinto(buf):
            pass
    return fh.sha256.digest()


class Embedder:
    """Deterministic text embedder; equal (text, config) gives bit-equal vectors."""

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg
        self._table: dict[str, np.ndarray] | None = None
        if cfg.embed_mode == "table":  # each vector a row view of its chunk's block
            self._table = {token: vec for tokens, vecs in table_chunks(cfg.table_path, cfg.dim)
                           for token, vec in zip(tokens, vecs)}

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
                _put_mean(out, i, [table[t] for t in tokenize(text) if t in table])
        else:
            buckets: dict[str, tuple[int, float]] = {}
            for i, text in enumerate(texts):
                for token in tokenize(text):
                    if token not in buckets:
                        buckets[token] = _token_bucket_sign(token, dim, self.cfg.hash_seed)
                    bucket, sign = buckets[token]
                    out[i, bucket] += sign  # integer sums: exact in any order
        return _to_unit_rows(out)


def embed_texts(texts: Sequence[str], cfg: EmbedderConfig) -> np.ndarray:
    """``Embedder(cfg).embed_all(texts)``, bit for bit, never holding a whole table.

    A table is read in one pass of :func:`table_chunks`, as ``Embedder`` reads
    it, with every refusal. A text of one token takes its row straight
    from the chunk that holds it; only the rows that texts of several tokens
    use are kept until the pass ends, then averaged in token order.
    """
    if cfg.embed_mode != "table":
        return Embedder(cfg).embed_all(texts)
    out = np.zeros((len(texts), cfg.dim))
    alone: dict[str, list[int]] = {}  # token -> the texts it is the one token of
    several: list[tuple[int, list[str]]] = []
    for i, text in enumerate(texts):
        tokens = tokenize(text)
        if len(tokens) == 1:
            alone.setdefault(tokens[0], []).append(i)
        elif tokens:
            several.append((i, tokens))
    wanted = {t for _, tokens in several for t in tokens}
    kept: dict[str, np.ndarray] = {}
    for tokens, vecs in table_chunks(cfg.table_path, cfg.dim):
        hits = [(i, row) for row, token in enumerate(tokens) for i in alone.get(token, ())]
        if hits:
            into, rows = zip(*hits)
            out[list(into)] += vecs[list(rows)]  # a text's one hit: 0.0 + v, as in _put_mean
        # copies, not views, which would hold their chunk
        kept.update((t, vecs[row].copy()) for row, t in enumerate(tokens) if t in wanted)
    for i, tokens in several:
        _put_mean(out, i, [kept[t] for t in tokens if t in kept])
    return _to_unit_rows(out)


def _put_mean(out: np.ndarray, i: int, hits: list[np.ndarray]) -> None:
    """Set the zero row ``out[i]`` to the mean of the table vectors ``hits``;
    a mean that overflows gives a non-finite row, which the caller refuses."""
    if len(hits) == 1:
        out[i] += hits[0]  # np.mean of one vector: 0.0 + v, so -0.0 becomes 0.0
    elif hits:
        out[i] = np.mean(hits, axis=0)


def _to_unit_rows(out: np.ndarray) -> np.ndarray:
    """``out`` with each nonzero row divided in place by its norm. A finite row
    keeps its direction even when its norm overflows."""
    # a 1-d norm per row: norm(axis=1) would sum the squares in another order;
    # a finite row whose squares overflow is first divided by its largest magnitude
    with np.errstate(over="ignore"):
        norms = np.array([vector_norm(row) for row in out])
        for i in np.flatnonzero(np.isinf(norms)):
            out[i], norms[i] = _rescaled(out[i], norms[i])
    np.divide(out, norms[:, None], out=out, where=norms[:, None] > 0.0)
    return out


# Below this norm the squares inside the norm may be subnormal or zero, and a
# finite vector whose squares overflow has an infinite norm: either vector is
# first divided by its largest magnitude.
_TINY_NORM = 1e-150


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


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance in [0, 1]: 0 identical direction, 0.5 orthogonal, 1 antiparallel.

    Maps cosine similarity s in [-1, 1] to (1 - s) / 2. A zero vector on either
    side yields 0.5 (maximal uncertainty) and is flagged in the debug log.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _cosine(a, b, vector_norm(a), vector_norm(b))


def _cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """:func:`cosine_distance` of float64 vectors of one shape and their norms,
    unchecked."""
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
    if ok.all():  # the rows vectors[ok] would copy, in the same C order
        sims = (np.ascontiguousarray(vectors) @ centroid) / (norms * cnorm)
    else:
        sims = (vectors[ok] @ centroid) / (norms[ok] * cnorm)
    np.clip(sims, -1.0, 1.0, out=sims)
    out[ok] = (1.0 - sims) / 2.0
    return out
