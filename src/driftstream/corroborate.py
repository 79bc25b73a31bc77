"""Corroborative events and retroactive spatio-temporal labeling.

Trusted feeds (agency reports, news) arrive late but carry annotations; any
stream point inside an event's space-time extent inherits the event's
polarity as its label.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DataPoint, InputError, check_coordinates, check_string, check_ts, is_number, json_line,
    read_lines,
)

EARTH_RADIUS_KM = 6371.0088
DEFAULT_PAD_SECONDS = 86400.0
DEFAULT_RADIUS_KM = 50.0
MAX_RADIUS_KM = 1000.0

# Upper bound on the (point, event) pairs one prefilter block holds, which
# keeps the numpy temporaries of assign_labels at a few MB.
_BLOCK_PAIRS = 1 << 18

POLARITY_RELEVANT = "relevant"
POLARITY_IRRELEVANT = "irrelevant"


@dataclass(frozen=True)
class CorroborativeEvent:
    """A trusted event with a spatio-temporal extent and a polarity."""

    id: str
    ts_start: int
    ts_end: int
    lat: float
    lon: float
    radius_km: float
    polarity: str
    source: str = ""

    def __post_init__(self):
        check_string(self.id, "event id")
        check_ts(self.ts_start, f"event {self.id}: ts_start")
        check_ts(self.ts_end, f"event {self.id}: ts_end")
        if self.ts_start > self.ts_end:
            raise InputError(f"event {self.id}: ts_start after ts_end")
        if not is_number(self.radius_km) or not 0.0 < self.radius_km <= MAX_RADIUS_KM:
            raise InputError(f"event {self.id}: radius {self.radius_km} out of range")
        check_coordinates(self.lat, self.lon, f"event {self.id}: ")
        if self.polarity not in (POLARITY_RELEVANT, POLARITY_IRRELEVANT):
            raise InputError(f"event {self.id}: unknown polarity {self.polarity!r}")

    @property
    def label(self) -> int:
        return 1 if self.polarity == POLARITY_RELEVANT else 0


@dataclass(frozen=True)
class LabelAssignment:
    point_id: str
    event_id: str
    label: int
    distance_km: float


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometers between (lat, lon) pairs in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def assign_labels(
    points: Sequence[DataPoint],
    events: Sequence[CorroborativeEvent],
    pad_seconds: float = DEFAULT_PAD_SECONDS,
) -> list[LabelAssignment]:
    """Match points to events by location and padded time span.

    A point matches when it has coordinates, lies within the event radius, and
    its timestamp falls inside [ts_start - pad, ts_end + pad]. Among multiple
    matches the nearest event wins, with ties going to the smallest event id.
    Geo-less and unmatched points stay unlabeled. Assignments come back in
    input point order.

    The match runs in two stages. A numpy prefilter takes the geotagged points
    in blocks and keeps the (point, event) pairs inside the padded span whose
    vectorised haversine distance is within the radius plus a small slack, a
    superset of the true matches. Then the scalar :func:`haversine_km` and the
    original per-pair tests decide membership and ties on those survivors
    alone, so results are identical to checking every pair. A block holds at
    most about ``_BLOCK_PAIRS`` pairs, so memory stays bounded however long
    the feed is.
    """
    located = [p for p in points if p.geo is not None]
    if not located or not events:
        return []
    span_lo = np.array([e.ts_start - pad_seconds for e in events], dtype=np.float64)
    span_hi = np.array([e.ts_end + pad_seconds for e in events], dtype=np.float64)
    ev_lat = np.radians([e.lat for e in events])
    ev_lon = np.radians([e.lon for e in events])
    ev_cos = np.cos(ev_lat)
    reach = np.array([e.radius_km for e in events], dtype=np.float64) * (1.0 + 1e-9) + 1e-6
    by_lo = np.argsort(span_lo, kind="stable")
    sorted_lo = span_lo[by_lo]

    out: list[LabelAssignment] = []
    step = max(1, _BLOCK_PAIRS // len(events))
    for start in range(0, len(located), step):
        block = located[start:start + step]
        ts = np.array([p.ts for p in block], dtype=np.float64)
        # events whose padded span can overlap the block's time range, in input order
        cand = by_lo[:np.searchsorted(sorted_lo, ts.max(), side="right")]
        cand = np.sort(cand[span_hi[cand] >= ts.min()])
        if cand.size == 0:
            continue
        lat = np.radians([p.lat for p in block])[:, None]
        lon = np.radians([p.lon for p in block])[:, None]
        h = (np.sin((lat - ev_lat[cand]) / 2.0) ** 2
             + np.cos(lat) * ev_cos[cand] * np.sin((lon - ev_lon[cand]) / 2.0) ** 2)
        dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        ts = ts[:, None]
        survive = (span_lo[cand] <= ts) & (ts <= span_hi[cand]) & (dist <= reach[cand])
        # np.nonzero walks row-major: points in block order, events in input order
        rows, cols = np.nonzero(survive)
        survivors: dict[int, list[CorroborativeEvent]] = {}
        for r, j in zip(rows.tolist(), cand[cols].tolist()):
            survivors.setdefault(r, []).append(events[j])
        for r, candidates in survivors.items():
            match = _nearest_match(block[r], candidates, pad_seconds)
            if match is not None:
                out.append(match)
    return out


def _nearest_match(
    p: DataPoint, events: Iterable[CorroborativeEvent], pad_seconds: float,
) -> LabelAssignment | None:
    """The exact per-pair decision: padded span, scalar haversine within the
    radius, nearest event first and then the smallest id."""
    best: tuple[float, str, CorroborativeEvent] | None = None
    for e in events:
        if not (e.ts_start - pad_seconds <= p.ts <= e.ts_end + pad_seconds):
            continue
        dist = haversine_km(p.geo, (e.lat, e.lon))
        if dist > e.radius_km:
            continue
        key = (dist, e.id)
        if best is None or key < (best[0], best[1]):
            best = (dist, e.id, e)
    if best is None:
        return None
    dist, _, e = best
    return LabelAssignment(point_id=p.id, event_id=e.id, label=e.label, distance_km=dist)


def label_fraction(points: Sequence, assignments: Sequence[LabelAssignment]) -> float:
    """Fraction of all points that received a corroborative label."""
    if not points:
        raise InputError("need at least one point")
    return len(assignments) / len(points)


def load_events(path: str | Path) -> list[CorroborativeEvent]:
    """Read a corroborative feed: one JSON event per line."""
    events = []
    for lineno, line in read_lines(path, InputError, "corroborative feed"):
        try:
            d = json.loads(line)
            events.append(
                CorroborativeEvent(
                    id=d["id"], ts_start=d["ts_start"], ts_end=d["ts_end"],
                    lat=d["lat"], lon=d["lon"],
                    radius_km=DEFAULT_RADIUS_KM if d.get("radius_km") is None else d["radius_km"],
                    polarity=d["polarity"], source=d.get("source", ""),
                )
            )
        except (KeyError, ValueError, TypeError, InputError) as exc:
            raise InputError(f"{path}:{lineno}: bad event line: {exc}") from exc
    return events


def save_events(events: Iterable[CorroborativeEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json_line(asdict(e)))
