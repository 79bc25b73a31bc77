import math
from unittest import mock

import numpy as np
import pytest
from helpers import reference_assign_labels
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import corroborate
from driftstream.core import DataPoint, InputError
from driftstream.corroborate import (
    EARTH_RADIUS_KM,
    CorroborativeEvent,
    assign_labels,
    haversine_km,
    label_fraction,
    load_events,
    save_events,
)


def point(pid, lat=None, lon=None, ts=0):
    return DataPoint(id=pid, ts=ts, text="", vec=np.zeros(2), lat=lat, lon=lon)


def event(eid, lat, lon, radius=100.0, ts_start=0, ts_end=100, polarity="relevant"):
    return CorroborativeEvent(id=eid, ts_start=ts_start, ts_end=ts_end,
                              lat=lat, lon=lon, radius_km=radius, polarity=polarity)


class TestHaversine:
    def test_coincident_points(self):
        assert haversine_km((12.3, 45.6), (12.3, 45.6)) == 0.0

    def test_half_circumference(self):
        assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, abs=1e-6
        )
        assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(20015.1, abs=0.1)

    def test_hundred_km_along_equator(self):
        expected = 0.8993 * math.pi * EARTH_RADIUS_KM / 180.0
        assert haversine_km((0.0, 0.0), (0.0, 0.8993)) == pytest.approx(expected, abs=1e-9)
        assert haversine_km((0.0, 0.0), (0.0, 0.8993)) == pytest.approx(100.0, abs=0.05)

    @given(st.floats(-89.0, 89.0), st.floats(-179.0, 179.0),
           st.floats(-89.0, 89.0), st.floats(-179.0, 179.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        d1 = haversine_km((lat1, lon1), (lat2, lon2))
        d2 = haversine_km((lat2, lon2), (lat1, lon1))
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, abs=1e-9)


class TestEventValidation:
    def test_reversed_span_rejected(self):
        with pytest.raises(InputError):
            CorroborativeEvent(id="e", ts_start=10, ts_end=5, lat=0, lon=0,
                               radius_km=10, polarity="relevant")

    @pytest.mark.parametrize("ts_start, ts_end", [
        ("0", 1), (0, "1"), ("1735614420", "1735787220"), (0.0, 1), (0, 1.5),
        (False, True), (None, 1),
    ])
    def test_non_integer_timestamps_rejected(self, ts_start, ts_end):
        with pytest.raises(InputError, match="not an integer"):
            CorroborativeEvent(id="e", ts_start=ts_start, ts_end=ts_end, lat=0, lon=0,
                               radius_km=10, polarity="relevant")

    @pytest.mark.parametrize("ts_start, ts_end", [(-10**11, 0), (0, 10**12), (0, 10**400)])
    def test_timestamps_outside_years_1_to_9999_rejected(self, ts_start, ts_end):
        with pytest.raises(InputError, match="outside years 1-9999"):
            CorroborativeEvent(id="e", ts_start=ts_start, ts_end=ts_end, lat=0, lon=0,
                               radius_km=10, polarity="relevant")

    @pytest.mark.parametrize("eid", [5, None, ["e"]])
    def test_non_string_id_rejected(self, eid):
        with pytest.raises(InputError, match="not a string"):
            CorroborativeEvent(id=eid, ts_start=0, ts_end=1, lat=0, lon=0,
                               radius_km=10, polarity="relevant")

    def test_numpy_integer_timestamps_accepted(self):
        assert event("e", 0, 0, ts_start=np.int64(5), ts_end=np.int64(9)).ts_end == 9

    def test_radius_cap(self):
        with pytest.raises(InputError):
            event("e", 0.0, 0.0, radius=1500.0)

    def test_polarity_vocabulary(self):
        with pytest.raises(InputError):
            CorroborativeEvent(id="e", ts_start=0, ts_end=1, lat=0, lon=0,
                               radius_km=10, polarity="maybe")

    @pytest.mark.parametrize("lat, lon", [
        (95.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -181.0),
        (math.nan, 0.0), (0.0, math.inf), ("x", 0.0), (0.0, None), (True, 0.0),
    ])
    def test_bad_coordinates_rejected(self, lat, lon):
        with pytest.raises(InputError):
            CorroborativeEvent(id="e", ts_start=0, ts_end=1, lat=lat, lon=lon,
                               radius_km=10, polarity="relevant")

    def test_boundary_coordinates_accepted(self):
        assert event("e", -90.0, 180).lon == 180
        assert event("e", 90, -180.0).lat == 90

    def test_label_mapping(self):
        assert event("e", 0, 0, polarity="relevant").label == 1
        assert event("e", 0, 0, polarity="irrelevant").label == 0


class TestAssignLabels:
    def test_point_at_event_center_inside_span(self):
        got = assign_labels([point("p", 10.0, 20.0, ts=50)],
                            [event("e", 10.0, 20.0)], pad_seconds=0)
        assert len(got) == 1
        a = got[0]
        assert (a.point_id, a.event_id, a.label) == ("p", "e", 1)
        assert a.distance_km == 0.0

    def test_point_beyond_radius_unlabeled(self):
        # ~150 km east of a 100 km event
        lon_off = 150.0 / (math.pi * EARTH_RADIUS_KM / 180.0)
        got = assign_labels([point("p", 0.0, lon_off, ts=50)], [event("e", 0.0, 0.0)], 0)
        assert got == []

    def test_nearest_event_wins(self):
        deg_per_km = 180.0 / (math.pi * EARTH_RADIUS_KM)
        relevant_far = event("far", 0.0, 40.0 * deg_per_km, polarity="relevant")
        irrelevant_near = event("near", 0.0, -20.0 * deg_per_km, polarity="irrelevant")
        got = assign_labels([point("p", 0.0, 0.0, ts=10)],
                            [relevant_far, irrelevant_near], 0)
        assert len(got) == 1
        assert got[0].event_id == "near" and got[0].label == 0

    def test_distance_tie_breaks_on_event_id(self):
        a = event("a", 10.0, 10.0)
        b = event("b", 10.0, 10.0)
        got = assign_labels([point("p", 10.0, 10.0, ts=10)], [b, a], 0)
        assert got[0].event_id == "a"

    def test_pad_extends_time_window(self):
        e = event("e", 0.0, 0.0, ts_start=100, ts_end=200)
        assert assign_labels([point("p", 0.0, 0.0, ts=260)], [e], pad_seconds=0) == []
        got = assign_labels([point("p", 0.0, 0.0, ts=260)], [e], pad_seconds=100)
        assert len(got) == 1

    def test_geo_less_points_stay_unlabeled(self):
        assert assign_labels([point("p", ts=50)], [event("e", 0.0, 0.0)], 0) == []

    def test_self_consistency_of_assignments(self):
        rng = np.random.default_rng(3)
        points = [point(f"p{i}", float(rng.uniform(-60, 60)),
                        float(rng.uniform(-179, 179)), ts=int(rng.integers(0, 10_000)))
                  for i in range(100)]
        events = [event(f"e{i}", float(rng.uniform(-60, 60)),
                        float(rng.uniform(-179, 179)),
                        radius=float(rng.uniform(100, 1000)),
                        ts_start=int(rng.integers(0, 5000)),
                        ts_end=int(rng.integers(5000, 10_000)))
                  for i in range(40)]
        by_id = {e.id: e for e in events}
        pts = {p.id: p for p in points}
        for a in assign_labels(points, events, pad_seconds=500):
            e = by_id[a.event_id]
            p = pts[a.point_id]
            assert a.distance_km <= e.radius_km
            assert e.ts_start - 500 <= p.ts <= e.ts_end + 500

    def test_matches_all_pairs_brute_force(self):
        rng = np.random.default_rng(7)
        points = [point(f"p{i}", float(rng.uniform(-60, 60)),
                        float(rng.uniform(-179, 179)), ts=int(rng.integers(0, 10_000)))
                  for i in range(100)]
        events = [event(f"e{i}", float(rng.uniform(-60, 60)),
                        float(rng.uniform(-179, 179)),
                        radius=float(rng.uniform(100, 2000) / 2.0),
                        ts_start=int(rng.integers(0, 5000)),
                        ts_end=int(rng.integers(5000, 10_000)),
                        polarity="relevant" if rng.random() < 0.5 else "irrelevant")
                  for i in range(100)]
        pad = 1000.0

        expected = {}
        for p in points:
            candidates = []
            for e in events:
                if p.geo is None:
                    continue
                d = haversine_km(p.geo, (e.lat, e.lon))
                if d <= e.radius_km and e.ts_start - pad <= p.ts <= e.ts_end + pad:
                    candidates.append((d, e.id, e.label))
            if candidates:
                candidates.sort()
                expected[p.id] = (candidates[0][1], candidates[0][2])

        got = {a.point_id: (a.event_id, a.label)
               for a in assign_labels(points, events, pad)}
        assert got == expected

    def test_order_independence(self):
        rng = np.random.default_rng(9)
        points = [point(f"p{i}", float(rng.uniform(-30, 30)),
                        float(rng.uniform(-30, 30)), ts=50) for i in range(30)]
        events = [event(f"e{i}", float(rng.uniform(-30, 30)),
                        float(rng.uniform(-30, 30)), radius=500.0) for i in range(10)]
        forward = {(a.point_id, a.event_id) for a in assign_labels(points, events, 0)}
        backward = {(a.point_id, a.event_id)
                    for a in assign_labels(points[::-1], events[::-1], 0)}
        assert forward == backward


@st.composite
def labeling_inputs(draw):
    """Points and events for the differential test. Centres are shared among
    events (distance ties), some radii equal the scalar distance to a point
    exactly, and timestamps come in no particular order."""
    coord = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
    centres = draw(st.lists(coord, min_size=1, max_size=3))
    points = []
    for i in range(draw(st.integers(0, 12))):
        ts = draw(st.integers(0, 2000))
        if draw(st.booleans()) and draw(st.booleans()):
            points.append(point(f"p{i}", ts=ts))
            continue
        lat, lon = draw(st.sampled_from(centres))
        lat = min(90.0, max(-90.0, lat + draw(st.floats(-8.0, 8.0))))
        lon = min(180.0, max(-180.0, lon + draw(st.floats(-8.0, 8.0))))
        points.append(point(f"p{i}", lat, lon, ts=ts))
    located = [p for p in points if p.geo is not None]
    events = []
    for i in range(draw(st.integers(0, 12))):
        centre = draw(st.sampled_from(centres))
        radius = draw(st.floats(0.5, corroborate.MAX_RADIUS_KM))
        if located and draw(st.booleans()):
            d = haversine_km(draw(st.sampled_from(located)).geo, centre)
            if 0.0 < d <= corroborate.MAX_RADIUS_KM:
                radius = d
        ts_start = draw(st.integers(0, 2000))
        events.append(CorroborativeEvent(
            id=f"e{draw(st.integers(0, 4))}", ts_start=ts_start,
            ts_end=ts_start + draw(st.integers(0, 300)), lat=centre[0], lon=centre[1],
            radius_km=radius, polarity=draw(st.sampled_from(["relevant", "irrelevant"])),
        ))
    return points, events


class TestPrefilterMatchesReference:
    @given(labeling_inputs(), st.sampled_from([0, 0.0, 150.0, 86400.0]),
           st.sampled_from([1, 5, corroborate._BLOCK_PAIRS]))
    @settings(max_examples=300, deadline=None)
    def test_same_assignments_as_pair_by_pair(self, inputs, pad, block_pairs):
        # small blocks put more events in play than one block has room for
        points, events = inputs
        with mock.patch.object(corroborate, "_BLOCK_PAIRS", block_pairs):
            got = assign_labels(points, events, pad)
        assert got == reference_assign_labels(points, events, pad)

    def test_exact_radius_and_shared_centre(self):
        p = point("p", 10.0, 20.0, ts=50)
        d = haversine_km(p.geo, (10.5, 20.5))
        events = [event("b", 10.5, 20.5, radius=d), event("a", 10.5, 20.5, radius=d)]
        got = assign_labels([p], events, 0)
        assert got == reference_assign_labels([p], events, 0)
        assert got[0].event_id == "a" and got[0].distance_km == d

    def test_every_point_at_exact_radius_is_labeled(self):
        # numpy's sin/arcsin can exceed math's by an ulp; across this many
        # pairs some do, and the prefilter's slack must keep them
        rng = np.random.default_rng(11)
        n = 50_000
        lat = rng.uniform(-84.0, 84.0, n)
        lon = rng.uniform(-174.0, 174.0, n)
        offsets = rng.uniform(-5.0, 5.0, (n, 2))
        points = [point(f"p{i}", float(lat[i]), float(lon[i]), ts=i) for i in range(n)]
        events = []
        for i, p in enumerate(points):
            centre = (float(lat[i] + offsets[i, 0]), float(lon[i] + offsets[i, 1]))
            events.append(event(f"e{i}", *centre, radius=haversine_km(p.geo, centre),
                                ts_start=i, ts_end=i))
        got = assign_labels(points, events, 0)
        assert [(a.point_id, a.event_id) for a in got] == [
            (f"p{i}", f"e{i}") for i in range(n)]

    def test_empty_inputs(self):
        assert assign_labels([], [event("e", 0.0, 0.0)], 0) == []
        assert assign_labels([point("p", 0.0, 0.0)], [], 0) == []


class TestLabelFraction:
    def test_none_assigned(self):
        assert label_fraction([point("p")], []) == 0.0

    def test_all_assigned(self):
        pts = [point("p1", 0.0, 0.0), point("p2", 0.0, 0.0)]
        got = assign_labels(pts, [event("e", 0.0, 0.0)], 0)
        assert label_fraction(pts, got) == 1.0

    def test_empty_points_rejected(self):
        with pytest.raises(InputError):
            label_fraction([], [])


class TestFeedIO:
    def test_round_trip(self, tmp_path):
        events = [event("e1", 1.0, 2.0), event("e2", -3.0, 4.0, polarity="irrelevant")]
        path = tmp_path / "feed.jsonl"
        save_events(events, path)
        loaded = load_events(path)
        assert loaded == events

    def test_default_radius_applied(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        '"polarity":"relevant"}\n')
        assert load_events(path)[0].radius_km == 50.0

    def test_null_radius_gets_default(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        '"radius_km":null,"polarity":"relevant"}\n')
        assert load_events(path)[0].radius_km == 50.0

    @pytest.mark.parametrize("radius", ["0", "0.0", "-5", "true", "false", '"5"'])
    def test_explicit_nonpositive_radius_rejected(self, tmp_path, radius):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        f'"radius_km":{radius},"polarity":"relevant"}}\n')
        with pytest.raises(InputError, match=":1: .*radius"):
            load_events(path)

    @pytest.mark.parametrize("lat", ['"x"', "95"])
    def test_bad_coordinate_line_reports_position(self, tmp_path, lat):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e1","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        '"polarity":"relevant"}\n'
                        f'{{"id":"e2","ts_start":0,"ts_end":1,"lat":{lat},"lon":0.0,'
                        '"polarity":"relevant"}\n')
        with pytest.raises(InputError, match=":2: .*lat"):
            load_events(path)

    @pytest.mark.parametrize("ts", ['"1735614420"', "1735614420.0", "true", "null"])
    def test_non_integer_timestamp_line_reports_position(self, tmp_path, ts):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e1","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        '"polarity":"relevant"}\n'
                        f'{{"id":"e2","ts_start":{ts},"ts_end":1735787220,"lat":0.0,'
                        '"lon":0.0,"polarity":"relevant"}\n')
        with pytest.raises(InputError, match=":2: bad event line: .*ts_start"):
            load_events(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"id":"e1","ts_start":0,"ts_end":1,"lat":0.0,"lon":0.0,'
                        '"polarity":"relevant"}\n{"id":"e2"}\n')
        with pytest.raises(InputError, match=":2"):
            load_events(path)
