import dataclasses
import json
import math
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftstream.pipeline as pipeline
from driftstream.cli import main as cli_main
from driftstream.corroborate import assign_labels, load_events
from driftstream.core import MIN_TS, ConfigError, DataPoint, EmbedderConfig, InputError
from driftstream.ensemble import decision_lines
from driftstream.pipeline import (
    PipelineConfig,
    _first_nonfinite_row,
    aggregate_events,
    evaluate_windows,
    load_config,
    load_stream,
    parse_config,
    replay,
    serialize_config,
    write_reports_csv,
)
from driftstream.pool import PoolConfig, load_pool
from driftstream.synth import DT_SECONDS, START_TS, SynthConfig, generate_synthetic
from driftstream.windows import DataWindow, centroid_distances, empirical_delta_band


def write_stream(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def stream_row(i, ts, text="flood", lat=10.0, lon=20.0, label=None):
    row = {"id": f"p{i}", "ts": ts, "lat": lat, "lon": lon, "text": text}
    if label is not None:
        row["label"] = label
    return row


ARTIFACTS = (
    "knowledgebase.jsonl", "reports.csv", "decisions.jsonl", "baseline_decisions.jsonl",
    "verdicts.jsonl", "window_stats.jsonl", "events_histogram.json",
    "static_pool.json", "final_pool.json",
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One shared small synthetic run for the replay-level assertions: its
    inputs, config, run directory and returned report rows."""
    base = tmp_path_factory.mktemp("small_run")
    scfg = SynthConfig(n_windows=4, window_size=400, dim=12, seed=3,
                       corroborative_fraction=0.05)
    gen = generate_synthetic(scfg, base / "data")
    cfg = PipelineConfig(window_size=400, dim=12, embed_mode="table",
                         table_path=str(gen.table_path), seed=3, min_train=12)
    reports = replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=base / "run")
    return gen, cfg, base / "run", reports


@pytest.fixture(scope="module")
def tail_run(tmp_path_factory):
    """Two full windows of 400 points, then a tail of 30: under window_size // 10,
    so the tail's drift verdicts are withheld. Its run directory and report rows."""
    base = tmp_path_factory.mktemp("tail_run")
    scfg = SynthConfig(n_windows=3, window_size=400, dim=12, seed=3,
                       corroborative_fraction=0.05)
    gen = generate_synthetic(scfg, base / "data")
    stream = base / "tail.jsonl"
    stream.write_text("".join(gen.stream_path.read_text().splitlines(keepends=True)[:830]))
    cfg = PipelineConfig(window_size=400, dim=12, embed_mode="table",
                         table_path=str(gen.table_path), seed=3, min_train=12)
    return base / "run", replay(stream, gen.corroborative_path, cfg, out_dir=base / "run")


def jsonl_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def fail_boundary(monkeypatch, index):
    """Make replay's ``on_drift`` raise at window ``index``."""
    on_drift = pipeline.on_drift

    def failing_on_drift(pool, verdicts, pool_cfg, window_index):
        if window_index == index:
            raise RuntimeError(f"boundary {index} failed")
        return on_drift(pool, verdicts, pool_cfg, window_index)

    monkeypatch.setattr(pipeline, "on_drift", failing_on_drift)


class TestConfig:
    def test_round_trip(self):
        cfg = PipelineConfig(window_size=123, delta=0.4, lam=0.9, table_path="/tmp/t.tsv",
                             embed_mode="table", stream="/tmp/s.jsonl")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_with_auto_lambda(self):
        cfg = PipelineConfig()
        text = serialize_config(cfg)
        assert "lambda=auto" in text
        assert parse_config(text) == cfg

    def test_defaults_written_embedding_then_pool_then_run_keys(self):
        assert serialize_config(PipelineConfig()) == (
            "dim=300\nembed_mode=feature_hash\ntable_path=auto\nhash_seed=0\n"
            "lambda=auto\ndelta=0.6\nk=5\nmin_train=50\nlearn_rate=0.1\nepochs=20\n"
            "window_size=3000\nkl_threshold=0.05\npad_seconds=86400.0\nseed=0\nbins=32\n"
            "stream=auto\ncorroborative=auto\n")

    @pytest.mark.parametrize("cls,field", [
        (PoolConfig, "k"), (EmbedderConfig, "dim"), (PipelineConfig, "k"),
        (PipelineConfig, "dim"), (PipelineConfig, "window_size"),
    ])
    def test_config_refuses_field_assignment(self, cls, field):
        cfg = cls()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, 0)
        assert cfg == cls()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("window_size=10\nbogus=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("window_size=abc\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nwindow_size=77\n")
        assert cfg.window_size == 77

    @pytest.mark.parametrize("line", [
        "window_size=0", "window_size=auto", "k=0", "delta=0", "delta=2", "delta=nan",
        "bins=1", "epochs=-1", "min_train=0", "learn_rate=0", "learn_rate=inf",
        "kl_threshold=-1", "kl_threshold=nan", "pad_seconds=-1", "pad_seconds=inf",
        "lambda=-0.5", "lambda=1.5", "dim=0", "embed_mode=words",
    ])
    def test_out_of_range_value_is_config_error_naming_file_key_and_value(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"window_size=10\n{line}\n")
        key, _, value = line.partition("=")
        with pytest.raises(ConfigError, match=rf"cfg\.txt: .*{key}") as info:
            load_config(path)
        assert value in str(info.value)

    @pytest.mark.parametrize("text,line,first", [
        ("k=3\nk=7\n", 2, 1),
        ("lambda=0.5\n\n# lam is the same key\nlam=0.6\n", 4, 1),
        ("stream=a.jsonl\r\nk=2\r\nstream=b.jsonl\r\n", 3, 1),
    ])
    def test_repeated_key_is_config_error_naming_both_lines(self, tmp_path, text, line, first):
        path = tmp_path / "cfg.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=rf"cfg\.txt: config line {line}: duplicate key "
                                              rf"'\w+', first on line {first}$"):
            load_config(path)

    def test_range_edges_accepted(self):
        cfg = parse_config("window_size=1\nk=1\ndelta=1\nbins=2\nepochs=0\nmin_train=1\n"
                           "kl_threshold=0\npad_seconds=0\nlambda=0\nlearn_rate=1e-9\n")
        assert (cfg.window_size, cfg.delta, cfg.lam, cfg.epochs) == (1, 1.0, 0.0, 0)
        assert parse_config("lambda=1\n").lam == 1.0


class TestLoadStream:
    def test_unsorted_stream_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 100), stream_row(1, 50)])
        with pytest.raises(InputError, match=":2"):
            load_stream(path, PipelineConfig(dim=8))

    def test_malformed_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id":"p0","ts":1,"text":"x"}\n{"nope":1}\n')
        with pytest.raises(InputError, match=r":2: malformed stream line: missing key 'ts'$"):
            load_stream(path, PipelineConfig(dim=8))

    def test_duplicate_id_rejected_with_both_line_numbers(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1), stream_row(1, 2), stream_row(0, 3, label=1)])
        with pytest.raises(InputError, match=r":3: duplicate id 'p0', first on line 1"):
            load_stream(path, PipelineConfig(dim=8))

    def test_byte_order_mark_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1), stream_row(1, 2)])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(InputError, match=r"s\.jsonl:1: stream starts with a UTF-8 "
                                             r"byte-order mark"):
            load_stream(path, PipelineConfig(dim=8))

    def test_truth_labels_stay_out_of_points(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1, label=1), stream_row(1, 2, label=0)])
        points, truth = load_stream(path, PipelineConfig(dim=8))
        assert all(p.label is None for p in points)
        assert truth == {"p0": 1, "p1": 0}

    @pytest.mark.parametrize("ts", [1.9, True, "7", None])
    def test_non_integer_ts_rejected(self, tmp_path, ts):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1), stream_row(1, ts)])
        with pytest.raises(InputError, match=r"s\.jsonl:2: .*ts"):
            load_stream(path, PipelineConfig(dim=8))

    @pytest.mark.parametrize("label", [2, -1, True, False, 1.0, "1"])
    def test_truth_label_outside_zero_one_rejected(self, tmp_path, label):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1, label=0), stream_row(1, 2, label=label)])
        with pytest.raises(InputError, match=r"s\.jsonl:2: .*label"):
            load_stream(path, PipelineConfig(dim=8))

    @pytest.mark.parametrize("lat,lon", [(True, False), (10.0, True), (False, 20.0)])
    def test_boolean_coordinates_rejected(self, tmp_path, lat, lon):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1, lat=lat, lon=lon)])
        with pytest.raises(InputError, match=r"s\.jsonl:1: .*(lat|lon)"):
            load_stream(path, PipelineConfig(dim=8))

    def test_geo_less_points_accepted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [{"id": "p0", "ts": 1, "text": "hello"}])
        points, _ = load_stream(path, PipelineConfig(dim=8))
        assert points[0].geo is None

    @pytest.mark.parametrize("line5", ["{not json", '{"id":"p4","ts":1}', '{"id":"p0","ts":9}'])
    def test_non_finite_embedding_reported_before_a_later_bad_line(self, tmp_path, line5):
        table = tmp_path / "emb.tsv"
        table.write_text("big 1e308 1e308\nhuge 1.7e308 1e308\nflood 1 0\n")
        cfg = PipelineConfig(dim=2, embed_mode="table", table_path=str(table))
        path = tmp_path / "s.jsonl"
        rows = [stream_row(0, 1), stream_row(1, 2, text="big huge"), stream_row(2, 3),
                stream_row(3, 4)]
        write_stream(path, rows)
        with path.open("a") as fh:
            fh.write(line5 + "\n")
        with pytest.warns(RuntimeWarning), pytest.raises(
                InputError, match=r"s\.jsonl:2: malformed stream line: point p1: "
                                  r"vec has non-finite components"):
            load_stream(path, cfg)
        write_stream(path, rows[:1] + rows[2:])
        with path.open("a") as fh:
            fh.write(line5 + "\n")
        with pytest.raises(InputError, match=r"s\.jsonl:4: "):
            load_stream(path, cfg)

    def test_non_finite_embedding_reported_before_other_faults_of_its_line(self, tmp_path):
        table = tmp_path / "emb.tsv"
        table.write_text("big 1e308 1e308\nhuge 1.7e308 1e308\n")
        cfg = PipelineConfig(dim=2, embed_mode="table", table_path=str(table))
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 5), stream_row(1, 2, text="big huge", lat=100.0,
                                                         label=2)])
        with pytest.warns(RuntimeWarning), pytest.raises(
                InputError, match=r":2: malformed stream line: point p1: vec has non-finite"):
            load_stream(path, cfg)

    @pytest.mark.parametrize("label,line4", [
        (None, "{not json"),
        (None, '{"id":"p3","ts":"x"}'),
        (None, '{"id":"p3","ts":1}'),
        (None, '{"id":"p0","ts":9}'),
        (None, '{"id":"p3","ts":9,"label":2}'),
        (2, None),
    ])
    def test_bad_coordinates_reported_before_a_later_or_same_line_fault(self, tmp_path, label,
                                                                      line4):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1), stream_row(1, 2, lat=100.0, label=label),
                            stream_row(2, 3)])
        if line4 is not None:
            with path.open("a") as fh:
                fh.write(line4 + "\n")
        with pytest.raises(InputError, match=r"s\.jsonl:2: malformed stream line: "
                                             r"point p1: lat 100\.0 out of range$"):
            load_stream(path, PipelineConfig(dim=8))

    @pytest.mark.parametrize("bad", [[], [0], [1023], [1024, 2999], [2500, 1100]])
    def test_first_non_finite_row_is_found_in_any_slice(self, bad):
        block = np.zeros((3000, 4))
        for i in bad:
            block[i, 2] = np.inf if i % 2 else np.nan
        assert _first_nonfinite_row(block) == min(bad, default=3000)

    def test_point_vectors_are_read_only_rows_of_one_block(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [stream_row(0, 1, text="flood rain"), stream_row(1, 2, text="")])
        points, _ = load_stream(path, PipelineConfig(dim=8))
        assert points[0].vec.base is points[1].vec.base is not None
        with pytest.raises(ValueError, match="read-only"):
            points[0].vec[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            points[1].vec += 1.0


class TestAggregateEvents:
    def _pt(self, pid, ts, lat, lon):
        return DataPoint(id=pid, ts=ts, text="", vec=np.zeros(2), lat=lat, lon=lon)

    def test_single_positive_single_event(self):
        events = list(aggregate_events([(self._pt("p", 1000, 10.5, 20.5), 0.9)]))
        assert events == [{
            "cell": "10:20", "date": "1970-01-01", "points": ["p"], "first_ts": 1000,
            "last_ts": 1000, "mean_probability": 0.9, "centroid_geo": [10.5, 20.5],
        }]
        assert list(events[0]) == ["cell", "date", "points", "first_ts", "last_ts",
                                   "mean_probability", "centroid_geo"]

    def test_rows_are_formed_as_they_are_taken(self):
        a, b = self._pt("a", 1000, 10.5, 20.5), self._pt("b", 1000, 1.5, 2.5)
        rows = aggregate_events([(a, 0.9), (b, 0.8)])
        # an iterator, not a list of rows: each row is built when it is taken
        assert iter(rows) is rows
        assert next(rows)["points"] == ["a"]  # cell "10:20" sorts before "1:2"
        assert next(rows)["points"] == ["b"]
        assert next(rows, None) is None

    def test_same_cell_different_days_split(self):
        events = list(aggregate_events([
            (self._pt("a", 1000, 10.5, 20.5), 0.8),
            (self._pt("b", 1000 + 86400, 10.5, 20.5), 0.6),
        ]))
        assert len(events) == 2

    def test_geo_less_points_pool_in_global_cell(self):
        p = DataPoint(id="p", ts=500, text="", vec=np.zeros(2))
        events = list(aggregate_events([(p, 0.7)]))
        assert events[0]["cell"] == "global" and events[0]["centroid_geo"] is None

    def test_centroid_and_span(self):
        events = list(aggregate_events([
            (self._pt("a", 1000, 10.0, 20.0), 0.8),
            (self._pt("b", 2000, 10.4, 20.8), 0.6),
        ]))
        e = events[0]
        assert e["first_ts"] == 1000 and e["last_ts"] == 2000
        assert e["centroid_geo"] == [pytest.approx(10.2), pytest.approx(20.4)]
        assert e["mean_probability"] == pytest.approx(0.7)

    def test_dates_are_iso_and_rows_follow_the_day_within_a_cell(self):
        # 0999-12-31T23:00Z and 1000-01-01T00:00Z: a date string without the
        # leading zero would sort the later day first
        late_999, new_1000 = -30610227600, -30610224000
        events = list(aggregate_events([
            (self._pt("first", MIN_TS, 10.5, 20.5), 0.9),
            (self._pt("new", new_1000, 1.5, 2.5), 0.8),
            (self._pt("late", late_999, 1.5, 2.5), 0.7),
        ]))
        assert [(e["cell"], e["date"], e["points"]) for e in events] == [
            ("10:20", "0001-01-01", ["first"]),
            ("1:2", "0999-12-31", ["late"]),
            ("1:2", "1000-01-01", ["new"]),
        ]


CENTRES = {(10.0, 10.0): "relevant", (-10.0, -10.0): "irrelevant"}  # the polarity of each


@st.composite
def small_replays(draw):
    """A feature-hashed stream of 1-4 full windows of 1-50 points plus a tail
    shorter than a window, and a feed of events at two centres; a feed may be
    empty, one-class or start after window 0, which leaves window 0 without a model."""
    size = draw(st.integers(1, 50))
    n = size * draw(st.integers(1, 4)) + draw(st.integers(0, size - 1))
    rows = []
    for i in range(n):
        row = {"id": f"p{i}", "ts": START_TS + 60 * i,
               "text": draw(st.sampled_from(["flood water", "sunny day", "flood day"]))}
        where = draw(st.sampled_from([None, *CENTRES]))
        if where is not None:
            row["lat"], row["lon"] = where
        label = draw(st.sampled_from([None, 0, 1]))
        if label is not None:
            row["label"] = label
        rows.append(row)
    first = START_TS + 60 * size * draw(st.integers(0, 1))  # at window 1: nothing labels window 0
    events = list(CENTRES.items())[:draw(st.integers(0, 2))]
    feed = [{"id": f"e{j}", "ts_start": first, "ts_end": START_TS + 60 * n, "lat": lat,
             "lon": lon, "radius_km": 50.0, "polarity": polarity}
            for j, ((lat, lon), polarity) in enumerate(events)]
    cfg = PipelineConfig(window_size=size, dim=8, min_train=draw(st.integers(1, 4)),
                         pad_seconds=0.0)
    return rows, feed, cfg


class TestReplay:
    @given(small_replays())
    @settings(max_examples=50, deadline=None)
    def test_returned_rows_are_reports_csv_and_eval_rewrites_it(self, inputs):
        rows, feed, cfg = inputs
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_stream(d / "stream.jsonl", rows)
            write_stream(d / "feed.jsonl", feed)
            reports = replay(d / "stream.jsonl", d / "feed.jsonl", cfg, out_dir=d / "run")
            written = (d / "run" / "reports.csv").read_bytes()
            write_reports_csv(reports, d / "returned.csv")
            assert (d / "returned.csv").read_bytes() == written
            evaluate_windows(d / "run", d / "stream.jsonl")
            assert (d / "run" / "reports.csv").read_bytes() == written

    def test_empty_stream(self, tmp_path):
        stream = tmp_path / "s.jsonl"
        stream.write_text("")
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        cfg = PipelineConfig(dim=8, window_size=10)
        run = tmp_path / "run"
        assert replay(stream, feed, cfg, out_dir=run) == []
        assert (run / "knowledgebase.jsonl").read_text() == ""
        # no window 0 ran, so there is no static checkpoint
        assert sorted(p.name for p in run.iterdir()) == sorted(
            set(ARTIFACTS) - {"static_pool.json"})

    def test_no_corroboration_means_no_models_and_no_omega_changes(self, tmp_path):
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(i, i * 10, label=i % 2) for i in range(40)])
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        cfg = PipelineConfig(dim=8, window_size=10)
        reports = replay(stream, feed, cfg, out_dir=tmp_path / "run")
        final = json.loads((tmp_path / "run" / "final_pool.json").read_text())
        assert final["models"] == []
        assert (tmp_path / "run" / "verdicts.jsonl").read_text() == ""
        # static equals adaptive exactly in every window: nothing ever trained
        for row in reports:
            assert row.adaptive_f1 == row.static_f1

    def test_report_identity_and_bounds(self, small_run):
        *_, reports = small_run
        for row in reports:
            if row.static_f1 > 0:
                assert row.improvement_pct == 100.0 * row.adaptive_f1 / row.static_f1
            assert 0.0 <= row.pct_labeled <= 100.0
            assert row.unlabeled + row.corroborative == 400

    def test_bootstrap_window_emits_no_predictions(self, small_run):
        _, _, run, _ = small_run
        decided = {json.loads(l)["point_id"]
                   for l in (run / "decisions.jsonl").read_text().splitlines()}
        # window 0 holds p000000..p000399
        assert not any(f"p{i:06d}" in decided for i in range(400))
        assert f"p{400:06d}" in decided

    def test_events_histogram_counts_the_knowledgebase_rows(self, small_run):
        _, _, run, _ = small_run
        sizes = [len(json.loads(l)["points"])
                 for l in (run / "knowledgebase.jsonl").read_text().splitlines()]
        assert sizes
        assert (run / "events_histogram.json").read_text() == json.dumps(
            {str(n): sizes.count(n) for n in sorted(set(sizes))}, separators=(",", ":")) + "\n"

    def test_knowledgebase_rows_schema(self, small_run):
        _, _, run, _ = small_run
        rows = jsonl_rows(run / "knowledgebase.jsonl")
        assert rows, "expected detected events"
        for row in rows:
            assert set(row) == {"cell", "date", "points", "first_ts", "last_ts",
                                "mean_probability", "centroid_geo"}
            assert len(row["points"]) >= 1

    def test_verdict_log_schema(self, small_run):
        _, _, run, _ = small_run
        rows = jsonl_rows(run / "verdicts.jsonl")
        assert rows
        for row in rows:
            assert set(row) == {"ts", "prior_id", "live_id", "kl", "threshold", "drifted"}
            assert row["drifted"] == (row["kl"] > row["threshold"])

    def test_static_pool_checkpoint_has_bootstrap_model(self, small_run):
        _, _, run, _ = small_run
        doc = json.loads((run / "static_pool.json").read_text())
        assert len(doc["models"]) == 1
        assert doc["models"][0]["created_at"] == 0

    def test_held_points_carry_their_corroborative_labels(self, small_run):
        # every point a checkpoint holds has the label the feed gives it, or none
        gen, cfg, run, _ = small_run
        points, _ = load_stream(gen.stream_path, cfg)
        labels = {a.point_id: a.label for a in assign_labels(
            points, load_events(gen.corroborative_path), cfg.pad_seconds)}
        for name in ("static_pool.json", "final_pool.json"):
            pool = load_pool(run / name)
            held = [p for w in [m.memory for m in pool.models] + [pool.general] for p in w.points]
            assert {p.label for p in held} == {None, 0, 1}, name
            for p in held:
                assert p.label == labels.get(p.id), (name, p.id)

    def test_byte_identical_reruns(self, small_run, tmp_path):
        # all nine artifacts, checkpoints included, from two fresh replays
        gen, cfg, _, _ = small_run
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=run)
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(ARTIFACTS)
        assert sorted(p.name for p in runs[1].iterdir()) == names
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_partial_tail_window(self, tail_run):
        run, reports = tail_run
        after_bootstrap = [f"p{i:06d}" for i in range(400, 830)]
        assert [r["point_id"] for r in jsonl_rows(run / "decisions.jsonl")] == after_bootstrap
        assert ([r["point_id"] for r in jsonl_rows(run / "baseline_decisions.jsonl")]
                == after_bootstrap)
        stats = jsonl_rows(run / "window_stats.jsonl")
        assert [(s["window"], s["count"]) for s in stats] == [(0, 400), (1, 400), (2, 30)]
        verdicts = jsonl_rows(run / "verdicts.jsonl")
        assert verdicts and {v["live_id"] for v in verdicts} == {"w0001"}
        assert [r.window for r in reports] == [1, 2]
        assert [row.split(",")[0] for row in (run / "reports.csv").read_text().splitlines()] == [
            "window", "1", "2"]

    def test_closed_windows_are_on_disk_when_a_later_boundary_fails(
            self, small_run, tmp_path, monkeypatch):
        gen, cfg, full, _ = small_run
        fail_boundary(monkeypatch, 2)
        run = tmp_path / "run"
        with pytest.raises(RuntimeError, match="boundary 2 failed"):
            replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=run)
        # window 1's 400 decisions and the stats of windows 0-1, as the full run wrote them
        for name in ("decisions.jsonl", "baseline_decisions.jsonl"):
            whole = (full / name).read_text()
            assert (run / name).read_text() == "".join(whole.splitlines(keepends=True)[:400])
        assert (jsonl_rows(run / "window_stats.jsonl")
                == jsonl_rows(full / "window_stats.jsonl")[:2])

    def test_rerun_into_a_used_directory_leaves_no_stale_artifact(
            self, small_run, tmp_path, monkeypatch):
        gen, cfg, full, _ = small_run
        run = tmp_path / "run"
        shutil.copytree(full, run)
        fail_boundary(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="boundary 1 failed"):
            replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=run)
        for name in ("knowledgebase.jsonl", "reports.csv", "events_histogram.json",
                     "final_pool.json"):
            assert not (run / name).exists(), name
        assert (run / "static_pool.json").read_bytes() == (full / "static_pool.json").read_bytes()

    def test_window_1_live_and_frozen_decisions_agree(self, small_run):
        # at window 1 the live pool is still the bootstrap pool
        _, cfg, run, _ = small_run
        live, frozen = ((run / name).read_text().splitlines(keepends=True)[:cfg.window_size]
                        for name in ("decisions.jsonl", "baseline_decisions.jsonl"))
        assert live == frozen

    def test_static_checkpoint_restores_every_baseline_window(self, small_run):
        gen, cfg, run, _ = small_run
        points, _ = load_stream(gen.stream_path, cfg)
        frozen = load_pool(run / "static_pool.json").models
        baseline = (run / "baseline_decisions.jsonl").read_text().splitlines(keepends=True)
        for start in range(cfg.window_size, len(points), cfg.window_size):
            window = points[start:start + cfg.window_size]
            lines, _ = decision_lines([p.id for p in window], frozen,
                                      np.vstack([p.vec for p in window]), cfg.k)
            assert lines == baseline[:len(lines)], f"window {start // cfg.window_size}"
            del baseline[:len(lines)]
        assert baseline == []

    def test_ingest_never_holds_the_table(self, tmp_path, monkeypatch):
        # a table of 20 times the rows the stream uses: replay's ingest holds
        # the stream block and one table chunk, never a block of the table
        n, dim = 400, 64
        gen = generate_synthetic(SynthConfig(n_windows=2, window_size=n // 2, dim=dim, seed=5,
                                             corroborative_fraction=0.05), tmp_path / "data")
        rng = np.random.default_rng(0)
        with open(gen.table_path, "a", encoding="utf-8") as fh:
            for i in range(19 * n):
                fh.write(f"unused{i} {' '.join(map(repr, rng.standard_normal(dim).tolist()))}\n")
        cfg = PipelineConfig(window_size=n // 2, dim=dim, embed_mode="table",
                             table_path=str(gen.table_path), min_train=12)

        class Ingested(Exception):
            pass

        def first_routed(*args):
            raise Ingested

        monkeypatch.setattr(pipeline, "route_window", first_routed)
        tracemalloc.start()
        try:
            with pytest.raises(Ingested):
                replay(gen.stream_path, gen.corroborative_path, cfg, out_dir=tmp_path / "run")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * dim * 8

    @pytest.mark.parametrize("stream", ["missing", "malformed", "unsorted"])
    def test_table_fault_is_reported_before_a_stream_fault(self, small_run, tmp_path, capsys,
                                                           stream):
        # the stream's lines are read before the table, yet a bad table is
        # named first, as when the table was read before the stream
        gen, cfg, _, _ = small_run
        table = tmp_path / "bad-table.tsv"
        table.write_text(gen.table_path.read_text() + "extra 1 2\n")
        stream_path = tmp_path / "stream.jsonl"
        if stream == "malformed":
            stream_path.write_text(gen.stream_path.read_text() + "{not json\n")
        elif stream == "unsorted":
            lines = gen.stream_path.read_text().splitlines(keepends=True)
            stream_path.write_text("".join([lines[1], lines[0], *lines[2:]]))
        config = tmp_path / "config.txt"
        pipeline.save_config(dataclasses.replace(cfg, table_path=str(table)), config)
        code = cli_main(["replay", "--config", str(config), "--stream", str(stream_path),
                         "--corroborative", str(gen.corroborative_path),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        lines = gen.table_path.read_text().count("\n")
        assert capsys.readouterr().err == (
            f"config error: {table}:{lines + 1}: expected token + {cfg.dim} floats, got 2\n")

    def test_evaluate_windows_round_trip(self, small_run, tmp_path):
        gen, _, run, replayed = small_run
        reports = evaluate_windows(run, gen.stream_path)
        assert [r.window for r in reports] == [r.window for r in replayed]
        for a, b in zip(reports, replayed):
            assert a.adaptive_f1 == b.adaptive_f1
            assert a.static_f1 == b.static_f1

    def test_bootstrap_only_labels_freeze_the_pool(self, tmp_path):
        # corroboration confined to window 0 on a stationary stream: the pool
        # never changes after bootstrap, so live and frozen predictions agree
        # exactly in every later window
        scfg = SynthConfig(n_windows=4, window_size=400, dim=12, seed=11,
                           jump=0.0, corroborative_fraction=0.08)
        gen = generate_synthetic(scfg, tmp_path / "data")
        window0_end = START_TS + 400 * DT_SECONDS
        kept = []
        for line in gen.corroborative_path.read_text().splitlines():
            row = json.loads(line)
            center = row["ts_start"] + 86400
            if center < window0_end:
                # collapse to an instant so, with zero padding, only the
                # window-0 point the event was minted from can match
                row["ts_start"] = row["ts_end"] = center
                kept.append(json.dumps(row))
        feed = tmp_path / "w0_only.jsonl"
        feed.write_text("\n".join(kept) + "\n")
        cfg = PipelineConfig(window_size=400, dim=12, embed_mode="table",
                             table_path=str(gen.table_path), seed=11, min_train=12,
                             pad_seconds=0.0)
        reports = replay(gen.stream_path, feed, cfg, out_dir=tmp_path / "run")
        final = json.loads((tmp_path / "run" / "final_pool.json").read_text())
        assert len(final["models"]) == 1  # bootstrap happened, nothing else
        for row in reports:
            assert row.corroborative == 0  # premise: labels only in w0
            assert row.adaptive_f1 == row.static_f1
            assert row.improvement_pct == 100.0


class TestGenerator:
    def test_counts_and_fraction(self, tmp_path):
        scfg = SynthConfig(n_windows=3, window_size=500, dim=8, seed=5)
        gen = generate_synthetic(scfg, tmp_path)
        lines = gen.stream_path.read_text().splitlines()
        assert len(lines) == 1500
        assert gen.events == len(gen.corroborative_path.read_text().splitlines())
        assert 0.015 <= gen.events / 1500 <= 0.05

    def test_stream_rows_parse_and_are_sorted(self, tmp_path):
        scfg = SynthConfig(n_windows=2, window_size=200, dim=8, seed=6)
        gen = generate_synthetic(scfg, tmp_path)
        rows = [json.loads(l) for l in gen.stream_path.read_text().splitlines()]
        ts = [r["ts"] for r in rows]
        assert ts == sorted(ts)
        assert all(set(r) == {"id", "ts", "lat", "lon", "text", "label"} for r in rows)

    def test_jump_zero_is_stationary(self, tmp_path):
        scfg = SynthConfig(n_windows=4, window_size=300, dim=8, seed=7, jump=0.0)
        gen = generate_synthetic(scfg, tmp_path)
        table = {}
        for line in gen.table_path.read_text().splitlines():
            parts = line.split()
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
        rows = [json.loads(l) for l in gen.stream_path.read_text().splitlines()]
        relevant = [table[r["text"]] for r in rows if r["label"] == 1]
        first = np.mean(relevant[: len(relevant) // 4], axis=0)
        last = np.mean(relevant[-len(relevant) // 4:], axis=0)
        assert float(np.linalg.norm(first - last)) < 0.05

    def test_sudden_jump_moves_relevant_centroid(self, tmp_path):
        scfg = SynthConfig(n_windows=4, window_size=300, dim=8, seed=8, jump=1.0)
        gen = generate_synthetic(scfg, tmp_path)
        table = {}
        for line in gen.table_path.read_text().splitlines():
            parts = line.split()
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
        rows = [json.loads(l) for l in gen.stream_path.read_text().splitlines()]
        pre = [table[r["text"]] for r in rows[:600] if r["label"] == 1]
        post = [table[r["text"]] for r in rows[600:] if r["label"] == 1]
        shift = float(np.linalg.norm(np.mean(pre, axis=0) - np.mean(post, axis=0)))
        assert shift > 0.5

    def test_deterministic(self, tmp_path):
        scfg = SynthConfig(n_windows=2, window_size=100, dim=8, seed=9)
        a = generate_synthetic(scfg, tmp_path / "a")
        b = generate_synthetic(scfg, tmp_path / "b")
        assert a.stream_path.read_bytes() == b.stream_path.read_bytes()
        assert a.corroborative_path.read_bytes() == b.corroborative_path.read_bytes()

    def test_rejects_single_window(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^n_windows=1 out of range: must be >= 2$"):
            SynthConfig(n_windows=1)

    @pytest.mark.parametrize("step", [math.nan, -1.0, math.inf])
    def test_rejects_step_that_is_not_finite_and_nonnegative(self, step):
        with pytest.raises(ConfigError, match=rf"^step={step!r} out of range: "
                                              r"must be finite and >= 0$"):
            SynthConfig(schedule="gradual", step=step)


class TestCli:
    def test_gen_replay_eval_band(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli_main(["gen", "--schedule", "sudden", "--windows", "4",
                         "--seed", "3", "--out", str(out),
                         "--window-size", "300", "--dim", "8"]) == 0
        config = out / "config.txt"
        assert config.exists()

        run = tmp_path / "run"
        code = cli_main(["replay", "--stream", str(out / "stream.jsonl"),
                         "--corroborative", str(out / "corroborative.jsonl"),
                         "--config", str(config), "--out", str(run)])
        assert code == 0
        assert (run / "knowledgebase.jsonl").exists()
        assert (run / "reports.csv").exists()

        assert cli_main(["eval", "--run", str(run),
                         "--truth", str(out / "stream.jsonl")]) == 0

        assert cli_main(["band", "--window", str(out / "stream.jsonl"),
                         "--delta", "0.6", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        points, _ = load_stream(out / "stream.jsonl", load_config(config))
        band = empirical_delta_band(
            centroid_distances(DataWindow(points, capacity=len(points))), 0.6)
        assert f"empirical band      [{band.lo:.6f}, {band.hi:.6f}]  delta=0.6" in printed

    def test_band_prints_count_mean_sd_and_band_of_centroid_distances(self, tmp_path, capsys):
        stream = tmp_path / "window.jsonl"
        write_stream(stream, [stream_row(i, START_TS + i, text=text) for i, text in enumerate(
            ["flood water rising", "river flood", "storm damage", "flood", "road closed"])])
        assert cli_main(["band", "--window", str(stream), "--delta", "0.8"]) == 0
        points, _ = load_stream(stream, EmbedderConfig())
        d = centroid_distances(DataWindow(points, capacity=len(points)))
        band = empirical_delta_band(d, 0.8)
        assert capsys.readouterr().out == (
            f"points              5\n"
            f"distance mean       {d.mean():.6f}\n"
            f"distance sd         {d.std():.6f}\n"
            f"empirical band      [{band.lo:.6f}, {band.hi:.6f}]  delta=0.8\n")

    def test_band_empty_window_file_is_input_error_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["band", "--window", str(empty)]) == 1
        assert capsys.readouterr().err == f"input error: {empty}: no points\n"

    @pytest.mark.parametrize("flag,value", [
        ("--window-size", "0"), ("--windows", "1"), ("--dim", "2"), ("--seed", "-1"),
        ("--corroborative-fraction", "-1"), ("--corroborative-fraction", "1.5"),
        ("--corroborative-fraction", "nan"), ("--jump", "-1"), ("--jump", "inf"),
        ("--jump", "nan"),
    ])
    def test_gen_out_of_range_argument_is_config_error_writing_nothing(self, tmp_path, capsys,
                                                                        flag, value):
        out = tmp_path / "data"
        assert cli_main(["gen", flag, value, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_gen_output_path_the_config_cannot_hold_is_config_error_writing_nothing(
            self, tmp_path, capsys):
        parent = tmp_path / "data"
        assert cli_main(["gen", "--windows", "2", "--window-size", "10", "--dim", "3",
                         "--out", str(parent / "a\nb")]) == 2
        assert "config error: table_path=" in capsys.readouterr().err
        assert not parent.exists()

    @pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
    def test_band_delta_out_of_range_is_config_error_before_the_stream_is_read(
            self, tmp_path, capsys, delta):
        missing = tmp_path / "absent.jsonl"
        assert cli_main(["band", "--window", str(missing), "--delta", delta]) == 2
        assert f"config error: delta={float(delta)} out of range" in capsys.readouterr().err

    def test_replay_reads_paths_from_config(self, tmp_path):
        out = tmp_path / "data"
        assert cli_main(["gen", "--windows", "2", "--seed", "4", "--out", str(out),
                         "--window-size", "200", "--dim", "8"]) == 0
        config = str(out / "config.txt")
        by_config, by_flags = tmp_path / "by_config", tmp_path / "by_flags"
        assert cli_main(["replay", "--config", config, "--out", str(by_config)]) == 0
        assert cli_main(["replay", "--stream", str(out / "stream.jsonl"),
                         "--corroborative", str(out / "corroborative.jsonl"),
                         "--config", config, "--out", str(by_flags)]) == 0
        for name in ("decisions.jsonl", "reports.csv", "final_pool.json"):
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()

    def test_replay_without_stream_or_feed_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(serialize_config(PipelineConfig(dim=8, window_size=10)))
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(0, 1)])
        out = str(tmp_path / "r")
        assert cli_main(["replay", "--config", str(cfg_path), "--out", out]) == 2
        assert "no stream path" in capsys.readouterr().err
        assert cli_main(["replay", "--stream", str(stream), "--config", str(cfg_path),
                         "--out", out]) == 2
        assert "no corroborative path" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense_key=1\n")
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(0, 1)])
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(bad), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("line", ["knowledgebase=kb.jsonl", "reports=reports.csv"])
    def test_output_path_keys_are_unknown(self, tmp_path, capsys, line):
        # a replay writes only to --out; configs that name output files are refused
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(serialize_config(PipelineConfig(dim=8, window_size=10)) + line + "\n")
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(0, 1)])
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2
        assert f"unknown key {line.partition('=')[0]!r}" in capsys.readouterr().err

    def test_input_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(serialize_config(PipelineConfig(dim=8, window_size=10)))
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(0, 100), stream_row(1, 5)])  # unsorted
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1

        write_stream(stream, [stream_row(0, 1), stream_row(0, 2)])  # duplicate id
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1

        write_stream(stream, [stream_row(0, 1), stream_row(1, 2)])
        feed.write_text('{"id":"e","ts_start":"0","ts_end":"10","lat":10.0,"lon":20.0,'
                        '"polarity":"relevant"}\n')  # quoted timestamps
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("row", [
        {"ts": 1.9}, {"ts": True}, {"ts": "7"}, {"ts": 10**20}, {"label": 2}, {"label": True},
        {"lat": True, "lon": False}, {"id": ["a"]}, {"id": 5}, {"text": 5}, {"text": None},
    ])
    def test_malformed_stream_value_exit_code(self, tmp_path, row, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(serialize_config(PipelineConfig(dim=8, window_size=10)))
        stream = tmp_path / "s.jsonl"
        write_stream(stream, [stream_row(0, 1), {**stream_row(1, 2), **row}])
        feed = tmp_path / "c.jsonl"
        feed.write_text("")
        assert cli_main(["replay", "--stream", str(stream), "--corroborative",
                         str(feed), "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
        assert "s.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [2, True, 0.0])
    def test_eval_rejects_bad_truth_label(self, small_run, tmp_path, label, capsys):
        truth = tmp_path / "truth.jsonl"
        write_stream(truth, [{"id": "p000000", "ts": 1, "label": 1},
                             {"id": "p000001", "ts": 2, "label": label}])
        run_dir = small_run[2]
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(truth)]) == 1
        assert "truth.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("name,lineno,edit", [
        ("decisions.jsonl", 2, lambda d: {**d, "label": True}),
        ("decisions.jsonl", 3, lambda d: {**d, "label": 2}),
        ("baseline_decisions.jsonl", 2, lambda d: {**d, "label": 1.0}),
        ("decisions.jsonl", 2, lambda d: {k: v for k, v in d.items() if k != "point_id"}),
        ("decisions.jsonl", 2, lambda d: {**d, "point_id": ["x"], "label": 1}),
        ("baseline_decisions.jsonl", 3, lambda d: {**d, "point_id": 5}),
        ("baseline_decisions.jsonl", 1, lambda d: {k: v for k, v in d.items() if k != "label"}),
        ("window_stats.jsonl", 2, lambda d: {k: v for k, v in d.items() if k != "point_ids"}),
        ("window_stats.jsonl", 1, lambda d: {**d, "unlabeled": "3"}),
        ("window_stats.jsonl", 2, lambda d: {**d, "point_ids": [["a"], *d["point_ids"][1:]]}),
        ("window_stats.jsonl", 3, lambda d: {**d, "point_ids": [*d["point_ids"][:-1], 7]}),
        # every replay row splits its distinct point ids into corroborative and unlabeled
        ("window_stats.jsonl", 2,
         lambda d: {**d, "corroborative": -3, "unlabeled": len(d["point_ids"]) + 3}),
        ("window_stats.jsonl", 2, lambda d: {**d, "corroborative": d["corroborative"] + 1}),
        ("window_stats.jsonl", 3, lambda d: {**d, "unlabeled": d["unlabeled"] - 1}),
        ("window_stats.jsonl", 2, lambda d: {**d, "point_ids": d["point_ids"] + d["point_ids"][:1],
                                             "unlabeled": d["unlabeled"] + 1}),
        ("decisions.jsonl", 2, None),
        ("window_stats.jsonl", 3, None),
    ])
    def test_eval_rejects_malformed_run_artifact(self, small_run, tmp_path, name, lineno,
                                                 edit, capsys):
        gen, _, run, _ = small_run
        run_dir = tmp_path / "run"
        shutil.copytree(run, run_dir)
        path = run_dir / name
        lines = path.read_text().splitlines()
        d = json.loads(lines[lineno - 1])
        lines[lineno - 1] = "{not json" if edit is None else json.dumps(edit(d))
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(gen.stream_path)]) == 1
        assert f"{name}:{lineno}: malformed" in capsys.readouterr().err
        assert (run_dir / "reports.csv").read_bytes() == (run / "reports.csv").read_bytes()

    @pytest.mark.parametrize("name", ["truth", "decisions.jsonl", "baseline_decisions.jsonl"])
    def test_eval_rejects_repeated_id(self, small_run, tmp_path, name, capsys):
        # the repeat carries the other label: keeping either copy would be a guess
        gen, _, run, _ = small_run
        run_dir = tmp_path / "run"
        shutil.copytree(run, run_dir)
        path = gen.stream_path if name == "truth" else run_dir / name
        key = "id" if name == "truth" else "point_id"
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        first = next(i for i, d in enumerate(rows) if d.get("label") is not None)
        repeat = {**rows[first], "label": 1 - rows[first]["label"]}
        if name == "truth":
            path = tmp_path / "truth.jsonl"
        path.write_text("\n".join(lines + ["", json.dumps(repeat)]) + "\n")
        truth = path if name == "truth" else gen.stream_path
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(truth)]) == 1
        assert (f"{path.name}:{len(lines) + 2}: duplicate id {rows[first][key]!r}, "
                f"first on line {first + 1}") in capsys.readouterr().err

    def test_eval_rejects_repeated_window(self, small_run, tmp_path, capsys):
        gen, _, run, _ = small_run
        run_dir = tmp_path / "run"
        shutil.copytree(run, run_dir)
        path = run_dir / "window_stats.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(gen.stream_path)]) == 1
        assert (f"window_stats.jsonl:{len(lines) + 1}: duplicate id 1, first on line 2"
                in capsys.readouterr().err)
        assert (run_dir / "reports.csv").read_bytes() == (run / "reports.csv").read_bytes()

    def test_eval_rejects_point_in_two_windows(self, small_run, tmp_path, capsys):
        gen, _, run, _ = small_run
        run_dir = tmp_path / "run"
        shutil.copytree(run, run_dir)
        path = run_dir / "window_stats.jsonl"
        rows = jsonl_rows(path)
        shared = rows[1]["point_ids"][0]
        rows[2] = {**rows[2], "point_ids": rows[2]["point_ids"] + [shared],
                   "unlabeled": rows[2]["unlabeled"] + 1}
        path.write_text("".join(json.dumps(d) + "\n" for d in rows))
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(gen.stream_path)]) == 1
        assert (f"window_stats.jsonl:3: duplicate id {shared!r}, first on line 2"
                in capsys.readouterr().err)
        assert (run_dir / "reports.csv").read_bytes() == (run / "reports.csv").read_bytes()

    def test_eval_line_numbers_count_blank_lines(self, small_run, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"id":"p000000","ts":1,"label":1}\n\n{"id":"p000001","ts":2,"label":5}\n')
        run_dir = small_run[2]
        assert cli_main(["eval", "--run", str(run_dir), "--truth", str(truth)]) == 1
        assert "truth.jsonl:3:" in capsys.readouterr().err

    def test_duplicate_embedding_table_token_exit_code(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli_main(["gen", "--windows", "2", "--seed", "4", "--out", str(out),
                         "--window-size", "50", "--dim", "4"]) == 0
        table = out / "embeddings.tsv"
        lines = table.read_text().splitlines()
        lines.append(lines[2].split(" ", 1)[0] + " 1.0 0.0 0.0 0.0")
        table.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", "--config", str(out / "config.txt"),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"embeddings.tsv:{len(lines)}: duplicate token 'tok000002', first on line 3" in err

    @pytest.mark.parametrize("name,code", [("embeddings.tsv", 2), ("stream.jsonl", 1)])
    def test_byte_order_mark_exit_code(self, tmp_path, name, code, capsys):
        out = tmp_path / "data"
        assert cli_main(["gen", "--windows", "2", "--seed", "4", "--out", str(out),
                         "--window-size", "50", "--dim", "4"]) == 0
        path = out / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert cli_main(["replay", "--config", str(out / "config.txt"),
                         "--out", str(tmp_path / "run")]) == code
        err = capsys.readouterr().err
        assert f"{name}:1: " in err and "byte-order mark" in err

    def test_bad_embedding_table_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli_main(["gen", "--windows", "2", "--seed", "4", "--out", str(out),
                         "--window-size", "50", "--dim", "4"]) == 0
        table = out / "embeddings.tsv"
        lines = table.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " x"
        table.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", "--config", str(out / "config.txt"),
                         "--out", str(tmp_path / "run")]) == 2
        assert "embeddings.tsv:2: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def line_end_inputs(tmp_path_factory):
    """Stream rows, feed rows and table lines of a small synthetic run."""
    gen = generate_synthetic(SynthConfig(n_windows=3, window_size=200, dim=8, seed=3,
                                         corroborative_fraction=0.08),
                             tmp_path_factory.mktemp("line_ends"))
    return ([json.loads(l) for l in gen.stream_path.read_text().splitlines()],
            [json.loads(l) for l in gen.corroborative_path.read_text().splitlines()],
            gen.table_path.read_text().splitlines())


def replay_and_eval(d, stream, feed, table, ensure_ascii=True, newline="\n"):
    """Write every input file with the given JSON escaping and line end, replay
    and evaluate through the CLI, and return the run files and eval's report."""
    d.mkdir()

    def write(name, lines):
        (d / name).write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        return str(d / name)

    stream_path = write("stream.jsonl", [json.dumps(r, ensure_ascii=ensure_ascii) for r in stream])
    feed_path = write("feed.jsonl", [json.dumps(e, ensure_ascii=ensure_ascii) for e in feed])
    cfg = PipelineConfig(window_size=200, dim=8, embed_mode="table", seed=3, min_train=12,
                         table_path=write("table.tsv", table), stream=stream_path,
                         corroborative=feed_path)
    config = write("config.txt", serialize_config(cfg).split("\n")[:-1])
    run = d / "run"
    assert cli_main(["replay", "--config", config, "--out", str(run)]) == 0
    replayed = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
    for name in ("decisions.jsonl", "baseline_decisions.jsonl", "window_stats.jsonl"):
        write(f"run/{name}", (run / name).read_text().split("\n")[:-1])
    assert cli_main(["eval", "--run", str(run), "--truth", stream_path]) == 0
    return replayed, (run / "reports.csv").read_bytes()


class TestLineEnds:
    """Lines end at \\n, \\r\\n or \\r only, in every input file."""

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_raw_unicode_separator_replays_like_its_escape(self, line_end_inputs, tmp_path,
                                                           capsys, sep):
        stream, feed, table = line_end_inputs
        # the separator is not a word character, so every text embeds as before
        stream = [{**r, "text": f"{sep}{r['text']}{sep}"} for r in stream]
        feed = [{**e, "source": f"agency{sep}feed"} for e in feed]
        escaped = replay_and_eval(tmp_path / "escaped", stream, feed, table)
        raw = replay_and_eval(tmp_path / "raw", stream, feed, table, ensure_ascii=False)
        assert sep.encode() in (tmp_path / "raw" / "stream.jsonl").read_bytes()
        assert list(raw[0]) == sorted(ARTIFACTS)
        assert raw == escaped

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_copies_replay_byte_identically(self, line_end_inputs, tmp_path,
                                                        capsys, newline):
        lf = replay_and_eval(tmp_path / "lf", *line_end_inputs)
        assert replay_and_eval(tmp_path / "copy", *line_end_inputs, newline=newline) == lf
