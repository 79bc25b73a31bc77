import base64
import copy
import json
import math
import sys

import numpy as np
import pytest
from helpers import (
    make_model,
    oracle_route,
    point,
    random_routing_fixture,
    reference_evaluate_models,
    vec_at_distance,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftstream import core
from driftstream.core import ConfigError, DataPoint, InputError
from driftstream.drift import DriftVerdict
from driftstream.ensemble import decision_lines
from driftstream.pool import (
    ModelRecord,
    Pool,
    PoolConfig,
    PoolError,
    _encode_f8,
    _window_to_json,
    evaluate_models,
    f_score,
    load_pool,
    logistic_loss_and_grad,
    on_drift,
    process_point,
    save_pool,
    score_columns,
    train_classifier,
)
from driftstream.windows import DataWindow, DeltaBand, centroid_distances, empirical_delta_band


@st.composite
def evaluation_inputs(draw):
    """A pool of 1-5 models in d=2..6, some sharing a centroid or with a
    degenerate lo == hi band, and labeled points, some equal to a centroid."""
    dim = draw(st.integers(2, 6))
    vector = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    pool, centroids = Pool(), []
    for j in range(draw(st.integers(1, 5))):
        shared = bool(centroids) and draw(st.booleans())
        centroid = draw(st.sampled_from(centroids)) if shared else draw(vector)
        centroids.append(centroid)
        lo = draw(st.floats(0.0, 1.0))
        hi = lo if draw(st.booleans()) else draw(st.floats(lo, 1.0))
        weights = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim + 1, max_size=dim + 1))
        pool.models.append(make_model(f"m{j}", centroid, DeltaBand(0.6, lo, hi),
                                      weights=weights, omega=draw(st.floats(0.0, 1.0)),
                                      created_at=j))
    labeled = [
        point(f"p{i}", draw(st.sampled_from(centroids)) if draw(st.booleans()) else draw(vector),
              label=draw(st.integers(0, 1)))
        for i in range(draw(st.integers(1, 8)))
    ]
    return pool, labeled


def probability(model, vec):
    """Model's probability of one vector: its cell of score_columns' probability column."""
    return score_columns([model], np.array([vec], dtype=float))[1][0, 0]


def two_cluster_points(rng, n=120, dim=6, sep=1.0):
    pts = []
    for i in range(n):
        label = i % 2
        center = np.zeros(dim)
        center[0] = sep if label else -sep
        vec = center + 0.15 * rng.standard_normal(dim)
        pts.append(point(f"p{i}", vec, label=label, ts=i))
    return pts


class TestFScore:
    def test_perfect(self):
        assert f_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_true_negatives_counts_as_perfect(self):
        assert f_score([0, 0], [0, 0]) == 1.0

    def test_precision_half_recall_one(self):
        assert f_score([1, 1, 0, 0], [1, 1, 1, 1]) == pytest.approx(2.0 / 3.0)

    def test_zero_when_all_missed(self):
        assert f_score([1, 1], [0, 0]) == 0.0


class TestPoolConfig:
    @pytest.mark.parametrize("kwargs,message", [
        ({"k": 0}, "k=0 out of range: must be >= 1"),
        ({"delta": 0.0}, "delta=0.0 out of range: must be in (0, 1]"),
        ({"delta": 1.5}, "delta=1.5 out of range: must be in (0, 1]"),
        ({"delta": math.nan}, "delta=nan out of range: must be in (0, 1]"),
        ({"min_train": 0}, "min_train=0 out of range: must be >= 1"),
        ({"learn_rate": -1}, "learn_rate=-1 out of range: must be finite and > 0"),
        ({"learn_rate": math.inf}, "learn_rate=inf out of range: must be finite and > 0"),
        ({"epochs": -3}, "epochs=-3 out of range: must be >= 0"),
        ({"lam": 2.0}, "lambda=2.0 out of range: must be auto or in [0, 1]"),
        ({"lam": -0.5}, "lambda=-0.5 out of range: must be auto or in [0, 1]"),
    ])
    def test_out_of_range_value_refused(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            PoolConfig(**kwargs)
        assert str(info.value) == message

    def test_range_edges_accepted(self):
        PoolConfig(k=1, delta=1.0, min_train=1, learn_rate=1e-9, epochs=0, lam=0.0)
        PoolConfig(lam=1.0)


class TestTrainClassifier:
    def test_fresh_record_with_zero_weights_predicts_half(self):
        model = make_model("m", np.array([1.0, 0.0]), DeltaBand(0.6, 0.0, 1.0))
        assert probability(model, [0.3, -0.8]) == 0.5

    def test_separable_clusters_reach_high_f_score(self):
        rng = np.random.default_rng(0)
        pts = two_cluster_points(rng, n=120)
        model = train_classifier(pts, PoolConfig())
        assert model.omega >= 0.99

    def test_memory_and_band_come_from_training_data(self):
        rng = np.random.default_rng(1)
        pts = two_cluster_points(rng, n=80)
        cfg = PoolConfig()
        model = train_classifier(pts, cfg)
        assert [p.id for p in model.memory.points] == [p.id for p in pts]
        expected = empirical_delta_band(centroid_distances(model.memory), cfg.delta)
        assert (model.band.lo, model.band.hi) == (expected.lo, expected.hi)

    def test_single_class_deferred(self):
        rng = np.random.default_rng(2)
        pts = [point(f"p{i}", rng.standard_normal(3), label=1)
               for i in range(60)]
        with pytest.raises(PoolError):
            train_classifier(pts, PoolConfig())

    def test_too_few_labeled_deferred(self):
        rng = np.random.default_rng(3)
        pts = two_cluster_points(rng, n=20)
        with pytest.raises(PoolError):
            train_classifier(pts, PoolConfig(min_train=50))

    def test_deterministic_given_data_order(self):
        rng = np.random.default_rng(4)
        pts = two_cluster_points(rng, n=100)
        w1 = train_classifier(pts, PoolConfig()).weights
        w2 = train_classifier(pts, PoolConfig()).weights
        assert np.array_equal(w1, w2)

    def test_unlabeled_points_shape_memory_not_weights(self):
        rng = np.random.default_rng(5)
        labeled = two_cluster_points(rng, n=100)
        extra = [point(f"u{i}", rng.standard_normal(6)) for i in range(20)]
        with_extra = train_classifier(labeled + extra, PoolConfig())
        labeled_only = train_classifier(labeled, PoolConfig())
        assert np.array_equal(with_extra.weights, labeled_only.weights)
        assert len(with_extra.memory) == 120


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n, dim = 30, 5
            x = np.hstack([rng.standard_normal((n, dim)), np.ones((n, 1))])
            y = rng.integers(0, 2, n).astype(float)
            w = rng.standard_normal(dim + 1)
            _, grad = logistic_loss_and_grad(w, x, y)
            h = 1e-6
            for j in range(dim + 1):
                step = np.zeros(dim + 1)
                step[j] = h
                lp, _ = logistic_loss_and_grad(w + step, x, y)
                lm, _ = logistic_loss_and_grad(w - step, x, y)
                numeric = (lp - lm) / (2 * h)
                assert abs(grad[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))

    def test_weighted_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        n, dim = 25, 4
        x = np.hstack([rng.standard_normal((n, dim)), np.ones((n, 1))])
        y = rng.integers(0, 2, n).astype(float)
        sw = rng.uniform(0.5, 2.0, n)
        w = rng.standard_normal(dim + 1)
        _, grad = logistic_loss_and_grad(w, x, y, sw)
        h = 1e-6
        for j in range(dim + 1):
            step = np.zeros(dim + 1)
            step[j] = h
            lp, _ = logistic_loss_and_grad(w + step, x, y, sw)
            lm, _ = logistic_loss_and_grad(w - step, x, y, sw)
            numeric = (lp - lm) / (2 * h)
            assert abs(grad[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))


class TestScoreColumns:
    def test_zero_weights(self):
        model = make_model("m", np.array([1.0, 0.0, 0.0]), DeltaBand(0.6, 0.0, 1.0))
        assert probability(model, [1.0, 2.0, 3.0]) == 0.5

    def test_saturation(self):
        x = np.array([1.0, 0.0, 0.0])
        model = make_model("m", x, DeltaBand(0.6, 0.0, 1.0),
                           weights=np.array([50.0, 0.0, 0.0, 0.0]))
        assert probability(model, x) >= 0.99

    def test_worked_sigmoid(self):
        model = make_model("m", np.array([1.0, 0.0, 0.0]), DeltaBand(0.6, 0.0, 1.0),
                           weights=np.array([1.0, -1.0, 0.0, 0.0]))
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert expected == pytest.approx(0.73106, abs=1e-5)
        assert probability(model, [1.0, 0.0, 0.0]) == pytest.approx(expected)

    def test_always_strictly_inside_unit_interval(self):
        model = make_model("m", np.array([1.0, 0.0]), DeltaBand(0.6, 0.0, 1.0),
                           weights=np.array([1e6, 0.0, 0.0]))
        p_hi = probability(model, [1.0, 0.0])
        p_lo = probability(model, [-1.0, 0.0])
        assert 0.0 < p_lo < p_hi < 1.0


class TestProcessPoint:
    def test_inside_band_appends_and_owns(self):
        pool = Pool()
        pool.models.append(make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.4, 0.6)))
        outcome = process_point(pool, point("x", vec_at_distance(0.5)), PoolConfig())
        assert outcome.models_appended == ("m1",)
        assert not outcome.general_memory_hit
        assert len(pool.general) == 0
        assert pool.models[0].memory.points[-1].id == "x"

    @pytest.mark.parametrize("label", [None, 1, 0])
    def test_routing_leaves_weights_bit_identical(self, label):
        pool = Pool()
        e1 = np.array([1.0, 0.0])
        pool.models.append(make_model("m1", e1, DeltaBand(0.6, 0.4, 0.6),
                                      weights=np.array([0.5, -0.5, 0.1])))
        pool.models.append(make_model("m2", e1, DeltaBand(0.6, 0.2, 0.45),
                                      weights=np.array([-0.3, 0.2, 0.7]), created_at=1))
        before = [m.weights.copy() for m in pool.models]
        x = point("x", vec_at_distance(0.5), label=label)
        outcome = process_point(pool, x, PoolConfig(lam=0.7))
        # inside m1's band and in m2's generalization margin: both memories grow
        assert outcome.models_appended == ("m1", "m2")
        for model, weights in zip(pool.models, before):
            np.testing.assert_array_equal(model.weights.view(np.uint64), weights.view(np.uint64))

    def test_ground_truth_label_does_not_update(self):
        pool = Pool()
        pool.models.append(make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.4, 0.6)))
        x = point("x", vec_at_distance(0.5), label=1)
        assert process_point(pool, x, PoolConfig()).models_appended == ("m1",)
        np.testing.assert_array_equal(pool.models[0].weights.view(np.uint64),
                                      np.zeros(3).view(np.uint64))

    def test_generalization_band_appends_without_owning(self):
        pool = Pool()
        pool.models.append(make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.4, 0.6)))
        outcome = process_point(pool, point("x", vec_at_distance(0.65)), PoolConfig(lam=0.7))
        assert outcome.models_appended == ("m1",)
        assert outcome.general_memory_hit  # still lands in general memory
        assert pool.general.points[0].id == "x"
        assert pool.models[0].memory.points[-1].id == "x"

    def test_far_point_goes_to_general_memory_only(self):
        pool = Pool()
        pool.models.append(make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.4, 0.6)))
        outcome = process_point(pool, point("x", vec_at_distance(0.9)), PoolConfig(lam=0.7))
        assert outcome.models_appended == ()
        assert outcome.general_memory_hit
        assert len(pool.models[0].memory) == 1

    def test_empty_pool_goes_straight_to_general_memory(self):
        pool = Pool()
        outcome = process_point(pool, point("x", [1.0, 0.0]), PoolConfig())
        assert outcome.general_memory_hit and len(pool.general) == 1


class TestRoutingOracle:
    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            pool, state, x, cfg = random_routing_fixture(rng)
            outcome = process_point(pool, x, cfg)
            exp_app, exp_gm = oracle_route(state, x, cfg.lam)
            assert set(outcome.models_appended) == exp_app, f"trial {trial}"
            assert outcome.general_memory_hit == exp_gm, f"trial {trial}"


class TestDistanceReuse:
    @pytest.fixture
    def distance_calls(self, monkeypatch):
        """Counts cosine_distance calls made through any driftstream module."""
        calls = []
        original = core.cosine_distance

        def counted(*args):
            calls.append(1)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("driftstream") and getattr(module, "cosine_distance", None) is original:
                monkeypatch.setattr(module, "cosine_distance", counted)
        return calls

    @pytest.mark.parametrize("n_models", [1, 3, 5, 8])
    def test_one_distance_per_model(self, distance_calls, n_models):
        rng = np.random.default_rng(n_models)
        pool = Pool()
        for j in range(n_models):
            pool.models.append(make_model(f"m{j}", rng.standard_normal(4),
                                          DeltaBand(0.6, 0.2, 0.8), created_at=j))
        x = point("x", rng.standard_normal(4))
        process_point(pool, x, PoolConfig(k=5))
        assert len(distance_calls) == n_models
        distance_calls.clear()
        # prediction takes one distance column per model, never a scalar pair
        decision_lines(["a", "b"], pool.snapshot(), np.vstack([x.vec, -x.vec]), 5)
        assert distance_calls == []


class TestSnapshot:
    def test_routing_and_retraining_leave_snapshot_unchanged(self):
        rng = np.random.default_rng(14)
        cfg = PoolConfig()
        pool = Pool()
        pool.models.append(train_classifier(two_cluster_points(rng, n=100), cfg, model_id="m1"))
        pool.models.append(train_classifier(two_cluster_points(rng, n=100, sep=0.5), cfg,
                                            model_id="m2", created_at=1))
        snapshot = pool.snapshot()
        for live, snap in zip(pool.models, snapshot):
            assert snap.memory is not live.memory
            np.testing.assert_array_equal(snap.centroid, live.centroid)
        probes = [point(f"q{i}", rng.standard_normal(6)) for i in range(20)]

        def frozen_state():
            return [(m.centroid.copy(), m.weights.copy()) for m in snapshot], decision_lines(
                [q.id for q in probes], snapshot, np.vstack([q.vec for q in probes]), 5
            )

        members, predictions = frozen_state()
        live_centroid = pool.models[0].centroid.copy()
        live_weights = pool.models[0].weights.copy()

        for p in two_cluster_points(rng, n=60, sep=2.0):
            process_point(pool, p, cfg)
        verdict = DriftVerdict(kl=1.0, threshold=0.05, drifted=True, compared=("m1", "live"))
        on_drift(pool, {"m1": verdict}, cfg)
        # the live model did move, so the comparison below is not vacuous
        assert not np.array_equal(pool.models[0].centroid, live_centroid)
        assert not np.array_equal(pool.models[0].weights, live_weights)

        members_after, predictions_after = frozen_state()
        for (c0, w0), (c1, w1) in zip(members, members_after):
            np.testing.assert_array_equal(c0, c1)
            np.testing.assert_array_equal(w0, w1)
        assert predictions == predictions_after


class TestGeneralMemory:
    def test_is_a_window_named_general(self):
        pool = Pool(general_capacity=3)
        assert isinstance(pool.general, DataWindow)
        assert (pool.general.id, pool.general.capacity, len(pool.general)) == ("general", 3, 0)

    def test_eviction_oldest_first(self):
        pool = Pool(general_capacity=3)
        for i in range(5):
            pool.general.append(point(f"p{i}", [float(i)]))
        assert [p.id for p in pool.general.points] == ["p2", "p3", "p4"]
        np.testing.assert_array_equal(pool.general.centroid, [3.0])

    def test_labeled_subset(self):
        pool = Pool()
        pool.general.append(point("a", [1.0]))
        pool.general.append(point("b", [1.0]))
        pool.apply_labels({"b": 1})
        assert [p.id for p in pool.general.points if p.label is not None] == ["b"]


class TestApplyLabels:
    def test_relabels_every_memory_and_keeps_running_sums(self):
        rng = np.random.default_rng(15)
        pool = Pool()
        for j in range(2):
            pool.models.append(make_model(f"m{j}", rng.standard_normal(3),
                                          DeltaBand(0.6, 0.0, 1.0), created_at=j))
        shared = point("x", rng.standard_normal(3))
        windows = [m.memory for m in pool.models] + [pool.general]
        for i, w in enumerate(windows):
            w.append(point(f"u{i}", rng.standard_normal(3)))
            w.append(shared)
            w.append(point(f"y{i}", rng.standard_normal(3), label=0))
        sums = [w._vec_sum.copy() for w in windows]
        labels = {"x": 1}
        labels.update({f"y{i}": 1 for i in range(len(windows))})
        pool.apply_labels(labels)
        for i, (w, vec_sum) in enumerate(zip(windows, sums)):
            np.testing.assert_array_equal(w._vec_sum.view(np.uint64), vec_sum.view(np.uint64))
            got = {p.id: p.label for p in w.points[-3:]}
            # a label already held is kept; unlabeled points without one stay so
            assert got == {f"u{i}": None, "x": 1, f"y{i}": 0}
            np.testing.assert_array_equal(w.points[-2].vec, shared.vec)


class TestOnDrift:
    def _drifted(self, mid):
        return DriftVerdict(kl=1.0, threshold=0.05, drifted=True, compared=(mid, "live"))

    def test_noop_without_drift_or_general_memory(self):
        pool = Pool()
        pool.models.append(make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.4, 0.6)))
        delta = on_drift(pool, {}, PoolConfig())
        assert delta.retrained == () and delta.generated == ()

    def test_drifted_model_retrained_and_band_rebuilt(self):
        rng = np.random.default_rng(9)
        cfg = PoolConfig()
        pts = two_cluster_points(rng, n=100)
        pool = Pool()
        model = train_classifier(pts, cfg, model_id="m1")
        # make the stored band stale so the rebuild is observable
        model.band = DeltaBand(0.6, 0.0, 1.0)
        before = model.weights.copy()
        pool.models.append(model)
        delta = on_drift(pool, {"m1": self._drifted("m1")}, cfg)
        assert delta.retrained == ("m1",)
        assert not np.array_equal(model.weights, before)
        expected = empirical_delta_band(centroid_distances(model.memory), cfg.delta)
        assert (model.band.lo, model.band.hi) == (expected.lo, expected.hi)

    def test_drifted_model_without_two_class_labels_keeps_weights(self):
        pool = Pool()
        model = make_model("m1", np.array([1.0, 0.0]), DeltaBand(0.6, 0.0, 1.0),
                           weights=np.array([1.0, 2.0, 3.0]))
        pool.models.append(model)
        delta = on_drift(pool, {"m1": self._drifted("m1")}, PoolConfig())
        assert delta.retrained == ("m1",)
        np.testing.assert_array_equal(model.weights, [1.0, 2.0, 3.0])

    def test_generation_consumes_general_memory(self):
        rng = np.random.default_rng(10)
        cfg = PoolConfig()
        pool = Pool()
        pts = two_cluster_points(rng, n=200)
        for p in pts:
            pool.general.append(p)
        delta = on_drift(pool, {}, cfg, window_index=3)
        assert len(delta.generated) == 1
        [new] = [m for m in pool.models if m.id == delta.generated[0]]
        assert {p.id for p in new.memory.points} == {p.id for p in pts}
        assert new.created_at == 3
        assert (len(pool.general), pool.general.id) == (0, "general")

    def test_generation_deferred_below_min_train(self):
        rng = np.random.default_rng(11)
        pool = Pool()
        for p in two_cluster_points(rng, n=20):
            pool.general.append(p)
        delta = on_drift(pool, {}, PoolConfig(min_train=50))
        assert delta.generated == ()
        assert len(pool.general) == 20
        # a deferred generation takes no model id
        for p in two_cluster_points(rng, n=100):
            pool.general.append(p)
        assert on_drift(pool, {}, PoolConfig(min_train=50)).generated == ("m0001",)


class TestEvaluateModels:
    def _model_with_band(self):
        model = make_model("m1", np.array([1.0, 0.0, 0.0]), DeltaBand(0.6, 0.3, 0.7),
                           weights=np.array([0.0, 5.0, 0.0, 0.0]), omega=0.4)
        return model

    def test_all_correct_gives_one(self):
        pool = Pool()
        pool.models.append(self._model_with_band())
        in_band = vec_at_distance(0.5, dim=3)  # predictor outputs ~1 there
        labeled = [point(f"p{i}", in_band, label=1) for i in range(4)]
        omegas = evaluate_models(pool, labeled, window_index=2)
        assert omegas["m1"] == 1.0
        assert pool.models[0].last_evaluated == 2

    def test_precision_half_recall_one(self):
        pool = Pool()
        pool.models.append(self._model_with_band())
        in_band = vec_at_distance(0.5, dim=3)
        labeled = [
            point("a", in_band, label=1),
            point("b", in_band, label=1),
            point("c", in_band, label=0),
            point("d", in_band, label=0),
        ]
        omegas = evaluate_models(pool, labeled)
        assert omegas["m1"] == pytest.approx(2.0 / 3.0)

    def test_no_in_band_points_keeps_omega(self):
        pool = Pool()
        pool.models.append(self._model_with_band())
        out_band = vec_at_distance(0.9, dim=3)
        labeled = [point("a", out_band, label=1)]
        omegas = evaluate_models(pool, labeled)
        assert omegas["m1"] == 0.4

    @given(evaluation_inputs(), st.one_of(st.none(), st.integers(0, 9)))
    @settings(max_examples=300, deadline=None)
    def test_matches_point_by_point_reference(self, inputs, window_index):
        pool, labeled = inputs
        # a distance on a band edge or a logit at 0 may round either way in a block
        for model in pool.models:
            w = model.weights
            for p in labeled:
                d = core.cosine_distance(p.vec, model.centroid)
                assume(abs(d - model.band.lo) > 1e-9 and abs(d - model.band.hi) > 1e-9)
                assume(abs(float(p.vec @ w[:-1] + w[-1])) > 1e-9)
        reference = copy.deepcopy(pool)
        expected = reference_evaluate_models(reference, labeled, window_index)
        assert evaluate_models(pool, labeled, window_index) == expected
        assert ([(m.omega, m.last_evaluated) for m in pool.models]
                == [(m.omega, m.last_evaluated) for m in reference.models])


def _narrow_model(doc):
    """Model 1 of a checkpoint swapped for one whose memory and weights have width 4."""
    memory = DataWindow([point("n0", [1.0, 0.0, 0.0, 0.0])], capacity=4, window_id="n")
    doc["models"][1].update(memory=_window_to_json(memory), weights=_encode_f8(np.zeros(5)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        cfg = PoolConfig()
        pool = Pool()
        pool.models.append(train_classifier(two_cluster_points(rng, n=80), cfg, model_id="m1"))
        pool._next_model = 1
        for p in two_cluster_points(rng, n=10):
            pool.general.append(p)
        path1 = tmp_path / "pool.json"
        path2 = tmp_path / "pool2.json"
        save_pool(pool, path1)
        restored = load_pool(path1)
        save_pool(restored, path2)
        assert path1.read_bytes() == path2.read_bytes()
        assert np.array_equal(restored.models[0].weights, pool.models[0].weights)
        np.testing.assert_array_equal(restored.models[0].memory.centroid,
                                      pool.models[0].memory.centroid)

    def test_restored_pool_routes_identically(self, tmp_path):
        rng = np.random.default_rng(13)
        cfg = PoolConfig()
        pool = Pool()
        pool.models.append(train_classifier(two_cluster_points(rng, n=80), cfg, model_id="m1"))
        save_pool(pool, tmp_path / "pool.json")
        restored = load_pool(tmp_path / "pool.json")
        x = point("x", rng.standard_normal(6))
        a = process_point(copy.deepcopy(pool), x, cfg)
        b = process_point(restored, x, cfg)
        assert a == b

    # -- the checkpoint format: JSON metadata plus base64 little-endian float64 blocks --

    D = 300
    SPECIAL = (-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308)

    def _special_pool(self, rng):
        """Two d=300 models and a general memory whose vectors, running sums and
        weights hold -0.0, subnormal and +-1e308 components; memories have
        evicted points, so their sums need not equal a re-summation."""
        pool = Pool(general_capacity=30)
        pool._next_model = 7
        for j, mid in enumerate(("m0003", "m0007")):
            memory = DataWindow(capacity=40, window_id=mid)
            for i in range(55):
                v = self._special_vec(rng, i)
                label = None if i % 3 else i % 2
                memory.append(DataPoint(
                    id=f"{mid}-p{i}", ts=1_700_000_000 + i, text=f"Überschwemmung ☔ {i}",
                    vec=v, lat=None if i % 4 else -33.5, lon=None if i % 4 else 151.25,
                    label=label,
                ))
            weights = rng.standard_normal(self.D + 1)
            weights[: len(self.SPECIAL)] = self.SPECIAL
            pool.models.append(ModelRecord(
                id=mid, weights=weights, memory=memory,
                band=DeltaBand(delta=0.6, lo=0.1 * j, hi=0.4, estimate_kind="empirical"),
                omega=0.75, created_at=j, last_evaluated=j + 1,
            ))
        for i in range(45):
            pool.general.append(point(f"g{i}", self._special_vec(rng, i), ts=i))
        return pool

    def _special_vec(self, rng, i):
        v = rng.standard_normal(self.D)
        v[:3] = self.SPECIAL[:3]
        # alternating signs keep every running sum finite
        v[3:5] = self.SPECIAL[3:] if i % 2 else self.SPECIAL[:2:-1]
        return v

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)

    def _assert_windows_bit_equal(self, a, b):
        assert (a.capacity, a.id) == (b.capacity, b.id)
        assert [(p.id, p.ts, p.lat, p.lon, p.text, p.label) for p in a.points] \
            == [(p.id, p.ts, p.lat, p.lon, p.text, p.label) for p in b.points]
        for p, q in zip(a.points, b.points):
            np.testing.assert_array_equal(self._bits(p.vec), self._bits(q.vec))
        if a._vec_sum is None or b._vec_sum is None:
            assert a._vec_sum is None and b._vec_sum is None
        else:
            np.testing.assert_array_equal(self._bits(a._vec_sum), self._bits(b._vec_sum))

    def _assert_pools_bit_equal(self, pool, restored):
        assert restored._next_model == pool._next_model
        self._assert_windows_bit_equal(pool.general, restored.general)
        assert [m.id for m in restored.models] == [m.id for m in pool.models]
        for m, r in zip(pool.models, restored.models):
            np.testing.assert_array_equal(self._bits(r.weights), self._bits(m.weights))
            self._assert_windows_bit_equal(m.memory, r.memory)
            assert (r.band, r.omega, r.created_at, r.last_evaluated) == \
                (m.band, m.omega, m.created_at, m.last_evaluated)

    @pytest.mark.parametrize("empty_general", [False, True])
    def test_d300_round_trip_bit_exact_for_special_values(self, tmp_path, empty_general):
        pool = self._special_pool(np.random.default_rng(21))
        if empty_general:
            pool.general = DataWindow(capacity=30, window_id="general")
        save_pool(pool, tmp_path / "a.json")
        restored = load_pool(tmp_path / "a.json")
        self._assert_pools_bit_equal(pool, restored)
        assert len(restored.general) == (0 if empty_general else 30)
        save_pool(restored, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_layout_metadata_json_vectors_one_block_per_window(self, tmp_path):
        pool = self._special_pool(np.random.default_rng(22))
        save_pool(pool, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        memory = doc["models"][0]["memory"]
        assert list(memory["points"][0]) == ["id", "ts", "lat", "lon", "text", "label"]
        assert memory["vecs"]["shape"] == [40, self.D]
        assert memory["vec_sum"]["shape"] == [self.D]
        assert doc["models"][0]["weights"]["shape"] == [self.D + 1]
        assert "role" not in memory
        # the general memory is the same window record as a model memory
        assert list(doc["general"]) == list(memory)
        assert doc["general"]["vecs"]["shape"] == [30, self.D]
        assert doc["general"]["vec_sum"]["shape"] == [self.D]
        raw = base64.b64decode(memory["vecs"]["f8"])
        first = np.frombuffer(raw[: 8 * self.D], dtype="<f8")
        np.testing.assert_array_equal(self._bits(first),
                                      self._bits(pool.models[0].memory.points[0].vec))

    def test_empty_window_encoding(self, tmp_path):
        pool = Pool()
        save_pool(pool, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["general"] == {"capacity": pool.general.capacity, "id": "general",
                                  "vec_sum": None, "points": [],
                                  "vecs": {"shape": [0, 0], "f8": ""}}
        restored = load_pool(tmp_path / "a.json")
        assert restored.general.points == [] and restored.models == []

    def test_vec_sum_with_own_last_bits_restored_unchanged(self, tmp_path):
        pool = self._special_pool(np.random.default_rng(23))
        memory = pool.models[1].memory
        resummed = np.sum(memory.vectors(), axis=0)
        # premise: eviction left a running sum that re-summation does not give
        assert not np.array_equal(self._bits(resummed), self._bits(memory._vec_sum))
        save_pool(pool, tmp_path / "a.json")
        restored = load_pool(tmp_path / "a.json").models[1].memory
        np.testing.assert_array_equal(self._bits(restored._vec_sum), self._bits(memory._vec_sum))
        np.testing.assert_array_equal(self._bits(restored.centroid), self._bits(memory.centroid))

    def test_restored_arrays_writable_and_appends_match(self, tmp_path):
        rng = np.random.default_rng(24)
        pool = self._special_pool(rng)
        save_pool(pool, tmp_path / "a.json")
        restored = load_pool(tmp_path / "a.json")
        for m in restored.models:
            assert m.memory._vec_sum.flags.writeable and m.memory._vec_sum.flags.owndata
            assert m.weights.flags.writeable and m.weights.flags.owndata
        original, copy_ = pool.models[0].memory, restored.models[0].memory
        for i in range(60):  # more than the capacity, so restored points get evicted
            p = point(f"new{i}", rng.standard_normal(self.D), ts=i)
            assert original.append(p) is not None and copy_.append(p) is not None
        self._assert_windows_bit_equal(original, copy_)
        np.testing.assert_array_equal(self._bits(copy_._vec_sum), self._bits(original._vec_sum))

    def test_pre_change_checkpoint_is_input_error_naming_file(self, tmp_path):
        pool = self._special_pool(np.random.default_rng(25))
        save_pool(pool, tmp_path / "new.json")

        def floats(block):
            return np.frombuffer(base64.b64decode(block["f8"]), dtype="<f8").reshape(
                block["shape"])

        def old_window(w):  # float lists per point, as earlier commits wrote them
            for p, v in zip(w["points"], floats(w.pop("vecs"))):
                p["vec"] = v.tolist()

        for old_format in ("float_lists", "general_points_only"):
            doc = json.loads((tmp_path / "new.json").read_text())
            if old_format == "float_lists":
                old_window(doc["general"])
                for m in doc["models"]:
                    old_window(m["memory"])
                    m["memory"]["vec_sum"] = floats(m["memory"]["vec_sum"]).tolist()
                    m["weights"] = floats(m["weights"]).tolist()
            else:  # float64 blocks, but a general section with no id or running sum
                doc["general"] = {k: doc["general"][k] for k in ("capacity", "points", "vecs")}
                for m in doc["models"]:
                    m["memory"]["role"] = "classifier_window"
            path = tmp_path / f"old-{old_format}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            with pytest.raises(InputError, match=rf"old-{old_format}\.json: unreadable checkpoint"):
                load_pool(path)

    # each checkpoint below loaded without complaint before these refusals
    MALFORMED = {
        "next_model_string": lambda doc: doc.update(next_model="7"),
        "next_model_bool": lambda doc: doc.update(next_model=True),
        "next_model_negative": lambda doc: doc.update(next_model=-1),
        "capacity_bool": lambda doc: doc["general"].update(capacity=True),
        "capacity_float": lambda doc: doc["general"].update(capacity=2.5),
        "window_id_int": lambda doc: doc["models"][0]["memory"].update(id=5),
        "point_ts_string": lambda doc: doc["general"]["points"][0].update(ts="soon"),
        "point_id_int": lambda doc: doc["general"]["points"][0].update(id=5),
        "point_text_int": lambda doc: doc["models"][0]["memory"]["points"][0].update(text=5),
        "vec_sum_missing": lambda doc: doc["general"].update(vec_sum=None),
        "vec_sum_narrow": lambda doc: doc["general"].update(vec_sum=_encode_f8(np.zeros(3))),
        "omega_bool": lambda doc: doc["models"][0].update(omega=True),
        "created_at_string": lambda doc: doc["models"][0].update(created_at="x"),
        "last_evaluated_bool": lambda doc: doc["models"][1].update(last_evaluated=True),
        "band_kind_int": lambda doc: doc["models"][0]["band"].update(kind=7),
        "model_id_int": lambda doc: doc["models"][0].update(id=5),
        "model_ids_repeat": lambda doc: doc["models"][1].update(id=doc["models"][0]["id"]),
        "weights_short": lambda doc: doc["models"][0].update(weights=_encode_f8(np.ones(3))),
        "memory_empty": lambda doc: doc["models"][0].update(
            memory=_window_to_json(DataWindow(capacity=4, window_id="m0003"))),
        "widths_differ": _narrow_model,
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_checkpoint_is_input_error_naming_file(self, tmp_path, case):
        pool = self._special_pool(np.random.default_rng(28))
        save_pool(pool, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        self.MALFORMED[case](doc)
        (tmp_path / f"{case}.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match=rf"{case}\.json: unreadable checkpoint"):
            load_pool(tmp_path / f"{case}.json")

    @pytest.mark.parametrize("cut", [1, 3, 4, 8])
    def test_truncated_block_is_input_error_naming_file(self, tmp_path, cut):
        pool = self._special_pool(np.random.default_rng(26))
        save_pool(pool, tmp_path / "a.json")
        doc = json.loads((tmp_path / "a.json").read_text())
        block = doc["models"][1]["memory"]["vecs"]
        block["f8"] = block["f8"][:-cut]
        (tmp_path / "cut.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match=r"cut\.json: unreadable checkpoint"):
            load_pool(tmp_path / "cut.json")

    def test_truncated_file_is_input_error_naming_file(self, tmp_path):
        pool = self._special_pool(np.random.default_rng(27))
        save_pool(pool, tmp_path / "a.json")
        raw = (tmp_path / "a.json").read_bytes()
        (tmp_path / "cut.json").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(InputError, match=r"cut\.json: unreadable checkpoint"):
            load_pool(tmp_path / "cut.json")
