import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import make_model, reference_predict

from driftstream.core import DataPoint, cosine_distance, json_line
from driftstream.ensemble import decision_lines, predict_window, team_weights
from driftstream.windows import DeltaBand


def point(pid, vec):
    return DataPoint(id=pid, ts=0, text="", vec=np.asarray(vec, dtype=float))


def view(mid, centroid, omega=0.9, created_at=0, weights=None, dim=None):
    # the memory holds the centroid as its single point, which reproduces it exactly
    return make_model(mid, np.asarray(centroid, dtype=float), DeltaBand(0.6, 0.0, 1.0),
                      weights=weights, omega=omega, created_at=created_at, dim=dim)


def view_with_output(mid, centroid, output, omega=0.9, created_at=0):
    """A model whose classifier emits a fixed probability for unit e1 input."""
    logit = math.log(output / (1.0 - output))
    w = np.zeros(len(centroid) + 1)
    w[0] = logit  # x = e1 picks this up, bias zero
    return view(mid, centroid, omega=omega, created_at=created_at, weights=w)


def angled(deg, dim=3):
    rad = math.radians(deg)
    v = np.zeros(dim)
    v[0] = math.cos(rad)
    v[1] = math.sin(rad)
    return v


def predict_one(models, x, k=5):
    """The decision for one point: predict_window over a one-row window."""
    return predict_window(models, x.vec[None, :], k)[0]


def team_ids(decision):
    return [m["model"] for m in decision["team"]]


class TestSelectModels:
    def test_single_model_always_selected(self):
        models = [view("m1", angled(170.0))]
        assert team_ids(predict_one(models, point("x", angled(0.0)), k=5)) == ["m1"]

    def test_orders_by_distance(self):
        # distances from e1: (1 - cos(angle)) / 2
        models = [view("far", angled(67.0)), view("near", angled(37.0)),
                  view("mid", angled(53.0))]
        got = team_ids(predict_one(models, point("x", angled(0.0)), k=2))
        assert got == ["near", "mid"]

    def test_tie_breaks_on_created_at_then_id(self):
        models = [view("young", angled(45.0), created_at=5),
                  view("old", angled(45.0), created_at=1),
                  view("elder", angled(45.0), created_at=1)]
        got = team_ids(predict_one(models, point("x", angled(0.0)), k=3))
        assert got == ["elder", "old", "young"]

    def test_empty_pool_gives_empty_selection(self):
        assert predict_one([], point("x", angled(0.0)), k=5)["team"] == []

    def test_invariant_under_positive_rescaling(self):
        models = [view("a", angled(20.0)), view("b", angled(50.0)), view("c", angled(80.0))]
        x1 = point("x", angled(10.0))
        x2 = point("x", 37.5 * angled(10.0))
        assert team_ids(predict_one(models, x1, k=2)) == team_ids(predict_one(models, x2, k=2))


class TestTeamWeights:
    def test_identical_members_split_evenly(self):
        w = team_weights([(0.8, 0.3)] * 5)
        np.testing.assert_allclose(w, [0.2] * 5, atol=1e-12)

    def test_worked_example(self):
        w = team_weights([(0.9, 0.2), (0.7, 0.5)])
        raw = [0.9 * 0.8, 0.7 * 0.5]
        expected = np.exp(raw) / np.sum(np.exp(raw))
        np.testing.assert_allclose(w, expected, atol=1e-12)
        np.testing.assert_allclose(w, [0.5915, 0.4085], atol=1e-4)

    def test_singleton_weight_is_one(self):
        np.testing.assert_allclose(team_weights([(0.4, 0.9)]), [1.0])

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, members):
        assert float(team_weights(members).sum()) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
           st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance_of_softmax(self, raws, shift):
        raws = np.array(raws)
        base = np.exp(raws - raws.max())
        base = base / base.sum()
        shifted = np.exp(raws + shift - (raws + shift).max())
        shifted = shifted / shifted.sum()
        np.testing.assert_allclose(base, shifted, atol=1e-9)


class TestTeamPredict:
    def test_all_members_half_gives_half_and_label_one(self):
        # equal centroids give equal weights, so the blend is exactly 0.5
        models = [view_with_output(f"m{i}", angled(10.0), 0.5) for i in range(4)]
        decision = predict_one(models, point("x", [1.0, 0.0, 0.0]))
        assert decision["p"] == 0.5
        assert decision["label"] == 1  # threshold is inclusive

    def test_singleton_passthrough(self):
        models = [view_with_output("m", angled(30.0), 0.9)]
        decision = predict_one(models, point("x", [1.0, 0.0, 0.0]))
        assert decision["p"] == pytest.approx(0.9, abs=1e-9)
        assert decision["label"] == 1
        assert decision["team"][0]["w"] == 1.0

    def test_weighted_mean(self):
        models = [view_with_output("a", angled(10.0), 0.8, omega=0.7),
                  view_with_output("b", angled(70.0), 0.3, omega=0.9)]
        decision = predict_one(models, point("x", [1.0, 0.0, 0.0]))
        a, b = decision["team"]
        assert (a["model"], b["model"]) == ("a", "b")
        np.testing.assert_allclose([a["w"], b["w"]],
                                   team_weights([(0.7, a["d"]), (0.9, b["d"])]), atol=1e-15)
        assert decision["p"] == pytest.approx(a["w"] * 0.8 + b["w"] * 0.3, abs=1e-9)
        assert decision["label"] == 1

    def test_empty_team_unclassified(self):
        decisions = predict_window([], np.eye(3), 5)
        assert decisions == [{"team": [], "p": None, "label": None}] * 3

    def test_monotone_in_member_output(self):
        rng = np.random.default_rng(21)
        x = np.array([[1.0, 0.0, 0.0]])
        for _ in range(50):
            k = int(rng.integers(1, 6))
            outputs = rng.uniform(0.05, 0.95, k)
            models = [view_with_output(f"m{i}", angled(5.0 + i), outputs[i]) for i in range(k)]
            base = predict_window(models, x, k)[0]["p"]
            j = int(rng.integers(0, k))
            bumped = list(models)
            bumped[j] = view_with_output(f"m{j}", angled(5.0 + j), min(0.99, outputs[j] + 0.05))
            raised = predict_window(bumped, x, k)[0]["p"]
            assert raised >= base - 1e-12


class TestFormTeam:
    def test_members_sorted_ascending_by_distance(self):
        models = [view("far", angled(80.0)), view("near", angled(20.0)),
                  view("mid", angled(50.0))]
        decision = predict_one(models, point("x", angled(0.0)), k=3)
        assert team_ids(decision) == ["near", "mid", "far"]
        dists = [m["d"] for m in decision["team"]]
        assert dists == sorted(dists)

    def test_weights_sum_to_one(self):
        models = [view(f"m{i}", angled(15.0 * i), omega=0.5 + 0.1 * i) for i in range(4)]
        decision = predict_one(models, point("x", angled(0.0)), k=4)
        assert sum(m["w"] for m in decision["team"]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_pool_gives_none(self):
        decision = predict_one([], point("x", angled(0.0)), k=3)
        assert decision["p"] is None and decision["label"] is None

    def test_record_schema(self):
        models = [view("m1", angled(30.0))]
        decision = predict_one(models, point("x", angled(0.0)), k=1)
        assert list(decision) == ["team", "p", "label"]
        assert isinstance(decision["p"], float) and type(decision["label"]) is int
        assert decision["team"][0]["model"] == "m1"
        assert list(decision["team"][0]) == ["model", "d", "w"]


# components include exact small integers (distance ties), general floats and
# subnormal or tiny values, whose norms need rescaling
component = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-2.0, 2.0),
    st.sampled_from([5e-324, -2.5e-310, 3e-170, -1e-160]),
)


@st.composite
def prediction_inputs(draw):
    """(models, X, k) with M from 0 to 8 against k from 1 to 6, duplicated
    centroids under permuted ids and created_at, and zero-vector rows."""
    dim = draw(st.integers(1, 5))
    vec = st.lists(component, min_size=dim, max_size=dim)
    n_models = draw(st.integers(0, 8))
    centroids = []
    for _ in range(n_models):
        if centroids and draw(st.booleans()):
            centroids.append(draw(st.sampled_from(centroids)))
        else:
            centroids.append(draw(vec))
    ids = draw(st.permutations([f"m{j}" for j in range(n_models)]))
    models = [
        make_model(mid, np.array(c), DeltaBand(0.6, 0.0, 1.0),
                   weights=draw(st.lists(st.floats(-5.0, 5.0), min_size=dim + 1,
                                         max_size=dim + 1)),
                   omega=draw(st.floats(0.0, 1.0)), created_at=draw(st.integers(0, 2)))
        for mid, c in zip(ids, centroids)
    ]
    rows = draw(st.lists(st.one_of(vec, st.just([0.0] * dim)), min_size=1, max_size=6))
    return models, np.array(rows, dtype=float), draw(st.integers(1, 6))


def _tied_case():
    """Three equal centroids (ids and created_at out of order), a fourth
    model, and a zero row and a subnormal row, with k below M."""
    c = np.array([1.0, 2.0, 0.0])
    models = [
        make_model("m2", c, DeltaBand(0.6, 0.0, 1.0), created_at=1, weights=[1.0, 0, 0, 0]),
        make_model("m0", c, DeltaBand(0.6, 0.0, 1.0), created_at=1, weights=[0, 1.0, 0, 0]),
        make_model("m1", c, DeltaBand(0.6, 0.0, 1.0), created_at=0, weights=[0, 0, 1.0, 0]),
        make_model("m3", np.array([0.0, 0.0, 1.0]), DeltaBand(0.6, 0.0, 1.0), created_at=0),
    ]
    X = np.array([[0.0, 0.0, 0.0], [5e-324, 1e-310, 0.0], [2.0, 1.0, 1.0]])
    return models, X, 2


def _near_ties_only_between_equal_centroids(models, X):
    """Whether every pair of models within 1e-9 in distance to a nonzero row
    has bit-equal centroids. Two different centroids at (nearly) the same
    distance, such as parallel ones, have no defined order: it rests on the
    last bit of each path's rounding."""
    for row in X:
        if not row.any():
            continue  # the zero-vector rule puts every model at exactly 0.5
        dist = [cosine_distance(row, m.centroid) for m in models]
        for i, j in itertools.combinations(range(len(models)), 2):
            if (abs(dist[i] - dist[j]) <= 1e-9
                    and not np.array_equal(models[i].centroid, models[j].centroid)):
                return False
    return True


class TestPredictWindowDifferential:
    @given(prediction_inputs())
    @example(_tied_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_point_by_point_reference(self, case):
        models, X, k = case
        assume(_near_ties_only_between_equal_centroids(models, X))
        decisions = predict_window(models, X, k)
        assert len(decisions) == len(X)
        for i, decision in enumerate(decisions):
            want = reference_predict(models, point(f"x{i}", X[i]), k)
            assert team_ids(decision) == team_ids(want)
            assert decision["label"] == want["label"]
            if want["p"] is None:
                assert decision["p"] is None
            else:
                assert abs(decision["p"] - want["p"]) <= 1e-12
            for got, ref in zip(decision["team"], want["team"]):
                assert abs(got["d"] - ref["d"]) <= 1e-12
                assert abs(got["w"] - ref["w"]) <= 1e-12

    def test_ties_go_to_older_created_at_then_smaller_id(self):
        models, X, k = _tied_case()
        # the zero row is at distance 0.5 from every model: the order is
        # created_at, then id, over all four
        assert team_ids(predict_window(models, X, 4)[0]) == ["m1", "m3", "m0", "m2"]
        assert team_ids(predict_window(models, X, k)[2]) == ["m1", "m0"]


# ids with quotes, backslashes, control characters, non-ASCII text and lone surrogates
id_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\u6f22\ud800\udfff'),
                            st.characters(exclude_categories=())), max_size=6)


@st.composite
def decision_inputs(draw):
    """prediction_inputs' (models, X, k) with drawn model ids, plus point ids."""
    models, X, k = draw(prediction_inputs())
    model_ids = draw(st.lists(id_text, min_size=len(models), max_size=len(models), unique=True))
    for m, mid in zip(models, model_ids):
        m.id = mid
    return models, X, k, draw(st.lists(id_text, min_size=len(X), max_size=len(X)))


class TestDecisionLines:
    @given(decision_inputs())
    @example((*_tied_case(), ['a"\\', "\x00\u2028", "\ud800\xe9"]))
    @settings(max_examples=300, deadline=None)
    def test_lines_are_the_encoded_rows(self, case):
        models, X, k, point_ids = case
        rows = predict_window(models, X, k)
        lines, p = decision_lines(point_ids, models, X, k)
        assert lines == [json_line({"point_id": pid, **row}) for pid, row in zip(point_ids, rows)]
        assert p == [row["p"] for row in rows]

    def test_empty_pool_leaves_rows_unclassified(self):
        lines, p = decision_lines(['a"b', "\u00e9"], [], np.eye(2), 5)
        assert lines == ['{"point_id":"a\\"b","team":[],"p":null,"label":null}\n',
                         '{"point_id":"\\u00e9","team":[],"p":null,"label":null}\n']
        assert p == [None, None]
