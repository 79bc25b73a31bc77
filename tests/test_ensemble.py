import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import make_model

from driftstream.core import DataPoint
from driftstream.ensemble import (
    TeamMember,
    TeamSelection,
    form_team,
    select_models,
    team_predict,
    team_weights,
)
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


class TestSelectModels:
    def test_single_model_always_selected(self):
        models = [view("m1", angled(170.0))]
        assert select_models(models, point("x", angled(0.0)), k=5) == ["m1"]

    def test_orders_by_distance(self):
        # distances from e1: (1 - cos(angle)) / 2
        models = [view("far", angled(67.0)), view("near", angled(37.0)),
                  view("mid", angled(53.0))]
        got = select_models(models, point("x", angled(0.0)), k=2)
        assert got == ["near", "mid"]

    def test_tie_breaks_on_created_at_then_id(self):
        models = [view("young", angled(45.0), created_at=5),
                  view("old", angled(45.0), created_at=1),
                  view("elder", angled(45.0), created_at=1)]
        got = select_models(models, point("x", angled(0.0)), k=3)
        assert got == ["elder", "old", "young"]

    def test_empty_pool_gives_empty_selection(self):
        assert select_models([], point("x", angled(0.0)), k=5) == []

    def test_invariant_under_positive_rescaling(self):
        models = [view("a", angled(20.0)), view("b", angled(50.0)), view("c", angled(80.0))]
        x1 = point("x", angled(10.0))
        x2 = point("x", 37.5 * angled(10.0))
        assert select_models(models, x1, k=2) == select_models(models, x2, k=2)


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
        models = {f"m{i}": view_with_output(f"m{i}", angled(10.0 * i), 0.5) for i in range(3)}
        team = TeamSelection(point_id="x", members=tuple(
            TeamMember(f"m{i}", 0.1 * i, 0.5, 1.0 / 3.0) for i in range(3)
        ))
        prob, label = team_predict(team, models, point("x", [1.0, 0.0, 0.0]))
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert label == 1  # threshold is inclusive

    def test_singleton_passthrough(self):
        models = {"m": view_with_output("m", angled(30.0), 0.9)}
        team = TeamSelection(point_id="x", members=(TeamMember("m", 0.2, 0.7, 1.0),))
        prob, label = team_predict(team, models, point("x", [1.0, 0.0, 0.0]))
        assert prob == pytest.approx(0.9, abs=1e-9)
        assert label == 1

    def test_weighted_mean(self):
        models = {
            "a": view_with_output("a", angled(10.0), 0.8),
            "b": view_with_output("b", angled(70.0), 0.3),
        }
        team = TeamSelection(point_id="x", members=(
            TeamMember("a", 0.1, 0.7, 0.6), TeamMember("b", 0.4, 0.3, 0.4),
        ))
        prob, label = team_predict(team, models, point("x", [1.0, 0.0, 0.0]))
        assert prob == pytest.approx(0.6 * 0.8 + 0.4 * 0.3, abs=1e-9)
        assert label == 1

    def test_empty_team_unclassified(self):
        assert team_predict(None, {}, point("x", [1.0, 0.0])) is None
        empty = TeamSelection(point_id="x", members=())
        assert team_predict(empty, {}, point("x", [1.0, 0.0])) is None

    def test_monotone_in_member_output(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            outputs = rng.uniform(0.05, 0.95, k)
            weights = rng.random(k)
            weights = weights / weights.sum()
            models = {f"m{i}": view_with_output(f"m{i}", angled(5.0 + i), outputs[i])
                      for i in range(k)}
            team = TeamSelection(point_id="x", members=tuple(
                TeamMember(f"m{i}", 0.1, 0.5, float(weights[i])) for i in range(k)
            ))
            x = point("x", [1.0, 0.0, 0.0])
            base, _ = team_predict(team, models, x)
            j = int(rng.integers(0, k))
            bumped = dict(models)
            bumped[f"m{j}"] = view_with_output(f"m{j}", angled(5.0 + j),
                                               min(0.99, outputs[j] + 0.05))
            raised, _ = team_predict(team, bumped, x)
            assert raised >= base - 1e-12


class TestFormTeam:
    def test_members_sorted_ascending_by_distance(self):
        models = [view("far", angled(80.0)), view("near", angled(20.0)),
                  view("mid", angled(50.0))]
        team = form_team(models, point("x", angled(0.0)), k=3)
        ids = [m.model_id for m in team.members]
        assert ids == ["near", "mid", "far"]
        dists = [m.distance for m in team.members]
        assert dists == sorted(dists)

    def test_weights_sum_to_one(self):
        models = [view(f"m{i}", angled(15.0 * i), omega=0.5 + 0.1 * i) for i in range(4)]
        team = form_team(models, point("x", angled(0.0)), k=4)
        assert sum(m.weight for m in team.members) == pytest.approx(1.0, abs=1e-9)

    def test_empty_pool_gives_none(self):
        assert form_team([], point("x", angled(0.0)), k=3) is None

    def test_record_schema(self):
        models = [view("m1", angled(30.0))]
        team = form_team(models, point("x", angled(0.0)), k=1)
        row = team.record(0.75, 1)
        assert row["point_id"] == "x" and row["p"] == 0.75 and row["label"] == 1
        assert row["team"][0]["model"] == "m1"
        assert set(row["team"][0]) == {"model", "d", "w"}
