import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bofusion.core import (
    BoundedParamSpace,
    EvalMeta,
    Observation,
    ObjectiveEntry,
    ObjectiveSpec,
    ParamDim,
    derive_norm_bounds,
    normalize,
    normalize_vector,
    scalarize_sum,
)
from bofusion.errors import EvaluationFailedError


def metric_entry(lo=0.0, hi=1.0, name="m"):
    return ObjectiveEntry(name, "maximize", lo, hi, "metric")


def loss_entry(lo=0.0, hi=1.0, name="l"):
    return ObjectiveEntry(name, "minimize", lo, hi, "loss")


# ---------------------------------------------------------------------------
# parameter space


class TestParamSpace:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            ParamDim("x", 1.0, 0.5)
        with pytest.raises(ValueError):
            ParamDim("x", 0.0, 1.0, scale="cubic")
        with pytest.raises(ValueError):
            ParamDim("x", 0.0, 1.0, scale="log")  # log needs positive lower

    def test_unit_roundtrip_linear(self):
        space = BoundedParamSpace((ParamDim("a", -2.0, 6.0),))
        x = np.array([1.0])
        u = space.to_unit(x)
        assert u[0] == pytest.approx(3.0 / 8.0)
        assert space.from_unit(u)[0] == pytest.approx(1.0)

    def test_unit_roundtrip_log(self):
        space = BoundedParamSpace((ParamDim("lr", 1e-4, 1e-1, scale="log"),))
        u = space.to_unit(np.array([1e-3]))
        # one decade out of three
        assert u[0] == pytest.approx(1.0 / 3.0)
        assert space.from_unit(np.array([0.0]))[0] == pytest.approx(1e-4)
        assert space.from_unit(np.array([1.0]))[0] == pytest.approx(1e-1)

    def test_integer_dim_rounds(self):
        space = BoundedParamSpace((ParamDim("bs", 8, 64, integer=True),))
        x = space.from_unit(np.array([0.5]))
        assert x[0] == float(int(x[0]))
        assert 8 <= x[0] <= 64

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_from_unit_stays_in_box(self, u):
        space = BoundedParamSpace((
            ParamDim("a", -1.0, 2.0),
            ParamDim("b", 1e-3, 10.0, scale="log"),
        ))
        x = space.from_unit(np.array(u))
        assert space.contains(x)

    def test_sample_inside_and_seeded(self):
        space = BoundedParamSpace((ParamDim("a", 0.0, 1.0), ParamDim("b", 0.1, 10.0, scale="log")))
        a = space.sample(np.random.default_rng(3), 16)
        b = space.sample(np.random.default_rng(3), 16)
        assert np.array_equal(a, b)
        assert all(space.contains(x) for x in a)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BoundedParamSpace((ParamDim("a", 0, 1), ParamDim("a", 0, 1)))


# ---------------------------------------------------------------------------
# normalization


class TestNormalize:
    def test_lower_bound_maximize_is_zero(self):
        assert normalize(0.3, metric_entry(0.3, 0.4)) == 0.0

    def test_midpoint_metric_window(self):
        # metric window width 0.1: halfway up the window normalizes to 0.5
        e = metric_entry(0.3, 0.4)
        assert normalize(0.35, e) == pytest.approx(0.5)

    def test_minimize_affine(self):
        e = ObjectiveEntry("l", "minimize", 2.0, 3.0, "loss")
        assert normalize(2.25, e) == pytest.approx(0.75)

    def test_clipping_saturates(self):
        e = metric_entry(0.0, 1.0)
        assert normalize(1.7, e) == 1.0
        assert normalize(-0.7, e) == 0.0

    def test_non_finite_raw_fails(self):
        with pytest.raises(EvaluationFailedError):
            normalize(float("nan"), metric_entry())
        with pytest.raises(EvaluationFailedError):
            normalize(float("inf"), loss_entry())

    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    def test_monotone_maximize(self, a, b):
        e = metric_entry(0.0, 1.0)
        lo, hi = min(a, b), max(a, b)
        assert normalize(lo, e) <= normalize(hi, e)

    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    def test_monotone_minimize_flips(self, a, b):
        e = loss_entry(0.0, 1.0)
        lo, hi = min(a, b), max(a, b)
        assert normalize(lo, e) >= normalize(hi, e)

    def test_normalize_vector_matches_entries(self):
        spec = ObjectiveSpec((loss_entry(0.0, 1.0), metric_entry(0.5, 0.6)))
        v = normalize_vector([0.25, 0.58], spec)
        assert v == pytest.approx([0.75, 0.8])


class TestDeriveNormBounds:
    def test_clustered_metric_values(self):
        lo, hi = derive_norm_bounds([0.832, 0.841], "metric", "maximize")
        assert (lo, hi) == (pytest.approx(0.8), pytest.approx(0.9))

    def test_loss_window_width_exactly_one(self):
        lo, hi = derive_norm_bounds([1.234, 2.0, 1.9], "loss", "minimize")
        assert lo == pytest.approx(1.2)
        assert hi - lo == pytest.approx(1.0)

    def test_singleton_metric(self):
        assert derive_norm_bounds([0.5], "metric", "maximize") == (
            pytest.approx(0.5),
            pytest.approx(0.6),
        )

    def test_anchor_tracks_best_not_worst(self):
        # A weak outlier must not drag the window away from the best value.
        lo, hi = derive_norm_bounds([0.02, 0.45], "metric", "maximize")
        assert lo == pytest.approx(0.4)

    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12),
        st.sampled_from(["metric", "loss"]),
        st.sampled_from(["maximize", "minimize"]),
    )
    def test_window_contains_best_value(self, values, kind, direction):
        lo, hi = derive_norm_bounds(values, kind, direction)
        best = max(values) if direction == "maximize" else min(values)
        assert lo <= best <= hi

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            derive_norm_bounds([], "metric", "maximize")
        with pytest.raises(ValueError):
            derive_norm_bounds([0.1, float("nan")], "loss", "minimize")


# ---------------------------------------------------------------------------
# objective specs and scalarization


class TestObjectiveSpec:
    def test_at_most_one_loss(self):
        with pytest.raises(ValueError):
            ObjectiveSpec((loss_entry(name="l1"), loss_entry(name="l2")))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec((metric_entry(name="m"), metric_entry(name="m")))

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            ObjectiveEntry("m", "maximize", 0.5, 0.5, "metric")

    def test_subset_preserves_order(self):
        spec = ObjectiveSpec((loss_entry(), metric_entry(name="a"), metric_entry(name="b")))
        sub = spec.subset(("metric",))
        assert sub.names == ("a", "b")

    def test_scalarize_sum_all(self):
        spec = ObjectiveSpec((metric_entry(name="a"), metric_entry(name="b")))
        assert scalarize_sum([0.2, 0.3], spec) == pytest.approx(0.5)

    def test_scalarize_metrics_only_mask(self):
        spec = ObjectiveSpec((loss_entry(), metric_entry()))
        assert scalarize_sum([0.9, 0.4], spec, ("metric",)) == pytest.approx(0.4)

    def test_scalarize_three_metrics(self):
        spec = ObjectiveSpec((
            metric_entry(name="a"), metric_entry(name="b"), metric_entry(name="c"),
        ))
        assert scalarize_sum([0.1, 0.2, 0.7], spec) == pytest.approx(1.0)

    def test_empty_mask_rejected(self):
        spec = ObjectiveSpec((metric_entry(),))
        with pytest.raises(ValueError):
            scalarize_sum([0.5], spec, ("loss",))


class TestObservation:
    def test_arrays_read_only(self):
        obs = Observation(
            x=np.array([0.5]),
            raw=np.array([0.3]),
            normalized=np.array([0.3]),
            meta=EvalMeta(seed=0, eval_index=0, wall_ms=1),
        )
        with pytest.raises(ValueError):
            obs.x[0] = 1.0
        with pytest.raises(ValueError):
            obs.normalized[0] = 1.0
