import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bofusion.errors import (
    CheckpointDimError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    EvaluationFailedError,
)
from bofusion.fusion import (
    Member,
    MemberSet,
    SimplexCoefficients,
    collection_schedule,
    fuse,
    fuse_greedy,
    fuse_learned,
    fuse_uniform,
    load_checkpoint,
    load_member_set,
    save_checkpoint,
    save_member_set,
)


def member_set(vectors, steps=None):
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    steps = steps or list(range(1, len(vectors) + 1))
    return MemberSet(tuple(
        Member(id=i, step=s, weights=v) for i, (s, v) in enumerate(zip(steps, vectors))
    ))


# ---------------------------------------------------------------------------
# simplex coefficients


class TestSimplexCoefficients:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimplexCoefficients(np.array([0.5, 0.4]))

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            SimplexCoefficients(np.array([1.2, -0.2]))

    def test_uniform_and_one_hot(self):
        u = SimplexCoefficients.uniform(4)
        assert np.allclose(u.values, 0.25)
        h = SimplexCoefficients.one_hot(4, 2)
        assert list(h.values) == [0.0, 0.0, 1.0, 0.0]

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_normalized_vectors_accepted(self, raw):
        v = np.array(raw)
        c = SimplexCoefficients(v / v.sum())
        assert c.values.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# member sets


class TestMemberSet:
    def test_steps_strictly_increasing(self):
        with pytest.raises(ValueError):
            member_set([[0.0], [1.0]], steps=[5, 5])

    def test_dims_must_match(self):
        with pytest.raises(CheckpointDimError):
            MemberSet((
                Member(0, 1, np.zeros(3)),
                Member(1, 2, np.zeros(4)),
            ))

    def test_weights_matrix_shape(self):
        ms = member_set([[1.0, 2.0], [3.0, 4.0]])
        assert ms.weights_matrix.shape == (2, 2)

    def test_subset_selects_by_id(self):
        ms = member_set([[0.0], [1.0], [2.0]])
        sub = ms.subset([2, 0])
        assert [m.id for m in sub.members] == [0, 2]


# ---------------------------------------------------------------------------
# collection schedule


class TestCollectionSchedule:
    def test_paper_shaped_window(self):
        steps, short = collection_schedule(total_steps=250, convergence_step=100, n=15)
        assert len(steps) == 15
        assert steps[0] == 50 and steps[-1] == 200
        assert not short
        diffs = np.diff(steps)
        assert diffs.min() >= 1
        # even spacing up to integer rounding
        assert diffs.max() - diffs.min() <= 1

    def test_convergence_at_end_clips(self):
        steps, short = collection_schedule(total_steps=100, convergence_step=100, n=15)
        assert steps[0] == 50 and steps[-1] == 100
        assert not short

    def test_degenerate_short_window(self):
        steps, short = collection_schedule(total_steps=4, convergence_step=2, n=15)
        assert steps == [1, 2, 3, 4]
        assert short

    def test_all_steps_distinct_and_sorted(self):
        for b, t, n in ((7, 30, 5), (10, 10, 3), (33, 100, 15), (50, 60, 15)):
            steps, _ = collection_schedule(t, b, n)
            assert steps == sorted(set(steps))
            assert all(1 <= s <= t for s in steps)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            collection_schedule(0, 1, 5)
        with pytest.raises(ValueError):
            collection_schedule(10, 11, 5)


# ---------------------------------------------------------------------------
# fuse / fuse_uniform


class TestFuse:
    def test_one_hot_recovers_member(self):
        ms = member_set([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        for i in range(3):
            got = fuse(ms, SimplexCoefficients.one_hot(3, i))
            assert np.array_equal(got, ms.members[i].weights)

    def test_identical_members_fixed_point(self):
        ms = member_set([[1.5, -2.0]] * 4)
        delta = SimplexCoefficients(np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.allclose(fuse(ms, delta), [1.5, -2.0])

    def test_hand_arithmetic(self):
        ms = member_set([[0.0], [2.0]])
        got = fuse(ms, SimplexCoefficients(np.array([0.25, 0.75])))
        assert got[0] == pytest.approx(1.5)

    def test_count_mismatch_rejected(self):
        ms = member_set([[0.0], [2.0]])
        with pytest.raises(ValueError):
            fuse(ms, SimplexCoefficients.uniform(3))

    def test_uniform_delegates_bitwise(self):
        rng = np.random.default_rng(0)
        ms = member_set(rng.standard_normal((5, 7)))
        assert np.array_equal(
            fuse_uniform(ms), fuse(ms, SimplexCoefficients.uniform(5))
        )

    def test_uniform_midpoint(self):
        ms = member_set([[0.0], [2.0]])
        assert fuse_uniform(ms)[0] == pytest.approx(1.0)

    def test_uniform_subset(self):
        ms = member_set([[0.0], [2.0], [10.0]])
        got = fuse_uniform(ms, subset=[0, 1])
        assert got[0] == pytest.approx(1.0)

    def test_uniform_empty_subset_rejected(self):
        ms = member_set([[0.0], [2.0]])
        with pytest.raises(ValueError):
            fuse_uniform(ms, subset=[])

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    def test_fuse_stays_in_convex_hull(self, raw):
        d = np.array(raw)
        d = d / d.sum()
        ms = member_set([[0.0], [1.0], [4.0]])
        got = fuse(ms, SimplexCoefficients(d))[0]
        assert 0.0 - 1e-9 <= got <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# fuse_greedy with an exhaustive oracle


def on_weights(ms, quality_of_weights):
    """A delta -> value callable that scores the blended member weights
    (also off the simplex, where finite differences probe)."""
    W = ms.weights_matrix
    return lambda d: quality_of_weights(W.T @ np.asarray(d, dtype=float))


def one_hot_qualities(n, quality):
    return [quality(np.eye(n)[i]) for i in range(n)]


def by_quality(singles):
    """Member ids by decreasing standalone quality, ties to the lower id."""
    return sorted(range(len(singles)), key=lambda i: (-singles[i], i))


def greedy_oracle(n, quality):
    """Definitional greedy replay over an exhaustively precomputed
    subset-quality table (independent of the library implementation)."""
    table = {}
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            d = np.zeros(n)
            d[list(combo)] = 1.0 / r
            table[combo] = quality(d)
    singles = [table[(i,)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (-singles[i], i))
    kept = [order[0]]
    best = table[tuple(sorted(kept))]
    for i in order[1:]:
        trial = tuple(sorted(kept + [i]))
        if table[trial] >= best:
            kept.append(i)
            best = table[trial]
    return sorted(kept)


class TestFuseGreedy:
    def test_identical_members_keep_all(self):
        kept, delta = fuse_greedy([1.0] * 4, lambda d: 1.0, range(4))
        assert sorted(kept) == [0, 1, 2, 3]
        assert np.array_equal(delta, np.full(4, 0.25))

    def test_single_good_member(self):
        ms = member_set([[0.0], [10.0], [-10.0]])
        quality = on_weights(ms, lambda w: -float((w[0] - 0.0) ** 2))
        singles = one_hot_qualities(3, quality)
        kept, delta = fuse_greedy(singles, quality, by_quality(singles))
        assert kept == [0]
        assert fuse(ms, delta)[0] == pytest.approx(0.0)

    def test_three_member_worked_instance(self):
        ms = member_set([[0.0], [1.0], [2.0]])
        quality = on_weights(ms, lambda w: -float((w[0] - 1.0) ** 2))
        singles = one_hot_qualities(3, quality)
        kept, delta = fuse_greedy(singles, quality, by_quality(singles))
        assert sorted(kept) == greedy_oracle(3, quality)
        # member 1 leads; averaging in member 0 or 2 moves the pool off 1.0,
        # so neither joins
        assert fuse(ms, delta)[0] == pytest.approx(1.0)

    def test_matches_exhaustive_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            vectors = rng.standard_normal((n, dim))
            target = rng.standard_normal(dim)
            ms = member_set(vectors)
            quality = on_weights(ms, lambda w: -float(np.sum((w - target) ** 2)))
            singles = one_hot_qualities(n, quality)
            kept, delta = fuse_greedy(singles, quality, by_quality(singles))
            assert sorted(kept) == greedy_oracle(n, quality), f"trial {trial}"
            assert np.allclose(fuse(ms, delta), np.mean(vectors[sorted(kept)], axis=0))

    def test_sort_is_by_quality_then_id(self):
        seen = []
        singles = [0.5, 0.7, 0.7]
        kept, _ = fuse_greedy(singles, lambda d: (seen.append(d.copy()), -1.0)[1], by_quality(singles))
        assert kept == [1]
        # one call per trial pool, in the given order: member 2 (tied with
        # 1, higher id), then 0
        assert [list(np.flatnonzero(d)) for d in seen] == [[1, 2], [0, 1]]

    def test_failed_trial_is_left_out(self):
        # member 1's trial fails; member 0 could not be scored at all and is
        # tried last
        singles = [-math.inf, 0.5, 0.5, 0.5]
        kept, delta = fuse_greedy(
            singles, lambda d: -math.inf if d[2] > 0 else 0.5, by_quality(singles)
        )
        assert kept == [1, 3, 0]
        assert np.array_equal(delta, [1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0])

    def test_given_order_sets_the_leader(self):
        # Qualities [-inf, 0, 0] rank [1, 2, 0] by quality alone; the order
        # [2, 1, 0] leads with member 2 and keeps the leader's quality as
        # the bar.
        kept, _ = fuse_greedy([-math.inf, 0.0, 0.0], lambda d: 0.0, [2, 1, 0])
        assert kept[0] == 2
        assert kept == [2, 1, 0]
        assert fuse_greedy([-math.inf, 0.0, 0.0], lambda d: -1.0, [2, 1, 0])[0] == [2]

    def test_order_must_list_every_member_once(self):
        for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
            with pytest.raises(ValueError):
                fuse_greedy([0.1, 0.2, 0.3], lambda d: 0.0, bad)

    def test_no_finite_standalone_quality_rejected(self):
        with pytest.raises(EvaluationFailedError):
            fuse_greedy([-math.inf, -math.inf], lambda d: 0.0, [0, 1])


# ---------------------------------------------------------------------------
# fuse_learned


class TestFuseLearned:
    def test_constant_loss_keeps_uniform(self):
        delta = fuse_learned(3, lambda d: 1.0, steps=50, lr=0.1)
        assert np.allclose(delta.values, 1.0 / 3.0)

    def test_two_member_descent(self):
        ms = member_set([[0.0], [2.0]])
        delta = fuse_learned(2, on_weights(ms, lambda w: float((w[0] - 2.0) ** 2)), steps=500, lr=0.1)
        assert delta.values[1] == pytest.approx(1.0, abs=1e-2)
        assert fuse(ms, delta)[0] == pytest.approx(2.0, abs=2e-2)

    def test_initial_optimum_is_stable(self):
        ms = member_set([[0.0], [1.0], [2.0]])
        center = fuse_uniform(ms)
        delta = fuse_learned(3, on_weights(ms, lambda w: float(np.sum((w - center) ** 2))),
                             steps=100, lr=0.1)
        assert np.allclose(delta.values, 1.0 / 3.0, atol=1e-6)

    def test_non_finite_initial_loss_rejected(self):
        with pytest.raises(EvaluationFailedError):
            fuse_learned(2, lambda d: float("nan"), steps=10, lr=0.1)

    def test_result_on_simplex(self):
        rng = np.random.default_rng(12)
        ms = member_set(rng.standard_normal((4, 3)))
        target = rng.standard_normal(3)
        delta = fuse_learned(4, on_weights(ms, lambda w: float(np.sum((w - target) ** 2))),
                             steps=100, lr=0.2)
        assert np.all(delta.values >= 0)
        assert delta.values.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# checkpoint + manifest round-trips


class TestCheckpointIo:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(13)
        w = rng.standard_normal(37)
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(w, {"id": 3, "step": 70}, path)
        member = load_checkpoint(path)
        assert np.array_equal(member.weights, w)
        assert member.id == 3 and member.step == 70

    def test_load_via_sidecar_path(self, tmp_path):
        w = np.array([1.0, 2.0])
        path = str(tmp_path / "b.ckpt")
        sidecar = save_checkpoint(w, {"id": 0, "step": 1}, path)
        assert sidecar.endswith(".json")
        member = load_checkpoint(sidecar)
        assert np.array_equal(member.weights, w)

    def test_truncated_payload(self, tmp_path):
        w = np.arange(5, dtype=float)
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(w, {"id": 0, "step": 1}, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-1])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_dim_mismatch_longer_payload(self, tmp_path):
        w = np.arange(3, dtype=float)
        path = str(tmp_path / "d.ckpt")
        save_checkpoint(w, {"id": 0, "step": 1}, path)
        with open(path, "ab") as fh:
            fh.write(np.float64(9.0).tobytes())
        with pytest.raises(CheckpointDimError):
            load_checkpoint(path)

    def test_header_dim_four_payload_three(self, tmp_path):
        # header claims dim 4 over a 3-float payload: sidecar wins, payload
        # is one float short -> truncation
        w = np.arange(4, dtype=float)
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(w, {"id": 0, "step": 1}, path)
        open(path, "wb").write(np.arange(3, dtype="<f8").tobytes())
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_malformed_sidecar(self, tmp_path):
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(np.zeros(2), {"id": 0, "step": 1}, path)
        open(path + ".json", "w").write("{not json")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_unknown_format_tag(self, tmp_path):
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(np.zeros(2), {"id": 0, "step": 1}, path)
        header = json.load(open(path + ".json"))
        header["format"] = "ckpt32be/9"
        json.dump(header, open(path + ".json", "w"))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_member_set_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        ms = member_set(rng.standard_normal((4, 6)), steps=[10, 20, 30, 40])
        manifest = save_member_set(ms, str(tmp_path / "members"))
        loaded = load_member_set(manifest)
        assert len(loaded) == 4
        for a, b in zip(loaded.members, ms.members):
            assert a.id == b.id and a.step == b.step
            assert np.array_equal(a.weights, b.weights)

    def test_manifest_set_level_dim_check(self, tmp_path):
        ms = member_set(np.random.default_rng(15).standard_normal((3, 4)))
        manifest = save_member_set(ms, str(tmp_path / "members"))
        data = json.load(open(manifest))
        blob_path = os.path.join(os.path.dirname(manifest), data["members"][1])
        open(blob_path, "wb").write(np.zeros(5, dtype="<f8").tobytes())
        sidecar = json.load(open(blob_path + ".json"))
        sidecar["dim"] = 5
        json.dump(sidecar, open(blob_path + ".json", "w"))
        with pytest.raises(CheckpointDimError):
            load_member_set(manifest)
