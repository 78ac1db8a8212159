import numpy as np
import pytest
from hypothesis import given, strategies as st

from bofusion.errors import NumericalError
from bofusion.pareto import (
    MAX_CELLS,
    ParetoFront,
    _max_cells,
    _partition,
    dominates,
    hv_improvement,
    hypervolume,
    pareto_front,
)
from helpers.hv_oracles import hypervolume_mc, inclusion_exclusion_hv


# ---------------------------------------------------------------------------
# independent oracles


def brute_force_front(points):
    """All-pairs maximal-element filter, first-seen order, exact-duplicate
    dedup — written independently of the library implementation."""
    pts = [p for p in points if np.all(np.isfinite(p)) and np.all(np.asarray(p) > 0)]
    keep = []
    for i, p in enumerate(pts):
        dominated = any(
            np.all(np.asarray(q) >= p) and np.any(np.asarray(q) > p)
            for j, q in enumerate(pts) if j != i
        )
        duplicate = any(np.array_equal(p, q) for q in keep)
        if not dominated and not duplicate:
            keep.append(np.asarray(p, dtype=float))
    return np.array(keep) if keep else np.empty((0, np.asarray(points).shape[1]))


def grid_hv_2d(points, resolution=2000):
    """Riemann-sum hypervolume against the zero reference (2D)."""
    pts = np.asarray(points, dtype=float)
    hi = pts.max(axis=0)
    xs = (np.arange(resolution) + 0.5) / resolution * hi[0]
    ys = (np.arange(resolution) + 0.5) / resolution * hi[1]
    cell = (hi[0] / resolution) * (hi[1] / resolution)
    covered = np.zeros((resolution, resolution), dtype=bool)
    for p in pts:
        covered |= (xs[:, None] <= p[0]) & (ys[None, :] <= p[1])
    return covered.sum() * cell


def simplex_front(rng, n, k):
    """n mutually non-dominated points: random directions scaled onto the
    positive part of the unit sphere."""
    pts = rng.uniform(0.05, 1.0, size=(n, k))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# dominates


class TestDominates:
    def test_strict(self):
        assert dominates(np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_incomparable_both_ways(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_self_not_dominating(self):
        a = np.array([0.5, 0.5])
        assert not dominates(a, a)

    def test_weak_domination_needs_one_strict(self):
        assert dominates(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        assert not dominates(np.array([0.5, 0.5]), np.array([0.5, 0.6]))

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    def test_antisymmetric(self, a, b):
        a, b = np.array(a), np.array(b)
        assert not (dominates(a, b) and dominates(b, a))


# ---------------------------------------------------------------------------
# pareto_front


class TestParetoFront:
    def test_single_point(self):
        f = pareto_front(np.array([[0.3, 0.7]]))
        assert np.array_equal(f.points, [[0.3, 0.7]])
        assert f.ids == (0,)

    def test_worked_four_point_instance(self):
        pts = np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5], [0.4, 0.4]])
        f = pareto_front(pts)
        assert f.ids == (0, 1, 2)

    def test_drops_points_not_dominating_zero_ref(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.0], [-0.1, 0.9]])
        f = pareto_front(pts)
        assert f.ids == (0,)

    def test_drops_non_finite(self):
        pts = np.array([[0.5, 0.5], [np.nan, 0.9], [np.inf, 0.9]])
        assert pareto_front(pts).ids == (0,)

    def test_duplicates_keep_earliest_id(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]])
        f = pareto_front(pts, ids=[7, 8, 9])
        assert f.ids == (7, 9)

    def test_empty_input(self):
        f = pareto_front(np.empty((0, 2)))
        assert len(f) == 0

    def test_matches_brute_force_on_100_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            k = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(1, 51))
            pts = rng.uniform(0.01, 1.0, size=(n, k))
            got = pareto_front(pts).points
            want = brute_force_front(pts)
            assert got.shape == want.shape, f"trial {trial}"
            assert np.allclose(np.sort(got, axis=0), np.sort(want, axis=0), atol=0)

    def test_front_points_mutually_nondominated(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.01, 1.0, size=(40, 3))
        f = pareto_front(pts)
        for i, p in enumerate(f.points):
            for j, q in enumerate(f.points):
                if i != j:
                    assert not dominates(q, p)


# ---------------------------------------------------------------------------
# hypervolume


class TestHypervolume:
    def test_single_point_rectangle(self):
        f = pareto_front(np.array([[0.5, 0.5]]))
        assert hypervolume(f) == pytest.approx(0.25)

    def test_worked_three_point_front(self):
        f = pareto_front(np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]))
        # sweep: 0.8*0.2 + 0.5*(0.5-0.2) + 0.2*(0.8-0.5)
        assert hypervolume(f) == pytest.approx(0.37, abs=1e-12)

    def test_empty_front_zero(self):
        assert hypervolume(pareto_front(np.empty((0, 2)))) == 0.0

    def test_two_point_front_inclusion_exclusion(self):
        pts = np.array([[0.8, 0.2], [0.2, 0.8]])
        f = pareto_front(pts)
        assert hypervolume(f) == pytest.approx(inclusion_exclusion_hv(pts), abs=1e-12)
        assert hypervolume(f) == pytest.approx(0.28, abs=1e-12)

    def test_point_on_reference_rejected(self):
        f = ParetoFront(points=np.array([[0.5, 0.0]]), ids=(0,))
        with pytest.raises(NumericalError):
            hypervolume(f)

    def test_2d_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 1.0, size=(12, 2))
        f = pareto_front(pts)
        assert hypervolume(f) == pytest.approx(grid_hv_2d(f.points), abs=2e-3)

    def test_3d_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 9)), 3))
            f = pareto_front(pts)
            assert hypervolume(f) == pytest.approx(
                inclusion_exclusion_hv(f.points), abs=1e-10
            )

    def test_4d_mc_brackets_inclusion_exclusion(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 1.0, size=(6, 4))
        f = pareto_front(pts)
        exact = inclusion_exclusion_hv(f.points)
        assert hypervolume(f) == pytest.approx(exact, rel=0, abs=1e-12)
        est, se = hypervolume_mc(f.points, np.zeros(4), n_samples=200_000, seed=0)
        assert abs(est - exact) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeded_fronts_match_inclusion_exclusion(self, k):
        rng = np.random.default_rng(10 + k)
        for i in range(25):
            n = int(rng.integers(1, 9))
            pts = simplex_front(rng, n, k) if i % 2 else rng.uniform(0.05, 1.0, size=(n, k))
            f = pareto_front(pts)
            assert hypervolume(f) == pytest.approx(inclusion_exclusion_hv(f.points), rel=0, abs=1e-12)

    def test_refuses_a_front_with_too_many_cells(self):
        # 20 points in 9 objectives may need 1.5M cells.
        f = pareto_front(simplex_front(np.random.default_rng(3), 20, 9))
        assert len(f) == 20 and _max_cells(20, 9) > MAX_CELLS
        with pytest.raises(NumericalError, match="cells"):
            hypervolume(f)
        with pytest.raises(NumericalError, match="cells"):
            hv_improvement(f, np.full(9, 0.5))
        # The same count of points in 4 objectives is well inside the limit.
        small = pareto_front(simplex_front(np.random.default_rng(3), 12, 4))
        assert hypervolume(small) == pytest.approx(inclusion_exclusion_hv(small.points), abs=1e-12)

    @given(st.integers(2, 5).flatmap(lambda k: st.lists(
        st.lists(st.integers(1, 4).map(lambda v: v / 4.0), min_size=k, max_size=k),
        min_size=0, max_size=9,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, k))))
    def test_partition_stays_within_its_cell_bound(self, pts):
        # Coarse values make ties and dominated points common; the bound
        # counts every input point, so unfiltered input is held to it too.
        n, k = pts.shape
        for p in (pts, pareto_front(pts).points.reshape(-1, k)):
            L, U, H = _partition(p)
            assert L.shape == U.shape == (k - 1, len(H))
            assert 1 <= len(H) <= _max_cells(len(p), k)
            assert np.all(L < U)

    def test_cell_bound_is_reached_at_three_objectives(self):
        # On a sphere every added point makes both columns beside it.
        for n in (1, 5, 30):
            f = pareto_front(simplex_front(np.random.default_rng(n), n, 3)).points
            assert len(_partition(f)[2]) == _max_cells(len(f), 3) == 2 * len(f) + 1

    def test_stage2_sized_four_objective_front(self):
        # 90 points, the history of a default 15-member stage 2: a few
        # hundred columns instead of the 91**3 cells of the full grid, and
        # the volume is within Monte-Carlo error and consistent with gains.
        f = pareto_front(simplex_front(np.random.default_rng(6), 90, 4))
        assert len(f) == 90
        assert len(_partition(f.points)[2]) <= 1000 < _max_cells(90, 4)
        hv = hypervolume(f)
        est, se = hypervolume_mc(f.points, n_samples=200_000, seed=1)
        assert abs(hv - est) <= 3.0 * se
        cand = np.full(4, 0.55)
        joined = pareto_front(np.vstack([f.points, cand[None]]))
        assert hv_improvement(f, cand) == pytest.approx(hypervolume(joined) - hv, rel=0, abs=1e-12)

    @given(st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
        min_size=1, max_size=10,
    ))
    def test_monotone_under_added_points(self, pts):
        pts = np.array(pts)
        base = hypervolume(pareto_front(pts[:-1])) if len(pts) > 1 else 0.0
        assert hypervolume(pareto_front(pts)) >= base - 1e-12

    @given(st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
        min_size=1, max_size=12,
    ))
    def test_dominated_points_contribute_nothing(self, pts):
        pts = np.array(pts)
        f = pareto_front(pts)
        hv_front = hypervolume(f)
        assert hv_front == pytest.approx(inclusion_exclusion_hv(pts), abs=1e-9)


# ---------------------------------------------------------------------------
# hv_improvement


class TestHvImprovement:
    def test_dominated_candidate_zero(self):
        f = pareto_front(np.array([[0.8, 0.8]]))
        assert hv_improvement(f, np.array([0.5, 0.5])) == 0.0

    def test_empty_front_equals_own_hv(self):
        f = pareto_front(np.empty((0, 2)))
        assert hv_improvement(f, np.array([0.5, 0.5])) == pytest.approx(0.25)

    def test_worked_two_point_instance(self):
        # HV{(0.8,0.2),(0.2,0.8)} = 0.28 by inclusion–exclusion;
        # HV with (0.5,0.5) added = 0.37; improvement = 0.09.
        f = pareto_front(np.array([[0.8, 0.2], [0.2, 0.8]]))
        got = hv_improvement(f, np.array([0.5, 0.5]))
        assert got == pytest.approx(0.09, abs=1e-12)

    def test_matches_hv_difference_2d(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 12)), 2))
            cand = rng.uniform(0.05, 1.0, size=2)
            f = pareto_front(pts)
            want = hypervolume(pareto_front(np.vstack([f.points, cand[None]]))) - hypervolume(f)
            got = hv_improvement(f, cand)
            assert got == pytest.approx(max(want, 0.0), abs=1e-10)

    def test_matches_hv_difference_3d(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            pts = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 8)), 3))
            cand = rng.uniform(0.05, 1.0, size=3)
            f = pareto_front(pts)
            want = hypervolume(pareto_front(np.vstack([f.points, cand[None]]))) - hypervolume(f)
            assert hv_improvement(f, cand) == pytest.approx(max(want, 0.0), abs=1e-10)

    def test_candidate_off_positive_orthant_is_zero(self):
        f = pareto_front(np.array([[0.5, 0.5]]))
        assert hv_improvement(f, np.array([-0.1, 0.9])) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeded_gains_match_inclusion_exclusion(self, k):
        rng = np.random.default_rng(20 + k)
        for _ in range(25):
            f = pareto_front(simplex_front(rng, int(rng.integers(1, 8)), k))
            cand = rng.uniform(0.05, 1.0, size=k)
            joined = pareto_front(np.vstack([f.points, cand[None]])).points
            want = inclusion_exclusion_hv(joined) - inclusion_exclusion_hv(f.points)
            assert hv_improvement(f, cand) == pytest.approx(max(want, 0.0), rel=0, abs=1e-12)

    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), min_size=1, max_size=7),
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
    )))
    def test_gain_and_volume_match_inclusion_exclusion(self, case):
        pts, cand = np.array(case[0]), np.array(case[1])
        f = pareto_front(pts)
        base = inclusion_exclusion_hv(f.points)
        assert hypervolume(f) == pytest.approx(base, rel=0, abs=1e-12)
        joined = pareto_front(np.vstack([f.points, cand[None]])).points
        want = max(inclusion_exclusion_hv(joined) - base, 0.0)
        assert hv_improvement(f, cand) == pytest.approx(want, rel=0, abs=1e-12)

    def test_dominated_candidate_gains_exactly_zero_in_4d(self):
        f = pareto_front(simplex_front(np.random.default_rng(4), 6, 4))
        for p in f.points:
            assert hv_improvement(f, 0.9 * p) == 0.0
            assert hv_improvement(f, p) == 0.0
