import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import ndtr

from bofusion.acquisition import (
    AcqConfig,
    LOG_EI_FLOOR,
    NehviAcquisition,
    SimplexDomain,
    _project_simplex,
    log_ei,
    nehvi_mc,
    optimize_acq,
)
from bofusion.core import BoundedParamSpace, ParamDim
from bofusion.errors import NumericalError
from bofusion.gp import KernelParams, build_gp, fit_gp, matern52
from bofusion.pareto import hv_improvement, pareto_front


# ---------------------------------------------------------------------------
# oracles


def logh_oracle(z, dps=200):
    """log(phi(z) + z*Phi(z)) in arbitrary-precision arithmetic."""
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        h = mpmath.npdf(zz) + zz * mpmath.ncdf(zz)
        return float(mpmath.log(h))


def mc_ei(mu, sigma, best, n, seed):
    """Monte-Carlo E[max(0, X - best)] with X ~ N(mu, sigma^2)."""
    rng = np.random.default_rng(seed)
    gains = np.maximum(rng.normal(mu, sigma, size=n) - best, 0.0)
    return float(gains.mean()), float(gains.std(ddof=1) / math.sqrt(n))


def closed_form_ei(mu, sigma, best):
    if sigma == 0.0:
        return max(mu - best, 0.0)
    z = (mu - best) / sigma
    return sigma * (math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) + z * ndtr(z))


def ei_moments(mu, sigma, best):
    """Mean and per-sample variance of max(0, X-best): the exact MC-noise
    scale for standard-error bounds."""
    z = (mu - best) / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    first = sigma * (phi + z * ndtr(z))
    second = sigma * sigma * ((1 + z * z) * ndtr(z) + z * phi)
    return first, max(second - first * first, 0.0)


# ---------------------------------------------------------------------------
# log_ei


class TestLogEi:
    def test_branchless_agreement_with_high_precision_oracle(self):
        for z in (-50.0, -35.0001, -35.0, -30.0, -20.0, -10.0, -5.0, -2.0,
                  -1.0001, -1.0, -0.5, 0.0, 1.0, 5.0, 20.0):
            got = log_ei(z, 1.0, 0.0)  # mu=z, sigma=1, best=0 -> log h(z)
            want = logh_oracle(z)
            assert got == pytest.approx(want, rel=1e-6), f"z={z}"

    def test_unit_example_value(self):
        # mu - best = 1, sigma = 1: EI = phi(1) + Phi(1)
        want = math.log(
            math.exp(-0.5) / math.sqrt(2 * math.pi) + ndtr(1.0)
        )
        assert log_ei(1.0, 1.0, 0.0) == pytest.approx(want, rel=1e-12)
        assert math.exp(log_ei(1.0, 1.0, 0.0)) == pytest.approx(1.0833154705876864, rel=1e-9)

    def test_z_minus_30_finite_and_accurate(self):
        got = log_ei(0.0, 1.0, 30.0)
        assert math.isfinite(got)
        assert got == pytest.approx(logh_oracle(-30.0), rel=1e-3)

    def test_deep_tail_where_naive_form_underflows(self):
        z = -45.0
        naive = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) + z * ndtr(z)
        assert naive == 0.0  # double precision gives up entirely
        got = log_ei(z, 1.0, 0.0)
        assert math.isfinite(got)
        assert got == pytest.approx(logh_oracle(z), rel=1e-6)

    def test_sigma_zero_no_improvement_sentinel(self):
        assert log_ei(0.5, 0.0, 0.5) == LOG_EI_FLOOR
        assert log_ei(0.2, 0.0, 0.5) == LOG_EI_FLOOR

    def test_sigma_zero_positive_gap(self):
        assert log_ei(1.5, 0.0, 0.5) == pytest.approx(math.log(1.0))
        assert log_ei(2.5, 0.0, 0.5) == pytest.approx(math.log(2.0))

    def test_scaling_in_sigma(self):
        # EI(mu, s, best) = s * h(z); doubling sigma at z fixed adds log 2
        a = log_ei(0.0, 1.0, 1.0)
        b = log_ei(0.0, 2.0, 2.0)
        assert b - a == pytest.approx(math.log(2.0), abs=1e-10)

    def test_matches_mc_oracle(self):
        triples = [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.5),
                   (0.3, 0.2, 0.5), (-1.0, 2.0, 0.5)]
        for i, (mu, sigma, best) in enumerate(triples):
            est, se = mc_ei(mu, sigma, best, 1_000_000, seed=i)
            assert abs(math.exp(log_ei(mu, sigma, best)) - est) <= 3 * se

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_ei(float("nan"), 1.0, 0.0)
        with pytest.raises(ValueError):
            log_ei(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            log_ei(0.0, 1.0, float("inf"))

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.01, 5.0), st.floats(-2.0, 2.0))
    def test_monotone_in_mu(self, mu1, mu2, sigma, best):
        lo, hi = min(mu1, mu2), max(mu1, mu2)
        assert log_ei(lo, sigma, best) <= log_ei(hi, sigma, best) + 1e-12

    @given(st.floats(-2.0, 2.0), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    def test_monotone_in_sigma_below_best(self, gap, s1, s2):
        # mu <= best: more uncertainty means more expected improvement
        best = 0.0
        mu = -abs(gap)
        lo, hi = min(s1, s2), max(s1, s2)
        assert log_ei(mu, lo, best) <= log_ei(mu, hi, best) + 1e-12

    @given(st.floats(-8.0, 8.0), st.floats(1e-3, 10.0), st.floats(-5.0, 5.0))
    def test_stability_region_identity(self, mu, sigma, best):
        direct = closed_form_ei(mu, sigma, best)
        if direct >= 1e-8:
            assert math.exp(log_ei(mu, sigma, best)) == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# acquisition maximization


def box_space():
    return BoundedParamSpace((ParamDim("a", -1.0, 2.0), ParamDim("b", 0.0, 1.0)))


def sequential_optimize_acq(acq, domain, cfg):
    """The coordinate search one candidate at a time: `acq` takes one point
    and returns a float. optimize_acq must take the same path whenever
    each row's value does not depend on the rest of its block."""
    rng = np.random.default_rng(cfg.seed)
    is_box = isinstance(domain, BoundedParamSpace)
    if is_box:
        d = domain.dim
        raw = domain.sample(rng, cfg.n_raw_candidates)
        units = np.stack([domain.to_unit(x) for x in raw])
        to_point = lambda u: domain.from_unit(u)
        project = lambda u: np.clip(u, 0.0, 1.0)
    else:
        d = domain.n
        units = rng.dirichlet(np.ones(d), size=cfg.n_raw_candidates)
        to_point = lambda u: u
        project = _project_simplex

    seen = {}

    def safe_eval(u):
        key = u.tobytes()
        v = seen.get(key)
        if v is None:
            v = float(acq(to_point(u)))
            v = seen[key] = v if math.isfinite(v) else -math.inf
        return v

    vals = np.array([safe_eval(u) for u in units])
    if not np.any(vals > -math.inf):
        raise NumericalError("acquisition returned non-finite values for every candidate")
    top = np.argsort(-vals, kind="stable")[: cfg.n_restarts]
    best_u, best_v = None, -math.inf
    for idx in top:
        u = units[idx].copy()
        v = vals[idx]
        if v == -math.inf:
            continue
        step = 0.25
        while step >= 1e-4:
            for _ in range(cfg.local_steps):
                improved = False
                for i in range(d):
                    for sgn in (1.0, -1.0):
                        trial = u.copy()
                        trial[i] += sgn * step
                        trial = project(trial)
                        if trial is None:
                            continue
                        tv = safe_eval(trial)
                        if tv > v:
                            u, v, improved = trial, tv, True
                if not improved:
                    break
            step *= 0.5
        if v > best_v:
            best_u, best_v = u, v
    if is_box:
        return to_point(best_u), set(seen)
    return best_u / best_u.sum(), set(seen)


def rowwise(f):
    """A block acquisition that scores each row with the scalar f."""
    return lambda X: np.array([f(x) for x in X])


class RowByRow:
    """A block acquisition that scores each row with the scalar f, records
    every block, and declares that a block costs the sum of its rows."""

    vectorized = False

    def __init__(self, f):
        self.f = f
        self.blocks = []

    def __call__(self, X):
        self.blocks.append([x.tobytes() for x in X])
        return np.array([self.f(x) for x in X])


def seeded_function(seed, d):
    """A bumpy scalar function of a d-vector with plateaus (rounded values),
    so ties between trials and between restarts occur, and a region where it
    is NaN."""
    rng = np.random.default_rng(seed)
    w, c, phase = rng.normal(size=d), rng.uniform(size=d), rng.uniform(0, 6, size=d)

    def f(x):
        if x[0] > 0.9:
            return float("nan")
        v = float(np.sum(np.sin(3.0 * w * x + phase)) - 4.0 * np.sum((x - c) ** 2))
        return round(v, 3) if seed % 2 else v

    return f


class TestOptimizeAcq:
    def test_concave_box_optimum(self):
        c = np.array([0.4, 0.6])
        x = optimize_acq(lambda X: -np.sum((X - c) ** 2, axis=1), box_space(),
                         AcqConfig(seed=0))
        assert np.all(np.abs(x - c) < 1e-3)

    def test_simplex_vertex_optimum(self):
        x = optimize_acq(lambda D: D[:, 1], SimplexDomain(3), AcqConfig(seed=0))
        assert np.all(np.abs(x - np.array([0.0, 1.0, 0.0])) < 1e-3)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simplex_interior_matches_grid_oracle(self):
        target = 0.3

        def acq(D):
            return -(D[:, 0] - target) ** 2

        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        oracle = grid[np.argmax(-(grid - target) ** 2)]
        x = optimize_acq(acq, SimplexDomain(2), AcqConfig(seed=1))
        assert abs(x[0] - oracle) < 1e-3
        assert x[1] == pytest.approx(1.0 - x[0], abs=1e-12)

    def test_seeded_determinism(self):
        acq = lambda D: np.sin(5 * D[:, 0]) + D[:, 1]
        a = optimize_acq(acq, SimplexDomain(3), AcqConfig(seed=7))
        b = optimize_acq(acq, SimplexDomain(3), AcqConfig(seed=7))
        assert np.array_equal(a, b)

    def test_all_non_finite_raises(self):
        with pytest.raises(NumericalError):
            optimize_acq(lambda X: np.full(len(X), np.nan), box_space(), AcqConfig(seed=0))

    def test_partial_non_finite_survives(self):
        def acq(D):
            return np.where(D[:, 0] > 0.5, np.nan, D[:, 1])

        x = optimize_acq(acq, SimplexDomain(3), AcqConfig(seed=2))
        assert x[0] <= 0.5 + 1e-9

    def test_one_value_per_row_required(self):
        with pytest.raises(ValueError):
            optimize_acq(lambda D: D[:, 0][:-1], SimplexDomain(3), AcqConfig(seed=0))

    def test_scores_each_distinct_candidate_once(self):
        """acq must score each row as a pure function of that row:
        optimize_acq scores each distinct candidate once and reuses that
        score when the coordinate search comes back to the point."""
        c = np.array([0.4, 0.6])
        cases = [
            (SimplexDomain(3), lambda D: -((D[:, 0] - 0.3) ** 2 + (D[:, 1] - 0.5) ** 2)),
            (box_space(), lambda X: -np.sum((X - c) ** 2, axis=1)),
        ]
        for domain, acq in cases:
            args = []

            def counting(X):
                args.extend(np.asarray(x, dtype=float).tobytes() for x in X)
                return acq(X)

            got = optimize_acq(counting, domain, AcqConfig(seed=0))
            assert len(args) == len(set(args))
            assert np.array_equal(got, optimize_acq(acq, domain, AcqConfig(seed=0)))

    def test_box_result_in_box(self):
        space = BoundedParamSpace((ParamDim("lr", 1e-4, 1.0, scale="log"),))
        x = optimize_acq(lambda X: -np.abs(np.log(X[:, 0]) + 4.0), space, AcqConfig(seed=3))
        assert space.contains(x)


class TestWalkMatchesSequentialReference:
    """Block scoring changes what a search costs, not where it goes: on
    functions whose rows are scored independently, the lockstep walk ends
    at exactly the reference's point and scores every candidate the
    reference scored (plus the trials it speculated on)."""

    @pytest.mark.parametrize("n", [2, 3, 5, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_simplex(self, n, seed):
        f = seeded_function(seed, n)
        cfg = AcqConfig(seed=seed, n_raw_candidates=64 if n == 15 else 128)
        scored = []
        acq = rowwise(f)

        def recording(D):
            scored.extend(d.tobytes() for d in D)
            return acq(D)

        got = optimize_acq(recording, SimplexDomain(n), cfg)
        want, want_scored = sequential_optimize_acq(f, SimplexDomain(n), cfg)
        assert np.array_equal(got, want)
        assert want_scored <= set(scored)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_box(self, seed):
        space = BoundedParamSpace((
            ParamDim("a", -1.0, 2.0),
            ParamDim("lr", 1e-4, 1.0, scale="log"),
            ParamDim("k", 1, 9, integer=True),
        ))
        g = seeded_function(seed, 3)
        f = lambda x: g(space.to_unit(x))
        cfg = AcqConfig(seed=seed)
        got = optimize_acq(rowwise(f), space, cfg)
        want, _ = sequential_optimize_acq(f, space, cfg)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 5, 15])
    def test_row_by_row_acquisition_scores_only_the_reference_candidates(self, n):
        """Without vectorized scoring each walk sends one trial per round,
        so the search scores exactly the reference's candidates, at most
        one per restart in each round after the raw set."""
        f = seeded_function(n, n)
        cfg = AcqConfig(seed=n, n_raw_candidates=64 if n == 15 else 128)
        acq = RowByRow(f)
        got = optimize_acq(acq, SimplexDomain(n), cfg)
        want, want_scored = sequential_optimize_acq(f, SimplexDomain(n), cfg)
        assert np.array_equal(got, want)
        rows = [key for block in acq.blocks for key in block]
        assert len(rows) == len(want_scored) and set(rows) == want_scored
        assert len(acq.blocks[0]) == cfg.n_raw_candidates
        assert max(len(block) for block in acq.blocks[1:]) <= cfg.n_restarts


# ---------------------------------------------------------------------------
# NEHVI


class DetModel:
    """Deterministic posterior: mean given by fn, covariance identically 0."""

    def __init__(self, fn):
        self.fn = fn

    def posterior_joint(self, Xq):
        Xq = np.atleast_2d(Xq)
        mu = np.array([self.fn(x) for x in Xq])
        return mu, np.zeros((len(Xq), len(Xq)))


def _simplex_history(rng, n, k=3):
    return rng.dirichlet(np.ones(k), size=n)


class TestNehvi:
    def test_deterministic_posterior_equals_exact_hvi(self):
        rng = np.random.default_rng(0)
        X = _simplex_history(rng, 8)
        f1 = lambda d: 0.2 + 0.6 * d[0]
        f2 = lambda d: 0.2 + 0.6 * d[1]
        models = [DetModel(f1), DetModel(f2)]
        Y = np.array([[f1(x), f2(x)] for x in X])
        front = pareto_front(Y)
        cfg = AcqConfig(n_mc=16, seed=0)
        for cand in (np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.8, 0.1]),
                     np.array([1 / 3, 1 / 3, 1 / 3])):
            want = hv_improvement(front, np.array([f1(cand), f2(cand)]))
            got = nehvi_mc(models, cand, X, cfg=cfg)
            assert got == pytest.approx(want, abs=1e-9)

    def test_deterministic_three_objectives(self):
        rng = np.random.default_rng(1)
        X = _simplex_history(rng, 6)
        fns = [
            lambda d: 0.3 + 0.5 * d[0],
            lambda d: 0.3 + 0.5 * d[1],
            lambda d: 0.3 + 0.5 * d[2],
        ]
        models = [DetModel(f) for f in fns]
        Y = np.array([[f(x) for f in fns] for x in X])
        front = pareto_front(Y)
        cand = np.array([0.5, 0.25, 0.25])
        want = hv_improvement(front, np.array([f(cand) for f in fns]))
        got = nehvi_mc(models, cand, X, cfg=AcqConfig(n_mc=8, seed=0))
        assert got == pytest.approx(want, abs=1e-9)

    def test_duplicate_candidate_adds_nothing(self):
        rng = np.random.default_rng(2)
        X = _simplex_history(rng, 6)
        f1 = lambda d: 0.2 + 0.7 * d[0]
        f2 = lambda d: 0.2 + 0.7 * d[1]
        models = [DetModel(f1), DetModel(f2)]
        got = nehvi_mc(models, X[0], X, cfg=AcqConfig(n_mc=16, seed=0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_candidate_with_real_gp_within_mc_noise(self):
        rng = np.random.default_rng(3)
        X = _simplex_history(rng, 10)
        Y = np.column_stack([0.3 + 0.5 * X[:, 0], 0.3 + 0.5 * X[:, 1]])
        params = KernelParams(np.full(3, 1.0), 1.0, 1e-8)
        models = [build_gp(X, Y[:, k], params) for k in range(2)]
        n_mc = 256
        got = nehvi_mc(models, X[4], X, cfg=AcqConfig(n_mc=n_mc, seed=1))
        assert got <= 3.0 / math.sqrt(n_mc)

    def test_observed_covariance_jitter_is_reported(self):
        rng = np.random.default_rng(5)
        X = _simplex_history(rng, 6)
        Y = rng.uniform(size=(6, 2))
        params = KernelParams(np.full(3, 0.5), 1.0, 1e-4)
        models = [build_gp(X, Y[:, k], params) for k in range(2)]
        assert NehviAcquisition(models, X, AcqConfig(n_mc=8)).obs_jitter == (0.0, 0.0)
        # A repeated observed point makes each joint posterior covariance
        # singular, so its factor needs jitter.
        repeated = NehviAcquisition(models, np.vstack([X, X[:2]]), AcqConfig(n_mc=8))
        assert all(j > 0.0 for j in repeated.obs_jitter)

    def test_k1_noise_free_reduces_to_ei(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(9, 1))
        y = 0.4 + 0.3 * np.sin(4.0 * X[:, 0])
        model = build_gp(X, y, KernelParams(np.array([0.4]), 1.0, 0.0))
        best = float(y.max())
        n_mc = 20_000
        for xq in (np.array([0.55]), np.array([0.05])):
            mu, sigma = model.predict(xq)
            want = closed_form_ei(mu, sigma, best)
            _, var = ei_moments(mu, sigma, best)
            se = math.sqrt(var / n_mc)
            got = nehvi_mc([model], xq, X, cfg=AcqConfig(n_mc=n_mc, seed=2))
            assert abs(got - want) <= 3 * se + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X = _simplex_history(rng, 12)
        Y = np.column_stack([0.2 + 0.6 * X[:, 0], 0.2 + 0.6 * X[:, 1]])
        params = KernelParams(np.full(3, 0.8), 1.0, 1e-6)
        cand = np.array([0.5, 0.3, 0.2])
        perm = rng.permutation(12)
        a = nehvi_mc(
            [build_gp(X, Y[:, k], params) for k in range(2)],
            cand, X, cfg=AcqConfig(n_mc=64, seed=3),
        )
        b = nehvi_mc(
            [build_gp(X[perm], Y[perm][:, k], params) for k in range(2)],
            cand, X[perm], cfg=AcqConfig(n_mc=64, seed=3),
        )
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_common_random_numbers_make_it_deterministic(self):
        rng = np.random.default_rng(6)
        X = _simplex_history(rng, 8)
        Y = np.column_stack([0.2 + 0.6 * X[:, 0], 0.2 + 0.6 * X[:, 1]])
        params = KernelParams(np.full(3, 0.8), 1.0, 1e-6)
        models = [build_gp(X, Y[:, k], params) for k in range(2)]
        acq = NehviAcquisition(models, X, AcqConfig(n_mc=32, seed=9))
        cand = np.array([0.4, 0.4, 0.2])
        assert acq(cand) == acq(cand)
        acq2 = NehviAcquisition(models, X, AcqConfig(n_mc=32, seed=9))
        assert acq(cand) == acq2(cand)

    def test_nonzero_reference_rejected(self):
        rng = np.random.default_rng(7)
        X = _simplex_history(rng, 4)
        models = [DetModel(lambda d: 0.5), DetModel(lambda d: 0.5)]
        with pytest.raises(ValueError):
            NehviAcquisition(models, X, AcqConfig(), ref=np.array([0.1, 0.0]))

    def test_fast_and_slow_paths_have_common_random_numbers(self):
        # a real GP and a deterministic fake with matching means should give
        # comparable structure; here we just pin that the GP's own fast path
        # equals the generic path driven through posterior_joint
        rng = np.random.default_rng(8)
        X = _simplex_history(rng, 7)
        y = 0.3 + 0.5 * X[:, 0]
        model = build_gp(X, y, KernelParams(np.full(3, 0.9), 1.0, 1e-6))

        cand = np.array([0.5, 0.25, 0.25])
        cfg = AcqConfig(n_mc=64, seed=4)
        fast = nehvi_mc([model, model], cand, X, cfg=cfg)
        slow = nehvi_mc([SlowWrapper(model), SlowWrapper(model)], cand, X, cfg=cfg)
        assert fast == pytest.approx(slow, rel=1e-8, abs=1e-12)


class SlowWrapper:
    """Hides a GP behind posterior_joint, so NEHVI takes its generic path."""

    def __init__(self, inner):
        self.inner = inner

    def posterior_joint(self, Xq):
        return self.inner.posterior_joint(Xq)


class FromScratchNehvi(NehviAcquisition):
    """Per-candidate NEHVI oracle. Each candidate is conditioned from
    scratch (matern52 kernel rows, solve_triangular and cho_solve on every
    call) and its value is the mean over scenarios of hv_improvement against
    the scenario's front; only the scenario draws are shared with
    NehviAcquisition."""

    def moments(self, cand):
        """Per objective: the conditional means over the scenarios (n_mc,)
        and the conditional variance, before its square root."""
        out = []
        c = cand[None, :]
        for k, model in enumerate(self.models):
            p = model.params
            obs_mu, _ = model.posterior_joint(self.X)
            v_obs = solve_triangular(model.chol, matern52(model.X, self.X, p), lower=True)
            ks_c = matern52(model.X, c, p)
            v_c = solve_triangular(model.chol, ks_c, lower=True)[:, 0]
            mu_c = model.y_mean + model.y_scale * float(ks_c[:, 0] @ model.alpha)
            scale2 = model.y_scale * model.y_scale
            cross = matern52(self.X, c, p)[:, 0] - v_obs.T @ v_c
            sig_oc = scale2 * cross
            sig_cc = scale2 * max(p.signal_var - float(v_c @ v_c), 0.0)
            w = cho_solve((np.ascontiguousarray(self._obs_chol[k]), True), sig_oc)
            cond_var = max(sig_cc - float(sig_oc @ w), 0.0)
            resid = self._samples[:, :, k] - obs_mu[:, None]
            out.append((mu_c + w @ resid, cond_var))
        return out

    def draws(self, cand):
        return np.stack(
            [mean + math.sqrt(var) * z for (mean, var), z in zip(self.moments(cand), self._cand_z)],
            axis=1,
        )

    def value(self, cand):
        C = self.draws(cand)
        fronts = [pareto_front(self._samples[:, j, :]) for j in range(self.cfg.n_mc)]
        return float(np.mean([hv_improvement(f, c) for f, c in zip(fronts, C)]))


def _fitted_state(n_obj, d=4, seed=None):
    rng = np.random.default_rng(40 + n_obj if seed is None else seed)
    X = np.vstack([np.eye(d), np.full(d, 1.0 / d), _simplex_history(rng, 9, k=d)])
    W = rng.standard_normal((d, n_obj))
    Y = np.sin(2.0 * X @ W) + 0.05 * rng.standard_normal((len(X), n_obj))
    models = [fit_gp(X, Y[:, k], seed=k, restarts=3) for k in range(n_obj)]
    cands = np.vstack([X[:4], _simplex_history(rng, 196, k=d)])
    return models, X, cands


class TestNehviMatchesFromScratchFormula:
    """Block scoring gives the per-candidate oracle's draws and values, on
    fitted GPs, through the GP path and the generic posterior_joint path."""

    @staticmethod
    def _assert_matches_oracle(n_obj, n_mc, wrap):
        models, X, cands = _fitted_state(n_obj)
        cfg = AcqConfig(n_mc=n_mc, seed=11)
        acq = NehviAcquisition([wrap(m) for m in models], X, cfg)
        oracle = FromScratchNehvi(models, X, cfg)
        assert not any(acq._obs_zero)
        conditionals = [acq._conditional(k, cands) for k in range(n_obj)]
        draws = acq._candidate_samples(cands)
        vals = acq(cands)
        assert vals.shape == (len(cands),)
        for i, cand in enumerate(cands):
            for (mean, var), (want_mean, want_var) in zip(conditionals, oracle.moments(cand)):
                np.testing.assert_allclose(mean[i], want_mean, rtol=0, atol=1e-12)
                assert var[i] == pytest.approx(want_var, rel=0, abs=1e-12)
            # The first rows are observed points, where the conditional
            # variance is 0 up to rounding (~1e-17); its square root turns
            # that rounding into ~1e-8 in the draws and the values they feed.
            tol = 2e-7 if i < 4 else 1e-12
            np.testing.assert_allclose(draws[i], oracle.draws(cand), rtol=0, atol=tol)
            assert vals[i] == pytest.approx(oracle.value(cand), rel=0, abs=tol)

    @pytest.mark.parametrize("n_obj, n_mc", [(1, 64), (2, 64), (3, 8)])
    def test_values_equal_on_fitted_gps(self, n_obj, n_mc):
        self._assert_matches_oracle(n_obj, n_mc, lambda m: m)

    @pytest.mark.parametrize("n_obj, n_mc", [(1, 64), (2, 64), (3, 8)])
    def test_generic_path_values_equal_on_fitted_gps(self, n_obj, n_mc):
        self._assert_matches_oracle(n_obj, n_mc, SlowWrapper)

    @pytest.mark.parametrize("n_obj", [1, 2, 3])
    def test_single_candidate_is_the_one_row_block(self, n_obj):
        models, X, cands = _fitted_state(n_obj)
        acq = NehviAcquisition(models, X, AcqConfig(n_mc=16, seed=3))
        for cand in cands[:10]:
            got = acq(cand)
            assert isinstance(got, float)
            assert got == acq(cand[None, :])[0]

    def test_large_block_is_its_chunks(self):
        models, X, cands = _fitted_state(2)
        acq = NehviAcquisition(models, X, AcqConfig(n_mc=64, seed=5))
        block = cands[:70]
        chunks = np.concatenate([acq(block[:32]), acq(block[32:64]), acq(block[64:])])
        assert np.array_equal(acq(block), chunks)

    def test_dimension_mismatch_rejected(self):
        models, X, cands = _fitted_state(2)
        acq = NehviAcquisition(models, X, AcqConfig(n_mc=8))
        for bad in (cands[:3, :3], cands[0, :3], cands[:2][None]):
            with pytest.raises(ValueError):
                acq(bad)


class TestNehviSearchCost:
    @pytest.mark.parametrize("n_obj, wrap, want", [
        (1, None, True), (2, None, True), (3, None, False), (2, SlowWrapper, False),
    ])
    def test_vectorized_only_when_a_block_is_one_step(self, n_obj, wrap, want):
        models, X, _ = _fitted_state(n_obj)
        models = [wrap(m) for m in models] if wrap else models
        assert NehviAcquisition(models, X, AcqConfig(n_mc=8)).vectorized is want

    def test_block_calls_on_a_seeded_state(self):
        """Pins the cost of one stage-2-sized search: one block for the raw
        set, then one per lockstep round, each distinct candidate once."""
        models, X, _ = _fitted_state(2, d=5, seed=7)
        cfg = AcqConfig(n_mc=64, seed=13)
        acq = NehviAcquisition(models, X, cfg)
        blocks = []

        def counting(D):
            blocks.append([d.tobytes() for d in D])
            return acq(D)

        optimize_acq(counting, SimplexDomain(5), cfg)
        rows = [key for block in blocks for key in block]
        assert len(blocks[0]) == cfg.n_raw_candidates
        assert len(rows) == len(set(rows))
        assert (len(blocks), len(rows)) == (71, 1263)
