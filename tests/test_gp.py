import math

import numpy as np
import pytest

from bofusion import gp
from bofusion.gp import (
    KernelParams,
    LENGTHSCALE_BOUNDS,
    NOISE_VAR_BOUNDS,
    SIGNAL_VAR_BOUNDS,
    _neg_log_posterior,
    _standardize,
    build_gp,
    fit_gp,
    log_marginal_likelihood,
    log_prior,
    matern52,
)


# ---------------------------------------------------------------------------
# independent oracles


def dense_predict(X, y, params, Xq):
    """Direct-inversion GP posterior (standardized internally like the
    library, but via np.linalg.inv — no Cholesky)."""
    y = np.asarray(y, dtype=float)
    mean, scale = y.mean(), y.std()
    if scale < 1e-12:
        scale = 1.0
    ys = (y - mean) / scale
    K = matern52(X, X, params) + params.noise_var * np.eye(len(X))
    Kinv = np.linalg.inv(K)
    ks = matern52(Xq, X, params)
    mu = ks @ Kinv @ ys
    var = (
        params.signal_var + params.noise_var
        - np.einsum("ij,jk,ik->i", ks, Kinv, ks)
    )
    return mean + scale * mu, scale * np.sqrt(np.maximum(var, 0.0))


def dense_lml(X, y, params):
    y = np.asarray(y, dtype=float)
    mean, scale = y.mean(), y.std()
    if scale < 1e-12:
        scale = 1.0
    ys = (y - mean) / scale
    K = matern52(X, X, params) + params.noise_var * np.eye(len(X))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        -0.5 * ys @ np.linalg.solve(K, ys) - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi)
    )


def log_posterior(X, y, params):
    return log_marginal_likelihood(build_gp(X, y, params)) + log_prior(params)


def random_dataset(rng, n, d):
    X = rng.uniform(size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * X.sum(axis=1) + 0.1 * rng.standard_normal(n)
    return X, y


def random_params(rng, d):
    return KernelParams(
        lengthscales=rng.uniform(0.2, 2.0, size=d),
        signal_var=float(rng.uniform(0.5, 3.0)),
        noise_var=float(rng.uniform(1e-6, 1e-2)),
    )


# ---------------------------------------------------------------------------
# kernel


class TestKernel:
    def test_stationary_diagonal(self):
        p = KernelParams(np.array([0.5, 0.5]), 2.0, 0.0)
        X = np.random.default_rng(0).uniform(size=(6, 2))
        K = matern52(X, X, p)
        assert np.allclose(np.diag(K), 2.0)

    def test_symmetry(self):
        p = KernelParams(np.array([0.3]), 1.0, 0.0)
        X = np.random.default_rng(1).uniform(size=(8, 1))
        K = matern52(X, X, p)
        assert np.allclose(K, K.T)

    def test_decay_with_distance(self):
        p = KernelParams(np.array([0.5]), 1.0, 0.0)
        near = matern52(np.array([[0.0]]), np.array([[0.1]]), p)[0, 0]
        far = matern52(np.array([[0.0]]), np.array([[2.0]]), p)[0, 0]
        assert near > far > 0

    def test_ard_lengthscales_are_per_dimension(self):
        p = KernelParams(np.array([0.1, 10.0]), 1.0, 0.0)
        move_fast_dim = matern52(np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]]), p)[0, 0]
        move_slow_dim = matern52(np.array([[0.0, 0.0]]), np.array([[0.0, 0.5]]), p)[0, 0]
        assert move_fast_dim < move_slow_dim

    def test_closed_form_value(self):
        # k(r) = s^2 (1 + sqrt5 r + 5r^2/3) exp(-sqrt5 r) with r = |dx|/l
        p = KernelParams(np.array([0.5]), 1.5, 0.0)
        r = 0.7 / 0.5
        want = 1.5 * (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
        got = matern52(np.array([[0.0]]), np.array([[0.7]]), p)[0, 0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_psd_after_jitter(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(20, 2))
        model = build_gp(X, rng.standard_normal(20), random_params(rng, 2))
        assert np.all(np.diag(model.chol) > 0)


# ---------------------------------------------------------------------------
# posterior predictions


class TestPredict:
    def test_single_point_model_noise_free(self):
        X = np.array([[0.4]])
        y = np.array([2.0])
        model = build_gp(X, y, KernelParams(np.array([0.5]), 1.0, 0.0))
        mu, sigma = model.predict(np.array([0.4]))
        assert mu == pytest.approx(2.0, abs=1e-6)
        assert sigma <= 1e-4

    def test_single_point_model_noisy_closed_form(self):
        # predictive var at the observed input:
        # latent sf^2*sn^2/(sf^2+sn^2) plus observation noise sn^2
        sf2, sn2 = 1.0, 0.01
        model = build_gp(np.array([[0.4]]), np.array([2.0]),
                         KernelParams(np.array([0.5]), sf2, sn2))
        mu, sigma = model.predict(np.array([0.4]))
        assert mu == pytest.approx(2.0, abs=1e-9)
        want = math.sqrt(sf2 * sn2 / (sf2 + sn2) + sn2)
        assert sigma == pytest.approx(want, rel=1e-9)

    def test_constant_targets(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = np.full(6, 3.7)
        model = build_gp(X, y, KernelParams(np.array([0.5]), 1.0, 1e-6))
        for xq in (0.05, 0.51, 0.99):
            mu, _ = model.predict(np.array([xq]))
            assert mu == pytest.approx(3.7, abs=1e-6)

    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(8, 1))
        y = np.sin(6.0 * X[:, 0])
        model = build_gp(X, y, KernelParams(np.array([0.4]), 1.0, 0.0))
        for i in range(8):
            mu, sigma = model.predict(X[i])
            assert mu == pytest.approx(y[i], abs=1e-6)
            assert sigma <= 1e-4

    def test_sine_reconstruction_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        X = np.linspace(0, 1, 8)[:, None]
        y = np.sin(6.0 * X[:, 0])
        model = fit_gp(X, y, seed=0, restarts=4)
        grid = np.linspace(0, 1, 100)[:, None]
        mu = model.predict_batch(grid)[0]
        assert np.max(np.abs(mu - np.sin(6.0 * grid[:, 0]))) < 0.05

    def test_prior_reversion_far_from_data(self):
        p = KernelParams(np.array([0.1]), 2.0, 0.5)
        X = np.array([[0.0]])
        y = np.array([5.0])
        model = build_gp(X, y, p)
        mu, sigma = model.predict(np.array([50.0]))
        assert mu == pytest.approx(model.y_mean, rel=0.01)
        # prediction std reverts to sqrt(signal + noise) on the standardized
        # scale; y_scale de-standardizes it
        want = model.y_scale * math.sqrt(2.5) if model.y_scale > 0 else math.sqrt(2.5)
        assert sigma == pytest.approx(want, rel=0.01)

    def test_two_point_hand_solved_system(self):
        p = KernelParams(np.array([1.0]), 1.0, 0.1)
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = build_gp(X, y, p)
        xq = np.array([0.5])
        # direct 2x2 solve on the standardized problem
        mu_want, sigma_want = dense_predict(X, y, p, xq[None])
        mu, sigma = model.predict(xq)
        assert mu == pytest.approx(float(mu_want[0]), abs=1e-8)
        assert sigma == pytest.approx(float(sigma_want[0]), abs=1e-8)

    def test_matches_dense_oracle_randomized(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            d = 1 if trial % 2 == 0 else 3
            X, y = random_dataset(rng, int(rng.integers(4, 30)), d)
            params = random_params(rng, d)
            model = build_gp(X, y, params)
            Xq = rng.uniform(size=(10, d))
            mu_want, sigma_want = dense_predict(X, y, params, Xq)
            mu_got, sigma_got = model.predict_batch(Xq)
            assert np.mean(np.abs(mu_got - mu_want)) < 1e-8
            assert np.mean(np.abs(sigma_got - sigma_want)) < 1e-8

    def test_predict_bitwise_reproducible(self):
        rng = np.random.default_rng(7)
        X, y = random_dataset(rng, 12, 1)
        model = fit_gp(X, y, seed=1, restarts=2)
        x = np.array([0.3])
        assert model.predict(x) == model.predict(x)

    def test_variance_shrinks_with_noise_free_point_at_query(self):
        rng = np.random.default_rng(8)
        X, y = random_dataset(rng, 10, 1)
        p = KernelParams(np.array([0.5]), 1.0, 0.0)
        xq = np.array([0.77])
        base = build_gp(X, y, p)
        _, s_before = base.predict(xq)
        X2 = np.vstack([X, xq[None]])
        y2 = np.append(y, 0.5)
        dense = build_gp(X2, y2, p)
        _, s_after = dense.predict(xq)
        assert s_after <= s_before + 1e-9


# ---------------------------------------------------------------------------
# marginal likelihood & fitting


class TestLml:
    def test_single_point_closed_form(self):
        # standardized single observation is 0, so the quadratic term vanishes
        p = KernelParams(np.array([0.5]), 2.0, 0.5)
        model = build_gp(np.array([[0.3]]), np.array([4.2]), p)
        want = -0.5 * math.log(2.5) - 0.5 * math.log(2 * math.pi)
        assert log_marginal_likelihood(model) == pytest.approx(want, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            X, y = random_dataset(rng, int(rng.integers(3, 25)), d)
            params = random_params(rng, d)
            model = build_gp(X, y, params)
            assert log_marginal_likelihood(model) == pytest.approx(
                dense_lml(X, y, params), abs=1e-8
            )

    def test_noise_has_interior_optimum_on_noisy_data(self):
        # smooth signal plus iid noise: too little noise_var overfits the
        # residuals, too much washes out the signal, so the LML grid scan
        # peaks strictly inside the scanned range
        rng = np.random.default_rng(10)
        X = np.linspace(0, 1, 40)[:, None]
        y = np.sin(6.0 * X[:, 0]) + 0.3 * rng.standard_normal(40)
        grid = np.logspace(-6, 0, 25)
        vals = []
        for nv in grid:
            p = KernelParams(np.array([0.3]), 1.0, float(nv))
            vals.append(log_marginal_likelihood(build_gp(X, y, p)))
        best = int(np.argmax(vals))
        assert 0 < best < len(grid) - 1

    def test_fit_beats_coarse_grid(self):
        rng = np.random.default_rng(11)
        X, y = random_dataset(rng, 20, 1)
        model = fit_gp(X, y, seed=0, restarts=8)
        fitted = log_posterior(X, y, model.params)
        for ls in (0.1, 0.5, 2.0):
            for sv in (0.5, 1.0, 4.0):
                for nv in (1e-4, 1e-2, 0.5):
                    p = KernelParams(np.array([ls]), sv, nv)
                    assert fitted >= log_posterior(X, y, p) - 1e-6

    def test_fit_respects_bounds(self):
        rng = np.random.default_rng(12)
        X, y = random_dataset(rng, 15, 2)
        model = fit_gp(X, y, seed=3, restarts=4)
        p = model.params
        assert np.all(p.lengthscales >= LENGTHSCALE_BOUNDS[0])
        assert np.all(p.lengthscales <= LENGTHSCALE_BOUNDS[1])
        assert SIGNAL_VAR_BOUNDS[0] <= p.signal_var <= SIGNAL_VAR_BOUNDS[1]
        assert NOISE_VAR_BOUNDS[0] <= p.noise_var <= NOISE_VAR_BOUNDS[1]

    def test_fit_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        X, y = random_dataset(rng, 12, 1)
        a = fit_gp(X, y, seed=5, restarts=4)
        b = fit_gp(X, y, seed=5, restarts=4)
        assert np.array_equal(a.params.lengthscales, b.params.lengthscales)
        assert a.params.signal_var == b.params.signal_var
        assert a.params.noise_var == b.params.noise_var

    def test_standardization_affine_equivariance(self):
        # fitting a*y + b yields affinely mapped predictions with identical
        # standardized internals, because fitting happens on standardized
        # targets with the same seeded restarts
        rng = np.random.default_rng(14)
        X, y = random_dataset(rng, 14, 1)
        a, b = 3.0, -7.0
        m1 = fit_gp(X, y, seed=2, restarts=4)
        m2 = fit_gp(X, a * y + b, seed=2, restarts=4)
        for xq in (np.array([0.1]), np.array([0.6])):
            mu1, s1 = m1.predict(xq)
            mu2, s2 = m2.predict(xq)
            assert mu2 == pytest.approx(a * mu1 + b, rel=1e-9, abs=1e-9)
            assert s2 == pytest.approx(abs(a) * s1, rel=1e-9, abs=1e-12)

    def test_posterior_joint_consistent_with_predict(self):
        rng = np.random.default_rng(15)
        X, y = random_dataset(rng, 10, 2)
        params = random_params(rng, 2)
        model = build_gp(X, y, params)
        Xq = rng.uniform(size=(4, 2))
        mean, cov = model.posterior_joint(Xq)
        mu, sigma = model.predict_batch(Xq)
        assert np.allclose(mean, mu, atol=1e-10)
        # joint covariance is latent (no noise); predict adds noise variance
        latent_sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
        scale = model.y_scale if model.y_scale > 0 else 1.0
        noisy_sd = np.sqrt(latent_sd**2 + params.noise_var * scale**2)
        assert np.allclose(noisy_sd, sigma, atol=1e-8)

    def test_duplicate_rows_survive_via_jitter(self):
        X = np.array([[0.5], [0.5], [0.5]])
        y = np.array([1.0, 1.0, 1.0])
        model = build_gp(X, y, KernelParams(np.array([0.5]), 1.0, 0.0))
        assert model.jitter > 0
        mu, _ = model.predict(np.array([0.5]))
        assert mu == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_gp(np.zeros((3, 1)), np.zeros(4), KernelParams(np.array([0.5]), 1.0, 0.1))
        with pytest.raises(ValueError):
            KernelParams(np.array([0.5]), -1.0, 0.1)


# ---------------------------------------------------------------------------
# the MAP fit: prior, gradient, and optimum


def starts(d, seed, restarts=8, noise_bounds=NOISE_VAR_BOUNDS):
    """fit_gp's documented starting points, written out independently."""
    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VAR_BOUNDS[0], noise_bounds[0]]))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VAR_BOUNDS[1], noise_bounds[1]]))
    rng = np.random.default_rng(seed)
    out = [np.clip(np.log(np.concatenate([np.full(d, 0.5), [1.0, 1e-4]])), lo, hi)]
    return out + [rng.uniform(lo, hi) for _ in range(restarts - 1)]


def params_at(theta):
    d = len(theta) - 2
    return KernelParams(np.exp(theta[:d]), math.exp(theta[d]), math.exp(theta[d + 1]))


def random_data():
    rng = np.random.default_rng(21)
    return random_dataset(rng, 14, 3)


def duplicate_rows_data():
    rng = np.random.default_rng(22)
    X = rng.uniform(size=(5, 2))
    X = np.vstack([X, X, X[:2]])
    return X, np.sin(4.0 * X[:, 0]) + X[:, 1]


def constant_data():
    rng = np.random.default_rng(23)
    return rng.uniform(size=(9, 2)), np.full(9, 1.75)


class TestLogPrior:
    def test_gamma_log_densities(self):
        p = KernelParams(np.array([0.5, 2.0]), 1.5, 0.01)
        want = (
            (2 * math.log(0.5) - 6 * 0.5) + (2 * math.log(2.0) - 6 * 2.0)
            + (math.log(1.5) - 0.15 * 1.5)
            + (0.1 * math.log(0.01) - 0.05 * 0.01)
        )
        assert log_prior(p) == pytest.approx(want, rel=1e-14)


class TestMapFit:
    """fit_gp maximizes log_marginal_likelihood + log_prior with an analytic
    gradient; checked on a random, a jittered and a constant-target set."""

    def assert_map_fit(self, X, y, seed, noise_bounds=NOISE_VAR_BOUNDS):
        model = fit_gp(X, y, seed=seed, noise_bounds=noise_bounds)
        fitted = log_posterior(X, y, model.params)
        for theta0 in starts(X.shape[1], seed, noise_bounds=noise_bounds):
            assert fitted >= log_posterior(X, y, params_at(theta0))
        # the fitted parameters go through build_gp: one code path
        rebuilt = build_gp(X, y, model.params)
        assert np.array_equal(model.alpha, rebuilt.alpha)
        assert np.array_equal(model.chol, rebuilt.chol)
        assert model.jitter == rebuilt.jitter
        assert model.fit_evals > 0 and rebuilt.fit_evals == 0
        return model

    def assert_gradient_matches_central_differences(self, X, y, thetas):
        objective = _neg_log_posterior(X, _standardize(y)[2])
        h = 1e-5
        for theta in thetas:
            value, grad = objective(theta)
            # the objective is the public log posterior, negated
            assert value == pytest.approx(-log_posterior(X, y, params_at(theta)), rel=1e-9)
            fd = np.array([
                (objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                for e in np.eye(len(theta))
            ])
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    def test_random_data(self):
        X, y = random_data()
        self.assert_map_fit(X, y, seed=4)
        self.assert_gradient_matches_central_differences(X, y, starts(3, seed=4))

    def test_duplicate_rows_take_the_jitter_path(self):
        X, y = duplicate_rows_data()
        noise_bounds = (1e-16, 1e-12)
        # Near-zero noise leaves the repeated rows' kernel singular, so the
        # factorization at some starts needs jitter.
        jitters = [build_gp(X, y, params_at(t)).jitter for t in starts(2, 5, noise_bounds=noise_bounds)]
        assert max(jitters) > 0.0
        self.assert_map_fit(X, y, seed=5, noise_bounds=noise_bounds)

    def test_constant_targets_keep_unit_scale(self):
        X, y = constant_data()
        model = self.assert_map_fit(X, y, seed=6)
        assert model.y_scale == 1.0
        self.assert_gradient_matches_central_differences(X, y, starts(2, seed=6))

    def test_failed_factorization_is_a_sentinel(self, monkeypatch):
        # Repeated rows with negligible noise need jitter; with no jitter
        # allowed the factorization fails.
        monkeypatch.setattr(gp, "JITTER_MAX", 0.0)
        objective = _neg_log_posterior(np.array([[0.5], [0.5]]), np.array([1.0, -1.0]))
        theta = np.log(np.array([0.5, 1.0, 1e-300]))
        value, grad = objective(theta)
        assert value == 1e12
        assert np.array_equal(grad, np.zeros(3))
