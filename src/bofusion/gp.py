"""Gaussian-process regression on the unit cube.

Matern 5/2 kernel with per-dimension (ARD) lengthscales, targets standardized
internally, Cholesky solves with escalating jitter. Deterministic given the
seed.

``fit_gp`` finds the MAP kernel parameters: it maximizes the log marginal
likelihood plus fixed Gamma log-priors on the lengthscales, signal variance
and noise variance (BoTorch's classic ``SingleTaskGP`` defaults, see
``log_prior``) over a box in log-parameter space. Each seeded restart runs
L-BFGS-B on the closed-form gradient (Rasmussen & Williams 2006, 5.4.1),
``0.5 tr((alpha alpha^T - K^-1) dK/dtheta)`` plus the prior terms, with the
per-dimension squared input differences computed once per fit. The fitted
parameters then go through ``build_gp``, so a fitted model and one built
from the same parameters are the same model.

The factor and solves call LAPACK ``potrf``/``potrs``/``trtrs`` directly
(the routines ``scipy.linalg.cholesky``/``cho_solve``/``solve_triangular``
call), and the kernel formula and the jittered factorization each live in
one private helper, shared with the acquisition code.

The predictive distribution includes the fitted observation noise; callers
that need the latent joint posterior over several points (for Monte-Carlo
acquisition sampling) use ``posterior_joint``, which returns de-standardized
means and covariances without the noise diagonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize

from .errors import NumericalError

SQRT5 = math.sqrt(5.0)

#: Hard box for the fitted kernel parameters.
LENGTHSCALE_BOUNDS = (1e-3, 10.0)
SIGNAL_VAR_BOUNDS = (1e-3, 10.0)
NOISE_VAR_BOUNDS = (1e-8, 1.0)

#: Gamma(concentration, rate) priors on the lengthscales, the signal variance
#: and the noise variance, in standardized-target units.
LENGTHSCALE_PRIOR = (3.0, 6.0)
SIGNAL_VAR_PRIOR = (2.0, 0.15)
NOISE_VAR_PRIOR = (1.1, 0.05)

JITTER_START = 1e-10
JITTER_MAX = 1e-4

#: De-standardized predictive stds below this are reported as this floor.
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Matern 5/2 hyperparameters, in standardized-target units."""

    lengthscales: np.ndarray
    signal_var: float
    noise_var: float

    def __post_init__(self):
        ls = np.asarray(self.lengthscales, dtype=float).copy()
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty vector")
        if np.any(ls <= 0.0) or self.signal_var <= 0.0 or self.noise_var < 0.0:
            raise ValueError("kernel parameters must be positive (noise_var >= 0)")
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)


def _sq_norms(A: np.ndarray) -> np.ndarray:
    return np.sum(A * A, axis=1)


def _matern52_of_r(r: np.ndarray, signal_var: float) -> tuple[np.ndarray, np.ndarray]:
    """The kernel at lengthscale-scaled distances r, and exp(-sqrt5 r)."""
    sr = SQRT5 * r
    e = np.exp(-sr)
    return signal_var * (1.0 + sr + sr * sr / 3.0) * e, e


def _matern52_scaled(A, a2, B, b2, signal_var: float) -> np.ndarray:
    """Kernel matrix between the rows of A and B, both already divided by the
    lengthscales; a2 and b2 are their ``_sq_norms``. A and B must be distinct
    arrays: numpy computes ``A @ A.T`` with syrk, which rounds unlike gemm."""
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return _matern52_of_r(np.sqrt(np.maximum(d2, 0.0)), signal_var)[0]


def matern52(X1, X2, params: KernelParams) -> np.ndarray:
    """Kernel matrix k(X1, X2) for row-stacked inputs."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    A = X1 / params.lengthscales
    B = X2 / params.lengthscales
    return _matern52_scaled(A, _sq_norms(A), B, _sq_norms(B), params.signal_var)


def _tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for a Fortran-ordered lower factor (as ``_chol_solve`` returns)."""
    x, info = dtrtrs(L, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 b for a lower Cholesky factor L."""
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _chol(K: np.ndarray, eye: np.ndarray) -> tuple[np.ndarray, float]:
    """Fortran-ordered lower Cholesky factor of K, escalating added jitter
    tenfold on failure: (L, jitter)."""
    jitter = 0.0
    while True:
        L, info = dpotrf(K + jitter * eye, lower=1, clean=1)
        if info == 0:
            return L, jitter
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX:
            raise NumericalError(f"Cholesky failed even with jitter {JITTER_MAX:g}")


def _chol_solve(K: np.ndarray, eye: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """``_chol`` of K and K^-1 b through it: (L, jitter, solution)."""
    L, jitter = _chol(K, eye)
    return L, jitter, _cho_solve(L, b)


@dataclass(frozen=True)
class GpModel:
    """A fitted GP: training inputs, standardized targets, and solve caches."""

    X: np.ndarray
    y: np.ndarray
    y_mean: float
    y_scale: float
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    #: Objective evaluations the fit spent over all restarts; 0 when built
    #: from given parameters.
    fit_evals: int = 0

    @property
    def n(self) -> int:
        return len(self.X)

    def _y_std(self) -> np.ndarray:
        return (self.y - self.y_mean) / self.y_scale

    def predict(self, x) -> tuple[float, float]:
        mu, sigma = self.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)))
        return float(mu[0]), float(sigma[0])

    def predict_batch(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        ks = matern52(self.X, Xq, self.params)
        mu_std = ks.T @ self.alpha
        v = _tri_solve(self.chol, ks)
        var_std = self.params.signal_var - np.sum(v * v, axis=0)
        var_std = np.maximum(var_std, 0.0) + self.params.noise_var
        sigma = self.y_scale * np.sqrt(var_std)
        return self.y_mean + self.y_scale * mu_std, np.maximum(sigma, SIGMA_FLOOR)

    def posterior_joint(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """De-standardized latent posterior mean vector and covariance matrix."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        ks = matern52(self.X, Xq, self.params)
        mu_std = ks.T @ self.alpha
        v = _tri_solve(self.chol, ks)
        cov_std = matern52(Xq, Xq, self.params) - v.T @ v
        scale2 = self.y_scale * self.y_scale
        return self.y_mean + self.y_scale * mu_std, scale2 * cov_std


def _check_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if len(X) != len(y) or len(y) == 0:
        raise ValueError("X/y length mismatch or empty data")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training data")
    return X, y


def _standardize(y: np.ndarray) -> tuple[float, float, np.ndarray]:
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    return y_mean, y_scale, (y - y_mean) / y_scale


def _lml(y_std: np.ndarray, alpha: np.ndarray, L: np.ndarray) -> float:
    return float(
        -0.5 * y_std @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * len(y_std) * math.log(2.0 * math.pi)
    )


def build_gp(X, y, params: KernelParams) -> GpModel:
    """Assemble a model (standardization, Cholesky, solve cache) from given
    kernel parameters; no fitting."""
    X, y = _check_data(X, y)
    if params.lengthscales.size != X.shape[1]:
        raise ValueError("lengthscale/input dimension mismatch")
    y_mean, y_scale, y_std = _standardize(y)
    eye = np.eye(len(X))
    K = matern52(X, X, params) + params.noise_var * eye
    L, jitter, alpha = _chol_solve(K, eye, y_std)
    Xc = X.copy()
    Xc.setflags(write=False)
    return GpModel(Xc, y.copy(), y_mean, y_scale, params, L, alpha, jitter)


def log_marginal_likelihood(model: GpModel) -> float:
    """LML of the standardized targets under the model's kernel parameters."""
    return _lml(model._y_std(), model.alpha, model.chol)


def _prior_coefficients(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(concentration - 1, rate) per entry of theta = log(ls_1..ls_d, s, noise)."""
    priors = [LENGTHSCALE_PRIOR] * d + [SIGNAL_VAR_PRIOR, NOISE_VAR_PRIOR]
    return np.array([a - 1.0 for a, _ in priors]), np.array([b for _, b in priors])


def log_prior(params: KernelParams) -> float:
    """Gamma log-prior density of the kernel parameters, up to a constant:
    sum of (concentration - 1) log x - rate x over ls_1..ls_d, s and noise."""
    x = np.concatenate([params.lengthscales, [params.signal_var, params.noise_var]])
    a1, b = _prior_coefficients(len(params.lengthscales))
    return float(a1 @ np.log(x) - b @ x)


def _unpack(theta: np.ndarray, d: int) -> KernelParams:
    return KernelParams(np.exp(theta[:d]), math.exp(theta[d]), math.exp(theta[d + 1]))


def _neg_log_posterior(X: np.ndarray, y_std: np.ndarray):
    """theta -> (-log posterior, its gradient) on standardized targets, for
    theta = log(ls_1..ls_d, s, noise). The value is
    ``-(log_marginal_likelihood(build_gp(...)) + log_prior(...))`` up to
    rounding; (1e12, 0) where the Cholesky fails."""
    n, d = X.shape
    eye = np.eye(n)
    diff = X[:, None, :] - X[None, :, :]
    # D[i] holds the squared differences along input dimension i.
    D = (diff * diff).reshape(n * n, d).T.copy()
    a1, b = _prior_coefficients(d)

    def objective(theta):
        inv_ls2 = np.exp(-2.0 * theta[:d])
        signal_var, noise_var = math.exp(theta[d]), math.exp(theta[d + 1])
        r = np.sqrt(inv_ls2 @ D).reshape(n, n)
        Kf, e = _matern52_of_r(r, signal_var)
        try:
            L, _, alpha = _chol_solve(Kf + noise_var * eye, eye, y_std)
        except NumericalError:
            return 1e12, np.zeros_like(theta)
        W = np.outer(alpha, alpha) - _cho_solve(L, eye)
        # dK/dlog ls_i = s (5/3)(1 + sqrt5 r) exp(-sqrt5 r) D_i / ls_i^2
        dk = (signal_var * 5.0 / 3.0) * (1.0 + SQRT5 * r) * e
        grad = np.empty_like(theta)
        grad[:d] = 0.5 * (D @ (W * dk).ravel()) * inv_ls2
        grad[d] = 0.5 * np.sum(W * Kf)
        grad[d + 1] = 0.5 * noise_var * np.trace(W)
        x = np.exp(theta)
        value = _lml(y_std, alpha, L) + a1 @ theta - b @ x
        return -value, -(grad + a1 - b * x)

    return objective


def fit_gp(
    X,
    y,
    seed: int = 0,
    restarts: int = 8,
    *,
    noise_bounds: tuple[float, float] = NOISE_VAR_BOUNDS,
) -> GpModel:
    """Multi-start L-BFGS-B maximization of the log posterior (log marginal
    likelihood plus ``log_prior``) over the log-parameter box.

    Inputs are assumed pre-scaled to the unit cube by the caller. Restart 0
    starts at lengthscales 0.5, signal variance 1 and noise 1e-4 (clipped to
    the box); the others start uniformly in the box, drawn from `seed`. Ties
    across restarts resolve to the lowest restart index, so the result is a
    pure function of (X, y, seed). The model's ``fit_evals`` counts the
    objective evaluations of every restart.
    """
    X, y = _check_data(X, y)
    if restarts < 1:
        raise ValueError("need at least one restart")
    d = X.shape[1]
    objective = _neg_log_posterior(X, _standardize(y)[2])
    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VAR_BOUNDS[0], noise_bounds[0]]))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VAR_BOUNDS[1], noise_bounds[1]]))

    rng = np.random.default_rng(seed)
    default = np.log(np.concatenate([np.full(d, 0.5), [1.0, 1e-4]]))
    starts = [np.clip(default, lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_val, best_theta, evals = math.inf, None, 0
    for theta0 in starts:
        res = minimize(objective, theta0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)))
        evals += res.nfev
        if res.fun < best_val:
            best_val, best_theta = res.fun, np.clip(res.x, lo, hi)
    if best_theta is None or not math.isfinite(best_val):
        raise NumericalError("GP fit failed for every restart")
    return replace(build_gp(X, y, _unpack(best_theta, d)), fit_evals=evals)
