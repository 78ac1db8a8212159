"""Gaussian-process regression on the unit cube.

Matern 5/2 kernel with per-dimension (ARD) lengthscales, targets standardized
internally, Cholesky solves with escalating jitter, and a gradient-free
multi-start Nelder-Mead fit of the log marginal likelihood in log-parameter
space. Deterministic given the seed.

The fit validates and standardizes the data once, then scores each
Nelder-Mead vertex with the same operations, in the same order, as
``log_marginal_likelihood(build_gp(...))``: the kernel formula and the
"Cholesky with jitter, then solve" step each live in one private helper, and
the factor and solves call LAPACK ``potrf``/``potrs``/``trtrs`` directly (the
routines ``scipy.linalg.cholesky``/``cho_solve``/``solve_triangular`` call),
so the fitted model is bit-identical to that reference at a fraction of the
per-evaluation overhead.

The predictive distribution includes the fitted observation noise; callers
that need the latent joint posterior over several points (for Monte-Carlo
acquisition sampling) use ``posterior_joint``, which returns de-standardized
means and covariances without the noise diagonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize

from .errors import NumericalError

SQRT5 = math.sqrt(5.0)

#: Hard box for the fitted kernel parameters.
LENGTHSCALE_BOUNDS = (1e-3, 10.0)
SIGNAL_VAR_BOUNDS = (1e-3, 10.0)
NOISE_VAR_BOUNDS = (1e-8, 1.0)

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


def _matern52_scaled(A, a2, B, b2, signal_var: float) -> np.ndarray:
    """Kernel matrix between the rows of A and B, both already divided by the
    lengthscales; a2 and b2 are their ``_sq_norms``. A and B must be distinct
    arrays: numpy computes ``A @ A.T`` with syrk, which rounds unlike gemm."""
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    r = np.sqrt(np.maximum(d2, 0.0))
    sr = SQRT5 * r
    return signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)


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


def _chol_solve(K: np.ndarray, eye: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Lower Cholesky factor of K, escalating added jitter tenfold on failure,
    and K^-1 b through it: (L, jitter, solution)."""
    jitter = 0.0
    while True:
        L, info = dpotrf(K + jitter * eye, lower=1, clean=1)
        if info == 0:
            return L, jitter, _cho_solve(L, b)
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX:
            raise NumericalError(f"Cholesky failed even with jitter {JITTER_MAX:g}")


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


def _unpack(theta: np.ndarray, d: int) -> KernelParams:
    return KernelParams(np.exp(theta[:d]), math.exp(theta[d]), math.exp(theta[d + 1]))


def fit_gp(
    X,
    y,
    seed: int = 0,
    restarts: int = 8,
    *,
    maxiter: int = 200,
    noise_bounds: tuple[float, float] = NOISE_VAR_BOUNDS,
) -> GpModel:
    """Multi-start Nelder-Mead maximization of the log marginal likelihood.

    Inputs are assumed pre-scaled to the unit cube by the caller. Ties across
    restarts resolve to the lowest restart index, so the result is a pure
    function of (X, y, seed). Each objective value equals
    ``-log_marginal_likelihood(build_gp(X, y, _unpack(theta, d)))`` bit for
    bit (1e12 where the Cholesky fails), without rebuilding a model per call.
    """
    X, y = _check_data(X, y)
    if restarts < 1:
        raise ValueError("need at least one restart")
    d = X.shape[1]
    _, _, y_std = _standardize(y)
    eye = np.eye(len(X))

    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VAR_BOUNDS[0], noise_bounds[0]]))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VAR_BOUNDS[1], noise_bounds[1]]))

    def neg_lml(theta):
        theta = np.clip(theta, lo, hi)
        ls = np.exp(theta[:d])
        A = X / ls
        B = X / ls
        K = _matern52_scaled(A, _sq_norms(A), B, _sq_norms(B), math.exp(theta[d]))
        K = K + math.exp(theta[d + 1]) * eye
        try:
            L, _, alpha = _chol_solve(K, eye, y_std)
        except NumericalError:
            return 1e12
        return -_lml(y_std, alpha, L)

    rng = np.random.default_rng(seed)
    default = np.log(np.concatenate([np.full(d, 0.5), [1.0, 1e-4]]))
    starts = [np.clip(default, lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_val, best_theta = math.inf, None
    for theta0 in starts:
        res = minimize(
            neg_lml,
            theta0,
            method="Nelder-Mead",
            bounds=list(zip(lo, hi)),
            options={"maxiter": maxiter, "xatol": 1e-3, "fatol": 1e-5},
        )
        if res.fun < best_val:
            best_val, best_theta = res.fun, np.clip(res.x, lo, hi)
    if best_theta is None or not math.isfinite(best_val):
        raise NumericalError("GP fit failed for every restart")
    return build_gp(X, y, _unpack(best_theta, d))
