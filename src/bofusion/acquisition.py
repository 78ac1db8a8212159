"""Acquisition functions and their seeded maximizer.

log_ei is the numerically stable log of expected improvement; the naive
closed form underflows around z ~ -8 while the log form stays exact down to
arbitrarily poor candidates (an asymptotic Mills-ratio expansion takes over
for extreme z). nehvi_mc is a q=1 Monte-Carlo noisy expected hypervolume
improvement: each MC scenario resamples the *observed* objective values from
the joint latent posterior, rebuilds the front, and measures the candidate's
hypervolume gain against it. Scenarios share one per-iteration seed so
candidates are compared under common random numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from . import gp as _gp
from . import pareto as _pareto
from .core import BoundedParamSpace
from .errors import NumericalError

#: Returned by log_ei when improvement is impossible (sigma = 0, mu <= best).
LOG_EI_FLOOR = -1e12

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _log_h(z: float) -> float:
    # h(z) = z * Phi(z) + phi(z), computed in log space.
    if z > -1.0:
        return math.log(z * ndtr(z) + math.exp(-0.5 * z * z - 0.5 * _LOG_2PI))
    t = -z
    if z > -35.0:
        # h(z) = phi(z) * (1 - t * Mills(t)); erfcx keeps the product stable.
        c = 1.0 - t * _SQRT_HALF_PI * erfcx(t / math.sqrt(2.0))
        return -0.5 * z * z - 0.5 * _LOG_2PI + math.log(c)
    # Asymptotic tail of 1 - t * Mills(t); relative error O(t^-8) at t = 35.
    inv = 1.0 / (t * t)
    series = inv * (1.0 - 3.0 * inv * (1.0 - 5.0 * inv * (1.0 - 7.0 * inv)))
    return -0.5 * z * z - 0.5 * _LOG_2PI + math.log(series)


def log_ei(mu: float, sigma: float, best: float) -> float:
    """log E[max(0, N(mu, sigma^2) - best)], safe for arbitrarily bad z."""
    if not (math.isfinite(mu) and math.isfinite(sigma) and math.isfinite(best)):
        raise ValueError("log_ei needs finite mu, sigma, best")
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        gap = mu - best
        return math.log(gap) if gap > 0.0 else LOG_EI_FLOOR
    z = (mu - best) / sigma
    return math.log(sigma) + _log_h(z)


@dataclass(frozen=True)
class AcqConfig:
    """Budgets for acquisition evaluation and maximization."""

    n_restarts: int = 4
    n_raw_candidates: int = 128
    n_mc: int = 64
    seed: int = 0
    local_steps: int = 2

    def __post_init__(self):
        if min(self.n_restarts, self.n_raw_candidates, self.n_mc, self.local_steps) < 1:
            raise ValueError("acquisition budgets must be >= 1")


@dataclass(frozen=True)
class SimplexDomain:
    """The standard (n-1)-simplex: delta >= 0, sum(delta) = 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("simplex needs n >= 1")


def _chol_or_zero(cov: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """The GP's jittered Cholesky (gp._chol): (L, jitter, is_zero); an
    (effectively) all-zero covariance short-circuits to a zero factor so
    degenerate posteriors stay exact."""
    if cov.size == 0 or float(np.max(np.abs(cov))) < 1e-30:
        return np.zeros_like(cov, order="F"), 0.0, True
    L, jitter = _gp._chol(cov, np.eye(len(cov)))
    return L, jitter, False


def _observed_matrix(observed) -> np.ndarray:
    if hasattr(observed, "ndim"):
        return np.atleast_2d(np.asarray(observed, dtype=float))
    rows = [np.asarray(getattr(o, "x", o), dtype=float) for o in observed]
    return np.atleast_2d(np.stack(rows))


class NehviAcquisition:
    """Callable MC noisy-EHVI for a fixed iteration state.

    Construction draws every random number the acquisition will use (observed
    scenario samples plus one normal per scenario for the candidate), so all
    candidate evaluations within the iteration share common random numbers
    and the callable is a pure deterministic function of the candidate.
    ``obs_jitter[k]`` is the jitter objective k's joint posterior covariance
    at the observed points needed to factorize (0.0 when none).
    """

    def __init__(self, models, observed_x, cfg: AcqConfig, ref=None):
        if ref is not None and np.any(np.asarray(ref, dtype=float) != 0.0):
            raise ValueError("reference point must be the zero vector")
        self.models = tuple(models)
        if not self.models:
            raise ValueError("need at least one objective model")
        self.cfg = cfg
        X = _observed_matrix(observed_x)
        if len(X) == 0:
            raise ValueError("need at least one observed point")
        # Canonical ordering makes the estimate invariant to history permutation.
        order = np.lexsort(X.T[::-1])
        self.X = X[order]
        n = len(self.X)
        K = len(self.models)
        n_mc = cfg.n_mc

        rng = np.random.default_rng(cfg.seed)
        self._obs_chol = []
        self._obs_zero = []
        obs_jitter = []
        self._cand_z = []
        self._resid = []
        self._gp_terms = []
        samples = np.empty((n, n_mc, K))
        for k, model in enumerate(self.models):
            mu, cov = model.posterior_joint(self.X)
            mu = np.asarray(mu, dtype=float).ravel()
            L, jitter, is_zero = _chol_or_zero(np.asarray(cov, dtype=float))
            Z = rng.standard_normal((n, n_mc))
            samples[:, :, k] = mu[:, None] + (L @ Z if not is_zero else 0.0)
            self._obs_chol.append(L)
            self._obs_zero.append(is_zero)
            obs_jitter.append(jitter)
            self._cand_z.append(rng.standard_normal(n_mc))
            self._resid.append(samples[:, :, k] - mu[:, None])
            self._gp_terms.append(self._kernel_terms(model) if isinstance(model, _gp.GpModel) else None)
        self._samples = samples
        self.obs_jitter = tuple(obs_jitter)

        if K == 2:
            self._build_staircases()
        elif K >= 3:
            self._fronts = [
                _pareto.pareto_front(samples[:, j, :]) for j in range(n_mc)
            ]
        else:
            self._base1 = np.maximum(samples[:, :, 0].max(axis=0), 0.0)

    def _kernel_terms(self, model: _gp.GpModel) -> tuple:
        """What every candidate's conditioning on a GP objective reuses:
        training and observed inputs divided by the lengthscales, their
        squared row norms, V_obs = L^-1 k(X_train, X_obs) and y_scale^2."""
        ls = model.params.lengthscales
        A_train, A_obs = model.X / ls, self.X / ls
        a2_train, a2_obs = _gp._sq_norms(A_train), _gp._sq_norms(A_obs)
        ks = _gp._matern52_scaled(A_train, a2_train, A_obs, a2_obs, model.params.signal_var)
        V_obs = _gp._tri_solve(model.chol, ks)
        return A_train, a2_train, A_obs, a2_obs, V_obs, model.y_scale * model.y_scale

    def _build_staircases(self):
        n_mc = self.cfg.n_mc
        stairs = []
        width = 0
        for j in range(n_mc):
            pts = _pareto.pareto_front(self._samples[:, j, :]).points
            sx, sy = (_pareto._staircase2d(pts) if len(pts) else (np.empty(0), np.empty(0)))
            stairs.append((sx, sy))
            width = max(width, len(sx))
        # Pad with x = 0 / y = +inf columns, which contribute zero gain.
        SX = np.zeros((n_mc, width))
        SY = np.full((n_mc, width), np.inf)
        for j, (sx, sy) in enumerate(stairs):
            SX[j, : len(sx)] = sx
            SY[j, : len(sy)] = sy
        self._SX = SX
        self._SY = SY
        self._NXT = np.concatenate([SX[:, 1:], np.zeros((n_mc, 1))], axis=1) if width else SX
        self._SX0 = SX[:, 0] if width else np.zeros(n_mc)

    def _candidate_samples(self, delta: np.ndarray) -> np.ndarray:
        """Per-scenario candidate objective draws, conditioned on the
        scenario's observed-value samples. Shape (n_mc, K)."""
        out = np.empty((self.cfg.n_mc, len(self.models)))
        cand = np.atleast_2d(delta)
        for k, model in enumerate(self.models):
            if self._gp_terms[k] is not None:
                A_train, a2_train, A_obs, a2_obs, V_obs, scale2 = self._gp_terms[k]
                p = model.params
                B = cand / p.lengthscales
                b2 = _gp._sq_norms(B)
                ks_c = _gp._matern52_scaled(A_train, a2_train, B, b2, p.signal_var)
                v_c = _gp._tri_solve(model.chol, ks_c)[:, 0]
                mu_c = model.y_mean + model.y_scale * float(ks_c[:, 0] @ model.alpha)
                cross = _gp._matern52_scaled(A_obs, a2_obs, B, b2, p.signal_var)[:, 0] - V_obs.T @ v_c
                sig_oc = scale2 * cross
                sig_cc = scale2 * max(p.signal_var - float(v_c @ v_c), 0.0)
            else:
                stacked = np.vstack([self.X, cand])
                mu_j, cov_j = model.posterior_joint(stacked)
                mu_j = np.asarray(mu_j, dtype=float).ravel()
                cov_j = np.asarray(cov_j, dtype=float)
                mu_c = float(mu_j[-1])
                sig_oc = cov_j[:-1, -1]
                sig_cc = float(max(cov_j[-1, -1], 0.0))
            if self._obs_zero[k]:
                w = np.zeros(len(self.X))
            else:
                w = _gp._cho_solve(self._obs_chol[k], sig_oc)
            cond_var = max(sig_cc - float(sig_oc @ w), 0.0)
            cond_mean = mu_c + w @ self._resid[k]
            out[:, k] = cond_mean + math.sqrt(cond_var) * self._cand_z[k]
        return out

    def __call__(self, delta) -> float:
        delta = np.asarray(delta, dtype=float).ravel()
        if delta.size != self.X.shape[1]:
            raise ValueError("candidate/history dimension mismatch")
        C = self._candidate_samples(delta)
        K = C.shape[1]
        if K == 1:
            gains = np.maximum(C[:, 0], 0.0) - self._base1
            return float(np.maximum(gains, 0.0).mean())
        if K == 2:
            a, b = C[:, 0], C[:, 1]
            pos = (a > 0.0) & (b > 0.0)
            first = np.maximum(0.0, a - self._SX0) * np.maximum(b, 0.0)
            seg = np.maximum(0.0, np.minimum(a[:, None], self._SX) - self._NXT)
            height = np.maximum(0.0, b[:, None] - self._SY)
            gains = (first + (seg * height).sum(axis=1)) * pos
            return float(gains.mean())
        gains = [
            _pareto.hv_improvement(front, c) for front, c in zip(self._fronts, C)
        ]
        return float(np.mean(gains))


def nehvi_mc(models, delta, observed, ref=None, cfg: AcqConfig | None = None) -> float:
    """One-shot MC noisy expected hypervolume improvement of `delta`."""
    cfg = cfg or AcqConfig()
    return NehviAcquisition(models, observed, cfg, ref)(np.asarray(delta, dtype=float))


def _project_simplex(u: np.ndarray) -> np.ndarray | None:
    u = np.maximum(u, 0.0)
    s = u.sum()
    if s <= 1e-300:
        return None
    return u / s


def optimize_acq(acq, domain, cfg: AcqConfig | None = None) -> np.ndarray:
    """Seeded raw search plus coordinate-wise local refinement.

    Raw candidates are uniform in the box (scale-aware per dimension) or
    Dirichlet(1, ..., 1) on the simplex. The top n_restarts are refined by a
    cyclic +/- coordinate search with a halving step (0.25 down to 1e-4),
    projecting each trial back onto the domain. Deterministic given cfg.seed;
    value ties resolve to the lowest candidate index.

    `acq` must be a pure function of its argument: each distinct candidate
    is scored once and a revisited one reuses that score. NEHVI qualifies
    because it fixes all its random numbers when built.
    """
    cfg = cfg or AcqConfig()
    rng = np.random.default_rng(cfg.seed)
    is_box = isinstance(domain, BoundedParamSpace)
    if not is_box and not isinstance(domain, SimplexDomain):
        raise TypeError("domain must be a BoundedParamSpace or SimplexDomain")

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

    seen: dict[bytes, float] = {}

    def safe_eval(u):
        key = u.tobytes()
        v = seen.get(key)
        if v is None:
            v = float(acq(to_point(u)))
            v = seen[key] = v if math.isfinite(v) else -math.inf
        return v

    vals = np.array([safe_eval(u) for u in units])
    if not np.any(np.isfinite(vals) & (vals > -math.inf)):
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
    if best_u is None:
        raise NumericalError("acquisition refinement failed for every restart")
    if is_box:
        return to_point(best_u)
    out = best_u / best_u.sum()
    return out
