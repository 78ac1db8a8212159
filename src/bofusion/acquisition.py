"""Acquisition functions and their seeded maximizer.

log_ei is the numerically stable log of expected improvement; the naive
closed form underflows around z ~ -8 while the log form stays exact down to
arbitrarily poor candidates (an asymptotic Mills-ratio expansion takes over
for extreme z). nehvi_mc is a q=1 Monte-Carlo noisy expected hypervolume
improvement: each MC scenario resamples the *observed* objective values from
the joint latent posterior, rebuilds the front, and measures the candidate's
hypervolume gain against it. Scenarios share one per-iteration seed so
candidates are compared under common random numbers.

Acquisitions score blocks: an acquisition handed to ``optimize_acq`` maps an
``(m, d)`` array of candidates to ``m`` values, and ``NehviAcquisition``
conditions a whole block on each GP objective with one pair of kernel
matrices and one pair of multi-right-hand-side solves. ``optimize_acq``
scores its raw candidates in one call and runs its coordinate-search restarts
in lockstep, so each round of the search is one call over every active
restart's pending trials (the batched ``optimize_acqf`` idea of BoTorch,
Balandat et al. 2020).
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

#: NehviAcquisition scores larger blocks this many rows at a time, which
#: bounds the (rows, n_mc, staircase width) arrays of the K=2 gain.
_CHUNK_ROWS = 32

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
    and the callable is deterministic: a candidate's value depends on the
    other rows of its block only through rounding (see ``__call__``).
    ``obs_jitter[k]`` is the jitter objective k's joint posterior covariance
    at the observed points needed to factorize (0.0 when none).
    ``vectorized`` is True when a block is scored in one vectorized step
    (K <= 2 with every objective a GpModel) and False when its rows are
    scored one at a time, so that a block costs the sum of its rows.
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
        self.vectorized = K <= 2 and all(t is not None for t in self._gp_terms)

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

    def _gp_moments(self, model: _gp.GpModel, terms: tuple, D: np.ndarray):
        """Candidate means, observed-candidate covariances (n_obs, m) and
        candidate variances of one GP objective, for the rows of D."""
        A_train, a2_train, A_obs, a2_obs, V_obs, scale2 = terms
        p = model.params
        B = D / p.lengthscales
        b2 = _gp._sq_norms(B)
        ks_c = _gp._matern52_scaled(A_train, a2_train, B, b2, p.signal_var)
        V_c = _gp._tri_solve(model.chol, ks_c)
        mu_c = model.y_mean + model.y_scale * (ks_c.T @ model.alpha)
        cross = _gp._matern52_scaled(A_obs, a2_obs, B, b2, p.signal_var) - V_obs.T @ V_c
        sig_cc = scale2 * np.maximum(p.signal_var - np.sum(V_c * V_c, axis=0), 0.0)
        return mu_c, scale2 * cross, sig_cc

    def _joint_moments(self, model, D: np.ndarray):
        """``_gp_moments`` for any model with ``posterior_joint``, one
        candidate at a time."""
        mu_c = np.empty(len(D))
        sig_oc = np.empty((len(self.X), len(D)))
        sig_cc = np.empty(len(D))
        for i, cand in enumerate(D):
            mu_j, cov_j = model.posterior_joint(np.vstack([self.X, cand]))
            mu_j = np.asarray(mu_j, dtype=float).ravel()
            cov_j = np.asarray(cov_j, dtype=float)
            mu_c[i] = mu_j[-1]
            sig_oc[:, i] = cov_j[:-1, -1]
            sig_cc[i] = max(cov_j[-1, -1], 0.0)
        return mu_c, sig_oc, sig_cc

    def _conditional(self, k: int, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective k's conditional means (m, n_mc) and variances (m,) for
        the rows of D, given each scenario's observed-value samples."""
        model, terms = self.models[k], self._gp_terms[k]
        if terms is not None:
            mu_c, sig_oc, sig_cc = self._gp_moments(model, terms, D)
        else:
            mu_c, sig_oc, sig_cc = self._joint_moments(model, D)
        if self._obs_zero[k]:
            W = np.zeros_like(sig_oc)
        else:
            W = _gp._cho_solve(self._obs_chol[k], sig_oc)
        cond_var = np.maximum(sig_cc - np.sum(sig_oc * W, axis=0), 0.0)
        return mu_c[:, None] + W.T @ self._resid[k], cond_var

    def _candidate_samples(self, D: np.ndarray) -> np.ndarray:
        """Per-scenario objective draws for the rows of D. Shape (m, n_mc, K)."""
        out = np.empty((len(D), self.cfg.n_mc, len(self.models)))
        for k in range(len(self.models)):
            cond_mean, cond_var = self._conditional(k, D)
            out[:, :, k] = cond_mean + np.sqrt(cond_var)[:, None] * self._cand_z[k]
        return out

    def _gains(self, C: np.ndarray) -> np.ndarray:
        """Mean hypervolume gain over the scenarios for each candidate's
        draws C (m, n_mc, K)."""
        K = C.shape[2]
        if K == 1:
            gains = np.maximum(C[:, :, 0], 0.0) - self._base1
            return np.maximum(gains, 0.0).mean(axis=1)
        if K == 2:
            a, b = C[:, :, 0], C[:, :, 1]
            pos = (a > 0.0) & (b > 0.0)
            first = np.maximum(0.0, a - self._SX0) * np.maximum(b, 0.0)
            seg = np.maximum(0.0, np.minimum(a[:, :, None], self._SX) - self._NXT)
            height = np.maximum(0.0, b[:, :, None] - self._SY)
            return ((first + (seg * height).sum(axis=2)) * pos).mean(axis=1)
        return np.array([
            np.mean([_pareto.hv_improvement(front, c) for front, c in zip(self._fronts, draws)])
            for draws in C
        ])

    def __call__(self, delta):
        """NEHVI of each row of an (m, d) block of candidates, as m values;
        a single 1-D candidate gives a float.

        For a GP objective a block costs two kernel matrices, one triangular
        and one Cholesky solve with m right-hand sides and one product with
        the scenario residuals; K=1 and K=2 gains are computed on (m, n_mc,
        ...) arrays. K >= 3 gains, and objectives that are not a GpModel,
        go one row at a time. Blocks of more than 32 rows are scored 32 rows
        at a time, so a row's value depends only on the rows of its chunk,
        and on those only through floating-point rounding.
        """
        D = np.asarray(delta, dtype=float)
        if D.ndim not in (1, 2) or D.shape[-1] != self.X.shape[1]:
            raise ValueError("candidate/history dimension mismatch")
        rows = np.atleast_2d(D)
        vals = np.empty(len(rows))
        for i in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[i : i + _CHUNK_ROWS]
            vals[i : i + _CHUNK_ROWS] = self._gains(self._candidate_samples(chunk))
        return float(vals[0]) if D.ndim == 1 else vals


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


def _coordinate_walk(u: np.ndarray, v: float, project, cfg: AcqConfig, speculate: bool):
    """One restart's cyclic first-improvement coordinate search from (u, v).

    Each pass tries +step then -step along every coordinate in turn,
    projecting each trial back onto the domain; the first trial that beats
    v moves u there, and the pass goes on from the next move. Up to
    local_steps passes run per step, which halves from 0.25 down to 1e-4
    once a pass finds nothing.

    A generator: it yields trials around u as an (m, d) block and is sent
    their m values. With `speculate` the block is the rest of the current
    pass; an improvement moves u and the pass resumes after that move with
    a fresh block, so the trials after the move are discarded. Without it
    the block is the next trial alone. Either way, given the same values
    the walk takes the same path as one trial at a time. Returns the final
    (u, v).
    """
    moves = [(i, sgn) for i in range(len(u)) for sgn in (1.0, -1.0)]
    step = 0.25
    while step >= 1e-4:
        for _ in range(cfg.local_steps):
            improved = False
            start = 0
            while start < len(moves):
                trials = []
                j = start
                while j < len(moves) and (speculate or not trials):
                    i, sgn = moves[j]
                    j += 1
                    trial = u.copy()
                    trial[i] += sgn * step
                    trial = project(trial)
                    if trial is not None:
                        trials.append((j, trial))
                if not trials:
                    break
                vals = yield np.stack([t for _, t in trials])
                start = j
                for (after, trial), tv in zip(trials, vals):
                    if tv > v:
                        u, v, improved = trial, tv, True
                        start = after
                        break
            if not improved:
                break
        step *= 0.5
    return u, v


def optimize_acq(acq, domain, cfg: AcqConfig | None = None) -> np.ndarray:
    """Seeded raw search plus coordinate-wise local refinement.

    Raw candidates are uniform in the box (scale-aware per dimension) or
    Dirichlet(1, ..., 1) on the simplex. The top n_restarts are refined by
    ``_coordinate_walk``: a cyclic +/- coordinate search with a halving step
    (0.25 down to 1e-4), projecting each trial back onto the domain.
    Deterministic given cfg.seed; value ties resolve to the lowest candidate
    index, and across restarts to the lowest restart.

    `acq` maps an (m, d) block of points (raw box coordinates, or simplex
    coefficients) to m values, and must score each row as a pure function
    of that row, up to rounding: each distinct candidate is scored once and
    a revisited one reuses that score. NEHVI qualifies because it fixes all
    its random numbers when built. The raw candidates are one block. The
    restarts then walk in lockstep: each round collects every unfinished
    walk's pending trials, scores the ones not seen before in one block, and
    sends each walk its values. The walks never interact, so each follows
    the path it would follow alone. Each walk's pending trials are the rest
    of its pass, which it may discard after a move; an acquisition with a
    false ``vectorized`` attribute scores a block row by row, so there each
    walk sends only its next trial and no discarded trial is scored.
    """
    cfg = cfg or AcqConfig()
    rng = np.random.default_rng(cfg.seed)
    is_box = isinstance(domain, BoundedParamSpace)
    if not is_box and not isinstance(domain, SimplexDomain):
        raise TypeError("domain must be a BoundedParamSpace or SimplexDomain")

    if is_box:
        raw = domain.sample(rng, cfg.n_raw_candidates)
        units = np.stack([domain.to_unit(x) for x in raw])
        to_points = lambda U: np.stack([domain.from_unit(u) for u in U])
        project = lambda u: np.clip(u, 0.0, 1.0)
    else:
        units = rng.dirichlet(np.ones(domain.n), size=cfg.n_raw_candidates)
        to_points = lambda U: U
        project = _project_simplex

    seen: dict[bytes, float] = {}

    def score(U: np.ndarray) -> np.ndarray:
        # One acq call for the rows of U not scored before; non-finite
        # values count as -inf.
        keys = [u.tobytes() for u in U]
        fresh: dict[bytes, np.ndarray] = {}
        for key, u in zip(keys, U):
            if key not in seen:
                fresh.setdefault(key, u)
        if fresh:
            got = np.asarray(acq(to_points(np.stack(list(fresh.values())))), dtype=float)
            if got.shape != (len(fresh),):
                raise ValueError("acquisition must return one value per candidate row")
            for key, v in zip(fresh, got.tolist()):
                seen[key] = v if math.isfinite(v) else -math.inf
        return np.array([seen[key] for key in keys])

    vals = score(units)
    if not np.any(vals > -math.inf):
        raise NumericalError("acquisition returned non-finite values for every candidate")

    top = np.argsort(-vals, kind="stable")[: cfg.n_restarts]
    speculate = getattr(acq, "vectorized", True)
    walks = [
        _coordinate_walk(units[i].copy(), vals[i], project, cfg, speculate)
        for i in top if vals[i] > -math.inf
    ]
    results: list = [None] * len(walks)
    pending: dict[int, np.ndarray] = {}

    def advance(w: int, sent) -> None:
        try:
            pending[w] = walks[w].send(sent)
        except StopIteration as stop:
            results[w] = stop.value

    for w in range(len(walks)):
        advance(w, None)
    while pending:
        round_ = list(pending.items())
        pending.clear()
        got = score(np.concatenate([block for _, block in round_]))
        at = 0
        for w, block in round_:
            advance(w, got[at : at + len(block)])
            at += len(block)

    # max keeps the first of equal values: ties go to the lowest restart.
    best_u, _ = max(results, key=lambda r: r[1])
    if is_box:
        return domain.from_unit(best_u)
    return best_u / best_u.sum()
