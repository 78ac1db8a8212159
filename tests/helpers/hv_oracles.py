"""Hypervolume oracles that share no code with bofusion.pareto's partition.

hypervolume_mc is the seeded Monte-Carlo estimate criterion 3 compares the
exact hypervolume against; inclusion_exclusion_hv is exact but exponential
in the number of points. The sweeps are a descending staircase in 2-d and
slicing along the last axis in 3-d; hvi_sweep is the hypervolume gain of
one candidate over a front for K <= 3, the per-scenario gain the NEHVI
oracle averages.
"""
import itertools

import numpy as np

from bofusion.pareto import _as_points, pareto_front

MC_SAMPLES_DEFAULT = 100_000


def hypervolume_mc(points, ref=None, n_samples: int = MC_SAMPLES_DEFAULT, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo hypervolume estimate and its standard error."""
    pts = _as_points(points)
    if len(pts) == 0:
        return 0.0, 0.0
    if ref is not None:
        pts = pts - np.asarray(ref, dtype=float)
    hi = pts.max(axis=0)
    box = float(np.prod(hi))
    if box <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    samples = rng.uniform(size=(n_samples, pts.shape[1])) * hi
    covered = np.zeros(n_samples, dtype=bool)
    for p in pts:
        covered |= np.all(samples <= p, axis=1)
    p_hat = covered.mean()
    stderr = box * float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return box * float(p_hat), stderr


def inclusion_exclusion_hv(points):
    """Exact hypervolume by inclusion–exclusion over box intersections.

    Exponential in |points|; used only on small fronts.
    """
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(range(len(pts)), r):
            inter = pts[list(combo)].min(axis=0)
            total += (-1) ** (r + 1) * float(np.prod(inter))
    return total


def _staircase2d(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mutually nondominated 2-d points sorted by x descending (y ascending)."""
    order = np.argsort(-pts[:, 0], kind="stable")
    return pts[order, 0], pts[order, 1]


def _hv2(pts: np.ndarray) -> float:
    if len(pts) == 0:
        return 0.0
    sx, sy = _staircase2d(pts)
    widths = sx - np.append(sx[1:], 0.0)
    return float(np.dot(widths, sy))


def _hv3(pts: np.ndarray) -> float:
    # Slice along z: between consecutive z levels the attained 2-d region is
    # the front of every point at or above the slab.
    if len(pts) == 0:
        return 0.0
    order = np.argsort(-pts[:, 2], kind="stable")
    pts = pts[order]
    z = np.append(pts[:, 2], 0.0)
    hv = 0.0
    for i in range(len(pts)):
        depth = z[i] - z[i + 1]
        if depth <= 0.0:
            continue
        prefix = pareto_front(pts[: i + 1, :2]).points
        hv += depth * _hv2(prefix)
    return float(hv)


def _hvi2(sx: np.ndarray, sy: np.ndarray, a: float, b: float) -> float:
    """2-d hypervolume gain of candidate (a, b) over a staircase (x desc)."""
    if a <= 0.0 or b <= 0.0:
        return 0.0
    if len(sx) == 0:
        return a * b
    gain = max(0.0, a - sx[0]) * b
    nxt = np.append(sx[1:], 0.0)
    seg = np.maximum(0.0, np.minimum(a, sx) - nxt)
    gain += float(np.dot(seg, np.maximum(0.0, b - sy)))
    return gain


def hvi_sweep(front_points, cand) -> float:
    """Hypervolume gain of `cand` over a front (zero reference), K <= 3."""
    pts = np.asarray(front_points, dtype=float)
    cand = np.asarray(cand, dtype=float)
    if not np.all(np.isfinite(cand)) or np.any(cand <= 0.0):
        return 0.0
    if cand.size == 1:
        best = pts.max() if len(pts) else 0.0
        return float(max(0.0, cand[0] - best))
    if cand.size == 2:
        sx, sy = _staircase2d(pts) if len(pts) else (np.empty(0), np.empty(0))
        return _hvi2(sx, sy, float(cand[0]), float(cand[1]))
    if cand.size == 3:
        joined = pareto_front(np.vstack([pts, cand]) if len(pts) else cand[None, :]).points
        return max(0.0, _hv3(joined) - _hv3(pts))
    raise ValueError("hvi_sweep covers K <= 3")
