"""Pareto fronts and hypervolume under the all-maximize convention.

All score vectors are normalized higher-is-better values, so the reference
point is the zero vector throughout. Hypervolume and hypervolume improvement
are exact for every K and share one partition of the region a front leaves
undominated into axis-aligned columns (the cell decomposition behind qEHVI:
Daulton et al., NeurIPS 2020; Lacour, Klamroth & Fonseca 2017). K=1 is one
column and K=2 is the staircase; above that, columns that adjacent slabs of
the first coordinate repeat are joined, so a K=3 front of n points has at
most 2n + 1 columns and a K=4 front at most (n + 1)^2. Fronts whose bound
(`_max_cells`) exceeds MAX_CELLS are refused before anything is built.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: Most columns `_partition` may need for one front before it refuses.
MAX_CELLS = 1_000_000


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 0)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError(f"points must form a 2-d array, got shape {pts.shape}")
    return pts


def dominates(a, b) -> bool:
    """Weak Pareto domination: a >= b everywhere and a > b somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("dominates() needs two equal-length vectors")
    return bool(np.all(a >= b) and np.any(a > b))


@dataclass(frozen=True)
class ParetoFront:
    """Maximal points (by weak domination) that strictly dominate the zero
    reference, in first-seen id order."""

    points: np.ndarray
    ids: tuple[int, ...]

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        if len(self.ids) != len(pts):
            raise ValueError("ids/points length mismatch")

    def __len__(self) -> int:
        return len(self.points)


def pareto_front(points, ids=None) -> ParetoFront:
    """Extract the maximal set, dropping points that fail to dominate zero.

    Exact duplicate vectors keep only the earliest id. All-dropped input
    yields an empty front (hypervolume 0), which happens legitimately when
    every evaluation so far clipped to a zero coordinate.
    """
    pts = _as_points(points)
    n = len(pts)
    if ids is None:
        ids = list(range(n))
    ids = [int(i) for i in ids]
    if len(ids) != n:
        raise ValueError("ids/points length mismatch")
    if n == 0:
        return ParetoFront(np.zeros((0, 0)), ())

    keep = np.all(pts > 0.0, axis=1) & np.all(np.isfinite(pts), axis=1)
    pts_k = pts[keep]
    ids_k = [i for i, k in zip(ids, keep) if k]
    if len(pts_k) == 0:
        return ParetoFront(np.zeros((0, pts.shape[1])), ())

    ge = np.all(pts_k[:, None, :] >= pts_k[None, :, :], axis=-1)
    gt = np.any(pts_k[:, None, :] > pts_k[None, :, :], axis=-1)
    dominated = np.any(ge & gt, axis=0)

    out_pts, out_ids, seen = [], [], set()
    for row, pid, dom in zip(pts_k, ids_k, dominated):
        if dom:
            continue
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out_pts.append(row)
        out_ids.append(pid)
    return ParetoFront(np.array(out_pts), tuple(out_ids))


def _max_cells(n: int, K: int) -> int:
    """Most columns `_partition` can return for n points in K objectives.

    K=2 has n + 1. Going down the first coordinate's slabs, each adds a
    point and only columns its upper neighbour lacks are new: at K=3 the two
    beside the point in the staircase (2n + 1 in all), above that at most
    the slab's whole partition, B_K(n) = 1 + sum_{m<=n} B_{K-1}(m).
    """
    if K <= 2:
        return n + 1 if K == 2 else 1
    bound = [2 * m + 1 for m in range(n + 1)]
    for _ in range(K - 3):
        bound = list(itertools.accumulate(bound[1:], initial=1))
    return bound[n]


def _partition(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The region a set of points leaves undominated, as columns
    [l, u) x [h, inf).

    `pts` (n, K) are strictly positive; n may be 0. The columns split the
    first K-1 coordinates into boxes [l, u) on which h, the largest last
    coordinate among the points that weakly dominate u (0 when none does),
    is constant. Returns l and u as (K-1, cells) and h as (cells,); K=1
    gives one column, K=2 the staircase. A column reaching inf has h = 0.
    The slab of the first coordinate below u sees only the points with
    p_0 >= u, so its columns are the (K-1)-objective partition of their
    other coordinates; a column that adjacent slabs repeat becomes one.
    Refuses, with NumericalError, points that may need more than MAX_CELLS
    columns (`_max_cells`).
    """
    n, K = pts.shape
    cells = _max_cells(n, K)
    if cells > MAX_CELLS:
        raise NumericalError(
            f"hypervolume: a {n}-point front in {K} objectives may need {cells} cells "
            f"(limit {MAX_CELLS})"
        )
    return _columns(pts)


def _columns(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_partition` without the size check."""
    n, K = pts.shape
    if K == 1:
        return np.zeros((0, 1)), np.zeros((0, 1)), np.array([pts.max(initial=0.0)])
    grids = [np.concatenate([[0.0], np.unique(pts[:, k]), [np.inf]]) for k in range(min(K - 1, 2))]
    if K <= 3:
        # Each point lifts the grid cell whose upper corner is its own
        # value; suffix maxima along every axis then give each cell the
        # largest lift among the points that reach it. On a front of two
        # objectives every cell's h differs from its neighbours'; at three,
        # a run of equal h along the last axis is one column.
        H = np.zeros(tuple(len(g) - 1 for g in grids))
        np.maximum.at(H, tuple(np.searchsorted(g, pts[:, k]) - 1 for k, g in enumerate(grids)), pts[:, -1])
        for ax in range(K - 1):
            H = np.flip(np.maximum.accumulate(np.flip(H, ax), axis=ax), ax)
        if K == 2:
            return grids[0][None, :-1], grids[0][None, 1:], H
        first = np.ones(H.shape, dtype=bool)
        first[:, 1:] = H[:, 1:] != H[:, :-1]
        last = np.ones(H.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        slab, j0 = np.nonzero(first)
        g = grids[1]
        cols = np.column_stack([g[j0], g[np.nonzero(last)[1] + 1], H[first]])
    else:
        parts = [_columns(pts[pts[:, 0] >= u, 1:]) for u in grids[0][1:]]
        cols = np.concatenate([np.vstack([L, U, H]).T for L, U, H in parts])
        slab = np.repeat(np.arange(len(parts)), [len(H) for _, _, H in parts])
    # Slab i of the first coordinate sees only the points with
    # p_0 >= grids[0][i + 1]; a column that adjacent slabs repeat is joined.
    order = np.lexsort((slab, *cols.T[::-1]))
    cols, slab = cols[order], slab[order]
    first = np.r_[True, np.any(cols[1:] != cols[:-1], axis=1) | (slab[1:] != slab[:-1] + 1)]
    last = np.r_[first[1:], True]
    cols = cols[first]
    L = np.vstack([grids[0][slab[first]], cols[:, : K - 2].T])
    U = np.vstack([grids[0][slab[last] + 1], cols[:, K - 2 : 2 * K - 4].T])
    return L, U, cols[:, -1]


def _hvi(C: np.ndarray, L: np.ndarray, U: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Hypervolume gain of candidates C (..., K) over partitions from
    `_partition`: sum over the cells of max(0, c_K - h) times
    prod_k max(0, min(c_k, u_k) - l_k). Leading axes of C broadcast against
    those of H (..., cells) and of L[k], U[k] (K-1, ..., cells). Padding
    cells with l = u = 0 and h = inf add nothing."""
    gain = np.maximum(C[..., -1:] - H, 0.0)
    for k in range(len(L)):
        gain *= np.maximum(np.minimum(C[..., k : k + 1], U[k]) - L[k], 0.0)
    return gain.sum(axis=-1)


def hypervolume(front, ref=None) -> float:
    """Dominated volume between `ref` (default zero) and the given points.

    Exact for every K: the sum over the finite cells of `_partition` of
    their width times h. Points are screened first: any input point not
    strictly dominating the reference is an error here (fronts built by
    pareto_front never contain one), and so is a front needing more than
    MAX_CELLS cells.
    """
    if isinstance(front, ParetoFront):
        pts = front.points
    else:
        pts = _as_points(front)
    if len(pts) == 0:
        return 0.0
    if ref is not None:
        pts = pts - np.asarray(ref, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise NumericalError("hypervolume: non-finite point")
    if np.any(pts <= 0.0):
        raise NumericalError("hypervolume: point does not strictly dominate the reference")
    L, U, H = _partition(pareto_front(pts).points)
    finite = np.all(np.isfinite(U), axis=0)
    return float(np.prod(U[:, finite] - L[:, finite], axis=0) @ H[finite])


def hv_improvement(front, candidate, ref=None) -> float:
    """hypervolume(front + candidate) - hypervolume(front).

    A candidate dominated by the front, or one failing to dominate the
    reference, contributes exactly 0.
    """
    if isinstance(front, ParetoFront):
        pts = front.points
    else:
        pts = pareto_front(front).points
    cand = np.asarray(candidate, dtype=float)
    if cand.ndim != 1:
        raise ValueError("candidate must be a vector")
    if ref is not None:
        r = np.asarray(ref, dtype=float)
        pts = pareto_front(pts - r).points if len(pts) else pts
        cand = cand - r
    if len(pts) and pts.shape[1] != cand.size:
        raise ValueError("candidate/front dimension mismatch")
    if not np.all(np.isfinite(cand)) or np.any(cand <= 0.0):
        return 0.0
    pts = pts if len(pts) else np.zeros((0, cand.size))
    return float(_hvi(cand, *_partition(pts)))
