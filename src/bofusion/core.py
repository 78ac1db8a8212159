"""Search spaces, objective specifications, and score normalization.

Raw losses and metrics live on incompatible scales and orientations.
Everything downstream (GP targets, hypervolume, scalarization) consumes
scores mapped into [0, 1] with higher-is-better for *every* entry, so the
multi-objective reference point can always be the zero vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EvaluationFailedError

SCALES = ("linear", "log")
DIRECTIONS = ("minimize", "maximize")
KINDS = ("loss", "metric")

#: Raw-scale window widths used when deriving normalization bounds.
METRIC_WINDOW = 0.1
LOSS_WINDOW = 1.0


def _as_float_vector(x, name="x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ParamDim:
    """One box dimension: bounds, sampling scale, integer snapping."""

    name: str
    lower: float
    upper: float
    scale: str = "linear"
    integer: bool = False

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r} for dim {self.name!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"non-finite bounds for dim {self.name!r}")
        if not self.lower < self.upper:
            raise ValueError(f"dim {self.name!r}: lower must be < upper")
        if self.scale == "log" and self.lower <= 0:
            raise ValueError(f"dim {self.name!r}: log scale needs lower > 0")


@dataclass(frozen=True)
class BoundedParamSpace:
    """A box of named hyperparameter dimensions.

    The space also owns the raw <-> unit-cube mapping: log-scaled dims become
    linear in unit coordinates, integer dims round on the way back out.
    """

    dims: tuple[ParamDim, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def _lo_hi(self, d: ParamDim):
        if d.scale == "log":
            return math.log(d.lower), math.log(d.upper)
        return d.lower, d.upper

    def to_unit(self, x) -> np.ndarray:
        x = _as_float_vector(x)
        if x.size != self.dim:
            raise ValueError("point/space dimension mismatch")
        u = np.empty(self.dim)
        for i, d in enumerate(self.dims):
            lo, hi = self._lo_hi(d)
            v = math.log(x[i]) if d.scale == "log" else x[i]
            u[i] = (v - lo) / (hi - lo)
        return np.clip(u, 0.0, 1.0)

    def from_unit(self, u) -> np.ndarray:
        u = np.clip(_as_float_vector(u, "u"), 0.0, 1.0)
        if u.size != self.dim:
            raise ValueError("point/space dimension mismatch")
        x = np.empty(self.dim)
        for i, d in enumerate(self.dims):
            lo, hi = self._lo_hi(d)
            v = lo + u[i] * (hi - lo)
            if d.scale == "log":
                v = math.exp(v)
            if d.integer:
                v = float(np.clip(round(v), math.ceil(d.lower), math.floor(d.upper)))
            # exp/linear arithmetic can overshoot the bound by an ulp
            x[i] = min(max(v, d.lower), d.upper)
        return x

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n scale-aware uniform draws, returned as an (n, dim) raw-coordinate array."""
        u = rng.uniform(size=(n, self.dim))
        return np.stack([self.from_unit(row) for row in u])

    def contains(self, x) -> bool:
        x = _as_float_vector(x)
        return bool(np.all(x >= [d.lower for d in self.dims]) and np.all(x <= [d.upper for d in self.dims]))

    def as_dict(self, x) -> dict[str, float]:
        x = _as_float_vector(x)
        return {d.name: float(x[i]) for i, d in enumerate(self.dims)}


@dataclass(frozen=True)
class ObjectiveEntry:
    """One objective: raw orientation plus the raw-scale normalization window."""

    name: str
    direction: str
    norm_min: float
    norm_max: float
    kind: str

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.norm_min < self.norm_max:
            raise ValueError(f"objective {self.name!r}: norm_min must be < norm_max")

    @property
    def width(self) -> float:
        return self.norm_max - self.norm_min


@dataclass(frozen=True)
class ObjectiveSpec:
    """Ordered collection of objectives shared by one optimization stage."""

    entries: tuple[ObjectiveEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("objective spec needs at least one entry")
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate objective names")
        if sum(1 for e in entries if e.kind == "loss") > 1:
            raise ValueError("at most one loss entry per spec")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def subset(self, kinds: Iterable[str]) -> "ObjectiveSpec":
        kinds = tuple(kinds)
        return ObjectiveSpec(tuple(e for e in self.entries if e.kind in kinds))

    def kind_mask(self, kinds: Iterable[str]) -> np.ndarray:
        kinds = tuple(kinds)
        return np.array([e.kind in kinds for e in self.entries], dtype=bool)


@dataclass(frozen=True)
class EvalMeta:
    seed: int
    eval_index: int
    wall_ms: int
    failed: bool = False


@dataclass(frozen=True)
class Observation:
    """One completed (or failed-and-penalized) evaluation."""

    x: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    meta: EvalMeta

    def __post_init__(self):
        x = _as_float_vector(self.x).copy()
        raw = _as_float_vector(self.raw, "raw").copy()
        normalized = _as_float_vector(self.normalized, "normalized").copy()
        if raw.size != normalized.size:
            raise ValueError("raw/normalized length mismatch")
        if not np.all((normalized >= 0.0) & (normalized <= 1.0)):
            raise ValueError("normalized values must lie in [0, 1]")
        for arr in (x, raw, normalized):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", normalized)


def normalize(raw: float, entry: ObjectiveEntry) -> float:
    """Map one raw objective value into the clipped higher-is-better unit window."""
    if not math.isfinite(raw):
        raise EvaluationFailedError(
            f"objective {entry.name!r}: non-finite raw value {raw!r}"
        )
    if entry.direction == "maximize":
        v = (raw - entry.norm_min) / entry.width
    else:
        v = (entry.norm_max - raw) / entry.width
    return float(min(1.0, max(0.0, v)))


def normalize_vector(raws, spec: ObjectiveSpec) -> np.ndarray:
    raws = _as_float_vector(raws, "raws")
    if raws.size != len(spec):
        raise ValueError("raw vector length does not match objective spec")
    return np.array([normalize(r, e) for r, e in zip(raws, spec.entries)])


def derive_norm_bounds(trajectory_values, kind: str, direction: str) -> tuple[float, float]:
    """Normalization window anchored at the best post-convergence value.

    "Best" follows the direction (highest for maximize, lowest for
    minimize). The anchor is that value floored to one decimal — which
    keeps it at most one window-width below the best value, so the best
    value always lands inside the window — and the window spans one fixed
    raw-scale width upward (0.1 for metrics, 1.0 for losses). For
    minimize-direction entries normalize() flips orientation inside the
    same window.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    values = _as_float_vector(trajectory_values, "trajectory_values")
    if values.size == 0:
        raise ValueError("empty trajectory")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite trajectory values")
    best = float(values.max() if direction == "maximize" else values.min())
    anchor = math.floor(best * 10.0 + 1e-12) / 10.0
    if anchor > best:  # the epsilon guard can overshoot for values just below a decimal
        anchor -= 0.1
    width = METRIC_WINDOW if kind == "metric" else LOSS_WINDOW
    return anchor, anchor + width


def scalarize_sum(normalized, spec: ObjectiveSpec, kinds: Sequence[str] = KINDS) -> float:
    """Sum of the normalized values whose entry kind is in `kinds`."""
    v = _as_float_vector(normalized, "normalized")
    if v.size != len(spec):
        raise ValueError("value vector length does not match objective spec")
    mask = spec.kind_mask(kinds)
    if not mask.any():
        raise ValueError(f"kind filter {tuple(kinds)!r} selects no objectives")
    return float(v[mask].sum())
