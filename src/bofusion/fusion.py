"""Checkpoint collection and weight-space fusion.

Members are flat float64 weight vectors captured along one training
trajectory. Fusion is a convex combination sum_i delta_i * w_i with delta on
the simplex. The greedy-soup and learned-SWA baselines below search
coefficient space through a `delta -> value` callable, so the pipeline
runs them against its scorer exactly as the tests run them against oracles.

Checkpoints serialize as a raw little-endian float64 payload plus a JSON
sidecar header, so external trainers can produce them from any stack.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CheckpointDimError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    EvaluationFailedError,
)

CHECKPOINT_FORMAT = "ckpt64le/1"
MANIFEST_FORMAT = "member-manifest/1"

SIMPLEX_ATOL = 1e-9
FD_STEP = 1e-4


@dataclass(frozen=True)
class SimplexCoefficients:
    """Fusion coefficients: non-negative, summing to 1 within 1e-9."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("coefficients must form a non-empty vector")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("coefficients must be finite and non-negative")
        if abs(v.sum() - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"coefficients must sum to 1 within {SIMPLEX_ATOL}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def uniform(n: int) -> "SimplexCoefficients":
        return SimplexCoefficients(np.full(n, 1.0 / n))

    @staticmethod
    def one_hot(n: int, i: int) -> "SimplexCoefficients":
        v = np.zeros(n)
        v[i] = 1.0
        return SimplexCoefficients(v)


@dataclass(frozen=True)
class Member:
    """One collected checkpoint."""

    id: int
    step: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a non-empty vector")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class MemberSet:
    """Checkpoints from one trajectory: equal dims, steps increasing with id."""

    members: tuple[Member, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("member set must not be empty")
        dim = members[0].weights.size
        if any(m.weights.size != dim for m in members):
            raise CheckpointDimError("members disagree on weight dimension")
        steps = [m.step for m in members]
        ids = [m.id for m in members]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("member steps must be strictly increasing")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("member ids must be strictly increasing")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].weights.size

    @property
    def weights_matrix(self) -> np.ndarray:
        return np.stack([m.weights for m in self.members])

    @staticmethod
    def from_weights(weights: Sequence[np.ndarray], steps: Sequence[int] | None = None) -> "MemberSet":
        if steps is None:
            steps = range(len(list(weights)))
        return MemberSet(tuple(
            Member(i, int(s), np.asarray(w, dtype=float))
            for i, (s, w) in enumerate(zip(steps, weights))
        ))

    def subset(self, ids: Sequence[int]) -> "MemberSet":
        by_id = {m.id: m for m in self.members}
        return MemberSet(tuple(by_id[i] for i in sorted(set(int(i) for i in ids))))


def collection_schedule(total_steps: int, convergence_step: int, n: int = 15) -> tuple[list[int], bool]:
    """n member-collection steps, evenly spaced over the window
    [ceil(0.5 * B), min(2 * B, T)] for convergence step B and horizon T.

    Returns (steps, short_window). When the window holds fewer than n
    distinct steps every step in the window is returned and the flag is set.
    """
    if total_steps < 1 or convergence_step < 1:
        raise ValueError("total_steps and convergence_step must be >= 1")
    if convergence_step > total_steps:
        raise ValueError("convergence_step cannot exceed total_steps")
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = math.ceil(0.5 * convergence_step)
    hi = min(2 * convergence_step, total_steps)
    if hi - lo + 1 < n:
        return list(range(lo, hi + 1)), True
    # Span >= n - 1 guarantees rounded linspace values are strictly increasing.
    steps = np.rint(np.linspace(lo, hi, n)).astype(int)
    return [int(s) for s in steps], False


def fuse(members: MemberSet, delta: SimplexCoefficients | np.ndarray) -> np.ndarray:
    """Convex combination of member weights under simplex coefficients."""
    if not isinstance(delta, SimplexCoefficients):
        delta = SimplexCoefficients(np.asarray(delta, dtype=float))
    if len(delta) != len(members):
        raise ValueError("coefficient/member count mismatch")
    return members.weights_matrix.T @ delta.values


def fuse_uniform(members: MemberSet, subset: Sequence[int] | None = None) -> np.ndarray:
    """Plain average of the selected members (all members by default)."""
    ms = members if subset is None else members.subset(subset)
    return fuse(ms, SimplexCoefficients.uniform(len(ms)))


def pool_delta(n: int, ids: Sequence[int]) -> np.ndarray:
    """Coefficients averaging the members in `ids` uniformly, zero elsewhere."""
    d = np.zeros(n)
    d[list(ids)] = 1.0 / len(ids)
    return d


def fuse_greedy(
    singles: Sequence[float],
    quality: Callable[[np.ndarray], float],
    order: Sequence[int],
) -> tuple[list[int], np.ndarray]:
    """Greedy soup (Wortsman et al., 2022) in coefficient space.

    `singles[i]` is member i's standalone quality (higher is better, -inf
    for a member that could not be scored). Members are tried in `order`,
    which lists every member id once, best member first; the first one
    leads the pool, and each later one is kept iff the uniform average of
    the pool with it scores at least the pool's current quality.
    `quality(delta)` is called once per trial pool, n - 1 times; a trial it
    cannot score should return -inf, and is never kept.

    Returns (kept member ids in inclusion order, their pool coefficients).
    """
    n = len(singles)
    if sorted(order) != list(range(n)):
        raise ValueError("order must list every member id once")
    kept = [order[0]]
    best_q = float(singles[order[0]])
    if not math.isfinite(best_q):
        raise EvaluationFailedError("no finite standalone quality")
    for mid in order[1:]:
        trial = kept + [mid]
        q = float(quality(pool_delta(n, trial)))
        if q >= best_q:
            kept, best_q = trial, q
    return kept, pool_delta(n, kept)


def _project_nonneg_renorm(delta: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    clipped = np.maximum(delta, 0.0)
    s = clipped.sum()
    if s < 1e-12:
        return fallback.copy()
    return clipped / s


def fuse_learned(
    n: int,
    loss: Callable[[np.ndarray], float],
    steps: int = 200,
    lr: float = 0.1,
) -> SimplexCoefficients:
    """Minimize loss(delta) over the n-member simplex by projected
    finite-difference gradient descent from the uniform coefficients
    (central differences, h = 1e-4, so `loss` is also called up to h off the
    simplex).

    Raises EvaluationFailedError when the loss is non-finite at the start or
    a gradient has a non-finite entry.
    """
    if steps < 0 or lr <= 0.0:
        raise ValueError("need steps >= 0 and lr > 0")
    delta = np.full(n, 1.0 / n)
    if not math.isfinite(float(loss(delta))):
        raise EvaluationFailedError("loss is non-finite at the uniform initialization")
    for _ in range(steps):
        grad = np.empty(n)
        for i in range(n):
            up = delta.copy()
            dn = delta.copy()
            up[i] += FD_STEP
            dn[i] -= FD_STEP
            grad[i] = (float(loss(up)) - float(loss(dn))) / (2.0 * FD_STEP)
        if not np.all(np.isfinite(grad)):
            raise EvaluationFailedError("non-finite finite-difference gradient")
        delta = _project_nonneg_renorm(delta - lr * grad, delta)
    return SimplexCoefficients(delta / delta.sum())


# ---------------------------------------------------------------------------
# Checkpoint and manifest serialization.

def _sidecar_path(path: str) -> str:
    return path + ".json"


def atomic_write(path: str, data: bytes | str) -> None:
    """Write through a sibling temp file and a rename, so readers see the old
    file or the whole new one; text is written as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(weights, meta: dict, path: str) -> str:
    """Write payload to `path` and the JSON header to `path`.json.

    `meta` must carry integer `id` and `step`. Returns the sidecar path.
    """
    w = np.asarray(weights, dtype="<f8").ravel()
    if w.size == 0:
        raise ValueError("refusing to save an empty weight vector")
    header = {
        "format": CHECKPOINT_FORMAT,
        "dim": int(w.size),
        "id": int(meta["id"]),
        "step": int(meta["step"]),
        "dtype": "f64",
        "endianness": "little",
    }
    atomic_write(path, w.tobytes())
    sidecar = _sidecar_path(path)
    atomic_write(sidecar, json.dumps(header, indent=1) + "\n")
    return sidecar


def load_checkpoint(path: str) -> Member:
    """Read one checkpoint given its payload path (or its sidecar path)."""
    if path.endswith(".json"):
        sidecar, payload_path = path, path[: -len(".json")]
    else:
        sidecar, payload_path = _sidecar_path(path), path
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            header = json.load(fh)
    except FileNotFoundError:
        raise CheckpointFormatError(f"missing sidecar header {sidecar!r}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed sidecar {sidecar!r}: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointFormatError(
            f"unknown checkpoint format {header.get('format')!r} in {sidecar!r}"
        )
    if header.get("dtype") != "f64" or header.get("endianness") != "little":
        raise CheckpointFormatError(f"unsupported payload encoding in {sidecar!r}")
    try:
        dim = int(header["dim"])
        mid = int(header["id"])
        step = int(header["step"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"bad header fields in {sidecar!r}: {exc}") from None
    if dim < 1:
        raise CheckpointFormatError(f"non-positive dim in {sidecar!r}")
    with open(payload_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 * dim:
        raise CheckpointTruncatedError(
            f"payload {payload_path!r} holds {len(blob)} bytes, header wants {8 * dim}"
        )
    if len(blob) != 8 * dim:
        raise CheckpointDimError(
            f"payload {payload_path!r} holds {len(blob) // 8} values, header says {dim}"
        )
    weights = np.frombuffer(blob, dtype="<f8")
    return Member(mid, step, weights)


def save_member_set(members: MemberSet, out_dir: str, stem: str = "member") -> str:
    """Write every member plus a manifest.json index; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    rel_payloads = []
    for m in members.members:
        name = f"{stem}{m.id:03d}.ckpt"
        save_checkpoint(m.weights, {"id": m.id, "step": m.step}, os.path.join(out_dir, name))
        rel_payloads.append(name)
    manifest = {"format": MANIFEST_FORMAT, "members": rel_payloads}
    path = os.path.join(out_dir, "manifest.json")
    atomic_write(path, json.dumps(manifest, indent=1) + "\n")
    return path


def load_member_set(manifest_path: str) -> MemberSet:
    """Load a member set from a manifest.json written by save_member_set."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointFormatError(f"missing manifest {manifest_path!r}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed manifest {manifest_path!r}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise CheckpointFormatError(f"unknown manifest format in {manifest_path!r}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = manifest.get("members")
    if not isinstance(entries, list) or not entries:
        raise CheckpointFormatError(f"manifest {manifest_path!r} lists no members")
    members = [load_checkpoint(os.path.join(base, rel)) for rel in entries]
    members.sort(key=lambda m: m.id)
    return MemberSet(tuple(members))
