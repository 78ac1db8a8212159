"""The two optimization stages wired together, plus the black-box protocol.

Stage 1 (run_hpbo) maximizes the summed normalized validation metrics over a
hyperparameter box with a GP + log-EI loop. The pipeline then retrains once
at the winning hyperparameters while the trainer collects fusion members
along its trajectory, derives normalization windows from the members'
standalone scores (derive_windows), and stage 2 (run_mobo) maximizes
Monte-Carlo noisy hypervolume improvement over simplex fusion coefficients
with one GP per objective; MoboState.best_index records the selected point.
fusion_baselines then scores uniform SWA, greedy soup (fusion.fuse_greedy)
and learned SWA (fusion.fuse_learned) for the report. run_pipeline,
run_demo_misalign and `bofusion mobo` share these functions.

External trainers and scorers are separate processes speaking
newline-delimited JSON on stdin/stdout:

    request: {"id": int, "role": "trainer", "params": {name: number}}
             {"id": int, "role": "scorer",  "delta": [number, ...]}
    reply:   {"id": int, "ok": true, "objectives": {name: number},
              "convergence_step": int (trainer only)}
             {"id": int, "ok": false, "error": "..."}

Replies must round-trip the request id. A failed or protocol-violating
evaluation is recorded as a penalized all-zero-normalized observation and
the loop continues; only an all-failed history aborts.
"""
from __future__ import annotations

import json
import math
import os
import queue
import subprocess
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .acquisition import (
    AcqConfig, NehviAcquisition, SimplexDomain, check_nehvi_size, log_ei, optimize_acq,
)
from .core import (
    BoundedParamSpace,
    EvalMeta,
    Observation,
    ObjectiveEntry,
    ObjectiveSpec,
    ParamDim,
    derive_norm_bounds,
    normalize_vector,
    scalarize_sum,
)
from .errors import (
    BofusionError,
    EvaluationFailedError,
    PipelineStageError,
    ProtocolError,
    UsageError,
)
from .fusion import (
    MemberSet,
    SimplexCoefficients,
    atomic_write,
    fuse,
    fuse_greedy,
    fuse_learned,
    save_member_set,
)
from .gp import fit_gp
from .pareto import ParetoFront, pareto_front
from . import toybench

DEFAULT_TIMEOUT_S = 600.0
REPORT_SCHEMA = 1

HISTORY_COLUMNS = (
    "stage",
    "eval_index",
    "stage_index",
    "failed",
    "on_front",
    "x",
    "raw",
    "normalized",
)


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# Evaluator clients


@dataclass(frozen=True)
class SubprocessSpec:
    cmd: str
    args: tuple[str, ...] = ()
    env: tuple[tuple[str, str], ...] = ()
    timeout_s: float = DEFAULT_TIMEOUT_S


@dataclass(frozen=True)
class TrainerResult:
    objectives: dict[str, float]
    convergence_step: int | None


class _EvaluatorClient:
    """Shared request/reply framing over either transport."""

    _next_id: int

    def roundtrip(self, request: dict) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _request(self, payload: dict) -> dict:
        rid = self._next_id
        self._next_id += 1
        reply = self.roundtrip({"id": rid, **payload})
        if not isinstance(reply, dict):
            raise ProtocolError("reply is not a JSON object")
        if reply.get("id") != rid:
            raise ProtocolError(f"reply id {reply.get('id')!r} does not match request id {rid}")
        if not reply.get("ok", False):
            raise EvaluationFailedError(str(reply.get("error", "evaluation refused")))
        objectives = reply.get("objectives")
        if not isinstance(objectives, dict):
            raise ProtocolError("ok reply carries no objectives mapping")
        return reply

    def train(self, params: dict) -> TrainerResult:
        reply = self._request({"role": "trainer", "params": params})
        conv = reply.get("convergence_step")
        try:
            return TrainerResult(
                {str(k): float(v) for k, v in reply["objectives"].items()},
                int(conv) if conv is not None else None,
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"non-numeric value in reply: {exc}") from None

    def score(self, delta) -> dict[str, float]:
        payload = {"role": "scorer", "delta": [float(v) for v in np.asarray(delta, dtype=float)]}
        reply = self._request(payload)
        try:
            return {str(k): float(v) for k, v in reply["objectives"].items()}
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"non-numeric value in reply: {exc}") from None


class InProcessEvaluator(_EvaluatorClient):
    """Wraps an object with .train(params) / .score(delta), presenting the
    same reply framing as a subprocess so both paths share one code path."""

    def __init__(self, target):
        self.target = target
        self._next_id = 0

    def roundtrip(self, request: dict) -> dict:
        rid = request.get("id")
        role = request.get("role")
        try:
            if role == "trainer":
                out = self.target.train(request.get("params") or {})
                return {
                    "id": rid,
                    "ok": True,
                    "objectives": out["objectives"],
                    "convergence_step": out.get("convergence_step"),
                }
            if role == "scorer":
                return {"id": rid, "ok": True, "objectives": self.target.score(request.get("delta"))}
            return {"id": rid, "ok": False, "error": f"unknown role {role!r}"}
        except EvaluationFailedError as exc:
            return {"id": rid, "ok": False, "error": str(exc)}


class SubprocessEvaluator(_EvaluatorClient):
    """One child process, one in-flight request at a time.

    A timeout or malformed reply kills the child (it will be respawned lazily
    on the next request) so a late reply can never be matched against a
    newer request.
    """

    def __init__(self, spec: SubprocessSpec):
        self.spec = spec
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        self._next_id = 0

    def _spawn(self) -> None:
        env = dict(os.environ)
        env.update(dict(self.spec.env))
        self._proc = subprocess.Popen(
            [self.spec.cmd, *self.spec.args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
            env=env,
        )
        self._lines = queue.Queue()

        def _pump(proc, out):
            for line in proc.stdout:
                out.put(line)
            out.put(None)

        threading.Thread(target=_pump, args=(self._proc, self._lines), daemon=True).start()

    def _kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        self._proc = None

    def close(self) -> None:
        self._kill()

    def roundtrip(self, request: dict) -> dict:
        if self._proc is None or self._proc.poll() is not None:
            self._spawn()
        line = json.dumps(request, separators=(",", ":"))
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._kill()
            raise ProtocolError(f"evaluator process is gone: {exc}") from None
        try:
            raw = self._lines.get(timeout=self.spec.timeout_s)
        except queue.Empty:
            self._kill()
            raise ProtocolError(f"no reply within {self.spec.timeout_s:g}s") from None
        if raw is None:
            self._kill()
            raise ProtocolError("evaluator closed its stdout")
        try:
            reply = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._kill()
            raise ProtocolError(f"malformed reply line: {exc}") from None
        if not isinstance(reply, dict):
            self._kill()
            raise ProtocolError("reply is not a JSON object")
        return reply


# ---------------------------------------------------------------------------
# Observation plumbing


def _failed_observation(x, spec: ObjectiveSpec, seed, idx, t0) -> Observation:
    return Observation(
        x=np.asarray(x, dtype=float),
        raw=np.full(len(spec), np.nan),
        normalized=np.zeros(len(spec)),
        meta=EvalMeta(seed, idx, int((time.monotonic() - t0) * 1000), failed=True),
    )


def _observe_raws(x, raws_by_name, spec: ObjectiveSpec, seed, idx, t0) -> Observation:
    try:
        raws = np.array([float(raws_by_name[name]) for name in spec.names])
        normalized = normalize_vector(raws, spec)
    except (KeyError, TypeError, ValueError, EvaluationFailedError):
        return _failed_observation(x, spec, seed, idx, t0)
    return Observation(
        x=np.asarray(x, dtype=float),
        raw=raws,
        normalized=normalized,
        meta=EvalMeta(seed, idx, int((time.monotonic() - t0) * 1000), failed=False),
    )


def _score_or_none(scorer, delta, spec, seed, idx) -> Observation:
    t0 = time.monotonic()
    try:
        raws = scorer.score(delta)
        return _observe_raws(delta, raws, spec, seed, idx, t0)
    except (EvaluationFailedError, ProtocolError):
        return _failed_observation(delta, spec, seed, idx, t0)


def _params_dict(space: BoundedParamSpace, x) -> dict:
    out = {}
    for i, d in enumerate(space.dims):
        v = float(x[i])
        out[d.name] = int(round(v)) if d.integer else v
    return out


# ---------------------------------------------------------------------------
# Stage 1: hyperparameter BO


@dataclass
class HpboState:
    space: BoundedParamSpace
    spec: ObjectiveSpec
    history: list[Observation]
    best_index: int
    seed: int
    n_init: int
    n_iter: int

    @property
    def scalarized(self) -> np.ndarray:
        return np.array([scalarize_sum(o.normalized, self.spec) for o in self.history])

    @property
    def best_lambda(self) -> np.ndarray:
        return self.history[self.best_index].x


def run_hpbo(
    space: BoundedParamSpace,
    trainer: _EvaluatorClient,
    objectives: ObjectiveSpec,
    n_init: int = 3,
    n_iter: int = 10,
    seed: int = 0,
    *,
    acq_cfg: AcqConfig | None = None,
    gp_restarts: int = 8,
) -> tuple[np.ndarray, HpboState]:
    """GP + log-EI maximization of the summed normalized validation metrics.

    Returns (best lambda, state); the incumbent is the evaluated point with
    the highest scalarized score, ties resolving to the earliest evaluation.
    """
    if n_init < 1 or n_iter < 0:
        raise ValueError("need n_init >= 1 and n_iter >= 0")
    spec = objectives.subset(("metric",))
    base_acq = acq_cfg or AcqConfig()
    rng = np.random.default_rng(seed)
    history: list[Observation] = []

    def evaluate(x_raw):
        t0 = time.monotonic()
        idx = len(history)
        try:
            result = trainer.train(_params_dict(space, x_raw))
            obs = _observe_raws(x_raw, result.objectives, spec, seed, idx, t0)
        except (EvaluationFailedError, ProtocolError):
            obs = _failed_observation(x_raw, spec, seed, idx, t0)
        history.append(obs)

    for x in space.sample(rng, n_init):
        evaluate(x)

    for _ in range(n_iter):
        X_unit = np.stack([space.to_unit(o.x) for o in history])
        y = np.array([scalarize_sum(o.normalized, spec) for o in history])
        model = fit_gp(X_unit, y, seed=_child_seed(rng), restarts=gp_restarts)
        best = float(y.max())

        def acq(X_raw, _m=model, _b=best):
            mu, sig = _m.predict_batch(np.stack([space.to_unit(x) for x in X_raw]))
            return np.array([log_ei(float(m), float(s), _b) for m, s in zip(mu, sig)])

        evaluate(optimize_acq(acq, space, replace(base_acq, seed=_child_seed(rng))))

    if all(o.meta.failed for o in history):
        raise EvaluationFailedError("every trainer evaluation failed")
    scal = [scalarize_sum(o.normalized, spec) for o in history]
    best_index = int(np.argmax(scal))
    state = HpboState(space, spec, history, best_index, seed, n_init, n_iter)
    return state.best_lambda, state


# ---------------------------------------------------------------------------
# Stage 2: multi-objective BO over fusion coefficients


@dataclass
class MoboState:
    n_members: int
    spec: ObjectiveSpec
    history: list[Observation]
    front: ParetoFront
    seed: int
    n_iter: int
    best_member_id: int | None
    best_index: int = field(init=False)

    def __post_init__(self):
        # delta*: the evaluated front point maximizing the summed normalized
        # objectives, ties to the earliest evaluation; the whole history
        # stands in when clipping emptied the front.
        ids = list(self.front.ids) or [o.meta.eval_index for o in self.history]
        self.best_index = max(
            ids, key=lambda i: (scalarize_sum(self.history[i].normalized, self.spec), -i)
        )

    @property
    def ref(self) -> np.ndarray:
        return np.zeros(len(self.spec))

    @property
    def best_delta(self) -> SimplexCoefficients:
        x = self.history[self.best_index].x
        return SimplexCoefficients(x / x.sum())


def _initial_deltas(n: int, count: int, best_member_id, rng) -> list[np.ndarray]:
    # Without a best member id, cover every one-hot so the best member still
    # enters the history.
    hot_ids = range(n) if best_member_id is None else [int(best_member_id)]
    deltas = [np.full(n, 1.0 / n)] + [np.eye(n)[i] for i in hot_ids]
    while len(deltas) < count:
        deltas.append(rng.dirichlet(np.ones(n)))
    return deltas[:count]


def check_stage2_size(n_members: int, n_iter: int, n_objectives: int, acq_cfg: AcqConfig) -> None:
    """Refuse, with NumericalError and before any evaluation, a stage-2 run
    whose NEHVI could outgrow its memory bound: the last of n_iter
    acquisitions sees n_members + n_iter observed points."""
    if n_iter > 0:
        check_nehvi_size(n_members + n_iter, n_objectives, acq_cfg.n_mc)


def run_mobo(
    members: MemberSet | int,
    scorer: _EvaluatorClient,
    spec: ObjectiveSpec,
    n_iter: int | None = None,
    seed: int = 0,
    *,
    best_member_id: int | None = None,
    acq_cfg: AcqConfig | None = None,
    gp_restarts: int = 8,
) -> tuple[SimplexCoefficients, MoboState]:
    """MC noisy-EHVI loop over the fusion simplex.

    The initial design holds |members| + 1 points: the uniform average, the
    one-hot of the best member (all one-hots when no best id is supplied),
    and Dirichlet(1, ..., 1) fill. Exactly n_iter acquisition iterations
    follow (default 5 * |members|).
    """
    n = len(members) if isinstance(members, MemberSet) else int(members)
    if n < 1:
        raise ValueError("need at least one member")
    if n_iter is None:
        n_iter = 5 * n
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    base_acq = acq_cfg or AcqConfig()
    check_stage2_size(n, n_iter, len(spec), base_acq)
    rng = np.random.default_rng(seed)
    history: list[Observation] = []

    def evaluate(delta):
        history.append(_score_or_none(scorer, delta, spec, seed, len(history)))

    for delta in _initial_deltas(n, n + 1, best_member_id, rng):
        evaluate(delta)

    for _ in range(n_iter):
        X = np.stack([o.x for o in history])
        Y = np.stack([o.normalized for o in history])
        models = [
            fit_gp(X, Y[:, k], seed=_child_seed(rng), restarts=gp_restarts)
            for k in range(len(spec))
        ]
        cfg = replace(base_acq, seed=_child_seed(rng))
        acq = NehviAcquisition(models, X, cfg)
        evaluate(optimize_acq(acq, SimplexDomain(n), cfg))

    if all(o.meta.failed for o in history):
        raise EvaluationFailedError("every scorer evaluation failed")
    front = pareto_front(
        np.stack([o.normalized for o in history]),
        ids=[o.meta.eval_index for o in history],
    )
    state = MoboState(n, spec, history, front, seed, n_iter, best_member_id)
    return state.best_delta, state


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class PipelineConfig:
    space: BoundedParamSpace
    objectives: ObjectiveSpec
    n_members: int = 15
    n_init: int = 3
    hpbo_iters: int = 10
    mobo_iters_per_member: int = 5
    trainer: dict = field(default_factory=dict)
    scorer: dict = field(default_factory=dict)
    proxy_trainer: dict | None = None
    fixed_params: dict = field(default_factory=dict)
    acq: AcqConfig = AcqConfig()
    gp_restarts: int = 8
    learned_steps: int = 100
    learned_lr: float = 0.1

    def __post_init__(self):
        if self.n_members < 1:
            raise UsageError("n_members must be >= 1")
        losses = [e for e in self.objectives.entries if e.kind == "loss"]
        if len(losses) != 1:
            raise UsageError("pipeline objectives need exactly one loss entry")
        if not any(e.kind == "metric" for e in self.objectives.entries):
            raise UsageError("pipeline objectives need at least one metric entry")
        if self.learned_steps < 0 or self.learned_lr <= 0.0:
            raise UsageError("learned_swa needs steps >= 0 and lr > 0")


def _parse_objective(entry: dict) -> ObjectiveEntry:
    return ObjectiveEntry(
        name=str(entry["name"]),
        direction=str(entry["direction"]),
        norm_min=float(entry.get("norm_min", 0.0)),
        norm_max=float(entry.get("norm_max", 1.0)),
        kind=str(entry["kind"]),
    )


def parse_config(data: dict) -> PipelineConfig:
    try:
        space = BoundedParamSpace(tuple(
            ParamDim(
                name=str(d["name"]),
                lower=float(d["lower"]),
                upper=float(d["upper"]),
                scale=str(d.get("scale", "linear")),
                integer=bool(d.get("integer", False)),
            )
            for d in data["space"]
        ))
        objectives = ObjectiveSpec(tuple(_parse_objective(e) for e in data["objectives"]))
        budgets = data.get("budgets", {})
        acq_data = data.get("acq", {})
        acq = AcqConfig(
            n_restarts=int(acq_data.get("n_restarts", 4)),
            n_raw_candidates=int(acq_data.get("n_raw_candidates", 128)),
            n_mc=int(acq_data.get("n_mc", 64)),
            local_steps=int(acq_data.get("local_steps", 2)),
        )
        learned = data.get("learned_swa", {})
        return PipelineConfig(
            space=space,
            objectives=objectives,
            n_members=int(data.get("n_members", 15)),
            n_init=int(budgets.get("n_init", 3)),
            hpbo_iters=int(budgets.get("hpbo_iters", 10)),
            mobo_iters_per_member=int(budgets.get("mobo_iters_per_member", 5)),
            trainer=dict(data.get("trainer", {})),
            scorer=dict(data.get("scorer", {})),
            proxy_trainer=dict(data["proxy_trainer"]) if data.get("proxy_trainer") else None,
            fixed_params=dict(data.get("fixed_params", {})),
            acq=acq,
            gp_restarts=int(data.get("gp_restarts", 8)),
            learned_steps=int(learned.get("steps", 100)),
            learned_lr=float(learned.get("lr", 0.1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}") from None


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    return parse_config(data)


def build_evaluator(block: dict, *, n_members: int | None = None):
    """Construct an evaluator client from one config block.

    Subprocess form: {"cmd": ..., "args": [...], "env": {...}, "timeout_s": ...}
    Builtin form:    {"builtin": "toy" | "landscape", "seed": ..., ...}
    """
    if not block:
        raise UsageError("empty evaluator config block")
    if "cmd" in block:
        spec = SubprocessSpec(
            cmd=str(block["cmd"]),
            args=tuple(str(a) for a in block.get("args", [])),
            env=tuple((str(k), str(v)) for k, v in block.get("env", {}).items()),
            timeout_s=float(block.get("timeout_s", DEFAULT_TIMEOUT_S)),
        )
        return SubprocessEvaluator(spec)
    builtin = block.get("builtin")
    if builtin == "toy":
        kwargs = {
            k: block[k]
            for k in ("dim", "n_train", "n_val", "n_heldout", "p_pos", "separation",
                      "default_steps", "default_batch_size")
            if k in block
        }
        target = toybench.ToyEvaluator(
            seed=int(block.get("seed", 0)),
            n_members=int(block.get("n_members", n_members or 15)),
            **kwargs,
        )
    elif builtin == "landscape":
        kwargs = {
            k: block[k]
            for k in ("dim", "offset", "ruggedness", "member_spread")
            if k in block
        }
        target = toybench.LandscapeEvaluator.from_seed(
            int(block.get("seed", 0)),
            n_members=int(block.get("n_members", n_members or 5)),
            **kwargs,
        )
    else:
        raise UsageError(f"evaluator config needs 'cmd' or a known 'builtin', got {block!r}")
    return InProcessEvaluator(target)


def _build_clients(config: PipelineConfig):
    """Trainer/scorer/proxy clients; identical blocks share one client so a
    trainer's collected members are visible to its scorer side."""
    cache: dict[str, object] = {}

    def get(block, role):
        if not block:
            raise UsageError(f"missing evaluator config for role {role!r}")
        key = json.dumps(block, sort_keys=True)
        if key not in cache:
            cache[key] = build_evaluator(block, n_members=config.n_members)
        return cache[key]

    trainer = get(config.trainer, "trainer")
    scorer = get(config.scorer, "scorer")
    proxy = get(config.proxy_trainer, "trainer") if config.proxy_trainer else None
    return trainer, scorer, proxy, list(cache.values())


# ---------------------------------------------------------------------------
# History serialization


def _fmt_vec(v) -> str:
    return ";".join(repr(float(x)) for x in np.asarray(v, dtype=float))


def history_rows(stage: str, history: Sequence[Observation], start_index: int, front_ids=frozenset()):
    rows = []
    for o in history:
        rows.append({
            "stage": stage,
            "eval_index": start_index + o.meta.eval_index,
            "stage_index": o.meta.eval_index,
            "failed": int(o.meta.failed),
            "on_front": int(o.meta.eval_index in front_ids),
            "x": _fmt_vec(o.x),
            "raw": _fmt_vec(o.raw),
            "normalized": _fmt_vec(o.normalized),
        })
    return rows


def write_history_csv(path: str, rows: Sequence[dict]) -> None:
    lines = [",".join(HISTORY_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in HISTORY_COLUMNS))
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Full pipeline


def _stage(name: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, BofusionError) and not isinstance(exc, PipelineStageError):
                raise PipelineStageError(name, exc) from exc
            return False

    return _Ctx()


def _method_row(spec: ObjectiveSpec, obs: Observation, delta=None, extra=None) -> dict:
    row = {
        "raw": {name: float(v) for name, v in zip(spec.names, obs.raw)},
        "normalized": {name: float(v) for name, v in zip(spec.names, obs.normalized)},
        "objective_sum": scalarize_sum(obs.normalized, spec),
        "failed": bool(obs.meta.failed),
    }
    if delta is not None:
        row["delta"] = [float(v) for v in delta]
    if extra:
        row.update(extra)
    return row


def _metric_quality(obs: Observation, spec: ObjectiveSpec) -> float:
    """Summed normalized metrics; -inf for a failed evaluation."""
    return -math.inf if obs.meta.failed else scalarize_sum(obs.normalized, spec, ("metric",))


def derive_windows(
    scorer: _EvaluatorClient, spec0: ObjectiveSpec, n: int, seed: int
) -> tuple[ObjectiveSpec, list[Observation], int]:
    """Stage 2's objective spec from the members' standalone scores.

    Scores the n one-hot coefficient vectors, derives each objective's
    normalization window from the members that scored (derive_norm_bounds),
    and re-normalizes the standalone scores under those windows. Returns
    (windowed spec, standalone observations, best member id); the best member
    leads ``_member_order``, which greedy soup follows too. A best value
    exactly on a decimal anchors its window and normalizes to 0, like the
    members clipped below the window, which is why that order breaks ties by
    the raw metric. Raises EvaluationFailedError only when every member
    fails.
    """
    standalone = [_score_or_none(scorer, np.eye(n)[i], spec0, seed, i) for i in range(n)]
    ok = [o for o in standalone if not o.meta.failed]
    if not ok:
        raise EvaluationFailedError("every standalone member score failed")
    entries = []
    for k, entry in enumerate(spec0.entries):
        lo, hi = derive_norm_bounds([float(o.raw[k]) for o in ok], entry.kind, entry.direction)
        entries.append(ObjectiveEntry(entry.name, entry.direction, lo, hi, entry.kind))
    spec = ObjectiveSpec(tuple(entries))
    t0 = time.monotonic()
    standalone = [
        _failed_observation(o.x, spec, seed, i, t0) if o.meta.failed
        else _observe_raws(o.x, dict(zip(spec.names, o.raw)), spec, seed, i, t0)
        for i, o in enumerate(standalone)
    ]
    return spec, standalone, _member_order(standalone, spec)[0]


def _member_order(standalone: Sequence[Observation], spec: ObjectiveSpec) -> list[int]:
    """Member ids, best first: by summed normalized metric, then by summed
    raw metric (negated for minimized entries), then by lowest id. The raw
    metric settles ties between members clipped to the same normalized
    value."""
    sign = {"maximize": 1.0, "minimize": -1.0}
    metrics = [(k, sign[e.direction]) for k, e in enumerate(spec.entries) if e.kind == "metric"]

    def rank(i: int) -> tuple[float, float, int]:
        o = standalone[i]
        raw = -math.inf if o.meta.failed else sum(sgn * float(o.raw[k]) for k, sgn in metrics)
        return _metric_quality(o, spec), raw, -i

    return sorted(range(len(standalone)), key=rank, reverse=True)


def fusion_baselines(
    scorer: _EvaluatorClient,
    standalone: Sequence[Observation],
    mobo_state: MoboState,
    *,
    seed: int,
    learned_steps: int,
    learned_lr: float,
) -> tuple[dict, list[Observation]]:
    """Score the fixed fusion baselines and build the report's `methods` block.

    Uniform SWA, greedy soup (fusion.fuse_greedy over the members' summed
    normalized metrics, tried in ``_member_order``) and learned SWA
    (fusion.fuse_learned on the loss entry) are scored under stage 2's
    windowed spec. When the scorer fails during learned SWA, the uniform
    coefficients stand in and the row says `fallback_uniform`. best_member
    and mobo_fusion come from `standalone` and the stage-2 state. Returns
    (methods, baseline observations in scoring order); learned SWA's
    gradient probes are not observations.
    """
    spec = mobo_state.spec
    n = mobo_state.n_members
    best_id = mobo_state.best_member_id
    loss_name = next(e.name for e in spec.entries if e.kind == "loss")
    observed: list[Observation] = []
    pools: dict[bytes, Observation] = {}

    def observe(delta) -> Observation:
        obs = _score_or_none(scorer, delta, spec, seed, len(observed))
        observed.append(obs)
        return obs

    def pool_quality(delta) -> float:
        obs = pools[delta.tobytes()] = observe(delta)
        return _metric_quality(obs, spec)

    def loss(delta) -> float:
        try:
            return float(scorer.score(delta)[loss_name])
        except (EvaluationFailedError, ProtocolError):
            return math.nan

    uniform = np.full(n, 1.0 / n)
    swa_obs = observe(uniform)
    kept, greedy_delta = fuse_greedy(
        [_metric_quality(o, spec) for o in standalone], pool_quality, _member_order(standalone, spec)
    )
    greedy_obs = standalone[kept[0]] if len(kept) == 1 else pools[greedy_delta.tobytes()]
    try:
        learned, learned_extra = fuse_learned(n, loss, learned_steps, learned_lr).values, {}
    except EvaluationFailedError:
        learned, learned_extra = uniform, {"fallback_uniform": True}
    learned_obs = observe(learned)
    chosen_obs = mobo_state.history[mobo_state.best_index]
    methods = {
        "best_member": _method_row(
            spec, standalone[best_id], delta=np.eye(n)[best_id], extra={"member_id": best_id}
        ),
        "swa": _method_row(spec, swa_obs, delta=uniform),
        "greedy_swa": _method_row(spec, greedy_obs, delta=greedy_delta, extra={"subset": sorted(kept)}),
        "learned_swa": _method_row(spec, learned_obs, delta=learned, extra=learned_extra),
        "mobo_fusion": _method_row(
            spec, chosen_obs, delta=mobo_state.best_delta.values,
            extra={"eval_index": int(chosen_obs.meta.eval_index)},
        ),
    }
    return methods, observed


def run_pipeline(config: PipelineConfig, seed: int, out_dir: str | None = None) -> dict:
    """Both stages end to end, plus fusion baselines and a written report.

    Returns the report dict; when out_dir is given, writes report.json and
    history.csv there atomically.
    """
    n_iter = config.mobo_iters_per_member * config.n_members
    check_stage2_size(config.n_members, n_iter, len(config.objectives), config.acq)
    rng = np.random.default_rng(seed)
    trainer, scorer, proxy, clients = _build_clients(config)
    all_rows: list[dict] = []
    row_base = 0

    try:
        with _stage("hpbo"):
            hpbo_trainer = proxy if proxy is not None else trainer
            best_lambda, hpbo_state = run_hpbo(
                config.space,
                hpbo_trainer,
                config.objectives,
                n_init=config.n_init,
                n_iter=config.hpbo_iters,
                seed=_child_seed(rng),
                acq_cfg=config.acq,
                gp_restarts=config.gp_restarts,
            )
        rows = history_rows("hpbo", hpbo_state.history, row_base, frozenset({hpbo_state.best_index}))
        all_rows.extend(rows)
        row_base += len(rows)

        with _stage("retrain"):
            params = _params_dict(config.space, best_lambda)
            params.update(config.fixed_params)
            retrain = trainer.train(params)
            if retrain.convergence_step is None:
                raise EvaluationFailedError("trainer reported no convergence step")

        with _stage("windows"):
            mobo_spec, standalone, best_member_id = derive_windows(
                scorer, config.objectives, config.n_members, seed
            )
        all_rows.extend(history_rows("members", standalone, row_base))
        row_base += len(standalone)

        with _stage("mobo"):
            delta_star, mobo_state = run_mobo(
                config.n_members,
                scorer,
                mobo_spec,
                n_iter=n_iter,
                seed=_child_seed(rng),
                best_member_id=best_member_id,
                acq_cfg=config.acq,
                gp_restarts=config.gp_restarts,
            )
        all_rows.extend(
            history_rows("mobo", mobo_state.history, row_base, frozenset(mobo_state.front.ids))
        )
        row_base += len(mobo_state.history)

        with _stage("baselines"):
            methods, baseline_obs = fusion_baselines(
                scorer, standalone, mobo_state, seed=seed,
                learned_steps=config.learned_steps, learned_lr=config.learned_lr,
            )
        all_rows.extend(history_rows("baseline", baseline_obs, row_base))
    finally:
        for c in clients:
            c.close()

    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "best_lambda": _params_dict(config.space, best_lambda),
        "hpbo_best_objective": float(max(
            scalarize_sum(o.normalized, hpbo_state.spec) for o in hpbo_state.history
        )),
        "convergence_step": retrain.convergence_step,
        "retrain_objectives": retrain.objectives,
        "n_members": config.n_members,
        "degenerate_fusion": config.n_members == 1,
        "windows": {
            e.name: {"norm_min": e.norm_min, "norm_max": e.norm_max} for e in mobo_spec.entries
        },
        "objective_names": list(mobo_spec.names),
        "best_member_id": best_member_id,
        "delta_star": [float(v) for v in delta_star.values],
        "methods": methods,
        "front_size": len(mobo_state.front),
        "history_length": {
            "hpbo": len(hpbo_state.history),
            "mobo": len(mobo_state.history),
        },
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_history_csv(os.path.join(out_dir, "history.csv"), all_rows)
        write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# Misalignment demo


def run_demo_misalign(
    seed: int,
    out_dir: str | None = None,
    *,
    dim: int = 5,
    offset: float = 1.0,
    ruggedness: float = 0.5,
    n_members: int = 5,
    iters_per_member: int = 5,
    acq_cfg: AcqConfig | None = None,
    gp_restarts: int = 8,
    learned_steps: int = 100,
    learned_lr: float = 0.1,
) -> dict:
    """Certified-misaligned landscape demo: run stage 2 plus every fusion
    baseline on one generated landscape and report the comparison."""
    result = toybench.make_misaligned_landscape(
        dim=dim, offset=offset, ruggedness=ruggedness, seed=seed, n_members=n_members
    )
    scorer = InProcessEvaluator(
        toybench.LandscapeEvaluator(result.landscape, result.members)
    )
    rng = np.random.default_rng(seed)
    spec0 = ObjectiveSpec((
        ObjectiveEntry("loss", "minimize", 0.0, 1.0, "loss"),
        ObjectiveEntry("metric", "maximize", 0.0, 1.0, "metric"),
    ))
    spec, standalone, best_member_id = derive_windows(scorer, spec0, n_members, seed)
    delta_star, state = run_mobo(
        result.members,
        scorer,
        spec,
        n_iter=iters_per_member * n_members,
        seed=_child_seed(rng),
        best_member_id=best_member_id,
        acq_cfg=acq_cfg,
        gp_restarts=gp_restarts,
    )
    methods, _ = fusion_baselines(
        scorer, standalone, state, seed=seed, learned_steps=learned_steps, learned_lr=learned_lr
    )
    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "landscape": {
            "dim": dim,
            "offset": offset,
            "ruggedness": ruggedness,
            "n_members": n_members,
            "retries": result.retries,
        },
        "certificate": result.certificate,
        "windows": {e.name: {"norm_min": e.norm_min, "norm_max": e.norm_max} for e in spec.entries},
        "delta_star": [float(v) for v in delta_star.values],
        "methods": methods,
        "front_size": len(state.front),
        "degenerate_fusion": n_members == 1,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = history_rows("members", standalone, 0)
        rows += history_rows("mobo", state.history, len(rows), frozenset(state.front.ids))
        write_history_csv(os.path.join(out_dir, "history.csv"), rows)
        write_json(os.path.join(out_dir, "report.json"), report)
        save_member_set(result.members, os.path.join(out_dir, "members"))
        write_json(os.path.join(out_dir, "scorer.json"), {
            "builtin": "landscape",
            "seed": seed,
            "dim": dim,
            "offset": offset,
            "ruggedness": ruggedness,
            "n_members": n_members,
        })
        lines = ["method,metric,loss,objective_sum"]
        for name in ("best_member", "swa", "greedy_swa", "learned_swa", "mobo_fusion"):
            row = methods[name]
            lines.append(
                f"{name},{row['raw'].get('metric')!r},{row['raw'].get('loss')!r},{row['objective_sum']!r}"
            )
        atomic_write(os.path.join(out_dir, "table.csv"), "\n".join(lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# Validation-overfitting ablation


def overfit_gap(seed: int, variant: str, acq: AcqConfig) -> float:
    """Validation F1 minus heldout F1 of the fused model stage 2 selects.

    Members are 8 snapshots of a still-descending toy training run (lr 0.8,
    40 steps) whose 48-point validation split makes F1 a noisy ranking. The
    search runs on loss + F1 objectives ("multi") or on F1 alone ("single");
    a larger gap means the selection overfit the validation split.
    """
    ev = toybench.ToyEvaluator(
        seed=seed, n_members=8, n_val=48, p_pos=0.3,
        separation=1.5, n_heldout=4096,
    )
    ev.train({"lr": 0.8, "steps": 40})
    singles = [ev.score(np.eye(8)[i]) for i in range(8)]
    loss_window = derive_norm_bounds([s["loss"] for s in singles], "loss", "minimize")
    f1_window = derive_norm_bounds([s["f1"] for s in singles], "metric", "maximize")
    entries = [ObjectiveEntry("f1", "maximize", *f1_window, "metric")]
    if variant == "multi":
        entries.insert(0, ObjectiveEntry("loss", "minimize", *loss_window, "loss"))
    delta, _ = run_mobo(
        ev.members, InProcessEvaluator(ev), ObjectiveSpec(tuple(entries)),
        seed=seed, best_member_id=int(np.argmax([s["f1"] for s in singles])),
        acq_cfg=acq, gp_restarts=2,
    )
    fused = fuse(ev.members, delta)
    return (
        toybench.score_fused(ev.task, fused, "val")["f1"]
        - toybench.score_fused(ev.task, fused, "heldout")["f1"]
    )
