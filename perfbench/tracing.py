"""Spans around bofusion's public calls, installed from outside the package.

A Tracer replaces functions and methods of the gp, acquisition, pareto,
pipeline and toybench modules with wrappers that record one span per call
(name, start, end, parent span, run id) in memory. Nothing inside the
package changes; uninstall() restores every original.

Two target sets:

- BOUNDARY wraps only the stage loops (run_hpbo, run_mobo) and the evaluator
  clients' train/score calls. Those few thousand spans give the proposal
  latency between one evaluator reply and the next request, and the exact
  evaluator counts, at negligible cost; the untraced run uses them.
- FULL adds every layer's public calls for the traced run's per-layer times.
"""
from __future__ import annotations

import os
import time

import numpy as np

from bofusion import acquisition, gp, pareto, pipeline, toybench
from bofusion.errors import BofusionError

PACKAGE_MODULES = (gp, acquisition, pareto, pipeline, toybench)

STAGES = {"pipeline.run_hpbo": "hpbo", "pipeline.run_mobo": "mobo"}
EVALUATOR = "pipeline.evaluator"

# (owner, attribute, span name). Module functions are replaced wherever a
# package module holds them, so `from .gp import fit_gp` copies are wrapped too.
BOUNDARY = (
    (pipeline, "run_hpbo", "pipeline.run_hpbo"),
    (pipeline, "run_mobo", "pipeline.run_mobo"),
)
FULL = BOUNDARY + (
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "run_demo_misalign", "pipeline.run_demo_misalign"),
    (gp, "fit_gp", "gp.fit_gp"),
    (gp, "build_gp", "gp.build_gp"),
    (acquisition, "optimize_acq", "acquisition.optimize_acq"),
    (acquisition.NehviAcquisition, "__init__", "acquisition.nehvi_build"),
    (acquisition.NehviAcquisition, "__call__", "acquisition.nehvi_eval"),
    (acquisition, "log_ei", "acquisition.log_ei"),
    (pareto, "pareto_front", "pareto.pareto_front"),
    (pareto, "hv_improvement", "pareto.hv_improvement"),
    (toybench.ToyEvaluator, "train", "toybench.train"),
    (toybench.ToyEvaluator, "score", "toybench.score"),
    (toybench.LandscapeEvaluator, "score", "toybench.score"),
)


class Tracer:
    """Spans of one run, kept in parallel lists until write()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roles: dict[int, str] = {}
        self.failed: set[int] = set()
        self.jittered_fits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_fit(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open("gp.fit_gp")
            try:
                model = fn(*args, **kwargs)
                if model.jitter > 0.0:
                    tracer.jittered_fits += 1
                return model
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_evaluator(self, role: str, fn):
        tracer = self

        def wrapper(client, arg):
            idx = tracer._open(EVALUATOR)
            tracer.roles[idx] = role
            try:
                return fn(client, arg)
            except BofusionError:
                tracer.failed.add(idx)
                raise
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets) -> None:
        client = pipeline._EvaluatorClient
        self._replace(client, "train", self._wrap_evaluator("trainer", client.train))
        self._replace(client, "score", self._wrap_evaluator("scorer", client.score))
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            wrapped = self._wrap_fit(original) if name == "gp.fit_gp" else self._wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
                continue
            for module in PACKAGE_MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def evaluator_calls(self) -> dict:
        roles = list(self.roles.values())
        return {
            "trainer": roles.count("trainer"),
            "scorer": roles.count("scorer"),
            "failed": len(self.failed),
        }

    def _in_stage(self, idx: int) -> bool:
        """An evaluator call made directly by a stage loop."""
        parent = self.parents[idx]
        return self.names[idx] == EVALUATOR and parent >= 0 and self.names[parent] in STAGES

    def propose_gaps_ms(self, design_size: dict) -> dict[str, list[float]]:
        """Per BO iteration of each stage ("hpbo", "mobo"): milliseconds from
        one evaluator reply to the next request, after the initial design."""
        children: dict[int, list[int]] = {}
        for idx in range(len(self.names)):
            if self._in_stage(idx):
                children.setdefault(self.parents[idx], []).append(idx)
        gaps: dict[str, list[float]] = {}
        for stage_idx, evals in children.items():
            stage = STAGES[self.names[stage_idx]]
            skip = design_size[stage]
            gaps.setdefault(stage, []).extend(
                1000.0 * (self.starts[cur] - self.ends[prev])
                for prev, cur in zip(evals[skip - 1:], evals[skip:])
            )
        return gaps

    def layer_stats(self) -> dict:
        """{span name: (calls, total seconds, self seconds)}; self time is the
        span's duration minus the part its child spans cover."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        out = {}
        names = np.asarray(self.names)
        for name in sorted(set(self.names)):
            mask = names == name
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def stage_propose_s(self) -> float:
        """Stage-loop time not spent inside evaluator calls."""
        total = 0.0
        for idx, name in enumerate(self.names):
            if name in STAGES:
                total += self.ends[idx] - self.starts[idx]
            elif self._in_stage(idx):
                total -= self.ends[idx] - self.starts[idx]
        return total

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: name, start_us, end_us, parent, run id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\trun_id\n")
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(
                    f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\t{self.run_id}\n"
                )
