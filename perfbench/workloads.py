"""The benchmark's workloads: what each one runs and what its outputs must hold.

Every workload is a closed loop with one client: sequential q=1 Bayesian
optimization sends the next evaluation only after the previous reply. The
workload seed drives both the generated task (toy data, landscape) and the
optimizer, so another seed gives other inputs.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRI3_EVALUATOR = os.path.join(ROOT, "perfbench", "tri3_evaluator.py")

# toy15 keeps every setting of scripts/run_toy_pipeline.py (15 members, 3+10
# HPO, n_mc 64, 128 raw candidates, 4 restarts) except the MOBO budget: the
# full 5 iterations per member take ~50 s, too long to repeat within a run;
# one per member (15 iterations) keeps the K=2 NEHVI/GP-fit mix at ~10 s.
# At 5 it reproduces that script's history.csv bytes (see identity.py).
TOY15_ITERS_PER_MEMBER = 1
# tri3 scores K=3 NEHVI through per-scenario pareto.hv_improvement (~4 ms a
# candidate at n_mc 16; the paper budget of 5 iterations per member takes
# ~64 s). One iteration per member keeps a run near 8 s.
TRI3_ITERS_PER_MEMBER = 1


def toy_config(seed: int, n_members: int = 15, iters_per_member: int = TOY15_ITERS_PER_MEMBER) -> dict:
    """The scripts/run_toy_pipeline.py full-budget config, seeded by `seed`."""
    return {
        "space": [{"name": "lr", "lower": 0.01, "upper": 2.0, "scale": "log"}],
        "objectives": [
            {"name": "loss", "direction": "minimize", "kind": "loss"},
            {"name": "f1", "direction": "maximize", "kind": "metric"},
        ],
        "n_members": n_members,
        "budgets": {"n_init": 3, "hpbo_iters": 10, "mobo_iters_per_member": iters_per_member},
        "acq": {"n_restarts": 4, "n_raw_candidates": 128, "n_mc": 64, "local_steps": 2},
        "gp_restarts": 4,
        "trainer": {"builtin": "toy", "seed": seed, "n_members": n_members},
        "scorer": {"builtin": "toy", "seed": seed, "n_members": n_members},
        "learned_swa": {"steps": 50, "lr": 0.1},
    }


def tri3_config(seed: int) -> dict:
    """Three objectives (loss, F1, accuracy), 3 members, a 2-d stage-1 box,
    served by perfbench/tri3_evaluator.py as a separate process."""
    args = [TRI3_EVALUATOR, "--seed", str(seed), "--n-members", "3"]
    block = {"cmd": sys.executable, "args": args, "env": {"PYTHONPATH": SRC}, "timeout_s": 120.0}
    return {
        "space": [
            {"name": "lr", "lower": 0.01, "upper": 2.0, "scale": "log"},
            {"name": "batch_size", "lower": 8, "upper": 64, "integer": True},
        ],
        "objectives": [
            {"name": "loss", "direction": "minimize", "kind": "loss"},
            {"name": "f1", "direction": "maximize", "kind": "metric"},
            {"name": "accuracy", "direction": "maximize", "kind": "metric"},
        ],
        "n_members": 3,
        "budgets": {"n_init": 3, "hpbo_iters": 10, "mobo_iters_per_member": TRI3_ITERS_PER_MEMBER},
        "acq": {"n_restarts": 4, "n_raw_candidates": 128, "n_mc": 16, "local_steps": 2},
        "gp_restarts": 4,
        "trainer": block,
        "scorer": block,
        "learned_swa": {"steps": 50, "lr": 0.1},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> pipeline config dict; None for the demo workload.
    config: Callable[[int], dict] | None
    n_members: int
    #: history.csv rows per stage for one run.
    expected_rows: dict
    #: evaluations before the first model-guided proposal, per stage.
    design_size: dict


def pipeline_rows(n: int, n_init: int, hpbo_iters: int, iters_per_member: int) -> dict:
    return {
        "hpbo": n_init + hpbo_iters,
        "members": n,
        "mobo": n + 1 + iters_per_member * n,
        "baseline": 1 + (n - 1) + 1,  # SWA, greedy-soup trials, learned SWA
    }


WORKLOADS = {
    "toy15": Workload(
        "toy15",
        "15-member two-stage toy pipeline; K=2 NEHVI scoring and GP fits dominate",
        toy_config,
        15,
        pipeline_rows(15, 3, 10, TOY15_ITERS_PER_MEMBER),
        {"hpbo": 3, "mobo": 16},
    ),
    "landscape5": Workload(
        "landscape5",
        "certified misaligned landscape demo; Nelder-Mead GP fits dominate",
        None,
        5,
        {"members": 5, "mobo": 5 + 1 + 5 * 5},
        {"mobo": 6},
    ),
    "tri3": Workload(
        "tri3",
        "three objectives over a subprocess evaluator; K=3 NEHVI via hv_improvement",
        tri3_config,
        3,
        pipeline_rows(3, 3, 10, TRI3_ITERS_PER_MEMBER),
        {"hpbo": 3, "mobo": 4},
    ),
}

#: make_misaligned_landscape arguments used by run_demo_misalign's defaults.
LANDSCAPE5_ARGS = {"dim": 5, "offset": 1.0, "ruggedness": 0.5, "n_members": 5}
