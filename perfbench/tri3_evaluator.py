"""JSON-lines trainer/scorer for the tri3 workload.

Serves the builtin toy task (``bofusion.toybench.ToyEvaluator``) with
validation accuracy added as a third objective, over the protocol in the
README: one request object per line on stdin, one reply per line on stdout,
every reply echoing its request id, and ``ok: false`` for anything wrong
with a request. Run it with the package on the import path:

    PYTHONPATH=src python3 perfbench/tri3_evaluator.py --seed 0 --n-members 3

When the environment names a file in TRI3_EVALUATOR_STATS, it overwrites
that file before each reply with the call counts and seconds spent inside
the toy trainer and scorer (see read_stats), so a traced benchmark run can
subtract evaluator compute from the pipeline's time.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from bofusion import toybench
from bofusion.toybench_evaluator import handle_request


def val_accuracy(task: toybench.ToyTask, weights) -> float:
    return float(np.mean(toybench.predict_labels(weights, task.X_val) == task.y_val))


STATS_ENV = "TRI3_EVALUATOR_STATS"
STATS_WIDTH = 256  # bytes; the counters as JSON, padded with spaces


def read_stats(path: str) -> dict:
    """The counters an evaluator left in `path` ({} if none)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class AccuracyToyEvaluator:
    """ToyEvaluator whose trainer and scorer replies also carry accuracy.

    The trainer reports the best validation accuracy among the members it
    collected (its loss and F1 are trajectory bests as well); the scorer
    reports the validation accuracy of the fused weights.
    """

    def __init__(self, seed: int, n_members: int):
        self.inner = toybench.ToyEvaluator(seed=seed, n_members=n_members)
        self.stats = {"train_calls": 0, "train_s": 0.0, "score_calls": 0, "score_s": 0.0}

    def train(self, params: dict) -> dict:
        t0 = time.perf_counter()
        try:
            out = self.inner.train(params)
            out["objectives"]["accuracy"] = max(
                val_accuracy(self.inner.task, w) for w in self.inner.members.weights_matrix
            )
            return out
        finally:
            self.stats["train_calls"] += 1
            self.stats["train_s"] += time.perf_counter() - t0

    def score(self, delta) -> dict[str, float]:
        t0 = time.perf_counter()
        try:
            out = self.inner.score(delta)
            fused = self.inner.members.weights_matrix.T @ np.asarray(delta, dtype=float)
            out["accuracy"] = val_accuracy(self.inner.task, fused)
            return out
        finally:
            self.stats["score_calls"] += 1
            self.stats["score_s"] += time.perf_counter() - t0


def reply_to(evaluator: AccuracyToyEvaluator, line: str) -> dict:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"id": None, "ok": False, "error": f"bad request line: {exc}"}
    if not isinstance(request, dict):
        return {"id": None, "ok": False, "error": "request is not an object"}
    return handle_request(evaluator, request)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-members", type=int, default=3)
    args = parser.parse_args(argv)

    evaluator = AccuracyToyEvaluator(args.seed, args.n_members)
    stats_path = os.environ.get(STATS_ENV)
    stats_fd = os.open(stats_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) if stats_path else None
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        reply = reply_to(evaluator, line)
        if stats_fd is not None:
            # Written in place at a fixed width, because truncating a file can
            # cost far more than the request; and before the reply, so the
            # file is complete once the client has it and may stop this process.
            os.pwrite(stats_fd, json.dumps(evaluator.stats).encode().ljust(STATS_WIDTH), 0)
        sys.stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
