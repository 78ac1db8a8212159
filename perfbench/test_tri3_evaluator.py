"""Protocol test for the tri3 evaluator process.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from bofusion import toybench  # noqa: E402
from bofusion.pipeline import SubprocessEvaluator, SubprocessSpec  # noqa: E402

from tri3_evaluator import val_accuracy  # noqa: E402

SEED = 3
CMD = [sys.executable, os.path.join(HERE, "tri3_evaluator.py"), "--seed", str(SEED), "--n-members", "3"]


@pytest.fixture(scope="module")
def replies():
    """Raw reply lines for a scripted request sequence, one child process."""
    requests = [
        {"id": 7, "role": "scorer", "delta": [0.2, 0.3, 0.5]},  # before any training
        {"id": 8, "role": "trainer", "params": {"lr": 0.3, "batch_size": 16}},
        {"id": 9, "role": "scorer", "delta": [0.2, 0.3, 0.5]},
        {"id": 10, "role": "scorer", "delta": [0.5, 0.5]},
        {"id": 11, "role": "scorer", "delta": "uniform"},
        {"id": 12, "role": "trainer", "params": {"batch_size": 16}},
        {"id": 13, "role": "ready"},
    ]
    lines = [json.dumps(r) for r in requests] + ["{not json", "[1, 2]", ""]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        CMD, input="\n".join(lines) + "\n", stdout=subprocess.PIPE, text=True,
        env=env, timeout=120, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_one_reply_per_nonblank_line_with_echoed_ids(replies):
    assert [r["id"] for r in replies] == [7, 8, 9, 10, 11, 12, 13, None, None]


def test_trainer_reply_carries_three_objectives(replies):
    reply = replies[1]
    assert reply["ok"] is True
    assert set(reply["objectives"]) == {"loss", "f1", "accuracy"}
    assert 0.0 <= reply["objectives"]["accuracy"] <= 1.0
    assert isinstance(reply["convergence_step"], int)


def test_scorer_accuracy_is_fused_validation_accuracy(replies):
    inner = toybench.ToyEvaluator(seed=SEED, n_members=3)
    expected = inner.train({"lr": 0.3, "batch_size": 16})
    assert replies[1]["objectives"]["loss"] == expected["objectives"]["loss"]
    delta = np.array([0.2, 0.3, 0.5])
    fused = inner.members.weights_matrix.T @ delta
    reply = replies[2]
    assert reply["ok"] is True
    assert reply["objectives"]["accuracy"] == val_accuracy(inner.task, fused)
    assert reply["objectives"]["f1"] == inner.score(delta)["f1"]


@pytest.mark.parametrize("index", [0, 3, 4, 5, 6, 7, 8])
def test_bad_requests_are_refused(replies, index):
    reply = replies[index]
    assert reply["ok"] is False
    assert reply["error"]


def test_pipeline_client_round_trip():
    client = SubprocessEvaluator(SubprocessSpec(CMD[0], tuple(CMD[1:]), (("PYTHONPATH", SRC),), 120.0))
    try:
        trained = client.train({"lr": 0.3, "batch_size": 16})
        scores = client.score([1.0 / 3] * 3)
    finally:
        client.close()
    assert set(trained.objectives) == {"loss", "f1", "accuracy"}
    assert set(scores) == {"loss", "f1", "accuracy"}


def test_stats_file_counts_trainer_and_scorer_calls(tmp_path):
    from tri3_evaluator import STATS_ENV, read_stats

    stats_path = str(tmp_path / "stats.json")
    requests = [
        {"id": 1, "role": "trainer", "params": {"lr": 0.3, "batch_size": 16}},
        {"id": 2, "role": "scorer", "delta": [0.2, 0.3, 0.5]},
        {"id": 3, "role": "scorer", "delta": [1.0, 0.0, 0.0]},
    ]
    env = dict(os.environ, PYTHONPATH=SRC, **{STATS_ENV: stats_path})
    subprocess.run(
        CMD, input="".join(json.dumps(r) + "\n" for r in requests), stdout=subprocess.PIPE,
        text=True, env=env, timeout=120, check=True,
    )
    stats = read_stats(stats_path)
    assert (stats["train_calls"], stats["score_calls"]) == (1, 2)
    assert stats["train_s"] > 0.0 and stats["score_s"] > 0.0
