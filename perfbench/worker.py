"""One measurement in a fresh process; perfbench/run.py starts it.

    worker.py setup --workload W --seed N
        Imports, config parsing, evaluator construction, landscape
        certification and child spawn: everything before the first
        evaluation. Prints {"ready": <time.monotonic()>, ...} plus library
        versions; the parent subtracts its own launch time, so interpreter
        start-up counts too.

    worker.py unit --workload W --seed N --trace 0|1 --out DIR
        Runs the workload once with the evaluator boundary (trace 0) or every
        layer (trace 1) wrapped, writes history.csv/report.json under DIR and
        prints one JSON object with timings, counters, hashes and gate checks.

Run from the repository root with src/ on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

from bofusion import pipeline, toybench
from bofusion.pareto import hypervolume

import tracing
from tri3_evaluator import STATS_ENV, read_stats
from workloads import LANDSCAPE5_ARGS, WORKLOADS


def _setup(workload, seed: int) -> dict:
    info = {}
    if workload.config is None:
        info["landscape_retries"] = toybench.make_misaligned_landscape(seed=seed, **LANDSCAPE5_ARGS).retries
        return info
    config = pipeline.parse_config(workload.config(seed))
    clients = {}
    for block in (config.trainer, config.scorer):
        key = json.dumps(block, sort_keys=True)
        if key not in clients:
            clients[key] = pipeline.build_evaluator(block, n_members=config.n_members)
    try:
        for client in clients.values():
            if isinstance(client, pipeline.SubprocessEvaluator):
                # A request with no valid role spawns the child and is
                # answered ok:false once the child is serving.
                client.roundtrip({"id": 0, "role": "ready"})
    finally:
        for client in clients.values():
            client.close()
    return info


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _history(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _gate(workload, rows: list[dict], report: dict) -> dict:
    """Budget, simplex and no-failure checks on one run's outputs."""
    counts = {}
    for r in rows:
        counts[r["stage"]] = counts.get(r["stage"], 0) + 1
    delta = np.asarray(report["delta_star"], dtype=float)
    return {
        "history_matches_budget": counts == workload.expected_rows,
        "delta_star_on_simplex": bool(
            delta.shape == (workload.n_members,) and np.all(delta >= 0.0) and abs(delta.sum() - 1.0) <= 1e-9
        ),
        "no_failed_rows": all(r["failed"] == "0" for r in rows)
        and not any(m["failed"] for m in report["methods"].values()),
    }


def _hv_front(rows: list[dict]) -> float:
    pts = [
        [float(v) for v in r["normalized"].split(";")]
        for r in rows
        if r["stage"] == "mobo" and r["on_front"] == "1"
    ]
    return float(hypervolume(np.array(pts))) if pts else 0.0


def _unit(workload, seed: int, trace: bool, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    stats_path = os.path.join(out_dir, "evaluator_stats.json")
    if trace:
        os.environ[STATS_ENV] = stats_path  # inherited by an evaluator child
    tracer = tracing.Tracer(run_id=f"{workload.name}-s{seed}-{os.path.basename(out_dir)}")
    tracer.install(tracing.FULL if trace else tracing.BOUNDARY)
    try:
        t0 = time.perf_counter()
        if workload.config is None:
            report = pipeline.run_demo_misalign(seed, out_dir=out_dir)
        else:
            config = pipeline.parse_config(workload.config(seed))
            report = pipeline.run_pipeline(config, seed=seed, out_dir=out_dir)
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        os.environ.pop(STATS_ENV, None)

    history_path = os.path.join(out_dir, "history.csv")
    rows = _history(history_path)
    methods = report["methods"]
    result = {
        "run_s": run_s,
        "propose_ms": tracer.propose_gaps_ms(workload.design_size),
        "evals": tracer.evaluator_calls(),
        "history_rows": {s: sum(r["stage"] == s for r in rows) for s in ("members", "mobo")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": {
            "history.csv": _sha256(history_path),
            "report.json": _sha256(os.path.join(out_dir, "report.json")),
        },
        "gate": _gate(workload, rows, report),
        "hv_front": _hv_front(rows),
        "gain_vs_swa": methods["mobo_fusion"]["objective_sum"] - methods["swa"]["objective_sum"],
    }
    if "landscape" in report:
        result["landscape_retries"] = report["landscape"]["retries"]
    if trace:
        result["layers"] = tracer.layer_stats()
        result["stage_propose_s"] = tracer.stage_propose_s()
        result["jittered_fits"] = tracer.jittered_fits
        result["roundtrip_ms"] = [
            1000.0 * (tracer.ends[i] - tracer.starts[i]) for i in tracer.roles
        ]
        result["child_stats"] = read_stats(stats_path)
        tracer.write(os.path.join(out_dir, "spans.tsv"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "unit"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = _setup(workload, args.seed)
        result["ready"] = time.monotonic()
        result["versions"] = _versions()
    else:
        if not args.out:
            parser.error("unit mode needs --out")
        result = _unit(workload, args.seed, bool(args.trace), args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
