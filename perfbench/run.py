#!/usr/bin/env python3
"""bofusion benchmark: one workload, one seed, measured end to end.

    python3 perfbench/run.py --workload toy15 --seed 0 --seconds 40 --trace 0

Run from the repository root. Every measurement runs in a fresh worker
process (perfbench/worker.py) with BLAS/OpenMP threads pinned to 1 in the
worker's environment only. A run first sets the workload up SETUP_REPEATS
times, then starts repeats of the whole workload while less than --seconds
have passed (at least MIN_UNITS of them) and reports medians. Repeat j of
seed s runs workload seed 1000*s + j, so a run covers several inputs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repeats and prints the per-layer metrics, the tracing overhead
(traced minus untraced run_s) and writes the spans next to each traced run's
outputs. After the measured repeats, one unmeasured check repeat runs the
first workload seed again. Every repeat passes the correctness gate: history
length equals the budget, delta* lies on the simplex, no failed rows, and
each workload seed gives the same history.csv/report.json bytes, evaluator
counts and (traced) layer call counts within the run and across earlier runs
of the same sources in this checkout.

The last stdout line is one JSON object: correct, attempted (evaluator calls
made), failed (failed evaluator calls plus failed gate checks), metrics.
Everything written goes under .perfbench_runs/ in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_UNITS = 3
SUB_SEEDS = 1000
WORKER_TIMEOUT_S = 120.0
OUT_ROOT = os.path.join(ROOT, ".perfbench_runs")
SEEN_HASHES = os.path.join(OUT_ROOT, "seen_hashes.json")
RECORDED_HASHES = os.path.join(HERE, "hashes.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str]) -> tuple[float, dict]:
    """Launch one worker; returns (launch time.monotonic(), its JSON reply)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return launched, json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, versions: dict, loadavg) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "git_commit": git_commit(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def sub_seed(seed: int, j: int) -> int:
    """Workload seed of the j-th repeat; the first repeat uses `seed` itself."""
    return seed * SUB_SEEDS + j


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: str):
    """Set up SETUP_REPEATS times over the first MIN_UNITS workload seeds,
    then start repeats while less than `seconds` have passed (at least
    MIN_UNITS). Repeat j runs workload seed sub_seed(seed, j); traced, each
    workload seed runs untraced and then traced. One more repeat of the first
    workload seed follows, traced like the last one before it, so the check
    that a seed always gives the same outputs and counts can fail inside a
    single run; it is left out of the metrics.
    Returns (setup samples, setup infos, measured repeats, the check repeat)."""
    setups, infos = [], []
    for i in range(SETUP_REPEATS):
        setup_seed = sub_seed(seed, i % MIN_UNITS)
        launched, info = run_worker(["setup", "--workload", workload.name, "--seed", str(setup_seed)])
        setups.append(info.pop("ready") - launched)
        infos.append({"seed": setup_seed, **info})

    n = 0

    def unit(j: int, traced: bool) -> dict:
        nonlocal n
        _, result = run_worker([
            "unit", "--workload", workload.name, "--seed", str(sub_seed(seed, j)),
            "--trace", str(int(traced)), "--out", os.path.join(out_dir, f"unit{n}"),
        ])
        n += 1
        return {**result, "seed": sub_seed(seed, j), "traced": traced}

    modes = (False, True) if trace else (False,)
    min_units = len(modes) if trace else MIN_UNITS
    units = []
    t0 = time.monotonic()
    while len(units) < min_units or time.monotonic() - t0 < seconds:
        j = len(units) // len(modes)
        for traced in modes:
            units.append(unit(j, traced))
    return setups, infos, units, unit(0, trace)


def source_digest() -> str:
    """sha256 over the package and benchmark sources: the code being measured."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def fingerprint(r: dict) -> dict:
    """What one repeat's workload seed fixes exactly: output bytes, evaluator
    counts and, traced, the call count of every layer."""
    fp = {"sha256": r["sha256"], "evals": r["evals"]}
    if r["traced"]:
        fp["layer_calls"] = {name: v[0] for name, v in sorted(r["layers"].items())}
    return fp


def merge(known: dict, fp: dict) -> bool:
    """Add fp's fields to known; False if one was known with another value."""
    return all([known.setdefault(k, v) == v for k, v in fp.items()])


def same_as_earlier_runs(workload, results: list[dict]) -> bool:
    """Whether every workload seed's fingerprint agrees with the one recorded
    by earlier runs of the same sources in this checkout, then records it."""
    try:
        with open(SEEN_HASHES, encoding="utf-8") as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = {}
    earlier = seen.setdefault(source_digest(), {}).setdefault(workload.name, {})
    same = all([merge(earlier.setdefault(str(r["seed"]), {}), fingerprint(r)) for r in results])
    tmp = SEEN_HASHES + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, SEEN_HASHES)
    return same


def check(workload, infos: list[dict], results: list[dict], trace: bool) -> dict:
    """Correctness gate over every repeat, the check repeat included;
    {check name: passed}."""
    checks = {name: all(r["gate"][name] for r in results) for name in results[0]["gate"]}
    by_seed = {}
    for r in results:
        by_seed.setdefault(r["seed"], []).append(fingerprint(r))
    fields = ("sha256", "evals", "layer_calls") if trace else ("sha256", "evals")
    for field in fields:
        checks[f"same_{field}_every_repeat"] = all(
            len({json.dumps(fp[field], sort_keys=True) for fp in fps if field in fp}) <= 1
            for fps in by_seed.values()
        )
    checks["same_as_earlier_runs"] = same_as_earlier_runs(workload, results)
    retries = {r["seed"]: r.get("landscape_retries") for r in results}
    checks["setup_matches_run"] = all(
        info.get("landscape_retries") == retries.get(info["seed"], info.get("landscape_retries"))
        for info in infos
    )
    return checks


def recorded_hashes(workload, hashes: dict) -> dict:
    """How this run's output hashes compare with perfbench/hashes.json, which
    records them per workload and seed for the commit that defined the
    benchmark: {"same": n, "changed": n, "unrecorded": n}."""
    try:
        with open(RECORDED_HASHES, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload.name, {})
    except FileNotFoundError:
        recorded = {}
    out = {"same": 0, "changed": 0, "unrecorded": 0}
    for key, sha in hashes.items():
        if key not in recorded:
            out["unrecorded"] += 1
        else:
            out["same" if recorded[key] == sha else "changed"] += 1
    return out


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: exact counts from the first traced repeat (the
    check repeat shows that they repeat exactly), times as
    medians over the traced repeats, tracing overhead as the median of traced
    minus untraced run_s over repeats of one seed."""

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def calls(name):
        return traced[0]["layers"].get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return med(lambda r: r["layers"].get(name, (0, 0.0, 0.0))[1])

    def child(key):
        return med(lambda r: r["child_stats"].get(key, 0.0))

    first = traced[0]
    evals = first["evals"]
    n_evals = evals["trainer"] + evals["scorer"]
    fits = calls("gp.fit_gp")
    nehvi_calls = calls("acquisition.nehvi_eval")
    train_s = total("toybench.train") + child("train_s")
    score_s = total("toybench.score") + child("score_s")
    untraced_run_s = {r["seed"]: r["run_s"] for r in untraced}
    layered = ("gp.", "acquisition.", "pareto.", "pipeline.evaluator", "toybench.")
    rows = first["history_rows"]
    m = {
        "gp.fit_gp.calls": (fits, "count"),
        "gp.fit_gp.s": (total("gp.fit_gp"), "s"),
        "gp.fit_gp.jittered": (first["jittered_fits"], "count"),
        "gp.build_gp.calls": (calls("gp.build_gp"), "count"),
        "gp.build_gp.s": (total("gp.build_gp"), "s"),
        "gp.lml_evals_per_fit": (calls("gp.build_gp") / fits if fits else 0.0, "count"),
        "acquisition.optimize_acq.calls": (calls("acquisition.optimize_acq"), "count"),
        "acquisition.optimize_acq.s": (total("acquisition.optimize_acq"), "s"),
        "acquisition.nehvi_build.calls": (calls("acquisition.nehvi_build"), "count"),
        "acquisition.nehvi_build.s": (total("acquisition.nehvi_build"), "s"),
        "acquisition.nehvi_eval.calls": (nehvi_calls, "count"),
        "acquisition.nehvi_eval.s": (total("acquisition.nehvi_eval"), "s"),
        "acquisition.nehvi_eval.us_per_candidate": (
            1e6 * total("acquisition.nehvi_eval") / nehvi_calls if nehvi_calls else 0.0, "us"),
        "acquisition.log_ei.calls": (calls("acquisition.log_ei"), "count"),
        "acquisition.log_ei.s": (total("acquisition.log_ei"), "s"),
        "pareto.pareto_front.calls": (calls("pareto.pareto_front"), "count"),
        "pareto.pareto_front.s": (total("pareto.pareto_front"), "s"),
        "pareto.hv_improvement.calls": (calls("pareto.hv_improvement"), "count"),
        "pareto.hv_improvement.s": (total("pareto.hv_improvement"), "s"),
        "pipeline.run_hpbo.s": (total("pipeline.run_hpbo"), "s"),
        "pipeline.run_mobo.s": (total("pipeline.run_mobo"), "s"),
        "pipeline.propose.s": (med(lambda r: r["stage_propose_s"]), "s"),
        "pipeline.evaluator.calls": (n_evals, "count"),
        "pipeline.evaluator.s": (total("pipeline.evaluator"), "s"),
        "pipeline.evaluator.roundtrip_ms.p50": (med(lambda r: statistics.median(r["roundtrip_ms"])), "ms"),
        "pipeline.evaluator.failed": (evals["failed"], "count"),
        "pipeline.scorer.baseline_probes": (evals["scorer"] - rows["members"] - rows["mobo"], "count"),
        "toybench.train.s": (train_s, "s"),
        "toybench.score.s": (score_s, "s"),
        "evals.trainer": (evals["trainer"], "count"),
        "evals.failed_ratio": (evals["failed"] / n_evals if n_evals else 0.0, "ratio"),
        "quality.hv_front": (first["hv_front"], "hv"),
        "quality.gain_vs_swa": (first["gain_vs_swa"], "objective"),
        "setup.landscape_retries": (first.get("landscape_retries", 0), "count"),
        "trace.run_s": (med(lambda r: r["run_s"]), "s"),
        "trace.overhead_s": (med(lambda r: r["run_s"] - untraced_run_s[r["seed"]]), "s"),
        "trace.unaccounted_s": (
            med(lambda r: r["run_s"] - sum(v[2] for k, v in r["layers"].items() if k.startswith(layered))),
            "s",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def end_to_end_metrics(setups: list[float], untraced: list[dict]) -> dict:
    """Medians over the repeats. Proposal latency covers the stage-2 (MOBO)
    iterations, where the BO loop spends its time; stage-1 iterations are ten
    times cheaper, and mixed in they would put p50 on the edge between the
    two groups. Its percentiles are taken over the stage-2 gaps of all
    repeats pooled: every repeat of a workload has the same number of them,
    so each input weighs the same, and p90 rests on a tenth of the pool
    rather than on one or two gaps of a single repeat."""

    def med(fn):
        return statistics.median(fn(r) for r in untraced)

    gaps = [g for r in untraced for g in r["propose_ms"]["mobo"]]
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (med(lambda r: r["run_s"]), "s"),
        "propose_ms.p50": (statistics.median(gaps), "ms"),
        "propose_ms.p90": (statistics.quantiles(gaps, n=10, method="inclusive")[8], "ms"),
        "evals.scorer": (untraced[0]["evals"]["scorer"], "count"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bofusion", "pipeline.py")):
        print(f"no bofusion sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT_ROOT, f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    loadavg = os.getloadavg()
    try:
        setups, infos, units, rerun = measure(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = check(workload, infos, units + [rerun], bool(args.trace))
    hashes = {str(r["seed"]): r["sha256"] for r in units}
    untraced = [r for r in units if not r["traced"]]
    traced = [r for r in units if r["traced"]]
    metrics = layer_metrics(untraced, traced) if args.trace else end_to_end_metrics(setups, untraced)
    attempted = sum(r["evals"]["trainer"] + r["evals"]["scorer"] for r in units + [rerun])
    failed = sum(r["evals"]["failed"] for r in units + [rerun]) + sum(not ok for ok in checks.values())
    detail = {
        "provenance": provenance(workload.name, args.seed, infos[0]["versions"], loadavg),
        "source_sha256": source_digest(),
        "checks": checks,
        "sha256": hashes,
        "sha256_vs_recorded": recorded_hashes(workload, hashes),
        "repeats": [
            {"seed": r["seed"], "traced": r["traced"], "run_s": r["run_s"], "propose_ms": r["propose_ms"]}
            for r in units
        ],
        "check_repeat": {"seed": rerun["seed"], "traced": rerun["traced"], "run_s": rerun["run_s"]},
        "setup_samples_s": setups,
        "hv_front": {r["seed"]: r["hv_front"] for r in untraced},
        "gain_vs_swa": {r["seed"]: r["gain_vs_swa"] for r in untraced},
        "landscape_retries": {r["seed"]: r.get("landscape_retries") for r in untraced},
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
