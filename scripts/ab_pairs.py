#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs from two checkouts.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload toy15 --workload landscape5 --seeds 1900-1909 \\
        --seconds 40 --out BENCH_n.json --claim toy15:run_s:1.3

Pair i of a workload runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, on the same seed S; the parent
runs first in even pairs and the change first in odd pairs, so a slow drift
of the host does not favour one side. Each run keeps the end-to-end metrics
of run.py's result line, its checks, its wall time and the load average
before it started. The summary gives, per workload and metric, each side's
median and quartiles, how many pairs the change won (by the metric's
``better`` direction in the change's BENCHMARK.json), the ratio of the
medians and the median of the paired ratios, all as parent over change for
lower-is-better metrics.

Each --claim WORKLOAD:METRIC:RATIO adds a verdict under ``claims``, keyed by
the claim: the change must win at least 90% of the pairs, the medians must
differ by more than the parent's interquartile range, and the median ratio
must reach RATIO. The output file
is rewritten after every pair, so an interrupted session keeps what it
measured. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
HOST_KEYS = ("python", "numpy", "scipy", "blas", "nproc", "threads")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    loadavg = list(os.getloadavg())
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    entry = {"wall_s": round(time.monotonic() - t0, 2), "loadavg_before": loadavg}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        entry["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return entry
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    entry.update(
        correct=result["correct"],
        failed=result["failed"],
        attempted=result["attempted"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
        checks=detail["checks"],
        sha256_vs_recorded=detail["sha256_vs_recorded"],
        source_sha256=detail["source_sha256"],
        repeat_seeds=[r["seed"] for r in detail["repeats"]],
    )
    entry["provenance"] = detail["provenance"]
    return entry


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out = {}
    for metric, direction in better.items():
        rows = [(p["parent"]["metrics"][metric], p["change"]["metrics"][metric]) for p in done
                if metric in p["parent"]["metrics"] and metric in p["change"]["metrics"]]
        if not rows:
            continue
        par, chg = [r[0] for r in rows], [r[1] for r in rows]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in rows)
        ties = sum(a == b for a, b in rows)

        def ratio(a, b):
            num, den = (a, b) if direction == "lower" else (b, a)
            return num / den if den else float("nan")

        out[metric] = {
            "parent": quartiles(par),
            "change": quartiles(chg),
            "change_wins": wins,
            "ties": ties,
            "pairs": len(rows),
            "median_ratio_parent_over_change": round(ratio(statistics.median(par), statistics.median(chg)), 3),
            "median_of_paired_ratios": round(statistics.median(ratio(a, b) for a, b in rows), 3),
        }
    return out


def verdict(summary: dict, metric: str, workload: str, need_ratio: float) -> dict:
    s = summary.get(metric)
    if s is None:
        return {"metric": metric, "workload": workload, "met": False}
    par, chg = s["parent"], s["change"]
    iqr = par["q3"] - par["q1"]
    met = (
        s["change_wins"] >= 0.9 * s["pairs"]
        and abs(par["median"] - chg["median"]) > iqr
        and s["median_ratio_parent_over_change"] >= need_ratio
    )
    return {
        "metric": metric,
        "workload": workload,
        "rule": f"change wins >= 90% of pairs, median difference > parent IQR, median ratio >= {need_ratio}",
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "parent_median": par["median"],
        "change_median": chg["median"],
        "parent_iqr": round(iqr, 4),
        "median_ratio": s["median_ratio_parent_over_change"],
        "median_of_paired_ratios": s["median_of_paired_ratios"],
        "met": met,
    }


def print_summary(workload: str, summary: dict) -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'wins':>7} {'ratio':>6}")
    for metric, s in summary.items():
        par, chg = s["parent"], s["change"]
        print(f"  {metric:<16} {par['median']:>12.4f} [{par['q1']:.4f}, {par['q3']:.4f}]"
              f" {chg['median']:>12.4f} [{chg['q1']:.4f}, {chg['q3']:.4f}]"
              f" {s['change_wins']:>3}/{s['pairs']:<3} {s['median_of_paired_ratios']:>6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1900-1909 or 5,7,9")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", required=True, help="JSON file to (re)write after every pair")
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC:RATIO")
    parser.add_argument("--what", default="", help="one line saying what the change is")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload {{{','.join(args.workload)}}} "
                   f"--seed S --seconds {args.seconds:g} --trace 0",
        "procedure": (
            "scripts/ab_pairs.py: pair i of each workload ran seed S_i in both checkouts, "
            "the parent first in even pairs and the change first in odd pairs; workloads ran "
            f"in the order {', '.join(args.workload)}. Seeds: {args.seeds[0]}-{args.seeds[-1]}."
        ),
        "host": None,
        "claims": {},
        "workloads": {},
    }
    for workload in args.workload:
        pairs: list[dict] = []
        doc["workloads"][workload] = {"summary": {}, "pairs": pairs}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: run_once(checkouts[side], workload, seed, args.seconds) for side in order}
            for run in runs.values():
                prov = run.pop("provenance", None)
                if prov and doc["host"] is None:
                    doc["host"] = {k: prov[k] for k in HOST_KEYS}
            pair = {"seed": seed, "first": order[0], "parent": runs["parent"], "change": runs["change"]}
            pairs.append(pair)
            doc["workloads"][workload]["summary"] = summarize(pairs, better)
            for claim in args.claim:
                cw, metric, ratio = claim.split(":")
                if cw == workload:
                    doc["claims"][claim] = verdict(doc["workloads"][workload]["summary"], metric, cw, float(ratio))
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
            p, c = pair["parent"], pair["change"]
            print(f"{workload} seed {seed} ({order[0]} first): "
                  f"parent {p.get('metrics', {}).get('run_s', p.get('error'))} "
                  f"change {c.get('metrics', {}).get('run_s', c.get('error'))}", flush=True)
        print_summary(workload, doc["workloads"][workload]["summary"])
    for claim, v in doc["claims"].items():
        print(f"\nclaim {claim}:", json.dumps(v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
