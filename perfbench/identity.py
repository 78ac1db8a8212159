#!/usr/bin/env python3
"""Check that the benchmark measures the program unchanged.

    python3 perfbench/identity.py

Runs, at seed 0, scripts/run_toy_pipeline.py with 15 members and its full
budgets, and run_demo_misalign(0), each in a plain process without any
wrapper. Then it runs the same two workloads through the benchmark's worker
code, untraced and traced, and requires byte-identical history.csv and
report.json. The toy run uses the toy15 config at the script's full budget
(5 MOBO iterations per member), so it also shows that toy15 differs from the
reference run only in that budget. Takes about three minutes on two cores;
outputs go under .perfbench_runs/identity/. Exits 1 on any difference.
"""
from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import worker  # noqa: E402
from run import OUT_ROOT, worker_env  # noqa: E402
from workloads import ROOT, WORKLOADS, Workload, pipeline_rows, toy_config  # noqa: E402

FULL_ITERS_PER_MEMBER = 5
TOY15_FULL = Workload(
    "toy15-full",
    "toy15 at the full budget of scripts/run_toy_pipeline.py",
    lambda seed: toy_config(seed, iters_per_member=FULL_ITERS_PER_MEMBER),
    15,
    pipeline_rows(15, 3, 10, FULL_ITERS_PER_MEMBER),
    {"hpbo": 3, "mobo": 16},
)
DEMO = "import sys; from bofusion.pipeline import run_demo_misalign; run_demo_misalign(0, out_dir=sys.argv[1])"


def main() -> int:
    out = os.path.join(OUT_ROOT, "identity")
    shutil.rmtree(out, ignore_errors=True)
    references = [
        (TOY15_FULL, [os.path.join(ROOT, "scripts", "run_toy_pipeline.py"), "--n-members", "15",
                      "--seed", "0", "--out"], os.path.join(out, "script-toy15")),
        (WORKLOADS["landscape5"], ["-c", DEMO], os.path.join(out, "plain-landscape5")),
    ]
    ok = True
    for workload, args, ref_dir in references:
        subprocess.run([sys.executable, *args, ref_dir], cwd=ROOT, env=worker_env(),
                       stdout=subprocess.DEVNULL, check=True)
        for trace in (False, True):
            bench_dir = os.path.join(out, f"bench-{workload.name}-trace{int(trace)}")
            result = worker._unit(workload, 0, trace, bench_dir)
            for name in ("history.csv", "report.json"):
                same = filecmp.cmp(os.path.join(ref_dir, name), os.path.join(bench_dir, name), shallow=False)
                ok &= same
                print(f"{workload.name:10s} trace={int(trace)} {name:12s} "
                      f"{'identical' if same else 'DIFFERENT'}  sha256 {result['sha256'][name]}")
            ok &= all(result["gate"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
