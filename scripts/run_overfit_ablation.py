#!/usr/bin/env python3
"""Compare validation overfitting of multi-objective vs metric-only search.

For each seed, members are snapshots of a still-descending toy training run
(so they genuinely differ in direction), then the simplex search runs twice
over the same members: once with loss + F1 objectives and once with F1 only.
The reported gap is validation F1 minus heldout F1 of the selected fused
model — larger means the selection overfit the small validation split. The
loss objective tempers the metric-only winner's curse, so the multi-objective
mean gap should come out at or below the metric-only one.
"""

import argparse

import numpy as np

from bofusion.acquisition import AcqConfig
from bofusion.pipeline import overfit_gap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    acq = AcqConfig(n_restarts=2, n_raw_candidates=48, n_mc=16, local_steps=2)
    gaps = {"multi": [], "single": []}
    print(f"{'seed':>4}  {'multi gap':>10}  {'single gap':>10}")
    for seed in range(args.seeds):
        row = {v: overfit_gap(seed, v, acq) for v in ("multi", "single")}
        for v in gaps:
            gaps[v].append(row[v])
        print(f"{seed:>4}  {row['multi']:>+10.4f}  {row['single']:>+10.4f}")
    mean_multi = float(np.mean(gaps["multi"]))
    mean_single = float(np.mean(gaps["single"]))
    print(f"\nmean val→heldout F1 gap: multi-objective {mean_multi:+.5f}, "
          f"metric-only {mean_single:+.5f}")
    print("trend holds (multi ≤ single):", mean_multi <= mean_single)


if __name__ == "__main__":
    main()
