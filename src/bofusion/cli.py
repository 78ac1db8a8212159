"""Command-line front door.

Subcommands: hpo (stage 1 only), mobo (stage 2 only, over a saved member
manifest), pipeline (both stages), fuse (average checkpoints from a member
manifest), hv (hypervolume of a point file), demo-misalign (certified
misaligned-landscape comparison), and scan-surface (objective surface over
the first three members' barycentric plane). Every subcommand takes --seed.

Exit codes: 0 success, 1 usage or bad input, 2 evaluation or protocol
failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (
    BofusionError,
    CheckpointError,
    EvaluationFailedError,
    NumericalError,
    PipelineStageError,
    ProtocolError,
    UsageError,
)
from .fusion import SimplexCoefficients, atomic_write, fuse, load_member_set, save_checkpoint
from .pareto import hv_method, hypervolume, pareto_front
from . import pipeline as pl

_CSV_HELP = """\
file formats:
  history.csv columns: stage,eval_index,stage_index,failed,on_front,x,raw,normalized
    (x/raw/normalized are semicolon-joined repr floats)
  surface.csv columns: w0,w1,w2,<objective names sorted> (barycentric grid)
  --points accepts a JSON array of points or CSV with one point per line
  --delta accepts a JSON file holding the coefficient array
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 1 for usage
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bofusion",
        description=__doc__.splitlines()[0],
        epilog=_CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text,
                           epilog=_CSV_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--seed", type=int, required=True, help="master RNG seed")
        return p

    p = add("hpo", "run the hyperparameter stage on its own")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = add("mobo", "run the fusion-coefficient stage over a saved member set")
    p.add_argument("--members", required=True, help="member manifest.json")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = add("pipeline", "run both stages plus baselines")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = add("fuse", "weighted-average checkpoints from a member manifest")
    p.add_argument("--members", required=True, help="member manifest.json")
    p.add_argument("--out", required=True, help="output checkpoint path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", help="JSON file holding the simplex coefficients")
    group.add_argument("--uniform", action="store_true", help="uniform average")
    group.add_argument("--subset", help="comma-separated member ids, averaged uniformly")

    p = add("hv", "hypervolume of a point file (zero reference)")
    p.add_argument("--points", required=True, help="JSON array of points, or CSV")
    p.add_argument("--mc-samples", type=int, default=100_000)

    p = add("demo-misalign", "stage-2 comparison on a certified misaligned landscape")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--offset", type=float, default=1.0)
    p.add_argument("--ruggedness", type=float, default=0.5)
    p.add_argument("--n-members", type=int, default=5)
    p.add_argument("--iters-per-member", type=int, default=5)
    p.add_argument("--gp-restarts", type=int, default=8)

    p = add("scan-surface", "objective surface over the first three members")
    p.add_argument("--members", required=True, help="member manifest.json")
    p.add_argument("--config", required=True,
                   help="scorer evaluator config (JSON), e.g. the demo's scorer.json")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--resolution", type=int, default=21)
    return parser


def _load_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _load_scorer_block(path: str) -> dict:
    block = _load_json_file(path, "config")
    if not isinstance(block, dict):
        raise UsageError("scorer config must be a JSON object")
    return block


def _scorer_for_members(block: dict, members):
    """Build a scorer client whose delta arity matches the manifest.

    In-process builtins score the manifest's members directly; a subprocess
    evaluator owns its own copy of the member set and only the count must
    agree (the child rejects mismatched deltas through the protocol).
    """
    scorer = pl.build_evaluator(block, n_members=len(members))
    target = getattr(scorer, "target", None)
    if target is None:
        return scorer
    dim = members.weights_matrix.shape[1]
    if hasattr(target, "task"):
        want = target.task.dim + 1
        if dim != want:
            raise UsageError(
                f"manifest weights have dim {dim}, toy scorer expects {want}")
    elif hasattr(target, "landscape"):
        if dim != target.landscape.dim:
            raise UsageError(
                f"manifest weights have dim {dim}, landscape has dim {target.landscape.dim}")
    target.members = members
    return scorer


def _cmd_hpo(args) -> int:
    config = pl.load_config(args.config)
    trainer, _, proxy, clients = pl._build_clients(config)
    try:
        best_lambda, state = pl.run_hpbo(
            config.space,
            proxy if proxy is not None else trainer,
            config.objectives,
            n_init=config.n_init,
            n_iter=config.hpbo_iters,
            seed=args.seed,
            acq_cfg=config.acq,
            gp_restarts=config.gp_restarts,
        )
    finally:
        for c in clients:
            c.close()
    os.makedirs(args.out, exist_ok=True)
    rows = pl.history_rows("hpbo", state.history, 0)
    for r in rows:
        if r["stage_index"] == state.best_index:
            r["on_front"] = 1
    pl.write_history_csv(os.path.join(args.out, "history.csv"), rows)
    pl.write_json(os.path.join(args.out, "best_lambda.json"), {
        "schema": pl.REPORT_SCHEMA,
        "seed": args.seed,
        "best_lambda": pl._params_dict(config.space, best_lambda),
        "best_objective": float(state.scalarized.max()),
        "n_evaluations": len(state.history),
    })
    print(f"hpbo: {len(state.history)} evaluations, report in {args.out}")
    return 0


def _cmd_mobo(args) -> int:
    config = pl.load_config(args.config)
    members = load_member_set(args.members)
    n = len(members)
    scorer = _scorer_for_members(config.scorer, members)
    try:
        spec, standalone, best_member_id = pl.derive_windows(scorer, config.objectives, n, args.seed)
        delta_star, state = pl.run_mobo(
            members,
            scorer,
            spec,
            n_iter=config.mobo_iters_per_member * n,
            seed=args.seed,
            best_member_id=best_member_id,
            acq_cfg=config.acq,
            gp_restarts=config.gp_restarts,
        )
    finally:
        scorer.close()
    os.makedirs(args.out, exist_ok=True)
    rows = pl.history_rows("members", standalone, 0)
    rows += pl.history_rows("mobo", state.history, len(rows), frozenset(state.front.ids))
    pl.write_history_csv(os.path.join(args.out, "history.csv"), rows)
    pl.write_json(os.path.join(args.out, "front.json"), {
        "schema": pl.REPORT_SCHEMA,
        "names": list(spec.names),
        "ids": [int(i) for i in state.front.ids],
        "points": [[float(v) for v in p] for p in state.front.points],
    })
    pl.write_json(os.path.join(args.out, "delta_star.json"), {
        "schema": pl.REPORT_SCHEMA,
        "seed": args.seed,
        "delta_star": [float(v) for v in delta_star.values],
        "best_member_id": best_member_id,
        "front_size": len(state.front),
        "windows": {e.name: {"norm_min": e.norm_min, "norm_max": e.norm_max} for e in spec.entries},
        "n_evaluations": len(state.history),
    })
    fused = fuse(members, delta_star)
    step = max(m.step for m in members.members)
    save_checkpoint(fused, {"id": n, "step": step}, os.path.join(args.out, "fused.ckpt"))
    print(f"mobo: {len(state.history)} evaluations, front size {len(state.front)}, report in {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    config = pl.load_config(args.config)
    report = pl.run_pipeline(config, args.seed, out_dir=args.out)
    star = report["methods"]["mobo_fusion"]
    print(
        f"pipeline: convergence step {report['convergence_step']}, "
        f"fused objective sum {star['objective_sum']:.6g}, report in {args.out}"
    )
    return 0


def _cmd_fuse(args) -> int:
    members = load_member_set(args.members)
    n = len(members)
    if args.uniform:
        delta = SimplexCoefficients.uniform(n)
    elif args.subset is not None:
        try:
            ids = [int(tok) for tok in args.subset.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad subset {args.subset!r}: {exc}") from None
        id_list = [m.id for m in members.members]
        values = np.zeros(n)
        for mid in ids:
            if mid not in id_list:
                raise UsageError(f"member id {mid} not in manifest")
            values[id_list.index(mid)] = 1.0
        if values.sum() == 0:
            raise UsageError("empty subset")
        delta = SimplexCoefficients(values / values.sum())
    else:
        payload = _load_json_file(args.delta, "delta")
        try:
            values = np.array([float(v) for v in payload])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"delta file must hold a float array: {exc}") from None
        if values.shape[0] != n:
            raise UsageError(f"delta has {values.shape[0]} entries for {n} members")
        try:
            delta = SimplexCoefficients(values)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    fused = fuse(members, delta)
    step = max(m.step for m in members.members)
    path = save_checkpoint(fused, {"id": n, "step": step}, args.out)
    print(f"fused {n} members -> {args.out} (sidecar {path})")
    return 0


def _read_points(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise UsageError(f"points file not found: {path}") from None
    try:
        payload = json.loads(text)
        rows = [[float(v) for v in row] for row in payload]
    except json.JSONDecodeError:
        try:
            rows = [
                [float(tok) for tok in line.split(",")]
                for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
        except ValueError as exc:
            raise UsageError(f"bad points file: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad points file: {exc}") from None
    if not rows:
        raise UsageError("points file is empty")
    if len({len(r) for r in rows}) != 1:
        raise UsageError("points have inconsistent dimensions")
    return np.array(rows)


def _cmd_hv(args) -> int:
    points = _read_points(args.points)
    front = pareto_front(points)
    value = hypervolume(front, mc_samples=args.mc_samples, mc_seed=args.seed)
    method = hv_method(points.shape[1])
    print(f"hypervolume={value:.6g} backend={method} front_size={len(front)}")
    return 0


def _cmd_demo(args) -> int:
    report = pl.run_demo_misalign(
        args.seed,
        out_dir=args.out,
        dim=args.dim,
        offset=args.offset,
        ruggedness=args.ruggedness,
        n_members=args.n_members,
        iters_per_member=args.iters_per_member,
        gp_restarts=args.gp_restarts,
    )
    cert = report["certificate"]
    print(
        "demo-misalign: certified misalignment "
        f"(uniform {cert['uniform_metric']:.4f} < best single {cert['best_single_metric']:.4f} "
        f"< best mixture {cert['best_mixture_metric']:.4f}), report in {args.out}"
    )
    return 0


def _cmd_scan(args) -> int:
    if args.resolution < 2:
        raise UsageError("resolution must be >= 2")
    members = load_member_set(args.members)
    n = len(members)
    if n < 3:
        raise UsageError("scan-surface needs at least three members")
    block = _load_scorer_block(args.config)
    scorer = _scorer_for_members(block, members)
    try:
        probe = scorer.score(np.full(n, 1.0 / n))
        names = sorted(probe)
        lines = ["w0,w1,w2," + ",".join(names)]
        R = args.resolution
        for i in range(R):
            for j in range(R - i):
                a = i / (R - 1)
                b = j / (R - 1)
                c = 1.0 - a - b
                delta = np.zeros(n)
                delta[0], delta[1], delta[2] = a, b, max(c, 0.0)
                delta /= delta.sum()
                objs = scorer.score(delta)
                lines.append(
                    f"{a!r},{b!r},{max(c, 0.0)!r},"
                    + ",".join(repr(float(objs[name])) for name in names)
                )
    finally:
        scorer.close()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"scan-surface: {len(lines) - 1} grid points in {args.out}")
    return 0


_COMMANDS = {
    "hpo": _cmd_hpo,
    "mobo": _cmd_mobo,
    "pipeline": _cmd_pipeline,
    "fuse": _cmd_fuse,
    "hv": _cmd_hv,
    "demo-misalign": _cmd_demo,
    "scan-surface": _cmd_scan,
}


def entrypoint(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, (EvaluationFailedError, ProtocolError)) else 3
    except (EvaluationFailedError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BofusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script shim
    sys.exit(entrypoint())


if __name__ == "__main__":
    sys.exit(entrypoint())
