import json
import subprocess

import numpy as np
import pytest

from bofusion.cli import entrypoint
from bofusion.errors import NumericalError, PipelineStageError
from bofusion.fusion import (
    Member,
    MemberSet,
    fuse,
    fuse_uniform,
    load_checkpoint,
    save_member_set,
    SimplexCoefficients,
)

from conftest import PYTHON

TINY_CONFIG = {
    "space": [{"name": "lr", "lower": 0.01, "upper": 2.0, "scale": "log"}],
    "objectives": [
        {"name": "loss", "direction": "minimize", "kind": "loss"},
        {"name": "f1", "direction": "maximize", "kind": "metric"},
    ],
    "n_members": 3,
    "budgets": {"n_init": 2, "hpbo_iters": 1, "mobo_iters_per_member": 1},
    "acq": {"n_restarts": 2, "n_raw_candidates": 32, "n_mc": 8, "local_steps": 1},
    "gp_restarts": 2,
    "trainer": {"builtin": "toy", "seed": 11, "n_members": 3},
    "scorer": {"builtin": "toy", "seed": 11, "n_members": 3},
    "learned_swa": {"steps": 10, "lr": 0.1},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def make_manifest(tmp_path, n=3, dim=4, seed=3):
    rng = np.random.default_rng(seed)
    members = MemberSet(tuple(
        Member(id=i, step=(i + 1) * 10, weights=rng.standard_normal(dim))
        for i in range(n)
    ))
    return members, save_member_set(members, str(tmp_path / "members"))


@pytest.fixture()
def manifest(tmp_path):
    return make_manifest(tmp_path)


# ---------------------------------------------------------------------------
# usage errors


class TestUsage:
    def test_no_arguments(self):
        assert entrypoint([]) == 1

    def test_unknown_subcommand(self):
        assert entrypoint(["optimize", "--seed", "0"]) == 1

    def test_missing_seed(self, tiny_config, tmp_path):
        assert entrypoint(["pipeline", "--config", tiny_config,
                           "--out", str(tmp_path / "o")]) == 1

    def test_unknown_flag_rejected(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("0.5,0.5\n")
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts),
                           "--turbo"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert entrypoint(["pipeline", "--seed", "0", "--config",
                           str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 1

    def test_error_code_mapping_for_numerical_failures(self, monkeypatch):
        import bofusion.cli as cli

        def boom(args):
            raise NumericalError("singular")

        monkeypatch.setitem(cli._COMMANDS, "hv", boom)
        assert entrypoint(["hv", "--seed", "0", "--points", "x.csv"]) == 3

    def test_error_code_mapping_for_stage_numerical_failures(self, monkeypatch):
        import bofusion.cli as cli

        def boom(args):
            raise PipelineStageError("mobo", NumericalError("singular"))

        monkeypatch.setitem(cli._COMMANDS, "hv", boom)
        assert entrypoint(["hv", "--seed", "0", "--points", "x.csv"]) == 3


# ---------------------------------------------------------------------------
# hv


class TestHv:
    def test_worked_front_csv(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("0.2,0.8\n0.5,0.5\n0.8,0.2\n0.1,0.1\n")
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "hypervolume=0.37 front_size=3"

    def test_worked_front_json(self, tmp_path, capsys):
        pts = tmp_path / "points.json"
        pts.write_text(json.dumps([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]]))
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 0
        assert "hypervolume=0.37" in capsys.readouterr().out

    def test_mc_backend_for_many_objectives(self, tmp_path, capsys):
        """K=4 takes the same exact path as K <= 3, and the Monte-Carlo
        sample count is no longer an option."""
        pts = tmp_path / "points.csv"
        pts.write_text("0.5,0.5,0.5,0.5\n")
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("hypervolume=")[1].split()[0])
        assert value == 0.0625
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts),
                           "--mc-samples", "20000"]) == 1

    def test_front_with_too_many_cells_is_a_numerical_failure(self, tmp_path, capsys):
        # 20 points on the unit sphere in 9 objectives may need 1.5M cells.
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.05, 1.0, size=(20, 9))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        path = tmp_path / "points.json"
        path.write_text(json.dumps(pts.tolist()))
        assert entrypoint(["hv", "--seed", "0", "--points", str(path)]) == 3
        assert "cells" in capsys.readouterr().err

    def test_missing_points_file(self, tmp_path):
        assert entrypoint(["hv", "--seed", "0", "--points", str(tmp_path / "no.csv")]) == 1

    def test_empty_points_file(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("# only a comment\n")
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 1

    def test_malformed_points_file(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("0.2,oops\n")
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 1

    def test_ragged_points_rejected(self, tmp_path):
        pts = tmp_path / "points.json"
        pts.write_text(json.dumps([[0.2, 0.8], [0.5]]))
        assert entrypoint(["hv", "--seed", "0", "--points", str(pts)]) == 1


# ---------------------------------------------------------------------------
# fuse


class TestFuse:
    def test_uniform_average(self, manifest, tmp_path):
        members, manifest_path = manifest
        out = str(tmp_path / "fused.ckpt")
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", out, "--uniform"]) == 0
        loaded = load_checkpoint(out)
        assert np.array_equal(loaded.weights, fuse_uniform(members))
        assert loaded.id == 3
        assert loaded.step == 30  # newest member step

    def test_one_hot_delta_recovers_member_bitwise(self, manifest, tmp_path):
        members, manifest_path = manifest
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps([0.0, 1.0, 0.0]))
        out = str(tmp_path / "fused.ckpt")
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", out, "--delta", str(delta_file)]) == 0
        loaded = load_checkpoint(out)
        assert np.array_equal(loaded.weights, members.members[1].weights)

    def test_general_delta_matches_library_fusion(self, manifest, tmp_path):
        members, manifest_path = manifest
        delta = [0.2, 0.5, 0.3]
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(delta))
        out = str(tmp_path / "fused.ckpt")
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", out, "--delta", str(delta_file)]) == 0
        want = fuse(members, SimplexCoefficients(np.array(delta)))
        assert np.array_equal(load_checkpoint(out).weights, want)

    def test_subset_average(self, manifest, tmp_path):
        members, manifest_path = manifest
        out = str(tmp_path / "fused.ckpt")
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", out, "--subset", "0,2"]) == 0
        loaded = load_checkpoint(out)
        want = (members.members[0].weights + members.members[2].weights) / 2.0
        assert np.allclose(loaded.weights, want)

    def test_wrong_delta_arity(self, manifest, tmp_path):
        _, manifest_path = manifest
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps([0.5, 0.5]))
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", str(tmp_path / "f.ckpt"), "--delta", str(delta_file)]) == 1

    def test_off_simplex_delta(self, manifest, tmp_path):
        _, manifest_path = manifest
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps([0.9, 0.9, -0.8]))
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", str(tmp_path / "f.ckpt"), "--delta", str(delta_file)]) == 1

    def test_unknown_subset_id(self, manifest, tmp_path):
        _, manifest_path = manifest
        assert entrypoint(["fuse", "--seed", "0", "--members", manifest_path,
                           "--out", str(tmp_path / "f.ckpt"), "--subset", "0,9"]) == 1

    def test_missing_manifest(self, tmp_path):
        assert entrypoint(["fuse", "--seed", "0", "--members",
                           str(tmp_path / "absent.json"),
                           "--out", str(tmp_path / "f.ckpt"), "--uniform"]) == 1


# ---------------------------------------------------------------------------
# stage subcommands


class TestStageCommands:
    def test_hpo_writes_report(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "hpo"
        assert entrypoint(["hpo", "--seed", "3", "--config", tiny_config,
                           "--out", str(out)]) == 0
        report = json.loads((out / "best_lambda.json").read_text())
        assert report["n_evaluations"] == 3  # n_init 2 + 1 iteration
        assert 0.01 <= report["best_lambda"]["lr"] <= 2.0
        lines = (out / "history.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3
        assert "evaluations" in capsys.readouterr().out

    def test_mobo_writes_reports_and_fused_checkpoint(self, tiny_config, tmp_path):
        # toy scorer over a saved manifest: weights dim = task dim + bias
        members, manifest_path = make_manifest(tmp_path, n=3, dim=5)
        out = tmp_path / "mobo"
        assert entrypoint(["mobo", "--seed", "3", "--members", manifest_path,
                           "--config", tiny_config, "--out", str(out)]) == 0

        star = json.loads((out / "delta_star.json").read_text())
        d = np.array(star["delta_star"])
        assert d.shape == (3,)
        assert d.sum() == pytest.approx(1.0, abs=1e-9)
        assert star["n_evaluations"] == 4 + 3  # |members|+1 init, 1*|members| iters
        assert set(star["windows"]) == {"loss", "f1"}

        front = json.loads((out / "front.json").read_text())
        assert front["names"] == ["loss", "f1"]
        assert len(front["ids"]) == len(front["points"]) == star["front_size"]

        fused = load_checkpoint(str(out / "fused.ckpt"))
        want = fuse(members, SimplexCoefficients(d))
        assert np.array_equal(fused.weights, want)

        lines = (out / "history.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 + 7  # header + standalone rows + mobo rows

    def test_mobo_dim_mismatch_is_usage_error(self, tiny_config, tmp_path):
        _, manifest_path = make_manifest(tmp_path, n=3, dim=4)  # toy wants 5
        assert entrypoint(["mobo", "--seed", "3", "--members", manifest_path,
                           "--config", tiny_config, "--out", str(tmp_path / "o")]) == 1

    def test_pipeline_runs_and_replays(self, tiny_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert entrypoint(["pipeline", "--seed", "3", "--config", tiny_config,
                           "--out", str(out_a)]) == 0
        assert "pipeline:" in capsys.readouterr().out
        assert entrypoint(["pipeline", "--seed", "3", "--config", tiny_config,
                           "--out", str(out_b)]) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_pipeline_trainerless_evaluator_exits_two(self, tmp_path):
        cfg = dict(TINY_CONFIG)
        cfg["trainer"] = {"builtin": "landscape", "seed": 0, "n_members": 3}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert entrypoint(["pipeline", "--seed", "0", "--config", str(path),
                           "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# demo and surface scan


class TestDemoAndScan:
    def test_demo_misalign_smoke(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = entrypoint([
            "demo-misalign", "--seed", "0", "--out", str(out),
            "--n-members", "3", "--iters-per-member", "1", "--gp-restarts", "2",
        ])
        assert code == 0
        assert "certified misalignment" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["certified"]
        for name in ("history.csv", "table.csv", "scorer.json"):
            assert (out / name).exists(), name
        assert (out / "members" / "manifest.json").exists()
        scorer_block = json.loads((out / "scorer.json").read_text())
        assert scorer_block["builtin"] == "landscape"
        assert scorer_block["n_members"] == 3

    def test_scan_surface_over_demo_outputs(self, tmp_path, capsys):
        # the demo writes members/ + scorer.json exactly so the scan can
        # reproduce its landscape slice
        demo = tmp_path / "demo"
        assert entrypoint([
            "demo-misalign", "--seed", "1", "--out", str(demo),
            "--n-members", "3", "--iters-per-member", "1", "--gp-restarts", "2",
        ]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "surface.csv"
        assert entrypoint([
            "scan-surface", "--seed", "0",
            "--members", str(demo / "members" / "manifest.json"),
            "--config", str(demo / "scorer.json"),
            "--out", str(out_csv), "--resolution", "4",
        ]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "w0,w1,w2,loss,metric"
        assert len(lines) == 1 + 10  # triangular grid: 4+3+2+1
        row = [float(v) for v in lines[1].split(",")]
        assert len(row) == 5
        assert "grid points" in capsys.readouterr().out

    def test_scan_surface_rejects_tiny_resolution(self, tmp_path):
        _, manifest_path = make_manifest(tmp_path, n=3, dim=5)
        cfg = tmp_path / "scorer.json"
        cfg.write_text(json.dumps({"builtin": "landscape", "seed": 0, "n_members": 3}))
        assert entrypoint(["scan-surface", "--seed", "0", "--members", manifest_path,
                           "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
                           "--resolution", "1"]) == 1

    def test_scan_surface_needs_three_members(self, tmp_path):
        _, manifest_path = make_manifest(tmp_path, n=2, dim=5)
        cfg = tmp_path / "scorer.json"
        cfg.write_text(json.dumps({"builtin": "landscape", "seed": 0, "n_members": 2}))
        assert entrypoint(["scan-surface", "--seed", "0", "--members", manifest_path,
                           "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 1


# ---------------------------------------------------------------------------
# module execution shim


class TestModuleShim:
    def test_python_dash_m_invocation(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("0.5,0.5\n")
        proc = subprocess.run(
            [PYTHON, "-m", "bofusion", "hv", "--seed", "0", "--points", str(pts)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "hypervolume=0.25" in proc.stdout

    def test_python_dash_m_usage_error(self):
        proc = subprocess.run(
            [PYTHON, "-m", "bofusion", "hv", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()
