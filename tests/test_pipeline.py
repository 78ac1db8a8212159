import json
import math

import numpy as np
import pytest

from bofusion.acquisition import AcqConfig
from bofusion.core import (
    BoundedParamSpace,
    EvalMeta,
    Observation,
    ObjectiveEntry,
    ObjectiveSpec,
    ParamDim,
)
from bofusion.errors import (
    EvaluationFailedError,
    NumericalError,
    PipelineStageError,
    ProtocolError,
    UsageError,
)
from bofusion.fusion import SimplexCoefficients
from bofusion.pareto import pareto_front
from bofusion.pipeline import (
    HISTORY_COLUMNS,
    InProcessEvaluator,
    MoboState,
    SubprocessEvaluator,
    SubprocessSpec,
    build_evaluator,
    derive_windows,
    fusion_baselines,
    history_rows,
    load_config,
    parse_config,
    run_hpbo,
    run_mobo,
    run_pipeline,
)
from bofusion import toybench
from bofusion.toybench import LandscapeEvaluator, ToyEvaluator

from conftest import FAULT_EVALUATOR, PYTHON

CHEAP = AcqConfig(n_restarts=2, n_raw_candidates=48, n_mc=16, local_steps=2)

LOSS_METRIC_SPEC = ObjectiveSpec((
    ObjectiveEntry("loss", "minimize", 0.0, 1.0, "loss"),
    ObjectiveEntry("metric", "maximize", 0.0, 1.0, "metric"),
))
METRIC_ONLY_SPEC = ObjectiveSpec((
    ObjectiveEntry("metric", "maximize", 0.0, 1.0, "metric"),
))


def fault_client(fault, at, timeout_s=10.0, sleep=2.0):
    spec = SubprocessSpec(
        cmd=PYTHON,
        args=(str(FAULT_EVALUATOR), "--fault", fault, "--at", str(at), "--sleep", str(sleep)),
        timeout_s=timeout_s,
    )
    return SubprocessEvaluator(spec)


# ---------------------------------------------------------------------------
# in-process protocol framing


class TestInProcessProtocol:
    def test_trainer_roundtrip(self):
        class T:
            def train(self, params):
                return {"objectives": {"metric": params["lr"] * 2.0}, "convergence_step": 7}

        client = InProcessEvaluator(T())
        out = client.train({"lr": 0.25})
        assert out.objectives == {"metric": 0.5}
        assert out.convergence_step == 7

    def test_scorer_roundtrip(self):
        class S:
            def score(self, delta):
                return {"loss": float(sum(delta))}

        client = InProcessEvaluator(S())
        assert client.score([0.25, 0.75]) == {"loss": 1.0}

    def test_request_ids_increment(self):
        seen = []

        class S:
            def score(self, delta):
                return {"loss": 0.0}

        client = InProcessEvaluator(S())
        orig = client.roundtrip

        def spy(request):
            seen.append(request["id"])
            return orig(request)

        client.roundtrip = spy
        client.score([1.0])
        client.score([1.0])
        assert seen == [0, 1]

    def test_refusal_surfaces_as_failure(self):
        class S:
            def score(self, delta):
                raise EvaluationFailedError("diverged")

        with pytest.raises(EvaluationFailedError, match="diverged"):
            InProcessEvaluator(S()).score([1.0])

    def test_unknown_role_rejected(self):
        client = InProcessEvaluator(object())
        reply = client.roundtrip({"id": 0, "role": "oracle"})
        assert reply["ok"] is False


# ---------------------------------------------------------------------------
# stage 1: hyperparameter BO


class QuadTrainer:
    """Deterministic 1D trainer with its optimum at lr = 0.62."""

    def train(self, params):
        lam = params["lr"]
        return {"objectives": {"metric": 1.0 - (lam - 0.62) ** 2}, "convergence_step": 10}


class TestRunHpbo:
    def test_finds_quadratic_optimum_across_seeds(self):
        # grid oracle: the metric is exactly quadratic, optimum at 0.62
        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        hits = 0
        for seed in range(10):
            best, state = run_hpbo(
                space, InProcessEvaluator(QuadTrainer()), LOSS_METRIC_SPEC,
                seed=seed, acq_cfg=CHEAP, gp_restarts=2,
            )
            assert len(state.history) == 13
            if abs(best[0] - 0.62) < 0.05:
                hits += 1
        assert hits >= 9, f"optimum localized in only {hits}/10 seeds"

    def test_zero_iterations_returns_best_initial(self):
        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        best, state = run_hpbo(
            space, InProcessEvaluator(QuadTrainer()), LOSS_METRIC_SPEC,
            n_iter=0, seed=3, acq_cfg=CHEAP, gp_restarts=2,
        )
        assert len(state.history) == 3
        scal = state.scalarized
        assert state.best_index == int(np.argmax(scal))
        assert best[0] == state.history[state.best_index].x[0]

    def test_constant_objective_ties_to_earliest(self):
        class Flat:
            def train(self, params):
                return {"objectives": {"metric": 0.5}, "convergence_step": 1}

        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        _, state = run_hpbo(
            space, InProcessEvaluator(Flat()), LOSS_METRIC_SPEC,
            n_iter=2, seed=0, acq_cfg=CHEAP, gp_restarts=2,
        )
        assert state.best_index == 0

    def test_all_failures_raise(self):
        class Dead:
            def train(self, params):
                raise EvaluationFailedError("nope")

        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        with pytest.raises(EvaluationFailedError):
            run_hpbo(space, InProcessEvaluator(Dead()), LOSS_METRIC_SPEC,
                     n_iter=1, seed=0, acq_cfg=CHEAP, gp_restarts=2)

    def test_partial_failures_become_placeholders(self):
        calls = [0]

        class Flaky:
            def train(self, params):
                calls[0] += 1
                if calls[0] % 3 == 0:
                    raise EvaluationFailedError("transient")
                return QuadTrainer().train(params)

        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        _, state = run_hpbo(
            space, InProcessEvaluator(Flaky()), LOSS_METRIC_SPEC,
            n_init=3, n_iter=4, seed=1, acq_cfg=CHEAP, gp_restarts=2,
        )
        assert len(state.history) == 7  # failures consume budget, loop survives
        failed = [o for o in state.history if o.meta.failed]
        assert failed, "flaky trainer never failed"
        for o in failed:
            assert np.all(np.isnan(o.raw))
            assert np.array_equal(o.normalized, np.zeros(1))
        assert not state.history[state.best_index].meta.failed

    def test_integer_dims_reach_trainer_as_ints(self):
        seen = []

        class Spy:
            def train(self, params):
                seen.append(params)
                return {"objectives": {"metric": 0.5}, "convergence_step": 1}

        space = BoundedParamSpace((
            ParamDim("lr", 0.0, 1.0),
            ParamDim("batch_size", 1, 64, integer=True),
        ))
        run_hpbo(space, InProcessEvaluator(Spy()), LOSS_METRIC_SPEC,
                 n_iter=0, seed=0, acq_cfg=CHEAP, gp_restarts=2)
        for params in seen:
            assert isinstance(params["batch_size"], int)
            assert isinstance(params["lr"], float)

    def test_seeded_replay_identical(self):
        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        _, a = run_hpbo(space, InProcessEvaluator(QuadTrainer()), LOSS_METRIC_SPEC,
                        n_iter=3, seed=5, acq_cfg=CHEAP, gp_restarts=2)
        _, b = run_hpbo(space, InProcessEvaluator(QuadTrainer()), LOSS_METRIC_SPEC,
                        n_iter=3, seed=5, acq_cfg=CHEAP, gp_restarts=2)
        assert np.array_equal(
            np.stack([o.x for o in a.history]), np.stack([o.x for o in b.history])
        )


# ---------------------------------------------------------------------------
# stage 2: multi-objective BO over the simplex


class HotScorer:
    """Both objectives prefer pure member 2."""

    def score(self, delta):
        d = np.asarray(delta)
        return {"loss": 1.0 - float(d[2]), "metric": float(d[2])}


class TestRunMobo:
    def test_default_budget_arithmetic(self):
        delta, state = run_mobo(3, InProcessEvaluator(HotScorer()), LOSS_METRIC_SPEC,
                                seed=0, best_member_id=2, acq_cfg=CHEAP, gp_restarts=2)
        assert state.n_iter == 15  # 5 * |members|
        assert len(state.history) == (3 + 1) + 15

    def test_dominant_one_hot_recovered(self):
        # oracle check: among one-hots and 10^4 Dirichlet draws the pure
        # member-2 mixture maximizes both objectives simultaneously
        rng = np.random.default_rng(0)
        cands = np.vstack([np.eye(4), rng.dirichlet(np.ones(4), size=10_000)])
        hot = np.eye(4)[2]
        scorer = HotScorer()
        best_sum = max(scorer.score(c)["metric"] - scorer.score(c)["loss"] for c in cands)
        assert scorer.score(hot)["metric"] - scorer.score(hot)["loss"] == pytest.approx(best_sum)

        for seed in (0, 1):
            delta, _ = run_mobo(4, InProcessEvaluator(HotScorer()), LOSS_METRIC_SPEC,
                                seed=seed, best_member_id=2, acq_cfg=CHEAP, gp_restarts=2)
            tv = 0.5 * float(np.abs(delta.values - hot).sum())
            assert tv <= 0.05, f"seed {seed}: tv={tv}"

    def test_single_objective_concave_metric(self):
        target = np.array([0.5, 0.3, 0.2])

        class Concave:
            def score(self, delta):
                d = np.asarray(delta)
                return {"metric": float(1.0 - np.sum((d - target) ** 2))}

        delta, state = run_mobo(3, InProcessEvaluator(Concave()), METRIC_ONLY_SPEC,
                                seed=0, acq_cfg=CHEAP, gp_restarts=2)
        assert 0.5 * float(np.abs(delta.values - target).sum()) <= 0.1

    def test_no_best_id_seeds_every_one_hot(self):
        seen = []

        class Spy:
            def score(self, delta):
                seen.append(np.asarray(delta).copy())
                return {"loss": 0.5, "metric": 0.5}

        run_mobo(4, InProcessEvaluator(Spy()), LOSS_METRIC_SPEC,
                 n_iter=0, seed=0, acq_cfg=CHEAP, gp_restarts=2)
        assert len(seen) == 5
        assert np.allclose(seen[0], 0.25)
        # remaining initial points cover one-hots until the budget runs out
        for i, d in enumerate(seen[1:]):
            assert np.array_equal(d, np.eye(4)[i])

    def test_refuses_an_oversized_stage2_before_evaluating(self):
        # 15 members, 75 iterations, 5 objectives: the last acquisition
        # would see 90 points, more than NEHVI's partition bound admits.
        calls = []

        class Spy:
            def score(self, delta):
                calls.append(delta)
                return {f"m{i}": 0.5 for i in range(5)}

        spec = ObjectiveSpec(tuple(
            ObjectiveEntry(f"m{i}", "maximize", 0.0, 1.0, "metric") for i in range(5)
        ))
        with pytest.raises(NumericalError, match="partition floats"):
            run_mobo(15, InProcessEvaluator(Spy()), spec, seed=0)
        assert calls == []

    def test_failures_become_placeholder_rows(self):
        calls = [0]

        class Flaky(HotScorer):
            def score(self, delta):
                calls[0] += 1
                if calls[0] == 2:
                    raise EvaluationFailedError("transient")
                return super().score(delta)

        _, state = run_mobo(3, InProcessEvaluator(Flaky()), LOSS_METRIC_SPEC,
                            n_iter=2, seed=0, best_member_id=2,
                            acq_cfg=CHEAP, gp_restarts=2)
        assert len(state.history) == 6
        failed = state.history[1]
        assert failed.meta.failed
        assert np.all(np.isnan(failed.raw))
        assert np.array_equal(failed.normalized, np.zeros(2))
        assert 1 not in state.front.ids  # placeholders never enter the front

    def test_all_failures_raise(self):
        class Dead:
            def score(self, delta):
                raise EvaluationFailedError("nope")

        with pytest.raises(EvaluationFailedError):
            run_mobo(3, InProcessEvaluator(Dead()), LOSS_METRIC_SPEC,
                     n_iter=0, seed=0, acq_cfg=CHEAP, gp_restarts=2)

    def test_empty_front_falls_back_to_history(self):
        class Floor:
            def score(self, delta):
                return {"loss": 5.0, "metric": 0.0}  # normalizes to exactly zero

        delta, state = run_mobo(3, InProcessEvaluator(Floor()), LOSS_METRIC_SPEC,
                                n_iter=0, seed=0, acq_cfg=CHEAP, gp_restarts=2)
        assert len(state.front) == 0
        assert np.allclose(delta.values, 1.0 / 3.0)  # earliest row is the uniform


def make_state(normalized_rows, xs=None):
    spec = LOSS_METRIC_SPEC
    history = []
    for i, nz in enumerate(normalized_rows):
        x = np.asarray(xs[i]) if xs is not None else np.full(2, 0.5)
        history.append(Observation(
            x=x, raw=np.asarray(nz, dtype=float), normalized=np.asarray(nz, dtype=float),
            meta=EvalMeta(0, i, 0, False),
        ))
    front = pareto_front(np.stack([o.normalized for o in history]),
                         ids=[o.meta.eval_index for o in history])
    return MoboState(2, spec, history, front, 0, 0, None)


class TestSelectBestDelta:
    def test_highest_sum_wins(self):
        state = make_state(
            [[0.6, 0.6], [0.3, 0.6], [0.9, 0.6]],
            xs=[[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]],
        )
        got = state.best_delta
        assert np.allclose(got.values, [0.7, 0.3])

    def test_sum_tie_goes_to_earliest(self):
        state = make_state(
            [[0.5, 0.7], [0.7, 0.5]],
            xs=[[0.4, 0.6], [0.6, 0.4]],
        )
        got = state.best_delta
        assert np.allclose(got.values, [0.4, 0.6])

    def test_single_evaluation(self):
        state = make_state([[0.5, 0.5]], xs=[[1.0, 0.0]])
        assert np.allclose(state.best_delta.values, [1.0, 0.0])

    def test_renormalizes_off_simplex_x(self):
        state = make_state([[0.5, 0.5]], xs=[[0.5, 0.3]])
        got = state.best_delta
        assert got.values.sum() == pytest.approx(1.0)
        assert np.allclose(got.values, [0.625, 0.375])


# ---------------------------------------------------------------------------
# subprocess protocol and fault handling


class TestSubprocessProtocol:
    def test_clean_roundtrip(self):
        client = fault_client("refuse", at=99)
        try:
            out = client.train({"lr": 0.1})
            assert out.objectives == {"loss": 0.5, "metric": 0.5}
            assert out.convergence_step == 10
            scored = client.score([0.5, 0.5])
            assert scored["loss"] == pytest.approx(0.2)
            assert scored["metric"] == pytest.approx(0.5)
        finally:
            client.close()

    def test_mismatched_reply_id(self):
        client = fault_client("bad-id", at=0)
        try:
            with pytest.raises(ProtocolError, match="does not match"):
                client.score([1.0])
        finally:
            client.close()

    def test_refusal_maps_to_evaluation_failure(self):
        client = fault_client("refuse", at=0)
        try:
            with pytest.raises(EvaluationFailedError, match="diverged"):
                client.score([1.0])
            # the child survives a refusal; the next request succeeds
            assert client.score([1.0])["metric"] == pytest.approx(0.5)
        finally:
            client.close()

    def test_garbage_line_then_recovery(self):
        client = fault_client("garbage", at=1)
        try:
            client.score([1.0])
            with pytest.raises(ProtocolError, match="malformed"):
                client.score([1.0])
            # child was killed; a respawned one answers the next request
            assert client.score([1.0])["metric"] == pytest.approx(0.5)
        finally:
            client.close()

    def test_dead_process_then_recovery(self):
        client = fault_client("die", at=1)
        try:
            client.score([1.0])
            with pytest.raises(ProtocolError):
                client.score([1.0])
            assert client.score([1.0])["metric"] == pytest.approx(0.5)
        finally:
            client.close()

    def test_timeout_kills_child_and_late_reply_cannot_poison(self):
        # the child answers request 1 only after 2s; with a 0.5s budget the
        # client must time out, kill it, and keep later replies consistent
        client = fault_client("sleep", at=1, timeout_s=0.5, sleep=2.0)
        try:
            client.score([1.0])
            with pytest.raises(ProtocolError, match="no reply within"):
                client.score([1.0])
            out = client.score([0.5, 0.5])
            assert out["loss"] == pytest.approx(0.2)
        finally:
            client.close()

    def test_mobo_survives_scorer_refusals(self):
        client = fault_client("refuse", at=2)
        try:
            _, state = run_mobo(2, client, LOSS_METRIC_SPEC, n_iter=2, seed=0,
                                best_member_id=0, acq_cfg=CHEAP, gp_restarts=2)
        finally:
            client.close()
        assert len(state.history) == 5
        assert state.history[2].meta.failed
        assert sum(o.meta.failed for o in state.history) == 1

    def test_non_numeric_reply_is_a_protocol_error(self):
        client = fault_client("non-numeric", at=0)
        try:
            with pytest.raises(ProtocolError, match="non-numeric"):
                client.score([1.0])
            assert client.score([1.0])["metric"] == pytest.approx(0.5)
        finally:
            client.close()
        client = fault_client("non-numeric", at=0)
        try:
            with pytest.raises(ProtocolError, match="non-numeric"):
                client.train({"lr": 0.1})
            assert client.train({"lr": 0.1}).convergence_step == 10
        finally:
            client.close()

    def test_mobo_records_a_non_numeric_objective_as_failed(self):
        client = fault_client("non-numeric", at=2)
        try:
            _, state = run_mobo(2, client, LOSS_METRIC_SPEC, n_iter=2, seed=0,
                                best_member_id=0, acq_cfg=CHEAP, gp_restarts=2)
        finally:
            client.close()
        assert len(state.history) == 5
        assert [o.meta.failed for o in state.history] == [False, False, True, False, False]

    def test_hpbo_records_a_non_numeric_step_as_failed(self):
        client = fault_client("non-numeric", at=1)
        space = BoundedParamSpace((ParamDim("lr", 0.0, 1.0),))
        try:
            _, state = run_hpbo(space, client, LOSS_METRIC_SPEC, n_iter=1, seed=0,
                                acq_cfg=CHEAP, gp_restarts=2)
        finally:
            client.close()
        assert [o.meta.failed for o in state.history] == [False, True, False, False]


class TestToybenchSubprocess:
    def test_matches_in_process_toy_evaluator(self):
        spec = SubprocessSpec(
            cmd=PYTHON,
            args=("-m", "bofusion.toybench_evaluator", "--mode", "toy",
                  "--seed", "5", "--n-members", "3"),
        )
        client = SubprocessEvaluator(spec)
        try:
            sub_train = client.train({"lr": 0.5, "steps": 100})
            sub_score = client.score([1.0, 0.0, 0.0])
        finally:
            client.close()

        local = ToyEvaluator(seed=5, n_members=3)
        loc_train = local.train({"lr": 0.5, "steps": 100})
        loc_score = local.score([1.0, 0.0, 0.0])
        assert sub_train.objectives == pytest.approx(loc_train["objectives"], rel=1e-12)
        assert sub_train.convergence_step == loc_train["convergence_step"]
        assert sub_score == pytest.approx(loc_score, rel=1e-12)

    def test_matches_in_process_landscape(self):
        spec = SubprocessSpec(
            cmd=PYTHON,
            args=("-m", "bofusion.toybench_evaluator", "--mode", "landscape",
                  "--seed", "2", "--n-members", "4"),
        )
        client = SubprocessEvaluator(spec)
        try:
            sub = client.score([0.25, 0.25, 0.25, 0.25])
        finally:
            client.close()
        local = LandscapeEvaluator.from_seed(2, n_members=4)
        assert sub == pytest.approx(local.score([0.25] * 4), rel=1e-12)


# ---------------------------------------------------------------------------
# config parsing and evaluator construction


TOY_CONFIG = {
    "space": [
        {"name": "lr", "lower": 0.01, "upper": 2.0, "scale": "log"},
    ],
    "objectives": [
        {"name": "loss", "direction": "minimize", "kind": "loss"},
        {"name": "f1", "direction": "maximize", "kind": "metric"},
    ],
    "n_members": 3,
    "budgets": {"n_init": 2, "hpbo_iters": 2, "mobo_iters_per_member": 2},
    "acq": {"n_restarts": 2, "n_raw_candidates": 32, "n_mc": 8, "local_steps": 1},
    "gp_restarts": 2,
    "trainer": {"builtin": "toy", "seed": 11, "n_members": 3},
    "scorer": {"builtin": "toy", "seed": 11, "n_members": 3},
    "learned_swa": {"steps": 20, "lr": 0.1},
}


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config(TOY_CONFIG)
        assert cfg.n_members == 3
        assert cfg.space.dims[0].scale == "log"
        assert cfg.acq.n_mc == 8
        assert cfg.learned_steps == 20

    def test_objectives_need_exactly_one_loss(self):
        bad = dict(TOY_CONFIG)
        bad["objectives"] = [{"name": "f1", "direction": "maximize", "kind": "metric"}]
        with pytest.raises(UsageError):
            parse_config(bad)

    def test_missing_keys_rejected(self):
        with pytest.raises(UsageError):
            parse_config({"objectives": TOY_CONFIG["objectives"]})

    def test_learned_swa_settings_validated(self):
        for learned in ({"steps": -1}, {"lr": 0.0}):
            with pytest.raises(UsageError, match="learned_swa"):
                parse_config({**TOY_CONFIG, "learned_swa": learned})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_config(str(tmp_path / "absent.json"))

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(UsageError, match="not valid JSON"):
            load_config(str(p))

    def test_build_evaluator_unknown_builtin(self):
        with pytest.raises(UsageError):
            build_evaluator({"builtin": "quantum"})
        with pytest.raises(UsageError):
            build_evaluator({})


# ---------------------------------------------------------------------------
# end-to-end pipeline on the toy task


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = parse_config(TOY_CONFIG)
    report = run_pipeline(cfg, seed=7, out_dir=str(out))
    return cfg, report, out


class TestRunPipeline:
    def test_report_structure(self, tiny_run):
        _, report, _ = tiny_run
        for key in ("schema", "seed", "best_lambda", "hpbo_best_objective",
                    "convergence_step", "retrain_objectives", "n_members",
                    "windows", "objective_names", "best_member_id", "delta_star",
                    "methods", "front_size", "history_length", "degenerate_fusion"):
            assert key in report, key
        assert report["schema"] == 1
        assert report["seed"] == 7
        assert report["n_members"] == 3
        assert not report["degenerate_fusion"]
        assert set(report["methods"]) == {
            "best_member", "swa", "greedy_swa", "learned_swa", "mobo_fusion"
        }

    def test_budget_accounting(self, tiny_run):
        cfg, report, _ = tiny_run
        assert report["history_length"]["hpbo"] == cfg.n_init + cfg.hpbo_iters
        assert report["history_length"]["mobo"] == (cfg.n_members + 1
                                                    + cfg.mobo_iters_per_member * cfg.n_members)

    def test_windows_carry_spec_widths(self, tiny_run):
        _, report, _ = tiny_run
        w = report["windows"]
        assert w["loss"]["norm_max"] - w["loss"]["norm_min"] == pytest.approx(1.0)
        assert w["f1"]["norm_max"] - w["f1"]["norm_min"] == pytest.approx(0.1)

    def test_delta_star_on_simplex(self, tiny_run):
        _, report, _ = tiny_run
        d = np.array(report["delta_star"])
        assert d.shape == (3,)
        assert d.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(d >= 0)

    def test_methods_report_raw_and_normalized(self, tiny_run):
        _, report, _ = tiny_run
        for name, row in report["methods"].items():
            assert set(row["raw"]) == {"loss", "f1"}, name
            assert set(row["normalized"]) == {"loss", "f1"}, name
            if not row["failed"]:
                assert math.isfinite(row["objective_sum"]), name
        assert report["methods"]["greedy_swa"]["subset"], "greedy kept nothing"

    def test_history_csv_layout(self, tiny_run):
        cfg, report, out = tiny_run
        lines = (out / "history.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        rows = [dict(zip(HISTORY_COLUMNS, ln.split(","))) for ln in lines[1:]]
        stages = [r["stage"] for r in rows]
        for stage in ("hpbo", "members", "mobo", "baseline"):
            assert stage in stages, stage
        assert [int(r["eval_index"]) for r in rows] == list(range(len(rows)))
        n_hpbo = sum(s == "hpbo" for s in stages)
        assert n_hpbo == report["history_length"]["hpbo"]
        assert sum(s == "mobo" for s in stages) == report["history_length"]["mobo"]
        assert sum(s == "members" for s in stages) == cfg.n_members
        # exactly one hpbo row is flagged as the incumbent
        assert sum(int(r["on_front"]) for r in rows if r["stage"] == "hpbo") == 1
        assert sum(int(r["on_front"]) for r in rows if r["stage"] == "mobo") == report["front_size"]
        # vectors are semicolon-joined repr floats
        first_mobo = next(r for r in rows if r["stage"] == "mobo")
        vals = [float(v) for v in first_mobo["x"].split(";")]
        assert len(vals) == cfg.n_members

    def test_report_json_written(self, tiny_run):
        _, report, out = tiny_run
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))

    def test_replay_is_byte_identical(self, tiny_run, tmp_path):
        cfg, _, out = tiny_run
        rerun = tmp_path / "rerun"
        run_pipeline(cfg, seed=7, out_dir=str(rerun))
        assert (rerun / "history.csv").read_bytes() == (out / "history.csv").read_bytes()
        assert (rerun / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_stage_failures_are_attributed(self):
        # a landscape evaluator has no trainer role, so every hpbo trainer
        # call fails and the error must name the stage that died
        cfg = parse_config({
            **TOY_CONFIG,
            "trainer": {"builtin": "landscape", "seed": 0, "n_members": 3},
        })
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(cfg, seed=0)
        assert err.value.stage == "hpbo"
        assert isinstance(err.value.__cause__, EvaluationFailedError)

    def test_oversized_stage2_is_refused_before_stage1(self):
        # Stage 1 would fail here (a landscape has no trainer role), so only
        # a check made before it can raise the size refusal.
        cfg = parse_config({
            **TOY_CONFIG,
            "objectives": TOY_CONFIG["objectives"] + [
                {"name": f"m{i}", "direction": "maximize", "kind": "metric"} for i in range(3)
            ],
            "n_members": 15,
            "budgets": {"n_init": 2, "hpbo_iters": 2, "mobo_iters_per_member": 5},
            "acq": {**TOY_CONFIG["acq"], "n_mc": 64},
            "trainer": {"builtin": "landscape", "seed": 0, "n_members": 3},
        })
        with pytest.raises(NumericalError, match="partition floats"):
            run_pipeline(cfg, seed=0)


class OnSimplexToy(ToyEvaluator):
    """A toy scorer that, like most real ones, refuses off-simplex deltas."""

    def score(self, delta):
        d = np.asarray(delta, dtype=float)
        if np.any(d < 0.0) or abs(d.sum() - 1.0) > 1e-9:
            raise EvaluationFailedError("off-simplex delta")
        return super().score(delta)


class CountingToy(ToyEvaluator):
    """Logs (evaluator seed, params) for every trainer call."""

    calls: list = []

    def train(self, params):
        CountingToy.calls.append((self.seed, dict(params)))
        return super().train(params)


class TestFusionStage:
    def test_learned_swa_falls_back_to_uniform(self, monkeypatch):
        monkeypatch.setattr(toybench, "ToyEvaluator", OnSimplexToy)
        report = run_pipeline(parse_config(TOY_CONFIG), seed=7)
        row = report["methods"]["learned_swa"]
        assert row["fallback_uniform"] is True
        assert row["delta"] == [1.0 / 3.0] * 3
        assert not row["failed"]
        assert "fallback_uniform" not in report["methods"]["swa"]

    def test_greedy_leaves_out_a_failed_trial_pool(self):
        class PoolScorer:
            """Flat scores; refuses the pool of members 0 and 1."""

            def score(self, delta):
                if np.array_equal(np.asarray(delta), [0.5, 0.5, 0.0]):
                    raise EvaluationFailedError("pool refused")
                return {"loss": 0.5, "metric": 0.5}

        scorer = InProcessEvaluator(PoolScorer())
        spec, standalone, best_id = derive_windows(scorer, LOSS_METRIC_SPEC, 3, seed=0)
        assert best_id == 0  # all members tie
        _, state = run_mobo(3, scorer, spec, n_iter=0, seed=0, best_member_id=best_id,
                            acq_cfg=CHEAP, gp_restarts=2)
        methods, observed = fusion_baselines(
            scorer, standalone, state, seed=0, learned_steps=2, learned_lr=0.1
        )
        greedy = methods["greedy_swa"]
        assert greedy["subset"] == [0, 2]
        assert greedy["delta"] == [0.5, 0.0, 0.5]
        assert not greedy["failed"]
        # SWA, the two greedy trials, learned SWA; only the refused trial failed
        assert [o.meta.failed for o in observed] == [False, True, False, False]
        assert "fallback_uniform" not in methods["learned_swa"]

    def test_windows_survive_a_failed_member(self):
        class Scorer:
            def score(self, delta):
                d = np.asarray(delta)
                if d[0] == 1.0:
                    raise EvaluationFailedError("member 0 diverged")
                return {"loss": 1.0 - 0.1 * d[2], "metric": 0.4 + 0.05 * d[2]}

        spec, standalone, best_id = derive_windows(
            InProcessEvaluator(Scorer()), LOSS_METRIC_SPEC, 3, seed=0
        )
        assert [o.meta.failed for o in standalone] == [True, False, False]
        assert best_id == 2
        assert spec.entries[1].norm_min == 0.4  # anchored at member 2, not the failure

    def test_best_value_on_a_decimal_wins_the_clip_tie(self):
        # Member 2's 0.5 anchors the window [0.5, 0.6], so it normalizes to
        # 0 like member 1's clipped 0.4; the raw metric breaks the tie.
        class Scorer:
            def score(self, delta):
                d = np.asarray(delta)
                if d[0] == 1.0:
                    raise EvaluationFailedError("member 0 diverged")
                return {"loss": 1.0, "metric": 0.5 if d[2] == 1.0 else 0.4}

        spec, standalone, best_id = derive_windows(
            InProcessEvaluator(Scorer()), LOSS_METRIC_SPEC, 3, seed=0
        )
        assert spec.entries[1].norm_min == 0.5
        assert [o.normalized[1] for o in standalone[1:]] == [0.0, 0.0]
        assert best_id == 2

    def test_greedy_soup_leads_with_the_clip_tie_winner(self):
        # The decimal-anchor tie of the test above: greedy soup must lead
        # with member 2, as derive_windows does. Every trial pool is refused,
        # so greedy keeps only its leader.
        class Scorer:
            def score(self, delta):
                d = np.asarray(delta)
                if d[0] == 1.0:
                    raise EvaluationFailedError("member 0 diverged")
                if np.count_nonzero(d) == 2 and np.all(d[d > 0] == 0.5):
                    raise EvaluationFailedError("pool refused")
                return {"loss": 1.0, "metric": 0.5 if d[2] == 1.0 else 0.4}

        scorer = InProcessEvaluator(Scorer())
        spec, standalone, best_id = derive_windows(scorer, LOSS_METRIC_SPEC, 3, seed=0)
        assert [o.meta.failed for o in standalone] == [True, False, False]
        assert [o.normalized[1] for o in standalone[1:]] == [0.0, 0.0]
        _, state = run_mobo(3, scorer, spec, n_iter=0, seed=0, best_member_id=best_id,
                            acq_cfg=CHEAP, gp_restarts=2)
        methods, _ = fusion_baselines(
            scorer, standalone, state, seed=0, learned_steps=2, learned_lr=0.1
        )
        assert best_id == 2
        assert methods["greedy_swa"]["subset"] == [2]
        assert methods["greedy_swa"]["delta"] == [0.0, 0.0, 1.0]

    def test_every_member_failing_raises(self):
        class Dead:
            def score(self, delta):
                raise EvaluationFailedError("nope")

        with pytest.raises(EvaluationFailedError):
            derive_windows(InProcessEvaluator(Dead()), LOSS_METRIC_SPEC, 3, seed=0)

    def test_proxy_trainer_runs_stage_one(self, monkeypatch, tmp_path):
        monkeypatch.setattr(toybench, "ToyEvaluator", CountingToy)
        monkeypatch.setattr(CountingToy, "calls", [])
        cfg = parse_config({
            **TOY_CONFIG,
            "proxy_trainer": {"builtin": "toy", "seed": 12, "n_members": 3},
        })
        report = run_pipeline(cfg, seed=7, out_dir=str(tmp_path))
        proxy = [p for seed, p in CountingToy.calls if seed == 12]
        main = [p for seed, p in CountingToy.calls if seed == 11]
        assert len(proxy) == cfg.n_init + cfg.hpbo_iters
        assert main == [report["best_lambda"]]  # only the retrain
        lines = (tmp_path / "history.csv").read_text().strip().split("\n")[1:]
        rows = [dict(zip(HISTORY_COLUMNS, ln.split(","))) for ln in lines]
        hpbo = [r for r in rows if r["stage"] == "hpbo"]
        assert [float(r["x"]) for r in hpbo] == [p["lr"] for p in proxy]
        incumbent = next(r for r in hpbo if r["on_front"] == "1")
        assert float(incumbent["x"]) == report["best_lambda"]["lr"]
