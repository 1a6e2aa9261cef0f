"""Rollout evaluation, comparison, ablation structure, report formats."""

import json

import numpy as np
import pytest

from geoaware.bench import (
    EvalReport,
    ablate_layers,
    compare,
    emit_report,
    evaluate,
    render_csv,
    render_json,
    render_markdown,
    rollout,
)
from geoaware.deskworld.camera import seen_cameras
from geoaware.deskworld.dataset import generate_dataset
from geoaware.deskworld.world import SimConfig, expert_action, make_tasks
from geoaware.errors import ConfigError, ConfigMismatchError
from geoaware.policy import Policy, PolicyConfig
from geoaware.training import TrainConfig

SIM = SimConfig()
TASKS = make_tasks()


class ExpertPolicy:
    """Scripted expert behind the policy interface; reads true scene state and
    ignores the cameras entirely."""

    def action(self, scene, instruction, cameras):
        task = next(t for t in TASKS if t.instruction == instruction)
        return expert_action(scene, task, SIM).as_vector()


class ConstantPolicy:
    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def action(self, scene, instruction, cameras):
        return self.vec


def test_expert_rollout_succeeds_every_task():
    for task in TASKS:
        result = rollout(ExpertPolicy(), task, seen_cameras(SIM), seed=5, sim=SIM)
        assert result.succeeded
        assert result.steps <= SIM.max_episode_steps
        assert result.failure is None


def test_expert_scores_100_percent_in_every_category():
    for category in ("seen", "novel_small", "novel_medium", "novel_large"):
        report = evaluate(ExpertPolicy(), category, rollouts_per_task=3, seeds=(0,), sim=SIM, model="expert")
        assert report.average_rate == 100.0
        assert all(row["rate"] == 100.0 for row in report.tasks)


def test_rollout_determinism():
    a = rollout(ExpertPolicy(), TASKS[1], seen_cameras(SIM), seed=9, sim=SIM)
    b = rollout(ExpertPolicy(), TASKS[1], seen_cameras(SIM), seed=9, sim=SIM)
    assert (a.succeeded, a.steps) == (b.succeeded, b.steps)


def test_rollout_flags_non_finite_action():
    result = rollout(ConstantPolicy([np.nan] * 7), TASKS[0], seen_cameras(SIM), seed=0, sim=SIM)
    assert not result.succeeded
    assert result.failure is not None
    assert result.steps == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_fails_rollouts_of_a_non_finite_policy():
    # a real policy whose forward pass overflows fails each rollout at its
    # first step instead of raising out of evaluate
    policy = Policy(PolicyConfig(), tuple(t.instruction for t in TASKS), seed=0)
    policy.params["head.2.w"].values[0, 0] = np.inf
    report = evaluate(policy, "seen", rollouts_per_task=1, seeds=(0,), sim=SIM)
    assert report.average_rate == 0.0
    assert report.mean_episode_length == 0.0
    result = rollout(policy, TASKS[0], seen_cameras(SIM), seed=0, sim=SIM)
    assert (result.succeeded, result.steps, result.failure) == (False, 0, "non-finite or malformed action")


def test_rollout_caps_at_episode_limit():
    result = rollout(ConstantPolicy(np.zeros(7)), TASKS[0], seen_cameras(SIM), seed=0, sim=SIM)
    assert not result.succeeded
    assert result.steps == SIM.max_episode_steps


def test_untrained_policy_is_near_zero():
    policy = Policy(PolicyConfig(), tuple(t.instruction for t in TASKS), seed=0)
    sim = SimConfig(max_episode_steps=40)    # keep the test quick; failure shows fast
    report = evaluate(policy, "seen", rollouts_per_task=2, seeds=(0,), sim=sim)
    assert report.average_rate <= 12.5


def test_evaluate_counts_and_schema():
    report = evaluate(ExpertPolicy(), "seen", rollouts_per_task=2, seeds=(0, 1), sim=SIM, model="expert")
    assert len(report.tasks) == 4
    assert all(row["rollouts"] == 4 for row in report.tasks)    # 2 seeds x 2 repeats
    assert report.seeds == [0, 1]
    payload = report.to_dict()
    assert payload["schema_version"] == 1
    assert set(payload) == {
        "schema_version", "model", "category", "tasks", "average_rate", "mean_episode_length", "seeds",
    }
    assert all(set(r) == {"id", "successes", "rollouts", "rate"} for r in payload["tasks"])


@pytest.mark.parametrize(
    "rollouts, seeds, tasks",
    [(0, (0,), None), (-1, (0,), None), (2, (), None), (2, (0,), [])],
    ids=["0-seeds0", "-1-seeds1", "2-seeds2", "no-tasks"],
)
def test_evaluate_rejects_empty_evaluations(rollouts, seeds, tasks):
    with pytest.raises(ConfigError):
        evaluate(ExpertPolicy(), "seen", rollouts_per_task=rollouts, seeds=seeds, sim=SIM, tasks=tasks)


def test_evaluate_is_deterministic():
    a = evaluate(ExpertPolicy(), "novel_medium", rollouts_per_task=2, seeds=(3,), sim=SIM)
    b = evaluate(ExpertPolicy(), "novel_medium", rollouts_per_task=2, seeds=(3,), sim=SIM)
    assert render_json(a) == render_json(b)


def test_compare_identical_policies_gives_unit_ratio():
    expert = ExpertPolicy()
    table = compare(expert, expert, ["seen", "novel_medium"], rollouts_per_task=2, seeds=(0,), sim=SIM)
    assert [row["ratio"] for row in table["comparison"]] == [1.0, 1.0]
    for row in table["comparison"]:
        assert row["geo_rate"] == row["pixel_rate"]
        assert set(row) == {"category", "geo", "pixel", "geo_rate", "pixel_rate", "ratio"}


def test_compare_ratio_conventions():
    zero = ConstantPolicy(np.zeros(7))
    table = compare(ExpertPolicy(), zero, ["seen"], rollouts_per_task=1, seeds=(0,), sim=SimConfig(max_episode_steps=25))
    assert table["comparison"][0]["ratio"] == float("inf")
    both = compare(zero, zero, ["seen"], rollouts_per_task=1, seeds=(0,), sim=SimConfig(max_episode_steps=25))
    assert both["comparison"][0]["ratio"] == 1.0


def test_compare_rejects_sim_mismatch():
    with pytest.raises(ConfigMismatchError):
        compare(
            ExpertPolicy(),
            ExpertPolicy(),
            ["seen"],
            geo_sim=SimConfig(),
            pixel_sim=SimConfig(grasp_radius=0.05),
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ablation_structure():
    demos = generate_dataset(TASKS[:2], episodes_per_task=1, seed=0, sim=SIM)
    cfg = TrainConfig(steps=2, batch_size=4, vq_pretrain_steps=1, seed=0, eval_every=0)
    report = ablate_layers(
        demos, cfg, rollouts_per_task=1, eval_seeds=(0,), sim=SimConfig(max_episode_steps=10)
    )
    rows = report.rows
    assert [row["mode"] for row in rows] == ["all", "even", "last"]
    assert [row["selected"] for row in rows] == [12, 4, 4]
    assert [row["default"] for row in rows] == [False, True, False]
    for row in rows:
        assert set(row["seen"]["tasks"][0]) == {"id", "successes", "rollouts", "rate"}
        assert len(row["seen"]["tasks"]) == 2
    payload = report.to_dict()
    assert payload["schema_version"] == 1
    md = render_markdown(report)
    assert md.count("\n") == 5    # header, divider, 3 rows
    assert "(default)" in md


def test_ablation_requires_geo():
    demos = generate_dataset(TASKS[:1], episodes_per_task=1, seed=0, sim=SIM)
    with pytest.raises(ConfigError):
        ablate_layers(demos, TrainConfig(backbone_kind="pixel"))


def _handmade_report():
    return EvalReport(
        model="geo",
        category="seen",
        tasks=[
            {"id": "t0", "successes": 9, "rollouts": 10, "rate": 90.0},
            {"id": "t1", "successes": 8, "rollouts": 10, "rate": 82.6123},
        ],
        average_rate=86.30615,
        mean_episode_length=17.25,
        seeds=[0],
    )


def test_json_round_trip_is_byte_stable(tmp_path):
    report = _handmade_report()
    path = tmp_path / "report.json"
    first = emit_report(report, "json", path)
    parsed = json.loads(path.read_text())
    second = emit_report(parsed, "json", tmp_path / "report2.json")
    assert first == second
    assert parsed["schema_version"] == 1


def test_markdown_table_layout():
    md = render_markdown(_handmade_report())
    lines = md.strip().splitlines()
    assert lines[-1].startswith("| **Average**")
    assert "**86.3**" in lines[-1]
    assert any("| t1 | 8 | 10 | 82.6 |" == l for l in lines)
    body_rows = [l for l in lines if l.startswith("| t")]
    assert len(body_rows) == 2


def test_csv_format():
    text = render_csv(_handmade_report())
    lines = text.strip().splitlines()
    assert lines[0] == "model,category,task,successes,rollouts,rate"
    assert lines[1] == "geo,seen,t0,9,10,90.0"
    assert lines[2] == "geo,seen,t1,8,10,82.6"
    assert lines[3] == "geo,seen,average,,,86.3"


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(_handmade_report(), "yaml", tmp_path / "x")
