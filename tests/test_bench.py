"""Rollout evaluation, ablation structure, report formats."""

import hashlib
import json

import numpy as np
import pytest

from geoaware.bench import (
    EvalReport,
    ablate_layers,
    emit_report,
    evaluate,
    render_csv,
    render_json,
    render_markdown,
    rollout,
)
from geoaware.deskworld.camera import sample_viewpoints, seen_cameras
from geoaware.deskworld.dataset import generate_dataset
from geoaware.deskworld.world import ACTION_WIDTH, SimConfig, expert_action, make_tasks
from geoaware.errors import ConfigError
from geoaware.policy import Policy, PolicyConfig
from geoaware.training import TrainConfig, bc_train, load_checkpoint

SIM = SimConfig()
TASKS = make_tasks()


class ExpertPolicy:
    """Scripted expert behind the policy interface; reads true scene state and
    ignores the cameras entirely."""

    def action(self, scene, instruction, cameras):
        task = next(t for t in TASKS if t.instruction == instruction)
        return expert_action(scene, task, SIM)


class ConstantPolicy:
    """Returns ``vec`` as given, so the world sees malformed actions as-is."""

    def __init__(self, vec):
        self.vec = vec

    def action(self, scene, instruction, cameras):
        return self.vec


class NanAtCallPolicy(ExpertPolicy):
    """The expert, except that call number ``bad_call`` (from 0) returns an
    action with one NaN entry."""

    def __init__(self, bad_call):
        self.calls, self.bad_call = 0, bad_call

    def action(self, scene, instruction, cameras):
        vec = super().action(scene, instruction, cameras)
        if self.calls == self.bad_call:
            vec[2] = np.nan
        self.calls += 1
        return vec


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


@pytest.mark.parametrize(
    "vec",
    [np.zeros(ACTION_WIDTH - 1), np.zeros((1, ACTION_WIDTH)), ["a"] * ACTION_WIDTH, [1j] * ACTION_WIDTH],
    ids=["6", "1x7", "strings", "complex"],
)
def test_rollout_fails_a_malformed_action_at_step_0(vec):
    result = rollout(ConstantPolicy(vec), TASKS[0], seen_cameras(SIM), seed=0, sim=SIM)
    assert (result.succeeded, result.steps, result.failure) == (False, 0, "non-finite or malformed action")


def test_rollout_fails_at_the_first_non_finite_action():
    # three expert steps are taken, then the fourth action holds a NaN
    result = rollout(NanAtCallPolicy(bad_call=3), TASKS[0], seen_cameras(SIM), seed=0, sim=SIM)
    assert (result.succeeded, result.steps, result.failure) == (False, 3, "non-finite or malformed action")
    assert type(result.steps) is int


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


class RecordingPolicy:
    """Passes every call through to ``policy`` and keeps the actions."""

    def __init__(self, policy):
        self.policy, self.actions = policy, []

    def action(self, scene, instruction, cameras):
        self.actions.append(self.policy.action(scene, instruction, cameras))
        return self.actions[-1]


# sha256 of the 25 float64 actions a briefly trained policy takes in one
# seeded novel_medium rollout, recorded with the per-slot window renderer and
# the np.pad conv2d that the current ones replaced.  No trained policy solves
# a task, so success rates cannot show drift in the closed-loop step; this
# stream can.
GOLDEN_ACTION_STREAMS = {
    ("pixel", "vqbet"): "861579d57b35dc1a12ebbd2c84b7c278d6e24163e109bb0700f6c31f20fbedae",
    ("geo", "mlp"): "cd60a9d1e2b6d1676e00bcd90de550eb2af9361af8a5b9a204f124a97629927c",
}


@pytest.mark.parametrize("backbone, head", sorted(GOLDEN_ACTION_STREAMS), ids="/".join)
def test_closed_loop_action_stream_is_pinned(backbone, head):
    demos = generate_dataset(TASKS, 1, seed=3, sim=SIM)
    policy = Policy(PolicyConfig(backbone_kind=backbone, head_kind=head), tuple(demos.instructions()), seed=3)
    train = TrainConfig(steps=4, batch_size=8, seed=3, vq_pretrain_steps=4, eval_every=0, head_kind=head, backbone_kind=backbone)
    bc_train(demos, train, policy)
    recorder = RecordingPolicy(policy)
    cameras = sample_viewpoints("novel_medium", 2, seed=3, sim=SIM)
    result = rollout(recorder, TASKS[2], cameras, seed=3, sim=SimConfig(max_episode_steps=25))
    assert (result.succeeded, result.steps, len(recorder.actions)) == (False, 25, 25)
    stream = np.stack(recorder.actions)
    assert stream.dtype == np.float64 and stream.shape == (25, ACTION_WIDTH)
    assert hashlib.sha256(stream.tobytes()).hexdigest() == GOLDEN_ACTION_STREAMS[backbone, head]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ablation_structure(tmp_path):
    demos = generate_dataset(TASKS[:2], episodes_per_task=1, seed=0, sim=SIM)
    cfg = TrainConfig(steps=2, batch_size=4, vq_pretrain_steps=1, seed=0, eval_every=0)
    report = ablate_layers(
        demos, cfg, rollouts_per_task=1, eval_seeds=(0,), sim=SimConfig(max_episode_steps=10), checkpoint_dir=tmp_path
    )
    # the evaluation cap is not the sim the demos were recorded under
    assert load_checkpoint(tmp_path / "ablate-even.ckpt").sim == demos.sim
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
    # one name per format, the one `geoaware report --format` takes
    for fmt in ("yaml", "markdown"):
        with pytest.raises(ConfigError):
            emit_report(_handmade_report(), fmt, tmp_path / "x")
    assert emit_report(_handmade_report(), "md", tmp_path / "x") == render_markdown(_handmade_report())
