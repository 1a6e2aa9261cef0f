"""Task templates, scene sampling, dynamics, and the scripted expert."""

import numpy as np
import pytest

from geoaware.deskworld.world import (
    ACTION_WIDTH,
    MIN_SEPARATION,
    PROPRIO_WIDTH,
    WORKSPACE_HALF,
    SimConfig,
    action_vector,
    expert_action,
    make_tasks,
    reset,
    stack_proprio,
    step,
    success,
)
from geoaware.errors import InputError

SIM = SimConfig()


def act(d_pos=(0.0, 0.0, 0.0), d_rot=(0.0, 0.0, 0.0), gripper_cmd=1.0):
    """The action vector ``step`` takes, rotation included."""
    return np.concatenate([d_pos, d_rot, [gripper_cmd]])


def test_task_set_is_closed_and_distinct():
    tasks = make_tasks()
    assert len(tasks) >= 4
    instructions = [t.instruction for t in tasks]
    assert len(set(instructions)) == len(instructions)
    ids = [t.task_id for t in tasks]
    assert len(set(ids)) == len(ids)
    # calling twice yields identical specs
    assert make_tasks() == tasks


def test_stack_proprio_lays_out_the_proprio_width():
    scenes = [reset(task, seed) for seed, task in enumerate(make_tasks()[:3])]
    proprio = stack_proprio(scenes)
    assert proprio.shape == (3, PROPRIO_WIDTH) and proprio.dtype == np.float64
    # ee position, ee rotation, gripper
    assert proprio[1].tolist() == [*scenes[1].ee_pos, *scenes[1].ee_rot, scenes[1].gripper]


def test_reset_deterministic_and_separated():
    task = make_tasks()[0]
    for seed in range(100):
        scene = reset(task, seed)
        again = reset(task, seed)
        assert np.array_equal(scene.ee_pos, again.ee_pos)
        for a, b in zip(scene.objects, again.objects):
            assert np.array_equal(a.pos, b.pos)
        points = [o.pos for o in scene.objects] + [g.center for g in scene.goal_regions]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert np.linalg.norm(points[i] - points[j]) >= MIN_SEPARATION
        assert scene.gripper == 1.0
        assert scene.held_object is None
        for p in points + [scene.ee_pos]:
            assert (np.abs(p) <= WORKSPACE_HALF).all()


def test_reset_never_starts_solved():
    for task in make_tasks():
        for seed in range(50):
            assert not success(reset(task, seed), task)


def test_step_zero_action_changes_nothing_but_gripper_normalizes():
    scene = reset(make_tasks()[0], 0)
    nxt = step(scene, action_vector(), SIM)
    assert np.array_equal(nxt.ee_pos, scene.ee_pos)
    assert nxt.gripper == 1.0
    for a, b in zip(nxt.objects, scene.objects):
        assert np.array_equal(a.pos, b.pos)


def test_step_clips_translation_per_axis():
    scene = reset(make_tasks()[0], 1)
    nxt = step(scene, act([10.0, -10.0, 0.01]), SIM)
    moved = nxt.ee_pos - scene.ee_pos
    assert np.allclose(moved[:2], [SIM.max_step, -SIM.max_step])
    assert np.isclose(moved[2], 0.01)


def test_step_keeps_ee_inside_workspace():
    scene = reset(make_tasks()[0], 2)
    for _ in range(30):
        scene = step(scene, act([1.0, 1.0, 1.0]), SIM)
    assert (scene.ee_pos <= WORKSPACE_HALF).all()


def test_gripper_command_sign_with_zero_open():
    scene = reset(make_tasks()[0], 3)
    assert step(scene, act(gripper_cmd=-0.2), SIM).gripper == -1.0
    assert step(scene, act(gripper_cmd=0.0), SIM).gripper == 1.0
    assert step(scene, act(gripper_cmd=0.7), SIM).gripper == 1.0


def test_grasp_and_carry_two_step_trace():
    scene = reset(make_tasks()[0], 4)
    target = scene.objects[0]
    # teleport-by-steps: walk the ee onto the object with the gripper open
    while np.linalg.norm(target.pos - scene.ee_pos) > 1e-12:
        delta = np.clip(target.pos - scene.ee_pos, -SIM.max_step, SIM.max_step)
        scene = step(scene, act(delta), SIM)
        target = scene.objects[0]
    # close: grasp fires on the open->closed transition
    scene = step(scene, act(gripper_cmd=-1.0), SIM)
    assert scene.held_object == target.object_id
    # move while closed: the object tracks the ee
    scene = step(scene, act([0.03, -0.02, 0.04], gripper_cmd=-1.0), SIM)
    assert np.array_equal(scene.objects[0].pos, scene.ee_pos)
    # open: release in place
    released_at = scene.ee_pos.copy()
    scene = step(scene, act([0.05, 0.0, 0.0]), SIM)
    assert scene.held_object is None
    assert np.array_equal(scene.objects[0].pos, released_at + np.array([0.05, 0.0, 0.0])) or np.array_equal(
        scene.objects[0].pos, released_at
    )


def test_release_leaves_object_at_release_point():
    # Precise variant of the trace above: the object must NOT follow the ee
    # on the step whose command opens the gripper.
    scene = reset(make_tasks()[0], 5)
    obj = scene.objects[0]
    while np.linalg.norm(obj.pos - scene.ee_pos) > 1e-12:
        delta = np.clip(obj.pos - scene.ee_pos, -SIM.max_step, SIM.max_step)
        scene = step(scene, act(delta), SIM)
        obj = scene.objects[0]
    scene = step(scene, act(gripper_cmd=-1.0), SIM)
    held_pos = scene.objects[0].pos.copy()
    scene = step(scene, act([0.04, 0.0, 0.0]), SIM)
    assert np.array_equal(scene.objects[0].pos, held_pos)


def test_closing_far_from_objects_grasps_nothing():
    scene = reset(make_tasks()[0], 6)  # ee starts at home, far above the table
    nxt = step(scene, act(gripper_cmd=-1.0), SIM)
    assert nxt.held_object is None


def test_rotation_is_inert_but_tracked():
    scene = reset(make_tasks()[0], 7)
    nxt = step(scene, act(d_rot=[0.1, -0.2, 0.3]), SIM)
    assert np.allclose(nxt.ee_rot, scene.ee_rot + [0.1, -0.2, 0.3])
    for a, b in zip(nxt.objects, scene.objects):
        assert np.array_equal(a.pos, b.pos)


def test_non_finite_action_rejected():
    scene = reset(make_tasks()[0], 8)
    for index, value in [(0, np.nan), (4, np.inf), (6, -np.inf)]:
        action = act()
        action[index] = value
        with pytest.raises(InputError, match="non-finite"):
            step(scene, action, SIM)


def test_success_boundary():
    task = make_tasks()[0]
    scene = reset(task, 9)
    region = scene.region_by_id(task.goals[0][1])
    obj = scene.object_by_id(task.goals[0][0])
    direction = np.array([1.0, 0.0, 0.0])
    obj.pos = region.center + direction * (region.radius - 1e-9)
    assert success(scene, task)
    obj.pos = region.center + direction * (region.radius + 1e-6)
    assert not success(scene, task)


def test_success_false_while_held():
    task = make_tasks()[0]
    scene = reset(task, 10)
    obj = scene.object_by_id(task.goals[0][0])
    obj.pos = scene.region_by_id(task.goals[0][1]).center.copy()
    assert success(scene, task)
    scene.held_object = obj.object_id
    assert not success(scene, task)


@pytest.mark.parametrize("task_index", range(4))
def test_expert_succeeds_within_budget(task_index):
    task = make_tasks()[task_index]
    for seed in range(20):
        scene = reset(task, seed)
        for _ in range(SIM.max_episode_steps):
            if success(scene, task):
                break
            scene = step(scene, expert_action(scene, task, SIM), SIM)
        assert success(scene, task), f"expert failed {task.task_id} seed {seed}"


def test_expert_action_clipped_per_axis():
    task = make_tasks()[0]
    scene = reset(task, 11)
    action = expert_action(scene, task, SIM)
    assert action.shape == (ACTION_WIDTH,)
    assert (np.abs(action[:3]) <= SIM.max_step + 1e-15).all()
    assert np.array_equal(action[3:6], np.zeros(3))


def test_expert_points_at_object_from_far():
    task = make_tasks()[0]
    scene = reset(task, 12)
    obj = scene.object_by_id(task.goals[0][0])
    d_pos = expert_action(scene, task, SIM)[:3]
    delta = obj.pos - scene.ee_pos
    # sign agreement on every axis, dominant axis saturated
    assert (np.sign(d_pos) == np.sign(delta)).all()
    assert np.isclose(np.abs(d_pos).max(), SIM.max_step)


def test_action_vector_roundtrip():
    # action_vector lays out [d_pos, zero d_rot, gripper]; step reads it back
    assert np.array_equal(action_vector([0.01, -0.02, 0.03], -1.0), [0.01, -0.02, 0.03, 0.0, 0.0, 0.0, -1.0])
    assert np.array_equal(action_vector(), act())
    scene = reset(make_tasks()[0], 13)
    nxt = step(scene, action_vector([0.01, -0.02, 0.03], -1.0), SIM)
    assert np.allclose(nxt.ee_pos - scene.ee_pos, [0.01, -0.02, 0.03])
    assert nxt.gripper == -1.0


@pytest.mark.parametrize(
    "action",
    [["a"] * ACTION_WIDTH, [1j] * ACTION_WIDTH, np.full(ACTION_WIDTH, 0.01 + 0.01j), [[0.0] * 3, [0.0] * 4]],
    ids=["strings", "complex", "complex-array", "ragged"],
)
def test_step_rejects_a_non_numeric_action(action):
    scene = reset(make_tasks()[0], 14)
    with pytest.raises(InputError, match="real numbers"):
        step(scene, action, SIM)


def test_scenes_are_read_only_and_share_unmoved_parts():
    task = make_tasks()[3]
    scenes = [reset(task, 15)]
    while not success(scenes[-1], task):
        scenes.append(step(scenes[-1], expert_action(scenes[-1], task, SIM), SIM))
    assert any(scene.held_object for scene in scenes)
    for scene in scenes:
        arrays = [scene.ee_pos, scene.ee_rot, *(o.pos for o in scene.objects), *(g.center for g in scene.goal_regions)]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array.flags.writeable = True
    for before, after in zip(scenes, scenes[1:]):
        assert all(a is b for a, b in zip(after.goal_regions, before.goal_regions))
        for a, b in zip(after.objects, before.objects):
            assert (a is b) == (a.object_id != after.held_object)


@pytest.mark.parametrize("shape", [(ACTION_WIDTH - 1,), (1, ACTION_WIDTH), (ACTION_WIDTH + 1,), ()])
def test_step_rejects_a_wrong_shape(shape):
    scene = reset(make_tasks()[0], 14)
    with pytest.raises(InputError, match="shape"):
        step(scene, np.zeros(shape), SIM)
