"""Dataset generation, serialization exactness, and replay fidelity."""

import copy
import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

import geoaware.deskworld.dataset as dataset_module
from geoaware.cli import main
from geoaware.deskworld.dataset import Outcome, generate_dataset, load_dataset, run_expert_episode, save_dataset
from geoaware.deskworld.world import ACTION_WIDTH, SimConfig, make_tasks, step, success
from geoaware.errors import FormatError, GenerationError

SIM = SimConfig()


def replay_deviation(episode, sim):
    """Max numeric deviation when replaying stored actions from the first scene."""
    worst = 0.0
    scene = episode.scenes[0]
    for action, stored in zip(episode.actions, episode.scenes[1:]):
        scene = step(scene, action, sim)
        worst = max(worst, float(np.abs(scene.ee_pos - stored.ee_pos).max()))
        worst = max(worst, float(np.abs(scene.ee_rot - stored.ee_rot).max()))
        worst = max(worst, abs(scene.gripper - stored.gripper))
        for a, b in zip(scene.objects, stored.objects):
            worst = max(worst, float(np.abs(a.pos - b.pos).max()))
        if scene.held_object != stored.held_object:
            return float("inf")
    return worst


def assert_same_bits(a, b):
    """Equal structure and types, with every float and array equal bit for bit."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert a == b


def dumps_17g(doc):
    """JSON text with every float written to 17 significant digits, as dataset
    files were written before floats became their shortest ``repr``."""
    if isinstance(doc, float):
        return format(doc, ".17g")
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{dumps_17g(v)}" for k, v in doc.items()) + "}"
    if isinstance(doc, list):
        return "[" + ",".join(dumps_17g(v) for v in doc) + "]"
    return json.dumps(doc)


def small_dataset(seed=0, episodes_per_task=3):
    return generate_dataset(make_tasks(), episodes_per_task, seed, SIM)


def test_episode_ends_in_success_state():
    ds = small_dataset()
    for ep in ds.episodes:
        assert ep.task in ds.tasks
        assert success(ep.scenes[-1], ep.task)
        assert len(ep.scenes) == len(ep.actions) <= SIM.max_episode_steps + 1


def test_actions_have_seven_entries():
    ds = small_dataset()
    for ep in ds.episodes:
        assert ep.actions.shape == (len(ep.scenes), ACTION_WIDTH) == (len(ep.scenes), 7)
        assert np.array_equal(ep.actions[-1], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])    # the idle action


def test_replay_reproduces_stored_scenes():
    ds = small_dataset(seed=2)
    for ep in ds.episodes:
        assert replay_deviation(ep, SIM) <= 1e-9


def test_replay_survives_serialization_roundtrip(tmp_path):
    ds = small_dataset(seed=3)
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    for ep in loaded.episodes:
        assert replay_deviation(ep, SIM) <= 1e-9
    # exact float round-trip: the whole dataset matches the in-memory original bitwise
    assert_same_bits(ds, loaded)


def test_loaded_scenes_follow_an_edited_action(tmp_path):
    # scenes are replayed from the stored actions, so an edited action moves the scenes after it
    ds = small_dataset(seed=3, episodes_per_task=1)
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    episode = json.loads(lines[1])
    episode["actions"][0] = [0.05, -0.05, 0.0, 0.0, 0.0, 0.0, 1.0]
    path.write_text("\n".join([lines[0], json.dumps(episode)] + lines[2:]) + "\n")
    loaded = load_dataset(path).episodes[0]
    original = ds.episodes[0]
    assert np.array_equal(loaded.scenes[0].ee_pos, original.scenes[0].ee_pos)
    expected = step(original.scenes[0], episode["actions"][0], SIM)
    assert_same_bits(loaded.scenes[1], expected)
    assert not np.array_equal(loaded.scenes[1].ee_pos, original.scenes[1].ee_pos)
    assert replay_deviation(loaded, SIM) == 0.0


def test_file_with_17_digit_floats_loads_to_the_same_bits(tmp_path):
    ds = small_dataset(seed=7, episodes_per_task=1)
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    old = tmp_path / "old.jsonl"
    old.write_text("".join(dumps_17g(json.loads(line)) + "\n" for line in path.read_text().splitlines()))
    assert old.read_bytes() != path.read_bytes()
    assert_same_bits(load_dataset(old), load_dataset(path))
    assert_same_bits(load_dataset(old), ds)


def test_same_seed_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(small_dataset(seed=5), p1)
    save_dataset(small_dataset(seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "c.jsonl"
    save_dataset(small_dataset(seed=6), p3)
    assert p1.read_bytes() != p3.read_bytes()


def test_header_contents(tmp_path):
    ds = small_dataset(seed=4)
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    header, *episodes = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["format_version"] == 2
    assert header["seed"] == 4
    assert len(header["tasks"]) == 4
    assert header["sim"] == dataclasses.asdict(SIM)
    assert header["episodes"] == len(ds.episodes)
    # an episode is its task, seed and actions: no scene, proprio or camera is stored
    for doc, ep in zip(episodes, ds.episodes):
        assert doc == {"task_id": ep.task.task_id, "seed": ep.seed, "actions": ep.actions.tolist()}


def test_default_scale_episode_count():
    ds = generate_dataset(make_tasks(), 50, 0, SIM)
    assert len(ds.episodes) == 4 * 50


def test_bad_version_rejected(tmp_path, capsys):
    ds = small_dataset()
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    for version in (1, 99):
        header["format_version"] = version
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(FormatError, match="format_version"):
            load_dataset(path)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1"]) == 1
    assert "format_version" in capsys.readouterr().err


def test_loaded_outcome_is_read_from_the_final_replayed_scene(tmp_path):
    ds = small_dataset(episodes_per_task=1)
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    assert [ep.outcome for ep in load_dataset(path).episodes] == [Outcome.SUCCESS] * len(ds.episodes)
    # drop middle actions and keep the idle row: the replay stops short of the goal
    header, first, *rest = path.read_text().splitlines()
    doc = json.loads(first)
    doc["actions"] = doc["actions"][:5] + doc["actions"][-1:]
    path.write_text("\n".join([header, json.dumps(doc), *rest]) + "\n")
    short = load_dataset(path).episodes[0]
    assert (short.outcome, short.steps, len(short.actions)) == (Outcome.TIMEOUT, 5, 6)
    assert not success(short.scenes[-1], short.task)


def test_truncated_file_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(FormatError):
        load_dataset(path)


def test_expert_failure_raises_not_drops():
    tight = SimConfig(max_episode_steps=3)
    with pytest.raises(GenerationError):
        generate_dataset(make_tasks(), 1, 0, tight)


def test_exact_float_formatting(tmp_path):
    # every double round-trips through the file bit for bit, signed zero included
    values = [0.1, 1.0 / 3.0, 1e-17, 123456.789012345678, -2.5e-8, -0.0, 5e-324]
    ds = small_dataset(episodes_per_task=1)
    ds.episodes[0].actions[0] = values
    path = tmp_path / "demos.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path).episodes[0].actions[0].tobytes() == np.array(values).tobytes()


def test_sample_index_covers_all_steps():
    ds = small_dataset()
    idx = ds.sample_index()
    assert len(idx) == sum(len(ep.actions) for ep in ds.episodes)
    assert idx[0] == (0, 0)


def test_expert_episode_deterministic():
    a = run_expert_episode(make_tasks()[3], 77, SIM)
    b = run_expert_episode(make_tasks()[3], 77, SIM)
    assert np.array_equal(a.actions, b.actions)


# The sha256 of the demo file pins the world's arithmetic (reset, step,
# expert_action, success) and the file format across versions; (16, 0) and
# (48, 0) are the demo sets of the benchmark's two workloads.
@pytest.mark.parametrize(
    "episodes_per_task, seed, digest",
    [
        (4, 0, "be86cd1065f433cf4eae488f5ca5149a4a2bd29080b471d641a991740c39c8e3"),
        (8, 3, "d285750b394b49089ab0282064936d5268b73175148eb7346ae1465ab4eedd82"),
        (16, 0, "8ab7ed1c004acef4ef219fbb7e7ad0bf28be06c99ae67791779a94c2f305f8a1"),
        (48, 0, "868c779ca23886158b1466610afc3b08ea9a7af833fbab41389349725130baa7"),
    ],
)
def test_demo_file_bytes_are_pinned(tmp_path, episodes_per_task, seed, digest):
    path = tmp_path / "demos.jsonl"
    save_dataset(generate_dataset(make_tasks(), episodes_per_task, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_episode_scenes_keep_the_values_they_were_created_with(monkeypatch):
    # scenes share unmoved parts, so a later step must not edit an earlier scene
    snapshots = []

    def snapshotted(make_scene):
        def wrapper(*args):
            scene = make_scene(*args)
            snapshots.append(copy.deepcopy(scene))
            return scene
        return wrapper

    monkeypatch.setattr(dataset_module, "reset", snapshotted(dataset_module.reset))
    monkeypatch.setattr(dataset_module, "step", snapshotted(dataset_module.step))
    for task in make_tasks():
        snapshots.clear()
        episode = run_expert_episode(task, 21, SIM)
        assert_same_bits(episode.scenes, snapshots)
