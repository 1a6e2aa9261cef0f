"""Expert demonstration datasets serialized as JSON lines.

This module is the one owner of the file format.  Line 0 is a header (format
version, task specs, seen cameras, seed); each following line is one episode.
A dataclass is written as an object of its fields in field order and an array
as a list.  Floats are written as Python's shortest ``repr`` that round-trips
the double exactly, so replaying stored actions through the dynamics
reproduces stored scenes bit-for-bit.  The readers are strict: a number of
the wrong type, an id or instruction that is not a string, a vector of the
wrong length, an unknown colour or a held object that is not in its scene
raises ``FormatError``.  Observations (renders, features) are never stored;
they are derived at batch time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from geoaware.errors import FormatError, GenerationError
from geoaware.deskworld.camera import CameraPose, seen_cameras
from geoaware.deskworld.world import (
    OBJECT_COLORS, REGION_COLORS, Action, GoalRegion, ObjectState, SceneState, SimConfig, TaskSpec,
    expert_action, reset, step, success,
)
from geoaware.persist import read_float, read_floats, read_int, read_str, write_atomic

FORMAT_VERSION = 1


@dataclass
class EpisodeStep:
    scene: SceneState
    proprio: np.ndarray
    action: np.ndarray


@dataclass
class Episode:
    task_id: str
    instruction: str
    seed: int
    steps: list[EpisodeStep]


@dataclass
class DemoDataset:
    tasks: list[TaskSpec]
    cameras: list[CameraPose]
    seed: int
    episodes: list[Episode]

    def instructions(self):
        """Sorted closed vocabulary over the dataset's tasks."""
        return sorted({t.instruction for t in self.tasks})

    def sample_index(self):
        """All (episode_index, step_index) pairs, in storage order."""
        return [(e, s) for e, ep in enumerate(self.episodes) for s in range(len(ep.steps))]


def run_expert_episode(task: TaskSpec, seed: int, sim: SimConfig | None = None) -> Episode:
    """Roll the scripted expert from a seeded reset; the final stored step holds
    the success-satisfying scene with a zero action."""
    sim = sim or SimConfig()
    scene = reset(task, seed)
    steps = []
    for _ in range(sim.max_episode_steps):
        if success(scene, task):
            break
        action = expert_action(scene, task, sim)
        steps.append(EpisodeStep(scene=scene, proprio=scene.proprio(), action=action.as_vector()))
        scene = step(scene, action, sim)
    if not success(scene, task):
        raise GenerationError(f"expert failed task {task.task_id!r} with seed {seed} within {sim.max_episode_steps} steps")
    steps.append(EpisodeStep(scene=scene, proprio=scene.proprio(), action=Action.zero().as_vector()))
    return Episode(task_id=task.task_id, instruction=task.instruction, seed=seed, steps=steps)


def generate_dataset(tasks, episodes_per_task, seed, sim: SimConfig | None = None) -> DemoDataset:
    """Expert demos for every task; any expert failure raises (never dropped)."""
    sim = sim or SimConfig()
    episodes = []
    for task in tasks:
        for e in range(episodes_per_task):
            episode_seed = seed * 1_000_003 + e
            episodes.append(run_expert_episode(task, episode_seed, sim))
    return DemoDataset(tasks=list(tasks), cameras=seen_cameras(sim), seed=seed, episodes=episodes)


# -- writing -----------------------------------------------------------------


def _encode(obj):
    """``json.dumps`` hook: an array as its list, a dataclass as an object of
    its fields in field order; anything else raises ``FormatError``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def save_dataset(dataset: DemoDataset, path):
    header = {
        "format_version": FORMAT_VERSION,
        "tasks": dataset.tasks,
        "seen_cameras": dataset.cameras,
        "seed": dataset.seed,
        "episodes": len(dataset.episodes),
    }
    lines = [
        json.dumps(doc, default=_encode, allow_nan=False, separators=(",", ":"))
        for doc in [header, *dataset.episodes]
    ]
    write_atomic(path, "\n".join(lines) + "\n")


# -- reading -----------------------------------------------------------------


def _vector(values, size, name):
    """``values`` as a float array if it is a list of ``size`` numbers, each
    as ``read_floats`` accepts it; anything else raises ``FormatError``."""
    if len(read_floats(values, name)) != size:
        raise FormatError(f"{name} must have {size} entries, got {len(values)}")
    return np.array(values, dtype=float)


def _color(value, palette, name):
    """``value`` if it names a colour of ``palette``, which the renderer and
    the geometric features look up; anything else raises ``FormatError``."""
    if value not in palette:
        raise FormatError(f"{name} must be one of {sorted(palette)}, got {value!r}")
    return value


def _read_scene(d):
    objects = [
        ObjectState(
            read_str(o["object_id"], "object id"), _color(o["color"], OBJECT_COLORS, "object color"),
            _vector(o["pos"], 3, "object pos"),
        )
        for o in d["objects"]
    ]
    held = d["held_object"]
    if held is not None and held not in [o.object_id for o in objects]:
        raise FormatError(f"scene holds {held!r}, which is not one of its objects")
    return SceneState(
        ee_pos=_vector(d["ee_pos"], 3, "scene ee_pos"),
        ee_rot=_vector(d["ee_rot"], 3, "scene ee_rot"),
        gripper=read_float(d["gripper"], "scene gripper"),
        objects=objects,
        goal_regions=[
            GoalRegion(
                read_str(g["region_id"], "region id"), _color(g["color"], REGION_COLORS, "region color"),
                _vector(g["center"], 3, "goal center"), read_float(g["radius"], "goal radius"),
            )
            for g in d["goal_regions"]
        ],
        held_object=held,
    )


def _read_task(d):
    return TaskSpec(
        index=read_int(d["index"], "task index"),
        task_id=read_str(d["task_id"], "task id"),
        instruction=read_str(d["instruction"], "task instruction"),
        objects=tuple(
            (read_str(o[0], "task object id"), _color(o[1], OBJECT_COLORS, "task object color")) for o in d["objects"]
        ),
        regions=tuple(
            (
                read_str(r[0], "task region id"), _color(r[1], REGION_COLORS, "task region color"),
                read_float(r[2], "task region radius"),
            )
            for r in d["regions"]
        ),
        goals=tuple((read_str(g[0], "task goal object id"), read_str(g[1], "task goal region id")) for g in d["goals"]),
    )


def _read_camera(d):
    image_size = read_int(d["image_size"], "camera image_size")
    if image_size < 1:
        raise FormatError(f"camera image_size must be positive, got {image_size}")
    return CameraPose(
        position=_vector(d["position"], 3, "camera position"),
        look_at=_vector(d["look_at"], 3, "camera look_at"),
        up=_vector(d["up"], 3, "camera up"),
        focal=read_float(d["focal"], "camera focal"),
        principal_point=_vector(d["principal_point"], 2, "camera principal_point"),
        image_size=image_size,
    )


def _read_episode(d):
    return Episode(
        task_id=read_str(d["task_id"], "episode task id"),
        instruction=read_str(d["instruction"], "episode instruction"),
        seed=read_int(d["seed"], "episode seed"),
        steps=[
            EpisodeStep(
                scene=_read_scene(s["scene"]),
                proprio=_vector(s["proprio"], 7, "step proprio"),
                action=_vector(s["action"], 7, "step action"),
            )
            for s in d["steps"]
        ],
    )


def load_dataset(path) -> DemoDataset:
    with open(path, "rb") as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines:
        raise FormatError(f"dataset file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as e:         # invalid UTF-8 or invalid JSON
        raise FormatError(f"dataset header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise FormatError(f"dataset header must be an object, got {type(header).__name__}")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset format_version {version!r} (expected {FORMAT_VERSION})")
    try:
        seed = read_int(header["seed"], "dataset seed")
        tasks = [_read_task(t) for t in header["tasks"]]
        cameras = [_read_camera(c) for c in header["seen_cameras"]]
        episodes = [_read_episode(json.loads(ln)) for ln in lines[1:]]
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise FormatError(f"malformed dataset file {path}: {e}") from e
    if header.get("episodes") != len(episodes):
        raise FormatError(f"dataset {path} truncated: header lists {header.get('episodes')} episodes, found {len(episodes)}")
    return DemoDataset(tasks=tasks, cameras=cameras, seed=seed, episodes=episodes)
