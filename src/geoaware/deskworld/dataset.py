"""Expert demonstration datasets serialized as JSON lines.

Line 0 is a header (format version, task specs, seen cameras, seed); each
following line is one episode.  Floats are written with 17 significant
digits, which round-trips IEEE doubles exactly, so replaying stored actions
through the dynamics reproduces stored scenes bit-for-bit.  Observations
(renders, features) are never stored; they are derived at batch time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from geoaware.errors import FormatError, GenerationError
from geoaware.deskworld.camera import CameraPose, seen_cameras
from geoaware.deskworld.world import Action, SceneState, SimConfig, TaskSpec, expert_action, reset, step, success
from geoaware.persist import read_floats, read_int, write_atomic

FORMAT_VERSION = 1


# -- exact JSON writing ------------------------------------------------------


def _write_json(obj, out):
    """Append a deterministic JSON encoding of ``obj`` with .17g floats."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def dumps_exact(obj):
    out = []
    _write_json(obj, out)
    return "".join(out)


# -- episodes ----------------------------------------------------------------


@dataclass
class EpisodeStep:
    scene: SceneState
    proprio: np.ndarray
    action: np.ndarray

    def to_dict(self):
        return {
            "scene": self.scene.to_dict(),
            "proprio": self.proprio.tolist(),
            "action": self.action.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            scene=SceneState.from_dict(d["scene"]),
            proprio=np.array(read_floats(d["proprio"], "step proprio"), dtype=float),
            action=np.array(read_floats(d["action"], "step action"), dtype=float),
        )


@dataclass
class Episode:
    task_id: str
    instruction: str
    seed: int
    steps: list[EpisodeStep]

    def to_dict(self):
        return {
            "task_id": self.task_id,
            "instruction": self.instruction,
            "seed": self.seed,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            task_id=d["task_id"],
            instruction=d["instruction"],
            seed=read_int(d["seed"], "episode seed"),
            steps=[EpisodeStep.from_dict(s) for s in d["steps"]],
        )


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
    scene = reset(task, seed, sim)
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


# -- file IO -----------------------------------------------------------------


def save_dataset(dataset: DemoDataset, path):
    header = {
        "format_version": FORMAT_VERSION,
        "tasks": [t.to_dict() for t in dataset.tasks],
        "seen_cameras": [c.to_dict() for c in dataset.cameras],
        "seed": dataset.seed,
        "episodes": len(dataset.episodes),
    }
    lines = [dumps_exact(header)]
    lines.extend(dumps_exact(ep.to_dict()) for ep in dataset.episodes)
    write_atomic(path, "\n".join(lines) + "\n")


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
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset format_version {version!r} (expected {FORMAT_VERSION})")
    try:
        seed = read_int(header["seed"], "dataset seed")
        tasks = [TaskSpec.from_dict(t) for t in header["tasks"]]
        cameras = [CameraPose.from_dict(c) for c in header["seen_cameras"]]
        episodes = [Episode.from_dict(json.loads(ln)) for ln in lines[1:]]
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise FormatError(f"malformed dataset file {path}: {e}") from e
    if header.get("episodes") != len(episodes):
        raise FormatError(f"dataset {path} truncated: header lists {header.get('episodes')} episodes, found {len(episodes)}")
    return DemoDataset(tasks=tasks, cameras=cameras, seed=seed, episodes=episodes)
