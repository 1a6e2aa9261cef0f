"""Episodes of the desk world, and expert demonstration datasets serialized
as JSON lines.

``run_episode`` is the one closed loop: it resets, then steps under ``act``
until success or the step cap, and returns an ``Episode``, the record of a
demo and of a policy rollout alike.  ``run_expert_episode`` runs it with the
scripted expert, ``bench.rollout`` with a policy.

This module is the one owner of the file format.  Line 0 is a header object
with the keys ``format_version``, ``tasks``, ``sim`` (the ``SimConfig`` the
demos were recorded under), ``seed`` and ``episodes`` (their count).  Each
further line is one episode with the keys ``task_id``, ``seed`` and
``actions`` (one list of ``ACTION_WIDTH`` numbers per step, the last being the
idle action at the final, successful scene).  Scenes are not stored:
``load_dataset`` replays each episode, ``reset(task, seed)`` and then ``step``
over its actions under ``sim``, so its scenes are by construction the ones its
actions produce, and its outcome is ``SUCCESS`` only if its final scene
succeeds.  The header's ``tasks`` record the task definitions the demos
were made under, and each must equal the code's task of its id
(``make_tasks``), whose ``TaskSpec`` the replay uses.  Floats are written as
Python's shortest ``repr``, so a reloaded dataset equals the saved one bit for
bit.  The readers are strict: a missing or extra key, a value of the wrong
type or length, a non-finite number, a negative seed, an out-of-range ``sim``
field, a header task that is unknown, repeated or unlike the code's, an
episode of a task the header lacks or one with no actions raises
``FormatError``.  Observations (renders, features) are never stored; they are
derived at batch time.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from geoaware.errors import ConfigError, FormatError, GenerationError, InputError, NumericError
from geoaware.deskworld.world import (
    ACTION_WIDTH, SceneState, SimConfig, TaskSpec, action_vector, expert_action, make_tasks, reset, step, success,
)
from geoaware.persist import from_dict, read_floats, read_int, read_str, write_atomic

FORMAT_VERSION = 2

_HEADER_KEYS = {"format_version", "tasks", "sim", "seed", "episodes"}
_EPISODE_KEYS = {"task_id", "seed", "actions"}


class Outcome(enum.Enum):
    """How an episode ended."""

    SUCCESS = "success"             # the final scene satisfies the task
    TIMEOUT = "timeout"             # the step cap ran out first
    BAD_ACTION = "bad_action"       # ``step`` rejected the action, or ``act`` went non-finite


@dataclass
class Episode:
    """One trajectory, an expert demo or a policy rollout: action ``t`` was
    taken in ``scenes[t]``, and the last action, at the final scene, is the
    idle one (``action_vector()``), so there is one action row per scene.
    ``steps`` counts the actions executed; ``outcome`` says how it ended."""

    task: TaskSpec
    seed: int
    scenes: list[SceneState]
    actions: np.ndarray             # [T, ACTION_WIDTH], one row per scene
    outcome: Outcome

    @property
    def steps(self):
        return len(self.scenes) - 1


@dataclass
class DemoDataset:
    tasks: list[TaskSpec]
    sim: SimConfig
    seed: int
    episodes: list[Episode]

    def instructions(self):
        """Sorted closed vocabulary over the dataset's tasks."""
        return sorted({t.instruction for t in self.tasks})

    def sample_index(self):
        """All (episode_index, step_index) pairs, in storage order."""
        return [(e, s) for e, ep in enumerate(self.episodes) for s in range(len(ep.actions))]


def run_episode(task: TaskSpec, seed: int, act, sim: SimConfig) -> Episode:
    """Step ``act(scene)`` from a seeded reset until success or the step
    cap.  An action ``step`` rejects (a wrong shape or a non-finite entry),
    or a ``NumericError`` from ``act``, ends the episode as ``BAD_ACTION``
    instead of raising."""
    scene = reset(task, seed)
    scenes, actions, outcome = [scene], [], Outcome.TIMEOUT
    for _ in range(sim.max_episode_steps):
        try:
            action = act(scene)
            scene = step(scene, action, sim)
        except (NumericError, InputError):
            outcome = Outcome.BAD_ACTION
            break
        scenes.append(scene)
        actions.append(action)
        if success(scene, task):
            outcome = Outcome.SUCCESS
            break
    actions.append(action_vector())
    return Episode(task, seed, scenes, np.array(actions), outcome)


def run_expert_episode(task: TaskSpec, seed: int, sim: SimConfig | None = None) -> Episode:
    """The scripted expert's episode; one that does not succeed raises."""
    sim = sim or SimConfig()
    episode = run_episode(task, seed, lambda scene: expert_action(scene, task, sim), sim)
    if episode.outcome is not Outcome.SUCCESS:
        raise GenerationError(f"expert failed task {task.task_id!r} with seed {seed} within {sim.max_episode_steps} steps")
    return episode


def generate_dataset(tasks, episodes_per_task, seed, sim: SimConfig | None = None) -> DemoDataset:
    """Expert demos for every task; any expert failure raises (never dropped)."""
    if episodes_per_task < 1 or seed < 0:
        raise ConfigError(f"need episodes_per_task >= 1 and seed >= 0, got {episodes_per_task} and {seed}")
    sim = sim or SimConfig()
    episodes = []
    for task in tasks:
        for e in range(episodes_per_task):
            episode_seed = seed * 1_000_003 + e
            episodes.append(run_expert_episode(task, episode_seed, sim))
    return DemoDataset(tasks=list(tasks), sim=sim, seed=seed, episodes=episodes)


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
        "sim": dataset.sim,
        "seed": dataset.seed,
        "episodes": len(dataset.episodes),
    }
    docs = [header] + [
        {"task_id": ep.task.task_id, "seed": ep.seed, "actions": ep.actions} for ep in dataset.episodes
    ]
    lines = [json.dumps(doc, default=_encode, allow_nan=False, separators=(",", ":")) for doc in docs]
    write_atomic(path, "\n".join(lines) + "\n")


# -- reading -----------------------------------------------------------------


def _non_negative(value, name):
    """``value`` if it is an int >= 0, as ``reset`` seeds with; else ``FormatError``."""
    if read_int(value, name) < 0:
        raise FormatError(f"{name} must not be negative, got {value}")
    return value


def _actions(rows):
    """``rows`` as a [T, ACTION_WIDTH] float array if it is a non-empty list
    of lists of ``ACTION_WIDTH`` numbers, each as ``read_floats`` accepts it;
    anything else raises ``FormatError``.  A written episode always ends in
    the idle action, so an empty list is malformed."""
    if type(rows) is not list or not rows:
        raise FormatError("episode actions must be a non-empty list")
    for row in rows:
        if len(read_floats(row, "step action")) != ACTION_WIDTH:
            raise FormatError(f"step action must have {ACTION_WIDTH} entries, got {len(row)}")
    return np.array(rows, dtype=float)


def _read_tasks(entries):
    """The code's ``TaskSpec`` for each header task entry.  An entry must
    equal the code's task of its id as canonical JSON text, the way
    ``load_checkpoint`` compares ``tensors``, so an int written as ``0.0`` or
    ``true`` does not pass; an unknown or repeated id raises ``FormatError``."""
    code = {task.task_id: task for task in make_tasks()}
    tasks = {}
    for entry in entries:
        task_id = entry["task_id"]
        if task_id not in code:
            raise FormatError(f"dataset task {task_id!r} is not a task of make_tasks()")
        if task_id in tasks:
            raise FormatError(f"dataset task {task_id!r} is listed twice")
        if json.dumps(entry, sort_keys=True) != json.dumps(code[task_id], default=_encode, sort_keys=True):
            raise FormatError(f"dataset task {task_id!r} differs from its definition in make_tasks()")
        tasks[task_id] = code[task_id]
    return tasks


def _read_sim(d):
    """The header's ``sim`` section, within ``SimConfig.validate``'s bounds,
    with a float field that the file wrote as an int read as a float."""
    sim = from_dict(SimConfig, d, "sim", FormatError).validate(FormatError)
    return replace(sim, **{f.name: float(getattr(sim, f.name)) for f in fields(sim) if type(f.default) is float})


def _read_episode(d, tasks_by_id, sim):
    """Replay one episode line: its task's seeded reset, then one ``step``
    per stored action but the last, which belongs to the final scene.  Unlike
    ``run_episode`` it follows every stored action, and it takes the outcome
    from the final scene alone: ``SUCCESS`` or ``TIMEOUT``."""
    if set(d) != _EPISODE_KEYS:
        raise FormatError(f"dataset episode needs exactly the keys {sorted(_EPISODE_KEYS)}, got {sorted(d)}")
    task_id = read_str(d["task_id"], "episode task id")
    if task_id not in tasks_by_id:
        raise FormatError(f"episode task id {task_id!r} names no task of the header")
    task, seed = tasks_by_id[task_id], _non_negative(d["seed"], "episode seed")
    actions = _actions(d["actions"])
    scenes = [reset(task, seed)]
    for action in actions[:-1]:
        scenes.append(step(scenes[-1], action, sim))
    outcome = Outcome.SUCCESS if success(scenes[-1], task) else Outcome.TIMEOUT
    return Episode(task, seed, scenes, actions, outcome)


def load_dataset(path) -> DemoDataset:
    with open(path, "rb") as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines:
        raise FormatError(f"dataset file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as e:         # invalid UTF-8 or invalid JSON
        raise FormatError(f"dataset header is not valid JSON: {e}") from e
    version = header.get("format_version") if isinstance(header, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset format_version {version!r} (expected {FORMAT_VERSION})")
    if set(header) != _HEADER_KEYS:
        raise FormatError(f"dataset header needs exactly the keys {sorted(_HEADER_KEYS)}, got {sorted(header)}")
    try:
        seed = read_int(header["seed"], "dataset seed")
        by_id = _read_tasks(header["tasks"])
        sim = _read_sim(header["sim"])
        episodes = [_read_episode(json.loads(ln), by_id, sim) for ln in lines[1:]]
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise FormatError(f"malformed dataset file {path}: {e}") from e
    if read_int(header["episodes"], "dataset episode count") != len(episodes):
        raise FormatError(f"dataset {path} truncated: header lists {header['episodes']} episodes, found {len(episodes)}")
    return DemoDataset(tasks=list(by_id.values()), sim=sim, seed=seed, episodes=episodes)
