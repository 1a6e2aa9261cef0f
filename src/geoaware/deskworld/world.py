"""Scene state, task templates, kinematic dynamics, and the scripted expert.

Scenes are values: a scene is never edited after creation.  ``reset`` builds
a fresh one, and ``step`` builds the next from the previous, sharing every
part that did not move (object states, goal regions and their arrays) and
making one new array per moved body; a held object shares the end-effector's
position array.  Every array of a scene is read-only, so an in-place write
raises ``ValueError`` instead of reaching a scene that shares it.  The
kernels do their per-call arithmetic on Python floats, which round exactly as
NumPy's elementwise float64 operations do; distances go through ``_norm``,
which is ``np.linalg.norm`` for a vector.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from geoaware.errors import ConfigError, GenerationError, InputError, TaskError

# Palette shared by the renderer and the geometric feature stub.  Object and
# region colors come from a closed set; the end-effector color is reserved.
OBJECT_COLORS = {"red": (0.85, 0.12, 0.12), "blue": (0.15, 0.25, 0.90)}
REGION_COLORS = {"green": (0.10, 0.75, 0.20), "yellow": (0.90, 0.82, 0.12)}
EE_COLOR = (0.95, 0.95, 0.95)
BACKGROUND_COLOR = (0.06, 0.06, 0.08)

WORKSPACE_HALF = 0.5        # workspace box is [-0.5, 0.5]^3 in meters
SPAWN_HALF = 0.35           # x/y band for sampled placements
TABLE_Z = 0.02              # resting height of objects and region centers
EE_HOME = (0.0, 0.0, 0.25)
MIN_SEPARATION = 0.08
PLACEMENT_ATTEMPTS = 1000

# The world-policy interface: the widths of an action (laid out in ``step``)
# and of the proprioceptive state (``SceneState.proprio``).
ACTION_WIDTH = 7
PROPRIO_WIDTH = 7

_VECTOR = struct.Struct("3d")


def _frozen(x, y, z):
    """A new read-only float64 3-vector.  Its memory is an immutable
    ``bytes`` object, so the array cannot be made writable again."""
    return np.frombuffer(_VECTOR.pack(x, y, z))


def _norm(vector):
    """The Euclidean length of a float vector, bit for bit as
    ``np.linalg.norm`` computes it: the square root of its BLAS dot with
    itself, whose rounding a Python sum of squares does not reproduce."""
    return math.sqrt(vector.dot(vector))


def _clip(value, bound):
    """``value`` clipped to [-bound, bound]; ``np.clip`` for a finite float."""
    return -bound if value < -bound else bound if value > bound else value


# Lateral offsets applied to consecutive goals that share a region, so two
# objects placed into one zone do not end up coincident.
_PLACE_OFFSETS = np.array(((0.0, 0.0, 0.0), (0.035, 0.0, 0.0), (-0.035, 0.0, 0.0), (0.0, 0.035, 0.0)))
_HOME = _frozen(*EE_HOME)
_NO_ROTATION = _frozen(0.0, 0.0, 0.0)


@dataclass
class SimConfig:
    """World constants that downstream modules may override from config files."""

    max_step: float = 0.05          # per-axis translation clip per control step
    grasp_radius: float = 0.03      # gripper must close within this distance
    max_episode_steps: int = 200
    image_size: int = 32
    focal: float = 30.0             # pixels
    camera_radius: float = 1.0      # seen/novel cameras live on this sphere

    def validate(self, error=ConfigError):
        """``self`` if every length and count is positive; else raises ``error``."""
        for name in ("max_step", "grasp_radius", "focal", "camera_radius", "max_episode_steps", "image_size"):
            if not getattr(self, name) > 0:
                raise error(f"sim {name} must be positive, got {getattr(self, name)}")
        return self


@dataclass
class ObjectState:
    object_id: str
    color: str
    pos: np.ndarray


@dataclass
class GoalRegion:
    region_id: str
    color: str
    center: np.ndarray
    radius: float


@dataclass
class SceneState:
    """Full world state: end-effector pose, gripper, objects, goals, held object.

    A value: never edited after creation.  Its arrays are read-only and may be
    shared with the scene it was stepped from (see the module docstring)."""

    ee_pos: np.ndarray
    ee_rot: np.ndarray              # accumulated rotation command; physically inert
    gripper: float                  # +1 open, -1 closed
    objects: list[ObjectState]
    goal_regions: list[GoalRegion]
    held_object: str | None = None

    def object_by_id(self, object_id) -> ObjectState:
        for o in self.objects:
            if o.object_id == object_id:
                return o
        raise TaskError(f"no object {object_id!r} in scene")

    def region_by_id(self, region_id) -> GoalRegion:
        for g in self.goal_regions:
            if g.region_id == region_id:
                return g
        raise TaskError(f"no region {region_id!r} in scene")

    def proprio(self):
        """The ``PROPRIO_WIDTH`` state fed to the policy: ee position, ee rotation, gripper."""
        return np.concatenate([self.ee_pos, self.ee_rot, [self.gripper]])


def stack_proprio(scenes):
    """``SceneState.proprio`` of every scene as one [B, PROPRIO_WIDTH] float64
    array, built from one array per field rather than one concatenate per scene."""
    fields = ([s.ee_pos for s in scenes], [s.ee_rot for s in scenes], [[s.gripper] for s in scenes])
    return np.concatenate([np.array(f, dtype=float) for f in fields], axis=1)


@dataclass
class TaskSpec:
    """One language-conditioned pick-and-place template."""

    index: int
    task_id: str
    instruction: str
    objects: tuple                  # ((object_id, color), ...)
    regions: tuple                  # ((region_id, color, radius), ...)
    goals: tuple                    # ((object_id, region_id), ...) in execution order


def make_tasks():
    """The fixed task set; instructions form the closed policy vocabulary."""
    both = (("red_block", "red"), ("blue_block", "blue"))
    green = ("green_zone", "green", 0.06)
    yellow = ("yellow_zone", "yellow", 0.06)
    return [
        TaskSpec(0, "t0", "put the red block in the green zone", both, (green,), (("red_block", "green_zone"),)),
        TaskSpec(1, "t1", "put the blue block in the green zone", both, (green,), (("blue_block", "green_zone"),)),
        TaskSpec(2, "t2", "put the red block in the yellow zone", both, (green, yellow), (("red_block", "yellow_zone"),)),
        TaskSpec(
            3,
            "t3",
            "put the red block and the blue block in the green zone",
            both,
            (green,),
            (("red_block", "green_zone"), ("blue_block", "green_zone")),
        ),
    ]


def reset(task: TaskSpec, seed: int) -> SceneState:
    """Sample a scene for the task: regions first, then objects, all separated."""
    rng = np.random.default_rng([int(seed), task.index, 7919])
    placed = []

    def sample_position(label):
        for _ in range(PLACEMENT_ATTEMPTS):
            x, y = rng.uniform(-SPAWN_HALF, SPAWN_HALF, size=2).tolist()
            pos = _frozen(x, y, TABLE_Z)
            if all(_norm(pos - q) >= MIN_SEPARATION for q in placed):
                placed.append(pos)
                return pos
        raise GenerationError(f"could not place {label} after {PLACEMENT_ATTEMPTS} attempts (task {task.task_id})")

    regions = [GoalRegion(rid, color, sample_position(rid), radius) for rid, color, radius in task.regions]
    objects = [ObjectState(oid, color, sample_position(oid)) for oid, color in task.objects]
    return SceneState(
        ee_pos=_HOME,
        ee_rot=_NO_ROTATION,
        gripper=1.0,
        objects=objects,
        goal_regions=regions,
        held_object=None,
    )


def step(scene: SceneState, action, sim: SimConfig | None = None) -> SceneState:
    """Kinematic update under ``action``, a vector of ``ACTION_WIDTH`` floats:
    translation delta (3, clipped per axis to ``sim.max_step``), rotation
    delta (3), gripper command (closed when negative, else open).  Grasping
    happens on the open->closed transition only; a held object rigidly tracks
    the end-effector until released in place.  Returns a new scene and leaves
    ``scene`` as it was.  This is the one check of an action: an entry that
    is not a real number (a string, a complex number, ``None``), a wrong
    shape or a non-finite entry raises ``InputError``."""
    sim = sim or SimConfig()
    try:
        action = np.asarray(action)
    except ValueError as e:         # a ragged nesting
        raise InputError(f"action must be a vector of real numbers: {e}") from e
    if action.dtype.kind not in "biuf":
        raise InputError(f"action must be a vector of real numbers, got dtype {action.dtype}")
    if action.shape != (ACTION_WIDTH,):
        raise InputError(f"action must have shape ({ACTION_WIDTH},), got {action.shape}")
    values = action.tolist()
    if not all(map(math.isfinite, values)):
        raise InputError("action contains non-finite values")

    ee_pos = _frozen(*[
        _clip(p + _clip(d, sim.max_step), WORKSPACE_HALF) for p, d in zip(scene.ee_pos.tolist(), values[:3])
    ])
    ee_rot = _frozen(*[r + d for r, d in zip(scene.ee_rot.tolist(), values[3:6])])  # tracked but inert
    gripper = 1.0 if values[6] >= 0 else -1.0

    held = scene.held_object
    if held is not None and gripper > 0:
        held = None  # release; the object stays where it is
    elif held is None and scene.gripper > 0 and gripper < 0:
        distances = [(_norm(o.pos - ee_pos), o.object_id) for o in scene.objects]
        candidates = [c for c in distances if c[0] <= sim.grasp_radius]
        if candidates:
            held = min(candidates)[1]
    # The held object moves with the end-effector; the rest are shared.
    objects = [ObjectState(o.object_id, o.color, ee_pos) if o.object_id == held else o for o in scene.objects]
    return SceneState(ee_pos, ee_rot, gripper, objects, list(scene.goal_regions), held)


def success(scene: SceneState, task: TaskSpec) -> bool:
    """Every task-designated object inside its region's radius and not held."""
    for object_id, region_id in task.goals:
        obj = scene.object_by_id(object_id)
        region = scene.region_by_id(region_id)
        if scene.held_object == object_id:
            return False
        if _norm(obj.pos - region.center) > region.radius:
            return False
    return True


def _place_target(scene: SceneState, task: TaskSpec, goal_index: int) -> np.ndarray:
    _, region_id = task.goals[goal_index]
    center = scene.region_by_id(region_id).center
    return center + _PLACE_OFFSETS[goal_index % len(_PLACE_OFFSETS)]


GRASP_APPROACH_TOL = 0.02   # close the gripper once within this distance
PLACE_TOL = 0.015           # release once the held object is this close to target


def action_vector(d_pos=(0.0, 0.0, 0.0), gripper_cmd=1.0):
    """The action that moves by ``d_pos`` with no rotation and commands the
    gripper with ``gripper_cmd``; by default the idle, open-gripper action."""
    return np.array([*d_pos, 0.0, 0.0, 0.0, gripper_cmd])


def expert_action(scene: SceneState, task: TaskSpec, sim: SimConfig | None = None) -> np.ndarray:
    """Stateless scripted controller: approach -> grasp -> transport -> release
    for each goal in order.  Proportional with per-axis clipping (gain 1).
    Returns the action vector ``step`` takes (``action_vector``)."""
    sim = sim or SimConfig()

    def clipped(delta):
        return [_clip(d, sim.max_step) for d in delta.tolist()]

    for i, (object_id, region_id) in enumerate(task.goals):
        obj = scene.object_by_id(object_id)
        target = _place_target(scene, task, i)

        if scene.held_object == object_id:
            delta = target - scene.ee_pos
            if _norm(delta) <= PLACE_TOL:
                return action_vector()  # release
            return action_vector(clipped(delta), -1.0)

        if _norm(obj.pos - target) <= PLACE_TOL:
            continue  # this goal is done

        if scene.held_object is not None:
            # Holding the wrong object; this cannot arise from the expert's own
            # actions, so treat it as an unreachable state.
            raise TaskError(f"expert is holding {scene.held_object!r} but needs {object_id!r}")

        delta = obj.pos - scene.ee_pos
        if _norm(delta) <= GRASP_APPROACH_TOL:
            return action_vector(clipped(delta), -1.0)  # grasp
        return action_vector(clipped(delta))  # approach

    return action_vector()  # all goals satisfied
