"""Deterministic tabletop pick-and-place world with pinhole cameras.

The world is intentionally small: colored block objects, painted goal
regions, a point end-effector with a binary gripper, and kinematic dynamics
(no contact physics).  Everything is derivable from a seed so that datasets,
renders, and rollouts are bit-reproducible.
"""

from geoaware.deskworld.world import (
    ObjectState,
    GoalRegion,
    SceneState,
    SimConfig,
    TaskSpec,
    expert_action,
    make_tasks,
    reset,
    step,
    success,
)
from geoaware.deskworld.camera import (
    CameraPose,
    camera_axes,
    nearest_seen_offset,
    project_points,
    render_image,
    sample_viewpoints,
    seen_cameras,
)
from geoaware.deskworld.dataset import (
    DemoDataset,
    Episode,
    generate_dataset,
    load_dataset,
    save_dataset,
)

__all__ = [
    "ObjectState",
    "GoalRegion",
    "SceneState",
    "SimConfig",
    "TaskSpec",
    "make_tasks",
    "reset",
    "step",
    "expert_action",
    "success",
    "CameraPose",
    "camera_axes",
    "project_points",
    "render_image",
    "seen_cameras",
    "sample_viewpoints",
    "nearest_seen_offset",
    "DemoDataset",
    "Episode",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]
