"""Pinhole cameras on a sphere around the workspace, plus a disc-splat renderer.

Cameras use a right-handed look-at frame.  With camera-frame coordinates
(X right, Y down, Z forward), a point projects to

    u = focal * X / Z + c_x,     v = focal * Y / Z + c_y.

A ``CameraPose`` is a value: it computes its (right, down, forward) axes
once, when it is made, and every projection reads them.

The renderer is batched: ``render_image(scenes, cameras)`` paints every
scene under every camera in one call, projecting all disc centres of the
batch once per camera.  One vectorized pass then lists, for every disc of
every frame, the pixels of its box (those within radius + 1 pixel of its
centre on both axes, the only ones its alpha can reach) with their alpha,
so the only per-disc work left is one gather, blend and scatter per paint
position over all frames.  Boxes keep their own sizes, so one large disc
does not widen the others' work.  One scene under one camera is the batch
of one, the closed-loop rollout case.

The two fixed "seen" cameras (top-down and oblique side) are the training
views; novel evaluation cameras are sampled on the same sphere at a bounded
angular offset from their nearest seen camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geoaware.errors import CameraError
from geoaware.deskworld.world import (
    BACKGROUND_COLOR,
    EE_COLOR,
    OBJECT_COLORS,
    REGION_COLORS,
    SimConfig,
)

MIN_RENDER_DEPTH = 1e-3     # points at or behind this camera depth are culled
EE_RENDER_RADIUS = 0.02     # meters
OBJECT_RENDER_RADIUS = 0.03
_PAD_GROUP = 3              # paint group of the padding slots in a batch render
VIEWS = 2                   # cameras per observation: the seen pair, or a novel pair

# Angular-offset bands (degrees) between a novel camera and its nearest seen
# camera; the offset is the great-circle angle on the camera sphere.
CATEGORY_BANDS = {
    "novel_small": (10.0, 20.0),
    "novel_medium": (25.0, 40.0),
    "novel_large": (45.0, 60.0),
}
EVAL_CATEGORIES = ("seen",) + tuple(CATEGORY_BANDS)

_ELEVATION_LIMITS = (5.0, 88.0)     # keep novel cameras above the table, off the pole
_SAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True, eq=False)
class CameraPose:
    """A pinhole camera pose, a value: it holds its own read-only float copies
    of ``position``, ``look_at``, ``up`` and ``principal_point``, and computes
    its (right, down, forward) axes (``camera_axes``) once, when it is made,
    so a degenerate pose raises ``CameraError`` there.  ``project_points``
    reads the stored axes.  Poses compare with ``same_pose``."""

    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray
    focal: float
    principal_point: np.ndarray
    image_size: int
    axes: tuple = field(init=False, repr=False)     # (right, down, forward)

    def __post_init__(self):
        for name in ("position", "look_at", "up", "principal_point"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        axes = camera_axes(self)
        for axis in axes:
            axis.flags.writeable = False
        object.__setattr__(self, "axes", axes)

    def same_pose(self, other, tol=1e-9):
        """Whether ``other`` has the same position, look-at point and up
        vector, each coordinate within the absolute tolerance ``tol``."""
        return all(
            np.allclose(getattr(self, name), getattr(other, name), rtol=0.0, atol=tol)
            for name in ("position", "look_at", "up")
        )


def _cross(a, b):
    """``np.cross`` of two 3-vectors, bit for bit, without its per-call setup."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def camera_axes(pose: CameraPose):
    """Rows (right, down, forward) of the world-to-camera rotation, computed
    from the pose's position, look-at point and up vector."""
    forward = pose.look_at - pose.position
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise CameraError("camera position coincides with its look-at point")
    forward = forward / norm
    right = _cross(forward, pose.up)
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise CameraError("camera up vector is parallel to the viewing direction")
    right = right / rnorm
    down = _cross(forward, right)  # completes the right-handed (right, down, forward) triad
    return right, down, forward


def project_points(pose: CameraPose, points, min_depth=MIN_RENDER_DEPTH):
    """Project world points [N, 3] to pixel coordinates.

    Returns (uv [N, 2], depth [N]).  Depth is the raw forward camera
    coordinate; the projection itself divides by max(depth, min_depth), so
    behind-camera points yield finite coordinates and callers decide what to
    do with them (the renderer culls them, the feature stub flags them).
    """
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - pose.position
    right, down, forward = pose.axes
    z = rel @ forward
    uv = np.empty((len(rel), 2))
    uv[:, 0] = rel @ right
    uv[:, 1] = rel @ down
    uv *= pose.focal
    uv /= np.maximum(z, min_depth)[:, None]
    uv += pose.principal_point
    return uv, z


def _paint_slots(scenes):
    """Every scene's discs as one row of paint slots in group order (0 goal
    regions, 1 objects, 2 end effector), rows padded to the longest one.

    Returns centres [B, K, 3], world radii [B, K], colours [B, K, 3] float32
    and groups [B, K], which are ``_PAD_GROUP`` on padding.
    """
    rows = [
        [(g.center, g.radius, REGION_COLORS[g.color], 0) for g in s.goal_regions]
        + [(o.pos, OBJECT_RENDER_RADIUS, OBJECT_COLORS[o.color], 1) for o in s.objects]
        + [(s.ee_pos, EE_RENDER_RADIUS, EE_COLOR, 2)]
        for s in scenes
    ]
    b, k = len(rows), max(map(len, rows))
    centres, radii = np.zeros((b, k, 3)), np.zeros((b, k))
    colors, groups = np.zeros((b, k, 3), dtype=np.float32), np.full((b, k), _PAD_GROUP)
    discs = [(i, j, *disc) for i, row in enumerate(rows) for j, disc in enumerate(row)]
    i, j, centre, radius, color, group = zip(*discs)
    centres[i, j], radii[i, j], colors[i, j], groups[i, j] = centre, radius, color, group
    return centres, radii, colors, groups


def render_image(scenes, cameras):
    """Render every scene under every camera as colored discs: float32
    [B, V, H, W, 3] in [0, 1].  Needs at least one scene, and cameras that
    share one ``image_size``.

    In each frame goal regions paint first, objects far-to-near, the
    end-effector last.  Disc pixel radius is focal * world_radius / depth;
    behind-camera discs (depth <= MIN_RENDER_DEPTH) cull.  A disc composites
    over its frame with alpha = clip(radius_px + 0.5 - dist, 0, 1), dist being
    a pixel's distance to the projected centre.  Alpha is exactly 0 off a
    disc's box, the pixels within radius_px + 1 of its centre on both axes,
    and x * (1 - 0) + 0 * c == x, so only the boxes are painted.  One
    vectorized pass lists every box pixel of every frame with its alpha; the
    paint loop then runs once per paint position, not per disc or frame.  The
    frames are a view of one channel-planar buffer, so the channel axis is the
    slowest in memory.
    """
    if not scenes:
        raise CameraError("a render needs at least one scene")
    sizes = {cam.image_size for cam in cameras}
    if len(sizes) != 1:
        raise CameraError(f"cameras of one render must share one image_size, got {sorted(sizes)}")
    (size,) = sizes
    centres, radii, colors, groups = _paint_slots(scenes)
    b, k = radii.shape
    views = len(cameras)
    frames = b * views

    # [B, V, K] projections; padding, like a culled disc, never paints
    uv, depth = np.empty((b, views, k, 2)), np.empty((b, views, k))
    for j, cam in enumerate(cameras):
        points, z = project_points(cam, centres.reshape(-1, 3))
        uv[:, j], depth[:, j] = points.reshape(b, k, 2), z.reshape(b, k)
    groups = np.broadcast_to(groups[:, None], depth.shape)
    live = (groups != _PAD_GROUP) & (depth > MIN_RENDER_DEPTH)
    focal = np.array([cam.focal for cam in cameras], dtype=float)[None, :, None]
    radius_px = (focal * radii[:, None] / np.where(live, depth, 1.0)).reshape(frames, k)
    uv, live = uv.reshape(frames, k, 2), live.reshape(frames, k)

    # every disc's box [lo, lo + extent) in (x, y), clipped to the image; empty unless live
    lo = np.clip(np.ceil(uv - radius_px[..., None] - 1), 0, size).astype(int)
    hi = np.clip(np.floor(uv + radius_px[..., None] + 1) + 1, 0, size).astype(int)
    extent = np.where(live[..., None], hi - lo, 0)

    # paint order in every frame: by group, then far to near (ties keep slot
    # order); the painted discs listed position-major, frame by frame
    order = np.lexsort((-depth, groups), axis=-1).reshape(frames, k)
    painted = (extent.min(axis=-1) > 0)[np.arange(frames)[:, None], order]
    position, frame = np.nonzero(painted.T)
    slot = order[frame, position]
    (x0, y0), (w, h), (cx, cy) = lo[frame, slot].T, extent[frame, slot].T, uv[frame, slot].T

    # every box pixel, disc after disc, row-major within a box
    count = w * h
    disc = np.repeat(np.arange(count.size), count)
    cell = np.arange(disc.size) - np.repeat(np.cumsum(count) - count, count)
    xs, ys = x0[disc] + cell % w[disc], y0[disc] + cell // w[disc]
    dist = np.hypot(xs - cx[disc], ys - cy[disc])
    alpha = np.clip(radius_px[frame, slot][disc] + 0.5 - dist, 0.0, 1.0).astype(np.float32)
    # the composite x * (1 - alpha) + alpha * c, its two image-free terms made once
    keep, paint = 1.0 - alpha, alpha * colors[frame // views, slot][disc].T
    plane = frames * size * size
    index = (frame[disc] * size + ys) * size + xs + plane * np.arange(3)[:, None]    # [3, P] into the flat planes
    bounds = np.searchsorted(position[disc], np.arange(k + 1)).tolist()

    img = np.empty((3, plane), dtype=np.float32)
    img[:] = np.asarray(BACKGROUND_COLOR, dtype=np.float32)[:, None]
    flat = img.reshape(-1)
    # a paint position holds at most one disc per frame, so no pixel repeats within one scatter
    for start, stop in zip(bounds[:-1], bounds[1:]):
        at = index[:, start:stop]
        flat[at] = flat.take(at) * keep[start:stop] + paint[:, start:stop]
    # a convex blend of palette colours stays in [0, 1]
    return img.reshape(3, b, views, size, size).transpose(1, 2, 3, 4, 0)


# -- camera placement --------------------------------------------------------


def _pose_on_sphere(position, sim: SimConfig, top_down=False):
    return CameraPose(
        position=np.asarray(position, dtype=float),
        look_at=np.zeros(3),
        up=np.array([0.0, 1.0, 0.0]) if top_down else np.array([0.0, 0.0, 1.0]),
        focal=sim.focal,
        principal_point=np.array([sim.image_size / 2.0, sim.image_size / 2.0]),
        image_size=sim.image_size,
    )


def _spherical_position(azimuth_deg, elevation_deg, radius):
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return radius * np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])


def seen_cameras(sim: SimConfig | None = None):
    """The two fixed training cameras: straight top-down and an oblique side view."""
    sim = sim or SimConfig()
    top = _pose_on_sphere([0.0, 0.0, sim.camera_radius], sim, top_down=True)
    oblique = _pose_on_sphere(_spherical_position(35.0, 40.0, sim.camera_radius), sim)
    return [top, oblique]


def _unit(v):
    return v / np.linalg.norm(v)


def _great_circle_deg(p, q):
    return math.degrees(math.acos(float(np.clip(np.dot(_unit(p), _unit(q)), -1.0, 1.0))))


def nearest_seen_offset(pose: CameraPose, sim: SimConfig | None = None):
    """(index of nearest seen camera, angular offset in degrees) on the sphere."""
    sim = sim or SimConfig()
    offsets = [_great_circle_deg(pose.position, s.position) for s in seen_cameras(sim)]
    idx = int(np.argmin(offsets))
    return idx, offsets[idx]


def sample_viewpoints(category: str, count: int, seed: int, sim: SimConfig | None = None):
    """Cameras for an evaluation category.

    ``seen`` returns the ``VIEWS`` fixed training cameras.  Novel categories draw
    ``count`` cameras whose angular offset from their *nearest* seen camera
    falls in the category band: rotate a randomly chosen seen camera's
    position by an in-band angle around a random tangent axis, rejecting
    draws that leave the elevation limits or land closer to the other seen
    camera than to the base.
    """
    sim = sim or SimConfig()
    if category == "seen":
        return seen_cameras(sim)
    if category not in CATEGORY_BANDS:
        raise CameraError(f"unknown viewpoint category {category!r} (expected one of {sorted(EVAL_CATEGORIES)})")
    lo, hi = CATEGORY_BANDS[category]
    rng = np.random.default_rng([int(seed), list(CATEGORY_BANDS).index(category), 104729])
    bases = [s.position for s in seen_cameras(sim)]

    cameras = []
    while len(cameras) < count:
        for _ in range(_SAMPLE_ATTEMPTS):
            base_idx = int(rng.integers(len(bases)))
            base = _unit(bases[base_idx])
            psi = math.radians(rng.uniform(lo, hi))
            # random unit axis tangent to the sphere at `base`
            helper = np.array([0.0, 0.0, 1.0]) if abs(base[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            t1 = _unit(_cross(base, helper))
            t2 = _cross(base, t1)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            axis = math.cos(phi) * t1 + math.sin(phi) * t2
            # rotate base around `axis` by psi (Rodrigues; axis is orthogonal to base)
            pos = math.cos(psi) * base + math.sin(psi) * _cross(axis, base)
            elevation = math.degrees(math.asin(float(np.clip(pos[2], -1.0, 1.0))))
            if not (_ELEVATION_LIMITS[0] <= elevation <= _ELEVATION_LIMITS[1]):
                continue
            offsets = [_great_circle_deg(pos, b) for b in bases]
            if int(np.argmin(offsets)) != base_idx:
                continue  # drifted closer to the other training camera
            cameras.append(_pose_on_sphere(pos * sim.camera_radius, sim))
            break
        else:
            raise CameraError(f"viewpoint sampling failed for category {category!r}")
    return cameras
