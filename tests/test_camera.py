"""Pinhole projection, disc rendering, and viewpoint sampling."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from geoaware.deskworld import (
    CameraPose,
    SimConfig,
    camera_axes,
    generate_dataset,
    make_tasks,
    nearest_seen_offset,
    project_points,
    render_image,
    reset,
    sample_viewpoints,
    seen_cameras,
)
from geoaware.deskworld.camera import CATEGORY_BANDS, EE_RENDER_RADIUS, MIN_RENDER_DEPTH, OBJECT_RENDER_RADIUS
from geoaware.deskworld.world import BACKGROUND_COLOR, EE_COLOR, OBJECT_COLORS, REGION_COLORS
from geoaware.errors import CameraError

SIM = SimConfig()

# Recorded once from a fixed scene (task t0, reset seed 0) under the two
# training cameras; guards against silent renderer drift.
GOLDEN_RENDER_HASHES = [
    "c5a68733492648b7d021e36de005ec2fc4d2398d0e040b890bbd9867df08bd6a",
    "87afccef4abcd7c25165d81bb20fa82be5f19009538e51aec97ea04a6f8a762a",
]


def make_pose(position, look_at=(0.0, 0.0, 0.0), up=(0.0, 0.0, 1.0), focal=30.0, size=32):
    return CameraPose(
        position=np.array(position, dtype=float),
        look_at=np.array(look_at, dtype=float),
        up=np.array(up, dtype=float),
        focal=focal,
        principal_point=np.array([size / 2.0, size / 2.0]),
        image_size=size,
    )


# -- projection --------------------------------------------------------------


def test_optical_axis_projects_to_principal_point():
    pose = make_pose([0.9, -0.4, 0.6])
    _, _, forward = camera_axes(pose)
    for t in (0.2, 0.5, 1.3):
        uv, depth = project_points(pose, pose.position + t * forward)
        assert np.allclose(uv[0], pose.principal_point, atol=1e-9)
        assert np.isclose(depth[0], t)


def test_offset_along_right_axis_moves_u_only():
    # Hand-derived pinhole property: a point at depth z offset by delta along
    # the camera's right axis lands at u = c_x + focal * delta / z.
    pose = make_pose([0.0, -1.0, 0.5])
    right, down, forward = camera_axes(pose)
    z, delta = 0.8, 0.13
    point = pose.position + z * forward + delta * right
    uv, depth = project_points(pose, point)
    assert np.isclose(uv[0, 0], pose.principal_point[0] + pose.focal * delta / z, atol=1e-9)
    assert np.isclose(uv[0, 1], pose.principal_point[1], atol=1e-9)

    point = pose.position + z * forward + delta * down
    uv, _ = project_points(pose, point)
    assert np.isclose(uv[0, 1], pose.principal_point[1] + pose.focal * delta / z, atol=1e-9)


def test_projection_linear_in_focal():
    pose_a = make_pose([0.7, 0.2, 0.9], focal=30.0)
    pose_b = make_pose([0.7, 0.2, 0.9], focal=60.0)
    pts = np.array([[0.1, -0.2, 0.0], [0.0, 0.3, 0.1]])
    uv_a, _ = project_points(pose_a, pts)
    uv_b, _ = project_points(pose_b, pts)
    centered_a = uv_a - pose_a.principal_point
    centered_b = uv_b - pose_b.principal_point
    assert np.allclose(centered_b, 2.0 * centered_a, atol=1e-9)


def test_behind_camera_depth_is_negative():
    pose = make_pose([0.0, 0.0, 1.0], up=(0.0, 1.0, 0.0))
    _, depth = project_points(pose, np.array([[0.0, 0.0, 2.0]]))
    assert depth[0] < 0


def test_degenerate_cameras_rejected():
    with pytest.raises(CameraError):
        camera_axes(make_pose([0.0, 0.0, 0.0], look_at=(0.0, 0.0, 0.0)))
    with pytest.raises(CameraError):
        camera_axes(make_pose([0.0, 0.0, 1.0], look_at=(0.0, 0.0, 0.0), up=(0.0, 0.0, 1.0)))


# -- rendering ---------------------------------------------------------------


def reference_frame(scene, pose):
    """One frame painted disc by disc from the renderer's documented
    definition: goal regions, then objects far to near, then the end effector;
    each disc not behind the camera composites over the whole image with
    alpha = clip(radius_px + 0.5 - dist, 0, 1)."""
    h = w = pose.image_size
    img = np.empty((h, w, 3), dtype=np.float32)
    img[:] = np.asarray(BACKGROUND_COLOR, dtype=np.float32)
    ys, xs = np.mgrid[0:h, 0:w]
    groups = (
        [(g.center, g.radius, REGION_COLORS[g.color]) for g in scene.goal_regions],
        [(o.pos, OBJECT_RENDER_RADIUS, OBJECT_COLORS[o.color]) for o in scene.objects],
        [(scene.ee_pos, EE_RENDER_RADIUS, EE_COLOR)],
    )
    for group in groups:
        uv, depth = project_points(pose, np.array([centre for centre, _, _ in group]))
        for i in np.argsort(-depth, kind="stable"):
            if depth[i] <= MIN_RENDER_DEPTH:
                continue
            radius_px = pose.focal * group[i][1] / depth[i]
            dist = np.hypot(xs - uv[i, 0], ys - uv[i, 1])
            alpha = np.clip(radius_px + 0.5 - dist, 0.0, 1.0).astype(np.float32)[..., None]
            img = img * (1.0 - alpha) + alpha * np.asarray(group[i][2], dtype=np.float32)
    return img


def four_task_scenes():
    """One reset per task (t2 has two goal regions, the others one), plus a
    moved copy of each, so disc counts and depth orders differ between rows."""
    scenes = [reset(task, seed) for seed, task in enumerate(make_tasks())]
    rng = np.random.default_rng(17)
    for scene in list(scenes):
        ee_pos = scene.ee_pos + rng.normal(0.0, 0.15, 3)
        objects = [replace(obj, pos=obj.pos + rng.normal(0.0, 0.1, 3)) for obj in scene.objects]
        scenes.append(replace(scene, ee_pos=ee_pos, objects=objects))
    return scenes


def border_scene():
    """Task t0 with its first object projecting half a pixel inside the right
    edge of the top-down camera, so its disc is clipped by the image border."""
    cam = seen_cameras(SIM)[0]
    right, _, forward = camera_axes(cam)
    scene = reset(make_tasks()[0], 0)
    depth = 0.9
    offset = (cam.image_size - 0.5 - cam.principal_point[0]) * depth / cam.focal
    scene.objects[0].pos = cam.position + depth * forward + offset * right
    return scene


def behind_camera():
    """Below the table, facing away from it: every disc is behind it."""
    return make_pose([0.0, 0.0, -1.0], look_at=(0.0, 0.0, -2.0), up=(0.0, 1.0, 0.0))


def near_camera():
    """6 cm above the goal region of task t0 (reset seed 0), whose disc is
    then wider than the whole image."""
    centre = reset(make_tasks()[0], 0).goal_regions[0].center
    return make_pose(centre + [0.0, 0.0, 0.06], look_at=centre, up=(0.0, 1.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "cameras",
    [
        pytest.param(lambda: seen_cameras(SIM), id="seen"),
        pytest.param(lambda: sample_viewpoints("novel_medium", 2, seed=4, sim=SIM), id="novel-medium"),
        pytest.param(lambda: sample_viewpoints("novel_large", 2, seed=4, sim=SIM), id="novel-large"),
        pytest.param(lambda: [behind_camera(), seen_cameras(SIM)[1]], id="behind-camera"),
        pytest.param(lambda: [near_camera(), seen_cameras(SIM)[0]], id="near-camera"),
    ],
)
def test_render_matches_per_frame_reference(cameras):
    cams = cameras()
    scenes = four_task_scenes() + [border_scene()]
    frames = render_image(scenes, cams)
    assert frames.shape == (len(scenes), 2, SIM.image_size, SIM.image_size, 3)
    for b, scene in enumerate(scenes):
        for v, cam in enumerate(cams):
            assert np.array_equal(frames[b, v], reference_frame(scene, cam)), (b, v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_one_render_matches_reference_along_expert_episodes():
    # the rollout case: one scene per call, every scene of one demo per task
    data = generate_dataset(make_tasks(), 1, seed=11, sim=SIM)
    pairs = (sample_viewpoints("novel_medium", 2, seed=11, sim=SIM), [near_camera(), behind_camera()])
    for episode in data.episodes:
        for scene in episode.scenes:
            for cams in pairs:
                frames = render_image([scene], cams)
                for v, cam in enumerate(cams):
                    assert np.array_equal(frames[0, v], reference_frame(scene, cam))


def test_render_paint_position_that_paints_in_no_frame():
    # t2 scenes have one more disc than the others, so the last paint position
    # is padding in every frame of t0; in t2's frame it is the end effector,
    # lifted behind the top-down camera and culled.  That position paints nothing.
    cam = seen_cameras(SIM)[0]
    lifted = replace(reset(make_tasks()[2], 0), ee_pos=cam.position + [0.0, 0.0, 0.5])
    scenes = [reset(make_tasks()[0], 0), lifted, reset(make_tasks()[0], 1)]
    frames = render_image(scenes, [cam])
    for b, scene in enumerate(scenes):
        assert np.array_equal(frames[b, 0], reference_frame(scene, cam)), b
    assert np.array_equal(render_image(scenes[:1], [cam])[0], frames[0])


def test_render_rejects_an_empty_batch():
    with pytest.raises(CameraError, match="at least one scene"):
        render_image([], seen_cameras(SIM))


def test_render_near_camera_disc_covers_image():
    img = render_image([reset(make_tasks()[0], 0)], [near_camera()])[0, 0]
    assert np.all(img != np.asarray(BACKGROUND_COLOR, dtype=np.float32))


def test_render_border_disc_is_clipped():
    cam = seen_cameras(SIM)[0]
    img = render_image([border_scene()], [cam])[0, 0]
    uv, _ = project_points(cam, border_scene().objects[0].pos)
    assert cam.image_size - 1 < uv[0, 0] < cam.image_size
    row = img[int(round(uv[0, 1]))]
    assert row[-1, 0] > 0.5 and row[-1, 1] < 0.3  # red reaches the last column


def test_render_values_and_determinism():
    scene = reset(make_tasks()[0], 0)
    cam = seen_cameras(SIM)[1]
    img1 = render_image([scene], [cam])
    img2 = render_image([scene], [cam])
    assert img1.dtype == np.float32
    assert img1.shape == (1, 1, SIM.image_size, SIM.image_size, 3)
    assert img1.min() >= 0.0 and img1.max() <= 1.0
    assert np.array_equal(img1, img2)


def test_render_golden_hashes():
    scene = reset(make_tasks()[0], 0)
    cams = seen_cameras(SIM)
    for img, expected in zip(render_image([scene], cams)[0], GOLDEN_RENDER_HASHES):
        assert hashlib.sha256(np.ascontiguousarray(img).tobytes()).hexdigest() == expected


def test_render_disc_appears_at_projected_center():
    scene = reset(make_tasks()[0], 3)
    cam = seen_cameras(SIM)[0]  # top-down
    obj = scene.objects[0]
    uv, _ = project_points(cam, obj.pos)
    img = render_image([scene], [cam])[0, 0]
    px = img[int(round(uv[0, 1])), int(round(uv[0, 0]))]
    assert px[0] > 0.5 and px[1] < 0.3  # red-dominant at the red block's pixel


def test_render_culls_behind_camera():
    scene = reset(make_tasks()[0], 0)
    img = render_image([scene], [behind_camera()])[0, 0]
    # everything sits above the camera plane, behind its view: background only
    assert np.allclose(img, img[0, 0], atol=1e-6)


def test_render_rejects_mixed_image_sizes():
    scene = reset(make_tasks()[0], 0)
    with pytest.raises(CameraError, match="image_size"):
        render_image([scene], [make_pose([0.0, -1.0, 0.5], size=32), make_pose([0.0, -1.0, 0.5], size=24)])


# -- viewpoints --------------------------------------------------------------


def test_seen_cameras_fixed_pair():
    cams = seen_cameras(SIM)
    assert len(cams) == 2
    assert np.allclose(cams[0].position, [0.0, 0.0, SIM.camera_radius])
    assert np.isclose(np.linalg.norm(cams[1].position), SIM.camera_radius)
    again = seen_cameras(SIM)
    for a, b in zip(cams, again):
        assert a.same_pose(b)


def test_sample_viewpoints_seen_returns_training_pair():
    cams = sample_viewpoints("seen", 2, seed=123, sim=SIM)
    for a, b in zip(cams, seen_cameras(SIM)):
        assert a.same_pose(b)


def test_sample_viewpoints_deterministic():
    a = sample_viewpoints("novel_medium", 4, seed=9, sim=SIM)
    b = sample_viewpoints("novel_medium", 4, seed=9, sim=SIM)
    for ca, cb in zip(a, b):
        assert ca.same_pose(cb)
    c = sample_viewpoints("novel_medium", 4, seed=10, sim=SIM)
    assert not a[0].same_pose(c[0])


@pytest.mark.parametrize("category", sorted(CATEGORY_BANDS))
def test_sample_viewpoints_offsets_within_band(category):
    lo, hi = CATEGORY_BANDS[category]
    cams = sample_viewpoints(category, 50, seed=5, sim=SIM)
    assert len(cams) == 50
    for cam in cams:
        _, offset = nearest_seen_offset(cam, SIM)
        assert lo - 1e-9 <= offset <= hi + 1e-9
        assert np.isclose(np.linalg.norm(cam.position), SIM.camera_radius)
        assert cam.position[2] > 0.0  # stays above the table


def test_novel_cameras_never_match_training_poses():
    seen = seen_cameras(SIM)
    for category in sorted(CATEGORY_BANDS):
        for cam in sample_viewpoints(category, 10, seed=3, sim=SIM):
            assert not any(cam.same_pose(s) for s in seen)


def test_unknown_category_rejected():
    with pytest.raises(CameraError):
        sample_viewpoints("novel_huge", 2, seed=0, sim=SIM)
