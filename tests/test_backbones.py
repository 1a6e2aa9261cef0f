"""Frozen geometric stub and pixel encoder behavior."""

from dataclasses import replace

import numpy as np
import pytest

from geoaware.backbones import (
    ATTRIBUTES,
    DEPTH_CLAMP,
    FIDUCIALS,
    PIXEL_CHANNELS,
    RAW_WIDTH,
    GeoBackbone,
    GeoStubConfig,
    init_pixel_params,
    pixel_film,
    pixel_pooled,
    pooled_features,
    select_layer_indices,
)
from geoaware.deskworld.camera import project_points, sample_viewpoints, seen_cameras
from geoaware.deskworld.world import SimConfig, action_vector, make_tasks, reset, step
from geoaware.errors import ConfigError, FormatError, ShapeError
from geoaware.numerics import ParamStore, Tensor, grad_check


def _scenes_and_cameras(n_scenes=4, n_cameras=4):
    # tasks t0, t1, t3 have 8 keypoints and t2 has 9, so any 3+ scenes mix both
    sim = SimConfig()
    tasks = make_tasks()
    scenes = [reset(tasks[i % len(tasks)], seed=i) for i in range(n_scenes)]
    cams = list(seen_cameras(sim))
    cams += sample_viewpoints("novel_medium", max(0, n_cameras - 2), seed=11, sim=sim)
    return scenes, cams[:n_cameras]


def _full(geo=None):
    """A backbone that lifts every layer of the pyramid."""
    geo = geo or GeoStubConfig()
    return GeoBackbone(geo, range(1, geo.num_layers + 1))


def _keypoint_count(scene):
    return 1 + len(scene.objects) + len(scene.goal_regions) + 4


def test_last_layer_is_view_invariant():
    backbone = _full()
    scenes, cams = _scenes_and_cameras(n_scenes=6, n_cameras=6)
    stack = backbone.pyramid_batch(scenes, cams)        # [B, V, M, N, D]
    last = stack[:, :, -1]
    spread = np.abs(last - last[:, :1]).max()
    assert spread <= 1e-9


def test_first_layer_depends_on_view():
    backbone = _full()
    scenes, cams = _scenes_and_cameras(n_scenes=4, n_cameras=4)
    stack = backbone.pyramid_batch(scenes, cams)
    first = stack[:, :, 0]
    for j in range(1, first.shape[1]):
        assert np.abs(first[:, j] - first[:, 0]).max() > 1e-3


def test_mixing_weights_are_linear_ramp():
    alphas = GeoStubConfig().alphas()
    assert alphas[0] == 0.0
    assert alphas[-1] == 1.0
    assert np.allclose(np.diff(alphas), 1.0 / 11.0)


@pytest.mark.parametrize(
    "field, value", [("num_layers", 1), ("feature_dim", 0), ("num_keypoints", 0), ("lift_seed", -1)]
)
def test_stub_config_rejects_degenerate_sizes(field, value):
    cfg = replace(GeoStubConfig(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()
    with pytest.raises(FormatError):
        cfg.validate(FormatError)
    with pytest.raises(ConfigError):
        GeoBackbone(cfg, [1])


def test_intermediate_layer_is_convex_mix():
    # Token at layer l must equal the lift of (1-a)*view + a*world exactly,
    # for every scene and camera of the batch.
    backbone = _full()
    scenes, cams = _scenes_and_cameras(n_scenes=3, n_cameras=3)
    views, worlds = backbone.raw_tokens(scenes, cams)
    stack = backbone.pyramid_batch(scenes, cams)
    for b in range(len(scenes)):
        for v in range(len(cams)):
            for l in (0, 5, 11):
                a = l / 11.0
                expected = ((1 - a) * views[b, v] + a * worlds[b]) @ backbone.lifts[l]
                assert np.allclose(stack[b, v, l], expected, atol=1e-12)


def test_pyramid_batch_matches_its_einsum_definition():
    # [B, V, L, N, D]: layer l of scene b under camera v lifts the l-th mix
    backbone = GeoBackbone(GeoStubConfig(), [1, 4, 8, 12])
    scenes, cams = _scenes_and_cameras(n_scenes=5, n_cameras=3)
    views, worlds = backbone.raw_tokens(scenes, cams)
    a = backbone.alphas
    mixed = np.einsum("m,bvnr->bvmnr", 1.0 - a, views) + np.einsum("m,bnr->bmnr", a, worlds)[:, None]
    expected = np.einsum("bvmnr,mrd->bvmnd", mixed, backbone.lifts)
    stack = backbone.pyramid_batch(scenes, cams)
    assert stack.dtype == np.float64 and stack.shape == expected.shape == (5, 3, 4, 16, 32)
    assert np.abs(stack - expected).max() <= 1e-12


def _reference_raw_tokens(backbone, scenes, cameras):
    """raw_tokens built scene by scene from (position, colour) keypoint lists."""
    b, n = len(scenes), backbone.cfg.num_keypoints
    positions = np.zeros((b, n, 3))
    attrs = np.zeros((b, n), dtype=int)
    valid = np.zeros((b, n), dtype=bool)
    for i, scene in enumerate(scenes):
        keypoints = [
            (scene.ee_pos, "ee"),
            *((o.pos, o.color) for o in scene.objects),
            *((g.center, g.color) for g in scene.goal_regions),
            *((f, "fiducial") for f in FIDUCIALS),
        ]
        k = len(keypoints)
        positions[i, :k] = [p for p, _ in keypoints]
        attrs[i, :k] = [ATTRIBUTES.index(c) for _, c in keypoints]
        valid[i, :k] = True
    points = positions[valid]

    world = np.zeros((b, n, RAW_WIDTH))
    world[valid, 0:3] = points
    world[valid, 3 + attrs[valid]] = 1.0
    world[valid, -1] = 1.0

    views = np.zeros((b, len(cameras), n, RAW_WIDTH))
    for j, cam in enumerate(cameras):
        uv, depth = project_points(cam, points, min_depth=DEPTH_CLAMP)
        size = float(cam.image_size)
        view = views[:, j]
        view[valid, 0] = uv[:, 0] / size
        view[valid, 1] = uv[:, 1] / size
        view[valid, 2] = np.maximum(depth, DEPTH_CLAMP)
        view[valid, -1] = (depth > DEPTH_CLAMP).astype(float)
    return views, world


@pytest.mark.parametrize("n_scenes", [1, 7])
def test_raw_tokens_matches_per_scene_reference(n_scenes):
    backbone = _full()
    scenes, cams = _scenes_and_cameras(n_scenes=n_scenes, n_cameras=3)
    if n_scenes > 1:
        assert {_keypoint_count(s) for s in scenes} == {8, 9}
    for got, want in zip(backbone.raw_tokens(scenes, cams), _reference_raw_tokens(backbone, scenes, cams)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pyramid_batch_is_bitwise_the_broadcast_mix():
    backbone = GeoBackbone(GeoStubConfig(), [1, 4, 8, 12])
    scenes, cams = _scenes_and_cameras(n_scenes=5, n_cameras=3)
    views, worlds = backbone.raw_tokens(scenes, cams)
    alphas = backbone.alphas[:, None, None]
    mixed = (1.0 - alphas) * views[:, :, None] + alphas * worlds[:, None, None]
    assert backbone.pyramid_batch(scenes, cams).tobytes() == (mixed @ backbone.lifts).tobytes()


def test_raw_token_layout():
    backbone = _full()
    sim = SimConfig()
    tasks = make_tasks()
    scenes = [reset(tasks[0], seed=3), reset(tasks[2], seed=3)]
    views, worlds = backbone.raw_tokens(scenes, seen_cameras(sim))
    assert views.shape == (2, 2, 16, RAW_WIDTH)
    assert worlds.shape == (2, 16, RAW_WIDTH)
    assert [_keypoint_count(s) for s in scenes] == [8, 9]
    for scene, view_pair, world in zip(scenes, views, worlds):
        n_real = _keypoint_count(scene)
        # world rows: position then one-hot then presence flag
        assert np.allclose(world[0, 0:3], scene.ee_pos)
        assert world[0, 3 + ATTRIBUTES.index("ee")] == 1.0
        assert world[1, 3 + ATTRIBUTES.index(scene.objects[0].color)] == 1.0
        assert world[n_real - 1, 3 + ATTRIBUTES.index("fiducial")] == 1.0
        assert np.all(world[:n_real, -1] == 1.0)
        assert np.all(world[n_real:] == 0.0)
        for view in view_pair:
            assert np.all(view[n_real:] == 0.0)
            # view rows carry normalized pixels and positive depth for a seen camera
            assert np.all(view[:n_real, 2] >= DEPTH_CLAMP)
            assert np.all(view[:n_real, -1] == 1.0)


@pytest.mark.parametrize("mode", ["even", "last", "all"])
def test_selected_layers_match_full_pyramid(mode):
    # Lifting only the picked layers, for a whole batch at once, gives the
    # full pyramid's rows for those layers bit for bit, and each batch row
    # equals the scene featurized alone.
    geo = GeoStubConfig()
    picks = select_layer_indices(geo.num_layers, mode, 4)
    scenes, cams = _scenes_and_cameras(n_scenes=6, n_cameras=4)
    assert {_keypoint_count(s) for s in scenes} == {8, 9}
    picked = GeoBackbone(geo, picks).pyramid_batch(scenes, cams)
    full = _full(geo).pyramid_batch(scenes, cams)
    assert picked.shape == (6, 4, len(picks), geo.num_keypoints, geo.feature_dim)
    assert np.array_equal(picked, full[:, :, np.array(picks) - 1])
    for b, scene in enumerate(scenes):
        assert np.array_equal(GeoBackbone(geo, picks).pyramid_batch([scene], cams)[0], picked[b])


def test_lifts_are_deterministic():
    a, b = _full(), _full()
    assert np.array_equal(a.lifts, b.lifts)
    c = _full(GeoStubConfig(lift_seed=8))
    assert not np.array_equal(a.lifts, c.lifts)
    # a layer's lift does not depend on which other layers are picked
    assert np.array_equal(GeoBackbone(GeoStubConfig(), [3, 7]).lifts, a.lifts[[2, 6]])


def test_world_tokens_track_object_motion():
    backbone = _full()
    sim = SimConfig()
    task = make_tasks()[0]
    scene = reset(task, seed=0)
    cam = seen_cameras(sim)[0]
    after_scene = step(scene, action_vector([0.05, 0.0, 0.0]), sim)
    before, after = backbone.raw_tokens([scene, after_scene], [cam])[1]
    assert after[0, 0] == pytest.approx(before[0, 0] + 0.05)
    assert np.array_equal(before[1:], after[1:])        # objects did not move


def test_too_many_keypoints_rejected():
    backbone = _full(GeoStubConfig(num_keypoints=4))
    sim = SimConfig()
    scene = reset(make_tasks()[0], seed=0)
    with pytest.raises(ShapeError):
        backbone.raw_tokens([scene], seen_cameras(sim))
    with pytest.raises(ShapeError):
        backbone.pyramid_batch([scene], seen_cameras(sim))


# -- layer selection ---------------------------------------------------------


def test_even_selection_worked_example():
    assert select_layer_indices(12, "even", 4) == [2, 4, 7, 9]


def test_last_selection_worked_example():
    assert select_layer_indices(12, "last", 4) == [9, 10, 11, 12]


def test_all_selection():
    assert select_layer_indices(12, "all", 0) == list(range(1, 13))


def test_even_selection_is_strictly_increasing():
    for m in range(2, 16):
        for count in range(1, m + 1):
            picks = select_layer_indices(m, "even", count)
            assert len(picks) == count
            assert all(b > a for a, b in zip(picks, picks[1:]))
            assert 1 <= picks[0] and picks[-1] <= m


def test_selection_errors():
    with pytest.raises(ConfigError):
        select_layer_indices(12, "even", 13)
    with pytest.raises(ConfigError):
        select_layer_indices(12, "even", 0)
    with pytest.raises(ConfigError):
        select_layer_indices(12, "striped", 4)


def test_select_layers_returns_requested_slices():
    geo = GeoStubConfig()
    scenes, cams = _scenes_and_cameras(n_scenes=1, n_cameras=1)
    picked = GeoBackbone(geo, select_layer_indices(12, "even", 4)).pyramid_batch(scenes, cams)
    full = _full(geo).pyramid_batch(scenes, cams)
    assert picked.shape[2] == 4
    assert np.array_equal(picked[:, :, 0], full[:, :, 1])
    assert np.array_equal(picked[:, :, 3], full[:, :, 8])


# -- pixel encoder -----------------------------------------------------------


def _pixel_store(seed=0, lang_dim=6):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    init_pixel_params(store, lambda shape, fan_in: rng.uniform(-1.0, 1.0, shape) / np.sqrt(fan_in), lang_dim)
    return store


def test_pixel_pooled_shape():
    store = _pixel_store()
    images = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 3, 32, 32)))
    lang = Tensor(np.random.default_rng(1).standard_normal((3, 6)))
    out = pixel_pooled(images, pixel_film(lang, store, 1), store)
    assert out.shape == (3, PIXEL_CHANNELS[-1])
    assert np.all(np.isfinite(out.values))
    assert not any(name.startswith("vision.") for name in store.names())   # the projection is the policy's


def test_pooled_features_fold_views_into_the_batch():
    # row b * views + v of the folded pass is scene b under view v alone
    store = _pixel_store()
    rng = np.random.default_rng(6)
    images = rng.uniform(0, 1, (2, 3, 3, 16, 16))
    lang = rng.standard_normal((2, 6))
    folded = pooled_features(images, pixel_film(Tensor(lang), store, 3), store, "pixel").values
    assert folded.shape == (6, PIXEL_CHANNELS[-1])
    for row in range(6):
        b, v = divmod(row, 3)
        alone = pixel_pooled(Tensor(images[b, v][None]), pixel_film(Tensor(lang[b][None]), store, 1), store).values
        np.testing.assert_allclose(folded[row], alone[0], rtol=1e-12, atol=1e-12)


def test_film_identity_at_init_bias():
    # With zeroed modulation weights the init biases give gamma=1, beta=0,
    # so conditioning must be a no-op.
    store = _pixel_store()
    store["pixel.film.scale.w"].values[:] = 0.0
    store["pixel.film.shift.w"].values[:] = 0.0
    rng = np.random.default_rng(2)
    images = Tensor(rng.uniform(0, 1, (2, 3, 16, 16)))
    out_a = pixel_pooled(images, pixel_film(Tensor(rng.standard_normal((2, 6))), store, 1), store)
    out_b = pixel_pooled(images, pixel_film(Tensor(rng.standard_normal((2, 6))), store, 1), store)
    assert np.array_equal(out_a.values, out_b.values)


def test_film_modulates_output():
    store = _pixel_store()
    rng = np.random.default_rng(3)
    images = Tensor(rng.uniform(0, 1, (2, 3, 16, 16)))
    out_a = pixel_pooled(images, pixel_film(Tensor(rng.standard_normal((2, 6))), store, 1), store)
    out_b = pixel_pooled(images, pixel_film(Tensor(rng.standard_normal((2, 6))), store, 1), store)
    assert np.abs(out_a.values - out_b.values).max() > 1e-6


def reference_conv2d(x, kernels, bias, stride=2, padding=1):
    """Cross-correlation from its definition, one output position at a time:
    out[n, o, i, j] = bias[o] + the window at (i * stride, j * stride) of the
    zero-padded x, times kernels[o]."""
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = (xp.shape[2] - kh) // stride + 1, (xp.shape[3] - kw) // stride + 1
    out = np.empty((x.shape[0], c_out, h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            window = xp[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,ochw->no", window, kernels) + bias
    return out


def test_pixel_pooled_equals_film_on_the_map_then_pool():
    # FiLM's definition: modulate every position of the last map, then pool
    store = _pixel_store(seed=7)
    rng = np.random.default_rng(8)
    images, lang = rng.uniform(0, 1, (3, 3, 16, 16)), rng.standard_normal((3, 6))
    h = images
    for i in range(1, len(PIXEL_CHANNELS) + 1):
        h = np.maximum(reference_conv2d(h, store[f"pixel.conv{i}.w"].values, store[f"pixel.conv{i}.b"].values), 0.0)
    gamma = lang @ store["pixel.film.scale.w"].values + store["pixel.film.scale.b"].values
    beta = lang @ store["pixel.film.shift.w"].values + store["pixel.film.shift.b"].values
    expected = (gamma[:, :, None, None] * h + beta[:, :, None, None]).mean(axis=(2, 3))
    got = pixel_pooled(Tensor(images), pixel_film(Tensor(lang), store, 1), store).values
    assert got.dtype == np.float64
    assert np.abs(got - expected).max() <= 1e-12


def test_pixel_encoder_gradients():
    store = _pixel_store(seed=4, lang_dim=4)
    rng = np.random.default_rng(5)
    images = rng.uniform(0, 1, (2, 3, 8, 8))
    lang = rng.standard_normal((2, 4))

    def f(leaves):
        img, conv_w, gamma_w = leaves
        saved_cw = store["pixel.conv3.w"]
        saved_gw = store["pixel.film.scale.w"]
        store._entries["pixel.conv3.w"] = conv_w
        store._entries["pixel.film.scale.w"] = gamma_w
        try:
            out = pixel_pooled(img, pixel_film(Tensor(lang), store, 1), store)
        finally:
            store._entries["pixel.conv3.w"] = saved_cw
            store._entries["pixel.film.scale.w"] = saved_gw
        return (out * out).sum() * (1.0 / out.size)

    err = grad_check(
        f,
        [images, store["pixel.conv3.w"].values.copy(), store["pixel.film.scale.w"].values.copy()],
    )
    assert err <= 1e-4
