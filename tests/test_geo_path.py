"""The geo featurizer path against the implementation it replaced: keypoint
tokens written through boolean masks, the pyramid mixed and lifted with one
broadcast product per scene, view and layer, and the token conv over a list
of per-layer tensors.  The copies below are those implementations, kept as
references; the current path must equal them bit for bit."""

import numpy as np
import pytest

from geoaware.backbones import (
    _ATTRIBUTE_IDS,
    _FIDUCIAL_IDS,
    _FIDUCIAL_ROWS,
    DEPTH_CLAMP,
    FIDUCIALS,
    RAW_WIDTH,
    pooled_features,
)
from geoaware.deskworld.camera import project_points, sample_viewpoints, seen_cameras
from geoaware.deskworld.dataset import generate_dataset
from geoaware.deskworld.world import make_tasks
from geoaware.errors import ShapeError
from geoaware.numerics import Tensor, conv1d_relu_pool, no_grad
from geoaware.numerics.tensor import as_tensor, make_result
from geoaware.policy import Policy, PolicyConfig

# -- references --------------------------------------------------------------


def reference_raw_tokens(self, scenes, cameras):
    """(view tokens [B, V, N, RAW_WIDTH], world tokens [B, N, RAW_WIDTH]).

    Each scene's keypoints are the end effector, its objects, its goal
    regions and the table fiducials, in that order; rows past them are zero.
    """
    b, n = len(scenes), self.cfg.num_keypoints
    points, attrs, counts = [], [], []                      # keypoints scene-major
    for s in scenes:
        points.append(s.ee_pos)
        attrs.append(_ATTRIBUTE_IDS["ee"])
        for o in s.objects:
            points.append(o.pos)
            attrs.append(_ATTRIBUTE_IDS[o.color])
        for g in s.goal_regions:
            points.append(g.center)
            attrs.append(_ATTRIBUTE_IDS[g.color])
        points += _FIDUCIAL_ROWS
        attrs += _FIDUCIAL_IDS
        counts.append(len(s.objects) + len(s.goal_regions) + 1 + len(FIDUCIALS))
    if max(counts, default=0) > n:
        raise ShapeError(f"scene has {max(counts)} keypoints but the stub is configured for {n}")
    valid = np.arange(n) < np.array(counts)[:, None]       # [B, N]
    points = np.array(points, dtype=float)                  # [K_total, 3]
    attrs = np.array(attrs)

    world = np.zeros((b, n, RAW_WIDTH))
    world[valid, 0:3] = points
    world[valid, 3 + attrs] = 1.0
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


def reference_pyramid_batch(self, scenes, cameras):
    """Selected layers for all scene/camera combinations:
    [B, V, L_selected, N, D] float64, in pick order."""
    views, worlds = reference_raw_tokens(self, scenes, cameras)
    b, v, n, r = views.shape
    alphas = self.alphas[:, None, None]                     # [L, 1, 1]
    mixed = np.empty((b, v, len(self.layers), n, r))
    np.multiply(views[:, :, None], 1.0 - alphas, out=mixed)
    mixed += (alphas * worlds[:, None])[:, None]
    return mixed @ self.lifts                               # [B, V, L, N, R] @ [L, R, D]


def reference_token_taps(x, k):
    """im2col over the token axis with "same" zero padding: [..., N, C] ->
    [..., N, C, k], where tap t of token n reads token n + t - k // 2."""
    n = x.shape[-2]
    cols = np.zeros(x.shape + (k,), dtype=x.dtype)
    for t in range(k):
        d = t - k // 2
        lo, hi = max(0, -d), min(n, n - d)
        cols[..., lo:hi, :, t] = x[..., lo + d : hi + d, :]
    return cols


def reference_token_taps_grad(gcols):
    """Adjoint of ``_token_taps``: scatter [..., N, C, k] tap gradients back
    onto the [..., N, C] input."""
    n, k = gcols.shape[-3], gcols.shape[-1]
    gx = np.zeros(gcols.shape[:-1], dtype=gcols.dtype)
    for t in range(k):
        d = t - k // 2
        lo, hi = max(0, -d), min(n, n - d)
        gx[..., lo + d : hi + d, :] += gcols[..., lo:hi, :, t]
    return gx


def reference_conv1d_relu_pool(layers, kernels, biases):
    """Per-layer conv over tokens, relu, then the mean over tokens: [B, L * C_out].

    ``layers`` are L channels-last tensors [B, N, C_in]; ``kernels`` the L
    matching [C_out, C_in, k] kernels (k odd) and ``biases`` the L [C_out]
    biases.  Layer l's conv is a stride-1 cross-correlation (no kernel flip)
    with ``k // 2`` zeros padded on both ends of the token axis, so the
    output keeps N tokens.  The L layers run as one batched matmul, and the
    output is layer-major: columns [l * C_out, (l + 1) * C_out) are layer l.
    """
    layers = [as_tensor(t) for t in layers]
    kernels = [as_tensor(t) for t in kernels]
    biases = [as_tensor(t) for t in biases]
    if not layers or not len(layers) == len(kernels) == len(biases):
        raise ShapeError(
            f"need one kernel and one bias per layer, got {len(layers)} layers, "
            f"{len(kernels)} kernels and {len(biases)} biases"
        )
    shape = layers[0].shape
    if len(shape) != 3 or any(t.shape != shape for t in layers):
        raise ShapeError(f"layers must be [batch, tokens, channels], all of one shape, got {[t.shape for t in layers]}")
    kshape = kernels[0].shape
    if len(kshape) != 3 or kshape[1] != shape[2] or kshape[2] % 2 == 0 or any(t.shape != kshape for t in kernels):
        raise ShapeError(f"kernels must be [C_out, {shape[2]}, odd k], all of one shape, got {[t.shape for t in kernels]}")
    if any(t.shape != (kshape[0],) for t in biases):
        raise ShapeError(f"biases must all have shape ({kshape[0]},)")
    b, n, c_in = shape
    c_out, _, k = kshape
    n_layers = len(layers)

    cols = reference_token_taps(np.stack([t.values for t in layers]), k).reshape(n_layers, b * n, c_in * k)
    w = np.stack([t.values for t in kernels]).reshape(n_layers, c_out, c_in * k)
    act = cols @ w.transpose(0, 2, 1) + np.stack([t.values for t in biases])[:, None, :]
    np.maximum(act, 0.0, out=act)                                   # relu in place: [L, B*N, C_out]
    pooled = act.reshape(n_layers, b, n, c_out).mean(axis=2)        # [L, B, C_out]
    out_vals = pooled.transpose(1, 0, 2).reshape(b, n_layers * c_out)

    # Where the preactivation was positive; kept as a bool mask so the tape
    # does not hold the float activations.
    active = act > 0.0

    def backward(g):
        gp = g.reshape(b, n_layers, c_out).transpose(1, 0, 2)[:, :, None, :] * (1.0 / n)
        gpre = (active.reshape(n_layers, b, n, c_out) * gp).reshape(n_layers, b * n, c_out)
        grads = [
            (kernels, (gpre.transpose(0, 2, 1) @ cols).reshape(n_layers, c_out, c_in, k)),
            (biases, gpre.sum(axis=1)),
        ]
        if any(t.requires_grad for t in layers):
            grads.append((layers, reference_token_taps_grad((gpre @ w).reshape(n_layers, b, n, c_in, k))))
        for tensors, grad in grads:
            for t, g_t in zip(tensors, grad):
                if t.requires_grad:
                    t._accumulate(g_t)

    return make_result(out_vals, (*layers, *kernels, *biases), backward)


# -- the featurizer ----------------------------------------------------------


@pytest.fixture(scope="module")
def episode_scenes():
    demos = generate_dataset(make_tasks(), 4, seed=5)
    return [scene for episode in demos.episodes for scene in episode.scenes]


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch, category", [(1, "novel_medium"), (64, "seen")])
def test_geo_featurize_is_bitwise_the_reference(episode_scenes, batch, category):
    # a rollout step (one scene, a novel pair) and a training batch (the seen pair)
    pol = Policy(PolicyConfig(), ("lift",), seed=3)
    rng = np.random.default_rng(batch)
    for draw in range(4):
        scenes = [episode_scenes[i] for i in rng.choice(len(episode_scenes), size=batch, replace=False)]
        cams = sample_viewpoints(category, 2, seed=draw)
        vision = pol.featurize(scenes, cams)
        want = reference_pyramid_batch(pol.backbone, scenes, cams).astype(np.float32)
        assert _same_bits(vision, want)
        # the conv stage reads the featurizer's layer-major memory as it is
        layers = vision.transpose(2, 0, 1, 3, 4)
        assert np.shares_memory(layers.reshape(layers.shape[0], -1, *layers.shape[3:]), vision)
        store = pol.params
        with no_grad():
            pooled = pooled_features(vision, None, store, "geo").values
            folded = want.reshape(batch * 2, *want.shape[2:])
            ref = reference_conv1d_relu_pool(
                [folded[:, l] for l in range(folded.shape[1])],
                list(store["vision.conv.w"].values), list(store["vision.conv.b"].values),
            ).values
        assert _same_bits(pooled, ref)


def test_raw_tokens_are_bitwise_the_reference(episode_scenes):
    pol = Policy(PolicyConfig(select_mode="all"), ("lift",), seed=0)
    for batch in (1, 3, 64):
        scenes = episode_scenes[:batch]
        for cams in (seen_cameras(), sample_viewpoints("novel_large", 3, seed=batch)):
            for got, want in zip(pol.backbone.raw_tokens(scenes, cams), reference_raw_tokens(pol.backbone, scenes, cams)):
                assert _same_bits(got, want)


# -- the token conv ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [2, 128])
def test_fused_conv_and_its_gradients_are_bitwise_the_reference(rows, dtype):
    # the policy's sizes: 4 layers of 16 tokens of width 32, 32 channels out
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((4, rows, 16, 32)).astype(dtype)
    kernels = (rng.uniform(-0.1, 0.1, (4, 32, 32, 3))).astype(dtype)
    biases = (rng.uniform(-0.1, 0.1, (4, 32))).astype(dtype)
    probe = rng.standard_normal((rows, 4 * 32)).astype(dtype)

    leaves = [Tensor(a, requires_grad=True) for a in (x, kernels, biases)]
    out = conv1d_relu_pool(*leaves)
    (out * Tensor(probe)).sum().backward()

    ref_leaves = [[Tensor(part, requires_grad=True) for part in a] for a in (x, kernels, biases)]
    ref = reference_conv1d_relu_pool(*ref_leaves)
    (ref * Tensor(probe)).sum().backward()

    assert _same_bits(out.values, ref.values)
    for leaf, parts in zip(leaves, ref_leaves):
        assert _same_bits(leaf.grad, np.stack([t.grad for t in parts]))
