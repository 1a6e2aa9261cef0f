"""Vision backbones: a frozen multi-layer geometric feature stub and a
trainable pixel CNN baseline.

The geometric stub emulates a pretrained geometry encoder's layer hierarchy
analytically.  Each scene keypoint yields a view-frame vector (pixel
coordinates + depth) and a world-frame vector (position + attribute one-hot);
layer l mixes them as (1 - alpha_l) * view + alpha_l * world with alpha
rising linearly from 0 at the first layer to 1 at the last, then lifts the
mix through a frozen per-layer random linear map.  Deep layers are therefore
exactly view-invariant while early layers are camera-dependent, which is the
property the policy's projection head is meant to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoaware.errors import ConfigError, ShapeError
from geoaware.deskworld.camera import CameraPose, project_points
from geoaware.deskworld.world import SceneState
from geoaware.numerics import Tensor, conv2d, matmul, relu
from geoaware.numerics.tensor import broadcast_to, reshape

# Keypoint attribute classes (one-hot in world-frame vectors).
ATTRIBUTES = ("ee", "red", "blue", "green", "yellow", "fiducial")
RAW_WIDTH = 3 + len(ATTRIBUTES) + 1     # geometry triple + one-hot + visibility flag
DEPTH_CLAMP = 0.05                      # view-frame depth floor (behind-camera keypoints)

# Fixed table landmarks; they anchor the world frame in every scene.
FIDUCIALS = np.array(
    [[-0.4, -0.4, 0.0], [-0.4, 0.4, 0.0], [0.4, -0.4, 0.0], [0.4, 0.4, 0.0]]
)


@dataclass
class GeoStubConfig:
    num_layers: int = 12            # M: depth of the emulated feature hierarchy
    feature_dim: int = 32           # width of lifted tokens
    num_keypoints: int = 16         # tokens per layer (zero-padded)
    lift_seed: int = 7              # seeds the frozen lift matrices

    def alphas(self):
        """Per-layer world-frame mixing weight: 0 at layer 1, 1 at layer M."""
        m = self.num_layers
        if m < 2:
            raise ConfigError("geometric stub needs at least 2 layers")
        return np.arange(m) / (m - 1)


@dataclass
class FeaturePyramid:
    """Per-layer token features [num_keypoints, feature_dim] for one view."""

    layers: list
    view_index: int


class GeoBackbone:
    """Frozen featurizer; its lift matrices are regenerated from the seed and
    never stored in checkpoints."""

    def __init__(self, cfg: GeoStubConfig | None = None):
        self.cfg = cfg or GeoStubConfig()
        m, d = self.cfg.num_layers, self.cfg.feature_dim
        lifts = np.empty((m, RAW_WIDTH, d))
        for l in range(m):
            rng = np.random.default_rng([self.cfg.lift_seed, l])
            lifts[l] = rng.standard_normal((RAW_WIDTH, d)) / np.sqrt(RAW_WIDTH)
        self.lifts = lifts
        self._alphas = self.cfg.alphas()

    def _keypoints(self, scene: SceneState):
        """(positions [K, 3], attribute indices [K]) for one scene."""
        positions = [scene.ee_pos]
        attrs = [ATTRIBUTES.index("ee")]
        for o in scene.objects:
            positions.append(o.pos)
            attrs.append(ATTRIBUTES.index(o.color))
        for g in scene.goal_regions:
            positions.append(g.center)
            attrs.append(ATTRIBUTES.index(g.color))
        for f in FIDUCIALS:
            positions.append(f)
            attrs.append(ATTRIBUTES.index("fiducial"))
        if len(positions) > self.cfg.num_keypoints:
            raise ShapeError(
                f"scene has {len(positions)} keypoints but the stub is configured for {self.cfg.num_keypoints}"
            )
        return np.array(positions), np.array(attrs)

    def raw_tokens(self, scene: SceneState, camera: CameraPose):
        """(view tokens [N, RAW_WIDTH], world tokens [N, RAW_WIDTH]), zero-padded."""
        n = self.cfg.num_keypoints
        positions, attrs = self._keypoints(scene)
        k = len(positions)
        view = np.zeros((n, RAW_WIDTH))
        world = np.zeros((n, RAW_WIDTH))

        uv, depth = project_points(camera, positions, min_depth=DEPTH_CLAMP)
        size = float(camera.image_size)
        view[:k, 0] = uv[:, 0] / size
        view[:k, 1] = uv[:, 1] / size
        view[:k, 2] = np.maximum(depth, DEPTH_CLAMP)
        view[:k, -1] = (depth > DEPTH_CLAMP).astype(float)

        world[:k, 0:3] = positions
        world[np.arange(k), 3 + attrs] = 1.0
        world[:k, -1] = 1.0
        return view, world

    def features(self, scene: SceneState, camera: CameraPose, view_index=0) -> FeaturePyramid:
        """The full frozen pyramid for one scene under one camera."""
        stack = self.pyramid_batch([scene], [camera])[0, 0]
        return FeaturePyramid(layers=[stack[l] for l in range(self.cfg.num_layers)], view_index=view_index)

    def pyramid_batch(self, scenes, cameras):
        """Pyramids for all scene/camera combinations: [B, V, M, N, D] float64."""
        b, v = len(scenes), len(cameras)
        n = self.cfg.num_keypoints
        views = np.zeros((b, v, n, RAW_WIDTH))
        worlds = np.zeros((b, n, RAW_WIDTH))
        for i, scene in enumerate(scenes):
            for j, cam in enumerate(cameras):
                view, world = self.raw_tokens(scene, cam)
                views[i, j] = view
                worlds[i] = world
        alphas = self._alphas[:, None, None]                    # [M, 1, 1]
        mixed = (1.0 - alphas) * views[:, :, None] + alphas * worlds[:, None, None]
        return np.einsum("bvmnr,mrd->bvmnd", mixed, self.lifts)


# -- layer selection ---------------------------------------------------------


def select_layer_indices(num_layers, mode, count):
    """1-based layer picks for a selection mode.

    ``even``: floor((i+1) * M / (L+1)) for i in 0..L-1, nudged to be strictly
    increasing (evenly spaced through the hierarchy).  ``last``: the deepest
    L layers.  ``all``: every layer.
    """
    m = int(num_layers)
    if mode == "all":
        return list(range(1, m + 1))
    count = int(count)
    if count < 1 or count > m:
        raise ConfigError(f"cannot select {count} layers out of {m}")
    if mode == "last":
        return list(range(m - count + 1, m + 1))
    if mode == "even":
        picks = []
        for i in range(count):
            idx = ((i + 1) * m) // (count + 1)
            idx = max(idx, picks[-1] + 1 if picks else 1)
            picks.append(idx)
        if picks[-1] > m:
            raise ConfigError(f"cannot spread {count} selections over {m} layers")
        return picks
    raise ConfigError(f"unknown layer selection mode {mode!r} (expected even | all | last)")


def select_layers(pyramid: FeaturePyramid, mode, count):
    idx = select_layer_indices(len(pyramid.layers), mode, count)
    return [pyramid.layers[i - 1] for i in idx]


# -- pixel baseline ----------------------------------------------------------

PIXEL_CHANNELS = (8, 16, 32)


def init_pixel_params(store, rng, lang_embed_dim, repr_dim, dtype=np.float64):
    """Register the pixel encoder: 3 strided 3x3 convs, a language-conditioned
    feature-wise modulation on the last feature map, and a head MLP."""

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    c_prev = 3
    for i, c in enumerate(PIXEL_CHANNELS, start=1):
        store.add(f"pixel.conv{i}.w", uniform((c, c_prev, 3, 3), c_prev * 9))
        store.add(f"pixel.conv{i}.b", uniform((c,), c_prev * 9))
        c_prev = c
    c_last = PIXEL_CHANNELS[-1]
    store.add("pixel.film.scale.w", uniform((lang_embed_dim, c_last), lang_embed_dim))
    # scale bias starts at 1 so modulation begins as identity
    store.add("pixel.film.scale.b", np.ones(c_last, dtype=dtype))
    store.add("pixel.film.shift.w", uniform((lang_embed_dim, c_last), lang_embed_dim))
    store.add("pixel.film.shift.b", np.zeros(c_last, dtype=dtype))
    store.add("pixel.head.w1", uniform((c_last, repr_dim), c_last))
    store.add("pixel.head.b1", uniform((repr_dim,), c_last))
    store.add("pixel.head.w2", uniform((repr_dim, repr_dim), repr_dim))
    store.add("pixel.head.b2", uniform((repr_dim,), repr_dim))


def pixel_pooled(images, lang_embed, store):
    """Conv/FiLM/pool stage of the pixel encoder: [B, C_last] pooled features.

    ``lang_embed`` [B, lang_embed_dim] conditions the last conv's per-channel
    scale and shift (gamma * h + beta).
    """
    h = images if isinstance(images, Tensor) else Tensor(images)
    for i in range(1, len(PIXEL_CHANNELS) + 1):
        h = relu(conv2d(h, store[f"pixel.conv{i}.w"], store[f"pixel.conv{i}.b"], stride=2, padding=1))
    gamma = matmul(lang_embed, store["pixel.film.scale.w"]) + store["pixel.film.scale.b"]
    beta = matmul(lang_embed, store["pixel.film.shift.w"]) + store["pixel.film.shift.b"]
    b, c = h.shape[0], h.shape[1]
    gamma = reshape(gamma, (b, c, 1, 1))
    beta = reshape(beta, (b, c, 1, 1))
    h = h * broadcast_to(gamma, h.shape) + broadcast_to(beta, h.shape)
    return reshape(h, (b, c, h.shape[2] * h.shape[3])).mean(axis=2)     # global average pool


def pixel_features(images, lang_embed, store):
    """Encode [B, 3, H, W] images into [B, repr_dim] embeddings: the pooled
    conv/FiLM features pushed through the 2-layer head MLP."""
    pooled = pixel_pooled(images, lang_embed, store)
    hidden = relu(matmul(pooled, store["pixel.head.w1"]) + store["pixel.head.b1"])
    return matmul(hidden, store["pixel.head.w2"]) + store["pixel.head.b2"]
