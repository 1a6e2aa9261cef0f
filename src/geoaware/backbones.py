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

A ``GeoBackbone`` is built for the layers the policy selects and computes
only those: ``pyramid_batch`` featurizes a whole batch of scenes under V
cameras at once into [B, V, L_selected, N, D].

Either backbone ends in a trainable conv stage (``pooled_features``); the
policy's one shared projection ``vision.mlp`` follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoaware.errors import ConfigError, ShapeError
from geoaware.deskworld.camera import project_points
from geoaware.numerics import Tensor, conv1d_relu_pool, conv2d, matmul, relu
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

    def validate(self, error=ConfigError):
        """``self`` if it has 2+ layers, positive sizes and a non-negative
        ``lift_seed``; else raises ``error``."""
        if self.num_layers < 2 or self.feature_dim < 1 or self.num_keypoints < 1 or self.lift_seed < 0:
            raise error(f"geo needs num_layers >= 2, feature_dim and num_keypoints >= 1, lift_seed >= 0; got {self}")
        return self

    def alphas(self):
        """Per-layer world-frame mixing weight: 0 at layer 1, 1 at layer M."""
        return np.arange(self.num_layers) / (self.num_layers - 1)


class GeoBackbone:
    """Frozen featurizer for a fixed set of selected layers (1-based picks);
    only those layers' lifts and mixing weights exist.  The lifts are
    regenerated from the seed (layer l's from ``[lift_seed, l - 1]``, so a
    layer is the same whatever else is picked) and never stored in
    checkpoints."""

    def __init__(self, cfg: GeoStubConfig, layers):
        self.cfg = cfg.validate()
        self.layers = list(layers)
        self.alphas = cfg.alphas()[np.array(self.layers) - 1]
        self.lifts = np.stack([
            np.random.default_rng([cfg.lift_seed, l - 1]).standard_normal((RAW_WIDTH, cfg.feature_dim))
            / np.sqrt(RAW_WIDTH)
            for l in self.layers
        ])

    def raw_tokens(self, scenes, cameras):
        """(view tokens [B, V, N, RAW_WIDTH], world tokens [B, N, RAW_WIDTH]).

        Each scene's keypoints are the end effector, its objects, its goal
        regions and the table fiducials, in that order; rows past them are zero.
        """
        b, n = len(scenes), self.cfg.num_keypoints
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
            if k > n:
                raise ShapeError(f"scene has {k} keypoints but the stub is configured for {n}")
            positions[i, :k] = [p for p, _ in keypoints]
            attrs[i, :k] = [ATTRIBUTES.index(c) for _, c in keypoints]
            valid[i, :k] = True
        points = positions[valid]                               # [K_total, 3], scene-major

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

    def pyramid_batch(self, scenes, cameras):
        """Selected layers for all scene/camera combinations:
        [B, V, L_selected, N, D] float64, in pick order."""
        views, worlds = self.raw_tokens(scenes, cameras)
        alphas = self.alphas[:, None, None]                     # [L, 1, 1]
        mixed = (1.0 - alphas) * views[:, :, None] + alphas * worlds[:, None, None]
        return mixed @ self.lifts                               # [B, V, L, N, R] @ [L, R, D]


# -- layer selection ---------------------------------------------------------

SELECT_MODES = ("even", "all", "last")


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
    raise ConfigError(f"unknown layer selection mode {mode!r} (expected {' | '.join(SELECT_MODES)})")


# -- trainable conv stages ---------------------------------------------------

PIXEL_CHANNELS = (8, 16, 32)


def init_pixel_params(store, uniform, lang_embed_dim):
    """Register the pixel encoder's conv stage: 3 strided 3x3 convs and a
    language-conditioned feature-wise modulation of the last feature map.
    ``uniform(shape, fan_in)`` draws each initial value."""
    c_prev = 3
    for i, c in enumerate(PIXEL_CHANNELS, start=1):
        store.add(f"pixel.conv{i}.w", uniform((c, c_prev, 3, 3), c_prev * 9))
        store.add(f"pixel.conv{i}.b", uniform((c,), c_prev * 9))
        c_prev = c
    c_last = PIXEL_CHANNELS[-1]
    dtype = store.add("pixel.film.scale.w", uniform((lang_embed_dim, c_last), lang_embed_dim)).dtype
    # scale bias starts at 1 so modulation begins as identity
    store.add("pixel.film.scale.b", np.ones(c_last, dtype=dtype))
    store.add("pixel.film.shift.w", uniform((lang_embed_dim, c_last), lang_embed_dim))
    store.add("pixel.film.shift.b", np.zeros(c_last, dtype=dtype))


def pooled_vision(selected_layers, store):
    """Conv/relu/pool stage of the geo backbone: [batch, L * conv_dim].

    Layer i of the L layers [batch, tokens, channels] gets its own conv over
    the token axis (``vision.conv{i}``, kernel 3, padded to keep the tokens),
    relu, then the mean over tokens; the L pooled vectors are concatenated in
    layer order.  All of it is the one fused op ``conv1d_relu_pool``.
    """
    conv_dim = store["vision.conv0.w"].shape[0]
    width = store["vision.mlp.1.w"].shape[0]
    if len(selected_layers) * conv_dim != width:
        raise ShapeError(f"expected {width // conv_dim} selected layers, got {len(selected_layers)}")
    return conv1d_relu_pool(
        selected_layers,
        [store[f"vision.conv{i}.w"] for i in range(len(selected_layers))],
        [store[f"vision.conv{i}.b"] for i in range(len(selected_layers))],
    )


def pixel_pooled(images, lang_embed, store):
    """Conv/pool/FiLM stage of the pixel encoder: [B, C_last] pooled features.

    ``lang_embed`` [B, lang_embed_dim] conditions the last conv's per-channel
    scale and shift (FiLM: gamma * h + beta).  The modulation is applied to
    the pooled [B, C] features instead of the [B, C, H, W] map: gamma and
    beta are constant over the map and the global average pool is linear,
    so mean(gamma * h + beta) = gamma * mean(h) + beta.
    """
    h = images if isinstance(images, Tensor) else Tensor(images)
    for i in range(1, len(PIXEL_CHANNELS) + 1):
        h = relu(conv2d(h, store[f"pixel.conv{i}.w"], store[f"pixel.conv{i}.b"], stride=2, padding=1))
    b, c = h.shape[0], h.shape[1]
    pooled = reshape(h, (b, c, h.shape[2] * h.shape[3])).mean(axis=2)    # global average pool
    gamma = matmul(lang_embed, store["pixel.film.scale.w"]) + store["pixel.film.scale.b"]
    beta = matmul(lang_embed, store["pixel.film.shift.w"]) + store["pixel.film.shift.b"]
    return pooled * gamma + beta


def pooled_features(vision, lang_embed, store, backbone_kind):
    """Either backbone's conv stage on ``vision`` [batch, views, ...]: pooled
    features [batch * views, P], row b * views + v for scene b under view v.
    ``geo`` (``pooled_vision``) ignores the language embedding [batch, d];
    ``pixel`` (``pixel_pooled``) is conditioned on it, repeated per view."""
    vision = np.asarray(vision)
    b, views = vision.shape[:2]
    folded = vision.reshape((b * views,) + vision.shape[2:])
    if backbone_kind == "geo":
        return pooled_vision([Tensor(folded[:, l]) for l in range(folded.shape[1])], store)
    d = lang_embed.shape[1]
    per_view = reshape(broadcast_to(reshape(lang_embed, (b, 1, d)), (b, views, d)), (b * views, d))
    return pixel_pooled(Tensor(folded), per_view, store)
