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
cameras at once into [B, V, L_selected, N, D].  ``raw_tokens`` writes every
keypoint through one flat row index into the B * N token rows.  The pyramid
is layer-major: each layer mixes and lifts all B * V * N tokens in one
product, and the [B, V, L, N, D] result is a view of [L, B, V, N, D] memory.

Either backbone ends in a trainable conv stage (``pooled_features``); the
policy's one shared projection ``vision.mlp`` follows it.  Each conv stage
is one tape op.  The geo stage reads the layer-major pyramid as one [L, B *
V, N, D] conv tensor, without a copy, and runs all layers' token convs
(``vision.conv.w`` [L, C_out, D, 3], ``vision.conv.b`` [L, C_out]) as
``conv1d_relu_pool``.  The pixel stage runs its three strided image convs,
their relus and the global mean pool as ``conv2d_relu_pool``; only its
language FiLM runs outside that op, with the scale and shift that
``pixel_film`` computes from the language alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoaware.errors import ConfigError, ShapeError
from geoaware.deskworld.camera import project_points
from geoaware.numerics import Tensor, conv1d_relu_pool, conv2d_relu_pool, matmul
from geoaware.numerics.tensor import broadcast_to, reshape

# Keypoint attribute classes (one-hot in world-frame vectors).
ATTRIBUTES = ("ee", "red", "blue", "green", "yellow", "fiducial")
_ATTRIBUTE_IDS = {name: i for i, name in enumerate(ATTRIBUTES)}
RAW_WIDTH = 3 + len(ATTRIBUTES) + 1     # geometry triple + one-hot + visibility flag
DEPTH_CLAMP = 0.05                      # view-frame depth floor (behind-camera keypoints)

# Fixed table landmarks; they anchor the world frame in every scene.
FIDUCIALS = np.array(
    [[-0.4, -0.4, 0.0], [-0.4, 0.4, 0.0], [0.4, -0.4, 0.0], [0.4, 0.4, 0.0]]
)
_FIDUCIAL_ROWS = list(FIDUCIALS)
_FIDUCIAL_IDS = [_ATTRIBUTE_IDS["fiducial"]] * len(FIDUCIALS)


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
        rows = np.flatnonzero(np.arange(n) < np.array(counts)[:, None])    # each keypoint's row of B * N
        points = np.array(points, dtype=float)                  # [K_total, 3]
        attrs = np.array(attrs)

        world = np.zeros((b * n, RAW_WIDTH))
        world[rows, 0:3] = points
        world[rows, 3 + attrs] = 1.0
        world[rows, -1] = 1.0

        views = np.zeros((len(cameras), b * n, RAW_WIDTH))     # camera-major
        for view, cam in zip(views, cameras):
            uv, depth = project_points(cam, points, min_depth=DEPTH_CLAMP)
            view[rows, 0:2] = uv / float(cam.image_size)
            view[rows, 2] = np.maximum(depth, DEPTH_CLAMP)
            view[rows, -1] = depth > DEPTH_CLAMP
        return views.reshape(len(cameras), b, n, RAW_WIDTH).transpose(1, 0, 2, 3), world.reshape(b, n, RAW_WIDTH)

    def pyramid_batch(self, scenes, cameras):
        """Selected layers for all scene/camera combinations:
        [B, V, L_selected, N, D] float64, in pick order.

        The result is a view of layer-major [L, B, V, N, D] memory: every
        layer mixes and lifts its B * V * N tokens in one [B * V * N, R] @
        [R, D] product."""
        views, worlds = self.raw_tokens(scenes, cameras)
        b, v, n, r = views.shape
        layers = len(self.layers)
        alphas = self.alphas[:, None, None, None, None]         # [L, 1, 1, 1, 1]
        mixed = np.empty((layers, b, v, n, r))
        np.multiply(views, 1.0 - alphas, out=mixed)
        mixed += alphas * worlds[:, None]
        lifted = mixed.reshape(layers, b * v * n, r) @ self.lifts
        return lifted.reshape(layers, b, v, n, -1).transpose(1, 2, 0, 3, 4)


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


def pooled_vision(layers, store):
    """Conv/relu/pool stage of the geo backbone: [rows, L * conv_dim].

    ``layers`` [L, rows, tokens, channels] holds the L selected layers.
    Layer l gets its own conv over the token axis (``vision.conv.w[l]``,
    kernel 3, padded to keep the tokens, and ``vision.conv.b[l]``), relu,
    then the mean over tokens; the L pooled vectors are concatenated in layer
    order.  All of it is the one fused op ``conv1d_relu_pool``, which raises
    ``ShapeError`` unless there is one kernel per layer.
    """
    return conv1d_relu_pool(layers, store["vision.conv.w"], store["vision.conv.b"])


def pixel_film(lang_embed, store, views):
    """The pixel stage's FiLM terms for the language embeddings ``lang_embed``
    [B, d], each repeated for its ``views``: (gamma, beta), the last conv's
    per-channel scale and shift, each [B * views, C_last] with row b * views
    + v for scene b under view v, the row order of ``pooled_features``.
    They depend on the instructions and the parameters only, so a rollout
    computes them once."""
    b, d = lang_embed.shape
    per_view = reshape(broadcast_to(reshape(lang_embed, (b, 1, d)), (b, views, d)), (b * views, d))
    gamma = matmul(per_view, store["pixel.film.scale.w"]) + store["pixel.film.scale.b"]
    beta = matmul(per_view, store["pixel.film.shift.w"]) + store["pixel.film.shift.b"]
    return gamma, beta


def pixel_pooled(images, film, store):
    """Conv/pool/FiLM stage of the pixel encoder: [B, C_last] pooled features.

    ``images`` [B, 3, H, W] pass the stride-2, padding-1 convs ``pixel.conv{i}``
    with their relus and the global average pool as the one op
    ``conv2d_relu_pool``.  ``film`` is one (gamma, beta) row per image
    (``pixel_film``), the last conv's per-channel scale and shift (FiLM:
    gamma * h + beta).  The modulation is applied to the pooled [B, C]
    features instead of the [B, C, H, W] map: gamma and beta are constant
    over the map and the global average pool is linear, so mean(gamma * h +
    beta) = gamma * mean(h) + beta.
    """
    convs = range(1, len(PIXEL_CHANNELS) + 1)
    pooled = conv2d_relu_pool(
        images, [store[f"pixel.conv{i}.w"] for i in convs], [store[f"pixel.conv{i}.b"] for i in convs],
        stride=2, padding=1,
    )
    gamma, beta = film
    return pooled * gamma + beta


def pooled_features(vision, film, store, backbone_kind):
    """Either backbone's conv stage on ``vision`` [batch, views, ...]: pooled
    features [batch * views, P], row b * views + v for scene b under view v.
    ``geo`` (``pooled_vision``) takes no language and ignores ``film``;
    ``pixel`` (``pixel_pooled``) is modulated by ``film``, the per-view FiLM
    terms of ``pixel_film``."""
    vision = np.asarray(vision)
    b, views = vision.shape[:2]
    if backbone_kind == "geo":
        # [B, V, L, N, D] -> [L, B * V, N, D]; no copy for ``pyramid_batch``'s layer-major memory
        layers = vision.transpose(2, 0, 1, 3, 4)
        return pooled_vision(Tensor(layers.reshape((layers.shape[0], b * views) + layers.shape[3:])), store)
    return pixel_pooled(Tensor(vision.reshape((b * views,) + vision.shape[2:])), film, store)
