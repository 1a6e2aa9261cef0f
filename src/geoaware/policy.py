"""The policy network: projection over selected geometric layers (or the
pixel baseline), language and proprioception encoders, a small causal
decoder-only trunk with a learnable action token, and two interchangeable
action heads (direct MLP regression, or discrete code classification with a
continuous offset on top of a learned action codebook).

All parameters live in one ParamStore under dotted names; the creation order
inside ``init_policy_params`` is fixed so a single seeded generator
reproduces initialization bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoaware.backbones import (
    GeoBackbone,
    GeoStubConfig,
    init_pixel_params,
    pixel_features,
    select_layer_indices,
)
from geoaware.deskworld.camera import render_image
from geoaware.errors import ConfigError, ShapeError, StateError, VocabularyError
from geoaware.numerics import (
    ParamStore,
    Tensor,
    conv1d_relu_pool,
    cross_entropy,
    embedding_lookup,
    layer_norm,
    matmul,
    mse_loss,
    no_grad,
    relu,
    softmax,
)
from geoaware.numerics.tensor import as_tensor, broadcast_to, concat, reshape, transpose

ACTION_WIDTH = 7                # ee translation 3 + rotation 3 + gripper
ATTENTION_MASK_FILL = -1e30     # additive mask; exp underflows to exactly 0
LANG_TABLE_SEED = 977           # the frozen instruction table is policy-seed independent


@dataclass
class PolicyConfig:
    repr_dim: int = 64          # token width before the trunk
    conv_dim: int = 32          # per-layer conv channels in the vision projection
    hidden_dim: int = 64        # trunk width
    lang_embed_dim: int = 32    # frozen instruction table width
    chunk_len: int = 1          # actions predicted per forward pass
    select_count: int = 4       # layers drawn from the geometric pyramid
    select_mode: str = "even"   # even | all | last
    trunk_layers: int = 2
    trunk_heads: int = 4
    head_kind: str = "mlp"      # mlp | vqbet
    backbone_kind: str = "geo"  # geo | pixel
    views: int = 2
    vq_codes: int = 32          # K
    vq_dim: int = 8             # code width
    vq_hidden: int = 32         # action autoencoder hidden width
    commitment_beta: float = 0.25
    offset_weight: float = 10.0

    @property
    def act_dim(self):
        return ACTION_WIDTH * self.chunk_len

    @property
    def n_tokens(self):
        return self.views + 3   # per-view vision, language, proprio, action

    def validate(self, geo: GeoStubConfig | None = None):
        if self.hidden_dim % self.trunk_heads:
            raise ConfigError("hidden_dim must be divisible by trunk_heads")
        if self.head_kind not in ("mlp", "vqbet"):
            raise ConfigError(f"unknown head_kind {self.head_kind!r}")
        if self.backbone_kind not in ("geo", "pixel"):
            raise ConfigError(f"unknown backbone_kind {self.backbone_kind!r}")
        if self.views < 1 or self.chunk_len < 1:
            raise ConfigError("views and chunk_len must be positive")
        if self.vq_codes < 2:
            raise ConfigError("the codebook needs at least 2 codes")
        if geo is not None and self.backbone_kind == "geo":
            # mode=all ignores the count; the others must fit the pyramid
            select_layer_indices(geo.num_layers, self.select_mode, self.select_count)
        return self


def language_table(vocab, lang_embed_dim, dtype=np.float64):
    """Frozen per-instruction embeddings; a stand-in for a pretrained sentence
    encoder, so the table depends only on the vocabulary, never on the policy seed."""
    rng = np.random.default_rng([LANG_TABLE_SEED, len(vocab)])
    return rng.standard_normal((len(vocab), lang_embed_dim)).astype(dtype)


def init_policy_params(store, cfg: PolicyConfig, vocab, seed, backbone: GeoBackbone | None = None, dtype=np.float32):
    """Register every parameter in a fixed creation order.

    Order: vision projection (or pixel encoder), language table + MLP,
    proprio MLP, action/positional tokens, adapter (when widths differ),
    trunk blocks, head.  The language table is frozen at creation.  The geo
    projection gets one conv per layer ``backbone`` selects.
    """
    if not vocab:
        raise ConfigError("vocabulary must not be empty")
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    def linear(prefix, d_in, d_out):
        store.add(f"{prefix}.w", uniform((d_in, d_out), d_in))
        store.add(f"{prefix}.b", uniform((d_out,), d_in))

    d, h = cfg.repr_dim, cfg.hidden_dim
    if cfg.backbone_kind == "geo":
        slots, width = len(backbone.layers), backbone.cfg.feature_dim
        for i in range(slots):
            store.add(f"vision.conv{i}.w", uniform((cfg.conv_dim, width, 3), width * 3))
            store.add(f"vision.conv{i}.b", uniform((cfg.conv_dim,), width * 3))
        linear("vision.mlp.1", slots * cfg.conv_dim, d)
        linear("vision.mlp.2", d, d)
    else:
        init_pixel_params(store, rng, lang_embed_dim=d, repr_dim=d, dtype=dtype)

    store.add("lang.table", language_table(vocab, cfg.lang_embed_dim, dtype), frozen=True)
    linear("lang.mlp.1", cfg.lang_embed_dim, d)
    linear("lang.mlp.2", d, d)
    linear("proprio.1", ACTION_WIDTH, d)
    linear("proprio.2", d, d)

    store.add("token.action", rng.normal(0.0, 0.02, size=(d,)).astype(dtype))
    store.add("token.pos", rng.normal(0.0, 0.02, size=(cfg.n_tokens, d)).astype(dtype))
    if d != h:
        linear("adapter", d, h)

    for b in range(cfg.trunk_layers):
        p = f"trunk{b}"
        store.add(f"{p}.ln1.g", np.ones(h, dtype=dtype))
        store.add(f"{p}.ln1.b", np.zeros(h, dtype=dtype))
        for name in ("q", "k", "v", "o"):
            linear(f"{p}.attn.{name}", h, h)
        store.add(f"{p}.ln2.g", np.ones(h, dtype=dtype))
        store.add(f"{p}.ln2.b", np.zeros(h, dtype=dtype))
        linear(f"{p}.ff.1", h, 4 * h)
        linear(f"{p}.ff.2", 4 * h, h)

    if cfg.head_kind == "mlp":
        linear("head.1", h, h)
        linear("head.2", h, cfg.act_dim)
    else:
        linear("vq.enc.1", cfg.act_dim, cfg.vq_hidden)
        linear("vq.enc.2", cfg.vq_hidden, cfg.vq_dim)
        linear("vq.dec.1", cfg.vq_dim, cfg.vq_hidden)
        linear("vq.dec.2", cfg.vq_hidden, cfg.act_dim)
        store.add("vq.codes", uniform((cfg.vq_codes, cfg.vq_dim), cfg.vq_dim))
        linear("vq.cls", h, cfg.vq_codes)
        linear("vq.offset.1", h + cfg.vq_dim, h)
        linear("vq.offset.2", h, cfg.act_dim)


def codebook_param_names(store):
    """The action autoencoder + codes; trained in phase 1, frozen in phase 2."""
    return [n for n in store.names() if any(n == p or n.startswith(p + ".") for p in ("vq.enc", "vq.dec", "vq.codes"))]


def _mlp2(x, store, p1, p2):
    hidden = relu(matmul(x, store[f"{p1}.w"]) + store[f"{p1}.b"])
    return matmul(hidden, store[f"{p2}.w"]) + store[f"{p2}.b"]


# -- encoders ----------------------------------------------------------------


def pooled_vision(selected_layers, store):
    """Conv/relu/pool stage of the vision projection: [batch, L * conv_dim].

    Layer i of the L layers [batch, tokens, channels] gets its own conv over
    the token axis (``vision.conv{i}``, kernel 3, padded to keep the tokens),
    relu, then the mean over tokens; the L pooled vectors are concatenated in
    layer order.  All of it is the one fused op ``conv1d_relu_pool``.  A batch
    row is one (scene, view) pair, so callers fold the views into the batch.
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


def project_vision(selected_layers, store, cfg: PolicyConfig):
    """Fuse L selected pyramid layers [batch, tokens, channels] into one
    [batch, repr_dim] embedding per row: the conv/relu/pool stage
    (``pooled_vision``), then a 2-layer MLP over the pooled vectors.
    """
    return _mlp2(pooled_vision(selected_layers, store), store, "vision.mlp.1", "vision.mlp.2")


def encode_language(instructions, store, vocab):
    """Embed instructions from the closed vocabulary: frozen table row, then a
    trainable 2-layer MLP.  A single string yields [repr_dim]; a sequence
    yields [batch, repr_dim]."""
    single = isinstance(instructions, str)
    batch = [instructions] if single else list(instructions)
    indices = []
    for text in batch:
        try:
            indices.append(vocab.index(text))
        except ValueError:
            raise VocabularyError(f"instruction not in vocabulary: {text!r}") from None
    rows = embedding_lookup(store["lang.table"], np.array(indices))
    z = _mlp2(rows, store, "lang.mlp.1", "lang.mlp.2")
    return reshape(z, (z.shape[1],)) if single else z


def encode_proprio(state, store):
    """Embed the 7-dim end-effector state ([7] or [batch, 7])."""
    t = as_tensor(state)
    if t.shape[-1] != ACTION_WIDTH:
        raise ShapeError(f"proprio state must have width {ACTION_WIDTH}, got {t.shape[-1]}")
    single = t.ndim == 1
    if single:
        t = reshape(t, (1, ACTION_WIDTH))
    z = _mlp2(t, store, "proprio.1", "proprio.2")
    return reshape(z, (z.shape[1],)) if single else z


# -- trunk -------------------------------------------------------------------


@dataclass
class TokenSequence:
    tokens: Tensor              # [batch, length, repr_dim]
    positions: Tensor           # [length, repr_dim]

    def __post_init__(self):
        if self.tokens.ndim != 3 or self.positions.ndim != 2:
            raise ShapeError("token sequence wants [batch, length, width] tokens and [length, width] positions")
        if self.tokens.shape[1:] != self.positions.shape:
            raise ShapeError(
                f"positions {self.positions.shape} do not match tokens {self.tokens.shape}"
            )


def build_token_sequence(z_vis, z_lang, z_proprio, store, cfg: PolicyConfig):
    """Order the trunk input: the V vision tokens ``z_vis`` [batch, views,
    repr_dim] in view order, then language and proprio ([batch, repr_dim]
    each), and the learnable action token last."""
    b, d = z_lang.shape[0], cfg.repr_dim
    if z_vis.shape != (b, cfg.views, d):
        raise ShapeError(f"vision tokens must be {(b, cfg.views, d)}, got {z_vis.shape}")
    action = broadcast_to(reshape(store["token.action"], (1, 1, d)), (b, 1, d))
    parts = [z_vis, reshape(z_lang, (b, 1, d)), reshape(z_proprio, (b, 1, d)), action]
    return TokenSequence(tokens=concat(parts, axis=1), positions=store["token.pos"])


def causal_mask(length, dtype=np.float64):
    """Additive attention mask: 0 on and below the diagonal, a huge negative
    above.  exp of the fill underflows to exactly zero, so future positions
    contribute nothing, making causality exact rather than approximate."""
    mask = np.zeros((length, length), dtype=dtype)
    mask[np.triu_indices(length, k=1)] = ATTENTION_MASK_FILL
    return Tensor(mask)


def _attention(x, store, prefix, cfg, mask):
    b, s, h = x.shape
    heads = cfg.trunk_heads
    dh = h // heads
    parts = {}
    for name in ("q", "k", "v"):
        p = matmul(x, store[f"{prefix}.attn.{name}.w"]) + store[f"{prefix}.attn.{name}.b"]
        parts[name] = transpose(reshape(p, (b, s, heads, dh)), (0, 2, 1, 3))
    scores = matmul(parts["q"], transpose(parts["k"], (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    scores = scores + mask
    att = softmax(scores, axis=-1)
    out = transpose(matmul(att, parts["v"]), (0, 2, 1, 3))
    out = reshape(out, (b, s, h))
    return matmul(out, store[f"{prefix}.attn.o.w"]) + store[f"{prefix}.attn.o.b"]


def trunk_forward(seq: TokenSequence, store, cfg: PolicyConfig, return_all=False):
    """Pre-norm causal transformer; returns the action token's output embedding
    (the last position), or the full [batch, length, hidden] when asked."""
    if cfg.hidden_dim % cfg.trunk_heads:
        raise ConfigError("hidden_dim must be divisible by trunk_heads")
    x = seq.tokens + seq.positions
    if cfg.repr_dim != cfg.hidden_dim:
        x = matmul(x, store["adapter.w"]) + store["adapter.b"]
    mask = causal_mask(x.shape[1], dtype=x.values.dtype)
    for blk in range(cfg.trunk_layers):
        p = f"trunk{blk}"
        normed = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
        x = x + _attention(normed, store, p, cfg, mask)
        normed = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
        x = x + _mlp2(normed, store, f"{p}.ff.1", f"{p}.ff.2")
    if return_all:
        return x
    return x[:, -1, :]


# -- heads -------------------------------------------------------------------


def mlp_head(h_action, store, cfg: PolicyConfig):
    """Directly regress the action chunk: [batch, chunk_len, 7]."""
    single = h_action.ndim == 1
    h = reshape(h_action, (1, h_action.shape[0])) if single else h_action
    out = _mlp2(h, store, "head.1", "head.2")
    shape = (cfg.chunk_len, ACTION_WIDTH) if single else (h.shape[0], cfg.chunk_len, ACTION_WIDTH)
    return reshape(out, shape)


def vq_encode(actions, store):
    return _mlp2(actions, store, "vq.enc.1", "vq.enc.2")


def vq_decode(codes, store):
    return _mlp2(codes, store, "vq.dec.1", "vq.dec.2")


def vq_quantize(z_e, codes):
    """Nearest code by Euclidean distance; ties go to the smallest index.

    Returns (indices [batch] int array, code vectors [batch, vq_dim] Tensor).
    The index search happens outside the tape; the returned vectors carry
    gradients to the codebook only.
    """
    codes = as_tensor(codes)
    z = z_e.values if isinstance(z_e, Tensor) else np.asarray(z_e)
    single = z.ndim == 1
    z2 = z[None] if single else z
    deltas = z2[:, None, :] - codes.values[None, :, :]
    indices = np.argmin(np.einsum("bkd,bkd->bk", deltas, deltas), axis=1)
    picked = embedding_lookup(codes, indices)
    if single:
        return int(indices[0]), reshape(picked, (picked.shape[1],))
    return indices, picked


def vqvae_loss(actions, store, cfg: PolicyConfig):
    """Action autoencoder objective: reconstruction through the quantizer
    (straight-through), plus codebook and commitment terms.

    Returns (loss, code indices).  ``actions`` is [batch, act_dim].
    """
    z_e = vq_encode(actions, store)
    indices, picked = vq_quantize(z_e, store["vq.codes"])
    z_q = z_e + (picked.detach() - z_e.detach())            # identity on the backward path
    recon = mse_loss(vq_decode(z_q, store), actions if isinstance(actions, Tensor) else Tensor(actions))
    codebook = mse_loss(picked, z_e.detach())
    commit = mse_loss(z_e, picked.detach())
    return recon + codebook + commit * cfg.commitment_beta, indices


def vqbet_head(h_action, store, cfg: PolicyConfig, codebook_trained):
    """Inference path: classify a code from h_action, decode it, and add the
    regressed continuous offset."""
    if not codebook_trained:
        raise StateError("action codebook has not been trained (run the pretraining phase first)")
    single = h_action.ndim == 1
    h = reshape(h_action, (1, h_action.shape[0])) if single else h_action
    logits = matmul(h, store["vq.cls.w"]) + store["vq.cls.b"]
    picked = embedding_lookup(store["vq.codes"], np.argmax(logits.values, axis=1))
    offset = _mlp2(concat([h, picked], axis=1), store, "vq.offset.1", "vq.offset.2")
    out = vq_decode(picked, store) + offset
    shape = (cfg.chunk_len, ACTION_WIDTH) if single else (h.shape[0], cfg.chunk_len, ACTION_WIDTH)
    return reshape(out, shape)


def vqbet_train_loss(h_action, expert_actions, store, cfg: PolicyConfig, codebook_trained):
    """Teacher-forced head objective: cross-entropy against the expert action's
    quantized code, plus a weighted reconstruction through the true code.

    ``expert_actions`` is [batch, act_dim].  Returns (loss, target indices).
    """
    if not codebook_trained:
        raise StateError("action codebook has not been trained (run the pretraining phase first)")
    targets = expert_actions if isinstance(expert_actions, Tensor) else Tensor(expert_actions)
    z_e = vq_encode(targets.detach(), store)
    indices, picked = vq_quantize(z_e, store["vq.codes"])
    logits = matmul(h_action, store["vq.cls.w"]) + store["vq.cls.b"]
    ce = cross_entropy(logits, indices)
    offset = _mlp2(concat([h_action, picked.detach()], axis=1), store, "vq.offset.1", "vq.offset.2")
    recon = mse_loss(vq_decode(picked.detach(), store) + offset, targets)
    return ce + recon * cfg.offset_weight, indices


# -- composition -------------------------------------------------------------


def policy_forward(vision, instructions, proprio, store, cfg: PolicyConfig, vocab, codebook_trained=False, return_trunk=False):
    """Full pass from featurized observations to an action chunk.

    ``vision`` is [batch, views, L_selected, tokens, channels] for the geo
    backbone (the selected layers of the frozen pyramid, every one of which
    is used) or [batch, views, 3, H, W] images for the pixel baseline.  The
    views are folded into the batch (row b * views + v is scene b under view
    v), so the vision encoder runs once per pass; the pixel encoder's
    language conditioning is repeated per view to match.  Returns
    [batch, chunk_len, 7], or (chunk, h_action).
    """
    vision = np.asarray(vision)
    if vision.ndim != 5 or vision.shape[1] != cfg.views:
        raise ShapeError(f"vision input must be [batch, {cfg.views}, ...] with rank 5, got {vision.shape}")
    z_lang = encode_language(instructions, store, vocab)
    if z_lang.ndim == 1:
        raise ShapeError("policy_forward wants a sequence of instructions, one per batch row")
    b, d = vision.shape[0], cfg.repr_dim
    folded = vision.reshape((b * cfg.views,) + vision.shape[2:])
    if cfg.backbone_kind == "geo":
        z_vis = project_vision([Tensor(folded[:, l]) for l in range(folded.shape[1])], store, cfg)
    else:
        z_lang_views = reshape(broadcast_to(reshape(z_lang, (b, 1, d)), (b, cfg.views, d)), (b * cfg.views, d))
        z_vis = pixel_features(Tensor(folded), z_lang_views, store)
    z_vis = reshape(z_vis, (b, cfg.views, d))
    z_prop = encode_proprio(proprio, store)
    seq = build_token_sequence(z_vis, z_lang, z_prop, store, cfg)
    h_action = trunk_forward(seq, store, cfg)
    if cfg.head_kind == "mlp":
        chunk = mlp_head(h_action, store, cfg)
    else:
        chunk = vqbet_head(h_action, store, cfg, codebook_trained)
    return (chunk, h_action) if return_trunk else chunk


class Policy:
    """Bundles config, parameters, the frozen featurizer, and rollout entry
    points.  ``dtype`` fixes the parameter and compute precision."""

    def __init__(self, cfg: PolicyConfig, vocab, seed=0, geo: GeoStubConfig | None = None, dtype=np.float32):
        self.cfg = cfg.validate()
        self.geo = geo or GeoStubConfig()
        self.vocab = tuple(vocab)
        self.dtype = np.dtype(dtype)
        self.seed = seed
        self.backbone = None
        if cfg.backbone_kind == "geo":
            picks = select_layer_indices(self.geo.num_layers, cfg.select_mode, cfg.select_count)
            self.backbone = GeoBackbone(self.geo, picks)
        self.params = ParamStore()
        init_policy_params(self.params, cfg, self.vocab, seed, self.backbone, dtype=self.dtype)
        self.codebook_trained = cfg.head_kind == "mlp"

    def featurize(self, scenes, cameras):
        """Observation tensor for a batch of scenes under V cameras: the
        selected pyramid layers [B, V, L_selected, N, D] or images
        [B, V, 3, H, W]."""
        if len(cameras) != self.cfg.views:
            raise ShapeError(f"policy expects {self.cfg.views} cameras, got {len(cameras)}")
        if self.backbone is not None:
            return self.backbone.pyramid_batch(scenes, cameras).astype(self.dtype)
        frames = np.stack(
            [[render_image(scene, cam).transpose(2, 0, 1) for cam in cameras] for scene in scenes]
        )
        return frames.astype(self.dtype)

    def forward(self, vision, instructions, proprio, return_trunk=False):
        return policy_forward(
            vision,
            instructions,
            np.asarray(proprio, dtype=self.dtype),
            self.params,
            self.cfg,
            self.vocab,
            codebook_trained=self.codebook_trained,
            return_trunk=return_trunk,
        )

    def action(self, scene, instruction, cameras):
        """First action of the predicted chunk for one scene, as a plain
        7-vector (used by closed-loop rollouts)."""
        with no_grad():
            vision = self.featurize([scene], list(cameras))
            chunk = self.forward(vision, [instruction], scene.proprio()[None].astype(self.dtype))
        return np.asarray(chunk.values[0, 0], dtype=np.float64)
