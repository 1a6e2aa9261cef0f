"""The policy network: a vision encoder, language and proprioception
encoders, a small causal decoder-only trunk with a learnable action token,
and two interchangeable action heads (direct MLP regression, or discrete code
classification with a continuous offset on top of a learned action codebook).
The vision encoder is the backbone's conv stage (``pooled_features``), then
one trainable projection ``vision.mlp`` (``project_vision``) for either backbone.

Every function here takes a batch: instructions are a sequence, states and
embeddings carry a leading batch axis, and one scene is a batch of one.
Every two-layer MLP (the vision projection, the language and proprio
encoders, the MLP head, the action autoencoder's encoder and decoder, and
the VQ-BeT offset head) is one ``mlp2`` op, and each trunk block is one
``transformer_block`` op; only the action token is read from the trunk, so
its last block computes just that token, and ``trunk_forward`` and
``policy_forward`` end at its embedding ``h_action``.
The head runs only where an action chunk is used (``Policy.head``), so the
VQ-BeT training objective reads ``h_action`` without decoding a chunk.
The action codebook is trained once ``vq.codes`` is frozen.

All parameters live in one ParamStore under dotted names; the creation order
inside ``init_policy_params`` is fixed so a single seeded generator
reproduces initialization bit-for-bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from geoaware.backbones import (
    PIXEL_CHANNELS,
    SELECT_MODES,
    GeoBackbone,
    GeoStubConfig,
    init_pixel_params,
    pooled_features,
    select_layer_indices,
)
from geoaware.deskworld.camera import VIEWS, render_image
from geoaware.deskworld.world import ACTION_WIDTH, PROPRIO_WIDTH, stack_proprio
from geoaware.errors import ConfigError, ShapeError, StateError, VocabularyError
from geoaware.numerics import (
    ParamStore,
    Tensor,
    cross_entropy,
    embedding_lookup,
    matmul,
    mlp2,
    mse_loss,
    no_grad,
    transformer_block,
)
from geoaware.numerics.tensor import as_tensor, broadcast_to, concat, reshape

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
        return VIEWS + 3        # per-view vision, language, proprio, action

    def validate(self, geo: GeoStubConfig | None = None, error=ConfigError):
        """``self`` if every width and count is positive, the VQ-BeT loss
        weights are not negative and the kinds and layer selection mode are
        known, else raises ``error``; a geo selection must fit ``geo``."""
        for name in ("repr_dim", "conv_dim", "hidden_dim", "lang_embed_dim", "chunk_len", "select_count",
                     "trunk_layers", "trunk_heads", "vq_dim", "vq_hidden"):
            if getattr(self, name) < 1:
                raise error(f"policy {name} must be positive, got {getattr(self, name)}")
        if self.vq_codes < 2:
            raise error("the codebook needs at least 2 codes")
        for name in ("commitment_beta", "offset_weight"):
            if not getattr(self, name) >= 0:        # NaN fails too
                raise error(f"policy {name} must not be negative, got {getattr(self, name)}")
        if self.hidden_dim % self.trunk_heads:
            raise error("hidden_dim must be divisible by trunk_heads")
        if self.head_kind not in ("mlp", "vqbet"):
            raise error(f"unknown head_kind {self.head_kind!r}")
        if self.backbone_kind not in ("geo", "pixel"):
            raise error(f"unknown backbone_kind {self.backbone_kind!r}")
        if self.select_mode not in SELECT_MODES:
            raise error(f"unknown layer selection mode {self.select_mode!r} (expected {' | '.join(SELECT_MODES)})")
        if geo is not None and self.backbone_kind == "geo":
            # mode=all ignores the count; the others must fit the pyramid
            try:
                select_layer_indices(geo.num_layers, self.select_mode, self.select_count)
            except ConfigError as exc:
                raise error(str(exc)) from exc
        return self


def language_table(vocab, lang_embed_dim, dtype=np.float64):
    """Frozen per-instruction embeddings; a stand-in for a pretrained sentence
    encoder, so the table depends only on the vocabulary, never on the policy seed."""
    rng = np.random.default_rng([LANG_TABLE_SEED, len(vocab)])
    return rng.standard_normal((len(vocab), lang_embed_dim)).astype(dtype)


def init_policy_params(store, cfg: PolicyConfig, vocab, seed, backbone: GeoBackbone | None = None, dtype=np.float32):
    """Register every parameter in a fixed creation order.

    Order: the backbone's conv stage (one token conv per layer ``backbone``
    selects, or the pixel convs and FiLM), the shared vision projection
    ``vision.mlp``, language table + MLP, proprio MLP, action/positional
    tokens, adapter (when widths differ), trunk blocks, head.  The language
    table is frozen at creation.  Fused entries are drawn part by part, then
    joined: the geo token convs layer by layer (kernel, then bias) into
    ``vision.conv.w`` [L, conv_dim, D, 3] and ``vision.conv.b`` [L,
    conv_dim], and each block's q, k and v projections (weight, then bias)
    side by side into ``attn.qkv.w`` [H, 3H] and ``attn.qkv.b`` [3H].
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
        fan_in = width * 3
        convs = [(uniform((cfg.conv_dim, width, 3), fan_in), uniform((cfg.conv_dim,), fan_in)) for _ in range(slots)]
        store.add("vision.conv.w", np.stack([w for w, _ in convs]))
        store.add("vision.conv.b", np.stack([b for _, b in convs]))
        pooled_width = slots * cfg.conv_dim
    else:
        init_pixel_params(store, uniform, lang_embed_dim=d)
        pooled_width = PIXEL_CHANNELS[-1]
    linear("vision.mlp.1", pooled_width, d)
    linear("vision.mlp.2", d, d)

    store.add("lang.table", language_table(vocab, cfg.lang_embed_dim, dtype), frozen=True)
    linear("lang.mlp.1", cfg.lang_embed_dim, d)
    linear("lang.mlp.2", d, d)
    linear("proprio.1", PROPRIO_WIDTH, d)
    linear("proprio.2", d, d)

    store.add("token.action", rng.normal(0.0, 0.02, size=(d,)).astype(dtype))
    store.add("token.pos", rng.normal(0.0, 0.02, size=(cfg.n_tokens, d)).astype(dtype))
    if d != h:
        linear("adapter", d, h)

    for b in range(cfg.trunk_layers):
        p = f"trunk{b}"
        store.add(f"{p}.ln1.g", np.ones(h, dtype=dtype))
        store.add(f"{p}.ln1.b", np.zeros(h, dtype=dtype))
        qkv = [(uniform((h, h), h), uniform((h,), h)) for _ in range(3)]
        store.add(f"{p}.attn.qkv.w", np.concatenate([w for w, _ in qkv], axis=1))
        store.add(f"{p}.attn.qkv.b", np.concatenate([b for _, b in qkv]))
        linear(f"{p}.attn.o", h, h)
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
    """The two-layer relu MLP ``p1`` -> ``p2`` on ``x`` [batch, width], as the one op ``mlp2``."""
    return mlp2(x, store[f"{p1}.w"], store[f"{p1}.b"], store[f"{p2}.w"], store[f"{p2}.b"])


# -- encoders ----------------------------------------------------------------


def project_vision(pooled, store):
    """The shared vision projection: pooled features [rows, P] from either
    backbone's conv stage (``pooled_features``) through the 2-layer MLP
    ``vision.mlp``, one [rows, repr_dim] embedding per row."""
    return _mlp2(pooled, store, "vision.mlp.1", "vision.mlp.2")


def encode_language(instructions, store, vocab):
    """Embed a sequence of instructions from the closed vocabulary: frozen
    table row, then a trainable 2-layer MLP.  Returns [batch, repr_dim]."""
    indices = []
    for text in instructions:
        try:
            indices.append(vocab.index(text))
        except ValueError:
            raise VocabularyError(f"instruction not in vocabulary: {text!r}") from None
    rows = embedding_lookup(store["lang.table"], np.array(indices))
    return _mlp2(rows, store, "lang.mlp.1", "lang.mlp.2")


def encode_proprio(state, store):
    """Embed the end-effector states [batch, PROPRIO_WIDTH] into [batch, repr_dim]."""
    t = as_tensor(state)
    if t.shape[-1] != PROPRIO_WIDTH:
        raise ShapeError(f"proprio state must have width {PROPRIO_WIDTH}, got {t.shape[-1]}")
    return _mlp2(t, store, "proprio.1", "proprio.2")


# -- trunk -------------------------------------------------------------------


def build_token_sequence(z_vis, z_lang, z_proprio, store, cfg: PolicyConfig):
    """The trunk input [batch, length, repr_dim]: the ``VIEWS`` vision tokens
    ``z_vis`` [batch, VIEWS, repr_dim] in view order, then language and
    proprio ([batch, repr_dim] each), and the learnable action token last,
    with the learned positions ``token.pos`` added."""
    b, d = z_lang.shape[0], cfg.repr_dim
    if z_vis.shape != (b, VIEWS, d):
        raise ShapeError(f"vision tokens must be {(b, VIEWS, d)}, got {z_vis.shape}")
    action = broadcast_to(reshape(store["token.action"], (1, 1, d)), (b, 1, d))
    parts = [z_vis, reshape(z_lang, (b, 1, d)), reshape(z_proprio, (b, 1, d)), action]
    return concat(parts, axis=1) + store["token.pos"]


@functools.cache
def causal_mask(length, dtype=np.float64):
    """Additive attention mask, a plain read-only [length, length] array: 0
    on and below the diagonal, a huge negative above.  exp of the fill
    underflows to exactly zero, so future positions contribute nothing,
    making causality exact rather than approximate.  Built once per
    ``(length, dtype)``; every call with those arguments returns the same
    array."""
    mask = np.triu(np.full((length, length), ATTENTION_MASK_FILL, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


# a trunk block's parameters under ``trunk{i}.``, in ``transformer_block``'s argument order
_BLOCK_PARAMS = (
    "ln1.g", "ln1.b", "attn.qkv.w", "attn.qkv.b", "attn.o.w", "attn.o.b", "ln2.g", "ln2.b", "ff.1.w", "ff.1.b",
    "ff.2.w", "ff.2.b",
)


def trunk_forward(x, store, cfg: PolicyConfig):
    """Pre-norm causal transformer over the token sequence ``x`` [batch,
    length, repr_dim] (positions already added); returns the action token's
    embedding h_action [batch, hidden].  Blocks ``0 .. trunk_layers - 2`` run
    every position under the causal mask; the last block runs only the
    action token (the last position) as a query, with the mask's last row,
    since no other position of its output is read."""
    if cfg.repr_dim != cfg.hidden_dim:
        x = matmul(x, store["adapter.w"]) + store["adapter.b"]
    mask = causal_mask(x.shape[1], dtype=x.values.dtype)
    for blk in range(cfg.trunk_layers):
        params = [store[f"trunk{blk}.{name}"] for name in _BLOCK_PARAMS]
        x = transformer_block(x, *params, cfg.trunk_heads, mask[-1:] if blk == cfg.trunk_layers - 1 else mask)
    return reshape(x, (x.shape[0], x.shape[2]))


# -- heads -------------------------------------------------------------------


def mlp_head(h_action, store, cfg: PolicyConfig):
    """Directly regress the action chunk from h_action [batch, hidden]:
    [batch, chunk_len, ACTION_WIDTH]."""
    out = _mlp2(h_action, store, "head.1", "head.2")
    return reshape(out, (h_action.shape[0], cfg.chunk_len, ACTION_WIDTH))


def vq_encode(actions, store):
    return _mlp2(actions, store, "vq.enc.1", "vq.enc.2")


def vq_decode(codes, store):
    return _mlp2(codes, store, "vq.dec.1", "vq.dec.2")


def vq_quantize(z_e, codes):
    """Nearest code by Euclidean distance; ties go to the smallest index.

    ``z_e`` is [batch, vq_dim].  Returns (indices [batch] int array, code
    vectors [batch, vq_dim] Tensor).  The index search happens outside the
    tape; the returned vectors carry gradients to the codebook only.
    """
    codes = as_tensor(codes)
    z = z_e.values if isinstance(z_e, Tensor) else np.asarray(z_e)
    deltas = z[:, None, :] - codes.values[None, :, :]
    indices = np.argmin(np.einsum("bkd,bkd->bk", deltas, deltas), axis=1)
    return indices, embedding_lookup(codes, indices)


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


def vqbet_head(h_action, store, cfg: PolicyConfig):
    """Inference path: classify a code from h_action [batch, hidden], decode
    it, and add the regressed continuous offset: [batch, chunk_len, ACTION_WIDTH]."""
    if "vq.codes" not in store.frozen_names():
        raise StateError("action codebook has not been trained (run the pretraining phase first)")
    logits = matmul(h_action, store["vq.cls.w"]) + store["vq.cls.b"]
    picked = embedding_lookup(store["vq.codes"], np.argmax(logits.values, axis=1))
    offset = _mlp2(concat([h_action, picked], axis=1), store, "vq.offset.1", "vq.offset.2")
    out = vq_decode(picked, store) + offset
    return reshape(out, (h_action.shape[0], cfg.chunk_len, ACTION_WIDTH))


def vqbet_train_loss(h_action, expert_actions, store, cfg: PolicyConfig):
    """Teacher-forced head objective: cross-entropy against the expert action's
    quantized code, plus a weighted reconstruction through the true code.

    ``expert_actions`` is [batch, act_dim].  Returns (loss, target indices).
    """
    if "vq.codes" not in store.frozen_names():
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


def policy_forward(vision, instructions, proprio, store, cfg: PolicyConfig, vocab):
    """Batched pass from featurized observations to h_action [batch,
    hidden], the action-token embedding ``trunk_forward`` returns; a head
    turns it into actions.

    ``vision`` is [batch, VIEWS, L_selected, tokens, channels] for the geo
    backbone (the selected layers of the frozen pyramid, every one of which
    is used) or [batch, VIEWS, 3, H, W] images for the pixel baseline;
    ``instructions`` holds one instruction per batch row and ``proprio`` is
    [batch, PROPRIO_WIDTH].  The views are folded into the batch
    (``pooled_features``), so the vision encoder runs once per pass.
    """
    vision = np.asarray(vision)
    if vision.ndim != 5 or vision.shape[1] != VIEWS:
        raise ShapeError(f"vision input must be [batch, {VIEWS}, ...] with rank 5, got {vision.shape}")
    z_lang = encode_language(instructions, store, vocab)
    pooled = pooled_features(vision, z_lang, store, cfg.backbone_kind)
    z_vis = reshape(project_vision(pooled, store), (vision.shape[0], VIEWS, cfg.repr_dim))
    x = build_token_sequence(z_vis, z_lang, encode_proprio(proprio, store), store, cfg)
    return trunk_forward(x, store, cfg)


class Policy:
    """Bundles config, parameters, the frozen featurizer, and rollout entry
    points.  ``dtype`` fixes the parameter and compute precision."""

    def __init__(self, cfg: PolicyConfig, vocab, seed=0, geo: GeoStubConfig | None = None, dtype=np.float32):
        self.cfg = cfg.validate()
        self.geo = geo or GeoStubConfig()
        self.vocab = tuple(vocab)
        self.dtype = np.dtype(dtype)
        self.backbone = None
        if cfg.backbone_kind == "geo":
            picks = select_layer_indices(self.geo.num_layers, cfg.select_mode, cfg.select_count)
            self.backbone = GeoBackbone(self.geo, picks)
        self.params = ParamStore()
        init_policy_params(self.params, cfg, self.vocab, seed, self.backbone, dtype=self.dtype)

    def featurize(self, scenes, cameras):
        """Observation tensor for a batch of scenes under ``VIEWS`` cameras: the
        selected pyramid layers [B, V, L_selected, N, D] (a view of
        ``pyramid_batch``'s layer-major memory, which ``astype`` keeps) or images
        [B, V, 3, H, W].  Either backbone featurizes the whole batch in one
        call; the pixel one needs cameras that share one ``image_size``.  An
        empty batch raises ``ShapeError``."""
        if not scenes:
            raise ShapeError("featurize needs at least one scene")
        if len(cameras) != VIEWS:
            raise ShapeError(f"policy expects {VIEWS} cameras, got {len(cameras)}")
        if self.backbone is not None:
            return self.backbone.pyramid_batch(scenes, cameras).astype(self.dtype)
        return np.ascontiguousarray(render_image(scenes, cameras).transpose(0, 1, 4, 2, 3), dtype=self.dtype)

    def forward(self, vision, instructions, proprio):
        """h_action [batch, hidden] for a featurized batch (``policy_forward``)."""
        return policy_forward(
            vision, instructions, np.asarray(proprio, dtype=self.dtype), self.params, self.cfg, self.vocab
        )

    def head(self, h_action):
        """The action chunk [batch, chunk_len, ACTION_WIDTH] from h_action, through the
        configured head."""
        if self.cfg.head_kind == "mlp":
            return mlp_head(h_action, self.params, self.cfg)
        return vqbet_head(h_action, self.params, self.cfg)

    def action(self, scene, instruction, cameras):
        """First action of the predicted chunk for one scene, as the plain
        vector ``step`` takes (used by closed-loop rollouts).  Floating-point
        warnings are silenced: a non-finite forward pass shows up as a
        non-finite action, which ``step`` rejects."""
        with no_grad(), np.errstate(all="ignore"):
            vision = self.featurize([scene], list(cameras))
            chunk = self.head(self.forward(vision, [instruction], stack_proprio([scene])))
        return np.asarray(chunk.values[0, 0], dtype=np.float64)
