"""Aggregated gradient verification: every differentiable primitive and the
policy composites, each checked against 64-bit central finite differences at
tiny dimensions so the whole suite stays well under a minute.

Each check returns the worst relative error between reverse-mode and numeric
gradients; a component passes when that error is at most the suite tolerance.
"""

from __future__ import annotations

import numpy as np

from geoaware.backbones import GeoBackbone, GeoStubConfig, pixel_film, pixel_pooled, pooled_vision
from geoaware.deskworld.camera import VIEWS
from geoaware.deskworld.world import ACTION_WIDTH, PROPRIO_WIDTH
from geoaware.numerics.gradcheck import grad_check
from geoaware.numerics.nnops import (
    conv1d_relu_pool,
    conv2d_relu_pool,
    cross_entropy,
    embedding_lookup,
    mlp2,
    mse_loss,
    transformer_block,
)
from geoaware.numerics.params import ParamStore
from geoaware.numerics.tensor import Tensor, concat
from geoaware.policy import (
    PolicyConfig,
    build_token_sequence,
    causal_mask,
    embed_instructions,
    init_policy_params,
    mlp_head,
    policy_forward,
    project_vision,
    trunk_forward,
    vqbet_train_loss,
)

SUITE_TOLERANCE = 1e-4
SUITE_STEP = 1e-4

_VOCAB = ("lift the probe", "park the probe")


def _check_elementwise(step):
    rng = np.random.default_rng(101)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))

    def f(leaves):
        x, y = leaves
        return ((x + y) * (x - y) * x + x * 0.5).sum()

    return grad_check(f, [a, b], step=step)


def _check_matmul(step):
    rng = np.random.default_rng(102)
    a = rng.normal(size=(2, 3, 4))     # rank 3: the weight gradient sums over both leading axes
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(2, 3, 2))

    def f(leaves):
        x, y = leaves
        return ((x @ y) * Tensor(w)).sum()

    return grad_check(f, [a, b], step=step)


def _check_shape_ops(step):
    rng = np.random.default_rng(103)
    a = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 6))

    def f(leaves):
        (x,) = leaves
        stacked = concat([x.reshape(2, 6), (x * x).reshape(2, 6)], axis=0)
        return (stacked * Tensor(w)).sum()

    return grad_check(f, [a], step=step)


def _check_mlp2(step):
    # Input, both weights and both biases are leaves.  Seed chosen so every
    # hidden relu preactivation sits at least 0.5 from the kink.
    rng = np.random.default_rng(108)
    x = rng.normal(size=(3, 4))
    params = [rng.normal(size=(4, 5)) * 0.5, rng.normal(size=5) * 0.1, rng.normal(size=(5, 2)), rng.normal(size=2)]
    w = rng.normal(size=(3, 2))

    def f(leaves):
        return (mlp2(*leaves) * Tensor(w)).sum()

    return grad_check(f, [x] + params, step=step)


def _check_transformer_block(step):
    # All 13 inputs are leaves, the fused q/k/v weight and bias among them,
    # at S_q = S under the causal mask and at S_q = 1 under its last row, as
    # the trunk's last block runs.  Seed chosen so every FFN relu
    # preactivation sits at least 0.25 from the kink.
    rng = np.random.default_rng(117)
    b, s, h, width, heads = 2, 4, 6, 8, 2
    x = rng.normal(size=(b, s, h))

    def layer_norm_params():
        return [rng.normal(size=h) * 0.5 + 1.0, rng.normal(size=h) * 0.1]

    params = layer_norm_params()
    qw, qb, kw, kb, vw, vb, ow, ob = (rng.normal(size=shape) * 0.5 for _ in range(4) for shape in ((h, h), (h,)))
    params += [np.concatenate([qw, kw, vw], axis=1), np.concatenate([qb, kb, vb]), ow, ob]
    params += layer_norm_params() + [
        rng.normal(size=(h, width)) * 0.5, rng.normal(size=width) * 0.1,
        rng.normal(size=(width, h)) * 0.5, rng.normal(size=h) * 0.1,
    ]
    worst = 0.0
    for mask in (causal_mask(s), causal_mask(s)[-1:]):
        w = rng.normal(size=(b, mask.shape[0], h))

        def f(leaves, mask=mask, w=w):
            return (transformer_block(*leaves, heads, mask) * Tensor(w)).sum()

        worst = max(worst, grad_check(f, [x] + params, step=step))
    return worst


def _check_conv1d_relu_pool(step):
    # The input [L, R, N, C], the stacked kernels and the stacked biases are
    # leaves.  Seed chosen so every relu preactivation sits at least 1e-2
    # from the kink.
    rng = np.random.default_rng(107)
    x = np.stack([rng.normal(size=(2, 7, 3)) for _ in range(2)])
    kernels = np.stack([rng.normal(size=(4, 3, 3)) * 0.5 for _ in range(2)])
    biases = np.stack([rng.normal(size=4) * 0.1 for _ in range(2)])
    w = rng.normal(size=(2, 8))

    def f(leaves):
        return (conv1d_relu_pool(*leaves) * Tensor(w)).sum()

    return grad_check(f, [x, kernels, biases], step=step)


def _check_conv2d_relu_pool(step):
    # Two chained stride-2, padding-1 layers on an odd-sized [3, 3, 7, 5]
    # input, the input among the leaves, so the first layer builds an input
    # gradient too.  Seed chosen so every relu preactivation sits at least
    # 8e-2 from the kink.
    rng = np.random.default_rng(376)
    x = rng.normal(size=(3, 3, 7, 5))
    k1 = rng.normal(size=(4, 3, 3, 3)) * 0.5
    b1 = rng.normal(size=4) * 0.1
    k2 = rng.normal(size=(3, 4, 3, 3)) * 0.5
    b2 = rng.normal(size=3) * 0.1
    w = rng.normal(size=(3, 3))

    def f(leaves):
        h, kk1, bb1, kk2, bb2 = leaves
        return (conv2d_relu_pool(h, [kk1, kk2], [bb1, bb2], stride=2, padding=1) * Tensor(w)).sum()

    return grad_check(f, [x, k1, b1, k2, b2], step=step)


def _check_embedding(step):
    rng = np.random.default_rng(110)
    table = rng.normal(size=(5, 4))
    idx = np.array([0, 3, 3, 1])
    w = rng.normal(size=(4, 4))

    def f(leaves):
        return (embedding_lookup(leaves[0], idx) * Tensor(w)).sum()

    return grad_check(f, [table], step=step)


def _check_mse(step):
    rng = np.random.default_rng(111)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))

    def f(leaves):
        return mse_loss(leaves[0], Tensor(target))

    return grad_check(f, [pred], step=step)


def _check_cross_entropy(step):
    rng = np.random.default_rng(112)
    logits = rng.normal(size=(4, 5))
    labels = np.array([1, 0, 4, 2])

    def f(leaves):
        return cross_entropy(leaves[0], labels)

    return grad_check(f, [logits], step=step)


def _tiny_policy(**kw):
    cfg = PolicyConfig(
        repr_dim=8, conv_dim=4, hidden_dim=8, lang_embed_dim=4, trunk_heads=2,
        select_mode="all", select_count=3, vq_codes=5, vq_dim=3, vq_hidden=6, **kw,
    )
    geo = GeoStubConfig(num_layers=3, feature_dim=4, num_keypoints=5)
    store = ParamStore()
    init_policy_params(store, cfg, _VOCAB, seed=5, backbone=GeoBackbone(geo, [1, 2, 3]), dtype=np.float64)
    return cfg, geo, store


def _check_project_vision(step):
    # the geo conv stage, then the shared projection vision.mlp
    cfg, geo, store = _tiny_policy()
    rng = np.random.default_rng(113)
    layers = np.stack([rng.normal(size=(2, geo.num_keypoints, geo.feature_dim)) for _ in range(3)])
    names = ["vision.conv.w", "vision.conv.b", "vision.mlp.1.w", "vision.mlp.2.b"]
    w = rng.normal(size=(2, cfg.repr_dim))

    def f(leaves):
        for name, leaf in zip(names, leaves[: len(names)]):
            store.replace(name, leaf)
        return (project_vision(pooled_vision(leaves[len(names)], store), store) * Tensor(w)).sum()

    inputs = [store[n].values.copy() for n in names] + [layers]
    return grad_check(f, inputs, step=step)


def _check_pixel_encoder(step):
    # The pixel conv/FiLM stage, then the shared projection vision.mlp.  Seed
    # chosen so every relu preactivation sits at least 1.9e-3 from the kink;
    # a 1e-4 probe can then never cross one and flip a branch.
    cfg, _, store = _tiny_policy(backbone_kind="pixel")
    rng = np.random.default_rng(348)
    images = rng.uniform(0.0, 1.0, size=(2, 3, 8, 8))
    lang = rng.normal(size=(2, cfg.repr_dim))         # FiLM reads the repr_dim language embedding
    names = ["pixel.conv1.w", "pixel.film.scale.w", "vision.mlp.2.w"]
    w = rng.normal(size=(2, cfg.repr_dim))

    def f(leaves):
        for name, leaf in zip(names, leaves[: len(names)]):
            store.replace(name, leaf)
        pooled = pixel_pooled(leaves[len(names)], pixel_film(leaves[len(names) + 1], store, 1), store)
        return (project_vision(pooled, store) * Tensor(w)).sum()

    inputs = [store[n].values.copy() for n in names] + [images, lang]
    return grad_check(f, inputs, step=step)


def _check_trunk(step):
    cfg, _, store = _tiny_policy()
    rng = np.random.default_rng(115)
    b = 2
    zs = [rng.normal(size=(b, cfg.repr_dim)) for _ in range(VIEWS + 2)]
    zs = [np.stack(zs[:VIEWS], axis=1)] + zs[VIEWS:]        # vision tokens [b, VIEWS, repr_dim]
    names = ["trunk0.attn.qkv.w", "trunk0.ff.1.w", "trunk1.attn.qkv.b", "trunk1.ln2.g", "token.action"]
    w = rng.normal(size=(b, cfg.hidden_dim))

    def f(leaves):
        for name, leaf in zip(names, leaves[: len(names)]):
            store.replace(name, leaf)
        z_vis, z_lang, z_prop = leaves[len(names):]
        x = build_token_sequence(z_vis, z_lang, z_prop, store, cfg)
        return (trunk_forward(x, store, cfg) * Tensor(w)).sum()

    inputs = [store[n].values.copy() for n in names] + zs
    return grad_check(f, inputs, step=step)


def _check_mlp_head(step):
    cfg, _, store = _tiny_policy()
    rng = np.random.default_rng(116)
    h = rng.normal(size=(2, cfg.hidden_dim))
    target = rng.normal(size=(2, cfg.chunk_len, ACTION_WIDTH))
    names = ["head.1.w", "head.2.b"]

    def f(leaves):
        for name, leaf in zip(names, leaves[: len(names)]):
            store.replace(name, leaf)
        return mse_loss(mlp_head(leaves[len(names)], store, cfg), Tensor(target))

    inputs = [store[n].values.copy() for n in names] + [h]
    return grad_check(f, inputs, step=step)


def _check_vqbet_head(step):
    # Finite differences can only validate surfaces whose backward path is the
    # true derivative.  The autoencoder pretraining objective is excluded: its
    # straight-through estimator routes recon gradient to the encoder as if
    # quantization were the identity, which deliberately differs from the
    # piecewise-constant derivative a probe measures (that objective is
    # exercised functionally by the codebook-training tests instead).  The
    # codebook is likewise not a leaf here because the head objective detaches
    # it on purpose.  The encoder weights stay as a leaf to pin the intended
    # zero gradient: both sides must agree on exactly zero, so a dropped
    # detach shows up.  Codes are spread out so no probe crosses a
    # nearest-code boundary.
    cfg, _, store = _tiny_policy(head_kind="vqbet")
    rng = np.random.default_rng(117)
    store.set_frozen(store.frozen_names() | {"vq.codes"})           # a trained codebook
    store.replace("vq.codes", rng.normal(size=(cfg.vq_codes, cfg.vq_dim)) * 2.0)
    h = rng.normal(size=(2, cfg.hidden_dim))
    actions = rng.normal(size=(2, cfg.act_dim)) * 0.5
    names = ["vq.enc.1.w", "vq.dec.2.w", "vq.cls.w", "vq.offset.1.w"]

    def f(leaves):
        for name, leaf in zip(names, leaves[: len(names)]):
            store.replace(name, leaf)
        loss, _ = vqbet_train_loss(leaves[len(names)], leaves[len(names) + 1], store, cfg)
        return loss

    inputs = [store[n].values.copy() for n in names] + [h, actions]
    return grad_check(f, inputs, step=step)


def _check_end_to_end(step):
    cfg, geo, store = _tiny_policy()
    rng = np.random.default_rng(118)
    vision = rng.normal(size=(2, VIEWS, geo.num_layers, geo.num_keypoints, geo.feature_dim))
    proprio = rng.normal(size=(2, PROPRIO_WIDTH))
    instructions = [_VOCAB[0], _VOCAB[1]]
    target = rng.normal(size=(2, cfg.chunk_len, ACTION_WIDTH))
    names = [
        "vision.conv.w", "vision.mlp.2.w", "lang.mlp.1.w", "proprio.2.w",
        "trunk0.attn.qkv.w", "trunk1.ff.2.w", "head.2.w", "token.pos",
    ]

    def f(leaves):
        for name, leaf in zip(names, leaves):
            store.replace(name, leaf)
        language = embed_instructions(instructions, store, cfg, _VOCAB)
        h_action = policy_forward(vision, language, Tensor(proprio), store, cfg)
        return mse_loss(mlp_head(h_action, store, cfg), Tensor(target))

    inputs = [store[n].values.copy() for n in names]
    return grad_check(f, inputs, step=step)


_CHECKS = [
    ("add_sub_mul", _check_elementwise),
    ("matmul", _check_matmul),
    ("reshape_concat", _check_shape_ops),
    ("mlp2", _check_mlp2),
    ("transformer_block", _check_transformer_block),
    ("conv1d_relu_pool", _check_conv1d_relu_pool),
    ("conv2d_relu_pool", _check_conv2d_relu_pool),
    ("embedding_lookup", _check_embedding),
    ("mse_loss", _check_mse),
    ("cross_entropy", _check_cross_entropy),
    ("project_vision", _check_project_vision),
    ("pixel_encoder", _check_pixel_encoder),
    ("trunk", _check_trunk),
    ("mlp_head", _check_mlp_head),
    ("vqbet_head", _check_vqbet_head),
    ("end_to_end", _check_end_to_end),
]


def run_gradcheck_suite(step=SUITE_STEP, tolerance=SUITE_TOLERANCE):
    """Run every check; returns a list of result records in execution order."""
    records = []
    for name, check in _CHECKS:
        err = float(check(step))
        records.append({"component": name, "max_rel_err": err, "tolerance": tolerance, "passed": err <= tolerance})
    return records


def suite_passed(records):
    return all(r["passed"] for r in records)
