"""Policy network contracts: encoders, causal trunk, action heads."""

import hashlib
from dataclasses import asdict, replace

import numpy as np
import pytest

import geoaware.numerics.nnops as nnops
import geoaware.numerics.tensor as numerics_tensor
from geoaware.backbones import GeoBackbone, GeoStubConfig, pooled_features, pooled_vision
from geoaware.deskworld.camera import VIEWS, sample_viewpoints, seen_cameras
from geoaware.deskworld.dataset import generate_dataset
from geoaware.deskworld.world import SimConfig, make_tasks, reset, stack_proprio
from geoaware.errors import CameraError, ConfigError, FormatError, ShapeError, StateError, VocabularyError
from geoaware.numerics import Tensor, cross_entropy, grad_check, matmul, mse_loss, no_grad, transformer_block
from geoaware.persist import from_dict
from geoaware.policy import (
    _BLOCK_PARAMS,
    Policy,
    PolicyConfig,
    build_token_sequence,
    causal_mask,
    codebook_param_names,
    embed_instructions,
    encode_language,
    encode_proprio,
    mlp_head,
    policy_forward,
    project_vision,
    trunk_forward,
    vq_decode,
    vq_encode,
    vq_quantize,
    vqbet_head,
    vqbet_train_loss,
    vqvae_loss,
)

VOCAB = ("close the drawer", "open the drawer", "push the plate")

TINY_GEO = GeoStubConfig(num_layers=3, feature_dim=4, num_keypoints=5)


def tiny_cfg(**kw):
    base = dict(
        repr_dim=8,
        conv_dim=4,
        hidden_dim=8,
        lang_embed_dim=4,
        trunk_layers=2,
        trunk_heads=2,
        select_mode="all",
        select_count=3,
        vq_codes=6,
        vq_dim=3,
        vq_hidden=5,
    )
    base.update(kw)
    return PolicyConfig(**base)


def tiny_policy(seed=0, **kw):
    return Policy(tiny_cfg(**kw), VOCAB, seed=seed, geo=TINY_GEO, dtype=np.float64)


def rand_vision(rng, cfg, geo=TINY_GEO, batch=2):
    return rng.standard_normal((batch, VIEWS, geo.num_layers, geo.num_keypoints, geo.feature_dim))


def mean_of(t):
    """The mean of a tensor's entries, as a scalar tensor on the tape."""
    return t.sum() * (1.0 / t.size)


def clear_grads(store):
    for _, t in store.items():
        t.grad = None


def freeze_codebook(pol):
    """Mark the action codebook trained, as the end of VQ pretraining does."""
    pol.params.set_frozen(pol.params.frozen_names() | {"vq.codes"})
    return pol


def geo_vision(layers, pol):
    """The geo vision encoder on L layers [rows, tokens, channels], stacked
    into [L, rows, tokens, channels]: the conv stage, then the shared
    projection."""
    return project_vision(pooled_vision(layers, pol.params), pol.params)


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(hidden_dim=10, trunk_heads=4).validate()
    with pytest.raises(ConfigError):
        PolicyConfig(head_kind="diffusion").validate()
    with pytest.raises(ConfigError):
        PolicyConfig(backbone_kind="lidar").validate()
    with pytest.raises(ConfigError):
        PolicyConfig(select_count=13).validate(GeoStubConfig())
    with pytest.raises(ConfigError):
        from_dict(PolicyConfig, {"repr_dim": 64, "banana": 1}, "policy")
    roundtrip = from_dict(PolicyConfig, asdict(PolicyConfig()), "policy")
    assert roundtrip == PolicyConfig()


@pytest.mark.parametrize(
    "field",
    ["repr_dim", "conv_dim", "hidden_dim", "lang_embed_dim", "chunk_len", "select_count", "trunk_layers",
     "trunk_heads", "vq_dim", "vq_hidden"],
)
def test_config_rejects_non_positive_sizes(field):
    # trunk_heads 0 used to reach hidden_dim % trunk_heads as a ZeroDivisionError
    for value in (0, -2):
        with pytest.raises(ConfigError, match=field):
            replace(PolicyConfig(), **{field: value}).validate()
        with pytest.raises(FormatError, match=field):
            replace(PolicyConfig(), **{field: value}).validate(error=FormatError)


def test_default_config_matches_design_point():
    cfg = PolicyConfig()
    assert (cfg.repr_dim, cfg.conv_dim, cfg.hidden_dim, cfg.lang_embed_dim) == (64, 32, 64, 32)
    assert (cfg.select_count, cfg.select_mode) == (4, "even")
    assert (cfg.trunk_layers, cfg.trunk_heads, VIEWS) == (2, 4, 2)
    assert (cfg.vq_codes, cfg.vq_dim, cfg.commitment_beta, cfg.offset_weight) == (32, 8, 0.25, 10.0)
    assert cfg.act_dim == 7 and cfg.n_tokens == 5


def test_init_is_deterministic_per_seed():
    a, b, c = tiny_policy(seed=3), tiny_policy(seed=3), tiny_policy(seed=4)
    assert a.params.hash_of() == b.params.hash_of()
    assert a.params.hash_of() != c.params.hash_of()


def test_language_table_is_frozen_and_seed_independent():
    a, b = tiny_policy(seed=0), tiny_policy(seed=99)
    assert "lang.table" in a.params.frozen_names()
    assert np.array_equal(a.params["lang.table"].values, b.params["lang.table"].values)


# -- encoders ----------------------------------------------------------------


def test_project_vision_output_shapes():
    rng = np.random.default_rng(0)
    for mode, count, slots in (("last", 1, 1), ("even", 2, 2), ("all", 3, 3)):
        pol = tiny_policy(select_mode=mode, select_count=count)
        layers = [rng.standard_normal((1, 5, 4)) for _ in range(slots)]
        out = geo_vision(layers, pol)
        assert out.shape == (1, 8)
        batched = geo_vision([np.concatenate([l, l]) for l in layers], pol)
        assert batched.shape == (2, 8)
        assert np.allclose(batched.values[0], out.values[0])


def test_project_vision_zero_input_is_view_independent():
    pol = tiny_policy()
    zero = [np.zeros((1, 5, 4))] * 3
    a = geo_vision(zero, pol)
    b = geo_vision([np.zeros((1, 5, 4))] * 3, pol)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.isfinite(a.values))


def test_project_vision_wrong_layer_count():
    pol = tiny_policy()
    with pytest.raises(ShapeError):
        geo_vision([np.zeros((1, 5, 4))] * 2, pol)
    with pytest.raises(ShapeError):
        geo_vision([np.zeros((5, 4))] * 3, pol)      # unbatched layers


def test_project_vision_gradients():
    pol = tiny_policy(seed=5)
    rng = np.random.default_rng(1)
    layers = np.stack([rng.standard_normal((2, 5, 4)) for _ in range(3)])

    def f(leaves):
        out = geo_vision(leaves[0], pol)
        return mean_of(out * out)

    assert grad_check(f, [layers]) <= 1e-4


def test_encode_language_contracts():
    pol = tiny_policy()
    a = encode_language([VOCAB[0]], pol.params, pol.vocab)
    b = encode_language([VOCAB[1]], pol.params, pol.vocab)
    again = encode_language([VOCAB[0]], pol.params, pol.vocab)
    assert a.shape == (1, 8)
    assert np.array_equal(a.values, again.values)
    assert np.abs(a.values - b.values).max() > 1e-8
    batch = encode_language([VOCAB[0], VOCAB[1]], pol.params, pol.vocab)
    assert batch.shape == (2, 8)
    # a larger batch's matmul may differ from a batch of one by an ulp
    assert np.allclose(batch.values[0], a.values[0], rtol=1e-12, atol=0)
    with pytest.raises(VocabularyError):
        encode_language(["fold the laundry"], pol.params, pol.vocab)
    with pytest.raises(VocabularyError):
        encode_language(VOCAB[0], pol.params, pol.vocab)        # a bare string is not a batch


def test_encode_proprio_contracts():
    pol = tiny_policy()
    state = np.arange(7.0)
    out = encode_proprio(state[None], pol.params)
    assert out.shape == (1, 8)
    batch = encode_proprio(np.stack([state, state + 1]), pol.params)
    assert batch.shape == (2, 8)
    assert np.allclose(batch.values[0], out.values[0], rtol=1e-12, atol=0)
    with pytest.raises(ShapeError):
        encode_proprio(np.zeros((1, 6)), pol.params)
    with pytest.raises(ShapeError):
        encode_proprio(state, pol.params)                       # unbatched
    with no_grad():                                             # tape-free, on the store's arrays
        plain = encode_proprio(state[None], pol.params.arrays())
        with pytest.raises(ShapeError):
            encode_proprio(np.zeros((1, 6)), pol.params.arrays())
    assert type(plain) is np.ndarray and plain.tobytes() == out.values.tobytes()

    def f(leaves):
        return mean_of(encode_proprio(leaves[0], pol.params) * 2.0)

    assert grad_check(f, [np.random.default_rng(2).standard_normal((3, 7))]) <= 1e-4


# -- trunk -------------------------------------------------------------------


def _token_sequence(pol, rng, batch=2):
    cfg = pol.cfg
    z_vis = Tensor(np.stack([rng.standard_normal((batch, cfg.repr_dim)) for _ in range(VIEWS)], axis=1))
    z_lang = Tensor(rng.standard_normal((batch, cfg.repr_dim)))
    z_prop = Tensor(rng.standard_normal((batch, cfg.repr_dim)))
    return build_token_sequence(z_vis, z_lang, z_prop, pol.params, cfg)


def test_token_sequence_layout():
    pol = tiny_policy()
    seq = _token_sequence(pol, np.random.default_rng(0))
    assert seq.shape == (2, 5, 8)
    action = pol.params["token.action"].values + pol.params["token.pos"].values[-1]
    assert np.array_equal(seq.values[:, -1], np.tile(action, (2, 1)))
    z = Tensor(np.zeros((2, 8)))
    with pytest.raises(ShapeError):
        build_token_sequence(Tensor(np.zeros((2, 3, 8))), z, z, pol.params, pol.cfg)     # three views, two expected


def all_query_blocks(pol, x):
    """The trunk's blocks over ``x`` with every position a query in every
    block, the last one included: [batch, length, hidden]."""
    mask = causal_mask(x.shape[1])
    for blk in range(pol.cfg.trunk_layers):
        params = [pol.params[f"trunk{blk}.{name}"] for name in _BLOCK_PARAMS]
        x = transformer_block(x, *params, pol.cfg.trunk_heads, mask)
    return x


def test_trunk_causality_is_exact():
    # the trunk's blocks, run with the full causal mask: a position's output
    # never depends on a later token, bit for bit
    pol = tiny_policy(seed=7)
    rng = np.random.default_rng(3)
    seq = _token_sequence(pol, rng, batch=1)
    base = all_query_blocks(pol, seq).values.copy()
    for j in range(1, 5):
        bumped = seq.values.copy()
        bumped[:, j] += 17.0
        out = all_query_blocks(pol, Tensor(bumped)).values
        assert np.array_equal(out[:, :j], base[:, :j])
        assert np.abs(out[:, j:] - base[:, j:]).max() > 1e-6


def test_trunk_action_token_reads_every_token():
    # a bump along a random direction: layer norm removes one along all ones
    pol = tiny_policy(seed=7)
    rng = np.random.default_rng(3)
    seq = _token_sequence(pol, rng, batch=1)
    base = trunk_forward(seq, pol.params, pol.cfg).values
    for j in range(5):
        bumped = seq.values.copy()
        bumped[:, j] += rng.standard_normal(8)
        assert np.abs(trunk_forward(Tensor(bumped), pol.params, pol.cfg).values - base).max() > 1e-6


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_trunk_matches_last_row_of_all_query_blocks(layers):
    # the last block computes only the action token, and gets it as an
    # all-query last block would
    pol = tiny_policy(seed=9, trunk_layers=layers)
    seq = _token_sequence(pol, np.random.default_rng(10), batch=3)
    h_action = trunk_forward(seq, pol.params, pol.cfg)
    assert h_action.shape == (3, 8)
    assert np.abs(h_action.values - all_query_blocks(pol, seq).values[:, -1]).max() <= 1e-12


def test_trunk_single_token_sequence():
    pol = tiny_policy()
    tokens = Tensor(np.random.default_rng(4).standard_normal((2, 1, 8)))
    out = trunk_forward(tokens, pol.params, pol.cfg)
    again = trunk_forward(tokens, pol.params, pol.cfg)
    assert out.shape == (2, 8)
    assert np.all(np.isfinite(out.values))
    assert np.array_equal(out.values, again.values)


def test_causal_mask_is_built_once_and_read_only():
    mask = causal_mask(5, np.float32)
    assert causal_mask(5, np.float32) is mask
    assert mask.dtype == np.float32
    assert np.array_equal(mask == 0.0, np.tril(np.ones((5, 5), dtype=bool)))
    with pytest.raises(ValueError):
        mask[0, 1] = 0.0


def test_trunk_gradients():
    pol = tiny_policy(seed=8)
    rng = np.random.default_rng(5)

    def f(leaves):
        tokens, qw = leaves
        saved = pol.params["trunk0.attn.qkv.w"]
        pol.params._entries["trunk0.attn.qkv.w"] = qw
        try:
            out = trunk_forward(tokens + pol.params["token.pos"], pol.params, pol.cfg)
        finally:
            pol.params._entries["trunk0.attn.qkv.w"] = saved
        return mean_of(out * out)

    leaves = [rng.standard_normal((2, 5, 8)), pol.params["trunk0.attn.qkv.w"].values.copy()]
    assert grad_check(f, leaves) <= 1e-4


def test_mlp_head_shapes_and_gradients():
    pol = tiny_policy()
    rng = np.random.default_rng(6)
    batch = mlp_head(Tensor(rng.standard_normal((3, 8))), pol.params, pol.cfg)
    assert batch.shape == (3, 1, 7)

    def f(leaves):
        return mean_of(mlp_head(leaves[0], pol.params, pol.cfg) * 3.0)

    assert grad_check(f, [rng.standard_normal((3, 8))]) <= 1e-4


# -- VQ head -----------------------------------------------------------------


def test_vq_quantize_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        codes = Tensor(rng.standard_normal((6, 3)))
        z = rng.standard_normal((1000, 3))
        indices, picked = vq_quantize(Tensor(z), codes)
        expected = np.array(
            [min(range(6), key=lambda k: float(np.sum((row - codes.values[k]) ** 2))) for row in z]
        )
        assert np.array_equal(indices, expected)
        assert np.array_equal(picked.values, codes.values[indices])


def test_vq_quantize_exact_hit_and_tie():
    codes = np.zeros((6, 3))
    codes[1] = [1.0, 0.0, 0.0]
    codes[3] = [0.5, 0.5, 0.0]
    codes[4] = [-1.0, 0.0, 0.0]
    codes[2] = [9.0, 9.0, 9.0]
    codes[5] = [9.0, 9.0, 9.0]
    idx, picked = vq_quantize(Tensor(np.array([[0.5, 0.5, 0.0]])), Tensor(codes))
    assert idx.tolist() == [3]
    assert np.array_equal(picked.values, codes[3:4])
    # codes 1 and 4 are exactly equidistant from the origin probe: pick 1
    codes_tie = np.full((6, 3), 50.0)
    codes_tie[1] = [1.0, 0.0, 0.0]
    codes_tie[4] = [-1.0, 0.0, 0.0]
    t_idx, _ = vq_quantize(Tensor(np.zeros((1, 3))), Tensor(codes_tie))
    assert t_idx.tolist() == [1]


def test_straight_through_gradient_contract():
    pol = tiny_policy(head_kind="vqbet")
    rng = np.random.default_rng(7)
    target = Tensor(rng.standard_normal((4, 7)))
    z_leaf = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    _, picked = vq_quantize(z_leaf, pol.params["vq.codes"])
    z_q = z_leaf + (picked.detach() - z_leaf.detach())
    mse_loss(vq_decode(z_q, pol.params), target).backward()
    st_grad = z_leaf.grad.copy()

    # identity-quantizer reference: a leaf sitting at the quantizer output
    ref_leaf = Tensor(picked.values.copy(), requires_grad=True)
    clear_grads(pol.params)
    mse_loss(vq_decode(ref_leaf, pol.params), target).backward()
    assert np.abs(st_grad - ref_leaf.grad).max() <= 1e-9


def test_vqvae_loss_zero_for_perfect_autoencoder():
    pol = tiny_policy(head_kind="vqbet")
    action = np.linspace(-0.3, 0.3, 7)
    # encoder constant at code 2; decoder constant at the action
    pol.params["vq.enc.1.w"].values[:] = 0.0
    pol.params["vq.enc.1.b"].values[:] = 0.0
    pol.params["vq.enc.2.w"].values[:] = 0.0
    pol.params["vq.enc.2.b"].values[:] = pol.params["vq.codes"].values[2]
    pol.params["vq.dec.1.w"].values[:] = 0.0
    pol.params["vq.dec.1.b"].values[:] = 0.0
    pol.params["vq.dec.2.w"].values[:] = 0.0
    pol.params["vq.dec.2.b"].values[:] = action
    loss, indices = vqvae_loss(Tensor(np.tile(action, (3, 1))), pol.params, pol.cfg)
    assert loss.item() == pytest.approx(0.0, abs=1e-30)
    assert np.all(indices == 2)


def test_vqvae_loss_beta_zero_drops_commitment():
    pol = tiny_policy(head_kind="vqbet", commitment_beta=0.0)
    rng = np.random.default_rng(8)
    actions = Tensor(rng.standard_normal((5, 7)))
    loss, _ = vqvae_loss(actions, pol.params, pol.cfg)
    z_e = vq_encode(actions, pol.params)
    _, picked = vq_quantize(z_e, pol.params["vq.codes"])
    z_q = z_e + (picked.detach() - z_e.detach())
    recon = mse_loss(vq_decode(z_q, pol.params), actions)
    codebook = mse_loss(picked, z_e.detach())
    assert loss.item() == pytest.approx(recon.item() + codebook.item(), rel=1e-12)


def test_vq_gradient_routing():
    pol = tiny_policy(head_kind="vqbet")
    rng = np.random.default_rng(9)
    actions = Tensor(rng.standard_normal((5, 7)))
    enc_names = ["vq.enc.1.w", "vq.enc.1.b", "vq.enc.2.w", "vq.enc.2.b"]

    z_e = vq_encode(actions, pol.params)
    _, picked = vq_quantize(z_e, pol.params["vq.codes"])
    mse_loss(picked, z_e.detach()).backward()     # codebook pull term
    assert pol.params["vq.codes"].grad is not None
    assert all(pol.params[n].grad is None for n in enc_names)

    clear_grads(pol.params)
    z_e = vq_encode(actions, pol.params)
    _, picked = vq_quantize(z_e, pol.params["vq.codes"])
    mse_loss(z_e, picked.detach()).backward()     # commitment term
    assert pol.params["vq.codes"].grad is None
    assert all(np.any(pol.params[n].grad != 0.0) for n in enc_names)


def test_vqbet_head_requires_trained_codebook():
    pol = tiny_policy(head_kind="vqbet")
    h = Tensor(np.zeros((2, 8)))
    with pytest.raises(StateError):
        vqbet_head(h, pol.params, pol.cfg)
    with pytest.raises(StateError):
        vqbet_train_loss(h, Tensor(np.zeros((2, 7))), pol.params, pol.cfg)
    with pytest.raises(StateError):
        pol.head(h)
    freeze_codebook(pol)
    out = vqbet_head(h, pol.params, pol.cfg)
    assert out.shape == (2, 1, 7)


def test_vqbet_train_loss_reduces_to_ce_on_perfect_decode():
    pol = freeze_codebook(tiny_policy(head_kind="vqbet"))
    rng = np.random.default_rng(10)
    h = Tensor(rng.standard_normal((3, 8)))
    # force: every action quantizes to code 2, decoder emits the action exactly,
    # offset head emits exactly zero
    action = np.linspace(-0.2, 0.2, 7)
    for name, value in (
        ("vq.enc.1.w", 0.0), ("vq.enc.1.b", 0.0), ("vq.enc.2.w", 0.0),
        ("vq.dec.1.w", 0.0), ("vq.dec.1.b", 0.0), ("vq.dec.2.w", 0.0),
        ("vq.offset.1.w", 0.0), ("vq.offset.1.b", 0.0), ("vq.offset.2.w", 0.0), ("vq.offset.2.b", 0.0),
    ):
        pol.params[name].values[:] = value
    pol.params["vq.enc.2.b"].values[:] = pol.params["vq.codes"].values[2]
    pol.params["vq.dec.2.b"].values[:] = action
    targets = Tensor(np.tile(action, (3, 1)))
    loss, indices = vqbet_train_loss(h, targets, pol.params, pol.cfg)
    assert np.all(indices == 2)
    logits = matmul(h, pol.params["vq.cls.w"]) + pol.params["vq.cls.b"]
    assert loss.item() == pytest.approx(cross_entropy(logits, indices).item(), rel=1e-12)


# -- composition -------------------------------------------------------------


def test_policy_forward_shapes_and_purity():
    pol = tiny_policy(seed=11)
    rng = np.random.default_rng(12)
    vision = rand_vision(rng, pol.cfg)
    instructions = [VOCAB[0], VOCAB[2]]
    proprio = rng.standard_normal((2, 7))
    h_action = pol.forward(vision, instructions, proprio)
    assert h_action.shape == (2, 8)
    out = pol.head(h_action)
    assert out.shape == (2, 1, 7)
    again = pol.head(pol.forward(vision, instructions, proprio))
    assert np.array_equal(out.values, again.values)


def test_folded_views_match_separate_calls():
    # float32 policies: folding views into the batch changes only rounding
    rng = np.random.default_rng(24)
    pol = Policy(tiny_cfg(), VOCAB, seed=25, geo=TINY_GEO)
    vision = rand_vision(rng, pol.cfg, batch=3).astype(np.float32)
    z = project_vision(pooled_features(vision, None, pol.params, "geo"), pol.params).values
    for row in range(6):
        b, v = divmod(row, VIEWS)
        alone = geo_vision([vision[b : b + 1, v, l] for l in range(3)], pol).values
        np.testing.assert_allclose(z[row], alone[0], rtol=1e-5, atol=1e-6)

    pixel = Policy(PolicyConfig(backbone_kind="pixel"), VOCAB, seed=26)
    images = rng.uniform(0.0, 1.0, (3, 2, 3, 16, 16)).astype(np.float32)
    for pol, vision in ((pol, vision), (pixel, images)):
        instructions = [VOCAB[2], VOCAB[0], VOCAB[1]]
        proprio = rng.standard_normal((3, 7)).astype(np.float32)
        batched = pol.head(pol.forward(vision, instructions, proprio)).values
        for b in range(3):
            alone = pol.head(pol.forward(vision[b : b + 1], instructions[b : b + 1], proprio[b : b + 1])).values
            np.testing.assert_allclose(batched[b], alone[0], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("backbone, head", [("geo", "mlp"), ("pixel", "vqbet")])
def test_float32_policy_stays_float32(backbone, head):
    # a float64 scalar or mask anywhere in the pass would silently promote
    sim = SimConfig()
    pol = Policy(PolicyConfig(backbone_kind=backbone, head_kind=head), VOCAB, seed=27)
    if head == "vqbet":
        freeze_codebook(pol)
    scenes = [reset(task, seed=28) for task in make_tasks()[:3]]
    vision = pol.featurize(scenes, list(seen_cameras(sim)))
    proprio = stack_proprio(scenes)
    h_action = pol.forward(vision, list(VOCAB), proprio)
    chunk = pol.head(h_action)
    assert (vision.dtype, h_action.dtype, chunk.dtype) == (np.float32,) * 3
    targets = Tensor(np.random.default_rng(29).standard_normal((3, 7)).astype(np.float32))
    if head == "mlp":
        loss = mse_loss(chunk, targets.reshape(3, 1, 7))
    else:
        loss = vqbet_train_loss(h_action, targets, pol.params, pol.cfg)[0]
        loss = loss + vqvae_loss(targets, pol.params, pol.cfg)[0]
    assert loss.dtype == np.float32
    loss.backward()
    grads = {name: t.grad.dtype for name, t in pol.params.items() if t.grad is not None}
    assert {"trunk0.attn.qkv.w", "trunk1.attn.o.b", "token.pos"} <= set(grads)
    assert set(grads.values()) == {np.dtype(np.float32)}


def test_featurize_returns_only_selected_layers():
    geo = GeoStubConfig()
    pol = Policy(PolicyConfig(select_mode="even", select_count=4), VOCAB, seed=0, geo=geo)
    sim = SimConfig()
    scenes = [reset(task, seed=13) for task in make_tasks()]
    cams = list(seen_cameras(sim))
    vision = pol.featurize(scenes, cams)
    full = GeoBackbone(geo, range(1, geo.num_layers + 1)).pyramid_batch(scenes, cams)
    assert vision.dtype == np.float32
    assert vision.shape == (4, 2, 4, geo.num_keypoints, geo.feature_dim)
    assert np.array_equal(vision, full[:, :, [1, 3, 6, 8]].astype(np.float32))     # layers {2,4,7,9}
    proprio = stack_proprio(scenes)
    assert pol.head(pol.forward(vision, [VOCAB[0]] * 4, proprio)).shape == (4, 1, 7)
    with pytest.raises(ShapeError):
        pol.forward(full.astype(np.float32), [VOCAB[0]] * 4, proprio)


def test_policy_end_to_end_gradients():
    pol = tiny_policy(seed=14)
    rng = np.random.default_rng(15)
    vision = rand_vision(rng, pol.cfg, batch=1)
    proprio = rng.standard_normal((1, 7))
    target = rng.standard_normal((1, 1, 7))
    checked = ["vision.conv.w", "lang.mlp.1.w", "proprio.1.w", "token.action", "trunk1.attn.qkv.w", "head.2.w"]

    def f(leaves):
        saved = [pol.params[n] for n in checked]
        for n, leaf in zip(checked, leaves):
            pol.params._entries[n] = leaf
        try:
            language = embed_instructions([VOCAB[1]], pol.params, pol.cfg, pol.vocab)
            h_action = policy_forward(vision, language, proprio, pol.params, pol.cfg)
            return mse_loss(mlp_head(h_action, pol.params, pol.cfg), Tensor(target))
        finally:
            for n, t in zip(checked, saved):
                pol.params._entries[n] = t

    assert grad_check(f, [pol.params[n].values.copy() for n in checked]) <= 1e-4


def test_policy_vision_input_gradients():
    pol = tiny_policy(seed=16)
    rng = np.random.default_rng(17)

    def f(leaves):
        # the selected layers stacked in one leaf, views folded into the batch: row b * 2 + v
        z_vis = geo_vision(leaves[0], pol).reshape(2, 2, 8)
        z_lang = encode_language([VOCAB[0], VOCAB[1]], pol.params, pol.vocab)
        z_prop = encode_proprio(leaves[1], pol.params)
        seq = build_token_sequence(z_vis, z_lang, z_prop, pol.params, pol.cfg)
        h = trunk_forward(seq, pol.params, pol.cfg)
        return mean_of(mlp_head(h, pol.params, pol.cfg) * 0.5)

    leaves = [np.stack([rng.standard_normal((4, 5, 4)) for _ in range(3)]), rng.standard_normal((2, 7))]
    assert grad_check(f, leaves) <= 1e-4


def test_view_invariant_configuration_ignores_cameras():
    sim = SimConfig()
    task = make_tasks()[0]
    scene = reset(task, seed=5)
    pol = Policy(
        PolicyConfig(select_mode="last", select_count=1),
        tuple(t.instruction for t in make_tasks()),
        seed=1,
        dtype=np.float64,
    )
    cams_a = list(seen_cameras(sim))
    cams_b = sample_viewpoints("novel_large", 2, seed=3, sim=sim)
    language = pol.language(task.instruction)
    act_a = pol.action(scene, language, cams_a)
    act_b = pol.action(scene, language, cams_b)
    assert np.abs(act_a - act_b).max() <= 1e-7


def test_no_dead_parameters_mlp_geo():
    pol = tiny_policy(seed=18)
    rng = np.random.default_rng(19)
    vision = rand_vision(rng, pol.cfg)
    out = pol.head(pol.forward(vision, [VOCAB[0], VOCAB[1]], rng.standard_normal((2, 7))))
    mse_loss(out, Tensor(rng.standard_normal((2, 1, 7)))).backward()
    for name in pol.params.trainable_names():
        grad = pol.params[name].grad
        assert grad is not None and np.any(grad != 0.0), f"dead parameter {name}"
    assert pol.params["lang.table"].grad is None


def test_no_dead_parameters_vqbet_geo():
    pol = tiny_policy(seed=20, head_kind="vqbet")
    rng = np.random.default_rng(21)
    actions = Tensor(rng.standard_normal((4, 7)))
    loss, _ = vqvae_loss(actions, pol.params, pol.cfg)
    loss.backward()
    covered = set(codebook_param_names(pol.params))
    for name in sorted(covered):
        grad = pol.params[name].grad
        assert grad is not None and np.any(grad != 0.0), f"dead codebook parameter {name}"

    clear_grads(pol.params)
    freeze_codebook(pol)
    vision = rand_vision(rng, pol.cfg)
    h = pol.forward(vision, [VOCAB[0], VOCAB[1]], rng.standard_normal((2, 7)))
    loss, _ = vqbet_train_loss(h, Tensor(rng.standard_normal((2, 7))), pol.params, pol.cfg)
    loss.backward()
    for name in pol.params.trainable_names():
        if name in covered or name.startswith("vq.dec"):
            continue
        grad = pol.params[name].grad
        assert grad is not None and np.any(grad != 0.0), f"dead parameter {name}"


def test_no_dead_parameters_pixel():
    # default widths: tiny layers can lose a whole relu layer to bad luck,
    # the shipped dimensions cannot
    cfg = PolicyConfig(backbone_kind="pixel")
    pol = Policy(cfg, VOCAB, seed=22, dtype=np.float64)
    rng = np.random.default_rng(23)
    vision = rng.uniform(0.0, 1.0, (4, 2, 3, 16, 16))
    instructions = [VOCAB[i % 3] for i in range(4)]
    out = pol.head(pol.forward(vision, instructions, rng.standard_normal((4, 7))))
    mse_loss(out, Tensor(rng.standard_normal((4, 1, 7)))).backward()
    for name in pol.params.trainable_names():
        grad = pol.params[name].grad
        assert grad is not None and np.any(grad != 0.0), f"dead parameter {name}"


def test_policy_action_rollout_entry():
    sim = SimConfig()
    tasks = make_tasks()
    scene = reset(tasks[0], seed=0)
    pol = Policy(PolicyConfig(), tuple(t.instruction for t in tasks), seed=2)
    act = pol.action(scene, pol.language(tasks[0].instruction), seen_cameras(sim))
    assert act.shape == (7,)
    assert np.all(np.isfinite(act))
    again = pol.action(scene, pol.language(tasks[0].instruction), seen_cameras(sim))
    assert np.array_equal(act, again)


# every backbone/head pair; its action is compared with the taped pass
BACKBONE_HEADS = [("geo", "mlp"), ("geo", "vqbet"), ("pixel", "mlp"), ("pixel", "vqbet")]


def rollout_policy(backbone, head):
    """A default-width policy over every task's instruction, its VQ-BeT
    codebook marked trained."""
    pol = Policy(PolicyConfig(backbone_kind=backbone, head_kind=head), tuple(t.instruction for t in make_tasks()), seed=4)
    return freeze_codebook(pol) if head == "vqbet" else pol


@pytest.mark.parametrize("category", ["seen", "novel_medium"])
@pytest.mark.parametrize("backbone, head", BACKBONE_HEADS, ids=[f"{b}/{h}" for b, h in BACKBONE_HEADS])
def test_action_is_bitwise_the_taped_forward(backbone, head, category):
    # the rollout step runs tape-free on the store's plain arrays; the same
    # composition on the store's tensors, recording a tape, gives its bytes
    pol = rollout_policy(backbone, head)
    cameras = sample_viewpoints(category, VIEWS, seed=6, sim=SimConfig())
    for task in make_tasks():
        scene = reset(task, seed=8)
        action = pol.action(scene, pol.language(task.instruction), cameras)
        language = embed_instructions([task.instruction], pol.params, pol.cfg, pol.vocab)
        proprio = stack_proprio([scene]).astype(pol.dtype)
        taped = pol.head(policy_forward(pol.featurize([scene], cameras), language, proprio, pol.params, pol.cfg))
        assert taped.requires_grad
        assert action.dtype == np.float64
        assert action.tobytes() == taped.values[0, 0].astype(np.float64).tobytes()


@pytest.mark.parametrize("backbone, head", [("geo", "mlp"), ("pixel", "vqbet")], ids=["geo/mlp", "pixel/vqbet"])
def test_rollout_step_builds_no_tensor(backbone, head, monkeypatch):
    # Policy.language and Policy.action construct no Tensor and make no op
    # result; a taped pass, run under the same counters, does both
    pol = rollout_policy(backbone, head)
    task, cameras = make_tasks()[1], seen_cameras(SimConfig())
    scene = reset(task, seed=2)
    built, results = [], []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__", lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    for module in (numerics_tensor, nnops):
        make = module.make_result
        monkeypatch.setattr(module, "make_result", lambda *args, make=make: results.append(args) or make(*args))
    action = pol.action(scene, pol.language(task.instruction), cameras)
    assert (len(built), len(results)) == (0, 0) and action.shape == (7,)
    pol.head(pol.forward(pol.featurize([scene], cameras), [task.instruction], stack_proprio([scene])))
    assert built and results


def test_policy_camera_count_mismatch():
    sim = SimConfig()
    tasks = make_tasks()
    scene = reset(tasks[0], seed=0)
    pol = Policy(PolicyConfig(), tuple(t.instruction for t in tasks), seed=2)
    with pytest.raises(ShapeError):
        pol.featurize([scene], seen_cameras(sim)[:1])


@pytest.mark.parametrize("backbone", ["geo", "pixel"])
def test_featurize_rejects_an_empty_batch(backbone):
    pol = Policy(PolicyConfig(backbone_kind=backbone), tuple(t.instruction for t in make_tasks()), seed=2)
    with pytest.raises(ShapeError, match="at least one scene"):
        pol.featurize([], seen_cameras(SimConfig()))


# Recorded from the per-frame renderer this batched one replaced: pixel
# featurize of 3 seeded steps from each task's demo (dataset seed 7) under the
# seen pair and a novel_medium pair (seed 7).
GOLDEN_PIXEL_FEATURIZE = {
    "seen": "2cc87ca188bd27df27b416175592dd4cc76b913b7e8de7bd6f330e4901a701cb",
    "novel_medium": "39863a559e39facfc25954d5a354955af09e2ff38cfe774dd1bca4b0fa269fc4",
}


@pytest.mark.parametrize("category", sorted(GOLDEN_PIXEL_FEATURIZE))
def test_pixel_featurize_golden_hash_and_rows(category):
    sim = SimConfig()
    tasks = make_tasks()
    data = generate_dataset(tasks, 1, seed=7, sim=sim)
    rng = np.random.default_rng(7)
    scenes = [ep.scenes[i] for ep in data.episodes for i in rng.choice(len(ep.scenes), size=3, replace=False)]
    cameras = sample_viewpoints(category, 2, seed=7, sim=sim)
    pol = Policy(PolicyConfig(backbone_kind="pixel"), tuple(t.instruction for t in tasks), seed=0)
    frames = pol.featurize(scenes, cameras)
    assert frames.shape == (12, 2, 3, sim.image_size, sim.image_size) and frames.dtype == np.float32
    assert hashlib.sha256(np.ascontiguousarray(frames).tobytes()).hexdigest() == GOLDEN_PIXEL_FEATURIZE[category]
    for row, scene in zip(frames, scenes):
        assert np.array_equal(row, pol.featurize([scene], cameras)[0])


def test_pixel_featurize_rejects_mixed_image_sizes():
    sim = SimConfig()
    tasks = make_tasks()
    scene = reset(tasks[0], seed=0)
    top, side = seen_cameras(sim)
    cameras = [top, replace(side, image_size=24)]
    pol = Policy(PolicyConfig(backbone_kind="pixel"), tuple(t.instruction for t in tasks), seed=2)
    with pytest.raises(CameraError):
        pol.featurize([scene], cameras)
    with pytest.raises(CameraError):
        pol.action(scene, pol.language(tasks[0].instruction), cameras)
