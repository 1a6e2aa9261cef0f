"""Trainer behavior, two-phase VQ schedule, and checkpoint persistence."""

import hashlib
import json
import platform
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import geoaware.policy
import geoaware.training as training
from geoaware.deskworld.camera import seen_cameras
from geoaware.deskworld.dataset import generate_dataset
from geoaware.deskworld.world import ACTION_WIDTH, SimConfig, make_tasks
from geoaware.errors import ConfigError, ConfigMismatchError, FormatError, NumericAbort
from geoaware.numerics import Tensor, adamw_step
from geoaware.policy import Policy, PolicyConfig, codebook_param_names
from geoaware.training import (
    CALIBRATION_SEED_SALT,
    TrainConfig,
    bc_train,
    calibrate_input_stats,
    load_checkpoint,
    make_batch,
    save_checkpoint,
)

SIM = SimConfig()


@pytest.fixture(scope="module")
def demos():
    return generate_dataset(make_tasks()[:2], episodes_per_task=2, seed=0, sim=SIM)


def small_policy(demos, seed=0, dtype=np.float32, **kw):
    base = dict(repr_dim=16, conv_dim=8, hidden_dim=16, lang_embed_dim=8, trunk_heads=2)
    base.update(kw)
    return Policy(PolicyConfig(**base), tuple(demos.instructions()), seed=seed, dtype=dtype)


def small_train(**kw):
    base = dict(steps=20, batch_size=8, seed=0, eval_every=0)
    base.update(kw)
    return TrainConfig(**base)


# -- batches -----------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_make_batch_proprio_is_the_per_scene_stack(demos, dtype):
    pol = Policy(PolicyConfig(), tuple(demos.instructions()), dtype=dtype)
    indices = demos.sample_index()[::3]
    batch = make_batch(demos, indices, pol, seen_cameras(demos.sim))
    scenes = [demos.episodes[e].scenes[s] for e, s in indices]
    # the proprio layout: ee position, ee rotation, gripper
    expected = np.asarray([np.concatenate([s.ee_pos, s.ee_rot, [s.gripper]]) for s in scenes], dtype=dtype)
    assert batch.proprio.dtype == dtype and batch.proprio.tobytes() == expected.tobytes()


def test_make_batch_shapes_and_determinism(demos):
    pol = small_policy(demos)
    indices = demos.sample_index()[:8]
    batch = make_batch(demos, indices, pol, seen_cameras(demos.sim))
    assert batch.vision.shape[:2] == (8, 2)
    assert batch.vision.dtype == np.float32
    assert batch.proprio.shape == (8, 7)
    assert batch.targets.shape == (8, 1, 7)
    assert np.all(batch.mask == 1.0)
    assert len(batch.instructions) == 8
    again = make_batch(demos, indices, pol, seen_cameras(demos.sim))
    assert batch.vision.tobytes() == again.vision.tobytes()
    assert batch.targets.tobytes() == again.targets.tobytes()
    assert batch.proprio.tobytes() == again.proprio.tobytes()


def test_make_batch_matches_stored_steps(demos):
    pol = small_policy(demos)
    batch = make_batch(demos, [(0, 3)], pol, seen_cameras(demos.sim))
    episode = demos.episodes[0]
    assert batch.instructions[0] == episode.task.instruction
    scene = episode.scenes[3]
    assert np.allclose(batch.proprio[0], np.concatenate([scene.ee_pos, scene.ee_rot, [scene.gripper]]))
    assert np.allclose(batch.targets[0, 0], episode.actions[3], atol=1e-7)


def test_make_batch_chunk_padding(demos):
    pol = small_policy(demos, chunk_len=4)
    actions = demos.episodes[0].actions
    batch = make_batch(demos, [(0, len(actions) - 2)], pol, seen_cameras(demos.sim))
    assert np.array_equal(batch.mask[0], [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(batch.targets[0, :2], actions[-2:].astype(np.float32))
    assert np.all(batch.targets[0, 2:] == 0.0)


def test_make_batch_rejects_bad_index(demos):
    pol = small_policy(demos)
    with pytest.raises(IndexError):
        make_batch(demos, [(0, 10_000)], pol, seen_cameras(demos.sim))


def loop_chunk_targets(dataset, indices, t_c, dtype):
    """Chunk targets and mask as a loop over the batch rows: the reference
    for the trainer's one-gather version."""
    targets = np.zeros((len(indices), t_c, ACTION_WIDTH))
    mask = np.zeros((len(indices), t_c))
    for row, (ep_idx, st_idx) in enumerate(indices):
        chunk = dataset.episodes[ep_idx].actions[st_idx:st_idx + t_c]
        targets[row, :len(chunk)] = chunk
        mask[row, :len(chunk)] = 1.0
    return targets.astype(dtype), mask.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk_len", [1, 3])
def test_gathered_chunk_targets_are_the_loop_version(demos, chunk_len, dtype):
    # every step, so chunks run across each episode end; negative actions
    # pad with +0.0 like the loop's zeros
    pairs = demos.sample_index()
    pol = Policy(PolicyConfig(chunk_len=chunk_len), tuple(demos.instructions()), dtype=dtype)
    got = make_batch(demos, pairs[::-1], pol, seen_cameras(demos.sim))
    targets, mask = loop_chunk_targets(demos, pairs[::-1], chunk_len, dtype)
    assert (got.targets.dtype, got.mask.dtype) == (dtype, dtype)
    assert got.targets.tobytes() == targets.tobytes() and got.mask.tobytes() == mask.tobytes()
    assert (mask == 0).any() == (chunk_len > 1)


@pytest.mark.parametrize("pair", [(0, -1), (1, 10_000), (0, 1 << 40)])
def test_chunk_targets_reject_a_step_outside_its_episode(demos, pair):
    with pytest.raises(IndexError):
        training._chunk_targets(training._action_table(demos), [(0, 0), pair], 2, np.float32)


def test_pixel_batch_cache_consistency(demos):
    cameras = seen_cameras(demos.sim)
    pairs = demos.sample_index()
    for dtype in (np.float32, np.float64):
        pol = small_policy(demos, dtype=dtype, backbone_kind="pixel")
        cache, seen = {}, set()
        # all misses; hits, misses and a repeated miss; all hits, one repeated
        for indices in (pairs[:4], pairs[2:6] + [pairs[7], pairs[3], pairs[7]], pairs[:8] + pairs[:1]):
            cached = make_batch(demos, indices, pol, cameras, cache)
            direct = make_batch(demos, indices, pol, cameras)
            assert cached.vision.dtype == dtype
            assert cached.vision.tobytes() == direct.vision.tobytes()
            seen.update(indices)
            assert set(cache) == seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_rows_restore_bitwise_for_any_blank(dtype):
    # signed zeros and NaN compare equal or unequal as floats, not as bits
    palette = np.array([0.0, -0.0, 0.06, np.nan, 1.0], dtype=dtype)
    rows = np.random.default_rng(0).choice(palette, size=(5, 2, 3, 4, 4))
    for blank in (np.zeros(rows.shape[1:], dtype), rows[0], np.full(rows.shape[1:], np.nan, dtype)):
        assert training._unpack(training._pack(rows, blank), blank).tobytes() == rows.tobytes()


def test_make_batch_featurizes_each_missing_key_once(demos, monkeypatch):
    pol = small_policy(demos, backbone_kind="pixel")
    cameras = seen_cameras(demos.sim)
    pairs = demos.sample_index()
    cache = {}
    make_batch(demos, pairs[:1], pol, cameras, cache)
    calls = []
    featurize = Policy.featurize

    def counting(self, scenes, cams):
        calls.append(scenes)
        return featurize(self, scenes, cams)

    monkeypatch.setattr(Policy, "featurize", counting)
    indices = [pairs[1], pairs[0], pairs[1]]
    cached = make_batch(demos, indices, pol, cameras, cache)
    e, s = pairs[1]
    assert len(calls) == 1 and len(calls[0]) == 1 and calls[0][0] is demos.episodes[e].scenes[s]
    assert cached.vision.tobytes() == make_batch(demos, indices, pol, cameras).vision.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pixel_cache_entries_are_compact(demos, dtype):
    # a frame is mostly background, which an entry leaves out
    pol = small_policy(demos, dtype=dtype, backbone_kind="pixel")
    cache = {}
    batch = make_batch(demos, demos.sample_index()[:32], pol, seen_cameras(demos.sim), cache)
    assert len(cache) == 32
    assert sum(part.nbytes for entry in cache.values() for part in entry) < batch.vision.nbytes / 8


# -- training loop -----------------------------------------------------------


def test_zero_lr_leaves_parameters_bitwise(demos):
    # the input-statistics fold runs before optimization, so snapshot a
    # separately calibrated twin rather than the raw initialization
    twin = small_policy(demos)
    calibrate_input_stats(
        twin, demos, seen_cameras(demos.sim), rng=np.random.default_rng([0, CALIBRATION_SEED_SALT])
    )
    before = twin.params.hash_of()
    pol = small_policy(demos)
    _, losses = bc_train(demos, small_train(lr=0.0), policy=pol)
    assert len(losses) == 20
    assert pol.params.hash_of() == before


def test_training_is_deterministic(demos):
    runs = []
    for _ in range(2):
        pol = small_policy(demos)
        pol, losses = bc_train(demos, small_train(steps=10), policy=pol)
        runs.append((pol.params.hash_of(), tuple(losses)))
    assert runs[0] == runs[1]


# sha256 of the float64 loss list, and the trained parameters' hash, of a
# short run per backbone/head at batch 64: three VQ steps where the head has
# them, then three BC steps.  At batch 64 the pixel stage's first layer
# multiplies 32,768-column im2col matrices, as the benchmark's training does.
GOLDEN_LOSS_STREAMS = {
    ("geo", "mlp"): (
        "03fa736d79f80f95838418b50cd25520eb1813d9578540b07cbef05a41c8837e",
        "be05c7fa8359cdfcbc29c7fcf3dc17a1944ab1ba9a23d25cc47efee1badcd59c",
    ),
    ("geo", "vqbet"): (
        "6cb3e2f904e9394b68d5bc5e11b7ce694bb8e0667585f7cd08cf3b2dd421077f",
        "7427a06ce910c0d4c1cee067e263322f4c11dcf08d27a6104d440e549fbf0456",
    ),
    ("pixel", "mlp"): (
        "b878079446ebb1cf4d3d887ffcd4d56c9b25ec7a83fa4c2079a54e2db8268e5e",
        "a71260bc0b72321b113784c066b5ebca32cf74a71484531a32f5330ba74bccf9",
    ),
    ("pixel", "vqbet"): (
        "8f2db6fffc200c2edfd3fdb254d6b80c921b6c8644d8200fb8d5963578e40d3f",
        "24e370dbdaa9957bc657370d4d0eccf1aa066a2dc542c95f51b305eb52574d47",
    ),
}


@pytest.mark.parametrize(
    "backbone, head", sorted(GOLDEN_LOSS_STREAMS), ids=["/".join(key) for key in sorted(GOLDEN_LOSS_STREAMS)]
)
def test_golden_loss_streams(demos, backbone, head):
    pol = small_policy(demos, backbone_kind=backbone, head_kind=head)
    cfg = small_train(steps=3, batch_size=64, vq_pretrain_steps=3, backbone_kind=backbone, head_kind=head)
    _, losses = bc_train(demos, cfg, policy=pol)
    assert len(losses) == (6 if head == "vqbet" else 3)
    digest = hashlib.sha256(np.array(losses, dtype=np.float64).tobytes()).hexdigest()
    assert (digest, pol.params.hash_of()) == GOLDEN_LOSS_STREAMS[backbone, head]


def test_bc_phase_starts_its_own_adam_clock(demos):
    # after 3 VQ steps, the first BC step is a first Adam step for the BC
    # parameters: each moves by lr * |g| / (|g| + eps), about lr; a clock
    # carried over from the VQ phase would move them by about 0.58 lr
    pol = small_policy(demos, head_kind="vqbet")
    cfg = small_train(steps=1, vq_pretrain_steps=3, head_kind="vqbet", lr=1e-3, weight_decay=0.0)
    names = ["vq.cls.b", "vq.offset.2.b", "trunk1.ff.2.b", "lang.mlp.2.b", "proprio.2.b", "token.pos"]
    before = {name: pol.params[name].values.copy() for name in names}
    bc_train(demos, cfg, policy=pol)
    moved = np.concatenate([np.abs(pol.params[name].values - before[name]).ravel() for name in names])
    assert moved.max() <= 1.001 * cfg.lr
    assert np.median(moved) >= 0.99 * cfg.lr


# Ten 6 MiB arrays freed together: 15,360 pages that a heap which keeps its
# freed memory serves again without a page fault.
FREED_HEAP_SCRIPT = textwrap.dedent("""
    import resource

    import numpy as np

    from geoaware.deskworld.dataset import generate_dataset
    from geoaware.deskworld.world import make_tasks
    from geoaware.policy import Policy, PolicyConfig
    from geoaware.training import TrainConfig, bc_train

    demos = generate_dataset(make_tasks(), episodes_per_task=1, seed=0)
    cfg = PolicyConfig(repr_dim=16, conv_dim=8, hidden_dim=16, lang_embed_dim=8, trunk_heads=2)
    bc_train(demos, TrainConfig(steps=1, batch_size=2, eval_every=0), Policy(cfg, tuple(demos.instructions())))

    def faults_of_one_round():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(6 << 17) for _ in range(10)]
        del arrays
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for _ in range(2):
        faults_of_one_round()
    print(max(faults_of_one_round() for _ in range(5)))
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="bc_train tunes glibc's malloc only")
def test_training_keeps_freed_heap_memory(child_env):
    # a fresh interpreter, so no earlier test has set the thresholds already
    proc = subprocess.run([sys.executable, "-c", FREED_HEAP_SCRIPT], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 0.01 * 10 * 1536


# -- input-statistics initialization -----------------------------------------


def _vision_mlp_input_stats(pol, demos):
    """Mean and std per dimension of the calibrated first-layer preactivations
    over every dataset step and view."""
    from geoaware.backbones import pooled_features
    from geoaware.numerics import no_grad

    with no_grad():
        batch = make_batch(demos, demos.sample_index(), pol, seen_cameras(demos.sim))
        pooled = pooled_features(batch.vision, None, pol.params, "geo")
        stacked = pooled.values @ pol.params["vision.mlp.1.w"].values + pol.params["vision.mlp.1.b"].values
    return stacked.mean(axis=0), stacked.std(axis=0)


def test_calibration_standardizes_mlp_input(demos):
    pol = small_policy(demos)
    raw_mean, raw_std = _vision_mlp_input_stats(pol, demos)
    assert np.abs(raw_mean).max() / max(raw_std.max(), 1e-12) > 10.0  # pathological before
    calibrate_input_stats(pol, demos, seen_cameras(demos.sim), rng=np.random.default_rng(3))
    mean, std = _vision_mlp_input_stats(pol, demos)
    # preactivations should sit near the origin at order-one scale
    assert np.abs(mean).max() < 1.0
    assert std.max() < 10.0
    assert np.median(std) > 0.05


def test_calibration_is_deterministic(demos):
    hashes = []
    for _ in range(2):
        pol = small_policy(demos)
        calibrate_input_stats(pol, demos, seen_cameras(demos.sim), rng=np.random.default_rng(7))
        hashes.append(pol.params.hash_of())
    assert hashes[0] == hashes[1]


def test_calibration_only_rescales_rows_and_shifts_bias(demos):
    pol = small_policy(demos)
    w_before = pol.params["vision.mlp.1.w"].values.astype(np.float64)
    calibrate_input_stats(pol, demos, seen_cameras(demos.sim), rng=np.random.default_rng(3))
    w_after = pol.params["vision.mlp.1.w"].values.astype(np.float64)
    # each input dimension's row is scaled by one positive factor, nothing else
    ratios = w_after / w_before
    assert np.all(ratios > 0.0)
    assert np.allclose(ratios, ratios[:, :1], rtol=1e-5)
    # untouched elsewhere: the trunk keeps its raw initialization
    fresh = small_policy(demos)
    assert np.array_equal(
        pol.params["trunk0.attn.qkv.w"].values, fresh.params["trunk0.attn.qkv.w"].values
    )


@pytest.mark.parametrize("backbone", ["geo", "pixel"])
def test_calibration_embeds_instructions_for_pixel_only(demos, backbone, monkeypatch):
    # the geo conv stage takes no language, so only the pixel calibration
    # embeds its probe chunks' instructions (for their FiLM terms); each BC
    # step embeds its batch's once
    calls = []
    encode = geoaware.policy.encode_language
    monkeypatch.setattr(geoaware.policy, "encode_language", lambda *args: calls.append(args) or encode(*args))
    pol = small_policy(demos, backbone_kind=backbone)
    bc_train(demos, small_train(steps=3, backbone_kind=backbone), policy=pol)
    chunks = training.CALIBRATION_SAMPLES // training.CALIBRATION_CHUNK
    assert len(calls) == 3 + (chunks if backbone == "pixel" else 0)


def test_calibration_covers_pixel_head(demos):
    # the pixel backbone feeds the same shared projection, which calibration folds
    pol = small_policy(demos, backbone_kind="pixel")
    before = {name: pol.params[name].values.copy() for name in pol.params.names()}
    calibrate_input_stats(pol, demos, seen_cameras(demos.sim), rng=np.random.default_rng(3), samples=32)
    changed = {name for name in before if not np.array_equal(pol.params[name].values, before[name])}
    assert changed == {"vision.mlp.1.w", "vision.mlp.1.b", "vision.mlp.2.w", "vision.mlp.2.b"}
    batch = make_batch(demos, demos.sample_index()[:4], pol, seen_cameras(demos.sim))
    out = pol.head(pol.forward(batch.vision, batch.instructions, batch.proprio))
    assert np.all(np.isfinite(out.values))


def test_training_updates_and_freezes(demos):
    pol = small_policy(demos)
    lift_bytes = pol.backbone.lifts.tobytes()
    lang_before = pol.params["lang.table"].values.tobytes()
    init_hash = pol.params.hash_of()
    pol, losses = bc_train(demos, small_train(steps=10), policy=pol)
    assert pol.params.hash_of() != init_hash
    assert pol.params["lang.table"].values.tobytes() == lang_before
    assert pol.backbone.lifts.tobytes() == lift_bytes
    assert all(np.isfinite(l) for l in losses)


def test_training_loss_trends_down(demos):
    pol = small_policy(demos, repr_dim=32, conv_dim=16, hidden_dim=32)
    _, losses = bc_train(demos, small_train(steps=200, batch_size=16), policy=pol)
    head = float(np.mean(losses[:20]))
    tail = float(np.mean(losses[-20:]))
    assert tail < head


def test_mismatched_policy_and_train_config(demos):
    pol = small_policy(demos)
    with pytest.raises(ConfigError):
        bc_train(demos, small_train(head_kind="vqbet"), policy=pol)


@pytest.mark.parametrize(
    "field, value",
    [("lr", -1.0), ("lr", float("nan")), ("weight_decay", -1e-4), ("eval_every", -1), ("seed", -3)],
)
def test_train_config_rejects_bad_values(demos, field, value):
    # lr -1 used to run gradient ascent to a final loss of about 4e10 and exit 0
    cfg = small_train(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()
    with pytest.raises(FormatError, match=field):
        cfg.validate(FormatError)
    pol = small_policy(demos)
    with pytest.raises(ConfigError, match=field):
        bc_train(demos, cfg, policy=pol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_reports_step_and_norms(demos):
    pol = small_policy(demos)
    pol.params["head.1.w"].values[:] = 1e30   # overflows on the first matmul
    with pytest.raises(NumericAbort) as info:
        bc_train(demos, small_train(), policy=pol)
    assert info.value.step == 0
    assert "head.1.w" in info.value.param_norms


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_vq_loss_aborts(demos):
    pol = small_policy(demos, head_kind="vqbet", vq_codes=8, vq_dim=4)
    pol.params["vq.enc.1.w"].values[:] = 1e30   # the reconstruction loss overflows
    codebook = codebook_param_names(pol.params)
    before = pol.params.hash_of(codebook)
    with pytest.raises(NumericAbort) as info:
        bc_train(demos, small_train(head_kind="vqbet", vq_pretrain_steps=5), policy=pol)
    assert info.value.step == 0
    assert "non-finite loss" in str(info.value)
    assert pol.params.hash_of(codebook) == before


def test_non_finite_gradient_aborts_with_its_step(demos, monkeypatch):
    pol = small_policy(demos)
    seen = {}

    def faulty(store, opt):
        if opt.step_count == 3:
            store["head.2.b"].grad[0] = np.inf
            seen["params"] = store.hash_of()
        return adamw_step(store, opt)

    monkeypatch.setattr(training, "adamw_step", faulty)
    with pytest.raises(NumericAbort) as info:
        bc_train(demos, small_train(), policy=pol)
    assert info.value.step == 3
    assert "'head.2.b'" in str(info.value)
    assert pol.params.hash_of() == seen["params"]


@pytest.mark.parametrize(
    "kinds, cfg",
    [(("geo", "mlp"), dict(steps=6)), (("pixel", "vqbet"), dict(steps=4, vq_pretrain_steps=5))],
    ids=["geo-mlp", "pixel-vqbet"],
)
def test_training_matches_per_entry_optimizer(demos, monkeypatch, reference_adamw, kinds, cfg):
    backbone_kind, head_kind = kinds
    kw = dict(head_kind=head_kind, backbone_kind=backbone_kind)
    if head_kind == "vqbet":
        kw.update(vq_codes=8, vq_dim=4)
    runs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(training, "init_adamw", reference_adamw[0])
            monkeypatch.setattr(training, "adamw_step", reference_adamw[1])
        pol = small_policy(demos, **kw)
        pol, losses = bc_train(demos, small_train(head_kind=head_kind, backbone_kind=backbone_kind, **cfg), policy=pol)
        runs.append((losses, pol.params.hash_of()))
    assert runs[0] == runs[1]


def test_vqbet_two_phase_schedule(demos):
    results = []
    for steps in (1, 12):
        pol = small_policy(demos, head_kind="vqbet", vq_codes=8, vq_dim=4)
        cfg = small_train(steps=steps, head_kind="vqbet", vq_pretrain_steps=15)
        pol, losses = bc_train(demos, cfg, policy=pol)
        assert len(losses) == 15 + steps
        assert "vq.codes" in pol.params.frozen_names()
        results.append(pol.params.hash_of(codebook_param_names(pol.params)))
    # phase 2 length does not touch the codebook: it trained in phase 1 only
    assert results[0] == results[1]


def test_vqbet_codebook_actually_trains(demos):
    pol = small_policy(demos, head_kind="vqbet", vq_codes=8, vq_dim=4)
    before = pol.params.hash_of(codebook_param_names(pol.params))
    pol, _ = bc_train(demos, small_train(steps=2, head_kind="vqbet", vq_pretrain_steps=10), policy=pol)
    assert pol.params.hash_of(codebook_param_names(pol.params)) != before
    # after training, codebook params are frozen; the head is not
    assert "vq.codes" in pol.params.frozen_names()
    assert "vq.cls.w" not in pol.params.frozen_names()


def test_vqbet_training_never_decodes_a_chunk(demos, monkeypatch):
    # the VQ-BeT objective reads h_action; the inference head only serves rollouts
    calls = []
    head = geoaware.policy.vqbet_head
    monkeypatch.setattr(geoaware.policy, "vqbet_head", lambda *args: calls.append(args) or head(*args))
    pol = small_policy(demos, head_kind="vqbet", vq_codes=8, vq_dim=4)
    pol, _ = bc_train(demos, small_train(steps=3, head_kind="vqbet", vq_pretrain_steps=2), policy=pol)
    assert calls == []
    episode = demos.episodes[0]
    pol.action(episode.scenes[0], pol.language(episode.task.instruction), seen_cameras(demos.sim))
    assert len(calls) == 1


def test_overfit_smoke_single_episode(demos):
    single = type(demos)(tasks=demos.tasks, sim=demos.sim, seed=demos.seed, episodes=demos.episodes[:1])
    pol = small_policy(demos, repr_dim=32, conv_dim=16, hidden_dim=32)
    _, losses = bc_train(single, small_train(steps=300, batch_size=16), policy=pol)
    assert float(np.mean(losses[-20:])) < 0.5 * float(np.mean(losses[:20]))
    assert float(np.mean(losses[-20:])) < 6e-2


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, demos):
    pol = small_policy(demos, seed=9)
    pol, _ = bc_train(demos, small_train(steps=5), policy=pol)
    path = tmp_path / "policy.ckpt"
    save_checkpoint(pol, path, step=5, train=small_train(steps=5), sim=SIM)
    bundle = load_checkpoint(path)
    assert bundle.step == 5
    assert bundle.policy.cfg == pol.cfg
    assert bundle.policy.vocab == pol.vocab
    assert bundle.train == small_train(steps=5)
    assert bundle.sim == SIM
    assert bundle.policy.params.hash_of() == pol.params.hash_of()
    assert bundle.policy.params.frozen_names() == pol.params.frozen_names()
    for name in pol.params.names():
        assert np.array_equal(bundle.policy.params[name].values, pol.params[name].values)


def test_checkpoint_vqbet_round_trip(tmp_path, demos):
    pol = small_policy(demos, head_kind="vqbet", vq_codes=8, vq_dim=4)
    pol, _ = bc_train(demos, small_train(steps=2, head_kind="vqbet", vq_pretrain_steps=5), policy=pol)
    path = tmp_path / "vq.ckpt"
    save_checkpoint(pol, path)
    bundle = load_checkpoint(path)
    assert bundle.policy.params.hash_of() == pol.params.hash_of()
    assert "vq.codes" in bundle.policy.params.frozen_names()
    h_action = Tensor(np.zeros((1, pol.cfg.hidden_dim), dtype=np.float32))
    assert np.array_equal(bundle.policy.head(h_action).values, pol.head(h_action).values)


def test_checkpoint_bad_magic(tmp_path, demos):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path, demos):
    pol = small_policy(demos)
    path = tmp_path / "v.ckpt"
    save_checkpoint(pol, path)
    raw = bytearray(path.read_bytes())
    # version 1 kept tensor names, shapes, frozen names and step in a binary
    # layer; version 2 named the pixel projection pixel.head.* and had a
    # codebook_trained key; version 3 had a views key in its policy section;
    # version 4 stored per-layer vision.conv{i} and separate attn.q/k/v tensors
    for version in (1, 2, 3, 4, 99):
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_checkpoint_truncation(tmp_path, demos):
    pol = small_policy(demos)
    path = tmp_path / "t.ckpt"
    save_checkpoint(pol, path)
    raw = path.read_bytes()
    for cut in (3, 6, 40, len(raw) // 2, len(raw) - 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_checkpoint_trailing_data(tmp_path, demos):
    pol = small_policy(demos)
    path = tmp_path / "x.ckpt"
    save_checkpoint(pol, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path, demos):
    pol = small_policy(demos)
    path = tmp_path / "m.ckpt"
    save_checkpoint(pol, path)
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + length])
    name, shape = header["tensors"][3]
    header["tensors"][3] = [name, shape + [1]]
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + length:])
    with pytest.raises(ConfigMismatchError, match=r"tensors\[3\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("step", [-1, True, 3.0], ids=["negative", "bool", "float"])
def test_checkpoint_bad_step_raises_before_writing(tmp_path, demos, step):
    # load_checkpoint rejects such a step, so save_checkpoint must not write it
    path = tmp_path / "s.ckpt"
    with pytest.raises(ConfigError, match="step"):
        save_checkpoint(small_policy(demos), path, step=step)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_save_load_save_is_stable(tmp_path, demos):
    pol = small_policy(demos)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pol, a, step=3)
    bundle = load_checkpoint(a)
    save_checkpoint(bundle.policy, b, step=3)
    assert a.read_bytes() == b.read_bytes()
