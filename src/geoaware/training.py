"""Behavior-cloning trainer and checkpoint persistence.

Observations are derived at batch time: the frozen featurizer (or renderer)
runs on stored scenes, so datasets stay small and the two backbones train
from identical demonstrations.  The VQ head trains in two phases: the action
codebook first, alone; then the policy with the codebook frozen.
"""

from __future__ import annotations

import io
import json
import logging
import struct
from dataclasses import asdict, dataclass

import numpy as np

from geoaware.backbones import GeoStubConfig, pixel_pooled
from geoaware.deskworld.world import SimConfig
from geoaware.errors import ConfigError, ConfigMismatchError, FormatError, NumericAbort, NumericError
from geoaware.numerics import Tensor, adamw_step, init_adamw, no_grad
from geoaware.persist import from_dict, write_atomic
from geoaware.policy import (
    Policy,
    PolicyConfig,
    codebook_param_names,
    encode_language,
    pooled_vision,
    vqbet_train_loss,
    vqvae_loss,
)

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"GAVP"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    steps: int = 5000
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    head_kind: str = "mlp"
    backbone_kind: str = "geo"
    vq_pretrain_steps: int = 2000
    eval_every: int = 1000

    def validate(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        if self.vq_pretrain_steps < 1:
            raise ConfigError("vq_pretrain_steps must be positive")
        return self


@dataclass
class Batch:
    vision: np.ndarray          # [B, V, ...] pyramid or images
    instructions: list
    proprio: np.ndarray         # [B, 7]
    targets: np.ndarray         # [B, T_c, 7] expert chunks, zero-padded
    mask: np.ndarray            # [B, T_c] 1 where the chunk step existed


def _chunk_targets(dataset, indices, t_c, dtype):
    """Expert chunks [B, T_c, 7] and validity mask [B, T_c] for index pairs;
    chunk steps past the episode end are zero with mask 0."""
    targets = np.zeros((len(indices), t_c, 7))
    mask = np.zeros((len(indices), t_c))
    for row, (ep_idx, st_idx) in enumerate(indices):
        episode = dataset.episodes[ep_idx]
        if not 0 <= st_idx < len(episode.steps):
            raise IndexError(f"step {st_idx} out of range for episode {ep_idx}")
        for k in range(t_c):
            if st_idx + k < len(episode.steps):
                targets[row, k] = episode.steps[st_idx + k].action
                mask[row, k] = 1.0
    return targets.astype(dtype), mask.astype(dtype)


def make_batch(dataset, indices, policy: Policy, cameras, cache=None):
    """Assemble one training batch for the given (episode, step) pairs.

    Featurization happens here, per batch; ``cache`` (a dict) memoizes
    per-step observation tensors across batches, keyed by index pair.
    """
    targets, mask = _chunk_targets(dataset, indices, policy.cfg.chunk_len, policy.dtype)
    scenes = [dataset.episodes[e].steps[s].scene for e, s in indices]
    instructions = [dataset.episodes[e].instruction for e, s in indices]
    proprio = [dataset.episodes[e].steps[s].proprio for e, s in indices]

    if cache is None:
        vision = policy.featurize(scenes, cameras)
    else:
        rows = []
        missing = [(pos, key) for pos, key in enumerate(indices) if key not in cache]
        if missing:
            fresh = policy.featurize([scenes[pos] for pos, _ in missing], cameras)
            for (_, key), row in zip(missing, fresh):
                cache[key] = row
        vision = np.stack([cache[key] for key in indices])
    return Batch(
        vision=vision,
        instructions=instructions,
        proprio=np.asarray(proprio, dtype=policy.dtype),
        targets=targets,
        mask=mask,
    )


def masked_chunk_mse(pred, batch):
    """MSE over valid chunk steps only (padding past episode end is ignored)."""
    weights = np.repeat(batch.mask[:, :, None], 7, axis=2)
    diff = (pred - Tensor(batch.targets)) * Tensor(weights)
    denom = float(weights.sum())
    return (diff * diff).sum() * (1.0 / denom)


def _masked_flat_targets(batch):
    """Expert chunks flattened to [B, act_dim]; padded tail steps stay zero."""
    return (batch.targets * batch.mask[:, :, None]).reshape(len(batch.targets), -1)


def _abort_guard(step_no, store, fn):
    try:
        return fn()
    except NumericError as exc:
        raise NumericAbort(step_no, store.norms(), str(exc)) from exc


def _descend(loss, store, opt):
    """One AdamW step on ``loss``; returns its value.  The loss is checked
    before ``backward`` and every gradient by ``adamw_step``, so a
    non-finite value raises ``NumericError`` before any parameter moves."""
    if not np.all(np.isfinite(loss.values)):
        raise NumericError("non-finite loss")
    loss.backward()
    adamw_step(store, opt)
    return loss.item()


# -- input-statistics initialization ----------------------------------------

CALIBRATION_SAMPLES = 1024      # probe batch behind calibrate_input_stats
CALIBRATION_SEED_SALT = 631     # decorrelates the probe draw from batch sampling
CALIBRATION_CHUNK = 128         # probe samples per encoder call; views fold in, so 256 rows


def _fold_layer(store, features, w_name, b_name):
    """Reparameterize one linear layer so its probe-batch input reads as
    standardized, and return the layer's post-relu output on that batch.

    With input mean mu and per-dimension scale sigma the fold sets
    w' = w / sigma and b' = b - mu @ w', so x @ w' + b' equals
    ((x - mu) / sigma) @ w + b exactly: the function class is untouched and
    only the starting point moves.  The scale floor keeps dimensions that are
    constant on the probe batch from exploding the weights.
    """
    w = store[w_name].values.astype(np.float64)
    b = store[b_name].values.astype(np.float64)
    mu = features.mean(axis=0)
    sigma = features.std(axis=0)
    sigma = np.maximum(sigma, max(1e-2 * float(np.median(sigma)), 1e-8))
    w_new = w / sigma[:, None]
    b_new = b - mu @ w_new
    dtype = store[w_name].values.dtype
    store.replace(w_name, w_new.astype(dtype))
    store.replace(b_name, b_new.astype(dtype))
    return np.maximum(features @ w_new + b_new, 0.0)


def calibrate_input_stats(policy: Policy, dataset, cameras=None, rng=None, samples=CALIBRATION_SAMPLES, cache=None):
    """Fold probe-batch feature statistics into the vision MLP's initial weights.

    The frozen featurizer (and the pixel conv stack) hands the policy features
    whose per-dimension means sit tens of standard deviations away from zero:
    static keypoints and the positive relu/pool stage both contribute large
    constants.  Adam scales its steps by gradient magnitude, and against such
    offsets the informative part of the gradient is a rounding error, so the
    policy reliably trains into a vision-blind optimum.  The standard remedy
    without touching the architecture is data-dependent initialization:
    measure the per-dimension mean and scale of each feature MLP layer's
    input on a probe batch and fold them into that layer's weights
    (see ``_fold_layer``).  Later stages are insulated by the trunk's layer
    norms.  Deterministic given dataset, policy, and rng; the folded weights
    are ordinary trainable parameters, so checkpoints carry them unchanged.
    """
    if not dataset.episodes:
        raise ConfigError("cannot calibrate on an empty dataset")
    cameras = list(dataset.cameras) if cameras is None else list(cameras)
    rng = np.random.default_rng(policy.seed) if rng is None else rng
    pairs = dataset.sample_index()
    picks = rng.integers(0, len(pairs), size=samples)
    store = policy.params
    feats = []
    with no_grad():
        for lo in range(0, samples, CALIBRATION_CHUNK):
            idx = [pairs[i] for i in picks[lo:lo + CALIBRATION_CHUNK]]
            batch = make_batch(dataset, idx, policy, cameras, cache)
            vision = np.asarray(batch.vision)
            folded = vision.reshape((-1,) + vision.shape[2:])        # row b * views + v, as in policy_forward
            if policy.cfg.backbone_kind == "geo":
                feats.append(pooled_vision([Tensor(folded[:, l]) for l in range(folded.shape[1])], store).values)
            else:
                z_lang = encode_language(batch.instructions, store, policy.vocab).values
                feats.append(pixel_pooled(Tensor(folded), np.repeat(z_lang, policy.cfg.views, axis=0), store).values)
    features = np.concatenate(feats).astype(np.float64)
    if policy.cfg.backbone_kind == "geo":
        hidden = _fold_layer(store, features, "vision.mlp.1.w", "vision.mlp.1.b")
        _fold_layer(store, hidden, "vision.mlp.2.w", "vision.mlp.2.b")
    else:
        hidden = _fold_layer(store, features, "pixel.head.w1", "pixel.head.b1")
        _fold_layer(store, hidden, "pixel.head.w2", "pixel.head.b2")


def bc_train(dataset, cfg: TrainConfig, policy: Policy | None = None, geo: GeoStubConfig | None = None):
    """Train a policy on expert demonstrations; returns (policy, losses).

    Optimization starts from input-calibrated feature MLP weights (see
    ``calibrate_input_stats``).  ``losses`` holds one scalar per optimization
    step, VQ pretraining included.  Finiteness is checked once per step in
    both phases: the loss before ``backward`` and every gradient in
    ``adamw_step``, so intermediate NaN/Inf surface there.  A non-finite
    loss or gradient raises ``NumericAbort`` with the failing step and the
    parameter norms, before that step changes any parameter.  Fixed seed and
    config give bit-identical results.
    """
    cfg.validate()
    if not dataset.episodes:
        raise ConfigError("cannot train on an empty dataset")
    if policy is None:
        pcfg = PolicyConfig(head_kind=cfg.head_kind, backbone_kind=cfg.backbone_kind)
        policy = Policy(pcfg, tuple(dataset.instructions()), seed=cfg.seed, geo=geo)
    elif (policy.cfg.head_kind, policy.cfg.backbone_kind) != (cfg.head_kind, cfg.backbone_kind):
        raise ConfigError("policy head/backbone disagree with the train config")

    store = policy.params
    cameras = list(dataset.cameras)
    pairs = dataset.sample_index()
    rng = np.random.default_rng([cfg.seed, 211])
    cache = {} if policy.cfg.backbone_kind == "pixel" else None
    calibrate_input_stats(
        policy, dataset, cameras, rng=np.random.default_rng([cfg.seed, CALIBRATION_SEED_SALT]), cache=cache
    )
    opt = init_adamw(store, lr=cfg.lr, weight_decay=cfg.weight_decay)
    losses = []

    def draw():
        picks = rng.integers(0, len(pairs), size=cfg.batch_size)
        return [pairs[i] for i in picks]

    if policy.cfg.head_kind == "vqbet":
        codebook = set(codebook_param_names(store))
        store.set_frozen(set(store.names()) - codebook)
        for step_no in range(cfg.vq_pretrain_steps):
            def vq_step():
                # observations are irrelevant to the action autoencoder
                targets, mask = _chunk_targets(dataset, draw(), policy.cfg.chunk_len, policy.dtype)
                flat = (targets * mask[:, :, None]).reshape(len(targets), -1)
                loss, _ = vqvae_loss(Tensor(flat), store, policy.cfg)
                return _descend(loss, store, opt)

            losses.append(_abort_guard(step_no, store, vq_step))
            if cfg.eval_every and (step_no + 1) % cfg.eval_every == 0:
                log.info("vq pretrain step %d loss %.6f", step_no + 1, losses[-1])
        store.set_frozen(codebook | {"lang.table"})
        policy.codebook_trained = True

    for step_no in range(cfg.steps):
        def bc_step():
            batch = make_batch(dataset, draw(), policy, cameras, cache)
            if policy.cfg.head_kind == "mlp":
                pred = policy.forward(batch.vision, batch.instructions, batch.proprio)
                loss = masked_chunk_mse(pred, batch)
            else:
                _, h_action = policy.forward(
                    batch.vision, batch.instructions, batch.proprio, return_trunk=True
                )
                loss, _ = vqbet_train_loss(
                    h_action, Tensor(_masked_flat_targets(batch)), store, policy.cfg, True
                )
            return _descend(loss, store, opt)

        losses.append(_abort_guard(step_no, store, bc_step))
        if cfg.eval_every and (step_no + 1) % cfg.eval_every == 0:
            recent = losses[-min(100, len(losses)):]
            log.info("bc step %d loss %.6f (mean of last %d: %.6f)",
                     step_no + 1, losses[-1], len(recent), float(np.mean(recent)))
    return policy, losses


# -- checkpoints -------------------------------------------------------------


def _write_block(out, payload: bytes):
    out.write(struct.pack("<I", len(payload)))
    out.write(payload)


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return data


def save_checkpoint(policy: Policy, path, step=0, train: TrainConfig | None = None, sim: SimConfig | None = None):
    """Serialize config + parameters.  Tensor payloads are float32
    little-endian; round-trips are bitwise for float32 policies (the training
    precision)."""
    snapshot = {
        "policy": asdict(policy.cfg),
        "geo": asdict(policy.geo),
        "vocab": list(policy.vocab),
        "codebook_trained": bool(policy.codebook_trained),
        "train": asdict(train) if train is not None else None,
        "sim": asdict(sim) if sim is not None else None,
    }
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    _write_block(buf, json.dumps(snapshot, sort_keys=True).encode("utf-8"))
    names = policy.params.names()
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        values = policy.params[name].values
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", values.ndim))
        for dim in values.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(values, dtype="<f4").tobytes())
    frozen = sorted(policy.params.frozen_names())
    buf.write(struct.pack("<I", len(frozen)))
    for name in frozen:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
    buf.write(struct.pack("<I", step))
    write_atomic(path, buf.getvalue())


@dataclass
class CheckpointBundle:
    policy: Policy
    step: int
    train: TrainConfig | None
    sim: SimConfig | None


_HEADER_KEYS = {"policy", "geo", "vocab", "codebook_trained", "train", "sim"}


def _parse_header(snapshot):
    """(policy, geo, vocab, codebook_trained, train, sim) from a checkpoint's
    JSON header; ``train`` and ``sim`` may be null."""
    if not isinstance(snapshot, dict) or set(snapshot) != _HEADER_KEYS:
        found = sorted(snapshot) if isinstance(snapshot, dict) else type(snapshot).__name__
        raise FormatError(f"checkpoint header needs exactly the keys {sorted(_HEADER_KEYS)}, got {found}")
    vocab = snapshot["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(word, str) for word in vocab):
        raise FormatError("checkpoint vocab must be a list of strings")
    if not isinstance(snapshot["codebook_trained"], bool):
        raise FormatError("checkpoint codebook_trained must be a bool")
    policy = from_dict(PolicyConfig, snapshot["policy"], "policy", FormatError)
    geo = from_dict(GeoStubConfig, snapshot["geo"], "geo", FormatError)
    train, sim = (
        None if snapshot[name] is None else from_dict(cls, snapshot[name], name, FormatError)
        for name, cls in (("train", TrainConfig), ("sim", SimConfig))
    )
    return policy, geo, tuple(vocab), snapshot["codebook_trained"], train, sim


def load_checkpoint(path, expect_policy: PolicyConfig | None = None) -> CheckpointBundle:
    """Rebuild a policy from a checkpoint.  ``expect_policy`` (when given)
    must match the stored config exactly."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        try:
            snapshot = json.loads(_read_exact(f, cfg_len, "config").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable checkpoint config: {exc}") from exc

        pcfg, geo, vocab, codebook_trained, train, sim = _parse_header(snapshot)
        if expect_policy is not None and expect_policy != pcfg:
            raise ConfigMismatchError(
                "checkpoint policy config does not match the requested config"
            )
        policy = Policy(pcfg, vocab, seed=0, geo=geo, dtype=np.float32)

        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        if count != len(policy.params):
            raise ConfigMismatchError(
                f"checkpoint stores {count} tensors, config implies {len(policy.params)}"
            )
        for _ in range(count):
            # a corrupt name decodes with U+FFFD and then matches no parameter
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            name = _read_exact(f, name_len, "tensor name").decode("utf-8", "replace")
            if name not in policy.params:
                raise ConfigMismatchError(f"checkpoint tensor {name!r} not implied by config")
            (rank,) = struct.unpack("<B", _read_exact(f, 1, "tensor rank"))
            dims = tuple(
                struct.unpack("<I", _read_exact(f, 4, "tensor dim"))[0] for _ in range(rank)
            )
            expected = policy.params[name].values.shape
            if dims != expected:
                raise ConfigMismatchError(f"tensor {name!r} has shape {dims}, expected {expected}")
            n_bytes = 4 * int(np.prod(dims, dtype=np.int64)) if dims else 4
            raw = _read_exact(f, n_bytes, f"tensor {name!r} payload")
            policy.params[name].values = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

        (n_frozen,) = struct.unpack("<I", _read_exact(f, 4, "frozen count"))
        frozen = []
        for _ in range(n_frozen):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "frozen name length"))
            frozen.append(_read_exact(f, name_len, "frozen name").decode("utf-8", "replace"))
        policy.params.set_frozen(frozen)
        (step,) = struct.unpack("<I", _read_exact(f, 4, "step"))
        if f.read(1):
            raise FormatError("trailing data after checkpoint payload")

    policy.codebook_trained = codebook_trained
    return CheckpointBundle(policy=policy, step=step, train=train, sim=sim)
