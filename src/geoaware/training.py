"""Behavior-cloning trainer and checkpoint persistence.

Observations are derived at batch time: the frozen featurizer (or renderer)
runs on the demos' scenes, so datasets stay small and the two backbones train
from identical demonstrations.  The VQ head trains in two phases: the action
codebook first, alone; then the policy with the codebook frozen.
"""

from __future__ import annotations

import ctypes
import json
import logging
import platform
import struct
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from geoaware.backbones import GeoStubConfig, pooled_features
from geoaware.deskworld.camera import seen_cameras
from geoaware.deskworld.world import ACTION_WIDTH, SimConfig, stack_proprio
from geoaware.errors import ConfigError, ConfigMismatchError, FormatError, NumericAbort, NumericError
from geoaware.numerics import Tensor, adamw_step, init_adamw, no_grad
from geoaware.persist import from_dict, read_int, write_atomic
from geoaware.policy import (
    Policy,
    PolicyConfig,
    codebook_param_names,
    encode_language,
    vqbet_train_loss,
    vqvae_loss,
)

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"GAVP"
CHECKPOINT_VERSION = 5

# glibc's mallopt parameters, from <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


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

    def validate(self, error=ConfigError):
        """``self`` if the step counts are positive and ``lr``, ``seed``,
        ``weight_decay`` and ``eval_every`` are not negative; else raises ``error``."""
        if self.steps < 1 or self.batch_size < 1:
            raise error("steps and batch_size must be positive")
        if self.vq_pretrain_steps < 1:
            raise error("vq_pretrain_steps must be positive")
        for name in ("lr", "weight_decay", "seed", "eval_every"):
            if not getattr(self, name) >= 0:        # NaN fails too
                raise error(f"train {name} must not be negative, got {getattr(self, name)}")
        return self


@dataclass
class Batch:
    vision: np.ndarray          # [B, VIEWS, ...] pyramid or images
    instructions: list
    proprio: np.ndarray         # [B, PROPRIO_WIDTH]
    targets: np.ndarray         # [B, T_c, ACTION_WIDTH] expert chunks, zero-padded
    mask: np.ndarray            # [B, T_c] 1 where the chunk step existed


def _action_table(dataset):
    """Every step's expert action [N, ACTION_WIDTH], in ``sample_index``
    order, with each episode's first row and end row [E].  Built per
    ``bc_train`` call, never kept on the dataset, which may grow."""
    lengths = np.array([len(ep.actions) for ep in dataset.episodes], dtype=np.intp)
    ends = np.cumsum(lengths)
    actions = np.concatenate([ep.actions for ep in dataset.episodes] + [np.zeros((0, ACTION_WIDTH))])
    return actions, ends - lengths, ends


def _chunk_targets(table, indices, t_c, dtype):
    """Expert chunks [B, T_c, ACTION_WIDTH] and validity mask [B, T_c] for
    (episode, step) pairs, gathered from an ``_action_table``; chunk steps
    past the episode end are +0.0 with mask 0.  A step outside its episode
    raises ``IndexError``."""
    actions, starts, ends = table
    pairs = np.asarray(indices, dtype=np.intp).reshape(-1, 2)
    episodes, steps = pairs[:, 0], pairs[:, 1]
    first, end = starts[episodes], ends[episodes]
    bad = (steps < 0) | (first + steps >= end)
    if bad.any():
        row = int(np.argmax(bad))
        raise IndexError(f"step {steps[row]} out of range for episode {episodes[row]}")
    rows = (first + steps)[:, None] + np.arange(t_c)
    mask = rows < end[:, None]
    targets = np.zeros(mask.shape + (ACTION_WIDTH,), dtype=dtype)
    targets[mask] = actions[rows[mask]]
    return targets, mask.astype(dtype)


def make_batch(dataset, indices, policy: Policy, cameras, cache=None, actions=None):
    """Assemble one training batch for the given (episode, step) pairs.

    Featurization happens here, per batch; ``cache`` (a dict) memoizes
    per-step observation tensors across batches, keyed by index pair.
    ``actions`` is the dataset's ``_action_table``, built here when not given.
    """
    table = _action_table(dataset) if actions is None else actions
    targets, mask = _chunk_targets(table, indices, policy.cfg.chunk_len, policy.dtype)
    scenes = [dataset.episodes[e].scenes[s] for e, s in indices]
    instructions = [dataset.episodes[e].task.instruction for e, s in indices]

    if cache is None:
        vision = policy.featurize(scenes, cameras)
    else:
        missing = [(pos, key) for pos, key in enumerate(indices) if key not in cache]
        if missing:
            fresh = policy.featurize([scenes[pos] for pos, _ in missing], cameras)
            for (_, key), row in zip(missing, fresh):
                cache[key] = row
        vision = np.stack([cache[key] for key in indices])
    return Batch(
        vision=vision,
        instructions=instructions,
        proprio=stack_proprio(scenes).astype(policy.dtype),
        targets=targets,
        mask=mask,
    )


def masked_chunk_mse(pred, batch):
    """MSE over valid chunk steps only (padding past episode end is ignored)."""
    weights = np.repeat(batch.mask[:, :, None], ACTION_WIDTH, axis=2)
    diff = (pred - Tensor(batch.targets)) * Tensor(weights)
    denom = float(weights.sum())
    return (diff * diff).sum() * (1.0 / denom)


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


def calibrate_input_stats(
    policy: Policy, dataset, cameras, rng, samples=CALIBRATION_SAMPLES, cache=None, actions=None
):
    """Fold probe-batch feature statistics into the shared projection's initial weights.

    Either backbone's conv stage (``pooled_features``) hands ``vision.mlp``
    features whose per-dimension means sit tens of standard deviations away
    from zero: static keypoints and the positive relu/pool stage both
    contribute large constants.  Adam scales its steps by gradient magnitude,
    and against such offsets the informative part of the gradient is a
    rounding error, so the policy reliably trains into a vision-blind
    optimum.  The standard remedy without touching the architecture is
    data-dependent initialization: measure the per-dimension mean and scale
    of each projection layer's input on a probe batch and fold them into that
    layer's weights (see ``_fold_layer``).  Later stages are insulated by the
    trunk's layer norms.  Deterministic given dataset, policy, and rng; the
    folded weights are ordinary trainable parameters, so checkpoints carry
    them unchanged.  ``cache`` and ``actions`` go to ``make_batch``.
    """
    if not dataset.episodes:
        raise ConfigError("cannot calibrate on an empty dataset")
    pairs = dataset.sample_index()
    picks = rng.integers(0, len(pairs), size=samples)
    store = policy.params
    feats = []
    with no_grad():
        for lo in range(0, samples, CALIBRATION_CHUNK):
            idx = [pairs[i] for i in picks[lo:lo + CALIBRATION_CHUNK]]
            batch = make_batch(dataset, idx, policy, cameras, cache, actions)
            z_lang = encode_language(batch.instructions, store, policy.vocab)
            feats.append(pooled_features(batch.vision, z_lang, store, policy.cfg.backbone_kind).values)
    features = np.concatenate(feats).astype(np.float64)
    hidden = _fold_layer(store, features, "vision.mlp.1.w", "vision.mlp.1.b")
    _fold_layer(store, hidden, "vision.mlp.2.w", "vision.mlp.2.b")


def _keep_freed_heap():
    """On glibc, serve blocks up to 32 MiB from the heap, and return freed
    heap memory to the kernel only past 128 MiB; elsewhere do nothing.
    Setting either threshold switches off glibc's dynamic mmap threshold,
    which would otherwise raise both as large blocks are freed, so both are
    set."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 128 << 20)


def bc_train(dataset, cfg: TrainConfig, policy: Policy):
    """Train ``policy`` on expert demonstrations; returns (policy, losses).

    Optimization starts from input-calibrated feature MLP weights (see
    ``calibrate_input_stats``).  ``losses`` holds one scalar per optimization
    step, VQ pretraining included.  Finiteness is checked once per step in
    both phases: the loss before ``backward`` and every gradient in
    ``adamw_step``, so intermediate NaN/Inf surface there.  A non-finite
    loss or gradient raises ``NumericAbort`` with the failing step and the
    parameter norms, before that step changes any parameter.  Fixed seed and
    config give bit-identical results.

    On glibc it first sets the process's malloc thresholds (see
    ``_keep_freed_heap``), and the setting outlives the call.  A pixel step
    frees multi-MB temporaries (im2col and pad buffers, gradients, the
    stacked frame batch); by default glibc hands them back to the kernel, and
    the next step page-faults them in again.  The setting changes no
    arithmetic.
    """
    _keep_freed_heap()
    cfg.validate()
    if not dataset.episodes:
        raise ConfigError("cannot train on an empty dataset")
    if (policy.cfg.head_kind, policy.cfg.backbone_kind) != (cfg.head_kind, cfg.backbone_kind):
        raise ConfigError("policy head/backbone disagree with the train config")

    store = policy.params
    cameras = seen_cameras(dataset.sim)
    pairs = dataset.sample_index()
    rng = np.random.default_rng([cfg.seed, 211])
    cache = {} if policy.cfg.backbone_kind == "pixel" else None
    actions = _action_table(dataset)
    calibrate_input_stats(
        policy, dataset, cameras, rng=np.random.default_rng([cfg.seed, CALIBRATION_SEED_SALT]), cache=cache,
        actions=actions,
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
                targets, _ = _chunk_targets(actions, draw(), policy.cfg.chunk_len, policy.dtype)
                loss, _ = vqvae_loss(Tensor(targets.reshape(len(targets), -1)), store, policy.cfg)
                return _descend(loss, store, opt)

            losses.append(_abort_guard(step_no, store, vq_step))
            if cfg.eval_every and (step_no + 1) % cfg.eval_every == 0:
                log.info("vq pretrain step %d loss %.6f", step_no + 1, losses[-1])
        store.set_frozen(codebook | {"lang.table"})

    for step_no in range(cfg.steps):
        def bc_step():
            batch = make_batch(dataset, draw(), policy, cameras, cache, actions)
            h_action = policy.forward(batch.vision, batch.instructions, batch.proprio)
            if policy.cfg.head_kind == "mlp":
                loss = masked_chunk_mse(policy.head(h_action), batch)
            else:
                flat = batch.targets.reshape(len(batch.targets), -1)
                loss, _ = vqbet_train_loss(h_action, Tensor(flat), store, policy.cfg)
            return _descend(loss, store, opt)

        losses.append(_abort_guard(step_no, store, bc_step))
        if cfg.eval_every and (step_no + 1) % cfg.eval_every == 0:
            recent = losses[-min(100, len(losses)):]
            log.info("bc step %d loss %.6f (mean of last %d: %.6f)",
                     step_no + 1, losses[-1], len(recent), float(np.mean(recent)))
    return policy, losses


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(policy: Policy, path, step=0, train: TrainConfig | None = None, sim: SimConfig | None = None):
    """Serialize config + parameters.

    Layout: the magic ``GAVP``, a u32 version and a u32 header length (both
    little-endian), the JSON header (sorted keys), then every tensor's
    float32 little-endian payload, concatenated in store order.  The header
    holds the ``policy``, ``geo``, ``train`` and ``sim`` sections, ``vocab``,
    ``tensors`` (``[name, shape]`` per tensor, in store order), the sorted
    ``frozen`` names and ``step``.  Version 3 has one vision projection
    ``vision.mlp`` for either backbone and no codebook flag: a VQ codebook is
    trained when ``vq.codes`` is frozen.  Version 4 drops ``views`` from the
    ``policy`` section: the view count is the constant ``camera.VIEWS``.
    Version 5 stores fused tensors: the geo token convs as ``vision.conv.w``
    [L, conv_dim, D, 3] and ``vision.conv.b`` [L, conv_dim] instead of one
    ``vision.conv{i}`` pair per layer, and each trunk block's q, k and v
    projections as ``attn.qkv.w`` [H, 3H] and ``attn.qkv.b`` [3H]; older
    versions are rejected.
    Round-trips are bitwise for float32 policies (the training precision).  A
    ``step`` that is not a non-negative int raises ``ConfigError`` before
    anything is written.
    """
    if type(step) is not int or step < 0:
        raise ConfigError(f"checkpoint step must be a non-negative int, got {step!r}")
    store = policy.params
    names = store.names()
    header = {
        "policy": asdict(policy.cfg),
        "geo": asdict(policy.geo),
        "vocab": list(policy.vocab),
        "train": asdict(train) if train is not None else None,
        "sim": asdict(sim) if sim is not None else None,
        "tensors": [[name, list(store[name].values.shape)] for name in names],
        "frozen": sorted(store.frozen_names()),
        "step": step,
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(encoded))
    payloads = [np.ascontiguousarray(store[name].values, dtype="<f4").tobytes() for name in names]
    write_atomic(path, b"".join([prefix, encoded, *payloads]))


@dataclass
class CheckpointBundle:
    policy: Policy
    step: int
    train: TrainConfig | None
    sim: SimConfig | None


_HEADER_KEYS = {"policy", "geo", "vocab", "train", "sim", "tensors", "frozen", "step"}


def _parse_header(header):
    """(policy, geo, vocab, train, sim) from a checkpoint's JSON header, after
    checking every key's type and every section's values; ``train`` and ``sim`` may be null."""
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        found = sorted(header) if isinstance(header, dict) else type(header).__name__
        raise FormatError(f"checkpoint header needs exactly the keys {sorted(_HEADER_KEYS)}, got {found}")
    for key in ("vocab", "frozen"):
        if not isinstance(header[key], list) or not all(isinstance(word, str) for word in header[key]):
            raise FormatError(f"checkpoint {key} must be a list of strings")
    if not isinstance(header["tensors"], list):
        raise FormatError("checkpoint tensors must be a list")
    if read_int(header["step"], "checkpoint step") < 0:
        raise FormatError(f"checkpoint step must not be negative, got {header['step']}")
    policy = from_dict(PolicyConfig, header["policy"], "policy", FormatError)
    geo = from_dict(GeoStubConfig, header["geo"], "geo", FormatError)
    train, sim = (
        None if header[name] is None else from_dict(cls, header[name], name, FormatError)
        for name, cls in (("train", TrainConfig), ("sim", SimConfig))
    )
    geo.validate(FormatError)
    policy.validate(geo, FormatError)
    for section in filter(None, (train, sim)):
        section.validate(FormatError)
    return policy, geo, tuple(header["vocab"]), train, sim


def load_checkpoint(path) -> CheckpointBundle:
    """Rebuild a policy from a checkpoint written by ``save_checkpoint``.

    A file that is not such a checkpoint, or whose payload holds a NaN or
    infinity, raises ``FormatError`` (naming the tensor); a header
    whose ``tensors`` differ from the ones its own config implies raises
    ``ConfigMismatchError``.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file (bad magic or truncated prefix)")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from exc
    body = memoryview(raw)[12 + header_len:]

    pcfg, geo, vocab, train, sim = _parse_header(header)
    policy = Policy(pcfg, vocab, seed=0, geo=geo, dtype=np.float32)
    store = policy.params
    implied = [[name, list(store[name].values.shape)] for name in store.names()]
    # compared as JSON text, so a dim written as 8.0 or true does not pass for 8 or 1
    for i, (stored, expected) in enumerate(zip_longest(header["tensors"], implied)):
        if json.dumps(stored) != json.dumps(expected):
            raise ConfigMismatchError(f"checkpoint tensors[{i}] is {stored!r}, its config implies {expected!r}")
    sizes = [store[name].values.size for name, _ in implied]
    if len(body) != 4 * sum(sizes):
        raise FormatError(f"checkpoint body holds {len(body)} bytes, its tensors need {4 * sum(sizes)}")
    chunks = np.split(np.frombuffer(body, dtype="<f4"), np.cumsum(sizes)[:-1])
    for (name, shape), chunk in zip(implied, chunks):
        if not np.all(np.isfinite(chunk)):
            raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
        store[name].values = chunk.reshape(shape).copy()
    unknown = set(header["frozen"]) - set(store.names())
    if unknown:
        raise FormatError(f"checkpoint freezes tensors its config does not have: {sorted(unknown)}")
    store.set_frozen(header["frozen"])
    return CheckpointBundle(policy=policy, step=header["step"], train=train, sim=sim)
