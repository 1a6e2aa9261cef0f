"""Malformed-input fuzzing of every loader: checkpoints, run configs, demo
datasets and reports.

Each loader gets a valid file, then seeded corruptions of it: truncation at
several offsets, a flipped bit in its JSON header, a dropped key, an extra key
and a value of the wrong type.  A corrupted file must either load or raise a
``GeoAwareError``; when it does not load, the CLI command that reads it must
exit 1, 3 or 4 rather than print a traceback.
"""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from geoaware.bench import AblationReport, EvalReport, emit_report
from geoaware.cli import main
from geoaware.config import RunConfig, load_config
from geoaware.backbones import GeoStubConfig
from geoaware.deskworld.dataset import generate_dataset, load_dataset, save_dataset
from geoaware.deskworld.world import SimConfig, make_tasks
from geoaware.errors import ConfigError, ConfigMismatchError, FormatError, GeoAwareError
from geoaware.policy import Policy, PolicyConfig
from geoaware.training import TrainConfig, load_checkpoint, save_checkpoint

SEED = 20240917
PICKS = 2           # keys per document for each key mutation
FLIPS = 3
TRUNCATIONS = 4
MUTATIONS = ("truncate", "flip", "drop", "extra", "retype")


class Checkpoint:
    """Binary checkpoint: magic, version, a length-prefixed JSON header, tensors."""

    def __init__(self, raw):
        (length,) = struct.unpack("<I", raw[8:12])
        self.prefix, self.body = raw[:8], raw[12 + length:]
        self.header_span = (12, 12 + length)
        self.docs = [json.loads(raw[12:12 + length])]

    def encode(self, docs):
        header = json.dumps(docs[0], sort_keys=True).encode("utf-8")
        return self.prefix + struct.pack("<I", len(header)) + header + self.body


class JsonDoc:
    """One JSON document per file (run configs, reports)."""

    def __init__(self, raw):
        self.docs = [json.loads(raw)]
        self.header_span = (0, len(raw))

    def encode(self, docs):
        return json.dumps(docs[0]).encode("utf-8")


class JsonLines:
    """Dataset: a JSON header line, then one JSON line per episode."""

    def __init__(self, raw):
        self.docs = [json.loads(line) for line in raw.splitlines()]
        self.header_span = (0, raw.index(b"\n"))

    def encode(self, docs):
        return "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")


def _write_checkpoint(path):
    cfg = PolicyConfig(repr_dim=8, conv_dim=4, hidden_dim=8, lang_embed_dim=4, trunk_layers=1, trunk_heads=2,
                       head_kind="vqbet", vq_codes=4, vq_dim=2, vq_hidden=4)
    geo = GeoStubConfig(num_layers=4, feature_dim=4)
    policy = Policy(cfg, ("push it", "pull it"), seed=1, geo=geo)
    save_checkpoint(policy, path, step=3, train=TrainConfig(steps=3), sim=SimConfig(grasp_radius=0.04))


def _write_config(path):
    cfg = RunConfig(seed=2, train=TrainConfig(steps=10), sim=SimConfig(max_episode_steps=50))
    path.write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")


def _write_dataset(path):
    save_dataset(generate_dataset(make_tasks()[:1], 1, seed=0), path)


def _eval_report():
    return EvalReport(model="geo-mlp", category="seen", tasks=[{"id": "t0", "successes": 1, "rollouts": 2, "rate": 50.0}],
                      average_rate=50.0, mean_episode_length=7.5, seeds=[0])


def _write_eval_report(path):
    emit_report(_eval_report(), "json", path)


def _write_ablation_report(path):
    row = {"mode": "even", "selected": 4, "label": "even(4)", "default": True,
           "seen": _eval_report().to_dict(), "novel_medium": _eval_report().to_dict()}
    emit_report(AblationReport(rows=[row]), "json", path)


def _report_commands(path, tmp):
    return [["report", "--in", str(path), "--format", fmt] for fmt in ("md", "csv")]


# name -> (writer, file format, loader, CLI commands reading the file).  Reports
# have no loader apart from the ``report`` command, so only the CLI runs.
LOADERS = {
    "checkpoint": (_write_checkpoint, Checkpoint, load_checkpoint,
                   lambda path, tmp: [["eval", "--ckpt", str(path), "--rollouts", "1"]]),
    "config": (_write_config, JsonDoc, load_config,
               lambda path, tmp: [["gen-data", "--config", str(path), "--out", str(tmp / "d.jsonl"),
                                   "--episodes-per-task", "1"]]),
    "dataset": (_write_dataset, JsonLines, load_dataset,
                lambda path, tmp: [["train", "--data", str(path), "--out", str(tmp / "p.ckpt"), "--steps", "1"]]),
    "eval-report": (_write_eval_report, JsonDoc, None, _report_commands),
    "ablation-report": (_write_ablation_report, JsonDoc, None, _report_commands),
}


def _key_paths(value, path=()):
    """(path to a dict, key) for every key of every nested object."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield path, key
            yield from _key_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _key_paths(child, path + (i,))


def _dict_paths(value, path=()):
    if isinstance(value, dict):
        yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _dict_paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _wrong_type(value):
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return {"a": 1}
    if isinstance(value, dict):
        return [1]
    return "null"


def _corruptions(raw, fmt, mutation, rng):
    """(description, bytes) for one mutation kind, drawn from ``rng``."""
    if mutation == "truncate":
        offsets = {0, 1, len(raw) - 1} | {int(x) for x in rng.integers(2, len(raw) - 1, TRUNCATIONS - 3)}
        return [(f"truncated to {n} bytes", raw[:n]) for n in sorted(offsets)]
    if mutation == "flip":
        lo, hi = fmt.header_span
        out = []
        for _ in range(FLIPS):
            pos, bit = int(rng.integers(lo, hi)), int(rng.integers(0, 8))
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            out.append((f"bit {bit} of byte {pos} flipped", bytes(flipped)))
        return out
    out = []
    for index, doc in enumerate(fmt.docs):
        candidates = list(_dict_paths(doc)) if mutation == "extra" else list(_key_paths(doc))
        for pick in rng.choice(len(candidates), size=min(PICKS, len(candidates)), replace=False):
            docs = json.loads(json.dumps(fmt.docs))
            if mutation == "extra":
                path = candidates[pick]
                _at(docs[index], path)["bogus"] = 1
                what = f"extra key at {list(path)}"
            else:
                path, key = candidates[pick]
                parent = _at(docs[index], path)
                if mutation == "drop":
                    del parent[key]
                    what = f"dropped {list(path) + [key]}"
                else:
                    parent[key] = _wrong_type(parent[key])
                    what = f"retyped {list(path) + [key]} to {parent[key]!r}"
            out.append((f"document {index}: {what}", fmt.encode(docs)))
    return out


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_corrupt_input_loads_or_raises_typed_error(name, mutation, tmp_path, capsys):
    write, fmt_cls, load, commands = LOADERS[name]
    good = tmp_path / "good"
    write(good)
    raw = good.read_bytes()
    rng = np.random.default_rng([SEED, sorted(LOADERS).index(name), MUTATIONS.index(mutation)])
    cases = _corruptions(raw, fmt_cls(raw), mutation, rng)
    assert cases
    for what, data in cases:
        path = tmp_path / "bad"
        path.write_bytes(data)
        if load is None:
            for argv in commands(path, tmp_path):
                assert main(argv) in (0, 1, 4), what
            continue
        try:
            load(path)
        except GeoAwareError:
            for argv in commands(path, tmp_path):
                assert main(argv) in (1, 3, 4), what
    capsys.readouterr()


def _checkpoint_header_edit(tmp_path, edit):
    path = tmp_path / "tiny.ckpt"
    _write_checkpoint(path)
    fmt = Checkpoint(path.read_bytes())
    edit(fmt.docs[0])
    path.write_bytes(fmt.encode(fmt.docs))
    return path


def _drop(key):
    return lambda header: header.pop(key)


@pytest.mark.parametrize(
    "edit",
    [
        _drop("policy"),
        _drop("geo"),
        _drop("vocab"),
        lambda header: header["geo"].update(bogus=1),
        lambda header: header["sim"].update(bogus=1),
        lambda header: header.update(vocab="push it"),
        lambda header: header.update(codebook_trained=True),
        lambda header: header.update(train=[]),
        lambda header: header.update(policy=None),
        lambda header: header.update(extra=1),
        lambda header: header.update(frozen="lang.table"),
        lambda header: header.update(frozen=[1]),
        lambda header: header["frozen"].append("ghost.w"),
        lambda header: header.update(step=True),
        lambda header: header.update(step=3.0),
        lambda header: header.update(step=-1),
        lambda header: header.update(tensors={}),
        lambda header: header["sim"].update(focal=0),
        lambda header: header["sim"].update(max_episode_steps=0),
        lambda header: header["policy"].update(trunk_heads=0),
        lambda header: header["policy"].update(repr_dim=-8),
        lambda header: header["geo"].update(feature_dim=0),
        lambda header: header["geo"].update(num_layers=1),
        lambda header: header["geo"].update(num_keypoints=0),
        lambda header: header["geo"].update(lift_seed=-1),
        lambda header: header["train"].update(lr=-1.0),
        lambda header: header["train"].update(weight_decay=-1.0),
        lambda header: header["train"].update(eval_every=-1),
        lambda header: header["train"].update(seed=-1),
        lambda header: header["policy"].update(offset_weight=-10.0),
        lambda header: header["policy"].update(commitment_beta=-1.0),
        lambda header: header["policy"].update(select_count=5),
        lambda header: header["policy"].update(select_mode="bogus"),
        lambda header: header["policy"].update(backbone_kind="pixel", select_mode="bogus"),
    ],
    ids=["no-policy", "no-geo", "no-vocab", "geo-extra", "sim-extra", "vocab-str", "codebook-trained-v2-key",
         "train-list", "policy-null", "header-extra", "frozen-str", "frozen-int-entry", "frozen-unknown-tensor",
         "step-bool", "step-float", "step-negative", "tensors-dict", "sim-focal-zero", "sim-max-episode-steps-zero",
         "policy-trunk-heads-zero", "policy-repr-dim-negative", "geo-feature-dim-zero", "geo-num-layers-one",
         "geo-num-keypoints-zero", "geo-lift-seed-negative", "train-lr-negative", "train-weight-decay-negative",
         "train-eval-every-negative", "train-seed-negative", "policy-offset-weight-negative",
         "policy-commitment-beta-negative", "policy-select-count-over-layers", "policy-select-mode-unknown",
         "policy-pixel-select-mode-unknown"],
)
def test_malformed_checkpoint_header_raises_format_error(tmp_path, edit, capsys):
    path = _checkpoint_header_edit(tmp_path, edit)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path)]) == 1
    capsys.readouterr()


def _float_dim(header):
    shape = header["tensors"][0][1]
    shape[0] = float(shape[0])


@pytest.mark.parametrize("edit", [lambda header: header["tensors"][0][1].append(1), _float_dim],
                         ids=["extra-dim", "float-dim"])
def test_checkpoint_tensor_shape_mismatch_exits_3(tmp_path, edit, capsys):
    path = _checkpoint_header_edit(tmp_path, edit)
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path)]) == 3
    capsys.readouterr()


def test_checkpoint_without_train_and_sim_loads(tmp_path):
    path = _checkpoint_header_edit(tmp_path, lambda header: header.update(train=None, sim=None))
    bundle = load_checkpoint(path)
    assert bundle.train is None and bundle.sim is None
    assert bundle.policy.geo.num_layers == 4


@pytest.mark.parametrize(
    "doc",
    [{"seed": "x"}, {"seed": True}, {"train": {"steps": "10"}}, {"policy": {"hidden_dim": "64"}},
     {"sim": {"focal": None}}, {"sim": {"focal": float("inf")}}, {"train": {"lr": float("nan")}},
     {"sim": {"max_step": float("-inf")}}, {"sim": {"focal": 10 ** 400}}, {"sim": {"focal": 0}},
     {"sim": {"camera_radius": 0}}, {"sim": {"max_step": -0.05}}, {"sim": {"grasp_radius": 0.0}},
     {"sim": {"max_episode_steps": 0}}, {"policy": {"trunk_heads": 0}}, {"policy": {"conv_dim": -1}},
     {"geo": {"feature_dim": 0}}, {"geo": {"num_layers": 1}}, {"geo": {"num_keypoints": 0}},
     {"geo": {"lift_seed": -1}}, {"train": {"lr": -1.0}},
     {"train": {"weight_decay": -1e-4}}, {"train": {"eval_every": -1}}, {"seed": -1}, {"train": {"seed": -1}},
     {"policy": {"offset_weight": -10.0}}, {"policy": {"commitment_beta": -1.0}},
     {"policy": {"backbone_kind": "pixel", "select_mode": "bogus"}, "train": {"backbone_kind": "pixel"}}],
    ids=["seed-str", "seed-bool", "train-steps-str", "policy-hidden-dim-str", "sim-focal-null", "sim-focal-inf",
         "train-lr-nan", "sim-max-step-neg-inf", "sim-focal-huge-int", "sim-focal-zero", "sim-camera-radius-zero",
         "sim-max-step-negative", "sim-grasp-radius-zero", "sim-max-episode-steps-zero", "policy-trunk-heads-zero",
         "policy-conv-dim-negative", "geo-feature-dim-zero", "geo-num-layers-one", "geo-num-keypoints-zero",
         "geo-lift-seed-negative", "train-lr-negative", "train-weight-decay-negative", "train-eval-every-negative", "seed-negative",
         "train-seed-negative", "policy-offset-weight-negative", "policy-commitment-beta-negative",
         "policy-pixel-select-mode-unknown"],
)
def test_mistyped_run_config_raises_config_error(tmp_path, doc, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.jsonl")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [lambda header: [], lambda header: dict(header, seed="x"), lambda header: {k: v for k, v in header.items() if k != "seed"}],
    ids=["header-list", "seed-str", "no-seed"],
)
def test_malformed_dataset_header_raises_format_error(tmp_path, edit):
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    path.write_bytes(fmt.encode([edit(fmt.docs[0])] + fmt.docs[1:]))
    with pytest.raises(FormatError):
        load_dataset(path)


@pytest.mark.parametrize(
    "edit",
    [lambda docs: docs[0].update(seed=3.7),
     lambda docs: docs[1].update(seed=True),
     lambda docs: docs[0]["sim"].update(image_size="32"),
     lambda docs: docs[0]["tasks"][0].update(index=0.0),
     lambda docs: docs[0].update(format_version=True),
     lambda docs: docs[0].update(format_version=1.0)],
    ids=["header-seed-float", "episode-seed-bool", "camera-image-size-str", "task-index-float",
         "header-format-version-bool", "header-format-version-float"],
)
def test_mistyped_dataset_int_raises_format_error(tmp_path, edit, capsys):
    # integer fields are never coerced: 3.7 must not load as seed 3
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    edit(fmt.docs)
    path.write_bytes(fmt.encode(fmt.docs))
    with pytest.raises(FormatError):
        load_dataset(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [lambda docs: docs[0]["sim"].update(focal="48.5"),
     lambda docs: docs[0]["tasks"][0]["regions"][0].__setitem__(2, "0.06"),
     lambda docs: docs[1]["actions"][1].__setitem__(2, False),
     lambda docs: docs[1]["actions"].__setitem__(0, 0.0)],
    ids=["camera-focal-str", "task-radius-str", "step-action-entry-bool", "step-action-scalar"],
)
def test_mistyped_dataset_float_raises_format_error(tmp_path, edit, capsys):
    # float fields accept ints and floats only: "48.5" must not load as 48.5
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    edit(fmt.docs)
    path.write_bytes(fmt.encode(fmt.docs))
    with pytest.raises(FormatError):
        load_dataset(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1"]) == 1
    capsys.readouterr()


def _rename_task_t9(docs):
    # the header task and its episode agree, so only the code's task set can reject the id
    docs[0]["tasks"][0]["task_id"] = docs[1]["task_id"] = "t9"


@pytest.mark.parametrize(
    "edit",
    [lambda docs: docs[0]["tasks"][0]["objects"][0].__setitem__(1, "purple"),
     lambda docs: docs[0]["tasks"][0]["regions"][0].__setitem__(1, "blue"),
     lambda docs: docs[1]["actions"].__setitem__(0, docs[1]["actions"][0][:3]),
     lambda docs: docs[0]["tasks"][0].update(instruction=5),
     lambda docs: docs[0]["tasks"][0].update(task_id=3),
     lambda docs: docs[0]["tasks"][0]["objects"][0].__setitem__(0, 7),
     lambda docs: docs[0]["tasks"][0]["regions"][0].__setitem__(0, 7),
     lambda docs: docs[0]["tasks"][0]["goals"][0].__setitem__(0, 7),
     lambda docs: docs[0]["tasks"][0]["goals"][0].__setitem__(1, None),
     lambda docs: docs[1].update(task_id=0),
     lambda docs: docs[1].update(task_id="t9"),
     lambda docs: docs[1].update(seed=-1),
     lambda docs: docs[0]["tasks"][0].update(index=-1),
     lambda docs: docs[0]["tasks"].append(docs[0]["tasks"][0]),
     lambda docs: docs[1].update(steps=[]),
     lambda docs: docs[0]["tasks"][0]["regions"][0].__setitem__(2, 0.07),
     lambda docs: docs[0]["tasks"][0].update(instruction=make_tasks()[2].instruction),
     _rename_task_t9,
     lambda docs: docs[0]["sim"].update(focal=0),
     lambda docs: docs[0]["sim"].update(camera_radius=0)],
    ids=["task-object-color-purple", "task-region-color-blue", "step-action-3-entries", "task-instruction-int",
         "task-id-int", "task-object-id-int", "task-region-id-int", "task-goal-object-id-int",
         "task-goal-region-id-null", "episode-task-id-int", "episode-task-id-unknown", "episode-seed-negative",
         "task-index-negative", "task-id-duplicate", "episode-extra-key", "task-region-radius-0.07",
         "task-instruction-of-t2", "task-id-unknown", "sim-focal-zero", "sim-camera-radius-zero"],
)
def test_dataset_value_that_breaks_training_raises_format_error(tmp_path, edit, capsys):
    # each loaded on its own and then crashed training or trained on a scene that cannot exist
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    edit(fmt.docs)
    path.write_bytes(fmt.encode(fmt.docs))
    with pytest.raises(FormatError):
        load_dataset(path)
    for backbone in ("geo", "pixel"):
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1",
                     "--backbone", backbone]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [lambda docs: docs[0]["sim"].update(focal=float("inf")),
     lambda docs: docs[1]["actions"][0].__setitem__(3, float("-inf")),
     lambda docs: docs[1]["actions"][1].__setitem__(0, float("nan")),
     lambda docs: docs[0]["sim"].update(focal=10 ** 400)],
    ids=["camera-focal-inf", "step-action-neg-inf", "step-action-nan", "camera-focal-huge-int"],
)
def test_non_finite_dataset_float_raises_format_error(tmp_path, edit, capsys):
    # json reads NaN, Infinity and -Infinity; no physical quantity is one
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    edit(fmt.docs)
    path.write_bytes(fmt.encode(fmt.docs))
    with pytest.raises(FormatError, match="finite"):
        load_dataset(path)
    for backbone in ("geo", "pixel"):
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1",
                     "--backbone", backbone]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("size", [0, -32])
def test_non_positive_camera_image_size_raises_format_error(tmp_path, size, capsys):
    # an empty image is no camera: it must not load and then fail deep in training
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    fmt.docs[0]["sim"]["image_size"] = size
    path.write_bytes(fmt.encode(fmt.docs))
    with pytest.raises(FormatError, match="image_size"):
        load_dataset(path)
    for backbone in ("geo", "pixel"):
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "p.ckpt"), "--steps", "1",
                     "--backbone", backbone]) == 1
    capsys.readouterr()


def test_dataset_float_fields_accept_ints(tmp_path):
    path = tmp_path / "demos.jsonl"
    _write_dataset(path)
    fmt = JsonLines(path.read_bytes())
    fmt.docs[0]["sim"]["focal"] = 48
    fmt.docs[1]["actions"][0][6] = 1
    path.write_bytes(fmt.encode(fmt.docs))
    loaded = load_dataset(path)
    assert loaded.sim.focal == 48.0 and type(loaded.sim.focal) is float
    assert loaded.episodes[0].steps[0].action[6] == 1.0
