"""Run-config structure, defaults, rejection of unknown keys, round-trip."""

import json
from dataclasses import asdict

import pytest

from geoaware.config import RunConfig, load_config
from geoaware.errors import ConfigError
from geoaware.persist import from_dict


def test_defaults_everywhere():
    cfg = from_dict(RunConfig, {}, "top-level")
    assert cfg.seed == 0
    assert cfg.policy.repr_dim == 64
    assert cfg.train.steps == 5000
    assert cfg.geo.num_layers == 12
    assert cfg.sim.max_episode_steps == 200
    assert load_config(None) == (RunConfig(), {})


def test_partial_section_overrides():
    cfg = from_dict(RunConfig, {"seed": 3, "train": {"steps": 10}, "sim": {"grasp_radius": 0.05}}, "top-level")
    assert cfg.seed == 3
    assert cfg.train.steps == 10
    assert cfg.train.batch_size == 64          # untouched default
    assert cfg.sim.grasp_radius == 0.05


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="top-level"):
        from_dict(RunConfig, {"seeed": 1}, "top-level")


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="policy"):
        from_dict(RunConfig, {"policy": {"reprdim": 32}}, "top-level")


def test_section_must_be_object():
    with pytest.raises(ConfigError):
        from_dict(RunConfig, {"train": 7}, "top-level")


def test_round_trip_lossless(tmp_path):
    cfg = from_dict(RunConfig, {"seed": 11, "policy": {"chunk_len": 2}, "geo": {"lift_seed": 9}}, "top-level")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(asdict(cfg)))
    again, raw = load_config(path)
    assert asdict(again) == asdict(cfg)
    # file is plain namespaced JSON, handed back as read
    assert raw == json.loads(path.read_text())
    assert set(raw) == {"seed", "policy", "train", "geo", "sim"}


def test_load_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.json")


def test_load_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(p)


@pytest.mark.parametrize(
    "doc, field",
    [({"policy": {"head_kind": "vqbet"}}, "head_kind"),
     ({"train": {"backbone_kind": "pixel"}}, "backbone_kind"),
     ({"sim": {"image_size": 0}}, "image_size")],
    ids=["head-kinds-disagree", "backbone-kinds-disagree", "image-size-zero"],
)
def test_validate_rejects_inconsistent_sections(doc, field):
    with pytest.raises(ConfigError, match=field):
        from_dict(RunConfig, doc, "top-level").validate()


def test_load_validates(tmp_path):
    p = tmp_path / "bad_cfg.json"
    p.write_text(json.dumps({"policy": {"hidden_dim": 65}}))   # not divisible by heads
    with pytest.raises(ConfigError):
        load_config(p)
