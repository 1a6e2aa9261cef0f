"""End-to-end command-line coverage: every subcommand runs against a tiny
dataset, exit codes follow the documented table (0 ok, 1 usage, 2 numeric
abort, 3 missing checkpoint or config mismatch, 4 schema mismatch), and seed
precedence is flags over config file over defaults."""

import hashlib
import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from geoaware.cli import main
from geoaware.deskworld.dataset import load_dataset
from geoaware.deskworld.world import SimConfig
from geoaware.training import load_checkpoint


SHORT_SIM = SimConfig(max_step=1.0, max_episode_steps=8)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    path = workdir / "demos.jsonl"
    code = main(["gen-data", "--out", str(path), "--episodes-per-task", "2", "--seed", "0"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def short_dataset_path(workdir):
    # a long control step lets the expert finish within 8 steps, which caps every ablation rollout
    cfg = workdir / "short-sim.json"
    cfg.write_text(json.dumps({"sim": asdict(SHORT_SIM)}))
    path = workdir / "short.jsonl"
    assert main(["gen-data", "--config", str(cfg), "--out", str(path), "--episodes-per-task", "2"]) == 0
    return path


@pytest.fixture(scope="module")
def tiny_config(workdir):
    path = workdir / "tiny.json"
    path.write_text(json.dumps({"train": {"steps": 25, "vq_pretrain_steps": 5, "eval_every": 0}}))
    return path


@pytest.fixture(scope="module")
def checkpoint_path(workdir, dataset_path, tiny_config):
    path = workdir / "policy.ckpt"
    code = main(["train", "--config", str(tiny_config), "--data", str(dataset_path), "--out", str(path)])
    assert code == 0
    return path


def test_gen_data_counts_and_determinism(workdir, dataset_path, capsys):
    dataset = load_dataset(dataset_path)
    assert len(dataset.episodes) == 8
    twin = workdir / "demos-twin.jsonl"
    assert main(["gen-data", "--out", str(twin), "--episodes-per-task", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "wrote 8 episodes" in out
    assert sha256(twin) == sha256(dataset_path)


def test_gen_data_expert_failure_leaves_no_file(workdir, capsys):
    cfg = workdir / "short.json"
    cfg.write_text(json.dumps({"sim": {"max_episode_steps": 3}}))
    out = workdir / "never.jsonl"
    code = main(["gen-data", "--config", str(cfg), "--out", str(out), "--episodes-per-task", "1"])
    capsys.readouterr()
    assert code == 1
    assert not out.exists()
    assert not (workdir / "never.jsonl.tmp").exists()


def test_gen_data_rejects_non_positive_image_size(workdir, capsys):
    cfg = workdir / "no-pixels.json"
    cfg.write_text(json.dumps({"sim": {"image_size": 0}}))
    out = workdir / "no-pixels.jsonl"
    code = main(["gen-data", "--config", str(cfg), "--out", str(out), "--episodes-per-task", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "image_size" in err
    assert not out.exists()


@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_gen_data_without_episodes_exits_1(workdir, episodes, capsys):
    out = workdir / "empty.jsonl"
    code = main(["gen-data", "--out", str(out), "--episodes-per-task", episodes])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "episodes_per_task" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, config",
    [("gen-data", ["--seed", "-1"], None),
     ("train", ["--seed", "-3"], None),
     ("eval", ["--seed", "-2"], None),
     ("gen-data", [], {"seed": -1}),
     ("train", [], {"train": {"seed": -1}})],
    ids=["gen-data-flag", "train-flag", "eval-flag", "config-seed", "config-train-seed"],
)
def test_negative_seed_exits_1(workdir, dataset_path, checkpoint_path, capsys, command, flags, config):
    # each used to die with numpy's bare "expected non-negative integer"
    out = workdir / "negative-seed.out"
    argv = {
        "gen-data": ["gen-data", "--out", str(out), "--episodes-per-task", "1"],
        "train": ["train", "--data", str(dataset_path), "--out", str(out), "--steps", "1"],
        "eval": ["eval", "--ckpt", str(checkpoint_path), "--rollouts", "1"],
    }[command] + flags
    if config is not None:
        path = workdir / "negative-seed.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


def test_seed_precedence(workdir, capsys):
    a, b, c, d = (workdir / name for name in ("sa.jsonl", "sb.jsonl", "sc.jsonl", "sd.jsonl"))
    assert main(["gen-data", "--out", str(a), "--episodes-per-task", "1", "--seed", "9"]) == 0
    assert main(["gen-data", "--out", str(b), "--episodes-per-task", "1"]) == 0
    assert sha256(b) != sha256(a)
    cfg = workdir / "seeded.json"
    cfg.write_text(json.dumps({"seed": 9}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(c), "--episodes-per-task", "1"]) == 0
    assert sha256(c) == sha256(a)
    assert main(["gen-data", "--config", str(cfg), "--out", str(d), "--episodes-per-task", "1", "--seed", "0"]) == 0
    assert sha256(d) == sha256(b)
    capsys.readouterr()


def test_train_writes_checkpoint(checkpoint_path, capsys):
    bundle = load_checkpoint(checkpoint_path)
    assert bundle.step == 25
    assert bundle.train.steps == 25
    assert bundle.policy.cfg.head_kind == "mlp"


def test_train_vqbet_head_flag(workdir, dataset_path, tiny_config, capsys):
    out = workdir / "vq.ckpt"
    code = main(["train", "--config", str(tiny_config), "--data", str(dataset_path), "--out", str(out),
                 "--head", "vqbet", "--steps", "10"])
    text = capsys.readouterr().out
    assert code == 0
    assert "final loss" in text
    bundle = load_checkpoint(out)
    assert bundle.policy.cfg.head_kind == "vqbet"
    assert "vq.codes" in bundle.policy.params.frozen_names()


def test_train_honours_policy_section(workdir, dataset_path, capsys):
    # the policy and train sections must agree on the kinds; --head and --backbone set both
    cfg = workdir / "policy-only.json"
    cfg.write_text(json.dumps({"policy": {"head_kind": "vqbet", "backbone_kind": "pixel"}}))
    out = workdir / "kinds.ckpt"
    code = main(["train", "--config", str(cfg), "--data", str(dataset_path), "--out", str(out), "--steps", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "policy.head_kind" in err and "train.head_kind" in err
    assert not out.exists()

    both = workdir / "both-vqbet.json"
    train = {"steps": 2, "vq_pretrain_steps": 2, "eval_every": 0, "head_kind": "vqbet"}
    both.write_text(json.dumps({"policy": {"head_kind": "vqbet", "chunk_len": 2}, "train": train}))
    assert main(["train", "--config", str(both), "--data", str(dataset_path), "--out", str(out)]) == 0
    bundle = load_checkpoint(out)
    assert (bundle.policy.cfg.head_kind, bundle.policy.cfg.chunk_len, bundle.train.head_kind) == ("vqbet", 2, "vqbet")
    assert main(["train", "--config", str(both), "--data", str(dataset_path), "--out", str(out), "--head", "mlp"]) == 0
    bundle = load_checkpoint(out)
    assert (bundle.policy.cfg.head_kind, bundle.policy.cfg.chunk_len, bundle.train.head_kind) == ("mlp", 2, "mlp")
    capsys.readouterr()


def test_train_records_the_dataset_sim(workdir, capsys):
    # the demos were recorded, and are rendered for training, under the dataset's sim
    cfg = workdir / "large-frames.json"
    cfg.write_text(json.dumps({"sim": {"image_size": 48}}))
    data = workdir / "large-frames.jsonl"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data), "--episodes-per-task", "1"]) == 0
    out = workdir / "large-frames.ckpt"
    assert main(["train", "--data", str(data), "--out", str(out), "--steps", "1", "--backbone", "pixel"]) == 0
    assert load_checkpoint(out).sim == load_dataset(data).sim == SimConfig(image_size=48)
    capsys.readouterr()


def test_train_and_ablate_reject_a_sim_section_unlike_the_dataset(workdir, dataset_path, capsys):
    cfg = workdir / "other-sim.json"
    cfg.write_text(json.dumps({"sim": {"image_size": 48}}))
    out = workdir / "other-sim.ckpt"
    code = main(["train", "--config", str(cfg), "--data", str(dataset_path), "--out", str(out), "--steps", "1"])
    assert code == 3
    assert "differs from the dataset's" in capsys.readouterr().err
    assert not out.exists()
    out_dir = workdir / "other-sim-ablation"
    assert main(["ablate", "--config", str(cfg), "--data", str(dataset_path), "--out-dir", str(out_dir)]) == 3
    assert not (out_dir / "ablation.json").exists()
    # a sim section equal to the dataset's is accepted
    cfg.write_text(json.dumps({"sim": asdict(SimConfig())}))
    assert main(["train", "--config", str(cfg), "--data", str(dataset_path), "--out", str(out), "--steps", "1"]) == 0
    capsys.readouterr()


def test_train_numeric_abort_exits_2(workdir, dataset_path, capsys):
    cfg = workdir / "explode.json"
    cfg.write_text(json.dumps({"train": {"steps": 50, "lr": 1e10, "eval_every": 0}}))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["train", "--config", str(cfg), "--data", str(dataset_path), "--out", str(workdir / "x.ckpt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "step" in err


def test_eval_prints_rate_and_writes_report(workdir, checkpoint_path, capsys):
    report_path = workdir / "eval.json"
    code = main(["eval", "--ckpt", str(checkpoint_path), "--views", "novel-medium",
                 "--rollouts", "2", "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "average success rate" in out
    assert "%" in out and "." in out.split("%")[0].rsplit(" ", 1)[-1]
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["category"] == "novel_medium"
    assert len(report["tasks"]) == 4
    assert all(row["rollouts"] == 2 for row in report["tasks"])


@pytest.mark.parametrize("rollouts", ["0", "-2"])
def test_eval_without_rollouts_exits_1(workdir, checkpoint_path, rollouts, capsys):
    code = main(["eval", "--ckpt", str(checkpoint_path), "--rollouts", rollouts])
    err = capsys.readouterr().err
    assert code == 1
    assert "rollouts_per_task" in err


def test_eval_missing_checkpoint_exits_3(workdir, capsys):
    code = main(["eval", "--ckpt", str(workdir / "absent.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "does not exist" in err


def test_report_markdown_and_csv(workdir, checkpoint_path, capsys):
    report_path = workdir / "rep.json"
    assert main(["eval", "--ckpt", str(checkpoint_path), "--rollouts", "1", "--report", str(report_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(report_path), "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert "| Task | Successes | Rollouts | Rate (%) |" in md
    assert "| t0 |" in md
    out_path = workdir / "rep.csv"
    assert main(["report", "--in", str(report_path), "--format", "csv", "--out", str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0] == "model,category,task,successes,rollouts,rate"
    source = json.loads(report_path.read_text())
    parsed = [line.split(",") for line in lines[1:]]
    for row, csv_row in zip(source["tasks"], parsed):
        assert csv_row[2] == row["id"]
        assert float(csv_row[5]) == pytest.approx(row["rate"], abs=0.05)


def test_report_schema_mismatch_exits_4(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "tasks": []}))
    assert main(["report", "--in", str(bad), "--format", "md"]) == 4
    unknown = workdir / "unknown.json"
    unknown.write_text(json.dumps({"schema_version": 1, "mystery": []}))
    assert main(["report", "--in", str(unknown), "--format", "md"]) == 4
    # true and 1.0 compare equal to 1, but only the int 1 is version 1
    rep = {"model": "m", "category": "seen", "average_rate": 50.0,
           "tasks": [{"id": "t0", "successes": 1, "rollouts": 2, "rate": 50.0}]}
    for version, code in ((1, 0), (True, 4), (1.0, 4)):
        path = workdir / "versioned.json"
        path.write_text(json.dumps(dict(rep, schema_version=version)))
        assert main(["report", "--in", str(path), "--format", "md"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("drop", ["model", "category", "default"])
def test_report_missing_field_exits_4(workdir, drop, capsys):
    rep = {"schema_version": 1, "model": "m", "category": "seen", "average_rate": 50.0,
           "tasks": [{"id": "t0", "successes": 1, "rollouts": 2, "rate": 50.0}]}
    row = {"mode": "all", "label": "all", "default": False, "seen": rep, "novel_medium": rep}
    payload = {"schema_version": 1, "ablation": [row]} if drop == "default" else rep
    del (row if drop == "default" else rep)[drop]
    path = workdir / f"no-{drop}.json"
    path.write_text(json.dumps(payload))
    assert main(["report", "--in", str(path), "--format", "md"]) == 4
    assert drop in capsys.readouterr().err


def test_report_comparison_kind_exits_4(workdir, capsys):
    # the geo/pixel comparison report kind is gone
    rep = {"schema_version": 1, "model": "m", "category": "seen", "average_rate": 0.0,
           "tasks": [{"id": "t0", "successes": 0, "rollouts": 1, "rate": 0.0}]}
    row = {"category": "seen", "geo": rep, "pixel": rep, "geo_rate": 0.0, "pixel_rate": 0.0, "ratio": 1.0}
    path = workdir / "comparison.json"
    path.write_text(json.dumps({"schema_version": 1, "comparison": [row]}))
    for fmt in ("md", "csv"):
        assert main(["report", "--in", str(path), "--format", fmt]) == 4
    assert "none of the known sections" in capsys.readouterr().err


@pytest.mark.parametrize("sub", [{}, {"ablation": []}], ids=["empty", "nested-ablation"])
def test_report_ablation_row_without_evaluations_exits_4_in_every_format(workdir, sub, capsys):
    # csv used to exit 1 on an empty sub-report and 0 on a nested ablation
    path = workdir / "hollow.json"
    path.write_text(json.dumps({"schema_version": 1, "ablation": [{"seen": sub, "novel_medium": sub}]}))
    for fmt in ("md", "csv"):
        assert main(["report", "--in", str(path), "--format", fmt]) == 4
    capsys.readouterr()


def test_report_invalid_json_exits_1(workdir, capsys):
    broken = workdir / "broken.json"
    broken.write_text("{nope")
    assert main(["report", "--in", str(broken), "--format", "md"]) == 1
    capsys.readouterr()


def test_ablate_writes_checkpoints_and_reports(workdir, short_dataset_path, capsys):
    cfg = workdir / "ablate.json"
    cfg.write_text(json.dumps({"train": {"steps": 10, "eval_every": 0}}))
    out_dir = workdir / "ablation"
    code = main(["ablate", "--config", str(cfg), "--data", str(short_dataset_path),
                 "--modes", "even4,last4", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "ablate-even.ckpt").exists()
    assert (out_dir / "ablate-last.ckpt").exists()
    report = json.loads((out_dir / "ablation.json").read_text())
    assert [row["mode"] for row in report["ablation"]] == ["even", "last"]
    md = (out_dir / "ablation.md").read_text()
    assert "even(4) (default)" in md
    bundle = load_checkpoint(out_dir / "ablate-even.ckpt")
    assert bundle.policy.cfg.select_mode == "even"
    assert bundle.sim == SHORT_SIM


def test_ablate_rejects_a_pixel_config(workdir, capsys):
    # before the dataset loads (this one does not exist) and before the output directory is made
    cfg = workdir / "ablate-pixel.json"
    cfg.write_text(json.dumps({"policy": {"backbone_kind": "pixel"}, "train": {"backbone_kind": "pixel"}}))
    out_dir = workdir / "abl"
    code = main(["ablate", "--config", str(cfg), "--data", str(workdir / "absent.jsonl"), "--out-dir", str(out_dir)])
    assert code == 1
    assert "layer ablation only applies to the geo backbone" in capsys.readouterr().err
    assert not out_dir.exists()


def _ablate(workdir, data, name, config, modes=None):
    """The ablation.json rows and ablation.md lines of one ``geoaware ablate`` run."""
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out_dir = workdir / name
    flags = [] if modes is None else ["--modes", modes]
    assert main(["ablate", "--config", str(cfg), "--data", str(data), *flags, "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "ablation.json").read_text())
    return report["ablation"], (out_dir / "ablation.md").read_text().splitlines()


def test_ablate_marks_no_default_row_when_no_mode_selects_the_configs_layers(workdir, short_dataset_path, capsys):
    # "default" used to mean mode == "even", so even(2) was marked though the config trains even(4)
    config = {"train": {"steps": 2, "eval_every": 0}}
    rows, md = _ablate(workdir, short_dataset_path, "ablate-no-default", config, "all,even2")
    capsys.readouterr()
    assert [(row["label"], row["default"]) for row in rows] == [("all", False), ("even(2)", False)]
    assert not any("(default)" in line for line in md)


def test_ablate_marks_the_configs_layer_selection_as_default(workdir, short_dataset_path, capsys):
    # the default modes, under a config whose policy `geoaware train` would train on the last 4 layers
    config = {"policy": {"select_mode": "last"}, "train": {"steps": 2, "eval_every": 0}}
    rows, md = _ablate(workdir, short_dataset_path, "ablate-last-default", config)
    capsys.readouterr()
    assert [(row["label"], row["selected"], row["default"]) for row in rows] == [
        ("all", 12, False), ("even(4)", 4, False), ("last(4)", 4, True),
    ]
    assert len(md) == 5 and md[-1].startswith("| last(4) (default) |")
    for row in rows:
        assert all(set(row[cat]["tasks"][0]) == {"id", "successes", "rollouts", "rate"} for cat in ("seen", "novel_medium"))
    assert load_checkpoint(workdir / "ablate-last-default" / "ablate-last.ckpt").sim == SHORT_SIM


def test_version_3_checkpoint_exits_1(workdir, checkpoint_path, capsys):
    # version 3 headers carried policy.views; the view count is now a constant
    raw = checkpoint_path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + header_len])
    header["policy"]["views"] = 2
    encoded = json.dumps(header, sort_keys=True).encode()
    body = raw[12 + header_len:]
    old = workdir / "v3.ckpt"
    old.write_bytes(raw[:4] + (3).to_bytes(4, "little") + len(encoded).to_bytes(4, "little") + encoded + body)
    assert main(["eval", "--ckpt", str(old), "--rollouts", "1"]) == 1
    assert "unsupported checkpoint version 3" in capsys.readouterr().err
    old.write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded + body)      # v4 with a views key
    assert main(["eval", "--ckpt", str(old), "--rollouts", "1"]) == 1
    assert "views" in capsys.readouterr().err


def test_version_4_checkpoint_exits_1(workdir, checkpoint_path, capsys):
    # version 4 stored one vision.conv{i} pair per layer and separate q, k and v projections
    raw = checkpoint_path.read_bytes()
    old = workdir / "v4.ckpt"
    old.write_bytes(raw[:4] + (4).to_bytes(4, "little") + raw[8:])
    assert main(["eval", "--ckpt", str(old), "--rollouts", "1"]) == 1
    assert "unsupported checkpoint version 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval", "--ckpt", "{dir}"],
    ["train", "--data", "{dir}", "--out", "{dir}/out.ckpt"],
    ["report", "--in", "{dir}"],
], ids=["eval", "train", "report"])
def test_directory_as_input_path_exits_1(workdir, command, capsys):
    # each used to raise IsADirectoryError past main
    code = main([arg.format(dir=workdir) for arg in command])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize("views", [1, 2, 3])
def test_config_with_policy_views_exits_1(workdir, dataset_path, views, capsys):
    # policy.views accepted any count but only 2 trained; the count is now camera.VIEWS
    cfg = workdir / "views.json"
    cfg.write_text(json.dumps({"policy": {"views": views}, "train": {"steps": 1}}))
    code = main(["train", "--config", str(cfg), "--data", str(dataset_path), "--out", str(workdir / "views.ckpt")])
    assert code == 1
    assert "views" in capsys.readouterr().err
    assert not (workdir / "views.ckpt").exists()


def test_ablate_honours_geo_section(workdir, short_dataset_path, capsys):
    cfg = workdir / "ablate-geo.json"
    cfg.write_text(json.dumps({"train": {"steps": 5, "eval_every": 0}, "geo": {"num_layers": 6}}))
    out_dir = workdir / "ablation-geo"
    code = main(["ablate", "--config", str(cfg), "--data", str(short_dataset_path),
                 "--modes", "all,even2", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    bundle = load_checkpoint(out_dir / "ablate-all.ckpt")
    assert (bundle.policy.geo.num_layers, bundle.policy.cfg.select_count) == (6, 4)     # all keeps the config's count
    report = json.loads((out_dir / "ablation.json").read_text())
    assert [(row["mode"], row["selected"]) for row in report["ablation"]] == [("all", 6), ("even", 2)]


def test_ablate_bad_mode_exits_1(workdir, dataset_path, capsys):
    code = main(["ablate", "--data", str(dataset_path), "--modes", "sideways3", "--out-dir", str(workdir / "no")])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("modes, message", [
    ("even0", "selects no layers"),
    ("all,last0", "selects no layers"),
    ("even2,even4", "given twice"),
    ("all,last4,all", "given twice"),
])
def test_ablate_rejects_a_zero_count_or_a_repeated_mode_before_training(
    workdir, dataset_path, tiny_config, modes, message, capsys
):
    # even0 used to train and report even(4); even2,even4 wrote both policies to ablate-even.ckpt
    out_dir = workdir / "ablate-rejected"
    code = main(["ablate", "--config", str(tiny_config), "--data", str(dataset_path), "--modes", modes,
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient suite PASS" in out
    assert "conv1d" in out and "end_to_end" in out


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train"]) == 1            # missing required flags
    assert main(["eval", "--ckpt", "x", "--views", "sideways"]) == 1
    capsys.readouterr()


def test_help_lists_defaults(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "(default: 5000)" in out
    assert "(default: mlp)" in out


def test_help_says_to_pin_blas_threads_for_concurrent_runs(capsys):
    assert main(["--help"]) == 0
    assert "OPENBLAS_NUM_THREADS=1" in capsys.readouterr().out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_runs(child_env):
    proc = subprocess.run([sys.executable, "-m", "geoaware.cli"], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 1
    assert "usage: geoaware" in proc.stdout
    assert "gen-data" in proc.stdout

    # Run the console script pyproject.toml declares the way the wrapper that
    # setuptools generates for it does, without needing an installed copy.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        spec = tomllib.load(f)["project"]["scripts"]["geoaware"]
    module, _, attr = spec.partition(":")
    wrapper = f"import sys\nimport {module}\nsys.argv[0] = 'geoaware'\nsys.exit({module}.{attr}())\n"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout


@pytest.mark.skipif(shutil.which("geoaware") is None,
                    reason="the geoaware console script is not on PATH (install with `pip install -e .`)")
def test_installed_console_script_runs(child_env):
    proc = subprocess.run(["geoaware", "--help"], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
