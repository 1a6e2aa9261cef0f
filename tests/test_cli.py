"""End-to-end command-line coverage: every subcommand runs against a tiny
dataset, exit codes follow the documented table (0 ok, 1 usage, 2 numeric
abort, 3 missing checkpoint or config mismatch, 4 schema mismatch), and seed
precedence is flags over config file over GEOAWARE_SEED over defaults."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geoaware
from geoaware.cli import main
from geoaware.deskworld.dataset import load_dataset
from geoaware.training import load_checkpoint


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
    for task_id in ("t0", "t1", "t2", "t3"):
        assert f"expert success {task_id}: 2/2" in out
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


def test_seed_precedence(workdir, monkeypatch, capsys):
    a, b, c, d = (workdir / name for name in ("sa.jsonl", "sb.jsonl", "sc.jsonl", "sd.jsonl"))
    assert main(["gen-data", "--out", str(a), "--episodes-per-task", "1", "--seed", "9"]) == 0
    monkeypatch.setenv("GEOAWARE_SEED", "9")
    assert main(["gen-data", "--out", str(b), "--episodes-per-task", "1"]) == 0
    assert sha256(a) == sha256(b)
    assert main(["gen-data", "--out", str(c), "--episodes-per-task", "1", "--seed", "4"]) == 0
    assert sha256(c) != sha256(b)
    cfg = workdir / "seeded.json"
    cfg.write_text(json.dumps({"seed": 9}))
    monkeypatch.setenv("GEOAWARE_SEED", "4")
    assert main(["gen-data", "--config", str(cfg), "--out", str(d), "--episodes-per-task", "1"]) == 0
    assert sha256(d) == sha256(a)
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
    assert bundle.policy.codebook_trained


def test_train_pixel_on_mixed_camera_sizes_exits_1(workdir, dataset_path, capsys):
    # geo trains on such a dataset; the pixel renderer needs one image size
    path = workdir / "mixed.jsonl"
    lines = dataset_path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["seen_cameras"][1]["image_size"] = 24
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    code = main(["train", "--data", str(path), "--out", str(workdir / "mixed.ckpt"), "--backbone", "pixel",
                 "--steps", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "image_size" in err and "Traceback" not in err


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


def test_report_invalid_json_exits_1(workdir, capsys):
    broken = workdir / "broken.json"
    broken.write_text("{nope")
    assert main(["report", "--in", str(broken), "--format", "md"]) == 1
    capsys.readouterr()


def test_ablate_writes_checkpoints_and_reports(workdir, dataset_path, capsys):
    cfg = workdir / "ablate.json"
    cfg.write_text(json.dumps({
        "train": {"steps": 10, "eval_every": 0},
        "sim": {"max_episode_steps": 8},
    }))
    out_dir = workdir / "ablation"
    code = main(["ablate", "--config", str(cfg), "--data", str(dataset_path),
                 "--modes", "even4,last4", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "ablate-even.ckpt").exists()
    assert (out_dir / "ablate-last.ckpt").exists()
    report = json.loads((out_dir / "ablation.json").read_text())
    assert [row["mode"] for row in report["ablation"]] == ["even", "last"]
    md = (out_dir / "ablation.md").read_text()
    assert "even(4) (default)" in md
    assert load_checkpoint(out_dir / "ablate-even.ckpt").policy.cfg.select_mode == "even"


def test_ablate_honours_geo_section(workdir, dataset_path, capsys):
    cfg = workdir / "ablate-geo.json"
    cfg.write_text(json.dumps({
        "train": {"steps": 5, "eval_every": 0},
        "sim": {"max_episode_steps": 4},
        "geo": {"num_layers": 6},
    }))
    out_dir = workdir / "ablation-geo"
    code = main(["ablate", "--config", str(cfg), "--data", str(dataset_path),
                 "--modes", "all,even2", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    assert load_checkpoint(out_dir / "ablate-all.ckpt").policy.geo.num_layers == 6
    report = json.loads((out_dir / "ablation.json").read_text())
    assert [(row["mode"], row["selected"]) for row in report["ablation"]] == [("all", 6), ("even", 2)]


def test_ablate_bad_mode_exits_1(workdir, dataset_path, capsys):
    code = main(["ablate", "--data", str(dataset_path), "--modes", "sideways3", "--out-dir", str(workdir / "no")])
    capsys.readouterr()
    assert code == 1


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


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env():
    """The caller's environment with the directory holding the imported
    geoaware package first on PYTHONPATH, so a child interpreter runs the
    tree under test rather than some other installed copy."""
    paths = [str(Path(geoaware.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "geoaware.cli"], capture_output=True, text=True, env=child_env())
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
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout


@pytest.mark.skipif(shutil.which("geoaware") is None,
                    reason="the geoaware console script is not on PATH (install with `pip install -e .`)")
def test_installed_console_script_runs():
    proc = subprocess.run(["geoaware", "--help"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
