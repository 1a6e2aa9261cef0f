"""Tests of the benchmark's tracing and measurement, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from geoaware import bench  # noqa: E402
from geoaware.deskworld.world import make_tasks  # noqa: E402
from geoaware import training  # noqa: E402
from geoaware.errors import NumericAbort  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run_bc_train = training.bc_train

SMALL = {
    "train-geo-mlp": dict(episodes_per_task=1, steps=2, eval_rollouts_per_task=1, eval_step_cap=3),
    "train-pixel-vqbet": dict(episodes_per_task=1, steps=2, vq_pretrain_steps=2, eval_rollouts_per_task=1, eval_step_cap=3),
}
ALL = set(WORKLOADS)
GEO = {"train-geo-mlp"}
PIXEL = {"train-pixel-vqbet"}

# span -> the workloads whose run must call it (the layer map in README.md)
FIRES_ON = {
    "backbones.pyramid_batch": GEO,
    "backbones.pixel_pooled": PIXEL,
    "camera.render_image": PIXEL,
    "camera.sample_viewpoints": ALL,
    "world.reset": ALL,
    "world.step": ALL,
    "world.success": ALL,
    "world.expert_action": ALL,
    "dataset.generate_dataset": ALL,
    "dataset.save_dataset": ALL,
    "dataset.load_dataset": ALL,
    "policy.featurize": ALL,
    "policy.forward": ALL,
    "policy.project_vision": GEO,
    "policy.encode_language": ALL,
    "policy.encode_proprio": ALL,
    "policy.trunk_forward": ALL,
    "policy.mlp_head": GEO,
    "policy.vqbet_train_loss": PIXEL,
    "policy.vqvae_loss": PIXEL,
    "policy.action": ALL,
    "policy.vqbet_head": PIXEL,
    "numerics.backward": ALL,
    "numerics.adamw_step": ALL,
    "training.bc_train": ALL,
    "training.make_batch": ALL,
    "training.calibrate_input_stats": ALL,
    "training.save_checkpoint": ALL,
    "training.load_checkpoint": ALL,
    "bench.evaluate": ALL,
    "bench.rollout": ALL,
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for name in WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        runs[name] = run.measure_traced(small(name), 3, 0, workdir)
    return runs


def test_span_map_covers_every_span():
    assert set(FIRES_ON) == set(tracing.SPANS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_span_fires_on_its_workloads(traced_runs, name):
    result, record = traced_runs[name]
    assert record["absent_spans"] == []
    silent = [span for span, names in FIRES_ON.items() if name in names and result["metrics"][f"{span}.calls"]["value"] == 0]
    assert silent == []


def test_isolated_layers_stay_silent(traced_runs):
    geo, _ = traced_runs["train-geo-mlp"]
    pixel, _ = traced_runs["train-pixel-vqbet"]
    assert geo["metrics"]["camera.render_image.calls"]["value"] == 0
    assert pixel["metrics"]["backbones.pyramid_batch.calls"]["value"] == 0
    assert pixel["metrics"]["backbones.pyramid_batch.rows"]["value"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(traced_runs, name):
    result, record = traced_runs[name]
    assert record["checks"]["traced_matches_untraced"]
    assert record["checks"]["trace_counts_repeat"]
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shares_sum_to_at_most_one(traced_runs, name):
    metrics = traced_runs[name][0]["metrics"]
    shares = [m["value"] for key, m in metrics.items() if key.endswith(".share")]
    assert 0.5 < sum(shares) <= 1.0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_counters(traced_runs):
    geo = traced_runs["train-geo-mlp"][0]["metrics"]
    pixel = traced_runs["train-pixel-vqbet"][0]["metrics"]
    assert geo["training.featurize_miss_ratio"]["value"] == 1.0
    assert 0.0 < pixel["training.featurize_miss_ratio"]["value"] < 1.0
    assert geo["backbones.pyramid_batch.rows"]["value"] > 0
    for result, _ in traced_runs.values():
        metrics = result["metrics"]
        assert metrics["bench.rollout.steps"]["value"] == metrics["policy.action.calls"]["value"] > 0


def test_traced_metrics_are_the_per_layer_metrics(traced_runs):
    names = {m["name"] for m in benchmark_spec()["per_layer"]}
    for result, _ in traced_runs.values():
        assert set(result["metrics"]) == names


def test_end_to_end_metrics_and_checks(tmp_path):
    result, record = run.measure_end_to_end(small("train-geo-mlp"), 3, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and record["checks"]["jobs_repeat"] and record["checks"]["setups_repeat"]
    assert result["attempted"] == (run.SETUPS_PER_PASS + 1) * run.MIN_PASSES


def test_end_to_end_run_cuts_each_call_into_pieces(tmp_path):
    workload = small("train-geo-mlp")
    _, record = run.measure_end_to_end(workload, 3, 0, tmp_path)
    rollouts = workload.eval_rollouts_per_task * len(make_tasks())
    for (samples, train_s), (_, eval_s), pieces in zip(record["train"], record["eval"], record["pieces"]):
        assert len(pieces["setup"]) == run.SETUPS_PER_PASS
        # one piece per optimizer step, one after the last; one per rollout, one after the last
        assert len(pieces["train"]) == samples // workloads.BATCH_SIZE + 1
        assert len(pieces["eval"]) == rollouts + 1
        # the pieces leave the probes out of the calls they cut
        assert 0 < sum(t for t, _ in pieces["train"]) < train_s
        assert 0 < sum(t for t, _ in pieces["eval"]) < eval_s
        assert all(t > 0 and probe_s > 0 for section in ("train", "eval") for t, probe_s in pieces[section])
    assert training.adamw_step.__module__ == "geoaware.numerics.optim"
    assert bench.rollout.__module__ == "geoaware.bench"


def test_piece_clock_section_and_restore():
    calls = []
    with tracing.PieceClock(lambda: calls.append(1) or 2e-3) as clock:
        assert training.bc_train is not run_bc_train
        with clock.section("setup"):
            pass
    assert training.bc_train is run_bc_train
    assert len(clock.pieces["setup"]) == 1 and clock.pieces["setup"][0][1] == 2e-3
    assert len(calls) == 2 and clock.pieces["train"] == clock.pieces["eval"] == []


def test_reference_seconds_scale_by_probe():
    ref = speed.PROBE_REFERENCE_S
    assert speed.reference_seconds([(2.0, 2 * ref), (1.0, ref / 2)]) == pytest.approx(3.0)
    assert speed.probe() > 0


def test_geoaware_error_counts_as_failed_operation(tmp_path, monkeypatch):
    real = training.bc_train
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericAbort(0, {})
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "bc_train", flaky)
    result, record = run.measure_end_to_end(small("train-geo-mlp"), 3, 0, tmp_path)
    assert result["attempted"] == (run.SETUPS_PER_PASS + 1) * run.MIN_PASSES
    assert result["failed"] == 1 and len(record["errors"]) == 1
    assert result["correct"]


def test_all_operations_failing_gives_no_result(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise NumericAbort(0, {})

    monkeypatch.setattr(training, "bc_train", broken)
    result, record = run.measure_end_to_end(small("train-geo-mlp"), 3, 0, tmp_path)
    assert result is None and len(record["errors"]) == run.MIN_PASSES


def test_missing_function_is_reported_absent_and_patches_are_undone():
    original = training.make_batch
    spans = {
        "training.make_batch": tracing.SPANS["training.make_batch"],
        "gone.function": (("geoaware.training", "no_such_function"),),
        "gone.module": (("geoaware.no_such_module", "fn"),),
        "gone.method": (("geoaware.policy", "Policy.no_such_method"),),
    }
    with tracing.Tracer(spans) as tracer:
        assert training.make_batch is not original
    assert tracer.absent == ["gone.function", "gone.module", "gone.method"]
    assert training.make_batch is original


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "train-geo-mlp", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
