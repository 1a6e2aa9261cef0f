"""Suite-level gradient verification: the aggregated check passes inside its
time budget, and a deliberately broken backward is caught and named."""

import time

import geoaware.numerics.nnops as nnops
from geoaware.gradsuite import SUITE_TOLERANCE, run_gradcheck_suite, suite_passed

EXPECTED_COMPONENTS = {
    "add_sub_mul", "matmul", "reshape_transpose_slice_concat", "relu",
    "layer_norm", "attention_block", "conv1d_relu_pool", "conv2d",
    "embedding_lookup", "mse_loss", "cross_entropy", "project_vision",
    "pixel_features", "trunk", "mlp_head", "vqbet_head", "end_to_end",
}


def test_suite_passes_within_budget():
    start = time.time()
    records = run_gradcheck_suite()
    elapsed = time.time() - start
    assert suite_passed(records)
    assert elapsed <= 60.0
    assert {r["component"] for r in records} == EXPECTED_COMPONENTS
    for record in records:
        assert set(record) == {"component", "max_rel_err", "tolerance", "passed"}
        assert record["tolerance"] == SUITE_TOLERANCE
        assert record["max_rel_err"] <= SUITE_TOLERANCE


def test_broken_conv1d_backward_is_named(monkeypatch):
    # skews the input gradient of conv1d_relu_pool's conv taps
    original = nnops._token_taps_grad

    def skewed(gcols):
        return original(gcols) * 1.01

    monkeypatch.setattr(nnops, "_token_taps_grad", skewed)
    records = run_gradcheck_suite()
    assert not suite_passed(records)
    failed = {r["component"] for r in records if not r["passed"]}
    assert "conv1d_relu_pool" in failed


def test_broken_attention_backward_is_named(monkeypatch):
    # skews the softmax term of attention_block's backward
    original = nnops._softmax_grad

    def skewed(out, g):
        return original(out, g) * 1.01

    monkeypatch.setattr(nnops, "_softmax_grad", skewed)
    records = run_gradcheck_suite()
    assert not suite_passed(records)
    failed = {r["component"] for r in records if not r["passed"]}
    assert "attention_block" in failed
