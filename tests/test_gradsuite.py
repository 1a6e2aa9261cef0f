"""Suite-level gradient verification: the aggregated check passes inside its
time budget, and a deliberately broken backward is caught and named."""

import time

import geoaware.numerics.nnops as nnops
from geoaware.gradsuite import SUITE_TOLERANCE, run_gradcheck_suite, suite_passed

EXPECTED_COMPONENTS = {
    "add_sub_mul", "matmul", "reshape_concat", "mlp2",
    "transformer_block", "conv1d_relu_pool", "conv2d_relu_pool",
    "embedding_lookup", "mse_loss", "cross_entropy", "project_vision",
    "pixel_encoder", "trunk", "mlp_head", "vqbet_head", "end_to_end",
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


def test_broken_conv2d_backward_is_named(monkeypatch):
    # skews the kernel gradient of conv2d_relu_pool's layers
    original = nnops._conv2d_grad

    def skewed(g, saved, input_grad):
        gk, gb, gx = original(g, saved, input_grad)
        return gk * 1.01, gb, gx

    monkeypatch.setattr(nnops, "_conv2d_grad", skewed)
    records = run_gradcheck_suite()
    assert not suite_passed(records)
    failed = {r["component"] for r in records if not r["passed"]}
    assert "conv2d_relu_pool" in failed


def test_broken_attention_backward_is_named(monkeypatch):
    # skews the softmax term of transformer_block's backward
    original = nnops._softmax_grad

    def skewed(out, g):
        return original(out, g) * 1.01

    monkeypatch.setattr(nnops, "_softmax_grad", skewed)
    records = run_gradcheck_suite()
    assert not suite_passed(records)
    failed = {r["component"] for r in records if not r["passed"]}
    assert "transformer_block" in failed


def test_broken_layer_norm_backward_is_named(monkeypatch):
    # skews the input gradient of transformer_block's layer norms
    original = nnops._layer_norm_grad

    def skewed(g, saved):
        gx, g_gamma, g_beta = original(g, saved)
        return gx * 1.01, g_gamma, g_beta

    monkeypatch.setattr(nnops, "_layer_norm_grad", skewed)
    records = run_gradcheck_suite()
    assert not suite_passed(records)
    failed = {r["component"] for r in records if not r["passed"]}
    assert "transformer_block" in failed
