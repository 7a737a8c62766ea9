"""Visual/text encoders and fusion: values, invariances, gradient paths."""

import numpy as np
import pytest

from akgp.data import DataError, Example, collate
from akgp.encoders import (
    EncoderParams,
    encode_batch,
    encode_text_bow,
    encode_visual,
    fuse_multimodal,
)
from akgp.tensor import (
    Tape,
    Tensor,
    backward,
    fd_check,
    from_array,
    mul,
    sum_all,
    uniform,
    xavier,
    zeros,
)


def make_params(d_i=3, d_t=4, d_m=3, vocab=6, seed=0):
    return EncoderParams(
        w_visual=xavier([d_i, d_m], seed),
        b_visual=zeros([d_m]),
        token_table=xavier([vocab, d_t], seed + 1),
        w_text=xavier([d_t, d_m], seed + 2),
        b_text=zeros([d_m]),
        w_fusion=xavier([2 * d_m, d_m], seed + 3),
        b_fusion=zeros([d_m]),
    )


def token_rows(token_lists, vocab=6):
    """Bag-of-tokens rows exactly as the training pipeline collates them."""
    examples = [Example(image_features=[0.0], token_ids=toks, label=0)
                for toks in token_lists]
    return Tensor(collate(examples, vocab).token_bow)


def encode_tokens(token_ids, params):
    return encode_text_bow(token_rows([token_ids], params.token_table.shape[0]), params)


def test_visual_zero_input_zero_bias():
    p = make_params()
    out = encode_visual(zeros([1, 3]), p)
    assert np.allclose(out.data, 0.0)


def test_visual_identity_weights_analytic():
    p = make_params(d_i=2, d_m=2)
    p.w_visual = from_array(np.eye(2))
    out = encode_visual(from_array([[0.5, -0.5]]), p)
    assert np.allclose(out.data, [[np.tanh(0.5), np.tanh(-0.5)]])


def test_visual_gradient_passes_fd():
    p = make_params()
    image = uniform([1, 3], -1, 1, 4)

    def f(w):
        probe = make_params()
        probe.w_visual = w
        out = encode_visual(image, probe)
        return sum_all(mul(out, out))

    assert fd_check(f, Tensor(p.w_visual.data.copy())).passed


def test_text_repeated_token_equals_single():
    p = make_params()
    a = encode_tokens([5, 5, 5], p)
    b = encode_tokens([5], p)
    assert np.allclose(a.data, b.data)


def test_text_order_invariant():
    p = make_params()
    a = encode_tokens([1, 2, 3], p)
    b = encode_tokens([3, 1, 2], p)
    assert np.array_equal(a.data, b.data)


def test_text_duplication_invariant():
    p = make_params()
    a = encode_tokens([1, 4, 2], p)
    b = encode_tokens([1, 4, 2, 1, 4, 2], p)
    assert np.allclose(a.data, b.data)


def test_text_unused_embedding_rows_get_zero_grad():
    p = make_params()
    p.token_table.requires_grad_(True)
    with Tape() as tape:
        out = encode_tokens([1, 3], p)
        loss = sum_all(mul(out, out))
    backward(loss, tape)
    grad = p.token_table.grad
    for row in (0, 2, 4, 5):
        assert np.array_equal(grad[row], np.zeros(4))
    assert np.any(grad[1] != 0) and np.any(grad[3] != 0)


def test_text_rejects_bad_tokens():
    p = make_params()
    with pytest.raises(ValueError):
        encode_tokens([], p)
    with pytest.raises(DataError):
        encode_tokens([99], p)


def test_fusion_zero_inputs():
    p = make_params()
    out = fuse_multimodal(zeros([1, 3]), zeros([1, 3]), p)
    assert np.allclose(out.data, 0.0)


def test_fusion_block_weights_isolate_one_input():
    p = make_params(d_m=3)
    w = np.zeros((6, 3))
    w[:3, :] = np.eye(3)  # only the visual half feeds through
    p.w_fusion = from_array(w)
    v = uniform([1, 3], -1, 1, 7)
    out1 = fuse_multimodal(v, uniform([1, 3], -1, 1, 8), p)
    out2 = fuse_multimodal(v, uniform([1, 3], -1, 1, 9), p)
    assert np.allclose(out1.data, np.tanh(v.data))
    assert np.array_equal(out1.data, out2.data)


def test_outputs_bounded_by_tanh():
    p = make_params()
    image = uniform([1, 3], -50, 50, 10)
    out = fuse_multimodal(encode_visual(image, p), encode_tokens([0, 1], p), p)
    assert np.all(np.abs(out.data) < 1.0)


def test_full_path_passes_fd_for_each_group():
    image = uniform([1, 3], -1, 1, 11)
    tokens = [0, 2, 5]

    def pipeline(params):
        v = encode_visual(image, params)
        t = encode_tokens(tokens, params)
        out = fuse_multimodal(v, t, params)
        return sum_all(mul(out, out))

    base = make_params(seed=20)
    for attr in ("w_visual", "token_table", "w_text", "w_fusion", "b_fusion"):
        def f(x, _attr=attr):
            probe = make_params(seed=20)
            setattr(probe, _attr, x)
            return pipeline(probe)

        report = fd_check(f, Tensor(getattr(base, attr).data.copy()))
        assert report.passed, f"{attr}: {report}"


def test_batch_matches_single_example_path():
    p = make_params()
    images = uniform([4, 3], -1, 1, 30)
    token_lists = [[0, 1], [2, 2, 3], [5], [4, 0, 1]]
    batched = encode_batch(Tensor(images.data), token_rows(token_lists), p)
    for row, toks in enumerate(token_lists):
        single = fuse_multimodal(
            encode_visual(from_array(images.data[row:row + 1]), p), encode_tokens(toks, p), p)
        assert np.allclose(batched.data[row], single.data[0], atol=1e-12)
