"""Toy visual and text encoders plus cross-modal fusion.

These stand in for a pretrained vision-language backbone: a linear+tanh map
for image features, a bag-of-tokens embedding average with projection for
text, and concat+affine+tanh fusion. Every function takes a batch of row
vectors; text arrives as the bag-of-tokens rows that ``data.collate`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import ShapeError, Tensor, concat, linear, matmul, tanh_act


@dataclass
class EncoderParams:
    w_visual: Tensor   # (d_i, d_m)
    b_visual: Tensor   # (d_m,)
    token_table: Tensor  # (V, d_t)
    w_text: Tensor     # (d_t, d_m)
    b_text: Tensor     # (d_m,)
    w_fusion: Tensor   # (2*d_m, d_m)
    b_fusion: Tensor   # (d_m,)


def encode_visual(images: Tensor, params: EncoderParams) -> Tensor:
    """tanh(images @ W_v + b_v) for a (B, d_i) batch."""
    if images.data.ndim != 2 or images.shape[1] != params.w_visual.shape[0]:
        raise ShapeError(
            f"images {images.shape} do not match encoder input {params.w_visual.shape[0]}")
    return tanh_act(linear(images, params.w_visual, params.b_visual))


def encode_text_bow(bow: Tensor, params: EncoderParams) -> Tensor:
    """Text encoding from precomputed bag-of-tokens weights (B, V)."""
    pooled = matmul(bow, params.token_table)
    return tanh_act(linear(pooled, params.w_text, params.b_text))


def fuse_multimodal(visual: Tensor, text: Tensor, params: EncoderParams) -> Tensor:
    """tanh([v; t] @ W_m + b_m) for matching (B, d_m) batches."""
    if visual.shape != text.shape:
        raise ShapeError(f"fusion inputs disagree: {visual.shape} vs {text.shape}")
    return tanh_act(linear(concat(visual, text), params.w_fusion, params.b_fusion))


def encode_batch(images: Tensor, token_bow: Tensor, params: EncoderParams) -> Tensor:
    """Full multimodal encoding of a batch: fused (B, d_m) representations."""
    return fuse_multimodal(encode_visual(images, params),
                           encode_text_bow(token_bow, params), params)
