"""Per-modality trainable encoders producing d-dimensional node features.

Time-series segments (metric channels, template counts, trace statistics)
pass through a small causal temporal-convolution encoder: two valid 1-D
convolutions with ReLU, global mean-pool over time, affine projection to
R^d. Alert sequences pass through a bag-of-tokens embedding: mean of
vocabulary rows (reserved EMPTY row for empty sequences, UNK for unseen
tokens) followed by an affine projection. A node's trace feature is the sum
of its latency-series encoding and its alert-sequence encoding.

Everything is differentiable through the autodiff tape; parameters live in a
flat name -> f64 array dict shared with the model backbones.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .prng import Prng

__all__ = [
    "TCN_HIDDEN",
    "KERNEL_WIDTH",
    "EMPTY_ID",
    "UNK_ID",
    "init_encoder_params",
    "uniform_init",
    "event_weights",
    "encoder_graph",
    "events_graph",
    "encode_nodes",
]

TCN_HIDDEN = 16
KERNEL_WIDTH = 3
# Vocabulary rows reserved by the preprocess stage.
EMPTY_ID = 0
UNK_ID = 1


def uniform_init(prng: Prng, name: str, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return prng.child(f"init/{name}").uniform(-bound, bound, size=shape)


def init_encoder_params(
    prng: Prng,
    d: int,
    metric_channels: int,
    log_channels: int,
    trace_channels: int,
    vocab_size: int,
) -> dict[str, np.ndarray]:
    """Fresh encoder parameters; each tensor from its own named PRNG stream
    so shared tensors are identical across model variants."""
    params: dict[str, np.ndarray] = {}
    for prefix, c_in in (
        ("enc_metric", metric_channels),
        ("enc_log", log_channels),
        ("enc_trace", trace_channels),
    ):
        for name, shape, fan in (
            (f"{prefix}/conv1_w", (TCN_HIDDEN, c_in, KERNEL_WIDTH), c_in * KERNEL_WIDTH),
            (f"{prefix}/conv1_b", (TCN_HIDDEN,), c_in * KERNEL_WIDTH),
            (f"{prefix}/conv2_w", (TCN_HIDDEN, TCN_HIDDEN, KERNEL_WIDTH), TCN_HIDDEN * KERNEL_WIDTH),
            (f"{prefix}/conv2_b", (TCN_HIDDEN,), TCN_HIDDEN * KERNEL_WIDTH),
            (f"{prefix}/proj_w", (d, TCN_HIDDEN), TCN_HIDDEN),
            (f"{prefix}/proj_b", (d,), TCN_HIDDEN),
        ):
            params[name] = uniform_init(prng, name, shape, fan)
    for name, shape, fan in (
        ("event_embed/table", (vocab_size, d), d),
        ("event_embed/proj_w", (d, d), d),
        ("event_embed/proj_b", (d,), d),
    ):
        params[name] = uniform_init(prng, name, shape, fan)
    return params


def encoder_graph(x: ad.Tensor, p: dict[str, ad.Tensor], prefix: str) -> ad.Tensor:
    """TCN over a time-major (T, B, C) tensor -> (B, d); the tape-graph
    building block. Each convolution applies its ReLU to its own output
    (`relu=True`), so the tape holds one array per convolution. The mean
    over time, axis 0, leaves (B, hidden) rows."""
    h = ad.conv1d_valid(x, p[f"{prefix}/conv1_w"], p[f"{prefix}/conv1_b"], relu=True)
    h = ad.conv1d_valid(h, p[f"{prefix}/conv2_w"], p[f"{prefix}/conv2_b"], relu=True)
    pooled = ad.tmean(h, axis=0)  # (B, hidden)
    return ad.add(ad.matmul(pooled, ad.transpose(p[f"{prefix}/proj_w"])), p[f"{prefix}/proj_b"])


def event_weights(alert_ids_per_row, vocab_size: int) -> np.ndarray:
    """Normalized token-count rows for a batch of alert sequences; an empty
    sequence becomes a one-hot on the EMPTY token."""
    w = np.zeros((len(alert_ids_per_row), vocab_size))
    for r, ids in enumerate(alert_ids_per_row):
        if not ids:
            w[r, EMPTY_ID] = 1.0
        else:
            for i in ids:
                if not (0 <= i < vocab_size):
                    raise ValueError(f"alert token id {i} outside vocabulary of {vocab_size}")
                w[r, i] += 1.0
            w[r] /= len(ids)
    return w


def events_graph(weights: np.ndarray, p: dict[str, ad.Tensor]) -> ad.Tensor:
    """Bag-of-tokens encoding for precomputed weight rows -> (B, d)."""
    pooled = ad.matmul(ad.constant(weights), p["event_embed/table"])
    return ad.add(
        ad.matmul(pooled, ad.transpose(p["event_embed/proj_w"])),
        p["event_embed/proj_b"],
    )


def encode_nodes(
    p: dict[str, ad.Tensor],
    metric: np.ndarray,
    log: np.ndarray,
    trace: np.ndarray,
    event_w: np.ndarray,
) -> ad.Tensor:
    """The encoder stage: time-major (T, rows, C) segments and event-weight
    rows -> (rows, 3d) as [metric | log | trace series + alert events]."""
    x_metric = encoder_graph(ad.constant(metric), p, "enc_metric")
    x_log = encoder_graph(ad.constant(log), p, "enc_log")
    x_trace = ad.add(encoder_graph(ad.constant(trace), p, "enc_trace"), events_graph(event_w, p))
    return ad.concat([x_metric, x_log, x_trace], axis=1)
