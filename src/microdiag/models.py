"""Diagnosis backbones: a topology-agnostic MLP and its graph-conv twin.

Both models consume identical per-node features. Each node's modality
vectors and learnable position embedding are concatenated (width 4d) and
passed through a shared fusion block, Dropout(ReLU(LN(Wx + b))). DiagMLP
then concatenates the N fused vectors in node-index order and applies a
second fusion block plus an affine task head; it never reads the graph. The
GCN variant inserts exactly two message-passing layers H <- ReLU(A_hat H W)
between modal fusion and node concatenation, with
A_hat = D^{-1/2}(A + A^T + I)D^{-1/2}, and is otherwise identical — the
ablation swaps one stage and holds everything else fixed.

Losses are mean softmax cross-entropy; gradients come from the reverse-mode
tape and cover heads, fusion blocks, message passing, encoders, and position
embeddings. Dropout, at the protocol's DROPOUT_RATE, applies exactly when
a step PRNG is passed, which only training does. A training step's tape runs
in its batch's dtype, float32 or float64, while parameters and the gradients
returned stay float64. A batch holds its series time-major, (T, B*N, C):
each conv tap is a block of rows.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import embed
from .prng import Prng
from .types import FAULT_TYPES, Backbone, ServiceGraph, Task

__all__ = [
    "LN_EPS",
    "DROPOUT_RATE",
    "init_params",
    "normalized_adjacency",
    "loss_and_grads",
    "count_params",
    "head_name",
    "WindowBatch",
    "windows_to_batch",
    "forward_graph",
    "check_batch",
    "adjacency",
    "trunk",
    "head",
]

LN_EPS = 1e-5
DROPOUT_RATE = 0.1


def head_name(task: Task) -> str:
    return f"head_{task.value.lower()}"


def head_classes(task: Task, n_nodes: int) -> int:
    if task is Task.DETECT:
        return 2
    if task is Task.LOCALIZE:
        return n_nodes
    return len(FAULT_TYPES)


def init_params(
    prng: Prng,
    task: Task,
    backbone: Backbone,
    n_nodes: int,
    d: int,
    hidden: int,
    vocab_size: int,
    metric_channels: int,
    log_channels: int,
    trace_channels: int,
) -> dict[str, np.ndarray]:
    """Encoder + trunk + task-head parameters.

    Every tensor draws from a PRNG stream named after it, so tensors shared
    by both backbones initialize identically regardless of creation order.
    """
    h_out = 2 * hidden
    params = embed.init_encoder_params(
        prng, d, metric_channels, log_channels, trace_channels, vocab_size
    )

    def u(name, shape, fan_in):
        params[name] = embed.uniform_init(prng, name, shape, fan_in)

    u("pos_embed", (n_nodes, d), d)
    u("modal_fusion/w", (hidden, 4 * d), 4 * d)
    u("modal_fusion/b", (hidden,), 4 * d)
    u("node_fusion/w", (h_out, n_nodes * hidden), n_nodes * hidden)
    u("node_fusion/b", (h_out,), n_nodes * hidden)
    if backbone is Backbone.GCN:
        u("gcn/w1", (hidden, hidden), hidden)
        u("gcn/w2", (hidden, hidden), hidden)
    c = head_classes(task, n_nodes)
    u(f"{head_name(task)}/w", (c, h_out), h_out)
    u(f"{head_name(task)}/b", (c,), h_out)
    return params


def normalized_adjacency(graph: ServiceGraph) -> np.ndarray:
    """A_hat = D^{-1/2} (A + A^T + I) D^{-1/2}; an edge present in both
    directions contributes 2, matching the literal symmetrization.

    An edgeless graph yields exactly the identity, so the propagation step
    A_hat H leaves every node's hidden vector unchanged."""
    n = graph.n_nodes
    m = np.eye(n)
    for u, v in graph.edges:
        m[u, v] += 1.0
        m[v, u] += 1.0
    d_inv_sqrt = 1.0 / np.sqrt(m.sum(axis=1))
    return m * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def _fusion_block(
    x: ad.Tensor,
    w: ad.Tensor,
    b: ad.Tensor,
    prng,
) -> ad.Tensor:
    """Dropout(ReLU(LN(Wx + b))) over the rows of a (B, in) tensor, the
    mask drawn from `prng` at DROPOUT_RATE; with no prng, no dropout."""
    z = ad.add(ad.matmul(x, ad.transpose(w)), b)
    h = ad.relu(ad.layer_norm(z, LN_EPS))
    if prng is not None:
        mask = ad.dropout_mask(prng, DROPOUT_RATE, h.data.shape, h.data.dtype)
        return ad.apply_dropout(h, mask)
    return h


class WindowBatch:
    """Dense arrays for a list of windows: each modality's (N, C, T) window
    arrays joined time-major as (T, B*N, C), row b*N + n for node n of window
    b, plus event-weight rows and any labels present. Series and event
    weights are of `dtype`, which a training step's tape follows."""

    def __init__(self, windows, vocab_size: int, dtype=np.float64):
        if not windows:
            raise ValueError("empty batch")
        n = windows[0].n_nodes
        for w in windows:
            if w.n_nodes != n:
                raise ValueError("windows disagree on node count")
        self.n_nodes = n
        self.size = len(windows)
        # per modality one concatenation of the (N, C, T) arrays, one transposing copy
        self.metric, self.log, self.trace = (
            np.concatenate(series, dtype=dtype).transpose(2, 0, 1).copy()
            for series in zip(*((w.metric, w.log, w.trace) for w in windows)))
        self.event_w = embed.event_weights(
            [ids for w in windows for ids in w.alerts], vocab_size
        ).astype(dtype, copy=False)
        self.anomalous = np.array([int(w.label_anomalous) for w in windows])
        self.root_cause = np.array(
            [-1 if w.label_root_cause is None else w.label_root_cause for w in windows]
        )
        self.fault_type = np.array(
            [-1 if w.label_fault_type is None else w.label_fault_type for w in windows]
        )

    def labels(self, task: Task) -> np.ndarray:
        if task is Task.DETECT:
            return self.anomalous
        if task is Task.LOCALIZE:
            return self.root_cause
        return self.fault_type

    def select(self, rows: np.ndarray) -> "WindowBatch":
        out = object.__new__(WindowBatch)
        out.n_nodes = self.n_nodes
        out.size = len(rows)
        node_rows = (rows[:, None] * self.n_nodes + np.arange(self.n_nodes)).ravel()
        out.metric = np.take(self.metric, node_rows, axis=1)  # contiguous, unlike [:, rows]
        out.log = np.take(self.log, node_rows, axis=1)
        out.trace = np.take(self.trace, node_rows, axis=1)
        out.event_w = self.event_w[node_rows]
        out.anomalous = self.anomalous[rows]
        out.root_cause = self.root_cause[rows]
        out.fault_type = self.fault_type[rows]
        return out

    def chunks(self, size: int):
        """Consecutive batches of at most `size` windows, in order; the batch
        itself when it fits in one, so nothing is gathered again."""
        if self.size <= size:
            yield self
            return
        rows = np.arange(self.size)
        for lo in range(0, self.size, size):
            yield self.select(rows[lo : lo + size])


def windows_to_batch(windows, vocab_size: int, dtype=np.float64) -> WindowBatch:
    return WindowBatch(windows, vocab_size, dtype)


def adjacency(
    graph: ServiceGraph | None, backbone: Backbone, disable_message_passing: bool = False
) -> np.ndarray | None:
    """The adjacency a backbone propagates over: none for DIAGMLP, A_hat for
    the GCN, and the identity when message passing is disabled."""
    if backbone is not Backbone.GCN:
        return None
    if graph is None:
        raise ValueError("the GCN backbone needs a service graph")
    if disable_message_passing:
        return np.eye(graph.n_nodes)
    return normalized_adjacency(graph)


def trunk(
    p: dict[str, ad.Tensor],
    x: ad.Tensor,
    backbone: Backbone,
    adj: np.ndarray | None,
    prng=None,
) -> ad.Tensor:
    """Encoded nodes (B*N, 3d) -> pre-head representation (B, h_out):
    position embedding, modal fusion, two message-passing layers for the
    GCN, node fusion.

    Given a step PRNG, dropout masks are drawn from it modal stage first,
    then node stage, so training runs are reproducible from it.
    """
    N = p["pos_embed"].data.shape[0]
    B = x.data.shape[0] // N
    pos = ad.Tensor(
        np.tile(p["pos_embed"].data, (B, 1)),
        (p["pos_embed"],),
        lambda g: (g.reshape(B, N, -1).sum(axis=0),),
    )
    h = _fusion_block(
        ad.concat([x, pos], axis=1), p["modal_fusion/w"], p["modal_fusion/b"], prng,
    )  # (B*N, h)
    hidden = h.data.shape[1]
    if backbone is Backbone.GCN:
        if adj is None:
            raise ValueError("GCN forward requires a normalized adjacency")
        h = ad.reshape(h, (B, N, hidden))
        for w_name in ("gcn/w1", "gcn/w2"):
            h = ad.relu(ad.matmul(ad.matmul(ad.constant(adj), h), p[w_name]))
    return _fusion_block(
        ad.reshape(h, (B, N * hidden)), p["node_fusion/w"], p["node_fusion/b"], prng,
    )


def head(p: dict[str, ad.Tensor], z: ad.Tensor, task: Task) -> ad.Tensor:
    """Affine task head: (B, h_out) -> logits (B, c)."""
    name = head_name(task)
    return ad.add(ad.matmul(z, ad.transpose(p[f"{name}/w"])), p[f"{name}/b"])


def check_batch(p: dict[str, ad.Tensor], batch: WindowBatch, adj: np.ndarray | None) -> None:
    """The batch's node count, then the adjacency's size, must match the
    model's position embedding."""
    n = p["pos_embed"].data.shape[0]
    if batch.n_nodes != n:
        raise ValueError(f"model fuses {n} nodes, got {batch.n_nodes}")
    if adj is not None and adj.shape != (n, n):
        raise ValueError(f"graph has {adj.shape[0]} nodes, features have {n}")


def forward_graph(
    p: dict[str, ad.Tensor],
    batch: WindowBatch,
    task: Task,
    backbone: Backbone,
    adj: np.ndarray | None,
    prng=None,
) -> ad.Tensor:
    """Tape graph from raw segments to logits (B, c): encoders, trunk, head,
    with dropout when `prng` is given (see `trunk`).

    The head check depends on the parameters alone, so it wins over any
    input-shape mismatch; the graph size is checked after the node count.
    """
    if f"{head_name(task)}/w" not in p:
        raise ValueError(f"parameters carry no {task.value} head")
    check_batch(p, batch, adj)
    x = embed.encode_nodes(p, batch.metric, batch.log, batch.trace, batch.event_w)
    return head(p, trunk(p, x, backbone, adj, prng), task)


def loss_and_grads(
    params: dict[str, np.ndarray],
    batch: WindowBatch,
    task: Task,
    backbone: Backbone,
    adj: np.ndarray | None,
    prng=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over a batch plus float64 gradients for every
    parameter tensor. Every row must carry a label for the task; dropout
    applies when `prng` is given.

    The tape runs in the batch's dtype: parameters and the adjacency are
    cast to it at the leaves, and `params` itself is left as it is."""
    labels = batch.labels(task)
    if np.any(labels < 0):
        raise ValueError(
            f"batch rows {np.flatnonzero(labels < 0).tolist()} carry no {task.value} label"
        )
    dtype = batch.metric.dtype
    p = {k: ad.parameter(v.astype(dtype, copy=False)) for k, v in params.items()}
    if adj is not None:
        adj = adj.astype(dtype, copy=False)
    loss = ad.cross_entropy(forward_graph(p, batch, task, backbone, adj, prng), labels)
    ad.backward(loss)
    grads = {
        k: (np.zeros(t.shape) if t.grad is None else t.grad.astype(np.float64, copy=False))
        for k, t in p.items()
    }
    return float(loss.data), grads


def count_params(params: dict[str, np.ndarray], prefix: str = "") -> int:
    """Exact trainable scalar count, optionally restricted to a name prefix."""
    return int(sum(v.size for k, v in params.items() if k.startswith(prefix)))
