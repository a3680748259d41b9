"""Minimal reverse-mode automatic differentiation over numpy arrays.

Implements exactly the operations the encoders and diagnosis models need:
broadcast-aware arithmetic, matmul, valid causal 1-D convolution, reductions,
layer normalization, and a numerically stable softmax cross-entropy.
Gradients are accumulated by walking the tape in reverse topological order.

A tensor holds float32 or float64 data: float32 stays float32 and anything
else becomes float64. Each op's output, and every gradient it hands back,
takes its inputs' dtype, as do the arrays ops make themselves (a dropout
mask, `conv1d_valid`'s input-gradient buffer, `backward`'s seed). So a graph
built from float32 leaves runs in float32 end to end, provided no float64
array joins it; Python float constants do not promote.

`mul`, `matmul` and `conv1d_valid` decide when built which inputs get a
gradient, and return `None` for an input that requires none (a dropout mask,
the adjacency, event-weight rows, raw segments). A tensor that requires no
gradient keeps no parents and no `grad_fn`: a graph of constants records no
tape, and each activation goes once the next op has read it. `backward`
frees the tape as it consumes it: only leaves keep gradients, and a graph
is walked once. It hands each node a gradient that node alone holds, so a
`grad_fn` may scale it in place, as `conv1d_valid(..., relu=True)` does.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "matmul",
    "relu",
    "reshape",
    "transpose",
    "concat",
    "tsum",
    "tmean",
    "powc",
    "addc",
    "mulc",
    "conv1d_valid",
    "layer_norm",
    "dropout_mask",
    "apply_dropout",
    "cross_entropy",
    "backward",
]


class Tensor:
    """A node in the computation graph wrapping a float32 or float64 ndarray:
    float32 data is kept as it is, anything else is converted to float64."""

    __slots__ = ("data", "grad", "parents", "grad_fn", "requires_grad")

    def __init__(self, data, parents=(), grad_fn=None, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # a constant keeps no tape: its inputs and grad_fn closure go at once
        self.parents: tuple[Tensor, ...] = parents if self.requires_grad else ()
        self.grad_fn: Optional[Callable] = grad_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast up from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out_data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return Tensor(out_data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.shape) if need_a else None,
            _unbroadcast(g * a.data, b.shape) if need_b else None,
        )

    return Tensor(out_data, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcasting over leading axes."""
    out_data = a.data @ b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if need_a else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if need_b else None
        return ga, gb

    return Tensor(out_data, (a, b), grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out_data = a.data * mask

    def grad_fn(g):
        return (g * mask,)

    return Tensor(out_data, (a,), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.shape),)

    return Tensor(out_data, (a,), grad_fn)


def transpose(a: Tensor) -> Tensor:
    """Matrix transpose of a 2-D tensor."""
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out_data, parts, grad_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        # a read-only view: `backward` copies it into the parent's gradient
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return Tensor(out_data, (a,), grad_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out = tsum(a, axis=axis, keepdims=keepdims)
    return mulc(out, 1.0 / count)


def powc(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def grad_fn(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return Tensor(out_data, (a,), grad_fn)


def addc(a: Tensor, c: float) -> Tensor:
    out_data = a.data + c

    def grad_fn(g):
        return (g,)

    return Tensor(out_data, (a,), grad_fn)


def mulc(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def grad_fn(g):
        return (g * c,)

    return Tensor(out_data, (a,), grad_fn)


def conv1d_valid(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Causal valid convolution: out[o, .., f] = sum_{c,k} w[f,c,k] x[o+k, .., c].

    Time-major: x: (T, B, C), w: (F, C, K), b: (F,). Output (T-K+1, B, F),
    so two convolutions chain with no transpose between them; position o sees
    only inputs at times <= o+K-1, so no future leakage and no padding. The
    input gradient is built only when x requires one.

    With `relu`, the output is `relu(conv1d_valid(x, w, b))` bit for bit,
    made in place: the tape keeps no pre-activation and no mask, and the
    backward masks the gradient with `out > 0`.
    """
    T, B, C = x.data.shape
    F, Cw, K = w.data.shape
    if Cw != C:
        raise ValueError(f"conv channel mismatch: input {C}, kernel {Cw}")
    if T < K:
        raise ValueError(f"segment length {T} shorter than kernel width {K}")
    O = T - K + 1
    # x as (T*B, C): tap k is the row block [k*B, (k+O)*B), one GEMM with no
    # copy of x; the (K, C, F) taps of w are one small transposed copy
    xs = x.data.reshape(T * B, C)
    wk = w.data.transpose(2, 1, 0).copy()
    acc = xs[0 : O * B] @ wk[0]
    for k in range(1, K):
        acc += xs[k * B : (k + O) * B] @ wk[k]
    acc += b.data
    if relu:
        acc *= acc > 0  # `relu`'s product with its mask, so the same bits
    need_x = x.requires_grad

    def grad_fn(g):
        gt = g.reshape(O * B, F)
        if relu:
            gt *= acc > 0
        gw = np.empty_like(w.data)
        gx = np.zeros((T * B, C), dtype=xs.dtype) if need_x else None
        for k in range(K):
            gw[:, :, k] = gt.T @ xs[k * B : (k + O) * B]
            if need_x:
                gx[k * B : (k + O) * B] += gt @ wk[k].T
        return (None if gx is None else gx.reshape(T, B, C)), gw, gt.sum(axis=0)

    return Tensor(acc.reshape(O, B, F), (x, w, b), grad_fn)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; no learned affine."""
    m = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, m)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    return mul(centered, powc(addc(var, eps), -0.5))


def dropout_mask(prng, rate: float, shape, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask of `dtype`: survivors scaled by 1/(1-rate)."""
    keep = prng.uniform(size=shape) >= rate
    return (keep / (1.0 - rate)).astype(dtype, copy=False)


def apply_dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    return mul(x, constant(mask))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy via log-sum-exp; labels are class indices."""
    z = logits.data
    B = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    loss = (lse[:, 0] - z[np.arange(B), labels]).mean()

    def grad_fn(g):
        soft = np.exp(z - lse)
        soft[np.arange(B), labels] -= 1.0
        return (g * soft / B,)

    return Tensor(loss, (logits,), grad_fn)


def backward(out: Tensor) -> None:
    """Accumulate gradients of `out` (a scalar) into every reachable leaf,
    releasing each interior node once consumed; a second walk raises."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node.parents and node.grad_fn is None:
            raise RuntimeError("graph already consumed by backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node.grad_fn is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.grad_fn(node.grad)):
            if not parent.requires_grad or g is None:
                continue
            if parent.grad is None:
                # a copy: `add` hands both parents the one array
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = g
            else:
                parent.grad += g
        node.grad = node.grad_fn = None
