"""Tape gradients against central finite differences, op by op."""

import weakref

import numpy as np
import pytest

from microdiag.autodiff import (
    add,
    addc,
    apply_dropout,
    backward,
    concat,
    constant,
    conv1d_valid,
    cross_entropy,
    dropout_mask,
    layer_norm,
    matmul,
    mul,
    mulc,
    parameter,
    powc,
    relu,
    reshape,
    sub,
    tmean,
    transpose,
    tsum,
)
from microdiag.prng import prng_new

from conftest import finite_difference, watch_tape


def check_grads(make_loss, arrays, rtol=1e-5, atol=1e-7):
    """Tape gradients of make_loss must match finite differences.

    make_loss receives {name: Tensor} and returns a scalar Tensor; arrays
    are mutated in place by the probe, so make_loss must rebuild tensors
    from them on every call.
    """
    tensors = {k: parameter(v) for k, v in arrays.items()}
    backward(make_loss(tensors))
    fd = finite_difference(
        lambda: float(make_loss({k: parameter(v) for k, v in arrays.items()}).data),
        arrays,
    )
    for k in arrays:
        assert tensors[k].grad is not None, k
        np.testing.assert_allclose(tensors[k].grad, fd[k], rtol=rtol, atol=atol,
                                   err_msg=k)


def weighted(out, rng):
    """Scalar readout with non-uniform weights so every grad entry matters."""
    return tsum(mul(out, constant(rng.normal(size=out.shape))))


class TestElementwiseOps:
    def test_add_sub_mul_with_broadcasting(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(4,)),      # broadcast up
            "c": rng.normal(size=(3, 1)),    # broadcast across columns
            "d": rng.normal(size=(3, 4)),
        }
        w = np.random.default_rng(1)

        def make_loss(t):
            out = mul(sub(add(t["a"], t["b"]), t["c"]), t["d"])
            return weighted(out, np.random.default_rng(1))

        check_grads(make_loss, arrays)

    def test_scalar_like_parameter_accumulates(self):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "s": np.array([2.0])}
        t = {k: parameter(v) for k, v in arrays.items()}
        backward(tsum(mul(t["a"], t["s"])))
        # d/ds sum(a * s) collapses the broadcast: sum of all of a
        assert t["s"].grad.shape == (1,)
        assert t["s"].grad[0] == arrays["a"].sum()

    def test_constant_scalings(self):
        rng = np.random.default_rng(2)
        arrays = {"x": rng.uniform(0.5, 2.0, size=(3, 3))}

        def make_loss(t):
            out = mulc(addc(powc(t["x"], 1.5), 3.0), -0.25)
            return weighted(out, np.random.default_rng(3))

        check_grads(make_loss, arrays)


class TestMatmul:
    def test_plain(self):
        rng = np.random.default_rng(4)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        check_grads(lambda t: weighted(matmul(t["a"], t["b"]),
                                       np.random.default_rng(5)), arrays)

    def test_batched_with_shared_right_operand(self):
        rng = np.random.default_rng(6)
        arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 5))}
        check_grads(lambda t: weighted(matmul(t["a"], t["b"]),
                                       np.random.default_rng(7)), arrays)


class TestShapeOps:
    def test_relu_masks_gradient(self):
        x = parameter(np.array([-2.0, 0.0, 3.0]))
        backward(tsum(relu(x)))
        # subgradient 0 at the origin: mask is strictly-positive data
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_relu_fd_away_from_kink(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.2, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
        check_grads(lambda t: weighted(relu(t["x"]), np.random.default_rng(9)),
                    {"x": x})

    def test_reshape_and_concat(self):
        rng = np.random.default_rng(10)
        arrays = {
            "a": rng.normal(size=(2, 3)),
            "b": rng.normal(size=(2, 2)),
            "c": rng.normal(size=(2, 1)),
        }

        def make_loss(t):
            out = reshape(concat([t["a"], t["b"], t["c"]], axis=-1), (3, 4))
            return weighted(out, np.random.default_rng(11))

        check_grads(make_loss, arrays)

    def test_concat_axis_zero(self):
        rng = np.random.default_rng(12)
        arrays = {"a": rng.normal(size=(1, 3)), "b": rng.normal(size=(2, 3))}
        check_grads(lambda t: weighted(concat([t["a"], t["b"]], axis=0),
                                       np.random.default_rng(13)), arrays)


class TestReductions:
    def test_tsum_all(self):
        rng = np.random.default_rng(14)
        check_grads(lambda t: tsum(mul(t["x"], t["x"])),
                    {"x": rng.normal(size=(3, 5))})

    def test_tsum_axis_keepdims(self):
        rng = np.random.default_rng(15)

        def make_loss(t):
            out = tsum(t["x"], axis=1, keepdims=True)  # (3, 1)
            return weighted(out, np.random.default_rng(16))

        check_grads(make_loss, {"x": rng.normal(size=(3, 5))})

    def test_tmean_last_axis(self):
        rng = np.random.default_rng(17)

        def make_loss(t):
            out = tmean(mul(t["x"], t["x"]), axis=-1)
            return weighted(out, np.random.default_rng(18))

        check_grads(make_loss, {"x": rng.normal(size=(4, 6))})


def naive_conv1d(x, w, b):
    """Triple-loop oracle of `conv1d_valid`: time-major x (T, B, C), w (F, C,
    K), b (F,) -> (T-K+1, B, F)."""
    T, B, C = x.shape
    F, _, K = w.shape
    out = np.empty((T - K + 1, B, F))
    for o in range(T - K + 1):
        for row in range(B):
            for f in range(F):
                out[o, row, f] = b[f] + sum(
                    w[f, c, k] * x[o + k, row, c] for c in range(C) for k in range(K))
    return out


def naive_conv1d_grads(x, w, g):
    """Triple-loop gradients of sum(g * conv1d_valid(x, w, b)) for x, w, b."""
    T, B, C = x.shape
    F, _, K = w.shape
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for o in range(T - K + 1):
        for row in range(B):
            for f in range(F):
                for c in range(C):
                    for k in range(K):
                        gx[o + k, row, c] += g[o, row, f] * w[f, c, k]
                        gw[f, c, k] += g[o, row, f] * x[o + k, row, c]
    return gx, gw, g.sum(axis=(0, 1))


class TestConv1d:
    def test_hand_values(self):
        x = constant(np.array([[[1.0]], [[2.0]], [[3.0]]]))  # (T=3, B=1, C=1)
        w = constant(np.array([[[1.0, 2.0]]]))               # (F=1, C=1, K=2)
        b = constant(np.array([10.0]))
        out = conv1d_valid(x, w, b)
        assert out.data.shape == (2, 1, 1)
        assert out.data[:, 0, 0].tolist() == [15.0, 18.0]    # [1+4, 2+6] + 10

    def test_matches_naive_loops(self):
        # uneven B, C, T and F so a swapped axis cannot pass
        rng = np.random.default_rng(30)
        x = rng.normal(size=(11, 5, 3))  # (T, B, C)
        w, b = rng.normal(size=(4, 3, 3)), rng.normal(size=(4,))
        g = rng.normal(size=(9, 5, 4))
        xt, wt, bt = parameter(x), parameter(w), parameter(b)
        out = conv1d_valid(xt, wt, bt)
        np.testing.assert_allclose(out.data, naive_conv1d(x, w, b), rtol=0, atol=1e-12)
        backward(tsum(mul(out, constant(g))))
        for got, want in zip((xt.grad, wt.grad, bt.grad), naive_conv1d_grads(x, w, g)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_causality_no_future_leakage(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(8, 1, 2))  # (T, B, C)
        w, b = rng.normal(size=(3, 2, 3)), rng.normal(size=(3,))
        base = conv1d_valid(constant(x), constant(w), constant(b)).data
        assert base.shape == (6, 1, 3)  # (T-K+1, B, F)
        bumped = x.copy()
        bumped[5] += 100.0  # position o=5 first visible at output o-K+1=3
        out = conv1d_valid(constant(bumped), constant(w), constant(b)).data
        assert np.array_equal(out[:3], base[:3])
        assert not np.allclose(out[3], base[3])

    def test_fd(self):
        rng = np.random.default_rng(20)
        arrays = {
            "x": rng.normal(size=(7, 2, 3)),  # (T, B, C)
            "w": rng.normal(size=(2, 3, 3)) * 0.5,
            "b": rng.normal(size=(2,)),
        }

        def make_loss(t):
            out = conv1d_valid(t["x"], t["w"], t["b"])
            return weighted(out, np.random.default_rng(21))

        check_grads(make_loss, arrays, rtol=1e-5, atol=1e-6)

    def test_batch_rows_are_independent(self):
        # row b of the output is the convolution of row b of the input alone
        rng = np.random.default_rng(28)
        x = rng.normal(size=(9, 4, 3))
        w, b = rng.normal(size=(2, 3, 3)), rng.normal(size=(2,))
        out = conv1d_valid(constant(x), constant(w), constant(b)).data
        for row in range(4):
            alone = conv1d_valid(constant(x[:, row : row + 1]), constant(w), constant(b)).data
            np.testing.assert_allclose(out[:, row : row + 1], alone, rtol=0, atol=1e-12)

    def test_constant_input_gets_no_gradient(self):
        # the input gradient is skipped, and skipping it leaves the weight
        # and bias gradients bit-identical to a parameter input's
        rng = np.random.default_rng(29)
        x = rng.normal(size=(7, 5, 3))
        w0, b0 = rng.normal(size=(4, 3, 3)), rng.normal(size=(4,))
        readout = rng.normal(size=(5, 5, 4))
        grads = {}
        for make_x in (constant, parameter):
            xt, w, b = make_x(x), parameter(w0), parameter(b0)
            out = conv1d_valid(xt, w, b)
            assert (out.grad_fn(readout)[0] is None) == (make_x is constant)
            backward(tsum(mul(out, constant(readout))))
            assert (xt.grad is None) == (make_x is constant)
            grads[make_x] = (w.grad, b.grad)
        for a, b in zip(grads[constant], grads[parameter]):
            assert a.tobytes() == b.tobytes()

    def test_shape_errors(self):
        x = constant(np.zeros((4, 1, 2)))  # (T, B, C)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv1d_valid(x, constant(np.zeros((1, 3, 2))), constant(np.zeros(1)))
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv1d_valid(x, constant(np.zeros((1, 2, 5))), constant(np.zeros(1)))


class TestFusedRelu:
    """`conv1d_valid(..., relu=True)` against `relu(conv1d_valid(...))`."""

    @staticmethod
    def lattice(seed, dtype):
        # small integers, so many pre-activations are exactly 0 (and some -0.0)
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, size=(8, 5, 3)).astype(dtype)
        w = rng.integers(-1, 2, size=(4, 3, 3)).astype(dtype)
        b = np.array([0.0, 1.0, -1.0, 0.0], dtype=dtype)
        return x, w, b, rng.normal(size=(6, 5, 4)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_relu_of_conv_bit_for_bit(self, dtype):
        x, w, b, readout = self.lattice(31, dtype)
        results = []
        for fused in (False, True):
            t = {"x": parameter(x), "w": parameter(w), "b": parameter(b)}
            if fused:
                out = conv1d_valid(t["x"], t["w"], t["b"], relu=True)
            else:
                out = relu(conv1d_valid(t["x"], t["w"], t["b"]))
            data = out.data.copy()
            backward(tsum(mul(out, constant(readout))))
            results.append([data] + [t[k].grad for k in ("x", "w", "b")])
        pre = conv1d_valid(constant(x), constant(w), constant(b)).data
        assert np.count_nonzero(pre == 0) > 10  # the kink is exercised
        for plain, fused in zip(*results):
            assert fused.dtype == dtype
            assert fused.tobytes() == plain.tobytes()

    def test_fd_away_from_kink(self):
        rng = np.random.default_rng(32)
        arrays = {
            "x": rng.normal(size=(7, 2, 3)),
            "w": rng.normal(size=(3, 3, 3)) * 0.5,
            "b": rng.normal(size=(3,)),
        }
        pre = conv1d_valid(*(constant(arrays[k]) for k in ("x", "w", "b"))).data
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()
        check_grads(lambda t: weighted(conv1d_valid(t["x"], t["w"], t["b"], relu=True),
                                       np.random.default_rng(33)),
                    arrays, rtol=1e-5, atol=1e-6)

    def test_shared_output_and_shared_gradient_array_match_fd(self):
        # h feeds `add` and `mul`; `add` hands h and k one gradient array, so
        # the in-place mask of one must not reach the other's gradient
        rng = np.random.default_rng(34)
        arrays = {
            "x": rng.normal(size=(6, 2, 2)),
            "w1": rng.normal(size=(3, 2, 3)) * 0.5, "b1": rng.normal(size=(3,)),
            "w2": rng.normal(size=(3, 2, 3)) * 0.5, "b2": rng.normal(size=(3,)),
        }
        for i in ("1", "2"):
            pre = conv1d_valid(constant(arrays["x"]), constant(arrays["w" + i]),
                               constant(arrays["b" + i])).data
            assert np.abs(pre).min() > 1e-3 and (pre < 0).any()

        def make_loss(t):
            h = conv1d_valid(t["x"], t["w1"], t["b1"], relu=True)
            k = conv1d_valid(t["x"], t["w2"], t["b2"], relu=True)
            return add(weighted(add(h, k), np.random.default_rng(35)), tsum(mul(h, h)))

        check_grads(make_loss, arrays, rtol=1e-5, atol=1e-6)


class TestLayerNorm:
    def test_hand_values(self):
        out = layer_norm(constant(np.array([1.0, 3.0])))
        expect = 1.0 / np.sqrt(1.0 + 1e-5)  # mean 2, variance 1, eps guard
        np.testing.assert_allclose(out.data, [-expect, expect], rtol=0, atol=1e-15)

    def test_rows_normalized_independently(self):
        rng = np.random.default_rng(22)
        out = layer_norm(constant(rng.normal(size=(5, 9)) * 7 + 3)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_fd(self):
        rng = np.random.default_rng(23)

        def make_loss(t):
            return weighted(layer_norm(t["x"]), np.random.default_rng(24))

        check_grads(make_loss, {"x": rng.normal(size=(3, 6))}, rtol=1e-4, atol=1e-6)


class TestCrossEntropy:
    def test_hand_value_two_logits(self):
        loss = cross_entropy(constant(np.zeros((1, 2))), np.array([0]))
        assert loss.data == pytest.approx(np.log(2.0), rel=1e-12)

    def test_hand_gradient(self):
        logits = parameter(np.zeros((2, 2)))
        backward(cross_entropy(logits, np.array([0, 1])))
        # softmax 0.5 everywhere; grad = (p - onehot) / B
        np.testing.assert_allclose(logits.grad, [[-0.25, 0.25], [0.25, -0.25]],
                                   atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(25)
        z = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        a = cross_entropy(constant(z), labels).data
        b = cross_entropy(constant(z + 1000.0), labels).data
        assert a == pytest.approx(b, rel=1e-9)

    def test_fd(self):
        rng = np.random.default_rng(26)
        labels = np.array([0, 2, 1, 2])
        check_grads(lambda t: cross_entropy(t["z"], labels),
                    {"z": rng.normal(size=(4, 3))})


class TestBackwardSemantics:
    def test_diamond_dag_accumulates_exactly(self):
        x = parameter(np.array([1.5, -2.0, 0.5]))
        backward(tsum(add(mul(x, x), x)))  # d/dx sum(x^2 + x) = 2x + 1
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-14)

    def test_shared_intermediate_fd(self):
        rng = np.random.default_rng(27)
        arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 4))}

        def make_loss(t):
            h = matmul(t["x"], t["w"])
            return tsum(add(relu(h), mul(h, h)))

        check_grads(make_loss, arrays, atol=1e-6)

    def test_constants_get_no_grad(self):
        c = constant(np.ones(3))
        x = parameter(np.ones(3))
        backward(tsum(mul(x, c)))
        assert c.grad is None and x.grad is not None

    def test_add_gives_each_parent_its_own_gradient(self):
        # `add` hands both parents one array; the first gradient is a copy,
        # so accumulating into one parent leaves the other alone
        x, y = parameter(np.ones(3)), parameter(np.ones(3))
        backward(tsum(add(x, y)))
        assert x.grad is not y.grad
        x.grad += 5.0
        assert y.grad.tolist() == [1.0, 1.0, 1.0]

    def test_backward_frees_interior_nodes_and_keeps_leaf_gradients(self):
        x, w = parameter(np.array([[1.0, 2.0]])), parameter(np.array([[0.5], [3.0]]))
        h = matmul(x, w)
        r = relu(h)
        loss = tsum(r)
        backward(loss)
        for node in (h, r, loss):
            assert node.grad is None and node.grad_fn is None
        assert x.grad.tolist() == [[0.5, 3.0]]
        assert w.grad.tolist() == [[1.0], [2.0]]
        assert loss.data == 6.5  # forward values stay readable

    def test_second_backward_over_a_consumed_graph_raises(self):
        x = parameter(np.array([2.0]))
        loss = tsum(mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            backward(loss)
        # a new loss over a consumed interior node raises too
        h = mul(x, x)
        backward(tsum(h))
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            backward(tsum(addc(h, 1.0)))
        assert x.grad.tolist() == [8.0]

    def test_constant_graph_keeps_no_tape(self):
        rng = np.random.default_rng(36)
        probes = []

        def chain():
            h = matmul(constant(rng.normal(size=(4, 3))), constant(rng.normal(size=(3, 5))))
            probes.append(weakref.ref(h.data))
            return tmean(relu(h), axis=0)

        out = chain()
        assert probes[0]() is None  # nothing holds the intermediate
        assert out.parents == () and out.grad_fn is None and not out.requires_grad
        # a graph with a parameter in it keeps its tape
        x = parameter(np.ones((2, 3)))
        y = relu(matmul(x, constant(np.ones((3, 2)))))
        assert len(y.parents) == 1 and y.grad_fn is not None

    def test_reductions_into_a_node_read_twice_accumulate(self):
        # tsum and tmean hand back read-only broadcast views; the node they
        # feed gets an array of its own and sums both
        rng = np.random.default_rng(37)
        x0, r = rng.normal(size=(3, 4)), rng.normal(size=(3, 1))
        x = parameter(x0)
        h = mulc(x, 2.0)
        loss = add(tsum(tmean(h, axis=0)), tsum(mul(tsum(h, axis=1, keepdims=True), constant(r))))
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 / 3.0 + np.broadcast_to(r, (3, 4))),
                                   rtol=0, atol=1e-15)
        check_grads(lambda t: add(tsum(tmean(mulc(t["x"], 2.0), axis=0)),
                                  tsum(mul(tsum(mulc(t["x"], 2.0), axis=1, keepdims=True),
                                           constant(r)))),
                    {"x": x0.copy()})
        # a leaf fed by reductions only: its gradient is a writable array
        y = parameter(np.ones((2, 3)))
        backward(add(tsum(y), tsum(tmean(y, axis=1))))
        assert y.grad.flags.writeable and y.grad.flags.owndata
        np.testing.assert_array_equal(y.grad, np.full((2, 3), 1.0 + 1.0 / 3.0))

    def test_repeated_backward_requires_fresh_graph(self):
        x = parameter(np.array([2.0]))
        backward(tsum(mul(x, x)))
        g1 = x.grad.copy()
        backward(tsum(mul(x, x)))  # fresh graph accumulates into x.grad
        np.testing.assert_allclose(x.grad, 2 * g1)


class TestDropout:
    def test_rate_zero_is_identity(self):
        mask = dropout_mask(prng_new(0).child("d"), 0.0, (5, 5))
        assert np.all(mask == 1.0)

    def test_inverted_scaling_statistics(self):
        rate = 0.3
        mask = dropout_mask(prng_new(1).child("d"), rate, (200, 200))
        kept = mask > 0
        values = np.unique(mask)
        assert values.tolist() == pytest.approx([0.0, 1.0 / 0.7])
        assert kept.mean() == pytest.approx(1 - rate, abs=0.01)
        assert mask.mean() == pytest.approx(1.0, abs=0.02)  # unbiased in expectation

    def test_mask_is_deterministic_per_prng_path(self):
        a = dropout_mask(prng_new(3).child("step:1"), 0.5, (10,))
        b = dropout_mask(prng_new(3).child("step:1"), 0.5, (10,))
        c = dropout_mask(prng_new(3).child("step:2"), 0.5, (10,))
        assert np.array_equal(a, b) and not np.array_equal(a, c)


# op name -> (graph over float32 leaves, leaf shapes); leaves are drawn from
# [0.5, 2) so that powc's base is positive and relu passes gradient
FLOAT32_CASES = {
    "add": (lambda t: add(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
    "sub": (lambda t: sub(t["a"], t["b"]), {"a": (3, 4), "b": (3, 1)}),
    "mul": (lambda t: mul(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
    "matmul": (lambda t: matmul(t["a"], t["b"]), {"a": (2, 3, 4), "b": (4, 5)}),
    "relu": (lambda t: relu(t["a"]), {"a": (3, 4)}),
    "reshape": (lambda t: reshape(t["a"], (4, 3)), {"a": (3, 4)}),
    "transpose": (lambda t: transpose(t["a"]), {"a": (3, 4)}),
    "concat": (lambda t: concat([t["a"], t["b"]], axis=1), {"a": (3, 4), "b": (3, 2)}),
    "tsum": (lambda t: tsum(t["a"], axis=1, keepdims=True), {"a": (3, 4)}),
    "tmean": (lambda t: tmean(t["a"], axis=0), {"a": (3, 4)}),
    "powc": (lambda t: powc(t["a"], -0.5), {"a": (3, 4)}),
    "addc": (lambda t: addc(t["a"], 1e-5), {"a": (3, 4)}),
    "mulc": (lambda t: mulc(t["a"], 0.25), {"a": (3, 4)}),
    "conv1d_valid": (lambda t: conv1d_valid(t["x"], t["w"], t["b"]),
                     {"x": (7, 3, 2), "w": (4, 2, 3), "b": (4,)}),
    "conv1d_valid_relu": (lambda t: conv1d_valid(t["x"], t["w"], t["b"], relu=True),
                          {"x": (7, 3, 2), "w": (4, 2, 3), "b": (4,)}),
    "layer_norm": (lambda t: layer_norm(t["a"]), {"a": (3, 4)}),
    "cross_entropy": (lambda t: cross_entropy(t["a"], np.array([0, 3, 1])), {"a": (3, 4)}),
    "dropout": (lambda t: apply_dropout(
        t["a"], dropout_mask(prng_new(0), 0.5, (3, 4), np.float32)), {"a": (3, 4)}),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
def test_float32_inputs_keep_float32_data_and_gradients(name):
    build, shapes = FLOAT32_CASES[name]
    rng = np.random.default_rng(0)
    t = {k: parameter(rng.uniform(0.5, 2.0, size=s).astype(np.float32))
         for k, s in shapes.items()}
    out = build(t)
    loss = out if out.data.ndim == 0 else tsum(out)
    seen = watch_tape(loss)
    backward(loss)
    assert seen["data"] == {np.dtype(np.float32)}
    assert seen["grad"] == {np.dtype(np.float32)}
    for k, leaf in t.items():
        assert leaf.grad.dtype == np.float32, k


def test_dropout_mask_takes_the_dtype_asked_for():
    for rate in (0.0, 0.3):
        assert dropout_mask(prng_new(1), rate, (4, 5), np.float32).dtype == np.float32
        # float64 by default, with the same survivors and scale
        mask = dropout_mask(prng_new(1), rate, (4, 5))
        assert mask.dtype == np.float64
        np.testing.assert_array_equal(
            mask.astype(np.float32), dropout_mask(prng_new(1), rate, (4, 5), np.float32))


def test_non_float32_data_becomes_float64():
    for data in (np.arange(3), [1, 2], 2.5, np.ones(2, dtype=np.float16)):
        assert constant(data).data.dtype == np.float64
    kept = np.ones(3, dtype=np.float32)
    assert constant(kept).data is kept


def test_finite_difference_selftest():
    c = np.array([1.0, -2.0, 3.0])
    x = np.array([0.4, 0.1, -0.7])
    grads = finite_difference(lambda: float((c * x * x).sum()), {"x": x})
    np.testing.assert_allclose(grads["x"], 2 * c * x, rtol=1e-8, atol=1e-9)
    assert x.tolist() == [0.4, 0.1, -0.7]  # probe restores values
