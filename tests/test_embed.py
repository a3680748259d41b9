"""Modality encoders: TCN time-series path and bag-of-tokens event path."""

import numpy as np
import pytest

from microdiag import autodiff as ad
from microdiag.embed import (
    EMPTY_ID,
    KERNEL_WIDTH,
    UNK_ID,
    encode_nodes,
    encoder_graph,
    event_weights,
    events_graph,
    init_encoder_params,
    uniform_init,
)
from microdiag.prng import prng_new
from microdiag.types import NodeSegments

from conftest import finite_difference


D, VOCAB = 3, 6


@pytest.fixture(scope="module")
def params():
    return init_encoder_params(
        prng_new(42).child("init"), d=D, metric_channels=2, log_channels=4,
        trace_channels=3, vocab_size=VOCAB,
    )


def tensors(params):
    return {k: ad.constant(v) for k, v in params.items()}


def encode_series(segment, params, prefix):
    """One (channels, T) segment through the TCN -> R^d; the encoder takes
    a time-major (T, rows, channels) batch, here of one row."""
    return encoder_graph(ad.constant(segment.T[:, None]), tensors(params), prefix).data[0]


def encode_alerts(ids, params):
    """One alert id sequence through the bag-of-tokens encoder -> R^d."""
    return events_graph(event_weights([tuple(ids)], VOCAB), tensors(params)).data[0]


class TestInit:
    def test_named_streams_are_order_independent(self):
        a = uniform_init(prng_new(0), "enc_metric/conv1_w", (2, 2, 3), 6)
        _ = uniform_init(prng_new(0), "enc_log/conv1_w", (5, 5), 25)
        b = uniform_init(prng_new(0), "enc_metric/conv1_w", (2, 2, 3), 6)
        assert np.array_equal(a, b)

    def test_bound_follows_fan_in(self):
        arr = uniform_init(prng_new(1), "w", (2000,), 16)
        assert np.abs(arr).max() <= 0.25
        assert np.abs(arr).max() > 0.2  # actually fills the range

    def test_shared_tensors_identical_across_widths(self, params):
        # a variant with a different head keeps byte-identical encoders as
        # long as the per-tensor init streams are named, not positional
        again = init_encoder_params(
            prng_new(42).child("init"), d=D, metric_channels=2, log_channels=4,
            trace_channels=3, vocab_size=VOCAB,
        )
        for k, v in params.items():
            assert np.array_equal(v, again[k]), k


class TestTimeseriesEncoder:
    def test_too_short_segment_rejected(self, params):
        with pytest.raises(ValueError, match="shorter than kernel"):
            encode_series(np.zeros((2, KERNEL_WIDTH - 1)), params, "enc_metric")

    def test_constant_series_is_length_invariant(self, params):
        # mean-pool over time: a flat series encodes identically at any
        # length once both convolutions fit
        base = encode_series(np.full((2, 8), 1.7), params, "enc_metric")
        long = encode_series(np.full((2, 50), 1.7), params, "enc_metric")
        np.testing.assert_allclose(base, long, atol=1e-12)
        assert base.shape == (D,)

    def test_output_depends_on_input(self, params):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 12))
        a = encode_series(x, params, "enc_metric")
        b = encode_series(x + 0.5, params, "enc_metric")
        assert not np.allclose(a, b)

    def test_gradients_match_fd_through_encoder(self, params):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 9))
        weights = rng.normal(size=(1, D))
        arrays = {k: v.copy() for k, v in params.items() if k.startswith("enc_metric")}

        def make_loss():
            p = {k: ad.parameter(v) for k, v in arrays.items()}
            out = encoder_graph(ad.constant(x.T[:, None]), p, "enc_metric")
            return ad.tsum(ad.mul(out, ad.constant(weights)))

        tensors = {k: ad.parameter(v) for k, v in arrays.items()}
        out = encoder_graph(ad.constant(x.T[:, None]), tensors, "enc_metric")
        ad.backward(ad.tsum(ad.mul(out, ad.constant(weights))))
        fd = finite_difference(lambda: float(make_loss().data), arrays)
        for k in arrays:
            err = np.abs(tensors[k].grad - fd[k]).max()
            scale = np.abs(fd[k]).max() + 1e-8
            assert err / scale < 1e-4, k


class TestEventEncoder:
    def test_weight_rows_hand_arithmetic(self):
        w = event_weights([(2, 2, 5), (), (4,)], VOCAB)
        assert w.shape == (3, VOCAB)
        assert w[0].tolist() == [0, 0, 2 / 3, 0, 0, 1 / 3]
        assert w[1].tolist() == [1, 0, 0, 0, 0, 0]  # EMPTY one-hot
        assert w[2, 4] == 1.0 and w[2].sum() == 1.0
        assert EMPTY_ID == 0 and UNK_ID == 1

    def test_repeated_token_normalizes_to_single(self, params):
        a = encode_alerts([3, 3], params)
        b = encode_alerts([3], params)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_sequence_uses_empty_row(self, params):
        a = encode_alerts([], params)
        b = encode_alerts([EMPTY_ID], params)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_out_of_vocab_id_rejected(self):
        with pytest.raises(ValueError, match="outside vocabulary"):
            event_weights([(VOCAB,)], VOCAB)

    def test_gradients_match_fd_through_bag(self, params):
        rng = np.random.default_rng(2)
        weights = event_weights([(1, 2), (0,)], VOCAB)
        readout = rng.normal(size=(2, D))
        arrays = {k: v.copy() for k, v in params.items() if k.startswith("event_embed")}

        tensors = {k: ad.parameter(v) for k, v in arrays.items()}
        ad.backward(ad.tsum(ad.mul(events_graph(weights, tensors), ad.constant(readout))))

        def loss():
            p = {k: ad.parameter(v) for k, v in arrays.items()}
            return float(ad.tsum(ad.mul(events_graph(weights, p), ad.constant(readout))).data)

        fd = finite_difference(loss, arrays)
        for k in arrays:
            np.testing.assert_allclose(tensors[k].grad, fd[k], rtol=1e-5, atol=1e-7,
                                       err_msg=k)


class TestEmbedWindow:
    """`encode_nodes`, the encoder stage of the forward graph."""

    def make_segments(self, rng, n=2, T=10):
        return [
            NodeSegments(
                metric=rng.normal(size=(2, T)),
                log=rng.integers(0, 3, size=(4, T)).astype(float),
                trace=rng.normal(size=(3, T)),
                alerts=(2, 4) if i == 0 else (),
            )
            for i in range(n)
        ]

    def encode(self, segs, params):
        # time-major (T, rows, channels) batches
        return encode_nodes(
            tensors(params),
            np.stack([seg.metric.T for seg in segs], axis=1),
            np.stack([seg.log.T for seg in segs], axis=1),
            np.stack([seg.trace.T for seg in segs], axis=1),
            event_weights([seg.alerts for seg in segs], VOCAB),
        ).data

    def test_trace_feature_is_sum_of_series_and_events(self, params):
        rng = np.random.default_rng(3)
        segs = self.make_segments(rng)
        x = self.encode(segs, params)
        assert x.shape == (len(segs), 3 * D)
        for seg, row in zip(segs, x):
            x_metric, x_log, x_trace = np.split(row, 3)
            ts = encode_series(seg.trace, params, "enc_trace")
            ev = encode_alerts(seg.alerts, params)
            np.testing.assert_allclose(x_trace, ts + ev, atol=1e-12)
            np.testing.assert_allclose(
                x_metric, encode_series(seg.metric, params, "enc_metric"), atol=1e-12,
            )
            np.testing.assert_allclose(
                x_log, encode_series(seg.log, params, "enc_log"), atol=1e-12,
            )

    def test_node_features_are_local(self, params):
        rng = np.random.default_rng(4)
        segs = self.make_segments(rng)
        before = self.encode(segs, params)
        # perturb node 1 only; node 0's features must be bit-identical
        segs2 = [segs[0], NodeSegments(metric=segs[1].metric + 5.0, log=segs[1].log,
                                       trace=segs[1].trace, alerts=segs[1].alerts)]
        after = self.encode(segs2, params)
        assert np.array_equal(before[0], after[0])
        assert not np.allclose(before[1, :D], after[1, :D])
