"""Backbone oracles: fusion arithmetic, adjacency, twin equivalence, grads."""

import numpy as np
import pytest

from microdiag import autodiff as ad
from microdiag import embed, models
from microdiag.models import (
    LN_EPS,
    _fusion_block,
    adjacency,
    count_params,
    forward_graph,
    head,
    head_name,
    init_params,
    loss_and_grads,
    normalized_adjacency,
    trunk,
    windows_to_batch,
)
from microdiag.embed import encode_nodes
from microdiag.prng import prng_new
from microdiag.train_eval import SeparabilityMode, separability_report
from microdiag.types import Backbone, DiagnosisWindow, ServiceGraph, Task

from conftest import finite_difference, watch_tape


def make_windows(rng, n_windows=4, n_nodes=3, T=8, anomalous_from=0, channels=(2, 2, 3)):
    mc, lc, tc = channels
    out = []
    for i in range(n_windows):
        # per node in turn, as the rows of each modality's (N, C, T) array
        draws = [
            (rng.normal(size=(mc, T)), rng.integers(0, 3, size=(lc, T)).astype(float),
             rng.normal(size=(tc, T)))
            for _ in range(n_nodes)
        ]
        metric, log, trace = (np.stack(rows) for rows in zip(*draws))
        anom = i >= anomalous_from
        out.append(DiagnosisWindow(
            start_ms=i * 1000, end_ms=(i + 1) * 1000, metric=metric, log=log, trace=trace,
            alerts=tuple((2,) if (i + j) % 2 else () for j in range(n_nodes)),
            label_anomalous=anom,
            label_root_cause=i % n_nodes if anom else None,
            label_fault_type=i % 4 if anom else None,
        ))
    return out


def tiny_params(backbone, task=Task.LOCALIZE, n_nodes=3, d=2, hidden=3, vocab=4):
    # two TCN channels instead of TCN_HIDDEN keep the finite differences cheap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "TCN_HIDDEN", 2)
        return init_params(
            prng_new(11).child("init"), task, backbone, n_nodes, d, hidden,
            vocab_size=vocab, metric_channels=2, log_channels=2, trace_channels=3,
        )


STAR = ServiceGraph(n_nodes=3, node_names=("a", "b", "c"), edges=((0, 1), (0, 2)))


def fusion(x, w, b, prng=None):
    """One fusion block on one vector; dropout only with a prng."""
    out = _fusion_block(ad.constant(np.asarray(x, dtype=np.float64)[None]), ad.constant(w),
                        ad.constant(b), prng)
    return out.data[0]


class TestFusionMlp:
    def test_hand_values_plain_arithmetic(self):
        # z = Wx + b = [3, 1]; LN: mean 2, variance 1 -> +-1/sqrt(1 + eps);
        # ReLU keeps the positive entry only
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.zeros(2)
        out = fusion(np.array([3.0, 1.0]), w, b)
        expect = 1.0 / np.sqrt(1.0 + LN_EPS)
        np.testing.assert_allclose(out, [expect, 0.0], rtol=0, atol=1e-15)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fusion(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_training_dropout_requires_prng(self, monkeypatch):
        # the fusion blocks draw their dropout masks from the step prng, so
        # without one there is no dropout; a wrong graph size is reported first
        rng = np.random.default_rng(14)
        batch = windows_to_batch(make_windows(rng), 4)
        t = {k: ad.parameter(v) for k, v in tiny_params(Backbone.GCN).items()}
        with pytest.raises(ValueError, match="graph has 2 nodes"):
            forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, np.eye(2), prng_new(1))
        unset = forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, np.eye(3)).data
        dropped = forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, np.eye(3), prng_new(1))
        # a rate of 0 draws a mask of ones: the plain forward, bit for bit
        monkeypatch.setattr(models, "DROPOUT_RATE", 0.0)
        plain = forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, np.eye(3), prng_new(1))
        assert np.array_equal(unset, plain.data)
        assert not np.array_equal(dropped.data, plain.data)

    def test_eval_mode_ignores_dropout_rate(self, monkeypatch):
        # with no prng the block is ReLU(LN(Wx + b)) at any rate
        monkeypatch.setattr(models, "DROPOUT_RATE", 0.9)
        x, w, b = np.array([5.0, 1.0, -2.0]), np.eye(3), np.zeros(3)
        z = (x - x.mean()) / np.sqrt(x.var() + LN_EPS)
        np.testing.assert_allclose(fusion(x, w, b), np.maximum(z, 0.0), rtol=0, atol=1e-15)

    def test_training_dropout_reproducible_per_path(self, monkeypatch):
        monkeypatch.setattr(models, "DROPOUT_RATE", 0.5)
        x, w, b = np.array([5.0, 1.0, -2.0, 7.0]), np.eye(4), np.zeros(4)
        a = fusion(x, w, b, prng_new(2).child("step:0"))
        b2 = fusion(x, w, b, prng_new(2).child("step:0"))
        c = fusion(x, w, b, prng_new(2).child("step:1"))
        assert np.array_equal(a, b2) and not np.array_equal(a, c)


class TestNormalizedAdjacency:
    def test_star_graph_oracle(self):
        a_hat = normalized_adjacency(STAR)
        r6 = 1.0 / np.sqrt(6.0)
        expect = np.array([
            [1 / 3, r6, r6],
            [r6, 1 / 2, 0.0],
            [r6, 0.0, 1 / 2],
        ])
        np.testing.assert_allclose(a_hat, expect, rtol=0, atol=1e-15)

    def test_bidirectional_edge_contributes_two(self):
        g = ServiceGraph(n_nodes=2, node_names=("a", "b"), edges=((0, 1), (1, 0)))
        np.testing.assert_allclose(
            normalized_adjacency(g), [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15
        )

    def test_edgeless_graph_is_identity(self):
        eye_graph = ServiceGraph(n_nodes=3, node_names=("a", "b", "c"), edges=())
        assert np.array_equal(normalized_adjacency(eye_graph), np.eye(3))

    def test_adjacency_per_backbone(self):
        assert adjacency(STAR, Backbone.DIAGMLP) is None
        assert adjacency(STAR, Backbone.DIAGMLP, disable_message_passing=True) is None
        assert np.array_equal(adjacency(STAR, Backbone.GCN), normalized_adjacency(STAR))
        assert np.array_equal(adjacency(STAR, Backbone.GCN, disable_message_passing=True),
                              np.eye(3))
        with pytest.raises(ValueError, match="needs a service graph"):
            adjacency(None, Backbone.GCN)

    def test_symmetric_and_row_mass(self):
        a_hat = normalized_adjacency(STAR)
        assert np.array_equal(a_hat, a_hat.T)
        assert a_hat.min() >= 0


class TestWindowBatch:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(0)
        windows = make_windows(rng, n_windows=4, anomalous_from=2)
        batch = windows_to_batch(windows, vocab_size=4)
        assert batch.size == 4 and batch.n_nodes == 3
        assert batch.metric.shape == (8, 12, 2)  # (T, windows x nodes, channels)
        assert batch.trace.shape == (8, 12, 3)
        # row b*N + n holds node n of window b
        assert np.array_equal(batch.metric[:, 1 * 3 + 2].T, windows[1].segments[2].metric)
        assert np.array_equal(batch.trace[:, 3 * 3 + 0].T, windows[3].segments[0].trace)
        assert batch.metric.flags["C_CONTIGUOUS"] and batch.trace.flags["C_CONTIGUOUS"]
        assert batch.event_w.shape == (12, 4)
        assert batch.labels(Task.DETECT).tolist() == [0, 0, 1, 1]
        assert batch.labels(Task.LOCALIZE).tolist() == [-1, -1, 2, 0]
        assert batch.labels(Task.CLASSIFY).tolist() == [-1, -1, 2, 3]

    def test_select_matches_direct_construction(self):
        rng = np.random.default_rng(1)
        windows = make_windows(rng)
        batch = windows_to_batch(windows, 4)
        sub = batch.select(np.array([2, 0]))
        direct = windows_to_batch([windows[2], windows[0]], 4)
        for attr in ("metric", "log", "trace", "event_w",
                     "anomalous", "root_cause", "fault_type"):
            assert np.array_equal(getattr(sub, attr), getattr(direct, attr)), attr
        assert sub.metric.flags["C_CONTIGUOUS"] and sub.trace.flags["C_CONTIGUOUS"]

    def test_chunks_are_the_batch_itself_when_it_fits(self):
        rng = np.random.default_rng(5)
        batch = windows_to_batch(make_windows(rng, n_windows=5), 4)
        assert [c is batch for c in batch.chunks(5)] == [True]
        pieces = list(batch.chunks(2))
        assert [c.size for c in pieces] == [2, 2, 1]
        for attr in ("metric", "log", "trace", "event_w", "anomalous", "root_cause", "fault_type"):
            whole = np.concatenate([getattr(c, attr) for c in pieces],
                                   axis=1 if attr in ("metric", "log", "trace") else 0)
            assert np.array_equal(whole, getattr(batch, attr)), attr

    def test_guards(self):
        with pytest.raises(ValueError, match="empty batch"):
            windows_to_batch([], 4)
        rng = np.random.default_rng(2)
        mixed = make_windows(rng, n_windows=1) + make_windows(rng, n_windows=1, n_nodes=2)
        with pytest.raises(ValueError, match="node count"):
            windows_to_batch(mixed, 4)


class TestForward:
    def test_identity_gcn_equals_diagmlp_bitwise(self):
        rng = np.random.default_rng(3)
        windows = make_windows(rng)
        p_mlp = tiny_params(Backbone.DIAGMLP)
        p_gcn = tiny_params(Backbone.GCN)
        for k, v in p_mlp.items():
            assert np.array_equal(v, p_gcn[k]), k  # named init streams agree
        hidden = p_gcn["modal_fusion/w"].shape[0]
        p_gcn["gcn/w1"] = np.eye(hidden)
        p_gcn["gcn/w2"] = np.eye(hidden)

        batch = windows_to_batch(windows, 4)
        t_mlp = {k: ad.parameter(v) for k, v in p_mlp.items()}
        t_gcn = {k: ad.parameter(v) for k, v in p_gcn.items()}
        out_mlp = forward_graph(t_mlp, batch, Task.LOCALIZE, Backbone.DIAGMLP, None)
        out_gcn = forward_graph(t_gcn, batch, Task.LOCALIZE, Backbone.GCN, np.eye(3))
        assert np.array_equal(out_mlp.data, out_gcn.data)

    def test_identity_gcn_gradients_match_bitwise(self):
        rng = np.random.default_rng(4)
        windows = make_windows(rng)
        p_mlp = tiny_params(Backbone.DIAGMLP)
        p_gcn = tiny_params(Backbone.GCN)
        hidden = p_gcn["modal_fusion/w"].shape[0]
        p_gcn["gcn/w1"] = np.eye(hidden)
        p_gcn["gcn/w2"] = np.eye(hidden)
        batch = windows_to_batch(windows, 4)
        l1, g1 = loss_and_grads(p_mlp, batch, Task.LOCALIZE, Backbone.DIAGMLP, None)
        eye_graph = ServiceGraph(n_nodes=3, node_names=("a", "b", "c"), edges=())
        l2, g2 = loss_and_grads(p_gcn, batch, Task.LOCALIZE, Backbone.GCN,
                                normalized_adjacency(eye_graph))
        assert l1 == l2
        for k in g1:
            assert np.array_equal(g1[k], g2[k]), k

    def test_gcn_with_real_graph_differs(self):
        rng = np.random.default_rng(5)
        windows = make_windows(rng)
        p_gcn = tiny_params(Backbone.GCN)
        batch = windows_to_batch(windows, 4)
        t = {k: ad.parameter(v) for k, v in p_gcn.items()}
        a = forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN,
                          normalized_adjacency(STAR))
        b = forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, np.eye(3))
        assert not np.allclose(a.data, b.data)

    def test_gcn_requires_adjacency(self):
        rng = np.random.default_rng(6)
        batch = windows_to_batch(make_windows(rng), 4)
        t = {k: ad.parameter(v) for k, v in tiny_params(Backbone.GCN).items()}
        with pytest.raises(ValueError, match="normalized adjacency"):
            forward_graph(t, batch, Task.LOCALIZE, Backbone.GCN, None)

    def test_zero_params_give_uniform_loss(self):
        rng = np.random.default_rng(7)
        windows = make_windows(rng)
        params = {k: np.zeros_like(v) for k, v in tiny_params(Backbone.DIAGMLP).items()}
        loss, _ = loss_and_grads(params, windows_to_batch(windows, 4), Task.LOCALIZE,
                                 Backbone.DIAGMLP, None)
        assert loss == pytest.approx(np.log(3.0), rel=1e-12)

    def test_trunk_stage_dimensions(self):
        rng = np.random.default_rng(8)
        batch = windows_to_batch(make_windows(rng), 4)
        params = tiny_params(Backbone.DIAGMLP)
        t = {k: ad.parameter(v) for k, v in params.items()}
        x = encode_nodes(t, batch.metric, batch.log, batch.trace, batch.event_w)
        z = trunk(t, x, Backbone.DIAGMLP, None)
        logits = head(t, z, Task.LOCALIZE)
        n, d = params["pos_embed"].shape
        hidden = params["modal_fusion/w"].shape[0]
        assert (n, d, hidden) == (3, 2, 3)
        assert x.data.shape == (4 * n, 3 * d)
        assert z.data.shape == (4, 2 * hidden)
        assert logits.data.shape == (4, 3)
        # the stages compose to exactly the one forward graph
        direct = forward_graph(t, batch, Task.LOCALIZE, Backbone.DIAGMLP, None)
        assert np.array_equal(logits.data, direct.data)

    def test_node_count_guards(self):
        # the head check depends on the parameters alone, so it wins over a
        # batch of the wrong node count
        rng = np.random.default_rng(10)
        batch = windows_to_batch(make_windows(rng, n_windows=3, n_nodes=2), 4)
        t = {k: ad.parameter(v) for k, v in tiny_params(Backbone.DIAGMLP).items()}
        with pytest.raises(ValueError, match="model fuses 3 nodes, got 2"):
            forward_graph(t, batch, Task.LOCALIZE, Backbone.DIAGMLP, None)
        with pytest.raises(ValueError, match="no CLASSIFY head"):
            forward_graph(t, batch, Task.CLASSIFY, Backbone.DIAGMLP, None)

    def test_gcn_node_count_guards(self):
        # Same guards, same order as DiagMLP; the graph size is checked last.
        rng = np.random.default_rng(10)
        t = {k: ad.parameter(v) for k, v in tiny_params(Backbone.GCN).items()}
        batch2 = windows_to_batch(make_windows(rng, n_windows=3, n_nodes=2), 4)
        pair = np.eye(2)
        with pytest.raises(ValueError, match="model fuses 3 nodes, got 2"):
            forward_graph(t, batch2, Task.LOCALIZE, Backbone.GCN, pair)
        with pytest.raises(ValueError, match="no CLASSIFY head"):
            forward_graph(t, batch2, Task.CLASSIFY, Backbone.GCN, pair)
        batch3 = windows_to_batch(make_windows(rng, n_windows=3), 4)
        with pytest.raises(ValueError, match="graph has 2 nodes"):
            forward_graph(t, batch3, Task.LOCALIZE, Backbone.GCN, pair)
        assert forward_graph(t, batch3, Task.LOCALIZE, Backbone.GCN,
                             normalized_adjacency(STAR)).data.shape == (3, 3)

    def test_separability_report_shares_the_guards(self):
        # six 2-node windows would regroup as four 3-node rows without the
        # node-count check, and fail later on a length mismatch
        rng = np.random.default_rng(10)
        two = make_windows(rng, n_windows=6, n_nodes=2)
        with pytest.raises(ValueError, match="model fuses 3 nodes, got 2"):
            separability_report(two, SeparabilityMode.MODEL_EMBED,
                                tiny_params(Backbone.DIAGMLP), 4)
        pair = ServiceGraph(n_nodes=2, node_names=("a", "b"), edges=((0, 1),))
        three = make_windows(rng, n_windows=6)
        with pytest.raises(ValueError, match="graph has 2 nodes, features have 3"):
            separability_report(three, SeparabilityMode.MODEL_EMBED,
                                tiny_params(Backbone.GCN), 4, Backbone.GCN, pair)


class TestLossAndGrads:
    def test_unlabeled_row_rejected(self):
        # cross-entropy would score a -1 label against the last class
        rng = np.random.default_rng(11)
        batch = windows_to_batch(make_windows(rng, n_windows=4, anomalous_from=2), 4)
        with pytest.raises(ValueError, match=r"rows \[0, 1\] carry no LOCALIZE label"):
            loss_and_grads(tiny_params(Backbone.DIAGMLP), batch, Task.LOCALIZE,
                           Backbone.DIAGMLP, None)
        # the labelled rows alone are accepted
        loss, _ = loss_and_grads(tiny_params(Backbone.DIAGMLP), batch.select(np.array([2, 3])),
                                 Task.LOCALIZE, Backbone.DIAGMLP, None)
        assert np.isfinite(loss)

    def test_all_unlabeled_raises(self):
        rng = np.random.default_rng(12)
        batch = windows_to_batch(make_windows(rng, anomalous_from=99), 4)
        with pytest.raises(ValueError, match="carry no LOCALIZE label"):
            loss_and_grads(tiny_params(Backbone.DIAGMLP), batch, Task.LOCALIZE,
                           Backbone.DIAGMLP, None)
        # DETECT labels every window
        loss, _ = loss_and_grads(tiny_params(Backbone.DIAGMLP, Task.DETECT), batch,
                                 Task.DETECT, Backbone.DIAGMLP, None)
        assert np.isfinite(loss)

    @pytest.mark.parametrize("backbone", [Backbone.DIAGMLP, Backbone.GCN])
    def test_gradients_match_fd(self, backbone):
        rng = np.random.default_rng(13)
        batch = windows_to_batch(make_windows(rng, n_windows=2, T=6), 4)
        params = tiny_params(backbone)
        adj = adjacency(STAR, backbone)
        _, grads = loss_and_grads(params, batch, Task.LOCALIZE, backbone, adj)
        fd = finite_difference(
            lambda: loss_and_grads(params, batch, Task.LOCALIZE, backbone, adj)[0],
            params,
        )
        worst = 0.0
        for k in params:
            err = np.abs(grads[k] - fd[k]).max()
            scale = np.abs(fd[k]).max() + 1e-8
            worst = max(worst, err / scale)
        assert worst < 1e-4, worst

    @pytest.mark.parametrize("backbone", [Backbone.DIAGMLP, Backbone.GCN])
    @pytest.mark.parametrize("task", [Task.DETECT, Task.LOCALIZE, Task.CLASSIFY])
    def test_float32_step_tracks_the_float64_step(self, task, backbone, monkeypatch):
        # a local-shaped batch: 32 windows of 12 nodes (384 rows), T = 30,
        # at the default RunConfig widths, dropout on
        n, channels = 12, (8, 20, 4)
        windows = make_windows(np.random.default_rng(14), n_windows=32, n_nodes=n, T=30,
                               channels=channels)
        params = init_params(prng_new(3), task, backbone, n, 16, 64, 4, *channels)
        before = {k: v.copy() for k, v in params.items()}
        ring = ServiceGraph(n, tuple(f"s{i}" for i in range(n)),
                            tuple((i, i + 1) for i in range(n - 1)))
        adj = adjacency(ring, backbone)

        def step(dtype):
            return loss_and_grads(params, windows_to_batch(windows, 4, dtype), task, backbone,
                                  adj, prng_new(5))

        loss64, g64 = step(np.float64)
        tapes = []
        real_backward = ad.backward

        def watched(out):
            tapes.append(watch_tape(out))
            real_backward(out)

        monkeypatch.setattr(ad, "backward", watched)
        loss32, g32 = step(np.float32)
        assert tapes[0]["data"] == {np.dtype(np.float32)}
        assert tapes[0]["grad"] == {np.dtype(np.float32)}
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert set(g32) == set(params)
        for k, g in g64.items():
            assert g32[k].dtype == np.float64, k
            np.testing.assert_allclose(g32[k], g, rtol=0, atol=1e-5 * np.abs(g).max(),
                                       err_msg=k)
        for k, v in params.items():
            assert v.dtype == np.float64 and np.array_equal(v, before[k]), k


class TestCountParams:
    def test_node_fusion_closed_form(self):
        for n in (6, 12, 24):
            params = init_params(
                prng_new(1).child("init"), Task.LOCALIZE, Backbone.DIAGMLP, n,
                d=2, hidden=3, vocab_size=4, metric_channels=2, log_channels=2,
                trace_channels=3,
            )
            h = 3
            assert count_params(params, "node_fusion") == 2 * h * (n * h) + 2 * h

    def test_total_is_sum_of_tensor_sizes(self):
        params = tiny_params(Backbone.GCN)
        assert count_params(params) == sum(v.size for v in params.values())
        assert count_params(params, "gcn/") == 2 * 3 * 3

    def test_head_name_convention(self):
        assert head_name(Task.LOCALIZE) == "head_localize"
        assert head_name(Task.DETECT) == "head_detect"
