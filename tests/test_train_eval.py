"""Training, evaluation and ablation oracles on hand-built inputs and the
tiny dataset."""

import dataclasses

import numpy as np
import pytest

from microdiag import models, train_eval
from microdiag.prng import prng_new
from microdiag.train_eval import (
    TASK_METRICS,
    AblateResult,
    DatasetBundle,
    MetricsReport,
    ablate,
    evaluate,
    pca_2d,
    render_summary,
    results_csv_rows,
    silhouette_score,
    topk_accuracy,
    train,
)
from microdiag.types import Backbone, RunConfig, ServiceGraph, Task


def quick_config(task=Task.DETECT, backbone=Backbone.DIAGMLP, **kw):
    kw = {"max_epochs": 3, "patience": 3, **kw}
    return RunConfig(seed=1, task=task, backbone=backbone, d=4, hidden=8, **kw)


def test_ablate_rejects_repeated_seeds(tiny_bundle, monkeypatch):
    # a repeated seed would train its cells twice and report a spread of 0
    # over what is one run; the check comes before any training
    monkeypatch.setattr(train_eval, "train", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ValueError, match=r"ablation seeds must be distinct, repeated: \[1\]"):
        ablate(tiny_bundle[0], quick_config(), [1, 2, 1])


def test_bundle_graph_must_follow_window_nodes(tiny_bundle):
    bundle, _, raw = tiny_bundle
    assert DatasetBundle.from_bytes(raw, bundle.graph).graph.node_names == bundle.nodes
    reordered = ServiceGraph(bundle.n_nodes, bundle.nodes[::-1], ())
    with pytest.raises(ValueError, match="differ from the windows'"):
        DatasetBundle.from_bytes(raw, reordered)


class TestMetrics:
    def test_topk_ties_go_to_the_lower_node_index(self):
        scores = np.array([[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        # node 2 ties node 1 and ranks behind it; in a flat row node 3 is last
        assert topk_accuracy(scores, np.array([2, 0]), 1) == 0.5
        assert topk_accuracy(scores, np.array([1, 3]), 1) == 0.5
        assert topk_accuracy(scores, np.array([2, 3]), 2) == 0.5
        assert topk_accuracy(scores, np.array([2, 3]), 4) == 1.0

    def test_imperfect_macro_report_builds(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        preds = np.array([0, 1, 1, 1, 2, 0, 3, 2])
        metrics = TASK_METRICS[Task.CLASSIFY][0](np.eye(4)[preds], labels)
        report = MetricsReport(Task.CLASSIFY, {k: [v] for k, v in metrics.items()})
        # per-class F1 by hand: 1/2, 4/5, 1/2, 2/3
        assert report.metric("f1") == pytest.approx((0.5 + 0.8 + 0.5 + 2 / 3) / 4, abs=1e-15)
        assert report.metric("precision") == pytest.approx((0.5 + 2 / 3 + 0.5 + 1.0) / 4,
                                                           abs=1e-15)
        assert report.metric("recall") == pytest.approx((0.5 + 1.0 + 0.5 + 0.5) / 4, abs=1e-15)
        # the same figures in a binary report break the F1 identity
        with pytest.raises(ValueError, match="violates"):
            MetricsReport(Task.DETECT, {k: [v] for k, v in metrics.items()})

    def test_detect_without_positives_warns_and_reports_zero(self, tiny_bundle):
        bundle, _, _ = tiny_bundle
        normal = [w for w in bundle.split.test if not w.label_anomalous]
        params = train(bundle, quick_config(max_epochs=1)).params
        with pytest.warns(UserWarning, match="no anomalous windows"):
            report = evaluate(params, normal, Task.DETECT, bundle.vocab_size)
        assert report.per_run == {"precision": [0.0], "recall": [0.0], "f1": [0.0]}

    def test_localize_reports_topk_within_node_count(self, tiny_bundle):
        bundle, _, _ = tiny_bundle
        params = train(bundle, quick_config(Task.LOCALIZE, max_epochs=1)).params
        report = evaluate(params, bundle.split.test, Task.LOCALIZE, bundle.vocab_size)
        assert sorted(report.per_run) == ["top1", "top3", "top5"]  # 5 nodes
        assert report.metric("top1") <= report.metric("top3") <= report.metric("top5")


class TestSeparability:
    def test_silhouette_of_two_clusters_by_hand(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        # (b - a) / max(a, b) per point: a is the mean distance to its own
        # cluster, b to the other one
        expected = ((5 - 1) / 5 + (4 - 1) / 4 + (3.5 - 2) / 3.5 + (5.5 - 2) / 5.5) / 4
        assert silhouette_score(points, np.array([0, 0, 1, 1])) == pytest.approx(expected,
                                                                                 abs=1e-15)
        # the score names no class: relabeling leaves it alone
        assert silhouette_score(points, np.array([7, 7, 3, 3])) == pytest.approx(expected,
                                                                                 abs=1e-15)

    def test_singleton_class_point_scores_zero(self):
        points = np.array([[0.0], [1.0], [3.0]])
        # A: a = 1, b = 3; B: a = 1, b = 2; the lone class-1 point scores 0
        expected = ((3 - 1) / 3 + (2 - 1) / 2 + 0.0) / 3
        assert silhouette_score(points, np.array([0, 0, 1])) == pytest.approx(expected,
                                                                              abs=1e-15)

    def test_silhouette_needs_two_classes(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            silhouette_score(np.array([[0.0], [1.0], [2.0]]), np.array([4, 4, 4]))
        with pytest.raises(ValueError, match="disagree in length"):
            silhouette_score(np.array([[0.0], [1.0]]), np.array([0, 1, 1]))

    def test_pca_matches_svd_under_the_sign_rule(self, rng):
        x = rng.normal(size=(20, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        centered = x - x.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        comps = vt[:2].T.copy()
        for j in range(2):
            # documented rule: each component's largest-magnitude entry is positive
            comps[:, j] *= np.sign(comps[np.argmax(np.abs(comps[:, j])), j])
        np.testing.assert_allclose(pca_2d(x), centered @ comps, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 3), (5, 1), (4,)])
    def test_pca_needs_two_rows_and_columns(self, shape):
        with pytest.raises(ValueError, match="at least 2 rows and 2 feature dimensions"):
            pca_2d(np.ones(shape))


class TestTrain:
    def test_patience_zero_runs_one_epoch(self, tiny_bundle):
        bundle, _, _ = tiny_bundle
        result = train(bundle, quick_config(max_epochs=5, patience=0))
        assert result.epochs_run == 1 and result.best_epoch == 0
        assert [row[:2] for row in result.history] == [(0, "train"), (0, "valid")]

    def test_epoch_loss_weighted_by_rows(self, tiny_bundle, monkeypatch):
        bundle, _, _ = tiny_bundle
        config = quick_config(max_epochs=1)
        n = len(bundle.split.train)
        sizes = [min(config.batch_size, n - lo) for lo in range(0, n, config.batch_size)]
        assert len(set(sizes)) == 2  # one full batch and a short last one

        def fake(params, batch, *args, **kwargs):
            # the batch's loss is its row count; zero gradients leave Adam still
            return float(batch.size), {k: np.zeros_like(v) for k, v in params.items()}

        monkeypatch.setattr(models, "loss_and_grads", fake)
        result = train(bundle, config)
        want = sum(s * s for s in sizes) / n
        assert result.history[0] == (0, "train", pytest.approx(want, abs=1e-12), "")

    def test_shared_init_digest_agrees_across_backbones(self, tiny_bundle):
        bundle, _, _ = tiny_bundle
        digests = {
            (backbone, off): train(
                bundle, quick_config(backbone=backbone, max_epochs=1), off
            ).shared_init_digest
            for backbone in (Backbone.DIAGMLP, Backbone.GCN)
            for off in (False, True)
        }
        assert len(set(digests.values())) == 1
        other_seed = train(bundle, dataclasses.replace(quick_config(max_epochs=1), seed=2))
        assert other_seed.shared_init_digest not in digests.values()

    def test_disabled_message_passing_gives_identical_backbones(self, tiny_bundle):
        bundle, _, _ = tiny_bundle
        result = ablate(bundle, quick_config(), [1, 2], disable_message_passing=True)
        assert not result.failures
        for seed in (1, 2):
            mlp, gcn = (Backbone.DIAGMLP.value, seed), (Backbone.GCN.value, seed)
            assert result.reports[mlp].per_run == result.reports[gcn].per_run
            assert result.histories[mlp] == result.histories[gcn]
            for name, value in result.checkpoints[mlp].items():
                assert np.array_equal(value, result.checkpoints[gcn][name]), name
            # the GCN's message-passing weights stayed the identity
            eye = np.eye(quick_config().hidden)
            assert np.array_equal(result.checkpoints[gcn]["gcn/w1"], eye)
            assert np.array_equal(result.checkpoints[gcn]["gcn/w2"], eye)

    def test_one_adam_step_matches_hand_arithmetic(self, tiny_bundle):
        # one epoch of one full batch without dropout is one Adam step from
        # the initial tensors; the control's identity gcn/w* stay fixed
        bundle, _, _ = tiny_bundle
        n = len(bundle.split.train)
        config = quick_config(backbone=Backbone.GCN, max_epochs=1, batch_size=n,
                              dropout_rate=0.0, learning_rate=0.01)
        result = train(bundle, config, disable_message_passing=True)

        mc, lc, tc = bundle.dims()
        theta = models.init_params(prng_new(config.seed), config.task, Backbone.GCN,
                                   bundle.n_nodes, config.d, config.hidden,
                                   bundle.vocab_size, mc, lc, tc)
        eye = np.eye(config.hidden)
        theta["gcn/w1"], theta["gcn/w2"] = eye, eye
        # the float32 batch `train` steps on, its rows in the epoch's shuffled
        # order: float32 sums differ in the last bits from one row order to
        # another, and Adam's first step divides by |g| + eps, which turns
        # that into ~1e-9 on the smallest gradients. The arithmetic on the
        # gradient is float64, as in `train`.
        order = prng_new(config.seed).child("train").child("epoch:0").permutation(n)
        batch = models.windows_to_batch(bundle.split.train, bundle.vocab_size, np.float32)
        batch = batch.select(order)
        _, grads = models.loss_and_grads(theta, batch, config.task, Backbone.GCN,
                                         np.eye(bundle.n_nodes))
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, config.learning_rate
        assert set(result.params) == set(theta)
        for name, g in grads.items():
            if name.startswith("gcn/"):
                assert np.array_equal(result.params[name], eye), name
                continue
            m_hat = (1 - beta1) * g / (1 - beta1)
            v_hat = (1 - beta2) * g * g / (1 - beta2)
            want = theta[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(result.params[name], want, rtol=0, atol=1e-12,
                                       err_msg=name)
        assert not np.array_equal(result.params["head_detect/w"], theta["head_detect/w"])

    def test_validation_and_evaluation_stay_float64(self, tiny_bundle, monkeypatch):
        # training steps run in float32; the windows and logits early
        # stopping and `evaluate` score, and the parameters `train` returns,
        # are float64
        bundle, _, _ = tiny_bundle
        seen = []
        real = train_eval._eval_logits

        def spy(params, batch, *args):
            logits = real(params, batch, *args)
            seen.append({a.dtype for a in (batch.metric, batch.log, batch.trace, batch.event_w,
                                           logits, *params.values())})
            return logits

        monkeypatch.setattr(train_eval, "_eval_logits", spy)
        result = train(bundle, quick_config(max_epochs=2))
        assert {v.dtype for v in result.params.values()} == {np.dtype(np.float64)}
        assert seen == [{np.dtype(np.float64)}] * 2  # one validation pass per epoch
        evaluate(result.params, bundle.split.test, Task.DETECT, bundle.vocab_size)
        assert seen == [{np.dtype(np.float64)}] * 3


def hand_built_ablation(gcn_seed2_fails=True):
    def report(f1):
        return MetricsReport(Task.DETECT, {"precision": [f1], "recall": [f1], "f1": [f1]})

    reports = {
        ("DIAGMLP", 1): report(0.5),
        ("DIAGMLP", 2): report(0.75),
        ("GCN", 1): report(1.0),
        ("GCN", 2): None if gcn_seed2_fails else report(0.5),
    }
    failures = {("GCN", 2): "ValueError: boom"} if gcn_seed2_fails else {}
    return AblateResult(task=Task.DETECT, seeds=[1, 2], reports=reports,
                        failures=failures)


class TestAblateResult:
    def test_mean_over_every_seed(self):
        result = hand_built_ablation(gcn_seed2_fails=False)
        assert result.mean(Backbone.DIAGMLP, "f1") == 0.625
        assert result.mean(Backbone.GCN, "f1") == 0.75

    def test_mean_raises_naming_the_failed_seeds(self):
        result = hand_built_ablation()
        assert result.mean(Backbone.DIAGMLP, "f1") == 0.625
        with pytest.raises(ValueError, match=r"GCN failed at seeds \[2\]"):
            result.mean(Backbone.GCN, "f1")
        result.reports[("GCN", 1)] = None
        result.failures[("GCN", 1)] = "ValueError: boom"
        with pytest.raises(ValueError, match=r"GCN failed at seeds \[1, 2\]"):
            result.mean(Backbone.GCN, "f1")

    def test_results_rows_give_each_cell_a_status_row(self):
        header, rows = results_csv_rows(hand_built_ablation())
        assert header == ["backbone", "seed", "task", "metric", "value"]
        assert [r for r in rows if r[3] == "status"] == [
            ["DIAGMLP", 1, "DETECT", "status", "ok"],
            ["DIAGMLP", 2, "DETECT", "status", "ok"],
            ["GCN", 1, "DETECT", "status", "ok"],
            ["GCN", 2, "DETECT", "status", "failed"],
        ]
        assert rows[:4] == [["DIAGMLP", 1, "DETECT", "status", "ok"],
                            ["DIAGMLP", 1, "DETECT", "f1", 0.5],
                            ["DIAGMLP", 1, "DETECT", "precision", 0.5],
                            ["DIAGMLP", 1, "DETECT", "recall", 0.5]]
        assert len(rows) == 3 * 4 + 1

    def test_summary_shows_metrics_only_for_complete_backbones(self):
        text = render_summary(hand_built_ablation())
        assert "| DIAGMLP | 0.625000 ± 0.176777 | 0.625000 ± 0.176777 | 0.625000 ± 0.176777 |" in text
        assert "| GCN | failed (1 of 2 seeds) | failed (1 of 2 seeds) | failed (1 of 2 seeds) |" in text
        assert "| f1 | -0.500000 | failed | failed (1 of 2 seeds) |" in text
        assert "- GCN seed 2: ValueError: boom" in text
