"""Preprocessing oracles: scaling, percentiles, alerts, tiling, leakage."""

import importlib.util
import json
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from microdiag import preprocess
from microdiag.preprocess import (
    _alerts,
    _mean_std,
    _metric_grid,
    _observed_graph,
    _zscore,
    BUCKET_MS,
    EMPTY_TOKEN,
    TRACE_SEGMENT_STATS,
    TRACE_STAT_NAMES,
    UNK_TOKEN,
    compress_metrics,
    fit_transforms,
    plan_windows,
    preprocess_stream,
    three_sigma_alerts,
    trace_features,
    window_label,
    windows_from_bytes,
    windows_to_bytes,
)
from microdiag.prng import prng_new
from microdiag.serialize import ParseError, deserialize_stream, serialize_stream
from microdiag.train_eval import preprocess_scenario
from microdiag.types import (
    FaultSpec,
    FaultType,
    SPAN_DTYPE,
    TelemetryStream,
)

from helpers import series_array


def standardize(series: np.ndarray, train_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The metric scaling of `fit_transforms` and `apply_transforms`:
    statistics from the first train_len samples, applied to every sample."""
    stats = _mean_std(series[..., :train_len])
    return _zscore(series, stats), stats


class TestStandardize:
    def test_hand_values(self):
        # train {0, 2}: mu=1, population sigma=1; the value 3 scores z=2.0
        z, stats = standardize(np.array([[0.0, 2.0, 3.0]]), train_len=2)
        assert stats.tolist() == [[1.0, 1.0]]
        assert z.tolist() == [[-1.0, 1.0, 2.0]]

    def test_constant_channel_maps_to_zeros(self):
        # rows are z-scored one by one: the constant row beside a live one
        z, stats = standardize(np.array([[5.0, 5.0, 9.0], [0.0, 2.0, 3.0]]), train_len=2)
        assert stats.tolist() == [[5.0, 0.0], [1.0, 1.0]]
        assert z.tolist() == [[0.0, 0.0, 0.0], [-1.0, 1.0, 2.0]]

    def test_population_sigma_convention(self):
        z, stats = standardize(np.array([1.0, 2.0, 3.0, 4.0]), train_len=4)
        assert stats[1] == pytest.approx(np.sqrt(1.25))  # /n, not /(n-1)

    def test_guards(self, tiny_sim):
        _, _, _, stream = tiny_sim
        grid, channels = _metric_grid(stream)
        with pytest.raises(ValueError, match="empty training range"):
            fit_transforms(stream, grid, channels, 0)
        with pytest.raises(ValueError, match="align to the bucket grid"):
            fit_transforms(stream, grid, channels, 1500)

    def test_metric_stats_come_from_the_train_slice(self, tiny_sim):
        _, _, _, stream = tiny_sim
        grid, channels = _metric_grid(stream)
        tf, (metric_z, *_) = fit_transforms(stream, grid, channels, 600_000)
        for n, c in np.ndindex(grid.shape[:2]):
            row = grid[n, c, :600]
            assert tf.metric_stats[n, c].tolist() == [row.mean(), row.std()]
        assert metric_z.tobytes() == standardize(grid, 600)[0].tobytes()
        assert tf.selected_channels == channels


def run_starts(values, mu=0.0, sigma=1.0) -> list[tuple[int, str]]:
    """(bucket, direction) of each alert on one series."""
    rows, buckets, high = three_sigma_alerts(np.array([values]), np.array([[mu, sigma]]))
    assert not rows.any()
    return [(int(b), "HIGH" if h else "LOW") for b, h in zip(buckets, high)]


class TestThreeSigma:
    def test_single_high_alert(self):
        assert run_starts([0.0, 3.5, 0.0]) == [(1, "HIGH")]

    def test_within_band_is_silent(self):
        # exactly 3 sigma is not an alert
        assert run_starts([2.9, -2.9, 3.0, -3.0]) == []

    def test_run_collapses_to_one_event(self):
        assert run_starts([0.0, 4.0, 4.0, 4.0, 4.0, 4.0, 0.0]) == [(1, "HIGH")]

    def test_direction_change_restarts_run(self):
        assert run_starts([4.0, -4.0, 4.0]) == [(0, "HIGH"), (1, "LOW"), (2, "HIGH")]

    def test_low_alert_and_custom_stats(self):
        assert run_starts([10.0, 1.0], mu=10.0, sigma=2.0) == [(1, "LOW")]

    def test_rows_use_their_own_thresholds(self):
        # row-major run starts: row 0 at (0, 1), row 1 at (10, 2)
        values = np.array([[4.0, 4.0, 0.0], [10.0, 17.0, 3.0]])
        rows, buckets, high = three_sigma_alerts(values, np.array([[0.0, 1.0], [10.0, 2.0]]))
        assert rows.tolist() == [0, 1, 1] and buckets.tolist() == [0, 1, 2]
        assert high.tolist() == [True, True, False]


class TestNodeAlerts:
    def test_tokens_times_and_identifier_order(self):
        # one node, one metric channel, templates 0..11 (11 is UNK) and the
        # trace rows; alerts in one bucket sort by identifier as a string,
        # so template:10 precedes template:2, and metric < template < trace
        T = 4
        metric_z = np.zeros((1, 1, T))
        metric_z[0, 0, 2] = 5.0
        log_counts = np.zeros((1, 12, T))
        log_counts[0, [2, 10], 2] = 9.0
        log_counts[0, 3, 1] = -9.0
        trace_z = np.zeros((1, len(TRACE_STAT_NAMES), T))
        trace_z[0, 0, 2] = 4.0
        tf = SimpleNamespace(channels=["cpu"],
                             template_stats=np.tile([0.0, 1.0], (1, 12, 1)))
        [(times, tokens)] = _alerts(metric_z, log_counts, trace_z, tf)
        assert times.tolist() == [1000, 2000, 2000, 2000, 2000]
        assert tokens.tolist() == ["template:3:LOW", "metric:cpu:HIGH", "template:10:HIGH",
                                   "template:2:HIGH", "trace:lat_mean:HIGH"]


def span_array(records, nodes=("a", "b")) -> np.ndarray:
    """SPAN_DTYPE rows from (t_ms, caller, callee, latency_ms, error) records
    whose endpoints are node names."""
    return np.array([(t, nodes.index(u), nodes.index(v), lat, err)
                     for t, u, v, lat, err in records], dtype=SPAN_DTYPE)


def span_stream(records, nodes=("a", "b")) -> TelemetryStream:
    return TelemetryStream(nodes=nodes, metrics={}, logs={}, spans=span_array(records, nodes))


class TestTraceFeatures:
    def test_single_span_hand_example(self):
        spans = [(500, "a", "b", 10.0, False)]
        stats = trace_features(span_array(spans), 2, 3)
        graph = _observed_graph(span_stream(spans), 3000)
        assert graph.node_names == ("a", "b") and graph.edges == ((0, 1),)
        a, b = stats
        names = list(TRACE_STAT_NAMES)
        assert a[names.index("lat_mean"), 0] == 10.0
        assert a[names.index("lat_p95"), 0] == 10.0
        assert a[names.index("count"), 0] == 1.0
        # error rate belongs to the callee (a failed request is the server's
        # fault); the caller's err row stays at the zero encoding
        assert np.all(a[names.index("err_rate")] == 0.0)
        assert b[names.index("err_rate"), 0] == 0.0
        # empty buckets are encoded as 0 with count 0
        assert np.all(a[:, 1:] == 0.0) and np.all(b[:, 1:] == 0.0)

    def test_percentile_type7_hand_value(self):
        spans = [(t, "a", "b", lat, False)
                 for t, lat in ((0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0))]
        a = trace_features(span_array(spans), 2, 1)[0]
        names = list(TRACE_STAT_NAMES)
        assert a[names.index("lat_mean"), 0] == 25.0
        # linear interpolation between order statistics: 30 + 0.85 * 10
        assert a[names.index("lat_p95"), 0] == pytest.approx(38.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_statistics_bit_equal_numpy(self, seed):
        # (caller, bucket) groups of sizes 1, 2, 19, 20 and 21 with tied
        # latencies; each cell must equal np.mean / np.percentile of its
        # group in time order, bit for bit
        rng = np.random.default_rng(seed)
        nodes = ("a", "b", "c")
        sizes = rng.permutation(np.repeat([1, 2, 19, 20, 21], 6)).reshape(10, 3)
        records = []
        for bucket, row in enumerate(sizes):
            for caller, n in enumerate(row):
                times = np.sort(rng.integers(0, BUCKET_MS, size=n)) + bucket * BUCKET_MS
                lats = np.round(rng.lognormal(3.0, 1.0, size=n), 1)
                lats[: n // 3] = lats[n // 3]  # ties
                callee = (caller + 1) % 3
                records += [(int(t), nodes[caller], nodes[callee], float(x), False)
                            for t, x in zip(times, rng.permutation(lats))]
        records.sort(key=lambda r: r[0])
        spans = span_array(records, nodes)
        stats = trace_features(spans, 3, len(sizes))
        for bucket, row in enumerate(sizes):
            for caller, n in enumerate(row):
                group = spans[(spans["caller"] == caller)
                              & (spans["t_ms"] // BUCKET_MS == bucket)]["latency_ms"]
                assert len(group) == n
                assert stats[caller, 0, bucket] == np.mean(group)
                assert stats[caller, 1, bucket] == np.percentile(group, 95)
                assert stats[caller, 2, bucket] == n

    def test_error_attribution_to_callee(self):
        spans = [
            (0, "a", "b", 5.0, True),
            (1, "a", "b", 5.0, False),
            (2, "c", "b", 5.0, True),
            (3, "b", "c", 5.0, False),
        ]
        a, b, c = trace_features(span_array(spans, ("a", "b", "c")), 3, 1)
        names = list(TRACE_STAT_NAMES)
        err = names.index("err_rate")
        assert b[err, 0] == pytest.approx(2 / 3)  # b served 3, failed 2
        assert c[err, 0] == 0.0
        assert a[err, 0] == 0.0  # a serves nothing
        assert b[names.index("count"), 0] == 1.0  # one outgoing span

    def test_duplicate_spans_same_graph(self):
        spans = [(0, "a", "b", 5.0, False)] * 3
        g1 = _observed_graph(span_stream(spans), 1000)
        g2 = _observed_graph(span_stream(spans[:1]), 1000)
        assert g1 == g2

    def test_observed_graph_reads_train_range_spans_only(self):
        spans = [(0, "a", "b", 5.0, False), (500, "b", "c", 5.0, False),
                 (1000, "c", "a", 5.0, False)]
        graph = _observed_graph(span_stream(spans, ("a", "b", "c")), 1000)
        assert graph.node_names == ("a", "b", "c") and graph.edges == ((0, 1), (1, 2))
        with pytest.raises(ValueError, match=r"never observed in train-range spans: \['c'\]"):
            _observed_graph(span_stream(spans, ("a", "b", "c")), 500)

    def test_observed_graph_follows_stream_node_order(self):
        # graph node i is window node i even when the names are not sorted
        graph = _observed_graph(span_stream([(0, "a", "b", 5.0, False)], ("b", "a")), 1000)
        assert graph.node_names == ("b", "a") and graph.edges == ((1, 0),)

    def test_guards(self):
        with pytest.raises(ValueError, match="at least one span"):
            trace_features(np.empty(0, SPAN_DTYPE), 1, 1)
        with pytest.raises(ValueError, match="outside range"):
            trace_features(span_array([(5000, "a", "b", 1.0, False)]), 2, 1)


class TestCompressMetrics:
    def test_k_equals_all_is_identity(self):
        rows = np.random.default_rng(0).normal(size=(3, 50))
        assert compress_metrics(rows, 3) == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_k_other_than_the_channel_count_raises(self, k):
        with pytest.raises(ValueError, match=f"k={k} must equal the channel count 3"):
            compress_metrics(np.zeros((3, 50)), k)


class TestPlanWindows:
    def test_hundred_window_tiling_oracle(self):
        # 100 non-overlapping windows, 60/20/20: boundaries at indices 60 and
        # 80; one window on each side of each boundary is guarded away,
        # leaving {59, 18, 19}
        w = 60_000
        plan = plan_windows(100 * w, w, w)
        assert len(plan.starts) == 100
        assert (len(plan.train_idx), len(plan.valid_idx), len(plan.test_idx)) == (59, 18, 19)
        assert plan.train_idx[-1] == 58 and plan.valid_idx[0] == 61
        assert plan.valid_idx[-1] == 78 and plan.test_idx[0] == 81
        # the split boundaries: the first ends the train range, the second
        # is the tile at 4m // 5
        assert plan.train_end_ms == 60 * w and plan.starts[4 * 100 // 5] == 80 * w

    def test_local_preset_tiling(self):
        plan = plan_windows(10_800_000, 30_000, 30_000)
        sizes = (len(plan.train_idx), len(plan.valid_idx), len(plan.test_idx))
        assert sizes == (215, 70, 71)

    def test_guard_zone_property_on_randomized_tilings(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            w = int(rng.integers(10, 121)) * 1000
            s = int(rng.integers(max(1, w // 3000), w // 1000 + 1)) * 1000
            duration = w * int(rng.integers(70, 201))
            plan = plan_windows(duration, w, s)
            b1, b2 = plan.train_end_ms, plan.starts[4 * len(plan.starts) // 5]
            for b in (b1, b2):
                for idx in plan.train_idx + plan.valid_idx + plan.test_idx:
                    st = plan.starts[idx]
                    assert not (st < b + w and st + w > b - w), (w, s, duration, st, b)
            # one window length of clearance on each side of each boundary
            assert max(plan.starts[i] + w for i in plan.train_idx) <= b1 - w
            assert min(plan.starts[i] for i in plan.valid_idx) >= b1 + w
            assert max(plan.starts[i] + w for i in plan.valid_idx) <= b2 - w
            assert min(plan.starts[i] for i in plan.test_idx) >= b2 + w

    def test_split_matches_the_benchmark_oracle(self):
        # perfbench/checks.py states the 60/20/20 split on its own; it is
        # loaded from its file and only read
        path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        rng = np.random.default_rng(13)
        accepted = 0
        for _ in range(300):
            w = int(rng.integers(1, 121)) * 1000
            s = int(rng.integers(max(1, w // 3000), w // 1000 + 1)) * 1000
            duration = int(rng.integers(w, 200 * w + 1))
            try:
                plan = plan_windows(duration, w, s)
            except ValueError:
                continue
            accepted += 1
            parts, train_end_ms = checks.split_plan(duration, w, s)
            for name in ("train", "valid", "test"):
                got = [plan.starts[i] for i in getattr(plan, f"{name}_idx")]
                assert got == parts[name], (duration, w, s, name)
            assert plan.train_end_ms == train_end_ms, (duration, w, s)
        assert accepted >= 100

    def test_stride_above_window_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            plan_windows(600_000, 30_000, 60_000)

    @pytest.mark.parametrize("window_ms, stride_ms", [(30_500, 30_000), (30_000, 15_500)])
    def test_window_off_the_bucket_grid_rejected(self, window_ms, stride_ms):
        with pytest.raises(ValueError, match="align to the bucket grid"):
            plan_windows(10_800_000, window_ms, stride_ms)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            plan_windows(30_000, 30_000, 30_000)

    def test_guards_can_empty_a_split(self):
        # three windows tile [0, 90s): the boundary guards consume all of them
        with pytest.raises(ValueError, match="after guards"):
            plan_windows(90_000, 30_000, 30_000)


class TestWindowLabel:
    FAULTS = [FaultSpec(2, FaultType.CRASH, 70_000, 30_000, 0.9, 0.0)]

    def test_fault_start_inside_window(self):
        assert window_label(60_000, 120_000, self.FAULTS) is self.FAULTS[0]

    def test_no_overlap_is_clean(self):
        assert window_label(0, 60_000, self.FAULTS) is None

    def test_half_overlap_without_start(self):
        # a long fault [70, 190) qualifies windows it covers half of even
        # though its start lies outside them
        long = [FaultSpec(0, FaultType.NET_DELAY, 70_000, 120_000, 0.9, 0.0)]
        assert window_label(100_000, 160_000, long) is long[0]
        assert window_label(160_000, 220_000, long) is long[0]  # exactly half
        assert window_label(161_000, 221_000, long) is None  # 29 of 60 s

    def test_two_matching_faults_violate_gap_contract(self):
        faults = [
            FaultSpec(0, FaultType.CRASH, 10_000, 40_000, 0.9, 0.0),
            FaultSpec(1, FaultType.CRASH, 50_000, 40_000, 0.9, 0.0),
        ]
        with pytest.raises(ValueError, match="matches 2 faults"):
            window_label(0, 60_000, faults)


def quiet_stream(duration_s=240, nodes=("a", "b", "c")) -> TelemetryStream:
    """Flat deterministic telemetry covering every node and edge."""
    chans = ("cpu", "qps")
    metrics = {
        n: {ch: series_array((t * 1000, 20.0 + i + (t % 3)) for t in range(duration_s))
            for i, ch in enumerate(chans)}
        for n in nodes
    }
    logs = {
        n: [(t * 1000 + 10, f"job {t} finished ok") for t in range(0, duration_s, 2)]
        for n in nodes
    }
    spans = []
    for t in range(duration_s):
        spans.append((t * 1000 + 100, "a", "b", 10.0 + (t % 5), False))
        spans.append((t * 1000 + 200, "b", "c", 20.0 + (t % 7), False))
        spans.append((t * 1000 + 300, "c", "a", 15.0, False))
    return TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                           spans=span_array(spans, nodes))


def fit(stream, train_end_ms):
    """fit_transforms on the stream's own metric grid: (tf, model inputs)."""
    return fit_transforms(stream, *_metric_grid(stream), train_end_ms)


class TestTransforms:
    def test_leakage_guard_byte_identical(self):
        stream = quiet_stream()
        train_end = 120_000
        tf1, _ = fit(stream, train_end)

        mutated = quiet_stream()
        for node in mutated.nodes:
            for points in mutated.metrics[node].values():
                points["value"][points["t_ms"] >= train_end] += 500.0
            mutated.logs[node] = [
                rec for rec in mutated.logs[node] if rec[0] < train_end
            ] + [(train_end + 5, "totally new failure mode appeared")] * 30
        late = mutated.spans["t_ms"] >= train_end
        mutated.spans["latency_ms"][late] = 999.0
        mutated.spans["error"][late] = True
        tf2, _ = fit(mutated, train_end)
        assert tf1.to_json() == tf2.to_json()
        assert tf1.table.to_json() == tf2.table.to_json()

    def test_post_train_edge_leaves_graph_and_scaler_unchanged(self):
        # a call a -> c after the train range: a graph built from every span
        # would gain that edge
        stream = quiet_stream()
        train_end = 120_000
        tf1, _ = fit(stream, train_end)
        mutated = quiet_stream()
        extra = span_array([(train_end + 150, "a", "c", 12.0, False)], mutated.nodes)
        spans = np.concatenate((mutated.spans, extra))
        mutated.spans = spans[np.argsort(spans["t_ms"], kind="stable")]
        assert _observed_graph(mutated, 240_000) != tf1.graph
        tf2, _ = fit(mutated, train_end)
        assert tf2.graph == tf1.graph
        assert tf1.to_json() == tf2.to_json()

    def test_fit_reads_nothing_past_train_end(self):
        stream = quiet_stream()
        truncated = quiet_stream(duration_s=120)
        a, _ = fit(stream, 120_000)
        b, _ = fit(truncated, 120_000)
        assert a.to_json() == b.to_json()

    def test_apply_shapes_and_trace_segment(self):
        stream = quiet_stream()
        grid, channels = _metric_grid(stream)
        assert channels == ["cpu", "qps"]
        tf, inputs = fit_transforms(stream, grid, channels, 120_000)
        metric_z, log_counts, trace_z, alerts = inputs
        n, T = len(stream.nodes), 240
        assert metric_z.shape == (n, len(tf.selected_channels), T)
        assert log_counts.shape == (n, tf.table.n_templates + 1, T)
        # model windows carry latency + error rows only; count informs alerts
        assert trace_z.shape == (n, len(TRACE_SEGMENT_STATS), T)
        assert grid.shape == (n, len(channels), T)
        assert len(alerts) == n
        for times, tokens in alerts:
            assert times.shape == tokens.shape and np.all(np.diff(times) >= 0)
        assert {EMPTY_TOKEN: 0, UNK_TOKEN: 1}.items() <= tf.alert_vocab.items()
        ids = sorted(tf.alert_vocab.values())
        assert ids == list(range(len(ids)))

    def test_trace_z_zero_in_span_free_buckets(self):
        # node c emits no spans in odd buckets here; its latency z must sit
        # exactly at 0 there rather than at a huge negative outlier
        nodes = ("a", "b", "c")
        duration_s = 240
        metrics = {
            n: {"cpu": series_array((t * 1000, 20.0 + (t % 3)) for t in range(duration_s))}
            for n in nodes
        }
        logs = {n: [(0, "boot ok")] for n in nodes}
        spans = []
        for t in range(duration_s):
            spans.append((t * 1000, "a", "b", 10.0 + (t % 5), False))
            if t % 2 == 0:
                spans.append((t * 1000 + 1, "c", "a", 30.0 + (t % 4), False))
        stream = TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                                 spans=span_array(spans, nodes))
        _, (_, _, trace_z, _) = fit(stream, 120_000)
        ci = nodes.index("c")
        lat_rows = [TRACE_SEGMENT_STATS.index(s) for s in ("lat_mean", "lat_p95")]
        odd = np.arange(1, duration_s, 2)
        even = np.arange(0, duration_s, 2)
        for row in lat_rows:
            assert np.all(trace_z[ci, row, odd] == 0.0)
            assert np.any(trace_z[ci, row, even] != 0.0)

    def test_error_rate_uses_fixed_scale(self):
        stream = quiet_stream()
        tf, _ = fit(stream, 120_000)
        err = tf.trace_stats[:, TRACE_STAT_NAMES.index("err_rate")]
        assert err.tolist() == [[0.0, 0.1]] * len(stream.nodes)

    def test_to_json_keys_follow_the_array_layout(self):
        stream = quiet_stream()
        tf, _ = fit(stream, 120_000)
        scaler = json.loads(tf.to_json())
        nodes, K = stream.nodes, tf.table.n_templates
        assert tf.metric_stats.shape == (3, 2, 2)
        assert set(scaler["metric_stats"]) == {f"{n}/{c}" for n in nodes for c in ("cpu", "qps")}
        assert scaler["metric_stats"]["b/qps"] == tf.metric_stats[1, 1].tolist()
        assert tf.template_stats.shape == (3, K + 1, 2)
        assert set(scaler["template_stats"]) == {f"{n}/{k}" for n in nodes for k in range(K + 1)}
        assert scaler["template_stats"][f"c/{K}"] == tf.template_stats[2, K].tolist()
        assert tf.trace_stats.shape == (3, len(TRACE_STAT_NAMES), 2)
        assert scaler["trace_stats"]["a/count"] == tf.trace_stats[0, 2].tolist()


class TestPreprocessStream:
    def test_round_trip_and_labels(self, tiny_bundle):
        bundle, result, raw = tiny_bundle
        nodes, split, header = windows_from_bytes(raw)
        assert nodes == result.nodes
        assert header["vocab_size"] == result.transforms.vocab_size
        # serialization is idempotent: parse -> serialize reproduces the bytes
        again = windows_to_bytes(nodes, split, header["window_ms"],
                                 header["stride_ms"], header["vocab_size"])
        assert again == raw
        # parsed values sit within the 6-decimal serialization resolution
        for a, b in zip(split.train[:3] + split.test[:3],
                        result.split.train[:3] + result.split.test[:3]):
            assert (a.start_ms, a.end_ms, a.label_anomalous, a.label_root_cause,
                    a.label_fault_type) == (b.start_ms, b.end_ms, b.label_anomalous,
                                            b.label_root_cause, b.label_fault_type)
            for sa, sb in zip(a.segments, b.segments):
                assert np.allclose(sa.metric, sb.metric, atol=5.1e-7)
                assert np.array_equal(sa.log, sb.log)
                assert np.allclose(sa.trace, sb.trace, atol=5.1e-7)
                assert sa.alerts == sb.alerts

    def test_labels_follow_window_label_rule(self, tiny_sim, tiny_bundle):
        _, _, faults, _ = tiny_sim
        _, result, _ = tiny_bundle
        for w in result.split.all_windows:
            expect = window_label(w.start_ms, w.end_ms, faults)
            assert w.label_anomalous == (expect is not None)
            if expect is not None:
                assert w.label_root_cause == expect.target_node

    def test_chronological_invariant_on_output(self, tiny_bundle):
        _, result, _ = tiny_bundle
        result.split.check_chronological()

    def test_one_pass_over_the_timeline(self, monkeypatch):
        calls = Counter()
        names = ("_metric_grid", "mine_templates", "template_series", "trace_features",
                 "apply_transforms")
        for name in names:
            def counted(*args, _fn=getattr(preprocess, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(preprocess, name, counted)
        preprocess_stream(quiet_stream(), [], 2000, 2000)
        assert calls == dict.fromkeys(names, 1)

    def test_staged_stream_gives_identical_windows(self, tiny_sim, tiny_bundle):
        # the file-staged CLI path reads the stream back from telemetry.jsonl,
        # whose node and record order differ from the simulator's dicts
        spec, _, faults, stream = tiny_sim
        _, _, raw = tiny_bundle
        staged = deserialize_stream(serialize_stream(stream))
        assert preprocess_scenario(staged, faults, spec)[1] == raw

    def test_windows_do_not_depend_on_a_prng(self, tiny_sim, tiny_bundle):
        # preprocessing draws nothing: any PRNG, or none, gives the same bytes
        spec, _, faults, stream = tiny_sim
        _, _, raw = tiny_bundle
        for prng in ((prng_new(0),), (prng_new(99),), ()):
            r = preprocess_stream(stream, faults, spec.window_ms, spec.stride_ms, *prng)
            assert windows_to_bytes(r.nodes, r.split, spec.window_ms, spec.stride_ms,
                                    r.transforms.vocab_size) == raw

    @pytest.mark.parametrize("missing", [False, True])
    def test_node_without_log_lines(self, missing):
        # telemetry.jsonl has no log record for such a node, so the parsed
        # stream has no logs entry for it at all
        stream = quiet_stream()
        if missing:
            del stream.logs["c"]
        else:
            stream.logs["c"] = []

        def windows(s):
            r = preprocess_stream(s, [], 2000, 2000)
            return windows_to_bytes(r.nodes, r.split, 2000, 2000, r.transforms.vocab_size)

        staged = deserialize_stream(serialize_stream(stream))
        assert "c" not in staged.logs
        assert windows(stream) == windows(staged)

    @pytest.mark.parametrize("staged", [False, True])
    def test_node_without_metric_records(self, staged):
        # telemetry.jsonl has no metric record for such a node either
        stream = quiet_stream()
        del stream.metrics["c"]
        if staged:
            stream = deserialize_stream(serialize_stream(stream))
            assert "c" not in stream.metrics
        with pytest.raises(ValueError, match=r"node 'c' has no metric records for \['cpu', 'qps'\]"):
            preprocess_stream(stream, [], 2000, 2000)

    def test_node_missing_one_channel(self):
        stream = quiet_stream()
        del stream.metrics["c"]["qps"]
        with pytest.raises(ValueError, match=r"node 'c' has no metric records for \['qps'\]"):
            preprocess_stream(stream, [], 2000, 2000)

    def test_metric_series_off_the_1hz_grid(self):
        stream = quiet_stream()
        stream.metrics["c"]["qps"]["t_ms"][5:] += 1
        with pytest.raises(ValueError, match=r"^metric series c/qps is not sampled at 1 Hz"):
            _metric_grid(stream)
        stream.metrics["c"]["qps"] = stream.metrics["a"]["qps"][:-1]
        with pytest.raises(ValueError, match="inconsistent lengths"):
            _metric_grid(stream)

    def test_fault_target_outside_the_stream_is_named(self):
        # the label would index node 99 of 3 only once training runs
        faults = [FaultSpec(1, FaultType.CRASH, 10_000, 4_000, 0.9, 0.0),
                  FaultSpec(99, FaultType.NET_DELAY, 60_000, 4_000, 0.9, 0.0)]
        with pytest.raises(ValueError, match=re.escape(
                "fault 1 (NET_DELAY at 60000 ms) targets node 99, but the stream has 3 nodes")):
            preprocess_stream(quiet_stream(), faults, 2000, 2000)

    def test_splits_meet_minimum_size(self):
        stream = quiet_stream(duration_s=240)
        faults = []
        with pytest.raises(ValueError, match="windows after guards|too few"):
            preprocess_stream(stream, faults, 30_000, 30_000)


class TestWindowsFromBytes:
    @staticmethod
    def parse_error(raw: bytes) -> ParseError:
        with pytest.raises(ParseError) as info:
            windows_from_bytes(raw)
        return info.value

    def test_truncated_line(self, tiny_bundle):
        lines = tiny_bundle[2].split(b"\n")
        lines[5] = lines[5][:100]
        err = self.parse_error(b"\n".join(lines))
        assert (err.line_no, err.field) == (6, "record")
        assert str(err).startswith("line 6, field 'record': invalid JSON")

    def test_unknown_split(self, tiny_bundle):
        lines = tiny_bundle[2].split(b"\n")
        assert b'"split":"train"' in lines[1]
        lines[1] = lines[1].replace(b'"split":"train"', b'"split":"dev"')
        err = self.parse_error(b"\n".join(lines))
        assert str(err) == "line 2, field 'split': unknown split 'dev'"

    def test_missing_header(self, tiny_bundle):
        err = self.parse_error(tiny_bundle[2].split(b"\n", 1)[1])
        assert str(err) == "line 1, field 'kind': first line must be the header"

    def test_lines_split_as_telemetry_lines_do(self, tiny_bundle):
        # both JSONL readers end lines at \n, \r\n and \r only, so a raw
        # U+2028 or U+0085 inside a node name stays inside its line
        header, rest = tiny_bundle[2].split(b"\n", 1)
        name = json.loads(header)["nodes"][0]
        odd = f"{name}\u2028\x85"
        header = header.replace(json.dumps(name).encode(), f'"{odd}"'.encode("utf-8"), 1)
        nodes, split, _ = windows_from_bytes(header + b"\n" + rest)
        assert nodes[0] == odd
        assert len(split.all_windows) == len(tiny_bundle[0].split.all_windows)
        assert deserialize_stream(header + b"\n").nodes == nodes

    def test_blank_lines_are_skipped_and_keep_line_numbers(self, tiny_bundle):
        # blank lines are skipped as in telemetry; a bad line after one
        # still names its own line number in the file
        lines = tiny_bundle[2].split(b"\n")
        lines[2:2] = [b"", b"  "]
        nodes, split, header = windows_from_bytes(b"\n".join(lines))
        again = windows_to_bytes(nodes, split, header["window_ms"], header["stride_ms"],
                                 header["vocab_size"])
        assert again == tiny_bundle[2]
        lines[6] = lines[6][:100]
        err = self.parse_error(b"\n".join(lines))
        assert str(err).startswith("line 7, field 'record': invalid JSON")

    @pytest.mark.parametrize(
        "line, detail",
        [
            (b'{"split":"train","start_ms":%s}' % (b"9" * 5000),
             "integer longer than Python's digit limit"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ],
        ids=["5000-digit-integer", "100k-deep-nesting"],
    )
    def test_line_json_cannot_parse(self, tiny_bundle, line, detail):
        lines = tiny_bundle[2].split(b"\n")
        lines[2] = line
        err = self.parse_error(b"\n".join(lines))
        assert str(err) == f"line 3, field 'record': {detail}"

    def test_missing_field(self, tiny_bundle):
        lines = tiny_bundle[2].split(b"\n")
        rec = json.loads(lines[3])
        del rec["end_ms"]
        lines[3] = json.dumps(rec).encode()
        err = self.parse_error(b"\n".join(lines))
        assert str(err) == "line 4, field 'end_ms': missing"

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("nodes", "abcde", "expected a list of strings, got 'abcde'"),
            ("nodes", 5, "expected a list of strings, got 5"),
            ("nodes", ["a", "b", "c", "d", "a"],
             "duplicate node names in ['a', 'b', 'c', 'd', 'a']"),
            ("nodes", [1, 2, 3, 4, 5], "expected a list of strings, got [1, 2, 3, 4, 5]"),
            ("vocab_size", None, "missing"),
            ("vocab_size", True, "expected an integer >= 2, got True"),
            ("vocab_size", 1, "expected an integer >= 2, got 1"),
            ("vocab_size", 6.0, "expected an integer >= 2, got 6.0"),
            ("window_ms", None, "missing"),
            ("window_ms", 30_500, "expected a positive multiple of 1000, got 30500"),
            ("window_ms", 0, "expected a positive multiple of 1000, got 0"),
            ("window_ms", "30000", "expected a positive multiple of 1000, got '30000'"),
        ],
        ids=["nodes-string", "nodes-int", "nodes-duplicate", "nodes-int-names",
             "vocab-missing", "vocab-true", "vocab-1", "vocab-float", "window-missing",
             "window-off-grid", "window-0", "window-string"],
    )
    def test_header_is_checked_like_records(self, tiny_bundle, field, value, detail):
        # a header field of the wrong type or range is a ParseError of line
        # 1, never a node list read letter by letter or a bare KeyError
        header, rest = tiny_bundle[2].split(b"\n", 1)
        obj = json.loads(header)
        if value is None:
            del obj[field]
        else:
            obj[field] = value
        err = self.parse_error(json.dumps(obj).encode() + b"\n" + rest)
        assert str(err) == f"line 1, field {field!r}: {detail}"

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("root_cause", 99, "expected an integer in [0, 5), got 99"),
            ("root_cause", -3, "expected an integer in [0, 5), got -3"),
            ("root_cause", 1.5, "expected an integer in [0, 5), got 1.5"),
            ("root_cause", True, "expected an integer in [0, 5), got True"),
            ("fault_type", 9, "expected an integer in [0, 4), got 9"),
            ("fault_type", None, "expected an integer in [0, 4), got None"),
            ("anomalous", 1, "expected true or false, got 1"),
            ("alerts", "7", "expected alert ids in [0, {vocab}), got '7'"),
            ("alerts", -1, "expected alert ids in [0, {vocab}), got -1"),
            ("alerts", 10**6, "expected alert ids in [0, {vocab}), got 1000000"),
            ("alerts", False, "expected alert ids in [0, {vocab}), got False"),
        ],
        ids=["root-99", "root-negative", "root-float", "root-true", "type-9", "type-null",
             "anomalous-1", "alert-string", "alert-negative", "alert-past-vocab",
             "alert-false"],
    )
    def test_labels_and_alert_ids_are_checked(self, tiny_bundle, field, value, detail):
        # a label or alert id the model would index with is checked at its
        # line, not left to fail inside numpy during training
        lines = tiny_bundle[2].split(b"\n")
        vocab = json.loads(lines[0])["vocab_size"]
        i = next(i for i, line in enumerate(lines[1:], 1)
                 if json.loads(line)["anomalous"])
        rec = json.loads(lines[i])
        if field == "alerts":
            rec["nodes"][1]["alerts"].append(value)
        else:
            rec[field] = value
        lines[i] = json.dumps(rec).encode()
        err = self.parse_error(b"\n".join(lines))
        assert str(err) == f"line {i + 1}, field {field!r}: " + detail.format(vocab=vocab)

    @pytest.mark.parametrize(
        "field, edit, detail",
        [
            ("metric", lambda nodes: nodes[1]["metric"].pop(),
             "setting an array element with a sequence."),
            ("trace", lambda nodes: [nd["trace"].pop() for nd in nodes],
             "expected shape (5, 3, 30), got (5, 2, 30)"),
            ("log", lambda nodes: [row.pop() for nd in nodes for row in nd["log"]],
             "expected shape (5, {log_rows}, 30), got (5, {log_rows}, 29)"),
            ("metric", lambda nodes: [nd.update(metric=nd["metric"][0]) for nd in nodes],
             "expected shape (5, {metric_rows}, 30), got (5, 30)"),
        ],
        ids=["ragged-node", "one-row-fewer", "29-steps", "2-d"],
    )
    def test_each_modality_is_one_array_of_the_first_records_shape(
            self, tiny_bundle, field, edit, detail):
        # a record whose arrays differ from the header's window and the first
        # record's rows fails at its line, not when training stacks windows
        lines = tiny_bundle[2].split(b"\n")
        first = json.loads(lines[1])["nodes"][0]
        rec = json.loads(lines[4])
        edit(rec["nodes"])
        lines[4] = json.dumps(rec).encode()
        err = self.parse_error(b"\n".join(lines))
        assert (err.line_no, err.field) == (5, field)
        assert str(err).startswith(f"line 5, field {field!r}: " + detail.format(
            log_rows=len(first["log"]), metric_rows=len(first["metric"])))

    def test_normal_window_with_a_stray_label(self, tiny_bundle):
        lines = tiny_bundle[2].split(b"\n")
        i = next(i for i, line in enumerate(lines[1:], 1)
                 if not json.loads(line)["anomalous"])
        rec = json.loads(lines[i])
        rec["root_cause"] = 3
        lines[i] = json.dumps(rec).encode()
        err = self.parse_error(b"\n".join(lines))
        assert str(err) == (f"line {i + 1}, field 'record': root-cause and fault-type labels "
                            "must be present iff anomalous, got (3, None) with anomalous=False")


class TestDatasetPremise:
    def test_root_cause_has_max_metric_z_mass(self, local_bundle):
        # the dataset-level separability premise: for >= 90% of anomalous test
        # windows the root node carries the largest total |z| over metrics
        bundle, _, _ = local_bundle
        anomalous = [w for w in bundle.split.test if w.label_anomalous]
        assert len(anomalous) >= 30
        hits = 0
        for w in anomalous:
            mass = [np.abs(seg.metric).sum() for seg in w.segments]
            hits += int(np.argmax(mass) == w.label_root_cause)
        assert hits / len(anomalous) >= 0.90
