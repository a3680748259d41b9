"""Multimodal preprocessing: raw telemetry to labeled diagnosis windows.

The pipeline mirrors a standard observability stack: log lines are mined
into templates and bucketed into per-template count series; metric channels
are z-scored; 3-sigma thresholds over every series produce alert event
sequences; spans yield per-node latency statistics and the observed
dependency graph. Every metric channel reaches the model: the channel step,
`compress_metrics`, returns every index and keeps its name only because the
benchmark times the step by it.

Array layout: every series is an (N, rows, T) float64 array whose axis 0
follows the stream's node order and whose last axis is the 1 s bucket
(BUCKET_MS). The metric grid has one row per channel name in sorted order,
the template counts one row per template id plus the UNK row, the trace
statistics one row per TRACE_STAT_NAMES entry. Fitted statistics keep the
same leading axes with a last axis of (mu, sigma); see `Transforms`. A
node's alerts are an int64 time array and a token array of equal length,
ordered by time and then by series identifier as a string.

Leakage discipline: each full-timeline series (the metric grid, template
counts, trace statistics and alerts) is built once, and every statistic
that transforms data (z-scalers, alert thresholds, alert vocabulary) is
fitted on its train-range slice, the part before `train_end_ms`. A bucket's
value depends only on telemetry inside that bucket (an alert also on the
bucket before it), so each slice equals the series built from train-range
telemetry alone. The template table is mined from train-range log lines and
the observed graph comes from train-range spans; its node i is the stream's
node i, as in every window. A `Transforms` value captures every fitted
statistic; applying transforms never updates them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .serialize import (
    ParseError,
    _records,
    _require,
    atomic_write_bytes,
    atomic_write_text,
    header_line,
    round6,
)
from .templates import TemplateTable, mine_templates, template_series
from .types import (
    BUCKET_MS,
    FAULT_TYPES,
    DatasetSplit,
    DiagnosisWindow,
    FaultSpec,
    ServiceGraph,
    TelemetryStream,
    is_int,
)

__all__ = [
    "Transforms",
    "WindowPlan",
    "compress_metrics",
    "three_sigma_alerts",
    "trace_features",
    "plan_windows",
    "build_windows",
    "fit_transforms",
    "apply_transforms",
    "preprocess_stream",
    "PreprocessResult",
    "windows_to_bytes",
    "windows_from_bytes",
    "window_label",
    "EMPTY_TOKEN",
    "UNK_TOKEN",
    "TRACE_STAT_NAMES",
    "TRACE_SEGMENT_STATS",
    "BUCKET_MS",
]

TRACE_STAT_NAMES = ("lat_mean", "lat_p95", "count", "err_rate")
# model windows carry the latency-and-error rows only; span volume is already
# covered by the qps metric channel, while the count row still drives alerting
# and marks which buckets actually observed outgoing spans
TRACE_SEGMENT_STATS = ("lat_mean", "lat_p95", "err_rate")
_TRACE_SEGMENT_ROWS = tuple(TRACE_STAT_NAMES.index(s) for s in TRACE_SEGMENT_STATS)
_TRACE_LATENCY_ROWS = [i for i, s in enumerate(TRACE_STAT_NAMES) if s.startswith("lat_")]
_TRACE_COUNT_ROW = TRACE_STAT_NAMES.index("count")
_TRACE_ERR_ROW = TRACE_STAT_NAMES.index("err_rate")
# error rates are already on an absolute [0, 1] scale; a fixed sigma puts
# them on z-score footing without estimating statistics of a rare event
TRACE_ERR_SIGMA = 0.1
EMPTY_TOKEN = "<EMPTY>"
UNK_TOKEN = "<UNK>"
MIN_WINDOWS_PER_SPLIT = 10


def _mean_std(values: np.ndarray) -> np.ndarray:
    """(mu, population sigma) of each row along the last axis, as (..., 2)."""
    return np.stack((values.mean(axis=-1), values.std(axis=-1)), axis=-1)


def _zscore(values: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """(values - mu) / sigma row by row under (..., 2) stats; rows with
    sigma <= 0 map to all-zeros."""
    mu, sigma = stats[..., :1], stats[..., 1:]
    return np.divide(values - mu, sigma, out=np.zeros(values.shape), where=sigma > 0)


def compress_metrics(rows: np.ndarray, k: int) -> list[int]:
    """The metric channels to keep, as indices into `rows`, whose axis 0 is
    the channel: all C of them, with k equal to C. Every channel reaches the
    model; the function keeps its name because the benchmark times the
    channel step by it. It draws nothing, so it takes no PRNG."""
    if k != len(rows):
        raise ValueError(f"k={k} must equal the channel count {len(rows)}")
    return list(range(k))


def three_sigma_alerts(
    values: np.ndarray, stats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run starts of 3-sigma crossings in the rows of an (S, T) array, row s
    thresholded at mu +- 3*sigma from its (mu, sigma) in the (S, 2) stats.

    A value above mu+3*sigma is HIGH, below mu-3*sigma LOW; a run of
    consecutive same-direction points collapses to its first bucket.
    Returns (row, bucket, high) arrays in row-major order.
    """
    mu, sigma = stats[:, :1], stats[:, 1:]
    state = np.where(values > mu + 3.0 * sigma, 1, np.where(values < mu - 3.0 * sigma, -1, 0))
    prev = np.pad(state[:, :-1], ((0, 0), (1, 0)))
    rows, cols = np.nonzero((state != 0) & (state != prev))
    return rows, cols, state[rows, cols] > 0


def trace_features(spans: np.ndarray, n_nodes: int, n_buckets: int) -> np.ndarray:
    """Per-node span statistics per BUCKET_MS bucket from t=0.

    Returns an (n_nodes, len(TRACE_STAT_NAMES), n_buckets) array. Latency
    and span count come from the node's outgoing spans (the client observes
    request latency), the error rate from its incoming spans (a failed
    request is the server's fault). Buckets with no defining spans are
    encoded as 0 with count 0.
    """
    if not len(spans):
        raise ValueError("trace_features requires at least one span")
    bucket = spans["t_ms"] // BUCKET_MS
    outside = (spans["t_ms"] < 0) | (bucket >= n_buckets)
    if outside.any():
        raise ValueError(f"span at {spans['t_ms'][outside][0]} ms outside range "
                         f"[0, {n_buckets * BUCKET_MS})")
    out = np.zeros((n_nodes, len(TRACE_STAT_NAMES), n_buckets))
    # outgoing spans grouped by (caller, bucket), each group in time order
    key = spans["caller"] * n_buckets + bucket
    order = np.argsort(key, kind="stable")
    groups, starts, sizes = np.unique(key[order], return_index=True, return_counts=True)
    latency = spans["latency_ms"][order]
    for n in np.unique(sizes):
        # equal-size groups stack as rows; numpy reduces each row as it
        # would the group alone, so the statistics are bit-equal to that
        pick = sizes == n
        rows = latency[starts[pick, None] + np.arange(n)]
        node, b = np.divmod(groups[pick], n_buckets)
        out[node, 0, b] = rows.mean(axis=1)
        out[node, 1, b] = np.percentile(rows, 95, axis=1)
        out[node, 2, b] = n
    incoming = spans["callee"] * n_buckets + bucket
    served = np.bincount(incoming, minlength=n_nodes * n_buckets)
    failed = np.bincount(incoming, weights=spans["error"], minlength=n_nodes * n_buckets)
    out[:, 3] = (failed / np.maximum(served, 1)).reshape(n_nodes, n_buckets)
    return out


def _observed_graph(stream: TelemetryStream, train_end_ms: int) -> ServiceGraph:
    """The dependency graph of the spans before train_end_ms, over the
    stream's nodes in stream order; every node must appear in one of them."""
    train = stream.spans[stream.spans["t_ms"] < train_end_ms]
    n = len(stream.nodes)
    seen = np.bincount(np.concatenate((train["caller"], train["callee"])), minlength=n) > 0
    if not seen.all():
        missing = sorted(stream.nodes[i] for i in np.flatnonzero(~seen))
        raise ValueError(f"nodes never observed in train-range spans: {missing}")
    pairs = np.unique(train["caller"] * n + train["callee"])
    edges = tuple((int(u), int(v)) for u, v in zip(*np.divmod(pairs, n)))
    return ServiceGraph(n_nodes=n, node_names=stream.nodes, edges=edges)


@dataclass(frozen=True)
class WindowPlan:
    """Tiled window placement with guarded chronological split assignment."""

    window_ms: int
    starts: tuple[int, ...]
    train_idx: tuple[int, ...]
    valid_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    train_end_ms: int  # the first split boundary; transforms read only before it


def plan_windows(duration_ms: int, window_ms: int, stride_ms: int) -> WindowPlan:
    """Tile [0, duration) and split window indices chronologically, 60/20/20.

    Any window overlapping the open guard zone (boundary - window_len,
    boundary + window_len) is discarded, so no kept window straddles a split
    boundary even when stride < window_len.
    """
    if window_ms <= 0 or stride_ms <= 0:
        raise ValueError("window and stride must be positive")
    if stride_ms > window_ms:
        raise ValueError("stride must not exceed window length (gaps would drop faults)")
    if window_ms % BUCKET_MS or stride_ms % BUCKET_MS:
        raise ValueError("window and stride must align to the bucket grid")

    starts = tuple(range(0, duration_ms - window_ms + 1, stride_ms))
    m = len(starts)
    i1, i2 = 3 * m // 5, 4 * m // 5
    if not (0 < i1 < i2 < m):
        raise ValueError(
            f"only {m} windows tiled; too few to split — use a longer duration"
        )
    b1, b2 = starts[i1], starts[i2]

    def guarded(st: int) -> bool:
        en = st + window_ms
        for b in (b1, b2):
            if st < b + window_ms and en > b - window_ms:
                return True
        return False

    train, valid, test = [], [], []
    for i, st in enumerate(starts):
        if guarded(st):
            continue
        (train if i < i1 else valid if i < i2 else test).append(i)

    for name, part in (("train", train), ("valid", valid), ("test", test)):
        if len(part) < MIN_WINDOWS_PER_SPLIT:
            raise ValueError(
                f"{name} split has only {len(part)} windows after guards; "
                f"use a longer duration"
            )
    return WindowPlan(
        window_ms=window_ms,
        starts=starts,
        train_idx=tuple(train),
        valid_idx=tuple(valid),
        test_idx=tuple(test),
        train_end_ms=b1,
    )


def window_label(
    start_ms: int, end_ms: int, faults: list[FaultSpec]
) -> Optional[FaultSpec]:
    """The fault this window is labeled with, if any.

    A window is anomalous iff a fault overlaps it for at least half the
    window length, or the fault starts inside it. Fault gaps of one window
    length guarantee at most one fault can qualify.
    """
    window_ms = end_ms - start_ms
    hits = []
    for f in faults:
        overlap = min(end_ms, f.end_ms) - max(start_ms, f.start_ms)
        if overlap >= window_ms / 2 or start_ms <= f.start_ms < end_ms:
            hits.append(f)
    if len(hits) > 1:
        raise ValueError(
            f"window [{start_ms}, {end_ms}) matches {len(hits)} faults; "
            "fault schedule violates the window-length gap guarantee"
        )
    return hits[0] if hits else None


@dataclass(eq=False)
class Transforms:
    """Train-derived state needed to turn telemetry into model inputs.

    Statistics are float64 arrays in the stream's node order (the order of
    `graph.node_names`) whose last axis is (mu, sigma):

    - metric_stats (N, C, 2), row c for channel `channels[c]`;
    - template_stats (N, K+1, 2), row k for template id k, row K for UNK;
    - trace_stats (N, len(TRACE_STAT_NAMES), 2), rows in TRACE_STAT_NAMES order.

    `to_json` writes each as a map from "node/key" to [mu, sigma], where the
    key is the channel name, the template id or the trace statistic name;
    that map is the scaler.json layout.
    """

    table: TemplateTable
    channels: list[str]  # metric channel names, sorted
    metric_stats: np.ndarray
    template_stats: np.ndarray
    trace_stats: np.ndarray
    alert_vocab: dict[str, int]
    graph: ServiceGraph  # observed in train-range spans
    train_end_ms: int

    @property
    def vocab_size(self) -> int:
        return len(self.alert_vocab)

    @property
    def selected_channels(self) -> list[str]:
        """`channels`, under the name the benchmark and scaler.json read."""
        return self.channels

    def to_json(self) -> str:
        nodes = self.graph.node_names

        def keyed(keys, stats: np.ndarray) -> dict[str, list[float]]:
            return {f"{node}/{key}": pair
                    for node, rows in zip(nodes, stats.tolist())
                    for key, pair in zip(keys, rows)}

        payload = {
            "bucket_ms": BUCKET_MS,
            "train_end_ms": self.train_end_ms,
            "selected_channels": list(self.channels),
            "metric_stats": keyed(self.channels, self.metric_stats),
            "template_stats": keyed(range(self.table.n_templates + 1), self.template_stats),
            "trace_stats": keyed(TRACE_STAT_NAMES, self.trace_stats),
            "alert_vocab": dict(sorted(self.alert_vocab.items(), key=lambda kv: kv[1])),
            "graph": self.graph.to_dict(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _metric_grid(stream: TelemetryStream) -> tuple[np.ndarray, list[str]]:
    """The (N, C, T) metric grid on the 1 Hz grid from t=0, channels in
    sorted order, and the channel names; validates alignment."""
    channels = sorted(set().union(*(stream.metrics.get(node, {}) for node in stream.nodes)))
    for node in stream.nodes:
        missing = set(channels) - set(stream.metrics.get(node, {}))
        if missing:
            raise ValueError(f"node {node!r} has no metric records for {sorted(missing)}")
    rows = [stream.metrics[node][ch] for node in stream.nodes for ch in channels]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("metric series have inconsistent lengths")
    off = (np.stack([r["t_ms"] for r in rows]) != np.arange(len(rows[0])) * 1000).any(axis=1)
    if off.any():
        node, c = divmod(int(np.argmax(off)), len(channels))
        raise ValueError(f"metric series {stream.nodes[node]}/{channels[c]} "
                         "is not sampled at 1 Hz from t=0")
    grid = np.stack([r["value"] for r in rows])
    return grid.reshape(len(stream.nodes), len(channels), -1), channels


def _trace_stats(trace_train: np.ndarray) -> np.ndarray:
    """(N, len(TRACE_STAT_NAMES), 2) statistics of the train-range trace
    series. Latency is only defined where the bucket saw outgoing spans; a
    node that saw none keeps (0, 0)."""
    stats = np.zeros(trace_train.shape[:2] + (2,))
    stats[:, _TRACE_COUNT_ROW] = _mean_std(trace_train[:, _TRACE_COUNT_ROW])
    stats[:, _TRACE_ERR_ROW] = (0.0, TRACE_ERR_SIGMA)
    for node_stats, raw in zip(stats, trace_train):
        defined = raw[_TRACE_COUNT_ROW] > 0
        if defined.any():
            # compress keeps each row contiguous, so it reduces bit for bit
            # as the 1-D row would; a boolean index would not
            latency = raw[_TRACE_LATENCY_ROWS].compress(defined, axis=1)
            node_stats[_TRACE_LATENCY_ROWS] = _mean_std(latency)
    return stats


def _trace_z_scores(trace_raw: np.ndarray, tf: Transforms) -> np.ndarray:
    """Z-score per-bucket trace stats under frozen train statistics.

    Latency rows are only defined where the bucket saw outgoing spans; in
    count-0 buckets they are held at the train mean (z = 0) so the zero
    encoding reads as "nothing unusual" rather than as an extreme value.
    """
    z = _zscore(trace_raw, tf.trace_stats)
    defined = trace_raw[:, _TRACE_COUNT_ROW:_TRACE_COUNT_ROW + 1] > 0
    z[:, _TRACE_LATENCY_ROWS] = np.where(defined, z[:, _TRACE_LATENCY_ROWS], 0.0)
    return z


def _alerts(
    metric_z: np.ndarray, log_counts: np.ndarray, trace_z: np.ndarray, tf: Transforms
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node, the (t_ms, token) arrays of 3-sigma alerts over every
    monitored series under train thresholds.

    metric_z and trace_z rows are already z-scored (trace latency held at 0
    in span-free buckets), so thresholds are (0, 1) there; log series are
    raw counts and use the stored train statistics. A token is the series
    identifier plus the direction, shared across nodes so alerts generalize.
    """
    idents = ([f"metric:{ch}" for ch in tf.channels]
              + [f"template:{tid}" for tid in range(log_counts.shape[1])]
              + [f"trace:{stat}" for stat in TRACE_STAT_NAMES])
    tokens = np.array([(f"{i}:LOW", f"{i}:HIGH") for i in idents])
    rank = np.argsort(np.argsort(idents))  # each row's place in identifier order

    def unit(rows: int) -> np.ndarray:
        return np.broadcast_to((0.0, 1.0), (len(metric_z), rows, 2))

    thresholds = np.concatenate(
        (unit(metric_z.shape[1]), tf.template_stats, unit(trace_z.shape[1])), axis=1)
    alerts = []
    for ni, stats in enumerate(thresholds):
        values = np.concatenate((metric_z[ni], log_counts[ni], trace_z[ni]))
        rows, buckets, high = three_sigma_alerts(values, stats)
        order = np.lexsort((rank[rows], buckets))
        rows, high = rows[order], high[order].astype(np.intp)
        alerts.append((buckets[order] * BUCKET_MS, tokens[rows, high]))
    return alerts


def fit_transforms(
    stream: TelemetryStream,
    grid: np.ndarray,
    channels: list[str],
    train_end_ms: int,
) -> tuple[Transforms, tuple[np.ndarray, np.ndarray, np.ndarray, list]]:
    """Fit every train-derived transform, and return it with the model
    inputs that `apply_transforms` makes of the whole timeline.

    `grid` and `channels` are the stream's metric grid from `_metric_grid`.
    The template counts and trace statistics are built here, once, over the
    whole timeline; every statistic comes from the first train_end_ms of a
    series (see the module docstring).
    """
    if train_end_ms % BUCKET_MS != 0:
        raise ValueError("train_end_ms must align to the bucket grid")
    train_sec = train_end_ms // BUCKET_MS
    if train_sec <= 0:
        raise ValueError("empty training range")
    nodes = stream.nodes

    metric_train = grid[..., :train_sec]
    # the channel step keeps every channel; see `compress_metrics`
    compress_metrics(metric_train.transpose(1, 0, 2), len(channels))

    train_logs = stream.logs[stream.logs["t_ms"] < train_end_ms]
    table = mine_templates(text for _, text in sorted(zip(train_logs["t_ms"].tolist(),
                                                          train_logs["text"].tolist())))
    n_buckets = grid.shape[-1]
    counts = template_series(table, stream.logs, len(nodes), n_buckets)
    trace_raw = trace_features(stream.spans, len(nodes), n_buckets)
    tf = Transforms(
        table=table,
        channels=channels,
        metric_stats=_mean_std(metric_train),
        template_stats=_mean_std(counts[..., :train_sec]),
        trace_stats=_trace_stats(trace_raw[..., :train_sec]),
        alert_vocab={},
        graph=_observed_graph(stream, train_end_ms),
        train_end_ms=train_end_ms,
    )
    inputs = apply_transforms(tf, grid, counts, trace_raw)
    # Vocabulary: tokens raised on the train range, plus EMPTY/UNK reserves.
    tokens = sorted({tok for times, node_tokens in inputs[3]
                     for tok in node_tokens[times < train_end_ms].tolist()})
    tf.alert_vocab = {tok: i for i, tok in enumerate((EMPTY_TOKEN, UNK_TOKEN, *tokens))}
    return tf, inputs


def apply_transforms(
    tf: Transforms,
    grid: np.ndarray,
    counts: np.ndarray,
    trace_raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Model inputs from full-timeline series under frozen transforms.

    Takes the metric grid, the template counts under tf.table and the trace
    statistics, each (N, rows, seconds); returns (metric_z, log_counts,
    trace_z, alerts), where the three arrays keep that layout and alerts
    holds each node's (t_ms, token) arrays. metric_z has every channel;
    trace channels follow TRACE_SEGMENT_STATS, as the count row informs
    alerting but is not a model input (span volume already reaches the model
    through the qps metric).
    """
    metric_z = _zscore(grid, tf.metric_stats)
    trace_z = _trace_z_scores(trace_raw, tf)
    alerts = _alerts(metric_z, counts, trace_z, tf)
    # windows carry only the latency/error rows; alerting above saw all stats
    return metric_z, counts, trace_z[:, _TRACE_SEGMENT_ROWS], alerts


def build_windows(
    plan: WindowPlan,
    metric_z: np.ndarray,
    log_counts: np.ndarray,
    trace_z: np.ndarray,
    alerts: list[tuple[np.ndarray, np.ndarray]],
    vocab: dict[str, int],
    faults: list[FaultSpec],
) -> DatasetSplit:
    """Cut full-timeline arrays into labeled windows under a split plan."""
    unk = vocab[UNK_TOKEN]
    alert_ids = [(times, [vocab.get(tok, unk) for tok in tokens.tolist()])
                 for times, tokens in alerts]

    def cut(indices) -> list[DiagnosisWindow]:
        out = []
        for i in indices:
            st = plan.starts[i]
            en = st + plan.window_ms
            s0, s1 = st // BUCKET_MS, en // BUCKET_MS
            alerts = tuple(tuple(ids[slice(*np.searchsorted(times, (st, en)))])
                           for times, ids in alert_ids)
            fault = window_label(st, en, faults)
            out.append(
                DiagnosisWindow(
                    start_ms=st,
                    end_ms=en,
                    metric=metric_z[..., s0:s1].copy(),
                    log=log_counts[..., s0:s1].copy(),
                    trace=trace_z[..., s0:s1].copy(),
                    alerts=alerts,
                    label_anomalous=fault is not None,
                    label_root_cause=None if fault is None else fault.target_node,
                    label_fault_type=None
                    if fault is None
                    else FAULT_TYPES.index(fault.fault_type),
                )
            )
        return out

    return DatasetSplit(
        train=cut(plan.train_idx), valid=cut(plan.valid_idx), test=cut(plan.test_idx)
    )


@dataclass
class PreprocessResult:
    split: DatasetSplit
    transforms: Transforms

    @property
    def nodes(self) -> tuple[str, ...]:  # the stream's, in window segment order
        return self.transforms.graph.node_names


def preprocess_stream(
    stream: TelemetryStream,
    faults: list[FaultSpec],
    window_ms: int,
    stride_ms: int,
    prng=None,
) -> PreprocessResult:
    """Full preprocessing pipeline: plan windows, fit transforms on the
    train range, apply them to the whole timeline, cut labeled windows.
    `prng` is not used; it stays only because the benchmark passes one."""
    for i, f in enumerate(faults):
        if f.target_node >= len(stream.nodes):
            raise ValueError(f"fault {i} ({f.fault_type.value} at {f.start_ms} ms) targets "
                             f"node {f.target_node}, but the stream has {len(stream.nodes)} nodes")
    grid, channels = _metric_grid(stream)
    plan = plan_windows(grid.shape[-1] * BUCKET_MS, window_ms, stride_ms)
    tf, inputs = fit_transforms(stream, grid, channels, plan.train_end_ms)
    del grid  # the full-timeline grid is not needed to cut windows
    split = build_windows(plan, *inputs, tf.alert_vocab, faults)
    return PreprocessResult(split=split, transforms=tf)


def windows_to_bytes(result_nodes: tuple[str, ...], split: DatasetSplit,
                     window_ms: int, stride_ms: int, vocab_size: int) -> bytes:
    """Serialize a DatasetSplit to the windows.jsonl layout (header line,
    then one canonical-order record per window)."""
    header = {
        "kind": "header",
        "version": 1,
        "nodes": list(result_nodes),
        "window_ms": window_ms,
        "stride_ms": stride_ms,
        "vocab_size": vocab_size,
    }
    lines = [json.dumps(header, separators=(",", ":"), sort_keys=True)]
    for split_name, windows in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        for w in windows:
            rec = {
                "split": split_name,
                "start_ms": w.start_ms,
                "end_ms": w.end_ms,
                "anomalous": w.label_anomalous,
                "root_cause": w.label_root_cause,
                "fault_type": w.label_fault_type,
                "nodes": [
                    {"metric": metric, "log": log, "trace": trace, "alerts": list(alerts)}
                    for metric, log, trace, alerts in zip(
                        (round6(w.metric) + 0.0).tolist(), w.log.astype(np.int64).tolist(),
                        (round6(w.trace) + 0.0).tolist(), w.alerts)  # + 0.0: no -0.0
                ],
            }
            lines.append(json.dumps(rec, separators=(",", ":"), sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _check_labels(rec: dict, line_no: int, n_nodes: int) -> None:
    """A record's `anomalous` is a JSON bool and, when it is true, its
    `root_cause` an int in [0, n_nodes) and its `fault_type` one in
    [0, len(FAULT_TYPES))."""
    anomalous = _require(rec, "anomalous", line_no)
    if type(anomalous) is not bool:
        raise ParseError(line_no, "anomalous", f"expected true or false, got {anomalous!r}")
    if anomalous:
        for field, size in (("root_cause", n_nodes), ("fault_type", len(FAULT_TYPES))):
            value = _require(rec, field, line_no)
            if not is_int(value) or not 0 <= value < size:
                raise ParseError(line_no, field,
                                 f"expected an integer in [0, {size}), got {value!r}")


def _node_arrays(per_node: list, line_no: int, n_nodes: int, steps: int,
                 rows: dict[str, int]) -> dict[str, np.ndarray]:
    """Each series modality of a record's node list as one float64
    (n_nodes, rows, steps) array, where `rows` holds each modality's row
    count once the first record has set it. Every element must be a JSON
    int or float: numpy would read a null as NaN and a boolean as 1 or 0."""
    if len(per_node) != n_nodes:
        raise ParseError(line_no, "nodes", f"window has {len(per_node)} nodes, expected {n_nodes}")
    out = {}
    for field in ("metric", "log", "trace"):
        try:  # ragged lists, and ints past the float range, fail here
            values = np.array([nd[field] for nd in per_node], dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            raise ParseError(line_no, field, str(exc)) from exc
        if (values.ndim != 3 or values.shape[2] != steps
                or values.shape[1] != rows.setdefault(field, values.shape[1])):
            raise ParseError(line_no, field, f"expected shape ({n_nodes}, "
                             f"{rows.get(field, 'rows')}, {steps}), got {values.shape}")
        series = list(chain.from_iterable(nd[field] for nd in per_node))  # one list per row
        if not set(map(type, chain.from_iterable(series))) <= {float, int}:
            bad = next(x for x in chain.from_iterable(series) if type(x) not in (float, int))
            raise ParseError(line_no, field, f"expected numbers, got {bad!r}")
        out[field] = values
    return out


def windows_from_bytes(data: bytes) -> tuple[tuple[str, ...], DatasetSplit, dict]:
    """Parse windows.jsonl bytes back into (nodes, DatasetSplit, header).

    Lines are read as telemetry lines are (`serialize.header_line` and
    `_records`): split at b"\\n", b"\\r\\n" and b"\\r" only, blank lines
    skipped. Malformed input, the header's node list, `vocab_size` and
    `window_ms` included, raises `ParseError`, which names the line and field;
    so do labels outside `_check_labels`' ranges, alert ids that are not ints
    in [0, vocab_size), and a modality that is not one (nodes, rows,
    window_ms / BUCKET_MS) array with the first record's row count."""
    header = header_line(data)
    nodes = tuple(header["nodes"])
    for field, ok, expected in (
        ("vocab_size", lambda v: v >= 2, "an integer >= 2"),
        ("window_ms", lambda v: v > 0 and v % BUCKET_MS == 0, f"a positive multiple of {BUCKET_MS}"),
    ):
        value = header.get(field)
        if type(value) is not int or not ok(value):  # a JSON true is no integer
            raise ParseError(1, field, "missing" if field not in header
                             else f"expected {expected}, got {value!r}")
    vocab_size, steps, rows = header["vocab_size"], header["window_ms"] // BUCKET_MS, {}
    parts: dict[str, list[DiagnosisWindow]] = {"train": [], "valid": [], "test": []}
    for line_no, rec in _records(data):
        split = rec.get("split")
        if split not in ("train", "valid", "test"):
            raise ParseError(line_no, "split", f"unknown split {split!r}")
        _check_labels(rec, line_no, len(nodes))
        try:
            per_node = rec["nodes"]
            window = DiagnosisWindow(
                start_ms=rec["start_ms"],
                end_ms=rec["end_ms"],
                **_node_arrays(per_node, line_no, len(nodes), steps, rows),
                alerts=tuple(tuple(nd["alerts"]) for nd in per_node),
                label_anomalous=rec["anomalous"],
                label_root_cause=rec["root_cause"],
                label_fault_type=rec["fault_type"],
            )
        except ParseError:
            raise
        except KeyError as exc:
            raise ParseError(line_no, exc.args[0], "missing") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(line_no, "record", str(exc)) from exc
        bad = [a for ids in window.alerts for a in ids if not is_int(a) or not 0 <= a < vocab_size]
        if bad:
            raise ParseError(line_no, "alerts",
                             f"expected alert ids in [0, {vocab_size}), got {bad[0]!r}")
        parts[split].append(window)
    return nodes, DatasetSplit(**parts), header


def write_preprocess_outputs(result: PreprocessResult, windows: bytes, out_dir) -> None:
    """Write the serialized windows as windows.jsonl, and templates.json and
    scaler.json, atomically."""
    atomic_write_bytes(os.path.join(out_dir, "windows.jsonl"), windows)
    atomic_write_text(os.path.join(out_dir, "templates.json"), result.transforms.table.to_json())
    atomic_write_text(os.path.join(out_dir, "scaler.json"), result.transforms.to_json())
