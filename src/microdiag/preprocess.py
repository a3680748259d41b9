"""Multimodal preprocessing: raw telemetry to labeled diagnosis windows.

The pipeline mirrors a standard observability stack: log lines are mined
into templates and bucketed into per-template count series; metric channels
are z-scored and optionally compressed by correlation clustering; 3-sigma
thresholds over every series produce alert event sequences; spans yield
per-node latency statistics and the observed dependency graph.

Leakage discipline: each full-timeline series (the metric grid, template
counts, trace statistics and alerts) is built once, and every statistic
that transforms data (z-scalers, channel selection, alert thresholds, alert
vocabulary) is fitted on its train-range slice, the part before
`train_end_ms`. A bucket's value depends only on telemetry inside that
bucket (an alert also on the bucket before it), so each slice equals the
series built from train-range telemetry alone. The template table is mined
from train-range log lines and the observed graph comes from train-range
spans; its node i is the stream's node i, as in every window. A `Transforms`
value captures every fitted statistic; applying transforms never updates
them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .prng import Prng
from .serialize import atomic_write_bytes, atomic_write_text, graph_to_dict
from .templates import TemplateTable, mine_templates, template_series
from .types import (
    FAULT_TYPES,
    AlertDirection,
    AlertSource,
    DatasetSplit,
    DiagnosisWindow,
    FaultSpec,
    NodeSegments,
    ServiceGraph,
    TelemetryStream,
)

__all__ = [
    "AlertEvent",
    "Transforms",
    "WindowPlan",
    "standardize_metrics",
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
# error rates are already on an absolute [0, 1] scale; a fixed sigma puts
# them on z-score footing without estimating statistics of a rare event
TRACE_ERR_SIGMA = 0.1
EMPTY_TOKEN = "<EMPTY>"
UNK_TOKEN = "<UNK>"
BUCKET_MS = 1000
KMEANS_ITERS = 20
MIN_WINDOWS_PER_SPLIT = 10


class AlertEvent(NamedTuple):
    """One threshold crossing on a monitored series."""

    t_ms: int
    node: str
    source: AlertSource
    identifier: str
    direction: AlertDirection

    @property
    def token(self) -> str:
        """Vocabulary token; shared across nodes so alerts generalize."""
        return f"{self.identifier}:{self.direction.value}"


def standardize_metrics(
    series: dict[str, np.ndarray], train_len: int
) -> tuple[dict[str, np.ndarray], dict[str, tuple[float, float]]]:
    """Z-score each channel with mean/population-sigma from its first
    train_len samples; sigma=0 channels map to all-zeros."""
    if train_len <= 0:
        raise ValueError("train_len must be positive")
    z, stats = {}, {}
    for key in sorted(series):
        arr = np.asarray(series[key], dtype=np.float64)
        train = arr[:train_len]
        if train.size == 0:
            raise ValueError(f"channel '{key}' has no training samples")
        mu = float(train.mean())
        sigma = float(train.std())
        stats[key] = (mu, sigma)
        z[key] = np.zeros_like(arr) if sigma == 0.0 else (arr - mu) / sigma
    return z, stats


def _correlation_embedding(series: dict[str, np.ndarray], train_len: int) -> tuple[list[str], np.ndarray]:
    keys = sorted(series)
    rows = np.stack([np.asarray(series[k], dtype=np.float64)[:train_len] for k in keys])
    sigma = rows.std(axis=1)
    centered = rows - rows.mean(axis=1, keepdims=True)
    live = sigma > 0
    scale = np.where(live, sigma, 1.0)
    cov = centered @ centered.T / rows.shape[1]
    # constant channels are uncorrelated with everything by convention
    corr = np.where(live[:, None] & live[None, :], cov / np.outer(scale, scale), 0.0)
    np.fill_diagonal(corr, 1.0)
    return keys, corr


def compress_metrics(
    series: dict[str, np.ndarray], k: int, train_len: int, prng: Prng
) -> list[str]:
    """Cluster channels by their pairwise-correlation embedding (Lloyd
    k-means, fixed iterations, seeded init) and keep one medoid per cluster:
    the member with the highest mean correlation to its cluster."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(series):
        raise ValueError(f"k={k} exceeds channel count {len(series)}")
    if k == len(series):
        return sorted(series)
    keys, corr = _correlation_embedding(series, train_len)
    n = len(keys)

    rng = prng.child("compress")
    centers = corr[np.sort(rng.permutation(n)[:k])].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        dists = ((corr[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)  # ties go to the lowest cluster index
        for c in range(k):
            members = np.nonzero(assign == c)[0]
            if members.size == 0:
                # revive an empty cluster with the point farthest from its center
                far = int(dists[np.arange(n), assign].argmax())
                centers[c] = corr[far]
                assign[far] = c
            else:
                centers[c] = corr[members].mean(axis=0)

    selected = []
    for c in range(k):
        members = np.nonzero(assign == c)[0]
        mean_corr = corr[np.ix_(members, members)].mean(axis=1)
        selected.append(int(members[mean_corr.argmax()]))
    return [keys[i] for i in sorted(selected)]


def three_sigma_alerts(
    values: np.ndarray,
    mu: float,
    sigma: float,
    t0_ms: int,
    bucket_ms: int,
    node: str,
    source: AlertSource,
    identifier: str,
) -> list[AlertEvent]:
    """HIGH where value > mu+3*sigma, LOW where value < mu-3*sigma; a run of
    consecutive same-direction points collapses to one event at its first
    timestamp."""
    values = np.asarray(values, dtype=np.float64)
    state = np.where(values > mu + 3.0 * sigma, 1, np.where(values < mu - 3.0 * sigma, -1, 0))
    prev = np.concatenate(([0], state[:-1]))
    starts = np.nonzero((state != 0) & (state != prev))[0]
    return [
        AlertEvent(
            t_ms=t0_ms + int(i) * bucket_ms,
            node=node,
            source=source,
            identifier=identifier,
            direction=AlertDirection.HIGH if state[i] == 1 else AlertDirection.LOW,
        )
        for i in starts
    ]


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
    stride_ms: int
    starts: tuple[int, ...]
    train_idx: tuple[int, ...]
    valid_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    boundary1_ms: int
    boundary2_ms: int

    @property
    def train_end_ms(self) -> int:
        """Transforms may only read telemetry before this time."""
        return self.boundary1_ms


def plan_windows(
    duration_ms: int,
    window_ms: int,
    stride_ms: int,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> WindowPlan:
    """Tile [0, duration) and split window indices chronologically.

    Any window overlapping the open guard zone (boundary - window_len,
    boundary + window_len) is discarded, so no kept window straddles a split
    boundary even when stride < window_len.
    """
    if window_ms <= 0 or stride_ms <= 0:
        raise ValueError("window and stride must be positive")
    if stride_ms > window_ms:
        raise ValueError("stride must not exceed window length (gaps would drop faults)")
    if len(fractions) != 3 or any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be three positive values summing to 1")

    starts = tuple(range(0, duration_ms - window_ms + 1, stride_ms))
    m = len(starts)
    i1 = math.floor(fractions[0] * m)
    i2 = math.floor((fractions[0] + fractions[1]) * m)
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
        stride_ms=stride_ms,
        starts=starts,
        train_idx=tuple(train),
        valid_idx=tuple(valid),
        test_idx=tuple(test),
        boundary1_ms=b1,
        boundary2_ms=b2,
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


@dataclass
class Transforms:
    """Train-derived state needed to turn telemetry into model inputs."""

    table: TemplateTable
    metric_stats: dict[str, tuple[float, float]]  # "node/channel" -> (mu, sigma)
    selected_channels: list[str]
    template_stats: dict[str, tuple[float, float]]  # "node/tid" -> (mu, sigma)
    trace_stats: dict[str, tuple[float, float]]  # "node/stat" -> (mu, sigma)
    alert_vocab: dict[str, int]
    graph: ServiceGraph  # observed in train-range spans
    train_end_ms: int
    bucket_ms: int = BUCKET_MS

    @property
    def vocab_size(self) -> int:
        return len(self.alert_vocab)

    def to_json(self) -> str:
        payload = {
            "bucket_ms": self.bucket_ms,
            "train_end_ms": self.train_end_ms,
            "selected_channels": list(self.selected_channels),
            "metric_stats": {k: list(v) for k, v in sorted(self.metric_stats.items())},
            "template_stats": {k: list(v) for k, v in sorted(self.template_stats.items())},
            "trace_stats": {k: list(v) for k, v in sorted(self.trace_stats.items())},
            "alert_vocab": dict(sorted(self.alert_vocab.items(), key=lambda kv: kv[1])),
            "graph": graph_to_dict(self.graph),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _metric_grid(stream: TelemetryStream) -> tuple[dict[tuple[str, str], np.ndarray], int]:
    """Metric series as arrays on the 1 Hz grid from t=0; validates alignment."""
    arrays = {}
    lengths = set()
    channels = set().union(*(stream.metrics.get(node, {}) for node in stream.nodes))
    for node in stream.nodes:
        missing = channels - set(stream.metrics.get(node, {}))
        if missing:
            raise ValueError(f"node {node!r} has no metric records for {sorted(missing)}")
        for ch, points in stream.metrics[node].items():
            ts = [t for t, _ in points]
            if ts != [i * 1000 for i in range(len(ts))]:
                raise ValueError(
                    f"metric series {node}/{ch} is not sampled at 1 Hz from t=0"
                )
            arrays[(node, ch)] = np.array([v for _, v in points])
            lengths.add(len(ts))
    if len(lengths) != 1:
        raise ValueError("metric series have inconsistent lengths")
    return arrays, lengths.pop() * 1000


def _train_log_lines(stream: TelemetryStream, train_end_ms: int) -> list[str]:
    """Train-range lines in global arrival order (stable across nodes)."""
    merged = sorted(
        (t, text)
        for node in stream.nodes
        for t, text in stream.logs.get(node, ())
        if t < train_end_ms
    )
    return [text for _, text in merged]


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std())


def _trace_z_scores(
    trace_raw: np.ndarray, tf: "Transforms", nodes: tuple[str, ...]
) -> np.ndarray:
    """Z-score per-bucket trace stats under frozen train statistics.

    Latency rows are only defined where the bucket saw outgoing spans; in
    count-0 buckets they are held at the train mean (z = 0) so the zero
    encoding reads as "nothing unusual" rather than as an extreme value.
    """
    count_row = TRACE_STAT_NAMES.index("count")
    out = np.zeros(trace_raw.shape)
    for ni, node in enumerate(nodes):
        raw = trace_raw[ni]
        defined = raw[count_row] > 0
        for si, stat in enumerate(TRACE_STAT_NAMES):
            mu, sigma = tf.trace_stats[f"{node}/{stat}"]
            if sigma <= 0:
                continue
            z = (raw[si] - mu) / sigma
            if stat.startswith("lat_"):
                z = np.where(defined, z, 0.0)
            out[ni, si] = z
    return out


def _assemble_alerts(
    nodes: tuple[str, ...],
    metric_z: np.ndarray,
    log_counts: np.ndarray,
    trace_z: np.ndarray,
    tf: "Transforms",
) -> dict[str, list[AlertEvent]]:
    """3-sigma alert sequences over every monitored series, train thresholds.

    metric_z and trace_z rows are already z-scored (trace latency held at 0
    in span-free buckets), so thresholds are (0, 1) there; log series are
    raw counts and use the stored train statistics.
    """
    alerts: dict[str, list[AlertEvent]] = {}
    for ni, node in enumerate(nodes):
        # (values, mu, sigma, source, identifier) per monitored series
        series = [
            (metric_z[ni, ci], 0.0, 1.0, AlertSource.METRIC_CHANNEL, f"metric:{ch}")
            for ci, ch in enumerate(tf.selected_channels)
        ]
        series += [
            (row, *tf.template_stats[f"{node}/{tid}"], AlertSource.TEMPLATE_RATE,
             f"template:{tid}")
            for tid, row in enumerate(log_counts[ni])
        ]
        series += [
            (trace_z[ni, si], 0.0, 1.0, AlertSource.TRACE_LATENCY, f"trace:{stat}")
            for si, stat in enumerate(TRACE_STAT_NAMES)
        ]
        events = [
            ev
            for values, mu, sigma, source, name in series
            for ev in three_sigma_alerts(values, mu, sigma, 0, tf.bucket_ms, node, source, name)
        ]
        events.sort(key=lambda ev: (ev.t_ms, ev.source.value, ev.identifier))
        alerts[node] = events
    return alerts


def fit_transforms(
    stream: TelemetryStream,
    metrics: dict[tuple[str, str], np.ndarray],
    train_end_ms: int,
    prng: Prng,
    metric_k: Optional[int] = None,
) -> tuple[Transforms, tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, list[AlertEvent]]]]:
    """Fit every train-derived transform, and return it with the model
    inputs that `apply_transforms` makes of the whole timeline.

    `metrics` is the stream's metric grid from `_metric_grid`. The template
    counts and trace statistics are built here, once, over the whole
    timeline; every statistic comes from the first train_end_ms of a series
    (see the module docstring).
    """
    if train_end_ms % BUCKET_MS != 0:
        raise ValueError("train_end_ms must align to the bucket grid")
    train_sec = train_end_ms // BUCKET_MS
    if train_sec <= 0:
        raise ValueError("empty training range")
    nodes = stream.nodes
    duration_ms = len(next(iter(metrics.values()))) * BUCKET_MS

    channels = sorted({ch for (_, ch) in metrics})
    train_z, metric_stats = standardize_metrics(
        {f"{node}/{ch}": arr[:train_sec] for (node, ch), arr in metrics.items()}, train_sec
    )
    # Channel selection is shared across nodes: correlate each channel name
    # using its z-scored train segments concatenated over nodes.
    k = len(channels) if metric_k is None else metric_k
    pooled = {
        ch: np.concatenate([train_z[f"{node}/{ch}"] for node in nodes])
        for ch in channels
    }
    selected = compress_metrics(pooled, k, train_sec * len(nodes), prng)

    table = mine_templates(_train_log_lines(stream, train_end_ms))
    counts = template_series(
        table, {node: stream.logs.get(node, []) for node in nodes}, BUCKET_MS, 0, duration_ms
    )
    template_stats = {
        f"{node}/{tid}": _mean_std(row[:train_sec])
        for node in nodes
        for tid, row in enumerate(counts[node])
    }

    trace_raw = trace_features(stream.spans, len(nodes), duration_ms // BUCKET_MS)
    count_row = TRACE_STAT_NAMES.index("count")
    trace_stats = {}
    for ni, node in enumerate(nodes):
        raw = trace_raw[ni][:, :train_sec]
        defined = raw[count_row] > 0
        for si, stat in enumerate(TRACE_STAT_NAMES):
            if stat == "err_rate":
                trace_stats[f"{node}/{stat}"] = (0.0, TRACE_ERR_SIGMA)
            elif stat.startswith("lat_"):
                # latency is only defined where the bucket saw outgoing spans
                vals = raw[si][defined]
                trace_stats[f"{node}/{stat}"] = _mean_std(vals) if vals.size else (0.0, 0.0)
            else:
                trace_stats[f"{node}/{stat}"] = _mean_std(raw[si])

    tf = Transforms(
        table=table,
        metric_stats=metric_stats,
        selected_channels=selected,
        template_stats=template_stats,
        trace_stats=trace_stats,
        alert_vocab={},
        graph=_observed_graph(stream, train_end_ms),
        train_end_ms=train_end_ms,
    )
    inputs = apply_transforms(nodes, tf, metrics, counts, trace_raw)
    # Vocabulary: tokens raised on the train range, plus EMPTY/UNK reserves.
    tokens = sorted(
        {ev.token for events in inputs[3].values() for ev in events if ev.t_ms < train_end_ms}
    )
    tf.alert_vocab = {tok: i for i, tok in enumerate((EMPTY_TOKEN, UNK_TOKEN, *tokens))}
    return tf, inputs


def apply_transforms(
    nodes: tuple[str, ...],
    tf: Transforms,
    metrics: dict[tuple[str, str], np.ndarray],
    counts: dict[str, np.ndarray],
    trace_raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, list[AlertEvent]]]:
    """Model inputs from full-timeline series under frozen transforms.

    Takes the metric grid, the template counts under tf.table and the trace
    statistics; returns (metric_z, log_counts, trace_z, alerts), where the
    three arrays have shape (N, channels, seconds). Trace channels follow
    TRACE_SEGMENT_STATS; the count row informs alerting but is not a model
    input (span volume already reaches the model through the qps metric).
    """
    metric_z = np.zeros((len(nodes), len(tf.selected_channels), len(next(iter(metrics.values())))))
    for ni, node in enumerate(nodes):
        for ci, ch in enumerate(tf.selected_channels):
            mu, sigma = tf.metric_stats[f"{node}/{ch}"]
            if sigma > 0:
                metric_z[ni, ci] = (metrics[(node, ch)] - mu) / sigma
    log_counts = np.stack([counts[node] for node in nodes])
    trace_z = _trace_z_scores(trace_raw, tf, nodes)
    alerts = _assemble_alerts(nodes, metric_z, log_counts, trace_z, tf)
    # windows carry only the latency/error rows; alerting above saw all stats
    return metric_z, log_counts, trace_z[:, _TRACE_SEGMENT_ROWS, :], alerts


def build_windows(
    plan: WindowPlan,
    nodes: tuple[str, ...],
    metric_z: np.ndarray,
    log_counts: np.ndarray,
    trace_z: np.ndarray,
    alerts: dict[str, list[AlertEvent]],
    vocab: dict[str, int],
    faults: list[FaultSpec],
) -> DatasetSplit:
    """Cut full-timeline arrays into labeled windows under a split plan."""
    if plan.window_ms % BUCKET_MS or plan.stride_ms % BUCKET_MS:
        raise ValueError("window and stride must align to the bucket grid")
    alert_times = {
        node: np.array([ev.t_ms for ev in events], dtype=np.int64)
        for node, events in alerts.items()
    }
    unk = vocab[UNK_TOKEN]

    def cut(indices) -> list[DiagnosisWindow]:
        out = []
        for i in indices:
            st = plan.starts[i]
            en = st + plan.window_ms
            s0, s1 = st // BUCKET_MS, en // BUCKET_MS
            segments = []
            for ni, node in enumerate(nodes):
                times = alert_times[node]
                lo, hi = np.searchsorted(times, (st, en))
                ids = tuple(vocab.get(ev.token, unk) for ev in alerts[node][lo:hi])
                segments.append(
                    NodeSegments(
                        metric=metric_z[ni, :, s0:s1].copy(),
                        log=log_counts[ni, :, s0:s1].copy(),
                        trace=trace_z[ni, :, s0:s1].copy(),
                        alerts=ids,
                    )
                )
            fault = window_label(st, en, faults)
            out.append(
                DiagnosisWindow(
                    start_ms=st,
                    end_ms=en,
                    segments=segments,
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
    plan: WindowPlan
    nodes: tuple[str, ...]


def preprocess_stream(
    stream: TelemetryStream,
    faults: list[FaultSpec],
    window_ms: int,
    stride_ms: int,
    prng: Prng,
    metric_k: Optional[int] = None,
) -> PreprocessResult:
    """Full preprocessing pipeline: plan windows, fit transforms on the
    train range, apply them to the whole timeline, cut labeled windows."""
    metrics, duration_ms = _metric_grid(stream)
    plan = plan_windows(duration_ms, window_ms, stride_ms)
    tf, inputs = fit_transforms(stream, metrics, plan.train_end_ms, prng, metric_k)
    del metrics  # the full-timeline grid is not needed to cut windows
    split = build_windows(plan, stream.nodes, *inputs, tf.alert_vocab, faults)
    return PreprocessResult(split=split, transforms=tf, plan=plan, nodes=stream.nodes)


def _num(x: float) -> float:
    r = round(float(x), 6)
    return 0.0 if r == 0.0 else r


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
                    {
                        "metric": [[_num(v) for v in row] for row in seg.metric],
                        "log": [[int(v) for v in row] for row in seg.log],
                        "trace": [[_num(v) for v in row] for row in seg.trace],
                        "alerts": list(seg.alerts),
                    }
                    for seg in w.segments
                ],
            }
            lines.append(json.dumps(rec, separators=(",", ":"), sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def windows_from_bytes(data: bytes) -> tuple[tuple[str, ...], DatasetSplit, dict]:
    """Parse windows.jsonl bytes back into (nodes, DatasetSplit, header)."""
    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise ValueError("empty windows file")
    header = json.loads(lines[0])
    if header.get("kind") != "header":
        raise ValueError("windows file missing header line")
    nodes = tuple(header["nodes"])
    parts: dict[str, list[DiagnosisWindow]] = {"train": [], "valid": [], "test": []}
    for line_no, line in enumerate(lines[1:], start=2):
        rec = json.loads(line)
        segments = [
            NodeSegments(
                metric=np.array(nd["metric"], dtype=np.float64).reshape(
                    len(nd["metric"]), -1
                ),
                log=np.array(nd["log"], dtype=np.float64).reshape(len(nd["log"]), -1),
                trace=np.array(nd["trace"], dtype=np.float64).reshape(
                    len(nd["trace"]), -1
                ),
                alerts=tuple(nd["alerts"]),
            )
            for nd in rec["nodes"]
        ]
        if len(segments) != len(nodes):
            raise ValueError(f"line {line_no}: window has {len(segments)} nodes, expected {len(nodes)}")
        parts[rec["split"]].append(
            DiagnosisWindow(
                start_ms=rec["start_ms"],
                end_ms=rec["end_ms"],
                segments=segments,
                label_anomalous=rec["anomalous"],
                label_root_cause=rec["root_cause"],
                label_fault_type=rec["fault_type"],
            )
        )
    return nodes, DatasetSplit(**parts), header


def write_preprocess_outputs(result: PreprocessResult, out_dir) -> None:
    """Write windows.jsonl, templates.json, scaler.json atomically."""
    data = windows_to_bytes(
        result.nodes,
        result.split,
        result.plan.window_ms,
        result.plan.stride_ms,
        result.transforms.vocab_size,
    )
    atomic_write_bytes(os.path.join(out_dir, "windows.jsonl"), data)
    atomic_write_text(os.path.join(out_dir, "templates.json"), result.transforms.table.to_json())
    atomic_write_text(os.path.join(out_dir, "scaler.json"), result.transforms.to_json())
