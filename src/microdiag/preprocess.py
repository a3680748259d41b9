"""Multimodal preprocessing: raw telemetry to labeled diagnosis windows.

The pipeline mirrors a standard observability stack: log lines are mined
into templates and bucketed into per-template count series; metric channels
are z-scored and optionally compressed by correlation clustering; 3-sigma
thresholds over every series produce alert event sequences; spans yield
per-node latency statistics and the observed dependency graph.

Leakage discipline: every statistic that transforms data (template table,
z-scalers, channel selection, alert thresholds, alert vocabulary, observed
graph) is fitted strictly on telemetry before `train_end_ms` and captured in
a `Transforms` value. Applying transforms never updates them.
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


def trace_features(
    spans,
    bucket_ms: int,
    nodes: tuple[str, ...],
    start_ms: int,
    end_ms: int,
) -> tuple[dict[str, np.ndarray], ServiceGraph]:
    """Per-node span statistics per bucket plus the observed graph.

    Stats rows follow TRACE_STAT_NAMES: latency and span count come from the
    node's outgoing spans (the client observes request latency), the error
    rate from its incoming spans (a failed request is the server's fault).
    Buckets with no defining spans are encoded as 0 with count 0. The graph
    covers only nodes that appear as span endpoints.
    """
    spans = list(spans)
    if not spans:
        raise ValueError("trace_features requires at least one span")
    if bucket_ms <= 0 or end_ms <= start_ms:
        raise ValueError("invalid bucket or time range")
    n_buckets = -(-(end_ms - start_ms) // bucket_ms)

    by_caller: dict[str, dict[int, list]] = {}
    by_callee: dict[str, dict[int, list]] = {}
    endpoints: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for sp in spans:
        if not (start_ms <= sp.t_ms < end_ms):
            raise ValueError(f"span at {sp.t_ms} ms outside range [{start_ms}, {end_ms})")
        endpoints.add(sp.caller)
        endpoints.add(sp.callee)
        pairs.add((sp.caller, sp.callee))
        bucket = (sp.t_ms - start_ms) // bucket_ms
        by_caller.setdefault(sp.caller, {}).setdefault(bucket, []).append(sp)
        by_callee.setdefault(sp.callee, {}).setdefault(bucket, []).append(sp)

    out = {}
    for node in nodes:
        stats = np.zeros((len(TRACE_STAT_NAMES), n_buckets))
        for bucket, group in by_caller.get(node, {}).items():
            lats = np.array([sp.latency_ms for sp in group])
            stats[0, bucket] = lats.mean()
            stats[1, bucket] = np.percentile(lats, 95)
            stats[2, bucket] = len(group)
        for bucket, group in by_callee.get(node, {}).items():
            stats[3, bucket] = np.mean([sp.status != "ok" for sp in group])
        out[node] = stats

    observed = tuple(sorted(endpoints))
    index = {name: i for i, name in enumerate(observed)}
    edges = tuple(sorted((index[u], index[v]) for u, v in pairs))
    graph = ServiceGraph(n_nodes=len(observed), node_names=observed, edges=edges)
    return out, graph


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
    for node in stream.nodes:
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
    merged = []
    for node in stream.nodes:
        merged.extend(
            (t, i, text)
            for i, (t, text) in enumerate(stream.logs[node])
            if t < train_end_ms
        )
    merged.sort(key=lambda rec: (rec[0], rec[2]))
    return [text for _, _, text in merged]


def _trace_z_scores(
    trace_raw: dict[str, np.ndarray], tf: "Transforms", nodes: tuple[str, ...], T: int
) -> np.ndarray:
    """Z-score per-bucket trace stats under frozen train statistics.

    Latency rows are only defined where the bucket saw outgoing spans; in
    count-0 buckets they are held at the train mean (z = 0) so the zero
    encoding reads as "nothing unusual" rather than as an extreme value.
    """
    count_row = TRACE_STAT_NAMES.index("count")
    out = np.zeros((len(nodes), len(TRACE_STAT_NAMES), T))
    for ni, node in enumerate(nodes):
        raw = trace_raw[node]
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
    stream_nodes: tuple[str, ...],
    metric_z: np.ndarray,
    log_counts: dict[str, np.ndarray],
    trace_z: np.ndarray,
    tf: "Transforms",
    end_ms: int,
) -> dict[str, list[AlertEvent]]:
    """3-sigma alert sequences over every monitored series, train thresholds.

    metric_z and trace_z rows are already z-scored (trace latency held at 0
    in span-free buckets), so thresholds are (0, 1) there; log series are
    raw counts and use the stored train statistics.
    """
    alerts: dict[str, list[AlertEvent]] = {node: [] for node in stream_nodes}
    for ni, node in enumerate(stream_nodes):
        events: list[AlertEvent] = []
        for ci, ch in enumerate(tf.selected_channels):
            events.extend(
                three_sigma_alerts(
                    metric_z[ni, ci], 0.0, 1.0, 0, tf.bucket_ms, node,
                    AlertSource.METRIC_CHANNEL, f"metric:{ch}",
                )
            )
        counts = log_counts[node]
        for tid in range(counts.shape[0]):
            mu, sigma = tf.template_stats[f"{node}/{tid}"]
            events.extend(
                three_sigma_alerts(
                    counts[tid], mu, sigma, 0, tf.bucket_ms, node,
                    AlertSource.TEMPLATE_RATE, f"template:{tid}",
                )
            )
        for si, stat in enumerate(TRACE_STAT_NAMES):
            events.extend(
                three_sigma_alerts(
                    trace_z[ni, si], 0.0, 1.0, 0, tf.bucket_ms, node,
                    AlertSource.TRACE_LATENCY, f"trace:{stat}",
                )
            )
        events.sort(key=lambda ev: (ev.t_ms, ev.source.value, ev.identifier))
        alerts[node] = [ev for ev in events if ev.t_ms < end_ms]
    return alerts


def fit_transforms(
    stream: TelemetryStream,
    train_end_ms: int,
    prng: Prng,
    metric_k: Optional[int] = None,
    depth: int = 3,
    sim_threshold: float = 0.5,
) -> Transforms:
    """Fit every train-derived transform; reads nothing at or past
    train_end_ms."""
    if train_end_ms % BUCKET_MS != 0:
        raise ValueError("train_end_ms must align to the bucket grid")
    train_sec = train_end_ms // BUCKET_MS
    if train_sec <= 0:
        raise ValueError("empty training range")

    arrays, _ = _metric_grid(stream)
    channels = sorted({ch for (_, ch) in arrays})
    train_z, metric_stats = standardize_metrics(
        {f"{node}/{ch}": arr[:train_sec] for (node, ch), arr in arrays.items()}, train_sec
    )

    # Channel selection is shared across nodes: correlate each channel name
    # using its z-scored train segments concatenated over nodes.
    k = len(channels) if metric_k is None else metric_k
    pooled = {
        ch: np.concatenate([train_z[f"{node}/{ch}"] for node in stream.nodes])
        for ch in channels
    }
    selected = compress_metrics(pooled, k, train_sec * len(stream.nodes), prng)

    table = mine_templates(
        _train_log_lines(stream, train_end_ms), depth=depth, sim_threshold=sim_threshold
    )
    train_logs = {
        node: [(t, text) for t, text in stream.logs[node] if t < train_end_ms]
        for node in stream.nodes
    }
    counts = template_series(table, train_logs, BUCKET_MS, 0, train_end_ms)
    template_stats = {
        f"{node}/{tid}": (float(counts[node][tid].mean()), float(counts[node][tid].std()))
        for node in stream.nodes
        for tid in range(table.n_templates + 1)
    }

    train_spans = [sp for sp in stream.spans if sp.t_ms < train_end_ms]
    trace_raw, observed = trace_features(train_spans, BUCKET_MS, stream.nodes, 0, train_end_ms)
    missing = set(stream.nodes) - set(observed.node_names)
    if missing:
        raise ValueError(f"nodes never observed in train-range spans: {sorted(missing)}")
    count_row = TRACE_STAT_NAMES.index("count")
    trace_stats = {}
    for node in stream.nodes:
        raw = trace_raw[node]
        defined = raw[count_row] > 0
        for si, stat in enumerate(TRACE_STAT_NAMES):
            if stat == "err_rate":
                trace_stats[f"{node}/{stat}"] = (0.0, TRACE_ERR_SIGMA)
            elif stat.startswith("lat_"):
                # latency is only defined where the bucket saw outgoing spans
                vals = raw[si][defined]
                if vals.size == 0:
                    trace_stats[f"{node}/{stat}"] = (0.0, 0.0)
                else:
                    trace_stats[f"{node}/{stat}"] = (float(vals.mean()), float(vals.std()))
            else:
                trace_stats[f"{node}/{stat}"] = (float(raw[si].mean()), float(raw[si].std()))

    tf = Transforms(
        table=table,
        metric_stats=metric_stats,
        selected_channels=selected,
        template_stats=template_stats,
        trace_stats=trace_stats,
        alert_vocab={},
        graph=observed,
        train_end_ms=train_end_ms,
    )
    # Vocabulary: tokens raised on the train range, plus EMPTY/UNK reserves.
    metric_z = np.stack(
        [
            np.stack([train_z[f"{node}/{ch}"] for ch in selected])
            for node in stream.nodes
        ]
    )
    trace_z = _trace_z_scores(trace_raw, tf, stream.nodes, train_sec)
    train_alerts = _assemble_alerts(
        stream.nodes, metric_z, counts, trace_z, tf, train_end_ms
    )
    tokens = sorted({ev.token for events in train_alerts.values() for ev in events})
    tf.alert_vocab = {EMPTY_TOKEN: 0, UNK_TOKEN: 1}
    for tok in tokens:
        tf.alert_vocab[tok] = len(tf.alert_vocab)
    return tf


def apply_transforms(
    stream: TelemetryStream, tf: Transforms
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, list[AlertEvent]], int]:
    """Full-timeline model inputs under frozen transforms.

    Returns (metric_z, log_counts, trace_z, alerts, duration_ms); the three
    arrays have shape (N, channels, seconds). Trace channels follow
    TRACE_SEGMENT_STATS; the count row informs alerting but is not a model
    input (span volume already reaches the model through the qps metric).
    """
    arrays, duration_ms = _metric_grid(stream)
    T = duration_ms // tf.bucket_ms
    n = len(stream.nodes)

    metric_z = np.zeros((n, len(tf.selected_channels), T))
    for ni, node in enumerate(stream.nodes):
        for ci, ch in enumerate(tf.selected_channels):
            mu, sigma = tf.metric_stats[f"{node}/{ch}"]
            if sigma > 0:
                metric_z[ni, ci] = (arrays[(node, ch)] - mu) / sigma

    counts = template_series(tf.table, stream.logs, tf.bucket_ms, 0, duration_ms)
    log_counts = np.stack([counts[node] for node in stream.nodes])

    trace_raw, _ = trace_features(stream.spans, tf.bucket_ms, stream.nodes, 0, duration_ms)
    trace_z = _trace_z_scores(trace_raw, tf, stream.nodes, T)

    alerts = _assemble_alerts(stream.nodes, metric_z, counts, trace_z, tf, duration_ms)
    # windows carry only the latency/error rows; alerting above saw all stats
    return metric_z, log_counts, trace_z[:, _TRACE_SEGMENT_ROWS, :], alerts, duration_ms


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
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    metric_k: Optional[int] = None,
) -> PreprocessResult:
    """Full preprocessing pipeline: plan windows, fit transforms on the
    train range, apply them to the whole timeline, cut labeled windows."""
    _, duration_ms = _metric_grid(stream)
    plan = plan_windows(duration_ms, window_ms, stride_ms, fractions)
    tf = fit_transforms(stream, plan.train_end_ms, prng, metric_k=metric_k)
    metric_z, log_counts, trace_z, alerts, _ = apply_transforms(stream, tf)
    split = build_windows(
        plan, stream.nodes, metric_z, log_counts, trace_z, alerts, tf.alert_vocab, faults
    )
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
