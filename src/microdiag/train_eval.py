"""Training, evaluation metrics, the backbone ablation, and separability.

Training is plain Adam over mini-batches with per-epoch shuffling from the
run PRNG and early stopping on a validation objective: binary F1 for
detection, macro F1 for classification, Top-1 accuracy for localization.
Both backbones share one protocol of constants, not run settings:
LEARNING_RATE, BATCH_SIZE, the ADAM_* terms and `models.DROPOUT_RATE`.
Everything is deterministic given a RunConfig.

The ablation harness trains both backbones on byte-identical preprocessed
dataset bytes with identical shared-tensor initialization and batch
schedules, so the only degree of freedom is the message-passing stage. Stage
digests record this and are asserted, not assumed. A cell that fails stops
the ablation with an error naming its backbone and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import embed
from . import models
from .preprocess import PreprocessResult, preprocess_stream, windows_from_bytes, windows_to_bytes
from .prng import prng_new
from .simulator import ScenarioSpec, generate_topology, schedule_faults, simulate
from .types import (
    Backbone,
    DatasetSplit,
    DiagnosisWindow,
    FaultSpec,
    RunConfig,
    ServiceGraph,
    Task,
    TelemetryStream,
)

__all__ = [
    "DatasetBundle",
    "prepare_dataset",
    "preprocess_scenario",
    "simulate_scenario",
    "TrainResult",
    "train",
    "MetricsReport",
    "evaluate",
    "topk_accuracy",
    "precision_recall_f1",
    "ablate",
    "AblateResult",
    "SeparabilityMode",
    "separability_report",
    "silhouette_score",
    "pca_2d",
    "results_csv_rows",
    "render_summary",
    "EVAL_CHUNK",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
EVAL_CHUNK = 128
TOPK_KS = (1, 3, 5)


@dataclass
class DatasetBundle:
    """A parsed dataset plus everything a training run needs with it."""

    split: DatasetSplit
    graph: ServiceGraph
    vocab_size: int
    digest: str  # sha256 of the serialized windows bytes

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.graph.node_names

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    def dims(self) -> tuple[int, int, int]:
        w = self.split.train[0]
        return w.metric.shape[1], w.log.shape[1], w.trace.shape[1]

    @classmethod
    def from_bytes(cls, raw: bytes, graph: ServiceGraph) -> "DatasetBundle":
        """Parse serialized windows bytes; the digest is taken over them."""
        nodes, split, header = windows_from_bytes(raw)
        if graph.node_names != nodes:
            raise ValueError(f"graph nodes {graph.node_names} differ from the windows' {nodes}")
        return cls(
            split=split,
            graph=graph,
            vocab_size=header["vocab_size"],
            digest=hashlib.sha256(raw).hexdigest(),
        )


def simulate_scenario(
    scenario: ScenarioSpec, seed: int
) -> tuple[ServiceGraph, list[FaultSpec], TelemetryStream]:
    """Topology, fault schedule and telemetry for a scenario from one seed."""
    root = prng_new(seed)
    graph = generate_topology(scenario.n_nodes, scenario.edge_density, root.child("simulate"))
    faults = schedule_faults(scenario, graph, root.child("simulate"))
    return graph, faults, simulate(graph, faults, scenario, root.child("simulate"))


def preprocess_scenario(
    stream: TelemetryStream,
    faults: list[FaultSpec],
    scenario: ScenarioSpec,
) -> tuple[PreprocessResult, bytes]:
    """Preprocess a scenario's telemetry into windows, with the window length
    and stride the scenario's faults were scheduled for, and serialize them.

    A caller that passes the stream as a call's value, naming it nowhere,
    has it freed once `preprocess_stream` returns, before serializing."""
    result = preprocess_stream(stream, faults, scenario.window_ms, scenario.stride_ms)
    del stream
    raw = windows_to_bytes(result.nodes, result.split, scenario.window_ms,
                           scenario.stride_ms, result.transforms.vocab_size)
    return result, raw


def prepare_dataset(
    scenario: ScenarioSpec, dataset_seed: int
) -> tuple[DatasetBundle, PreprocessResult, bytes]:
    """Simulate a scenario from a seed and preprocess it into a canonical dataset.

    The bundle is parsed back from the serialized windows bytes, so
    in-memory runs and file-staged CLI runs consume identical inputs.
    """
    sim = list(simulate_scenario(scenario, dataset_seed))
    # popped, the stream's one reference goes to preprocess_scenario
    result, raw = preprocess_scenario(sim.pop(), sim[1], scenario)
    return DatasetBundle.from_bytes(raw, result.transforms.graph), result, raw


def _task_windows(windows: list[DiagnosisWindow], task: Task) -> list[DiagnosisWindow]:
    if task is Task.DETECT:
        return list(windows)
    return [w for w in windows if w.label_anomalous]


def _eval_logits(
    params: dict[str, np.ndarray],
    batch: models.WindowBatch,
    task: Task,
    backbone: Backbone,
    adj: Optional[np.ndarray],
) -> np.ndarray:
    p = {k: ad.constant(v) for k, v in params.items()}
    outs = [models.forward_graph(p, chunk, task, backbone, adj).data
            for chunk in batch.chunks(EVAL_CHUNK)]
    return np.concatenate(outs, axis=0)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[tuple]  # (epoch, split, loss, objective-or-empty)
    best_epoch: int
    best_objective: float
    epochs_run: int
    schedule_digest: str  # identifies the shuffle/dropout stream lineage
    shared_init_digest: str  # initial tensors both backbones share


def _shared_init_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        if name.startswith("gcn/"):
            continue
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()


def train(
    bundle: DatasetBundle,
    config: RunConfig,
    disable_message_passing: bool = False,
) -> TrainResult:
    """Adam training with early stopping on the validation objective.

    Mixed precision: each step's forward and backward run in float32 over a
    float32 copy of the training windows, while the master weights, their
    gradients and Adam's moments stay float64. Validation, and so early
    stopping and the returned parameters' selection, runs in float64.

    With disable_message_passing, a GCN propagates over the identity
    adjacency with identity `gcn/w1`, `gcn/w2` that Adam never updates, so
    it computes exactly what DIAGMLP computes.
    """
    task, backbone = config.task, config.backbone
    train_w = _task_windows(bundle.split.train, task)
    valid_w = _task_windows(bundle.split.valid, task)
    if not train_w or not valid_w:
        raise ValueError(f"no labeled {task.value} windows in train or valid split")

    mc, lc, tc = bundle.dims()
    root = prng_new(config.seed)
    params = models.init_params(
        root, task, backbone, bundle.n_nodes, config.d, config.hidden,
        bundle.vocab_size, mc, lc, tc,
    )
    fixed = ()
    if disable_message_passing and backbone is Backbone.GCN:
        fixed = ("gcn/w1", "gcn/w2")
        for k in fixed:
            params[k] = np.eye(config.hidden)
    shared_init = _shared_init_digest(params)
    adj = models.adjacency(bundle.graph, backbone, disable_message_passing)
    metric_fn, objective = TASK_METRICS[task]

    train_batch = models.windows_to_batch(train_w, bundle.vocab_size, np.float32)
    valid_batch = models.windows_to_batch(valid_w, bundle.vocab_size)
    valid_labels = valid_batch.labels(task)

    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    loop = root.child("train")
    best_obj = -math.inf
    best_epoch = 0
    best_loss = math.inf
    last_progress = 0
    best_params = {k: p.copy() for k, p in params.items()}
    history: list[tuple] = []
    n_train = len(train_w)
    epochs_run = 0
    schedule_digest = hashlib.sha256()
    schedule_digest.update(bundle.digest.encode())

    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        erng = loop.child(f"epoch:{epoch}")
        order = erng.permutation(n_train)
        if epoch == 0:
            schedule_digest.update(order.tobytes())
        loss_sum = 0.0
        for lo in range(0, n_train, BATCH_SIZE):
            rows = order[lo : lo + BATCH_SIZE]
            loss, grads = models.loss_and_grads(
                params, train_batch.select(rows), task, backbone, adj,
                erng.child(f"step:{lo // BATCH_SIZE}"),
            )
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"step {lo // BATCH_SIZE}"
                )
            loss_sum += loss * len(rows)
            step += 1
            bc1 = 1.0 - ADAM_BETA1 ** step
            bc2 = 1.0 - ADAM_BETA2 ** step
            # in place, in the textbook expression's operation order (same
            # bits); the temporaries `a`, `b` go before the next step's tape
            for k, g in grads.items():
                if k in fixed:
                    continue
                a = np.multiply(1.0 - ADAM_BETA1, g)
                m[k] *= ADAM_BETA1
                m[k] += a
                np.multiply(1.0 - ADAM_BETA2, g, out=a)
                a *= g
                v2[k] *= ADAM_BETA2
                v2[k] += a
                b = np.divide(m[k], bc1)
                b *= LEARNING_RATE
                np.divide(v2[k], bc2, out=a)
                np.sqrt(a, out=a)
                a += ADAM_EPS
                b /= a
                params[k] -= b

        val_logits = _eval_logits(params, valid_batch, task, backbone, adj)
        val_obj = metric_fn(val_logits, valid_labels)[objective]
        val_loss = float(ad.cross_entropy(ad.constant(val_logits), valid_labels).data)
        history.append((epoch, "train", loss_sum / n_train, ""))
        history.append((epoch, "valid", val_loss, val_obj))

        if val_obj > best_obj:
            best_obj = val_obj
            best_epoch = epoch
            best_params = {k: p.copy() for k, p in params.items()}
            last_progress = epoch
        # a falling validation loss also counts as progress, so runs still
        # breaking symmetry are not cut off while the objective sits flat
        if val_loss < best_loss - 1e-6:
            best_loss = val_loss
            last_progress = epoch
        if epoch - last_progress >= config.patience:
            break

    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_objective=best_obj,
        epochs_run=epochs_run,
        schedule_digest=schedule_digest.hexdigest(),
        shared_init_digest=shared_init,
    )


def precision_recall_f1(labels_pos: np.ndarray, preds_pos: np.ndarray) -> tuple[float, float, float]:
    """Binary precision/recall/F1 with 0-denominator conventions."""
    tp = int(np.sum(labels_pos & preds_pos))
    fp = int(np.sum(~labels_pos & preds_pos))
    fn = int(np.sum(labels_pos & ~preds_pos))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def topk_accuracy(scores: np.ndarray, true_nodes: np.ndarray, k: int) -> float:
    """Fraction of rows whose true node ranks in the top k by score,
    descending, ties resolved in favor of the lower node index."""
    scores = np.asarray(scores, dtype=np.float64)
    true_nodes = np.asarray(true_nodes, dtype=np.int64)
    n = scores.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] for {n} nodes, got {k}")
    hits = 0
    for row, t in zip(scores, true_nodes):
        s_t = row[t]
        rank = 1 + int(np.sum(row > s_t)) + int(np.sum(row[:t] == s_t))
        hits += rank <= k
    return hits / len(true_nodes)


def _binary_prf(logits: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    if not np.any(labels == 1):
        warnings.warn("no anomalous windows among labels; precision defined as 0")
    p, r, f1 = precision_recall_f1(labels == 1, logits.argmax(axis=1) == 1)
    return {"precision": p, "recall": r, "f1": f1}


def _macro_prf(logits: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    # macro F1 averages per-class F1 over the classes present (the P,R means
    # do not satisfy the F1 identity in general)
    preds = logits.argmax(axis=1)
    classes = sorted(set(labels.tolist()))
    prf = np.array([precision_recall_f1(labels == c, preds == c) for c in classes])
    p, r, f1 = prf.mean(axis=0)
    return {"precision": float(p), "recall": float(r), "f1": float(f1)}


def _topk(logits: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    return {f"top{k}": topk_accuracy(logits, labels, k) for k in TOPK_KS if k <= logits.shape[1]}


# Per task: the metric function of (logits, labels) and the metric that
# early stopping maximizes on the validation split.
TASK_METRICS = {
    Task.DETECT: (_binary_prf, "f1"),
    Task.CLASSIFY: (_macro_prf, "f1"),
    Task.LOCALIZE: (_topk, "top1"),
}


@dataclass
class MetricsReport:
    """Evaluation metrics for one or more runs of one task."""

    task: Task
    per_run: dict[str, list[float]]

    @property
    def n_runs(self) -> int:
        return len(next(iter(self.per_run.values()), ()))

    def __post_init__(self):
        for name, values in self.per_run.items():
            if len(values) != self.n_runs:
                raise ValueError(f"metric '{name}' has {len(values)} values for {self.n_runs} runs")
            for v in values:
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"metric '{name}' value {v} outside [0, 1]")
        # only a binary report's F1 is 2PR/(P+R); a macro report averages
        # per-class F1 values instead
        if self.task is Task.DETECT and "precision" in self.per_run and "f1" in self.per_run:
            for p, r, f1 in zip(
                self.per_run["precision"], self.per_run["recall"], self.per_run["f1"]
            ):
                want = 2 * p * r / (p + r) if p + r else 0.0
                if not math.isclose(f1, want, rel_tol=0, abs_tol=1e-9):
                    raise ValueError(f"f1={f1} violates 2PR/(P+R)={want}")

    @property
    def mean_and_std(self) -> dict[str, tuple[float, float]]:
        out = {}
        for name, values in self.per_run.items():
            arr = np.array(values)
            out[name] = (float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)
        return out

    def metric(self, name: str) -> float:
        return self.mean_and_std[name][0]


def config_fingerprint(config: RunConfig, dataset_digest: str) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True) + dataset_digest
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def evaluate(
    params, windows, task: Task, vocab_size: int,
    backbone: Backbone = Backbone.DIAGMLP,
    graph: Optional[ServiceGraph] = None,
    disable_message_passing: bool = False,
) -> MetricsReport:
    """One run's test metrics over the windows that carry a label for the
    task: binary P/R/F1 for DETECT, macro P/R/F1 for CLASSIFY, top-k for
    LOCALIZE."""
    usable = _task_windows(windows, task)
    if not usable:
        raise ValueError(f"no labeled {task.value} windows to evaluate")
    batch = models.windows_to_batch(usable, vocab_size)
    adj = models.adjacency(graph, backbone, disable_message_passing)
    metrics = TASK_METRICS[task][0](
        _eval_logits(params, batch, task, backbone, adj), batch.labels(task)
    )
    return MetricsReport(task=task, per_run={k: [v] for k, v in metrics.items()})


class SeparabilityMode(str, Enum):
    RAW_CONCAT = "RAW_CONCAT"
    MODEL_EMBED = "MODEL_EMBED"


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette with Euclidean distance; singleton-class points score
    0, as does any point whose max(a, b) is 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(points)
    if n != len(labels):
        raise ValueError("points and labels disagree in length")
    if len(set(labels.tolist())) < 2:
        raise ValueError("silhouette needs at least 2 classes")
    # row-chunked so wide feature matrices do not materialize (n, n, D)
    dist = np.empty((n, n))
    chunk = max(1, int(2e7 / max(1, n * points.shape[1])))
    for lo in range(0, n, chunk):
        diff = points[lo : lo + chunk, None, :] - points[None, :, :]
        dist[lo : lo + chunk] = np.sqrt((diff * diff).sum(axis=2))
    classes = sorted(set(labels.tolist()))
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_size = int(own.sum())
        if own_size == 1:
            continue
        a = dist[i][own].sum() / (own_size - 1)
        b = min(dist[i][labels == c].mean() for c in classes if c != labels[i])
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


def pca_2d(features: np.ndarray) -> np.ndarray:
    """Project rows to the top-2 principal components. Deterministic sign:
    each component's largest-magnitude entry is positive."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValueError("need at least 2 rows and 2 feature dimensions")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    comps = eigvecs[:, [-1, -2]]
    for j in range(2):
        lead = np.argmax(np.abs(comps[:, j]))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    return centered @ comps


def separability_report(
    windows: list[DiagnosisWindow],
    mode: SeparabilityMode,
    params: dict[str, np.ndarray],
    vocab_size: int,
    backbone: Backbone = Backbone.DIAGMLP,
    graph: Optional[ServiceGraph] = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(2D points, root-cause labels, silhouette) over anomalous windows.

    RAW_CONCAT concatenates the N nodes' encoder features (R^{3dN});
    MODEL_EMBED takes the trunk's pre-head representation.  The silhouette
    is computed in the full feature space; the 2D points are a PCA
    projection for plotting only.
    """
    anomalous = [w for w in windows if w.label_anomalous]
    labels = np.array([w.label_root_cause for w in anomalous])
    if len(set(labels.tolist())) < 2:
        raise ValueError("separability needs >= 2 distinct root-cause labels")
    batch = models.windows_to_batch(anomalous, vocab_size)
    p = {k: ad.constant(v) for k, v in params.items()}
    adj = models.adjacency(graph, backbone)
    models.check_batch(p, batch, adj)

    feats = []
    for chunk in batch.chunks(EVAL_CHUNK):
        x = embed.encode_nodes(p, chunk.metric, chunk.log, chunk.trace, chunk.event_w)
        if mode is SeparabilityMode.RAW_CONCAT:
            feats.append(x.data.reshape(chunk.size, -1))  # (B, N*3d)
        else:
            feats.append(models.trunk(p, x, backbone, adj).data)
    x = np.concatenate(feats, axis=0)
    return pca_2d(x), labels, silhouette_score(x, labels)


@dataclass
class AblateResult:
    task: Task
    seeds: list[int]
    reports: dict[tuple[str, int], MetricsReport]
    checkpoints: dict[tuple[str, int], dict[str, np.ndarray]] = field(repr=False, default_factory=dict)
    histories: dict[tuple[str, int], list[tuple]] = field(repr=False, default_factory=dict)
    stage_digests: dict[tuple[str, int], dict[str, str]] = field(default_factory=dict)
    dataset_digest: str = ""

    @property
    def failures(self) -> dict[tuple[str, int], str]:
        # always empty, since a failing cell raises inside `ablate`;
        # perfbench/checks.py::check_ablation and perfbench/run.py::Ablate.round
        # still read it, and it goes with the next edit of perfbench/
        return {}

    def mean(self, backbone: Backbone, metric: str) -> float:
        """Mean over every seed."""
        return float(np.mean([self.reports[(backbone.value, s)].metric(metric) for s in self.seeds]))


def ablate(
    bundle: DatasetBundle,
    base: RunConfig,
    seeds: list[int],
    disable_message_passing: bool = False,
) -> AblateResult:
    """Train and evaluate both backbones per seed on one dataset.

    With disable_message_passing, the GCN runs with identity adjacency and
    fixed identity message-passing weights — the controlled-equivalence
    configuration where the two backbones must coincide.

    A cell that fails raises a RuntimeError naming its backbone and seed,
    chained from the cause.
    """
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"ablation seeds must be distinct, repeated: {repeated}")
    result = AblateResult(task=base.task, seeds=list(seeds), reports={},
                          dataset_digest=bundle.digest)

    for backbone in (Backbone.DIAGMLP, Backbone.GCN):
        for seed in seeds:
            config = dataclasses.replace(base, seed=seed, backbone=backbone)
            try:
                tr = train(bundle, config, disable_message_passing)
                report = evaluate(
                    tr.params, bundle.split.test, base.task, bundle.vocab_size,
                    backbone=backbone, graph=bundle.graph,
                    disable_message_passing=disable_message_passing,
                )
            except Exception as exc:
                raise RuntimeError(f"ablation cell {backbone.value} seed {seed}: "
                                   f"{type(exc).__name__}: {exc}") from exc
            key = (backbone.value, seed)
            result.reports[key] = report
            result.checkpoints[key] = tr.params
            result.histories[key] = tr.history
            result.stage_digests[key] = {
                "dataset": bundle.digest,
                "shared_init": tr.shared_init_digest,
                "schedule": tr.schedule_digest,
            }

    for seed in seeds:
        a = result.stage_digests[(Backbone.DIAGMLP.value, seed)]
        b = result.stage_digests[(Backbone.GCN.value, seed)]
        if a != b:
            raise AssertionError(
                f"fairness violated at seed {seed}: stage digests differ {a} vs {b}"
            )
    return result


def results_csv_rows(result: AblateResult) -> tuple[list[str], list[list]]:
    """results.csv: per cell, in the order of `result.reports`, a status row
    ("ok": a cell that fails stops `ablate`) and one row per metric."""
    header = ["backbone", "seed", "task", "metric", "value"]
    rows = []
    for (backbone, seed), report in result.reports.items():
        cell = [backbone, seed, result.task.value]
        rows.append(cell + ["status", "ok"])
        rows += [cell + [name, report.per_run[name][0]] for name in sorted(report.per_run)]
    return header, rows


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_summary(result: AblateResult) -> str:
    """Deterministic markdown summary: per-backbone mean ± std and paired
    per-seed deltas, the mean delta taken over the printed deltas."""
    metric_names = sorted({m for r in result.reports.values() for m in r.per_run})
    lines = [
        "# Backbone ablation",
        "",
        f"Task: {result.task.value}. Seeds: {', '.join(str(s) for s in result.seeds)}.",
        f"Dataset digest: `{result.dataset_digest}`.",
        "",
        "| backbone | " + " | ".join(metric_names) + " |",
        "|---" * (len(metric_names) + 1) + "|",
    ]
    n = len(result.seeds)
    for backbone in (Backbone.DIAGMLP, Backbone.GCN):
        cells = []
        for name in metric_names:
            vals = np.array([result.reports[(backbone.value, s)].metric(name) for s in result.seeds])
            std = vals.std(ddof=1) if n > 1 else 0.0
            cells.append(f"{_fmt(vals.mean())} ± {_fmt(std)}")
        lines.append(f"| {backbone.value} | " + " | ".join(cells) + " |")

    lines += ["", "## Paired per-seed deltas (DIAGMLP − GCN)", ""]
    lines.append("| metric | " + " | ".join(f"seed {s}" for s in result.seeds) + " | mean |")
    lines.append("|---" * (n + 2) + "|")
    for name in metric_names:
        deltas = [_fmt(result.reports[(Backbone.DIAGMLP.value, s)].metric(name)
                       - result.reports[(Backbone.GCN.value, s)].metric(name))
                  for s in result.seeds]
        mean = _fmt(float(np.mean([float(d) for d in deltas])))
        lines.append(f"| {name} | " + " | ".join(deltas) + f" | {mean} |")
    return "\n".join(lines) + "\n"
