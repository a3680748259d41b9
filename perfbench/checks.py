"""Output checks for the benchmark workloads.

Each check recomputes a result with the benchmark's own code, or tests a
property the method must have; none compares against a stored copy of
today's output. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import json

import numpy as np

from microdiag import autodiff as ad
from microdiag import models, preprocess
from microdiag.prng import prng_new
from microdiag.types import Backbone, FaultType, Task

# label encoding of fault types: declaration order of the enum
FAULT_ORDER = [t.value for t in FaultType]
D1_MESSAGE = "violates 2PR/(P+R)"


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- dataset preparation ------------------------------------------------------


def split_plan(duration_ms: int, window_ms: int, stride_ms: int):
    """Window starts per split under a 60/20/20 chronological split with one
    window length of guard on each side of both boundaries."""
    starts = list(range(0, duration_ms - window_ms + 1, stride_ms))
    m = len(starts)
    i1, i2 = 3 * m // 5, 4 * m // 5
    b1, b2 = starts[i1], starts[i2]

    def guarded(st):
        return any(st < b + window_ms and st + window_ms > b - window_ms for b in (b1, b2))

    parts = {"train": [], "valid": [], "test": []}
    for i, st in enumerate(starts):
        if not guarded(st):
            parts["train" if i < i1 else "valid" if i < i2 else "test"].append(st)
    return parts, b1


def expected_label(start_ms: int, end_ms: int, faults):
    """(anomalous, root cause, fault type) from the fault schedule: a fault
    labels a window when it covers at least half of it or starts inside it."""
    hits = [
        f for f in faults
        if 2 * (min(end_ms, f.start_ms + f.duration_ms) - max(start_ms, f.start_ms)) >= end_ms - start_ms
        or start_ms <= f.start_ms < end_ms
    ]
    require(len(hits) <= 1, f"window [{start_ms}, {end_ms}) overlaps {len(hits)} faults")
    if not hits:
        return False, None, None
    return True, hits[0].target_node, FAULT_ORDER.index(hits[0].fault_type.value)


def check_prepared(stream, faults, selected_channels, raw: bytes, parsed, window_ms: int,
                   stride_ms: int) -> None:
    """Labels, metric z-scores, split layout and the windows byte format of
    one prepared dataset."""
    nodes, split, header = parsed
    duration_ms = len(next(iter(stream.metrics[stream.nodes[0]].values()))) * 1000
    plan, train_end_ms = split_plan(duration_ms, window_ms, stride_ms)

    parts = {"train": split.train, "valid": split.valid, "test": split.test}
    for name, windows in parts.items():
        got = [w.start_ms for w in windows]
        require(got == plan[name], f"{name} split starts {got[:3]}... differ from the guarded plan")
        for w in windows:
            require(w.end_ms - w.start_ms == window_ms, f"window at {w.start_ms} has wrong length")
    order = [parts["train"], parts["valid"], parts["test"]]
    for earlier, later in zip(order, order[1:]):
        require(max(w.end_ms for w in earlier) <= min(w.start_ms for w in later),
                "splits are not chronological")
    ids = [w.start_ms for part in order for w in part]
    require(len(ids) == len(set(ids)), "a window appears in two splits")

    for w in split.all_windows:
        want = expected_label(w.start_ms, w.end_ms, faults)
        got = (w.label_anomalous, w.label_root_cause, w.label_fault_type)
        require(got == want, f"window at {w.start_ms} labelled {got}, schedule says {want}")

    # z-scores from train-range statistics, rows rounded to 6 decimals
    train_s = train_end_ms // 1000
    for ni, node in enumerate(nodes):
        for ci, ch in enumerate(selected_channels):
            values = np.array([v for _, v in stream.metrics[node][ch]], dtype=np.float64)
            mu, sd = values[:train_s].mean(), values[:train_s].std()
            z = np.zeros_like(values) if sd == 0 else (values - mu) / sd
            for w in split.all_windows:
                row = w.segments[ni].metric[ci]
                ref = z[w.start_ms // 1000 : w.end_ms // 1000]
                require(float(np.max(np.abs(row - ref))) <= 1e-6,
                        f"metric z-scores of {node}/{ch} differ in window {w.start_ms}")

    again = preprocess.windows_to_bytes(nodes, split, header["window_ms"], header["stride_ms"],
                                        header["vocab_size"])
    require(again == raw, "windows bytes do not re-serialize to the same bytes")


# -- metrics recomputed from logits ---------------------------------------------


def topk_hits(scores: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Share of rows whose true node is among the k best scores; among equal
    scores the lower node index ranks first."""
    n = scores.shape[1]
    hits = 0
    for row, t in zip(scores, truth):
        order = sorted(range(n), key=lambda j: (-row[j], j))
        hits += order.index(int(t)) < k
    return hits / len(truth)


def binary_prf(labels: np.ndarray, preds: np.ndarray) -> dict[str, float]:
    tp = int(np.sum((labels == 1) & (preds == 1)))
    fp = int(np.sum((labels == 0) & (preds == 1)))
    fn = int(np.sum((labels == 1) & (preds == 0)))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return {"precision": p, "recall": r, "f1": 2 * p * r / (p + r) if p + r else 0.0}


def scored_logits(params, windows, task: Task, backbone: Backbone, adj, vocab_size: int):
    """(logits, labels) of the test windows a task scores."""
    if task is not Task.DETECT:
        windows = [w for w in windows if w.label_anomalous]
    batch = models.windows_to_batch(windows, vocab_size)
    p = {k: ad.constant(v) for k, v in params.items()}
    logits = models.forward_graph(p, batch, task, backbone, adj).data
    return logits, batch.labels(task)


def recomputed_metrics(logits: np.ndarray, labels: np.ndarray, task: Task) -> dict[str, float]:
    if task is Task.DETECT:
        return binary_prf(labels, logits.argmax(axis=1))
    return {f"top{k}": topk_hits(logits, labels, k) for k in (1, 3, 5) if k <= logits.shape[1]}


# -- file-staged chain ------------------------------------------------------------


def check_staged(workdir, codes, reference_bytes: bytes, reference_split, vocab_size: int) -> None:
    require(all(rc == 0 for rc in codes), f"a CLI command exited non-zero: {codes}")
    staged = (workdir / "windows.jsonl").read_bytes()
    require(staged == reference_bytes, "staged windows.jsonl differs from the in-memory windows")
    config = json.loads((workdir / "run_config.json").read_text("utf-8"))
    task, backbone = Task(config["task"]), Backbone(config["backbone"])
    require(backbone is Backbone.DIAGMLP, "the chain trains the default DIAGMLP backbone")
    payload = json.loads((workdir / "checkpoint.json").read_text("utf-8"))
    params = {name: np.array(e["values"], dtype=np.float64).reshape(e["shape"])
              for name, e in payload.items()}
    logits, labels = scored_logits(params, reference_split.test, task, backbone, None, vocab_size)
    want = {k: round(v, 6) for k, v in recomputed_metrics(logits, labels, task).items()}
    got = json.loads((workdir / "metrics.json").read_text("utf-8"))["metrics"]
    require(got == want, f"metrics.json {got} differs from metrics recomputed from logits {want}")


# -- the ablation ---------------------------------------------------------------------


def check_gradients(bundle, seed: int) -> None:
    """Central finite differences against `backward` on one GCN mini-batch,
    for a few entries of each parameter tensor."""
    mc, lc, tc = bundle.dims()
    params = models.init_params(prng_new(seed), Task.DETECT, Backbone.GCN, bundle.n_nodes,
                                16, 64, bundle.vocab_size, mc, lc, tc)
    batch = models.windows_to_batch(bundle.split.train[:4], bundle.vocab_size)
    labels = batch.labels(Task.DETECT)
    adj = models.normalized_adjacency(bundle.graph)

    def loss_of(tensors):
        logits = models.forward_graph(tensors, batch, Task.DETECT, Backbone.GCN, adj)
        return ad.cross_entropy(logits, labels)

    taped = {k: ad.parameter(v) for k, v in params.items()}
    ad.backward(loss_of(taped))
    rng = np.random.default_rng(seed)

    def central_difference(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(loss_of({k: ad.constant(v) for k, v in params.items()}).data)
        flat[i] = orig - step
        lo = float(loss_of({k: ad.constant(v) for k, v in params.items()}).data)
        flat[i] = orig
        return (hi - lo) / (2 * step)

    for name in sorted(params):
        arr = params[name]
        for i in rng.choice(arr.size, size=min(2, arr.size), replace=False):
            g = float(taped[name].grad.reshape(-1)[i])
            # a step that moves some ReLU input across zero bends the
            # difference; a ten times smaller step then clears the kink
            fds = []
            for step in (1e-6, 1e-7):
                fds.append(central_difference(arr.reshape(-1), i, step))
                if abs(fds[-1] - g) <= 2e-6 + 1e-3 * abs(g):
                    break
            else:
                raise CheckFailed(f"gradient of {name}[{i}]: backward {g:.9g}, "
                                  f"finite differences {fds}")


def check_ablation(result, bundle, control: bool, epochs: int) -> None:
    """Checks one `ablate` result; a cell may fail only under defect D1."""
    task = result.task
    for key, message in sorted(result.failures.items()):
        require(task is Task.CLASSIFY and D1_MESSAGE in message,
                f"{task.value} cell {key} failed: {message}")
    for seed in result.seeds:
        a = result.stage_digests.get((Backbone.DIAGMLP.value, seed))
        b = result.stage_digests.get((Backbone.GCN.value, seed))
        if a and b:
            require(a == b, f"fairness digests differ at seed {seed}")
        if control:
            ra = result.reports[(Backbone.DIAGMLP.value, seed)]
            rb = result.reports[(Backbone.GCN.value, seed)]
            require(ra.per_run == rb.per_run,
                    f"control seed {seed}: DIAGMLP {ra.per_run} != GCN {rb.per_run}")
    for key, history in result.histories.items():
        train_losses = [row[2] for row in history if row[1] == "train"]
        require(len(train_losses) == epochs, f"{key} ran {len(train_losses)} of {epochs} epochs")
        # epoch losses are noisy (dropout, a short last batch): compare the
        # first and last quarters of the budget
        q = max(1, epochs // 4)
        require(np.mean(train_losses[-q:]) < np.mean(train_losses[:q]),
                f"{key} training loss did not fall: {train_losses}")
    if task is Task.CLASSIFY:
        return
    eye = np.eye(bundle.n_nodes)
    for (backbone, seed), params in sorted(result.checkpoints.items()):
        bb = Backbone(backbone)
        adj = eye if control else (models.normalized_adjacency(bundle.graph)
                                   if bb is Backbone.GCN else None)
        logits, labels = scored_logits(params, bundle.split.test, task, bb, adj, bundle.vocab_size)
        want = recomputed_metrics(logits, labels, task)
        got = {k: v[0] for k, v in result.reports[(backbone, seed)].per_run.items()}
        require(set(got) == set(want) and all(abs(got[k] - want[k]) <= 1e-12 for k in want),
                f"{task.value} {backbone} seed {seed}: report {got}, from logits {want}")
