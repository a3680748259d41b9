"""Domain types shared across the pipeline.

Conventions: timestamps are integer milliseconds everywhere inside the
package; seconds only appear at API boundaries (scenario durations, CLI
flags). Every series is bucketed at BUCKET_MS from t=0. Every type is
treated as immutable once built. `ServiceGraph`, `FaultSpec`,
`DiagnosisWindow`, `DatasetSplit` and `RunConfig` validate their invariants
on construction; `TelemetryStream` checks its own only in an explicit
`validate()`, which the simulator and `serialize_stream` call (the telemetry
reader enforces the same rules line by line), and `NodeSegments` checks
none. `NodeSegments` and `DiagnosisWindow` compare by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "BUCKET_MS",
    "FaultType",
    "Task",
    "Backbone",
    "ServiceGraph",
    "FaultSpec",
    "SPAN_DTYPE",
    "SERIES_DTYPE",
    "TelemetryStream",
    "NodeSegments",
    "DiagnosisWindow",
    "DatasetSplit",
    "RunConfig",
    "is_int",
    "is_real",
]

# width of one series bucket: metrics are sampled, and log lines, spans and
# alerts counted, per BUCKET_MS
BUCKET_MS = 1000


def is_int(value) -> bool:
    """An int and not a bool, as a JSON integer reads."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int that is not a bool, or a float, as a JSON number reads."""
    return is_int(value) or isinstance(value, float)


class FaultType(str, Enum):
    CPU_STRESS = "CPU_STRESS"
    MEM_LEAK = "MEM_LEAK"
    NET_DELAY = "NET_DELAY"
    CRASH = "CRASH"


FAULT_TYPES = tuple(FaultType)


class Task(str, Enum):
    DETECT = "DETECT"
    LOCALIZE = "LOCALIZE"
    CLASSIFY = "CLASSIFY"


class Backbone(str, Enum):
    DIAGMLP = "DIAGMLP"
    GCN = "GCN"


@dataclass(frozen=True)
class ServiceGraph:
    """Directed dependency graph over service instances; edge = caller -> callee.

    An edgeless graph is the explicit "no topology" graph: its nodes are
    known but no call relation is claimed, so GCN propagation over it mixes
    nothing between nodes. A graph with edges must be weakly connected.
    """

    n_nodes: int
    node_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if len(self.node_names) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} node names, got {len(self.node_names)}"
            )
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) references a node >= {self.n_nodes}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.edges and not self._weakly_connected():
            raise ValueError("graph is not weakly connected")

    def _weakly_connected(self) -> bool:
        adj: dict[int, list[int]] = {i: [] for i in range(self.n_nodes)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.n_nodes

    def callers_of(self, node: int) -> list[int]:
        """Direct upstream callers of a node."""
        return [u for u, v in self.edges if v == node]

    def upstream_hops(self, target: int) -> dict[int, int]:
        """Shortest hop distance from each upstream caller to the target.

        A node u is upstream of the target if some call path u -> ... -> target
        exists. The target itself is excluded.
        """
        hops: dict[int, int] = {}
        frontier = [target]
        depth = 0
        visited = {target}
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for u in self.callers_of(v):
                    if u not in visited:
                        visited.add(u)
                        hops[u] = depth
                        nxt.append(u)
            frontier = nxt
        return hops


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: target, type, interval, and propagation strength."""

    target_node: int
    fault_type: FaultType
    start_ms: int
    duration_ms: int
    severity: float
    propagation_factor: float

    def __post_init__(self):
        for name in ("target_node", "start_ms", "duration_ms"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("severity", "propagation_factor"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.target_node < 0 or self.start_ms < 0:
            raise ValueError(f"target_node and start_ms must be non-negative, got "
                             f"{self.target_node} and {self.start_ms} ms")
        if self.duration_ms <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ms} ms")
        if not (0.0 < self.severity <= 1.0):
            raise ValueError(f"severity must be in (0, 1], got {self.severity}")
        if not (0.0 <= self.propagation_factor <= 1.0):
            raise ValueError(
                f"propagation_factor must be in [0, 1], got {self.propagation_factor}"
            )

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.duration_ms


# One trace span along a caller -> callee edge; endpoints index stream.nodes.
SPAN_DTYPE = np.dtype([("t_ms", np.int64), ("caller", np.int64), ("callee", np.int64),
                       ("latency_ms", np.float64), ("error", np.bool_)])
# One sample of a metric series.
SERIES_DTYPE = np.dtype([("t_ms", np.int64), ("value", np.float64)])


@dataclass
class TelemetryStream:
    """Raw multimodal telemetry for one simulated scenario.

    metrics: node -> channel -> 1-D SERIES_DTYPE array, non-decreasing t_ms.
    logs:    node -> [(t_ms, text)], non-decreasing timestamps.
    spans:   time-ordered SPAN_DTYPE array; caller and callee index nodes.
             On disk (see `serialize`) a span names them, with "ok"/"error".
    """

    nodes: tuple[str, ...]
    metrics: dict[str, dict[str, np.ndarray]]
    logs: dict[str, list[tuple[int, str]]]
    spans: np.ndarray

    def validate(self, graph: Optional[ServiceGraph] = None) -> None:
        known = set(self.nodes)
        for node, channels in self.metrics.items():
            if node not in known:
                raise ValueError(f"metrics for unknown node {node!r}")
            for channel, series in channels.items():
                if not (isinstance(series, np.ndarray) and series.dtype == SERIES_DTYPE
                        and series.ndim == 1):
                    raise ValueError(f"metric {node}/{channel} is not a 1-D SERIES_DTYPE array")
                if np.any(series["t_ms"][1:] < series["t_ms"][:-1]):
                    raise ValueError(
                        f"non-monotone timestamps in metric {node}/{channel}"
                    )
        for node, lines in self.logs.items():
            if node not in known:
                raise ValueError(f"logs for unknown node {node!r}")
            if any(b[0] < a[0] for a, b in zip(lines, lines[1:])):
                raise ValueError(f"non-monotone timestamps in logs of {node}")
        sp = self.spans
        if np.any(sp["t_ms"][1:] < sp["t_ms"][:-1]):
            raise ValueError("non-monotone timestamps in spans")
        ends = np.stack((sp["caller"], sp["callee"]))
        unknown = ((ends < 0) | (ends >= len(self.nodes))).any(axis=0)
        if unknown.any():
            raise ValueError(f"span references unknown node: {sp[unknown][0]}")
        if graph is not None:
            edges = {(graph.node_names[u], graph.node_names[v]) for u, v in graph.edges}
            allowed = np.array([[(u, v) in edges for v in self.nodes] for u in self.nodes])
            off = ~allowed[sp["caller"], sp["callee"]]
            if off.any():
                caller, callee = self.nodes[sp["caller"][off][0]], self.nodes[sp["callee"][off][0]]
                raise ValueError(f"span ({caller} -> {callee}) is not a graph edge")


@dataclass(eq=False)
class NodeSegments:
    """Pre-embedding inputs for one node in one window.

    metric/log/trace are (channels x T) arrays; alerts is the time-ordered
    alert token id sequence for the window.
    """

    metric: np.ndarray
    log: np.ndarray
    trace: np.ndarray
    alerts: tuple[int, ...]


@dataclass(eq=False)
class DiagnosisWindow:
    """One fixed-length labeled window of preprocessed per-node inputs.

    Encoders are trained end-to-end, so windows carry the pre-embedding
    segments; the d-vector features of each node are produced from these by
    the embedding module at the current parameters.
    """

    start_ms: int
    end_ms: int
    segments: list[NodeSegments]
    label_anomalous: bool
    label_root_cause: Optional[int] = None
    label_fault_type: Optional[int] = None

    def __post_init__(self):
        if self.end_ms <= self.start_ms:
            raise ValueError("window_end must exceed window_start")
        labels = (self.label_root_cause, self.label_fault_type)
        if labels.count(None) != (0 if self.label_anomalous else 2):
            raise ValueError(
                f"root-cause and fault-type labels must be present iff anomalous, got "
                f"{labels} with anomalous={self.label_anomalous}"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.segments)


@dataclass
class DatasetSplit:
    """Chronological train/valid/test partition of diagnosis windows."""

    train: list[DiagnosisWindow]
    valid: list[DiagnosisWindow]
    test: list[DiagnosisWindow]

    def __post_init__(self):
        self.check_chronological()

    def check_chronological(self) -> None:
        order = [self.train, self.valid, self.test]
        for earlier, later in zip(order, order[1:]):
            if earlier and later:
                if max(w.end_ms for w in earlier) > min(w.start_ms for w in later):
                    raise ValueError("splits are not chronologically ordered")
        ids = [(w.start_ms, w.end_ms) for part in order for w in part]
        if len(ids) != len(set(ids)):
            raise ValueError("a window appears in more than one split")

    @property
    def all_windows(self) -> list[DiagnosisWindow]:
        return [*self.train, *self.valid, *self.test]


@dataclass(frozen=True)
class RunConfig:
    """What one training/evaluation run varies; the optimizer protocol both
    backbones share is fixed in `train_eval` and `models`. Flat JSON."""

    seed: int
    task: Task = Task.LOCALIZE
    backbone: Backbone = Backbone.DIAGMLP
    d: int = 16
    hidden: int = 64
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        for name in ("seed", "d", "hidden", "max_epochs", "patience"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("d", "hidden", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # patience=0 is meaningful: stop after the first epoch.
        if self.patience < 0:
            raise ValueError("patience must be non-negative")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["task"] = self.task.value
        out["backbone"] = self.backbone.value
        return out

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        """The inverse of `to_dict`: every field, and no other, must be there."""
        known = set(RunConfig.__dataclass_fields__)
        if set(data) - known:
            raise ValueError(f"unknown run config fields: {sorted(set(data) - known)}")
        if known - set(data):
            raise ValueError(f"missing run config fields: {sorted(known - set(data))}")
        data = dict(data)
        data["task"] = Task(data["task"])
        data["backbone"] = Backbone(data["backbone"])
        return RunConfig(**data)
