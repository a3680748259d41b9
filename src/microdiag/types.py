"""Domain types shared across the pipeline.

Conventions: timestamps are integer milliseconds everywhere inside the
package; seconds only appear at API boundaries (scenario durations, CLI
flags). Every series is bucketed at BUCKET_MS from t=0. Every type is
treated as immutable once built. `ServiceGraph`, `FaultSpec`,
`DiagnosisWindow`, `DatasetSplit` and `RunConfig` validate their invariants
on construction; `TelemetryStream` checks its own only in an explicit
`validate()`, which the simulator and `serialize_stream` call (the telemetry
reader enforces the same rules line by line). `DiagnosisWindow` compares by
identity; it holds one float64 (N, rows, T) array per series modality, row i
for node i in stream order, and one tuple of alert ids per node.
`NodeSegments` is one node's view of a window: rows of its arrays, not copies.

The JSON records `ServiceGraph`, `FaultSpec`, `RunConfig` and the
simulator's `ScenarioSpec` share one codec, `JsonRecord`: `from_dict` takes
an object with every field and no other, and names the record and the
fields otherwise; `check_types` holds `int` fields to `is_int` and `float`
fields to `is_real`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, Optional

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
    "JsonRecord",
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


def _plain(value):
    """`value` as JSON holds it: an enum as its value, a tuple as a list,
    a dict with sorted keys."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(sorted((_plain(k), _plain(v)) for k, v in value.items()))
    return value


class JsonRecord:
    """A dataclass that is one JSON object; `RECORD` names it in errors."""

    RECORD = "record"

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        """The inverse of `to_dict`: every field, and no other, must be there."""
        if not isinstance(data, dict):
            raise ValueError(f"a {cls.RECORD} must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        for problem, found in (("unknown", set(data) - names), ("missing", names - set(data))):
            if found:
                raise ValueError(f"{problem} {cls.RECORD} fields: {sorted(found)}")
        return cls(**data)

    def check_types(self) -> None:
        """Each `int` field must pass `is_int`, each `float` field `is_real`."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and not is_int(value):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type in ("float", float) and not is_real(value):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")


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
class ServiceGraph(JsonRecord):
    """Directed dependency graph over service instances; edge = caller -> callee.

    An edgeless graph is the explicit "no topology" graph: its nodes are
    known but no call relation is claimed, so GCN propagation over it mixes
    nothing between nodes. A graph with edges must be weakly connected.
    Lists, as JSON reads them, become tuples.
    """

    RECORD = "graph"

    n_nodes: int
    node_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seq, names, edges = (list, tuple), self.node_names, self.edges
        for name, ok, expected in (
            ("n_nodes", is_int(self.n_nodes), "an integer"),
            ("node_names", isinstance(names, seq) and all(type(s) is str for s in names)
             and len(set(names)) == len(names), "a list of distinct strings"),
            ("edges", isinstance(edges, seq) and all(isinstance(e, seq) and len(e) == 2
                                                     and all(map(is_int, e)) for e in edges),
             "a list of [caller, callee] integer pairs"),
        ):
            if not ok:
                raise ValueError(
                    f"graph field {name!r}: expected {expected}, got {getattr(self, name)!r}")
        object.__setattr__(self, "node_names", tuple(self.node_names))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
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
class FaultSpec(JsonRecord):
    """One injected fault: target, type, interval, and propagation strength."""

    RECORD = "fault"

    target_node: int
    fault_type: FaultType
    start_ms: int
    duration_ms: int
    severity: float
    propagation_factor: float

    def __post_init__(self):
        self.check_types()
        object.__setattr__(self, "fault_type", FaultType(self.fault_type))
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


class NodeSegments(NamedTuple):
    """One node's (rows, T) views of a window's arrays, and its alert ids."""

    metric: np.ndarray
    log: np.ndarray
    trace: np.ndarray
    alerts: tuple[int, ...]


@dataclass(eq=False)
class DiagnosisWindow:
    """One fixed-length labeled window of preprocessed per-node inputs.

    Encoders are trained end-to-end, so windows carry the pre-embedding
    series and alert ids; the d-vector features of each node are produced
    from these by the embedding module at the current parameters.
    """

    start_ms: int
    end_ms: int
    metric: np.ndarray
    log: np.ndarray
    trace: np.ndarray
    alerts: tuple[tuple[int, ...], ...]
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
        return len(self.alerts)

    @property
    def segments(self) -> list[NodeSegments]:
        """Per node, views of its rows; kept for the benchmark's checks."""
        return [NodeSegments(*rows) for rows in zip(self.metric, self.log, self.trace, self.alerts)]


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
class RunConfig(JsonRecord):
    """What one training/evaluation run varies; the optimizer protocol both
    backbones share is fixed in `train_eval` and `models`. Flat JSON."""

    RECORD = "run config"

    seed: int
    task: Task = Task.LOCALIZE
    backbone: Backbone = Backbone.DIAGMLP
    d: int = 16
    hidden: int = 64
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        self.check_types()
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "backbone", Backbone(self.backbone))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("d", "hidden", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # patience=0 is meaningful: stop after the first epoch.
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
