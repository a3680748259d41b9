"""File formats: telemetry JSONL, graph/fault JSON, checkpoints, CSV reports.

Telemetry JSONL is one object per line. The first line is a header carrying
the node list; every following line is a record:

    {"kind": "metric", "t_ms": int, "node": str, "channel": str, "value": float}
    {"kind": "log",    "t_ms": int, "node": str, "text": str}
    {"kind": "span",   "t_ms": int, "node": str, "caller": str, "callee": str,
     "latency_ms": float, "status": "ok" | "error"}

For spans, "node" is the reporting (caller) side; in memory a span is a
`SPAN_DTYPE` record with node indices and an `error` flag. Serialization is
canonical: identical streams always produce identical bytes. All CSV reports
are UTF-8 with a header row and LF line endings.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .types import SPAN_DTYPE, FaultSpec, FaultType, ServiceGraph, TelemetryStream

__all__ = [
    "ParseError",
    "json_line",
    "header_line",
    "serialize_stream",
    "deserialize_stream",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "faults_to_json",
    "faults_from_json",
    "save_checkpoint",
    "load_checkpoint",
    "write_csv",
    "atomic_write_bytes",
    "atomic_write_text",
]

_HEADER_VERSION = 1


class ParseError(ValueError):
    """Malformed serialized input; message names the line and field."""

    def __init__(self, line_no: int, field: str, detail: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}, field {field!r}: {detail}")


def _fnum(x: float) -> float:
    """Round floats for emission; keeps files compact and reruns byte-stable."""
    return round(float(x), 6)


def serialize_stream(stream: TelemetryStream) -> bytes:
    """Encode a telemetry stream as canonical JSONL bytes."""
    stream.validate()
    lines = [
        json.dumps(
            {"kind": "header", "version": _HEADER_VERSION, "nodes": list(stream.nodes)},
            separators=(",", ":"),
        )
    ]
    records: list[tuple[int, int, str]] = []  # (t_ms, tiebreak, json) per record
    for node in stream.nodes:
        for channel in sorted(stream.metrics.get(node, {})):
            for t_ms, value in stream.metrics[node][channel]:
                obj = {"kind": "metric", "t_ms": t_ms, "node": node,
                       "channel": channel, "value": _fnum(value)}
                records.append((t_ms, 0, json.dumps(obj, separators=(",", ":"))))
    for node in stream.nodes:
        for t_ms, text in stream.logs.get(node, []):
            obj = {"kind": "log", "t_ms": t_ms, "node": node, "text": text}
            records.append((t_ms, 1, json.dumps(obj, separators=(",", ":"))))
    names = stream.nodes
    for t_ms, caller, callee, latency_ms, error in stream.spans.tolist():
        obj = {"kind": "span", "t_ms": t_ms, "node": names[caller], "caller": names[caller],
               "callee": names[callee], "latency_ms": _fnum(latency_ms),
               "status": "error" if error else "ok"}
        records.append((t_ms, 2, json.dumps(obj, separators=(",", ":"))))
    # Stable sort: by time, then kind; within a kind the construction order
    # above is already canonical (node, then channel, then time).
    records.sort(key=lambda r: (r[0], r[1]))
    lines.extend(r[2] for r in records)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _require(obj: dict, field: str, line_no: int):
    if field not in obj:
        raise ParseError(line_no, field, "missing")
    return obj[field]


def json_line(line: str, line_no: int, field: str) -> dict:
    """One line of a JSONL file as an object; `field` names the line's
    role in the ParseError otherwise."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, field, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(line_no, field, "expected a JSON object")
    return obj


def header_line(lines: list[str]) -> dict:
    """The header object that opens a JSONL file; it carries the node list."""
    if not lines:
        raise ParseError(1, "kind", "empty input, expected a header line")
    header = json_line(lines[0], 1, "header")
    if header.get("kind") != "header":
        raise ParseError(1, "kind", "first line must be the header")
    _require(header, "nodes", 1)
    return header


def deserialize_stream(data: bytes) -> TelemetryStream:
    """Decode JSONL bytes back into a validated TelemetryStream."""
    text = data.decode("utf-8")
    lines = text.splitlines()
    nodes = tuple(header_line(lines)["nodes"])
    known = {name: i for i, name in enumerate(nodes)}

    metrics: dict[str, dict[str, list[tuple[int, float]]]] = {}
    logs: dict[str, list[tuple[int, str]]] = {}
    spans: list[tuple] = []  # SPAN_DTYPE rows
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = json_line(raw, idx, "record")
        kind = _require(obj, "kind", idx)
        t_ms = _require(obj, "t_ms", idx)
        if not isinstance(t_ms, int):
            raise ParseError(idx, "t_ms", f"expected integer, got {t_ms!r}")
        node = _require(obj, "node", idx)
        if node not in known:
            raise ParseError(idx, "node", f"unknown node {node!r}")
        if kind == "metric":
            channel = _require(obj, "channel", idx)
            value = _require(obj, "value", idx)
            series = metrics.setdefault(node, {}).setdefault(channel, [])
            if series and t_ms < series[-1][0]:
                raise ParseError(idx, "t_ms",
                                 f"non-monotone timestamp in metric {node}/{channel}")
            series.append((t_ms, float(value)))
        elif kind == "log":
            text_field = _require(obj, "text", idx)
            series = logs.setdefault(node, [])
            if series and t_ms < series[-1][0]:
                raise ParseError(idx, "t_ms", f"non-monotone timestamp in logs of {node}")
            series.append((t_ms, str(text_field)))
        elif kind == "span":
            caller = known.get(_require(obj, "caller", idx))
            callee = known.get(_require(obj, "callee", idx))
            if caller is None or callee is None:
                raise ParseError(idx, "caller", f"unknown span endpoint on line {idx}")
            if spans and t_ms < spans[-1][0]:
                raise ParseError(idx, "t_ms", "non-monotone timestamp in spans")
            status = _require(obj, "status", idx)
            if status not in ("ok", "error"):
                raise ParseError(idx, "status", f"expected 'ok' or 'error', got {status!r}")
            spans.append((t_ms, caller, callee, float(_require(obj, "latency_ms", idx)),
                          status == "error"))
        else:
            raise ParseError(idx, "kind", f"unknown kind {kind!r}")
    stream = TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                             spans=np.array(spans, dtype=SPAN_DTYPE))
    stream.validate()
    return stream


def graph_to_dict(graph: ServiceGraph) -> dict:
    return {"n_nodes": graph.n_nodes, "node_names": list(graph.node_names),
            "edges": [list(e) for e in graph.edges]}


def graph_from_dict(obj: dict) -> ServiceGraph:
    return ServiceGraph(
        n_nodes=obj["n_nodes"],
        node_names=tuple(obj["node_names"]),
        edges=tuple((int(u), int(v)) for u, v in obj["edges"]),
    )


def graph_to_json(graph: ServiceGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2) + "\n"


def faults_to_json(faults: Iterable[FaultSpec]) -> str:
    return json.dumps(
        [{"target_node": f.target_node, "fault_type": f.fault_type.value,
          "start_ms": f.start_ms, "duration_ms": f.duration_ms,
          "severity": f.severity, "propagation_factor": f.propagation_factor}
         for f in faults],
        indent=2) + "\n"


def faults_from_json(text: str) -> list[FaultSpec]:
    return [
        FaultSpec(target_node=o["target_node"], fault_type=FaultType(o["fault_type"]),
                  start_ms=o["start_ms"], duration_ms=o["duration_ms"],
                  severity=o["severity"], propagation_factor=o["propagation_factor"])
        for o in json.loads(text)
    ]


def save_checkpoint(params: dict[str, np.ndarray], path: str | Path) -> None:
    """Write named f64 tensors as a single JSON file (name -> shape + row-major values)."""
    payload = {
        name: {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}
        for name, arr in params.items()
    }
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    payload = json.loads(Path(path).read_text("utf-8"))
    return {
        name: np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload.items()
    }


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """UTF-8 CSV with header row and LF endings; floats use repr for stability."""
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(c) for c in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file and rename so reruns never leave partial outputs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
