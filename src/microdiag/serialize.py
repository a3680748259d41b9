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

The writer emits, for each record, the bytes `json.dumps(record_dict,
separators=(",", ":"))` would: one string template per record kind, with
names and log text quoted by `json.dumps` (so non-ASCII is escaped) and each
float written as `json.dumps` writes `round(float(x), 6)` (`float.__repr__`,
or NaN / Infinity / -Infinity). Records are ordered by one stable sort on
(t_ms, kind), kinds in the order metric, log, span.

The reader splits lines at b"\\n", b"\\r\\n" and b"\\r" only
(`bytes.splitlines`), so a raw U+2028, U+0085 or form feed inside a line is
part of that line. It parses `_BLOCK_LINES` lines per `json.loads` call and
reads a block line by line when that parse cannot vouch for one object per
line; a malformed file raises the ParseError of its first bad line either way.
"""

from __future__ import annotations

import json
import math
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
# Lines parsed by one `json.loads` call when reading telemetry.
_BLOCK_LINES = 4096


class ParseError(ValueError):
    """Malformed serialized input; message names the line and field."""

    def __init__(self, line_no: int, field: str, detail: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}, field {field!r}: {detail}")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values) -> list[str]:
    """Each value as `json.dumps` writes `round(float(v), 6)`: the rounding
    keeps files compact and reruns byte-stable."""
    rounded = [round(v, 6) for v in map(float, values)]
    texts = list(map(float.__repr__, rounded))
    if not math.isfinite(sum(rounded)):  # a NaN or an infinity, or a sum past the float range
        texts = [_NON_FINITE.get(t, t) for t in texts]
    return texts


def serialize_stream(stream: TelemetryStream) -> bytes:
    """Encode a telemetry stream as canonical JSONL bytes."""
    stream.validate()
    header = json.dumps(
        {"kind": "header", "version": _HEADER_VERSION, "nodes": list(stream.nodes)},
        separators=(",", ":"),
    )
    quoted = [json.dumps(node) for node in stream.nodes]
    # Records in construction order: metrics by node, channel, time; logs by
    # node, time; spans in array order. One stable sort by (t_ms, kind) then
    # gives the file order.
    records: list[str] = []
    times: list[int] = []
    for node, q in zip(stream.nodes, quoted):
        channels = stream.metrics.get(node, {})
        for channel in sorted(channels):
            if not channels[channel]:
                continue
            ts, values = zip(*channels[channel])
            mid = f',"node":{q},"channel":{json.dumps(channel)},"value":'
            records += [f'{{"kind":"metric","t_ms":{t}{mid}{v}}}'
                        for t, v in zip(ts, _float_texts(values))]
            times += ts
    n_metric = len(records)
    for node, q in zip(stream.nodes, quoted):
        if not stream.logs.get(node):
            continue
        ts, texts = zip(*stream.logs[node])
        records += [f'{{"kind":"log","t_ms":{t},"node":{q},"text":{json.dumps(text)}}}'
                    for t, text in zip(ts, texts)]
        times += ts
    n_log = len(records) - n_metric
    sp = stream.spans
    # one text per (caller, callee) pair that occurs
    pairs, pair_of = np.unique(sp["caller"] * len(quoted) + sp["callee"], return_inverse=True)
    callers, callees = np.divmod(pairs, len(quoted))
    mids = [f',"node":{quoted[a]},"caller":{quoted[a]},"callee":{quoted[b]},"latency_ms":'
            for a, b in zip(callers.tolist(), callees.tolist())]
    status = (',"status":"ok"}', ',"status":"error"}')
    records += [f'{{"kind":"span","t_ms":{t}{mids[p]}{lat}{status[e]}'
                for t, p, lat, e in zip(sp["t_ms"].tolist(), pair_of.tolist(),
                                        _float_texts(sp["latency_ms"].tolist()),
                                        sp["error"].tolist())]
    kind = np.repeat(np.arange(3, dtype=np.int8), (n_metric, n_log, len(sp)))
    order = np.lexsort((kind, np.concatenate((np.array(times, dtype=np.int64), sp["t_ms"]))))
    text = "\n".join([header, *[records[i] for i in order.tolist()], ""])
    del records  # freed before the text is copied to bytes, the writer's peak
    return text.encode("utf-8")


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


def _block_records(block: list[bytes]) -> list | None:
    """The block's records from one `json.loads`, or None when that parse
    cannot vouch for one JSON object per line (the block is then read line by
    line). The lines are joined with "\\n," inside brackets. A JSON string
    cannot hold a raw newline, so no string spans two lines; every line opens
    with "{", so no separator falls inside an object, where a key must follow
    a comma; and with no "[" in the block the only array is the outer one.
    Each line then holds at least one value, and len(block) values means
    exactly one each."""
    body = b"\n,".join(block)
    if b"[" in body or body[:1] != b"{" or body.count(b"\n,{") != len(block) - 1:
        return None
    try:
        objs = json.loads(b"[" + body + b"]")
    except (ValueError, RecursionError):
        return None
    return objs if len(objs) == len(block) else None


def _records(lines: list[bytes]):
    """(line number, object) for each non-blank line after the header, in
    file order; a line that is not a JSON object raises its ParseError when
    reached."""
    for start in range(1, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        objs = _block_records(block)
        if objs is not None:
            yield from enumerate(objs, start + 1)
            continue
        for idx, raw in enumerate(block, start + 1):
            text = raw.decode("utf-8")
            if text.strip():
                yield idx, json_line(text, idx, "record")


def deserialize_stream(data: bytes) -> TelemetryStream:
    """Decode JSONL bytes back into a TelemetryStream. Each record is held
    to the rules of `TelemetryStream.validate` as it is read (known node,
    time order per metric series, per node's logs and over spans, known span
    endpoints), so a broken rule raises the ParseError of its line."""
    if not data.isascii():
        data.decode("utf-8")  # invalid UTF-8 fails before any line is read
    lines = data.splitlines()
    nodes = tuple(header_line([line.decode("utf-8") for line in lines[:1]])["nodes"])
    known = {name: i for i, name in enumerate(nodes)}

    metrics: dict[str, dict[str, list[tuple[int, float]]]] = {}
    logs: dict[str, list[tuple[int, str]]] = {}
    span_cols = span_t, span_caller, span_callee, span_latency, span_error = [], [], [], [], []
    for idx, obj in _records(lines):
        try:
            kind, t_ms = obj["kind"], obj["t_ms"]
            if not isinstance(t_ms, int):
                raise ParseError(idx, "t_ms", f"expected integer, got {t_ms!r}")
            node = obj["node"]
            if node not in known:
                raise ParseError(idx, "node", f"unknown node {node!r}")
            if kind == "metric":
                channel, value = obj["channel"], obj["value"]
                series = metrics.setdefault(node, {}).get(channel)
                if series is None:
                    series = metrics[node][channel] = []
                elif t_ms < series[-1][0]:
                    raise ParseError(idx, "t_ms",
                                     f"non-monotone timestamp in metric {node}/{channel}")
                series.append((t_ms, float(value)))
            elif kind == "log":
                text_field = obj["text"]
                series = logs.setdefault(node, [])
                if series and t_ms < series[-1][0]:
                    raise ParseError(idx, "t_ms", f"non-monotone timestamp in logs of {node}")
                series.append((t_ms, str(text_field)))
            elif kind == "span":
                caller, callee = known.get(obj["caller"]), known.get(obj["callee"])
                if caller is None or callee is None:
                    raise ParseError(idx, "caller", f"unknown span endpoint on line {idx}")
                if span_t and t_ms < span_t[-1]:
                    raise ParseError(idx, "t_ms", "non-monotone timestamp in spans")
                status = obj["status"]
                if status not in ("ok", "error"):
                    raise ParseError(idx, "status",
                                     f"expected 'ok' or 'error', got {status!r}")
                span_t.append(t_ms)
                span_caller.append(caller)
                span_callee.append(callee)
                span_latency.append(float(obj["latency_ms"]))
                span_error.append(status == "error")
            else:
                raise ParseError(idx, "kind", f"unknown kind {kind!r}")
        except KeyError as exc:  # only a field lookup on `obj` raises it
            raise ParseError(idx, exc.args[0], "missing") from None
    spans = np.empty(len(span_t), dtype=SPAN_DTYPE)
    for name, col in zip(SPAN_DTYPE.names, span_cols):
        spans[name] = col
    return TelemetryStream(nodes=nodes, metrics=metrics, logs=logs, spans=spans)


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
        name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
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
