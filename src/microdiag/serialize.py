"""File formats: telemetry JSONL, graph/fault JSON, checkpoints, CSV reports.

Telemetry JSONL is one object per line. The first line is a header carrying
the node list; every following line is a record:

    {"kind": "metric", "t_ms": int, "node": str, "channel": str, "value": float}
    {"kind": "log",    "t_ms": int, "node": str, "text": str}
    {"kind": "span",   "t_ms": int, "node": str, "caller": str, "callee": str,
     "latency_ms": float, "status": "ok" | "error"}

For spans, "node" is the reporting (caller) side; in memory a span is a
`SPAN_DTYPE` record with node indices and an `error` flag, and a metric
series one `SERIES_DTYPE` array per node and channel. Serialization is
canonical: identical streams always produce identical bytes. All CSV reports
are UTF-8 with a header row and LF line endings.

The writer emits, for each record, the bytes `json.dumps(record_dict,
separators=(",", ":"))` would: one string template per record kind, with
names and log text quoted by `json.dumps` (so non-ASCII is escaped) and each
float written as `json.dumps` writes `round(float(x), 6)` (`float.__repr__`,
or NaN / Infinity / -Infinity). Records are numeric columns per kind, ordered
by one stable sort on (t_ms, kind), kinds in the order metric, log, span, and
formatted `_BLOCK_RECORDS` at a time into one `io.BytesIO`, so one block of
record strings is alive at a time. The writer still returns bytes (`getvalue`
hands the buffer over uncopied): the CLI writes them atomically and the
benchmark's tracer takes their length.

The reader splits lines at b"\\n", b"\\r\\n" and b"\\r" only
(`bytes.splitlines`), so a raw U+2028, U+0085 or form feed inside a line is
part of that line. It splits slices of about `_SLICE_BYTES`, each cut just
after a b"\\n", so no line or b"\\r\\n" spans two slices and the file's line
list is never built. It parses `_BLOCK_LINES` lines per `json.loads` call and
reads a block line by line when that parse cannot vouch for one object per
line; a malformed file raises the ParseError of its first bad line either way.
Metric samples and spans go into typed columns (`array`), which become the
stream's arrays once the file is read, so neither keeps a Python object per
record.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from array import array
from pathlib import Path
from typing import Iterable

import numpy as np

from .types import SERIES_DTYPE, SPAN_DTYPE, FaultSpec, FaultType, ServiceGraph, TelemetryStream

__all__ = [
    "ParseError",
    "round6",
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
# Telemetry records formatted per block; bytes per read slice; lines per `json.loads`.
_BLOCK_RECORDS = 2048
_SLICE_BYTES = 1 << 20
_BLOCK_LINES = 4096


class ParseError(ValueError):
    """Malformed serialized input; message names the line and field."""

    def __init__(self, line_no: int, field: str, detail: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}, field {field!r}: {detail}")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def round6(values) -> np.ndarray:
    """`round(float(x), 6)` of every element, bit for bit: `rint(x * 1e6) / 1e6` where the
    product is clear of a half-integer by more than its rounding error, else Python's `round`."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e6
        whole = np.rint(scaled)
        tie_gap = 0.5 - np.abs(scaled - whole)  # exact wherever it is below 0.25
        exact = (tie_gap > np.abs(scaled) * 2.0**-52) & (np.abs(scaled) < 2.0**50)
    out = whole / 1e6
    out[~exact] = [round(v, 6) for v in x[~exact].tolist()]
    return out


def _float_texts(values) -> list[str]:
    """Each value as `json.dumps` writes `round(float(v), 6)`: the rounding
    keeps files compact and reruns byte-stable."""
    rounded = round6(values)
    texts = list(map(float.__repr__, rounded.tolist()))
    if not np.isfinite(rounded).all():
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
    # Columns in construction order: metrics by node, channel, time (a mid-text
    # per series); logs by node, time; spans in array order (a mid-text per
    # pair). One stable sort by (t_ms, kind) then gives the file order.
    mids, sizes, times, values = [], [], [], [np.empty(0)]
    for node, q in zip(stream.nodes, quoted):
        channels = stream.metrics.get(node, {})
        for channel in sorted(channels):  # an empty series adds a mid-text and no record
            samples = channels[channel]
            mids.append(f',"node":{q},"channel":{json.dumps(channel)},"value":')
            sizes.append(len(samples))
            times.append(samples["t_ms"])
            values.append(samples["value"])
    log_times, log_node, log_text = [], [], []
    for i, node in enumerate(stream.nodes):
        if stream.logs.get(node):
            ts, texts = zip(*stream.logs[node])
            log_node += [i] * len(ts)
            log_text += texts
            log_times += ts
    series, values = np.repeat(np.arange(len(mids)), sizes), np.concatenate(values)
    sp = stream.spans
    pairs, pair_of = np.unique(sp["caller"] * len(quoted) + sp["callee"], return_inverse=True)
    callers, callees = np.divmod(pairs, len(quoted))
    span_mids = [f',"node":{quoted[a]},"caller":{quoted[a]},"callee":{quoted[b]},"latency_ms":'
                 for a, b in zip(callers.tolist(), callees.tolist())]
    status = (',"status":"ok"}', ',"status":"error"}')
    first = (0, len(values), len(values) + len(log_text))  # each kind's first record
    kind = np.repeat(np.arange(3, dtype=np.int8), (len(values), len(log_text), len(sp)))
    times = np.concatenate((*times, np.array(log_times, dtype=np.int64), sp["t_ms"]))
    order = np.lexsort((kind, times))
    out = io.BytesIO()
    out.write(header.encode("utf-8") + b"\n")
    for start in range(0, len(order), _BLOCK_RECORDS):
        block = order[start:start + _BLOCK_RECORDS]
        k, t = kind[block], times[block]
        mi, li, si = (block[k == n] - first[n] for n in range(3))  # each kind's own indices
        lines = np.empty(len(block), dtype=object)
        lines[k == 0] = [f'{{"kind":"metric","t_ms":{a}{mids[b]}{v}}}' for a, b, v
                         in zip(t[k == 0].tolist(), series[mi].tolist(), _float_texts(values[mi]))]
        lines[k == 1] = [f'{{"kind":"log","t_ms":{a},"node":{quoted[log_node[j]]},'
                         f'"text":{json.dumps(log_text[j])}}}'
                         for a, j in zip(t[k == 1].tolist(), li.tolist())]
        lines[k == 2] = [f'{{"kind":"span","t_ms":{a}{span_mids[p]}{lat}{status[e]}'
                         for a, p, lat, e in zip(t[k == 2].tolist(), pair_of[si].tolist(),
                                                 _float_texts(sp["latency_ms"][si]),
                                                 sp["error"][si].tolist())]
        out.write(("\n".join(lines.tolist()) + "\n").encode("utf-8"))
    return out.getvalue()


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
    except ValueError:  # the one other failure of `json.loads` on a str
        raise ParseError(line_no, field, "integer longer than Python's digit limit") from None
    except RecursionError:
        raise ParseError(line_no, field, "nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, field, "expected a JSON object")
    return obj


def header_line(data: bytes) -> dict:
    """The header object on the first line of JSONL bytes; it carries the
    node list. Invalid UTF-8 anywhere in `data` fails here, before any record
    is read."""
    if not data.isascii():
        data.decode("utf-8")
    first = next(_slices(data), [])[:1]
    if not first:
        raise ParseError(1, "kind", "empty input, expected a header line")
    header = json_line(first[0].decode("utf-8"), 1, "header")
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


def _slices(data: bytes):
    """`data.splitlines()`, one list per slice of about `_SLICE_BYTES` cut after a b"\\n"."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _SLICE_BYTES - 1) + 1 or len(data)
        yield data[start:end].splitlines()
        start = end


def _records(data: bytes):
    """(line number, object) for each non-blank line after the header, in
    file order; a line that is not a JSON object raises its ParseError when
    reached."""
    line_no = 1  # of the slice's first line
    for lines in _slices(data):
        for start in range(line_no == 1, len(lines), _BLOCK_LINES):  # from 1: past the header
            block = lines[start:start + _BLOCK_LINES]
            objs = _block_records(block)
            if objs is not None:
                yield from enumerate(objs, line_no + start)
                continue
            for idx, raw in enumerate(block, line_no + start):
                text = raw.decode("utf-8")
                if text.strip():
                    yield idx, json_line(text, idx, "record")
        line_no += len(lines)


def _number(value, field: str, line_no: int) -> float:
    """A number field as a float; a boolean is no number."""
    if type(value) is not float and type(value) is not int:
        raise ParseError(line_no, field, f"expected number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(line_no, field, "integer out of the float range") from None


def deserialize_stream(data: bytes) -> TelemetryStream:
    """Decode JSONL bytes back into a TelemetryStream. Each record is held
    to the rules of `TelemetryStream.validate` as it is read (known node,
    time order per metric series, per node's logs and over spans, known span
    endpoints), and each field to its JSON type and range (an int64 `t_ms`,
    string names and text, values and latencies that a float holds; a boolean
    is no number), so a broken rule raises the ParseError of its line."""
    nodes = tuple(header_line(data)["nodes"])
    known = {name: i for i, name in enumerate(nodes)}

    metrics: dict[str, dict[str, tuple[array, array]]] = {}
    logs: dict[str, list[tuple[int, str]]] = {}
    # int64 and float64 columns: no Python object per metric sample or span is kept
    span_cols = span_t, span_caller, span_callee, span_latency, span_error = (
        array("q"), array("q"), array("q"), array("d"), array("b"))
    for idx, obj in _records(data):
        try:
            # `type(x) is` checks: a JSON true is no integer, "2.5" no number
            kind, t_ms = obj["kind"], obj["t_ms"]
            if type(t_ms) is not int:
                raise ParseError(idx, "t_ms", f"expected integer, got {t_ms!r}")
            if not -2**63 <= t_ms < 2**63:
                raise ParseError(idx, "t_ms", "integer out of the int64 range")
            node = obj["node"]
            if type(node) is not str:
                raise ParseError(idx, "node", f"expected string, got {node!r}")
            if node not in known:
                raise ParseError(idx, "node", f"unknown node {node!r}")
            if kind == "metric":
                channel, value = obj["channel"], obj["value"]
                if type(channel) is not str:
                    raise ParseError(idx, "channel", f"expected string, got {channel!r}")
                value = _number(value, "value", idx)
                series = metrics.setdefault(node, {}).get(channel)
                if series is None:
                    series = metrics[node][channel] = (array("q"), array("d"))
                elif t_ms < series[0][-1]:
                    raise ParseError(idx, "t_ms",
                                     f"non-monotone timestamp in metric {node}/{channel}")
                series[0].append(t_ms)
                series[1].append(value)
            elif kind == "log":
                text_field = obj["text"]
                if type(text_field) is not str:
                    raise ParseError(idx, "text", f"expected string, got {text_field!r}")
                series = logs.setdefault(node, [])
                if series and t_ms < series[-1][0]:
                    raise ParseError(idx, "t_ms", f"non-monotone timestamp in logs of {node}")
                series.append((t_ms, text_field))
            elif kind == "span":
                caller, callee = obj["caller"], obj["callee"]
                if type(caller) is not str or type(callee) is not str:
                    name, end = ("caller", caller) if type(caller) is not str else ("callee", callee)
                    raise ParseError(idx, name, f"expected string, got {end!r}")
                caller, callee = known.get(caller), known.get(callee)
                if caller is None or callee is None:
                    raise ParseError(idx, "caller", f"unknown span endpoint on line {idx}")
                if span_t and t_ms < span_t[-1]:
                    raise ParseError(idx, "t_ms", "non-monotone timestamp in spans")
                status = obj["status"]
                if status not in ("ok", "error"):
                    raise ParseError(idx, "status",
                                     f"expected 'ok' or 'error', got {status!r}")
                latency = _number(obj["latency_ms"], "latency_ms", idx)
                span_t.append(t_ms)
                span_caller.append(caller)
                span_callee.append(callee)
                span_latency.append(latency)
                span_error.append(status == "error")
            else:
                raise ParseError(idx, "kind", f"unknown kind {kind!r}")
        except KeyError as exc:  # only a field lookup on `obj` raises it
            raise ParseError(idx, exc.args[0], "missing") from None
    for channels in metrics.values():  # one series' columns and array alive at a time
        for channel, cols in channels.items():
            channels[channel] = _structured(SERIES_DTYPE, cols)
    return TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                           spans=_structured(SPAN_DTYPE, span_cols))


def _structured(dtype: np.dtype, cols) -> np.ndarray:
    """One array of `dtype` whose fields, in order, are the equal-length `cols`."""
    out = np.empty(len(cols[0]), dtype=dtype)
    for name, col in zip(dtype.names, cols):
        out[name] = col
    return out


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
