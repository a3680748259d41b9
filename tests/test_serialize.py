"""Round-trip and canonicality properties of the file formats, and the
telemetry codec against the one-`json`-call-per-record codec it replaced."""

import contextlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiag import serialize
from microdiag.serialize import (
    ParseError,
    _BLOCK_LINES,
    atomic_write_text,
    deserialize_stream,
    faults_from_json,
    faults_to_json,
    graph_from_dict,
    graph_to_json,
    load_checkpoint,
    round6,
    save_checkpoint,
    serialize_stream,
    write_csv,
)
from microdiag.simulator import PRESET_FAULT_MIX, ScenarioSpec
from microdiag.train_eval import simulate_scenario
from microdiag.types import SPAN_DTYPE, FaultSpec, FaultType, ServiceGraph, TelemetryStream

# values stored at 6-decimal resolution survive the stream format exactly
micro_floats = st.integers(min_value=-(10**9), max_value=10**9).map(lambda n: n / 1e6)
# floats whose text is not a plain decimal: exponent reprs, signed zeros,
# values that round to -0.0, non-finite values, and any double at all
wide_floats = st.one_of(
    micro_floats,
    st.sampled_from((1e-06, 1.5e+16, -0.0, -1e-09, -4e-07, 1e300, 5e-324,
                     float("nan"), float("inf"), float("-inf"))),
    st.floats(),
)
# names and log text that JSON must escape: quotes, backslashes, non-ASCII,
# line and paragraph separators, control characters
wide_names = st.one_of(st.sampled_from(('q"uote', "back\\slash", "n\u00e9\u00fc", "\u2603")),
                       st.text(min_size=1, max_size=5))
wide_texts = st.one_of(
    st.sampled_from(("start", "caf\u00e9 \u65e5\u672c", "a\u2028b\u2029c", "\x00\x1f\x7f\x85\r\n\t",
                     'say "hi" \\ bye')),
    st.text(max_size=12),
)


@st.composite
def streams(draw, wide=False):
    names = st.sampled_from(("a", "b", "c"))
    nodes = ("a", "b", "c")
    if wide:
        nodes = tuple(draw(st.lists(wide_names, min_size=3, max_size=3, unique=True)))
        names = st.sampled_from(nodes)
    channel_names = wide_names if wide else st.sampled_from(("cpu", "mem"))
    floats = wide_floats if wide else micro_floats
    texts = wide_texts if wide else st.sampled_from(("start", "stop req=1", "oom"))
    metrics = {}
    for node in draw(st.sets(names, max_size=3)):
        channels = {}
        for ch in draw(st.sets(channel_names, max_size=2)):
            n = draw(st.integers(0, 5))
            times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))
            channels[ch] = [(t, draw(floats)) for t in times]
        metrics[node] = channels
    logs = {}
    for node in draw(st.sets(names, max_size=3)):
        n = draw(st.integers(0, 4))
        times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))
        logs[node] = [(t, draw(texts)) for t in times]
    n_spans = draw(st.integers(0, 5))
    span_times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n_spans, max_size=n_spans)))
    spans = []
    for t in span_times:
        caller = draw(st.integers(0, 2))
        callee = draw(st.integers(0, 2).filter(lambda x: x != caller))
        latency = draw(floats) if wide else abs(draw(floats))
        spans.append((t, caller, callee, latency, draw(st.booleans())))
    return TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                           spans=np.array(spans, dtype=SPAN_DTYPE))


def reference_serialize(stream: TelemetryStream) -> bytes:
    """The encoder the template writer replaced: one dict and one
    `json.dumps` per record."""
    def fnum(x):
        return round(float(x), 6)

    stream.validate()
    lines = [json.dumps({"kind": "header", "version": 1, "nodes": list(stream.nodes)},
                        separators=(",", ":"))]
    records = []
    for node in stream.nodes:
        for channel in sorted(stream.metrics.get(node, {})):
            for t_ms, value in stream.metrics[node][channel]:
                obj = {"kind": "metric", "t_ms": t_ms, "node": node,
                       "channel": channel, "value": fnum(value)}
                records.append((t_ms, 0, json.dumps(obj, separators=(",", ":"))))
    for node in stream.nodes:
        for t_ms, text in stream.logs.get(node, []):
            obj = {"kind": "log", "t_ms": t_ms, "node": node, "text": text}
            records.append((t_ms, 1, json.dumps(obj, separators=(",", ":"))))
    names = stream.nodes
    for t_ms, caller, callee, latency_ms, error in stream.spans.tolist():
        obj = {"kind": "span", "t_ms": t_ms, "node": names[caller], "caller": names[caller],
               "callee": names[callee], "latency_ms": fnum(latency_ms),
               "status": "error" if error else "ok"}
        records.append((t_ms, 2, json.dumps(obj, separators=(",", ":"))))
    records.sort(key=lambda r: (r[0], r[1]))
    lines.extend(r[2] for r in records)
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_deserialize(data: bytes) -> TelemetryStream:
    """The decoder the block reader replaced: the text decoded whole, split
    with `str.splitlines`, one `json.loads` per line."""
    def require(obj, field, line_no):
        if field not in obj:
            raise ParseError(line_no, field, "missing")
        return obj[field]

    def json_line(line, line_no, field):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, field, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError(line_no, field, "expected a JSON object")
        return obj

    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise ParseError(1, "kind", "empty input, expected a header line")
    header = json_line(lines[0], 1, "header")
    if header.get("kind") != "header":
        raise ParseError(1, "kind", "first line must be the header")
    nodes = tuple(require(header, "nodes", 1))
    known = {name: i for i, name in enumerate(nodes)}
    metrics, logs, spans = {}, {}, []
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = json_line(raw, idx, "record")
        kind = require(obj, "kind", idx)
        t_ms = require(obj, "t_ms", idx)
        if not isinstance(t_ms, int):
            raise ParseError(idx, "t_ms", f"expected integer, got {t_ms!r}")
        node = require(obj, "node", idx)
        if node not in known:
            raise ParseError(idx, "node", f"unknown node {node!r}")
        if kind == "metric":
            channel = require(obj, "channel", idx)
            value = require(obj, "value", idx)
            series = metrics.setdefault(node, {}).setdefault(channel, [])
            if series and t_ms < series[-1][0]:
                raise ParseError(idx, "t_ms", f"non-monotone timestamp in metric {node}/{channel}")
            series.append((t_ms, float(value)))
        elif kind == "log":
            text_field = require(obj, "text", idx)
            series = logs.setdefault(node, [])
            if series and t_ms < series[-1][0]:
                raise ParseError(idx, "t_ms", f"non-monotone timestamp in logs of {node}")
            series.append((t_ms, str(text_field)))
        elif kind == "span":
            caller = known.get(require(obj, "caller", idx))
            callee = known.get(require(obj, "callee", idx))
            if caller is None or callee is None:
                raise ParseError(idx, "caller", f"unknown span endpoint on line {idx}")
            if spans and t_ms < spans[-1][0]:
                raise ParseError(idx, "t_ms", "non-monotone timestamp in spans")
            status = require(obj, "status", idx)
            if status not in ("ok", "error"):
                raise ParseError(idx, "status", f"expected 'ok' or 'error', got {status!r}")
            spans.append((t_ms, caller, callee, float(require(obj, "latency_ms", idx)),
                          status == "error"))
        else:
            raise ParseError(idx, "kind", f"unknown kind {kind!r}")
    stream = TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                             spans=np.array(spans, dtype=SPAN_DTYPE))
    stream.validate()
    return stream


def typed(series):
    """A series with each field's type and exact bits (NaN and -0.0 included)."""
    return [tuple((type(x), x.hex() if isinstance(x, float) else x) for x in rec)
            for rec in series]


def assert_field_equal(got: TelemetryStream, want: TelemetryStream):
    assert got.nodes == want.nodes
    assert list(got.metrics) == list(want.metrics)
    for node, channels in want.metrics.items():
        assert list(got.metrics[node]) == list(channels)
        for ch, series in channels.items():
            assert typed(got.metrics[node][ch]) == typed(series)
    assert list(got.logs) == list(want.logs)
    for node, lines in want.logs.items():
        assert typed(got.logs[node]) == typed(lines)
    assert got.spans.dtype == SPAN_DTYPE and got.spans.shape == want.spans.shape
    assert got.spans.tobytes() == want.spans.tobytes()


@settings(max_examples=40, deadline=None)
@given(streams())
def test_stream_round_trip_exact(stream):
    data = serialize_stream(stream)
    back = deserialize_stream(data)
    assert back.nodes == stream.nodes
    # parsing only materializes nodes that have records, so compare content
    for node, channels in stream.metrics.items():
        for ch, series in channels.items():
            if series:
                assert back.metrics[node][ch] == series
    for node, lines in stream.logs.items():
        if lines:
            assert back.logs[node] == lines
    assert back.spans.dtype == SPAN_DTYPE and np.array_equal(back.spans, stream.spans)
    # canonical form: a second pass is byte-identical
    assert serialize_stream(back) == data


@settings(max_examples=40, deadline=None)
@given(streams())
def test_stream_serialization_canonical(stream):
    assert serialize_stream(stream) == serialize_stream(stream)


@settings(max_examples=80, deadline=None)
@given(st.one_of(streams(), streams(wide=True)))
def test_writer_matches_reference_encoder(stream):
    assert serialize_stream(stream) == reference_serialize(stream)


def test_writer_matches_reference_encoder_on_benchmark_scenario():
    # the benchmark's staged scenario: 12 nodes, 1800 s, 12 faults, seed 0
    spec = ScenarioSpec(n_nodes=12, edge_density=2.0, duration_s=1800, n_faults=12,
                        fault_mix=dict(PRESET_FAULT_MIX))
    _, _, stream = simulate_scenario(spec, 0)
    assert serialize_stream(stream) == reference_serialize(stream)


@settings(max_examples=60, deadline=None)
@given(st.one_of(streams(), streams(wide=True)))
def test_reader_matches_reference_decoder(stream):
    data = serialize_stream(stream)
    assert_field_equal(deserialize_stream(data), reference_deserialize(data))


def test_reader_matches_reference_decoder_over_many_blocks(tiny_sim):
    data = serialize_stream(tiny_sim[3])
    assert data.count(b"\n") > 3 * _BLOCK_LINES
    assert_field_equal(deserialize_stream(data), reference_deserialize(data))


HEADER = b'{"kind":"header","version":1,"nodes":["a","b"]}'


def metric_line(t: int, node: str = "a") -> bytes:
    return b'{"kind":"metric","t_ms":%d,"node":"%s","channel":"cpu","value":0.5}' % (
        t, node.encode())


def file_with(bad: dict[int, bytes], n_lines: int = 2 * _BLOCK_LINES + 100,
              sep: bytes = b"\n") -> bytes:
    """A valid metric file of `n_lines` lines with lines replaced by number."""
    lines = [HEADER] + [metric_line(t) for t in range(n_lines - 1)]
    for line_no, text in bad.items():
        lines[line_no - 1] = text
    return sep.join(lines) + sep


PAST_FIRST_BLOCK = _BLOCK_LINES + 500
TWO_ON_ONE_LINE = metric_line(11) + b"," + metric_line(12)


@pytest.mark.parametrize(
    "bad, sep",
    [
        pytest.param({PAST_FIRST_BLOCK: b"not json"}, b"\n", id="json-past-first-block"),
        pytest.param({PAST_FIRST_BLOCK: b"[1, 2]"}, b"\n", id="array-past-first-block"),
        pytest.param({PAST_FIRST_BLOCK: b'{"kind":"metric","t_ms":1.5,"node":"a"}'}, b"\n",
                     id="float-t_ms-past-first-block"),
        pytest.param({PAST_FIRST_BLOCK: metric_line(0)}, b"\n", id="non-monotone-past-first-block"),
        pytest.param({PAST_FIRST_BLOCK: metric_line(PAST_FIRST_BLOCK, "zz")}, b"\n",
                     id="unknown-node-past-first-block"),
        pytest.param({PAST_FIRST_BLOCK: metric_line(PAST_FIRST_BLOCK, "zz"),
                      PAST_FIRST_BLOCK + 10: b'{"kind":'}, b"\n",
                     id="unknown-node-then-json-error-in-one-block"),
        pytest.param({PAST_FIRST_BLOCK: b'{"kind":',
                      PAST_FIRST_BLOCK + 10: metric_line(PAST_FIRST_BLOCK, "zz")}, b"\n",
                     id="json-error-then-unknown-node-in-one-block"),
        pytest.param({3: b"", 7: b"   ", PAST_FIRST_BLOCK: b"", PAST_FIRST_BLOCK + 1: b"oops"},
                     b"\r\n", id="blank-lines-crlf"),
        pytest.param({2: b"\t", PAST_FIRST_BLOCK: b'{"kind":"log","t_ms":1}'}, b"\r",
                     id="blank-lines-cr"),
        # lines that are not one object each, though the joined block can
        # still hold one value per line
        pytest.param({12: TWO_ON_ONE_LINE}, b"\n", id="two-objects-on-one-line"),
        pytest.param({10: b'{"kind":"log","t_ms":9,"node":"a","text":[{}', 11: b'{}]}',
                      12: TWO_ON_ONE_LINE}, b"\n", id="object-split-inside-an-array"),
        pytest.param({10: b'{"kind":"log","t_ms":9,"node":"a","text":"x', 11: b'{","q":1}',
                      12: TWO_ON_ONE_LINE}, b"\n", id="object-split-inside-a-string"),
        pytest.param({10: b'{"kind":"log","t_ms":9', 11: b'"node":"a","text":"x"}',
                      12: TWO_ON_ONE_LINE}, b"\n", id="object-split-between-members"),
        pytest.param({PAST_FIRST_BLOCK: b"  " + metric_line(0)}, b"\n",
                     id="leading-space-non-monotone"),
        pytest.param({5: b'{"kind":"span","t_ms":9,"node":"a","caller":"a","callee":"b",'
                         b'"latency_ms":1.0}'}, b"\n", id="span-without-status"),
    ],
)
def test_malformed_inputs_match_reference_decoder(bad, sep):
    data = file_with(bad, sep=sep)
    with pytest.raises(ParseError) as want:
        reference_deserialize(data)
    with pytest.raises(ParseError) as got:
        deserialize_stream(data)
    assert (got.value.line_no, got.value.field, str(got.value)) == (
        want.value.line_no, want.value.field, str(want.value))


@pytest.mark.parametrize(
    "bad, sep",
    [
        pytest.param({}, b"\n", id="plain"),
        pytest.param({3: b"", 9: b" \t ", _BLOCK_LINES + 1: b""}, b"\r\n", id="blank-lines-crlf"),
        pytest.param({PAST_FIRST_BLOCK: b"  " + metric_line(PAST_FIRST_BLOCK - 2) + b" "}, b"\n",
                     id="surrounding-spaces"),
        pytest.param({5: b'{"t_ms":4,"value":1,"node":"b","kind":"metric","channel":"[x]"}'},
                     b"\n", id="reordered-fields-and-bracket"),
    ],
)
def test_valid_files_match_reference_decoder(bad, sep):
    data = file_with(bad, sep=sep)
    assert_field_equal(deserialize_stream(data), reference_deserialize(data))


def test_raw_line_separator_inside_a_string_is_read():
    # lines end at \n, \r\n and \r only; str.splitlines also split at U+2028
    data = HEADER + b'\n{"kind":"log","t_ms":0,"node":"a","text":"x\xe2\x80\xa8y\xc2\x85z"}\n'
    with pytest.raises(ParseError):
        reference_deserialize(data)
    assert deserialize_stream(data).logs == {"a": [(0, "x\u2028y\x85z")]}


def test_invalid_utf8_fails_before_any_line():
    data = file_with({3: b"oops"}) + b'{"kind":"log","t_ms":0,"node":"a","text":"\xff"}\n'
    with pytest.raises(UnicodeDecodeError):
        deserialize_stream(data)


def test_stream_values_survive_at_micro_resolution():
    stream = TelemetryStream(
        nodes=("a", "b"),
        metrics={"a": {"cpu": [(0, 12.625), (1000, -3.000001)]}},
        logs={"b": [(10, "hello world")]},
        spans=np.array([(5, 0, 1, 17.25, False)], dtype=SPAN_DTYPE),
    )
    data = serialize_stream(stream)
    assert b'"caller":"a","callee":"b","latency_ms":17.25,"status":"ok"' in data
    back = deserialize_stream(data)
    assert back.metrics["a"]["cpu"] == [(0, 12.625), (1000, -3.000001)]
    assert back.logs["b"] == [(10, "hello world")]
    assert np.array_equal(back.spans, stream.spans)


@pytest.mark.parametrize(
    "data, field",
    [
        (b"", "kind"),
        (b'{"kind":"metric","t_ms":0}', "kind"),
        (b'{"kind":"header","version":1,"nodes":["a"]}\n{"kind":"metric"}', "t_ms"),
        (b'{"kind":"header","version":1,"nodes":["a"]}\nnot json', "record"),
        (b'{"kind":"header","version":1,"nodes":["a"]}\n[1]', "record"),
        (b'{"kind":"header","version":1}', "nodes"),
        (
            b'{"kind":"header","version":1,"nodes":["a"]}\n'
            b'{"kind":"wat","t_ms":0,"node":"a"}',
            "kind",
        ),
        (
            b'{"kind":"header","version":1,"nodes":["a"]}\n'
            b'{"kind":"log","t_ms":0,"node":"zz","text":"x"}',
            "node",
        ),
    ],
)
def test_malformed_inputs_raise_parse_error(data, field):
    with pytest.raises(ParseError) as err:
        deserialize_stream(data)
    assert err.value.field == field
    # the message names the line so failures are actionable
    assert f"line {err.value.line_no}" in str(err.value)


def test_unknown_span_status_rejected():
    data = (
        b'{"kind":"header","version":1,"nodes":["a","b"]}\n'
        b'{"kind":"span","t_ms":0,"node":"a","caller":"a","callee":"b",'
        b'"latency_ms":1.0,"status":"timeout"}'
    )
    with pytest.raises(ParseError, match=r"line 2, field 'status': .*'timeout'") as err:
        deserialize_stream(data)
    assert (err.value.line_no, err.value.field) == (2, "status")


def test_non_monotone_metric_rejected_on_parse():
    data = (
        b'{"kind":"header","version":1,"nodes":["a"]}\n'
        b'{"kind":"metric","t_ms":5,"node":"a","channel":"cpu","value":1.0}\n'
        b'{"kind":"metric","t_ms":3,"node":"a","channel":"cpu","value":1.0}'
    )
    with pytest.raises(ParseError, match="non-monotone"):
        deserialize_stream(data)


SPAN = (b'{"kind":"span","t_ms":%d,"node":"a","caller":"a","callee":"%s","latency_ms":1.0,'
        b'"status":"ok"}')
LOG = b'{"kind":"log","t_ms":%d,"node":"%s","text":"x"}'


@pytest.mark.parametrize(
    "records, line_no, field, detail",
    [
        pytest.param([metric_line(0), metric_line(1, "zz")], 3, "node", "unknown node 'zz'",
                     id="metric-unknown-node"),
        pytest.param([LOG % (0, b"zz")], 2, "node", "unknown node 'zz'", id="log-unknown-node"),
        pytest.param([metric_line(5), metric_line(6, "b"), metric_line(3)], 4, "t_ms",
                     "non-monotone timestamp in metric a/cpu", id="metric-order"),
        pytest.param([LOG % (5, b"a"), LOG % (1, b"b"), LOG % (3, b"a")], 4, "t_ms",
                     "non-monotone timestamp in logs of a", id="log-order"),
        pytest.param([SPAN % (5, b"b"), SPAN % (3, b"b")], 3, "t_ms",
                     "non-monotone timestamp in spans", id="span-order"),
        pytest.param([SPAN % (0, b"b"), SPAN % (1, b"zz")], 3, "caller",
                     "unknown span endpoint on line 3", id="span-endpoint"),
    ],
)
def test_reader_enforces_every_stream_rule(records, line_no, field, detail):
    # `deserialize_stream` runs no `TelemetryStream.validate`: the reader
    # holds each record to its rules and names the line
    with pytest.raises(ParseError) as err:
        deserialize_stream(b"\n".join([HEADER, *records]) + b"\n")
    assert (err.value.line_no, err.value.field) == (line_no, field)
    assert str(err.value) == f"line {line_no}, field {field!r}: {detail}"


@pytest.mark.parametrize(
    "record, field",
    [
        (b'{"kind":"log","t_ms":true,"node":"a","text":"x"}', "t_ms"),
        (b'{"kind":"log","t_ms":0,"node":[],"text":"x"}', "node"),
        (b'{"kind":"metric","t_ms":0,"node":"a","channel":[],"value":1.0}', "channel"),
        (b'{"kind":"metric","t_ms":0,"node":"a","channel":"cpu","value":"2.5"}', "value"),
        (b'{"kind":"metric","t_ms":0,"node":"a","channel":"cpu","value":true}', "value"),
        (b'{"kind":"log","t_ms":0,"node":"a","text":5}', "text"),
        (b'{"kind":"span","t_ms":0,"node":"a","caller":["a"],"callee":"b","latency_ms":1.0,'
         b'"status":"ok"}', "caller"),
        (b'{"kind":"span","t_ms":0,"node":"a","caller":"a","callee":{},"latency_ms":1.0,'
         b'"status":"ok"}', "callee"),
        (b'{"kind":"span","t_ms":0,"node":"a","caller":"a","callee":"b","latency_ms":true,'
         b'"status":"ok"}', "latency_ms"),
    ],
)
def test_reader_rejects_wrong_typed_fields(record, field):
    # a wrong-typed field is a ParseError naming its line and field, never a
    # converted value or a bare TypeError
    data = b"\n".join([HEADER, metric_line(0, "b"), record]) + b"\n"
    with pytest.raises(ParseError) as err:
        deserialize_stream(data)
    assert (err.value.line_no, err.value.field) == (3, field)
    assert str(err.value).startswith(f"line 3, field {field!r}: expected ")


@pytest.mark.parametrize(
    "record, field, detail",
    [
        (b'{"kind":"metric","t_ms":0,"node":"a","channel":"cpu","value":%s}' % (b"9" * 401),
         "value", "integer out of the float range"),
        (b'{"kind":"span","t_ms":0,"node":"a","caller":"a","callee":"b","latency_ms":%s,'
         b'"status":"ok"}' % (b"9" * 401), "latency_ms", "integer out of the float range"),
        (b'{"kind":"span","t_ms":%s,"node":"a","caller":"a","callee":"b","latency_ms":1.0,'
         b'"status":"ok"}' % (b"9" * 30), "t_ms", "integer out of the int64 range"),
        (metric_line(10**30), "t_ms", "integer out of the int64 range"),
        (LOG % (2**63, b"a"), "t_ms", "integer out of the int64 range"),
        (metric_line(-2**63 - 1), "t_ms", "integer out of the int64 range"),
    ],
)
def test_reader_names_out_of_range_numbers(record, field, detail):
    # a number no float or int64 holds is a ParseError, never a bare OverflowError
    data = b"\n".join([HEADER, metric_line(0, "b"), record]) + b"\n"
    with pytest.raises(ParseError) as err:
        deserialize_stream(data)
    assert str(err.value) == f"line 3, field {field!r}: {detail}"


def test_int64_bounds_of_t_ms_are_read():
    data = b"\n".join([HEADER, metric_line(-2**63), metric_line(2**63 - 1)]) + b"\n"
    assert deserialize_stream(data).metrics["a"]["cpu"] == [(-2**63, 0.5), (2**63 - 1, 0.5)]


@contextlib.contextmanager
def small_blocks(records: int = 3, slice_bytes: int = 64, lines: int = 2):
    """The codec's block constants set small, so a short file spans many
    writer blocks, reader slices and parse blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_BLOCK_RECORDS", records)
        mp.setattr(serialize, "_SLICE_BYTES", slice_bytes)
        mp.setattr(serialize, "_BLOCK_LINES", lines)
        yield


@settings(max_examples=60, deadline=None)
@given(st.one_of(streams(), streams(wide=True)))
def test_codec_matches_references_across_small_blocks(stream):
    with small_blocks():
        data = serialize_stream(stream)
        assert data == reference_serialize(stream)
        assert_field_equal(deserialize_stream(data), reference_deserialize(data))


def block_stream(rng: np.random.Generator) -> TelemetryStream:
    """Three nodes with every kind of record, many sharing a timestamp."""
    def times(n):
        return np.sort(rng.integers(0, 40, size=n) * 250).tolist()

    metrics = {node: {ch: list(zip(times(12), rng.normal(size=12).tolist()))
                      for ch in ("cpu", "mem")} for node in ("a", "b", "c")}
    logs = {node: [(t, f"req {t} café") for t in times(9)] for node in ("a", "c")}
    pairs = rng.integers(0, 3, size=(30, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    spans = np.array([(t, a, b, lat, err) for t, (a, b), lat, err in zip(
        times(len(pairs)), pairs.tolist(), rng.lognormal(size=len(pairs)).tolist(),
        (rng.uniform(size=len(pairs)) < 0.2).tolist())], dtype=SPAN_DTYPE)
    return TelemetryStream(nodes=("a", "b", "c"), metrics=metrics, logs=logs, spans=spans)


@pytest.mark.parametrize("case", ["full", "no-logs", "no-spans", "node-without-metrics",
                                  "non-finite"])
def test_writer_matches_reference_across_small_blocks(case):
    stream = block_stream(np.random.default_rng(0))
    if case == "no-logs":
        stream.logs = {}
    elif case == "no-spans":
        stream.spans = stream.spans[:0]
    elif case == "node-without-metrics":
        del stream.metrics["b"]
    elif case == "non-finite":
        series = stream.metrics["a"]["cpu"]
        for k, v in enumerate((float("nan"), float("inf"), float("-inf"), -0.0, -4e-7)):
            series[k] = (series[k][0], v)
        stream.spans["latency_ms"][:3] = (float("nan"), float("inf"), 0.0078125)
    for records in (1, 2, 3, 7, 1000):
        with small_blocks(records=records):
            assert serialize_stream(stream) == reference_serialize(stream)


LONG_LOG = b'{"kind":"log","t_ms":%d,"node":"b","text":"' + b"x" * 300 + b'"}'
UNICODE_LOG = b'{"kind":"log","t_ms":%d,"node":"a","text":"caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac"}'


@pytest.mark.parametrize("seps", [(b"\n",), (b"\r\n",), (b"\r",), (b"\r\n", b"\n", b"\r")],
                         ids=["lf", "crlf", "cr", "mixed"])
def test_reader_matches_reference_at_every_cut(seps):
    # blank lines, a line longer than a slice and non-ASCII text; over all
    # slice sizes, each byte of the file, a b"\r\n" pair's "\r" included,
    # is where some slice's search for its cut starts
    lines = [HEADER, metric_line(0), b"", UNICODE_LOG % 1, metric_line(2), b"  ",
             LONG_LOG % 3, metric_line(4), b"\t", UNICODE_LOG % 5, metric_line(6)]
    data = b"".join(line + seps[k % len(seps)] for k, line in enumerate(lines))
    want = reference_deserialize(data)
    for size in range(1, len(data) + 2):
        with small_blocks(slice_bytes=size):
            assert_field_equal(deserialize_stream(data), want)


@pytest.mark.parametrize(
    "bad",
    [b"not json", b"[1, 2]", metric_line(0), metric_line(50, "zz"), b'{"kind":"log","t_ms":1}',
     b'{"kind":"metric","t_ms":1.5,"node":"a"}'],
    ids=["json", "array", "non-monotone", "unknown-node", "missing-field", "float-t_ms"],
)
def test_malformed_record_in_third_slice_matches_reference(bad):
    data = file_with({11: bad}, n_lines=20)
    with small_blocks(slice_bytes=200):
        sizes = [len(lines) for lines in serialize._slices(data)]
        assert sum(sizes[:2]) < 11 <= sum(sizes[:3])
        with pytest.raises(ParseError) as got:
            deserialize_stream(data)
    with pytest.raises(ParseError) as want:
        reference_deserialize(data)
    assert (got.value.line_no, got.value.field, str(got.value)) == (
        want.value.line_no, want.value.field, str(want.value))


def test_out_of_range_number_in_a_later_slice_names_its_line():
    data = file_with({14: metric_line(2**63)}, n_lines=20)
    with small_blocks(slice_bytes=200):
        sizes = [len(lines) for lines in serialize._slices(data)]
        assert sum(sizes[:3]) < 14 <= sum(sizes[:4])
        with pytest.raises(ParseError, match=r"^line 14, field 't_ms': integer out of the int64"):
            deserialize_stream(data)


def test_invalid_utf8_late_fails_before_any_line_across_small_blocks():
    data = file_with({3: b"oops"}, n_lines=40) + UNICODE_LOG % 99 + b"\xff\n"
    with small_blocks(), pytest.raises(UnicodeDecodeError):
        deserialize_stream(data)


def test_codec_memory_stays_near_the_file_size(tiny_sim):
    # default block sizes: the writer holds one block of record strings
    # beside its output, and the reader one slice of lines beside its input
    stream = tiny_sim[3]
    tracemalloc.start()
    try:
        data = serialize_stream(stream)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = deserialize_stream(data)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(data) > 10e6 and back.nodes == stream.nodes
    assert write_peak <= 1.6 * len(data)
    assert read_peak <= 1.6 * len(data)


def round6_cases(rng: np.random.Generator) -> np.ndarray:
    ties = (2 * np.arange(-50_000, 50_000) + 1) / 128  # x * 1e6 exactly half-way
    near_ties = np.concatenate([np.nextafter(ties[::10], np.inf),
                                np.nextafter(ties[::10], -np.inf)])
    big = 2.0**50 / 1e6 * (1 + np.arange(-2_000, 2_000) * 2.0**-52)
    special = np.array([0.0078125, -0.0078125, 5e-7, -5e-7, 0.0, -0.0, 1e-9, -1e-9, 1e300, -1e300,
                        1.7e308, 5e-324, np.nan, np.inf, -np.inf])
    return np.concatenate([
        rng.normal(size=400_000), rng.normal(50, 20, size=100_000),
        rng.lognormal(3, 1, size=250_000), rng.lognormal(-8, 3, size=100_000),
        ties, near_ties, big, special,
    ])


def test_round6_equals_python_round_bit_for_bit():
    x = round6_cases(np.random.default_rng(0))
    assert x.size > 950_000
    want = np.array([round(v, 6) for v in x.tolist()])
    assert np.array_equal(round6(x).view(np.uint64), want.view(np.uint64))
    assert round6(x.reshape(-1, 5)).shape == (x.size // 5, 5)


def test_graph_round_trip():
    graph = ServiceGraph(3, ("x", "y", "z"), ((0, 1), (1, 2), (2, 0)))
    assert graph_from_dict(json.loads(graph_to_json(graph))) == graph


def test_faults_round_trip():
    faults = [
        FaultSpec(0, FaultType.MEM_LEAK, 1000, 2000, 0.75, 0.0),
        FaultSpec(2, FaultType.NET_DELAY, 5000, 1500, 1.0, 0.6),
    ]
    assert faults_from_json(faults_to_json(faults)) == faults


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.dictionaries(
        st.sampled_from(("w", "enc/w", "head/b")),
        st.tuples(st.integers(1, 3), st.integers(1, 4)),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, shapes, seed):
    rng = np.random.default_rng(seed)
    params = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(params, path)
    # the bytes of one float(v) per element
    assert path.read_text("utf-8") == json.dumps(
        {k: {"shape": list(v.shape), "values": [float(x) for x in v.ravel()]}
         for k, v in params.items()}) + "\n"
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for k in params:
        assert back[k].dtype == np.float64
        assert back[k].shape == params[k].shape
        assert np.array_equal(back[k], params[k])  # repr round-trips f64 exactly


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["name", "value"], [["a", 0.5], ["b", 2]])
    assert path.read_bytes() == b"name,value\na,0.5\nb,2\n"


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "f.txt"
    atomic_write_text(path, "one")
    atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_follows_the_umask(tmp_path, umask, mode):
    import os
    import stat

    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == mode
