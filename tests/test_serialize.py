"""Round-trip and canonicality properties of the file formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiag.serialize import (
    ParseError,
    atomic_write_text,
    deserialize_stream,
    faults_from_json,
    faults_to_json,
    graph_from_dict,
    graph_to_json,
    load_checkpoint,
    save_checkpoint,
    serialize_stream,
    write_csv,
)
from microdiag.types import SPAN_DTYPE, FaultSpec, FaultType, ServiceGraph, TelemetryStream

# values stored at 6-decimal resolution survive the stream format exactly
micro_floats = st.integers(min_value=-(10**9), max_value=10**9).map(lambda n: n / 1e6)
node_names = st.sampled_from(("a", "b", "c"))


@st.composite
def streams(draw):
    nodes = ("a", "b", "c")
    metrics = {}
    for node in draw(st.sets(node_names, max_size=3)):
        channels = {}
        for ch in draw(st.sets(st.sampled_from(("cpu", "mem")), max_size=2)):
            n = draw(st.integers(0, 5))
            times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))
            channels[ch] = [(t, draw(micro_floats)) for t in times]
        metrics[node] = channels
    logs = {}
    for node in draw(st.sets(node_names, max_size=3)):
        n = draw(st.integers(0, 4))
        times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))
        logs[node] = [(t, draw(st.sampled_from(("start", "stop req=1", "oom"))))
                      for t in times]
    n_spans = draw(st.integers(0, 5))
    span_times = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n_spans, max_size=n_spans)))
    spans = []
    for t in span_times:
        caller = draw(st.integers(0, 2))
        callee = draw(st.integers(0, 2).filter(lambda x: x != caller))
        spans.append((t, caller, callee, abs(draw(micro_floats)), draw(st.booleans())))
    return TelemetryStream(nodes=nodes, metrics=metrics, logs=logs,
                           spans=np.array(spans, dtype=SPAN_DTYPE))


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
