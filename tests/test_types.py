"""Construction-time invariants of the domain types."""

import json
import re

import numpy as np
import pytest

from microdiag.serialize import graph_to_json
from microdiag.simulator import scenario_preset
from microdiag.types import (
    Backbone,
    DatasetSplit,
    DiagnosisWindow,
    FaultSpec,
    FaultType,
    NodeSegments,
    RunConfig,
    SERIES_DTYPE,
    SPAN_DTYPE,
    ServiceGraph,
    Task,
    TelemetryStream,
)

from helpers import log_array, series_array

NO_LOGS = log_array([])
NO_SPANS = np.empty(0, SPAN_DTYPE)


def g(n, edges):
    return ServiceGraph(n_nodes=n, node_names=tuple(f"svc-{i}" for i in range(n)), edges=tuple(edges))


def make_window(start=0, end=1000, anomalous=False, root=None, ftype=None, n_nodes=2):
    return DiagnosisWindow(
        start_ms=start, end_ms=end, metric=np.zeros((n_nodes, 1, 1)),
        log=np.zeros((n_nodes, 1, 1)), trace=np.zeros((n_nodes, 1, 1)), alerts=((),) * n_nodes,
        label_anomalous=anomalous, label_root_cause=root, label_fault_type=ftype,
    )


class TestServiceGraph:
    def test_valid_graph(self):
        graph = g(3, [(0, 1), (1, 2)])
        assert graph.callers_of(2) == [1]

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="references a node"):
            g(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            g(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            g(3, [(0, 1), (0, 1), (1, 2)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            g(4, [(0, 1), (2, 3)])

    def test_edgeless_graph_allowed(self):
        graph = g(4, [])
        assert graph.n_nodes == 4 and graph.edges == ()
        assert graph.callers_of(2) == [] and graph.upstream_hops(2) == {}

    def test_edgeless_graph_json_round_trip(self):
        graph = g(3, [])
        assert ServiceGraph.from_dict(json.loads(graph_to_json(graph))) == graph

    def test_single_node_graph_allowed(self):
        assert g(1, []).n_nodes == 1

    def test_upstream_hops(self):
        # chain 0 -> 1 -> 2: both callers are upstream of node 2
        graph = g(3, [(0, 1), (1, 2)])
        assert graph.upstream_hops(2) == {1: 1, 0: 2}
        assert graph.upstream_hops(0) == {}


class TestFaultSpec:
    def test_end_ms_is_start_plus_duration(self):
        f = FaultSpec(0, FaultType.CRASH, 1000, 500, 0.9, 0.0)
        assert f.end_ms == 1500

    @pytest.mark.parametrize("sev", [0.0, -0.1, 1.5, float("nan"), "0.9", True])
    def test_severity_range(self, sev):
        with pytest.raises(ValueError, match="severity"):
            FaultSpec(0, FaultType.CRASH, 0, 1, sev, 0.0)

    def test_duration_positive(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(0, FaultType.CRASH, 0, 0, 0.9, 0.0)

    @pytest.mark.parametrize("factor", [1.2, "0", False])
    def test_propagation_range(self, factor):
        with pytest.raises(ValueError, match="propagation"):
            FaultSpec(0, FaultType.CRASH, 0, 1, 0.9, factor)

    def test_real_fields_take_json_integers(self):
        f = FaultSpec(0, FaultType.CRASH, 0, 1, 1, 0)
        assert (f.severity, f.propagation_factor) == (1, 0)

    @pytest.mark.parametrize(
        "target, start, duration, detail",
        [
            (1.0, 0, 1, "target_node must be an int, got 1.0"),
            (True, 0, 1, "target_node must be an int, got True"),
            (0, 5000.0, 1, "start_ms must be an int, got 5000.0"),
            (0, 0, 1.5, "duration_ms must be an int, got 1.5"),
            (-1, 0, 1, "must be non-negative, got -1 and 0 ms"),
            (0, -5000, 1, "must be non-negative, got 0 and -5000 ms"),
        ],
        ids=["target-float", "target-bool", "start-float", "duration-float",
             "target-negative", "start-negative"],
    )
    def test_target_and_times_are_non_negative_ints(self, target, start, duration, detail):
        with pytest.raises(ValueError, match=re.escape(detail)):
            FaultSpec(target, FaultType.CRASH, start, duration, 0.9, 0.0)

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("n_nodes", None, "missing graph fields: ['n_nodes']"),
            ("n_nodes", "3", "graph field 'n_nodes': expected an integer, got '3'"),
            ("node_names", "abc",
             "graph field 'node_names': expected a list of distinct strings, got 'abc'"),
            ("node_names", ["a", "b", "a"],
             "graph field 'node_names': expected a list of distinct strings"),
            ("edges", [[0, 1.7]],
             "graph field 'edges': expected a list of [caller, callee] integer pairs"),
            ("edges", [[0, True]],
             "graph field 'edges': expected a list of [caller, callee] integer pairs"),
            ("edges", [[0, 1, 2]],
             "graph field 'edges': expected a list of [caller, callee] integer pairs"),
        ],
        ids=["n-missing", "n-string", "names-string", "names-duplicate", "edge-float",
             "edge-true", "edge-triple"],
    )
    def test_graph_from_dict_names_a_bad_field(self, field, value, detail):
        # graph.json and scaler.json's "graph" are read field by field: no
        # name list read letter by letter, no truncated edge, no bare TypeError
        obj = {"n_nodes": 3, "node_names": ["a", "b", "c"], "edges": [[0, 1], [0, 2]]}
        if value is None:
            del obj[field]
        else:
            obj[field] = value
        with pytest.raises(ValueError, match=re.escape(detail)):
            ServiceGraph.from_dict(obj)


class TestTelemetryStream:
    def test_monotone_timestamps_enforced(self):
        stream = TelemetryStream(
            nodes=("a",),
            metrics={"a": {"cpu": series_array([(5, 1.0), (3, 1.0)])}},
            logs=NO_LOGS,
            spans=NO_SPANS,
        )
        with pytest.raises(ValueError, match="non-monotone"):
            stream.validate()

    @pytest.mark.parametrize(
        "series",
        [[(0, 1.0), (1000, 1.0)], np.array([(0, 1.0)]), np.zeros((2, 2), SERIES_DTYPE),
         np.zeros(2, [("t_ms", np.int32), ("value", np.float64)])],
        ids=["tuple-list", "float-array", "2-d", "int32-times"],
    )
    def test_series_must_be_a_1d_series_array(self, series):
        # the writer reads a series' columns, so any other series fails here
        stream = TelemetryStream(nodes=("a",), metrics={"a": {"cpu": series}}, logs=NO_LOGS,
                                 spans=NO_SPANS)
        with pytest.raises(ValueError, match=r"^metric a/cpu is not a 1-D SERIES_DTYPE array$"):
            stream.validate()

    def test_unknown_node_rejected(self):
        stream = TelemetryStream(nodes=("a",), metrics={"b": {}}, logs=NO_LOGS, spans=NO_SPANS)
        with pytest.raises(ValueError, match="unknown node"):
            stream.validate()

    def test_span_must_follow_graph_edges(self):
        graph = g(2, [(0, 1)])
        stream = TelemetryStream(
            nodes=graph.node_names,
            metrics={},
            logs=NO_LOGS,
            spans=np.array([(0, 1, 0, 10.0, False)], dtype=SPAN_DTYPE),
        )
        with pytest.raises(ValueError, match=r"span \(svc-1 -> svc-0\) is not a graph edge"):
            stream.validate(graph)
        stream.spans = np.array([(0, 0, 1, 10.0, False)], dtype=SPAN_DTYPE)
        stream.validate(graph)

    @pytest.mark.parametrize("caller, callee", [(0, 2), (-1, 0)])
    def test_span_node_index_out_of_range_rejected(self, caller, callee):
        stream = TelemetryStream(
            nodes=("a", "b"), metrics={}, logs=NO_LOGS,
            spans=np.array([(0, caller, callee, 1.0, False)], dtype=SPAN_DTYPE),
        )
        with pytest.raises(ValueError, match="span references unknown node"):
            stream.validate()

    def test_non_monotone_span_times_rejected(self):
        stream = TelemetryStream(
            nodes=("a", "b"), metrics={}, logs=NO_LOGS,
            spans=np.array([(5, 0, 1, 1.0, False), (3, 0, 1, 1.0, False)], dtype=SPAN_DTYPE),
        )
        with pytest.raises(ValueError, match="non-monotone timestamps in spans"):
            stream.validate()

    def test_non_monotone_log_times_rejected(self):
        # one global time order, not one per node
        stream = TelemetryStream(nodes=("a", "b"), metrics={}, spans=NO_SPANS,
                                 logs=log_array([(5, 0, "x"), (3, 1, "y")]))
        with pytest.raises(ValueError, match=r"^non-monotone timestamps in logs$"):
            stream.validate()

    @pytest.mark.parametrize("node", [2, -1])
    def test_log_node_index_out_of_range_rejected(self, node):
        stream = TelemetryStream(nodes=("a", "b"), metrics={}, spans=NO_SPANS,
                                 logs=log_array([(0, 0, "x"), (1, node, "y")]))
        with pytest.raises(ValueError, match=rf"^log references unknown node: \(1, {node}, 'y'\)$"):
            stream.validate()

    @pytest.mark.parametrize(
        "logs",
        [{"a": [(0, "x")]}, [(0, 0, "x")], log_array([(0, 0, "x")]).reshape(1, 1),
         np.zeros(1, [("t_ms", np.int64), ("node", np.int64), ("text", "U8")])],
        ids=["per-node-dict", "tuple-list", "2-d", "fixed-width-text"],
    )
    def test_logs_must_be_a_1d_log_array(self, logs):
        stream = TelemetryStream(nodes=("a",), metrics={}, logs=logs, spans=NO_SPANS)
        with pytest.raises(ValueError, match=r"^logs is not a 1-D LOG_DTYPE array$"):
            stream.validate()

    def test_spans_must_be_a_1d_span_array(self):
        stream = TelemetryStream(nodes=("a",), metrics={}, logs=NO_LOGS, spans=[])
        with pytest.raises(ValueError, match=r"^spans is not a 1-D SPAN_DTYPE array$"):
            stream.validate()


class TestDiagnosisWindow:
    def test_labels_present_iff_anomalous(self):
        with pytest.raises(ValueError, match="iff anomalous"):
            make_window(anomalous=True)
        with pytest.raises(ValueError, match="iff anomalous"):
            make_window(anomalous=False, root=1, ftype=0)
        # one stray label on a normal window, or one missing on an anomalous one
        for root, ftype, anomalous in ((5, None, False), (None, 2, False), (1, None, True)):
            with pytest.raises(ValueError, match=re.escape(
                    f"iff anomalous, got {(root, ftype)} with anomalous={anomalous}")):
                make_window(anomalous=anomalous, root=root, ftype=ftype)
        w = make_window(anomalous=True, root=1, ftype=2)
        assert w.n_nodes == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            make_window(start=1000, end=1000)

    def test_segments_are_views_of_each_nodes_rows(self):
        # the read contract of the benchmark's checks: node i's segment
        # holds row i of each modality array, not a copy, and its alert ids
        rng = np.random.default_rng(0)
        w = DiagnosisWindow(start_ms=0, end_ms=4000, metric=rng.normal(size=(3, 2, 4)),
                            log=rng.normal(size=(3, 5, 4)), trace=rng.normal(size=(3, 3, 4)),
                            alerts=((1, 2), (), (3,)), label_anomalous=False)
        assert w.n_nodes == 3 and len(w.segments) == 3
        for ni, seg in enumerate(w.segments):
            assert isinstance(seg, NodeSegments)
            for name in ("metric", "log", "trace"):
                row, array = getattr(seg, name), getattr(w, name)
                assert row.base is array and np.array_equal(row, array[ni])
            assert seg.alerts == w.alerts[ni]


class TestDatasetSplit:
    def test_chronological_holds(self):
        split = DatasetSplit(
            train=[make_window(0, 1000)],
            valid=[make_window(1000, 2000)],
            test=[make_window(2000, 3000)],
        )
        assert len(split.all_windows) == 3

    def test_overlap_across_boundary_rejected(self):
        with pytest.raises(ValueError, match="chronologically"):
            DatasetSplit(
                train=[make_window(0, 2000)],
                valid=[make_window(1000, 3000)],
                test=[make_window(3000, 4000)],
            )

    def test_duplicate_window_rejected(self):
        with pytest.raises(ValueError, match="more than one split"):
            DatasetSplit(
                train=[make_window(0, 1000), make_window(0, 1000)],
                valid=[make_window(1000, 2000)],
                test=[make_window(2000, 3000)],
            )

    def test_empty_middle_split_tolerated_by_check(self):
        split = DatasetSplit(
            train=[make_window(0, 1000)], valid=[], test=[make_window(5000, 6000)]
        )
        split.check_chronological()


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(seed=3, task=Task.CLASSIFY, backbone=Backbone.GCN, d=8)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_patience_zero_allowed(self):
        assert RunConfig(seed=0, patience=0).patience == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 0, "d": 0},
            {"seed": 0, "patience": -1},
            # a float or a bool is not an int, whatever its value
            {"seed": 1.5},
            {"seed": 0, "d": True},
            {"seed": 0, "max_epochs": 3.0},
            {"seed": 0, "hidden": "64"},
            {"seed": 0, "patience": None},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        data = RunConfig(seed=0).to_dict()
        data["mystery"] = 1
        with pytest.raises(ValueError, match=r"unknown run config fields: \['mystery'\]"):
            RunConfig.from_dict(data)

    def test_from_dict_names_the_removed_protocol_fields(self):
        # a run_config.json that still carries the protocol's constants
        data = {**RunConfig(seed=0).to_dict(),
                "dropout_rate": 0.1, "learning_rate": 1e-3, "batch_size": 32}
        with pytest.raises(ValueError, match=r"unknown run config fields: "
                           r"\['batch_size', 'dropout_rate', 'learning_rate'\]"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("missing", ["task", "seed", "patience"])
    def test_from_dict_names_a_missing_field(self, missing):
        data = RunConfig(seed=0).to_dict()
        del data[missing]
        with pytest.raises(ValueError, match=rf"missing run config fields: \['{missing}'\]"):
            RunConfig.from_dict(data)

    def test_from_dict_names_a_field_of_the_wrong_type(self):
        data = {**RunConfig(seed=0).to_dict(), "d": "16"}
        with pytest.raises(ValueError, match="d must be an int, got '16'"):
            RunConfig.from_dict(data)


# one of each JSON record, with an enum, a tuple or a dict in it
RECORDS = [
    pytest.param(g(3, [(0, 1), (1, 2)]), id="graph"),
    pytest.param(FaultSpec(2, FaultType.NET_DELAY, 5000, 1500, 1.0, 0.6), id="fault"),
    pytest.param(scenario_preset("propagated"), id="scenario"),
    pytest.param(RunConfig(seed=3, task=Task.CLASSIFY, backbone=Backbone.GCN, d=8),
                 id="run-config"),
]


class TestJsonRecord:
    @pytest.mark.parametrize("record", RECORDS)
    def test_round_trip_through_json(self, record):
        assert type(record).from_dict(json.loads(json.dumps(record.to_dict()))) == record

    @pytest.mark.parametrize("record", RECORDS)
    @pytest.mark.parametrize("case", ["non-object", "unknown-field", "missing-field"])
    def test_from_dict_names_a_bad_object(self, record, case):
        # every field and no other, whichever record the file holds
        data = record.to_dict()
        name = record.RECORD
        if case == "non-object":
            data, want = [data], f"a {name} must be a JSON object, got list"
        elif case == "unknown-field":
            data["extra"] = 1
            want = f"unknown {name} fields: ['extra']"
        else:
            last = list(data)[-1]
            del data[last]
            want = f"missing {name} fields: ['{last}']"
        with pytest.raises(ValueError, match=re.escape(want)):
            type(record).from_dict(data)
