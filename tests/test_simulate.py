"""Simulator oracle tests.

Baseline emission and fault effects draw from separate keyed PRNG streams,
so a run with faults and a run without share every baseline sample. That
turns symptom checks into exact array comparisons instead of statistics.
"""

import math

import numpy as np
import pytest

from microdiag.prng import prng_new
from microdiag.serialize import serialize_stream
from microdiag.simulator import (
    BASELINE_ERROR_RATE,
    BASELINE_RANGES,
    FAULT_SCALE,
    NOISE_SIGMA,
    SPAN_LATENCY_FACTOR,
    ScenarioSpec,
    generate_topology,
    simulate,
)
from microdiag.types import LOG_DTYPE, FaultSpec, FaultType, ServiceGraph, TelemetryStream

SPEC = ScenarioSpec(n_nodes=4, edge_density=1.0, duration_s=600, n_faults=1,
                    window_len_s=30, stride_s=30)


def chain_graph():
    # svc-00 -> svc-01 -> svc-02 -> svc-03
    return ServiceGraph(4, ("svc-00", "svc-01", "svc-02", "svc-03"),
                        ((0, 1), (1, 2), (2, 3)))


def run(faults, seed=11, spec=SPEC, graph=None):
    graph = graph or chain_graph()
    return simulate(graph, faults, spec, prng_new(seed).child("simulate"))


def series(stream: TelemetryStream, node: str, channel: str) -> np.ndarray:
    return stream.metrics[node][channel]["value"]


def node_logs(stream: TelemetryStream, node: str) -> list[tuple[int, str]]:
    """One node's (t_ms, text) log lines, in stream order."""
    lines = stream.logs[stream.logs["node"] == stream.nodes.index(node)]
    return list(zip(lines["t_ms"].tolist(), lines["text"].tolist()))


def in_fault(stream: TelemetryStream, f: FaultSpec, column: str, node: int) -> np.ndarray:
    """Spans inside the fault interval whose caller or callee column is node."""
    sp = stream.spans
    return sp[(sp[column] == node) & (f.start_ms <= sp["t_ms"]) & (sp["t_ms"] < f.end_ms)]


def fault(ftype, target=1, start_ms=120_000, duration_ms=60_000, severity=0.9,
          factor=0.0):
    return FaultSpec(target, ftype, start_ms, duration_ms, severity, factor)


class TestBaseline:
    def test_deterministic_bytes(self):
        assert serialize_stream(run([])) == serialize_stream(run([]))
        assert serialize_stream(run([])) != serialize_stream(run([], seed=12))

    def test_levels_and_noise(self):
        stream = run([])
        for node in stream.nodes:
            for ch, (lo, hi) in BASELINE_RANGES.items():
                vals = series(stream, node, ch)
                assert len(vals) == SPEC.duration_s
                assert lo - 1.0 < vals.mean() < hi + 1.0
                assert abs(vals.std() - NOISE_SIGMA) < 0.5

    def test_span_error_rate_near_baseline(self):
        stream = run([])
        errs = stream.spans["error"].mean()
        assert errs < 4 * BASELINE_ERROR_RATE

    def test_spans_cover_every_edge(self):
        stream = run([])
        pairs = zip(stream.spans["caller"].tolist(), stream.spans["callee"].tolist())
        assert {(stream.nodes[u], stream.nodes[v]) for u, v in pairs} == {
            ("svc-00", "svc-01"), ("svc-01", "svc-02"), ("svc-02", "svc-03")
        }

    def test_logs_are_one_array_in_time_then_node_order(self):
        logs = run([fault(FaultType.CPU_STRESS)]).logs
        assert logs.dtype == LOG_DTYPE and logs.ndim == 1 and len(logs) > 0
        keys = list(zip(logs["t_ms"].tolist(), logs["node"].tolist()))
        assert keys == sorted(keys)


class TestNullFault:
    def test_vanishing_severity_is_byte_identical_to_no_fault(self):
        # at severity 1e-300 every shift vanishes below one ulp, and fault
        # draws come from their own stream, so nothing else may move
        for ftype in FaultType:
            null = fault(ftype, severity=1e-300)
            assert serialize_stream(run([null])) == serialize_stream(run([]))


class TestLocalSymptoms:
    def test_cpu_stress_shift_is_exact_and_isolated(self):
        f = fault(FaultType.CPU_STRESS, target=1, severity=0.8)
        base, hot = run([]), run([f])
        secs = slice(120, 180)
        delta = series(hot, "svc-01", "cpu") - series(base, "svc-01", "cpu")
        assert np.all(np.abs(delta[secs] - FAULT_SCALE * 0.8) <= 2e-6)
        assert np.all(delta[: secs.start] == 0) and np.all(delta[secs.stop:] == 0)
        # everything else in the system is untouched
        for node in hot.nodes:
            for ch in ("mem", "latency", "qps"):
                assert np.array_equal(series(hot, node, ch), series(base, node, ch))
            if node != "svc-01":
                assert np.array_equal(series(hot, node, "cpu"), series(base, node, "cpu"))
        assert np.array_equal(base.spans, hot.spans)

    def test_mem_leak_ramps_linearly(self):
        f = fault(FaultType.MEM_LEAK, target=2, severity=1.0)
        base, hot = run([]), run([f])
        delta = series(hot, "svc-02", "mem") - series(base, "svc-02", "mem")
        for sec in range(120, 180):
            frac = (sec * 1000 - f.start_ms) / f.duration_ms
            assert abs(delta[sec] - FAULT_SCALE * frac) <= 2e-6
        assert np.all(delta[:120] == 0) and np.all(delta[180:] == 0)

    def test_net_delay_multiplies_outgoing_span_latency(self):
        f = fault(FaultType.NET_DELAY, target=1, severity=0.9)
        base, hot = run([]), run([f])
        # latency metric shift on the target
        delta = series(hot, "svc-01", "latency") - series(base, "svc-01", "latency")
        assert np.all(np.abs(delta[120:180] - FAULT_SCALE * 0.9) <= 2e-6)
        # span-by-span ratio: x(1 + 5s) on target's outgoing spans inside the
        # interval, untouched everywhere else (no spans are added or dropped)
        assert len(base.spans) == len(hot.spans)
        assert np.array_equal(base.spans["t_ms"], hot.spans["t_ms"])
        ratio = 1.0 + SPAN_LATENCY_FACTOR * 0.9
        b, h = base.spans["latency_ms"], hot.spans["latency_ms"]
        inside = (f.start_ms <= base.spans["t_ms"]) & (base.spans["t_ms"] < f.end_ms)
        slowed = inside & (base.spans["caller"] == 1)
        assert slowed.any() and np.all(np.abs(h[slowed] / b[slowed] - ratio) < 1e-4)
        assert np.array_equal(h[~slowed], b[~slowed])
        # incoming latency (svc-00 -> svc-01) must be unaffected: the client
        # of the slow service is not slow itself in the local regime
        incoming = inside & (base.spans["callee"] == 1)
        assert incoming.any() and np.array_equal(h[incoming], b[incoming])

    def test_crash_cuts_qps_drops_outgoing_flips_incoming(self):
        f = fault(FaultType.CRASH, target=1, severity=0.9)
        base, hot = run([]), run([f])
        qps_ratio = series(hot, "svc-01", "qps")[120:180] / series(base, "svc-01", "qps")[120:180]
        assert np.all(np.abs(qps_ratio - (1.0 - 0.9)) < 1e-4)

        out_b = in_fault(base, f, "caller", 1)
        out_h = in_fault(hot, f, "caller", 1)
        assert len(out_b) >= 100  # 5 spans/s over 60 s
        drop_frac = 1.0 - len(out_h) / len(out_b)
        assert drop_frac > 0.6  # expectation 0.9

        in_h = in_fault(hot, f, "callee", 1)
        err_frac = in_h["error"].mean()
        assert err_frac > 0.6  # expectation ~0.9 vs 0.005 baseline
        # spans outside the interval and on other edges are untouched
        far_b = base.spans[base.spans["caller"] == 2]
        far_h = hot.spans[hot.spans["caller"] == 2]
        assert np.array_equal(far_b, far_h)

    def test_fault_log_lines_appear_only_on_target(self):
        f = fault(FaultType.CRASH, target=1, severity=1.0)
        base, hot = run([]), run([f])
        extra = len(node_logs(hot, "svc-01")) - len(node_logs(base, "svc-01"))
        assert extra > 0
        added = set(node_logs(hot, "svc-01")) - set(node_logs(base, "svc-01"))
        assert all("exited with code" in text for _, text in added)
        assert all(f.start_ms <= t < f.end_ms for t, _ in added)
        for node in ("svc-00", "svc-02", "svc-03"):
            assert node_logs(hot, node) == node_logs(base, node)


class TestPropagation:
    def test_upstream_attenuation_is_exact(self):
        # chain 0 -> 1 -> 2 -> 3, fault on 2: victims are 1 (hop 1), 0 (hop 2)
        s, factor = 0.8, 0.5
        f = fault(FaultType.NET_DELAY, target=2, severity=s, factor=factor)
        base, hot = run([]), run([f])
        for node, hops in (("svc-01", 1), ("svc-00", 2)):
            delta = series(hot, node, "latency") - series(base, node, "latency")
            expect = FAULT_SCALE * s * factor**hops
            assert np.all(np.abs(delta[120:180] - expect) <= 2e-6)
        # downstream neighbor is NOT a victim
        assert np.array_equal(series(hot, "svc-03", "latency"),
                              series(base, "svc-03", "latency"))

    def test_victim_span_multiplier(self):
        s, factor = 0.8, 0.5
        f = fault(FaultType.CRASH, target=2, severity=s, factor=factor)
        base, hot = run([]), run([f])
        ratio = 1.0 + SPAN_LATENCY_FACTOR * s * factor

        # the crash drops only svc-02's outgoing spans, and span sorting is
        # stable, so svc-01's spans line up positionally
        out_b, out_h = in_fault(base, f, "caller", 1), in_fault(hot, f, "caller", 1)
        assert len(out_b) == len(out_h) >= 50
        assert np.array_equal(out_h["t_ms"], out_b["t_ms"])
        assert np.all(np.abs(out_h["latency_ms"] / out_b["latency_ms"] - ratio) < 1e-4)

    def test_zero_factor_keeps_victims_silent(self):
        f = fault(FaultType.NET_DELAY, target=2, severity=0.9, factor=0.0)
        base, hot = run([]), run([f])
        for node in ("svc-00", "svc-01", "svc-03"):
            for ch in ("cpu", "mem", "latency", "qps"):
                assert np.array_equal(series(hot, node, ch), series(base, node, ch))
            assert node_logs(hot, node) == node_logs(base, node)


class TestValidation:
    def test_fault_past_duration_rejected(self):
        f = fault(FaultType.CRASH, start_ms=580_000, duration_ms=60_000)
        with pytest.raises(ValueError, match="extends past"):
            run([f])

    def test_fault_target_outside_graph_rejected(self):
        f = fault(FaultType.CRASH, target=9)
        with pytest.raises(ValueError, match="outside graph"):
            run([f])

    def test_output_stream_validates_against_graph(self):
        stream = run([fault(FaultType.CRASH)])
        stream.validate(chain_graph())
