"""Synthetic microservice telemetry generation.

A scenario describes a service topology and a fault schedule; `simulate`
renders them into a telemetry stream of 1 Hz metrics, timestamped log lines,
and inter-service spans. Baseline emission and fault effects consume separate
child PRNG streams, so the same seed with and without a fault produces
identical baseline draws; a fault only adds or modifies records.

Fault symptom model (all effects scale continuously with severity s):

* CPU_STRESS   target cpu channel shifted by +FAULT_SCALE*s, throttle logs.
* MEM_LEAK     target mem channel ramps linearly from 0 to +FAULT_SCALE*s
               over the interval, allocation-failure logs.
* NET_DELAY    target outgoing span latency multiplied by (1 + 5*s), latency
               channel shifted by +FAULT_SCALE*s, timeout logs.
* CRASH        target qps channel multiplied by (1 - s), outgoing spans
               dropped with probability s, incoming spans flip to error
               status with probability s, exit logs.

When propagation_factor f > 0, every upstream caller at hop distance k from
the target additionally receives the latency/error victim package at stress
s * f**k: latency channel shift, outgoing span multiplier, and timeout logs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .prng import Prng
from .serialize import round6
from .types import (FAULT_TYPES, LOG_DTYPE, SERIES_DTYPE, SPAN_DTYPE, FaultSpec, FaultType,
                    JsonRecord, ServiceGraph, TelemetryStream, is_real)

__all__ = [
    "ScenarioSpec",
    "scenario_preset",
    "PRESETS",
    "generate_topology",
    "schedule_faults",
    "simulate",
    "METRIC_CHANNELS",
    "FAULT_SCALE",
    "NOISE_SIGMA",
]

METRIC_CHANNELS = ("cpu", "mem", "latency", "qps")
BASELINE_RANGES = {
    "cpu": (10.0, 30.0),
    "mem": (30.0, 60.0),
    "latency": (20.0, 80.0),
    "qps": (50.0, 150.0),
}
NOISE_SIGMA = 2.0
FAULT_SCALE = 40.0          # peak metric shift at severity 1, i.e. 20 sigma
SPAN_LATENCY_FACTOR = 5.0   # outgoing latency multiplier is 1 + 5*s
SPAN_RATE = 5.0             # spans per edge per second
SPAN_BASE_RANGE = (5.0, 50.0)
SPAN_SIGMA_LOG = 0.25
BASELINE_ERROR_RATE = 0.005
LOG_RATE = 0.3              # benign lines per node per second
FAULT_LOG_RATE = 2.0        # fault lines per second at severity 1

# Benign line templates; {num}/{id}/{ip} slots are filled per line. The pool
# is shared across nodes so mined template ids are comparable between nodes.
BENIGN_TEMPLATES = (
    "request {id} completed in {num} ms",
    "GET /api/v1/orders/{id} returned 200",
    "user {id} authenticated from {ip}",
    "cache hit ratio {num} percent",
    "connection pool size {num} of {num}",
    "scheduled job {id} finished successfully",
    "health check passed in {num} ms",
    "published event {id} to topic orders",
    "consumed message offset {num} from partition {num}",
    "db query took {num} ms rows {num}",
    "gc pause {num} ms heap {num} mb",
    "tls handshake with {ip} completed",
    "retry budget remaining {num} for upstream",
    "config reloaded version {num}",
    "session {id} expired after {num} s",
    "thread pool active {num} queued {num}",
    "rate limiter allowed {num} denied {num}",
    "dns lookup for service resolved to {ip}",
    "circuit breaker state closed failures {num}",
    "wrote {num} bytes to audit log",
)

FAULT_LOG_TEMPLATES = {
    FaultType.CPU_STRESS: "cpu throttling detected usage {num} percent",
    FaultType.MEM_LEAK: "memory allocation failed at {num} bytes rss {num} mb",
    FaultType.NET_DELAY: "rpc call to {ip} timed out after {num} ms",
    FaultType.CRASH: "service exited with code {num} restarting worker",
}
# Victims of a propagated fault complain about their slow dependency.
VICTIM_LOG_TEMPLATE = FAULT_LOG_TEMPLATES[FaultType.NET_DELAY]


@dataclass(frozen=True)
class ScenarioSpec(JsonRecord):
    """Everything needed to regenerate a dataset from a seed, and the one
    source of its window length and stride (`window_ms`, `stride_ms`), which
    also space and size its faults. `propagation_factor` 0 means symptoms on
    the fault target only. `fault_mix` maps fault types, or their names, to
    real weights."""

    RECORD = "scenario"

    n_nodes: int = 12
    edge_density: float = 2.0
    duration_s: int = 10800
    n_faults: int = 70
    fault_mix: dict = field(default_factory=lambda: {t: 1.0 for t in FAULT_TYPES})
    propagation_factor: float = 0.0
    window_len_s: int = 30
    stride_s: int = 30

    def __post_init__(self):
        self.check_types()
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not self.edge_density > 0:  # NaN included
            raise ValueError(f"edge_density must be positive, got {self.edge_density}")
        if self.window_len_s <= 0 or self.stride_s <= 0:
            raise ValueError("window_len_s and stride_s must be positive")
        if self.duration_s < 10 * self.window_len_s:
            raise ValueError(
                f"duration_s={self.duration_s} too short: need at least "
                f"10 windows of {self.window_len_s} s"
            )
        if self.n_faults < 1:
            raise ValueError("n_faults must be >= 1")
        if not (0.0 <= self.propagation_factor <= 1.0):
            raise ValueError("propagation_factor must be in [0, 1]")
        if not (isinstance(self.fault_mix, dict) and all(map(is_real, self.fault_mix.values()))):
            raise ValueError(
                f"fault_mix must map fault types to real numbers, got {self.fault_mix!r}")
        mix = {FaultType(k): float(v) for k, v in self.fault_mix.items()}
        if not mix or any(v < 0 for v in mix.values()) or sum(mix.values()) <= 0:
            raise ValueError("fault_mix weights must be non-negative with a positive sum")
        object.__setattr__(self, "fault_mix", mix)

    @property
    def window_ms(self) -> int:
        return self.window_len_s * 1000

    @property
    def stride_ms(self) -> int:
        return self.stride_s * 1000


# Both presets weight the mix toward network and crash faults, echoing the
# skew of production incident taxonomies; resource faults stay represented.
PRESET_FAULT_MIX = {
    FaultType.CPU_STRESS: 0.15,
    FaultType.MEM_LEAK: 0.15,
    FaultType.NET_DELAY: 0.40,
    FaultType.CRASH: 0.30,
}


# Named scenarios: `local` keeps every symptom on the fault target;
# `propagated` spreads attenuated latency/error symptoms to upstream callers,
# so the root cause is only identifiable via call direction.
PRESETS = {
    "local": ScenarioSpec(fault_mix=dict(PRESET_FAULT_MIX)),
    "propagated": ScenarioSpec(fault_mix=dict(PRESET_FAULT_MIX), propagation_factor=0.6),
}


def scenario_preset(name: str) -> ScenarioSpec:
    """A fresh copy of the named entry of `PRESETS`."""
    if name not in PRESETS:
        raise ValueError(f"unknown scenario preset '{name}' (expected one of {sorted(PRESETS)})")
    return replace(PRESETS[name])


def generate_topology(n_nodes: int, edge_density: float, prng: Prng) -> ServiceGraph:
    """Random weakly connected DAG with mean out-degree near edge_density.

    Nodes are placed in a random topological order; a spanning arborescence
    guarantees weak connectivity, then extra forward edges are sampled until
    round(n_nodes * edge_density) edges exist or candidates are exhausted.
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    if edge_density <= 0:
        raise ValueError("edge_density must be positive")
    # A simple DAG cannot reach mean out-degree n-1; n=2 with density 1 is
    # allowed because its single edge lands within the +-50% contract.
    if n_nodes == 2:
        if edge_density > 1:
            raise ValueError("edge_density infeasible for 2 nodes")
    elif edge_density >= n_nodes - 1:
        raise ValueError(
            f"edge_density {edge_density} infeasible for {n_nodes} nodes "
            f"(must be < {n_nodes - 1})"
        )

    rng = prng.child("topology")
    order = [int(v) for v in rng.permutation(n_nodes)]
    edges: set[tuple[int, int]] = set()
    for pos in range(1, n_nodes):
        parent_pos = int(rng.integers(0, pos))
        edges.add((order[parent_pos], order[pos]))

    target_m = max(n_nodes - 1, int(round(n_nodes * edge_density)))
    max_attempts = 50 * target_m
    attempts = 0
    while len(edges) < target_m and attempts < max_attempts:
        attempts += 1
        i = int(rng.integers(0, n_nodes - 1))
        j = int(rng.integers(i + 1, n_nodes))
        edges.add((order[i], order[j]))

    names = tuple(f"svc-{i:02d}" for i in range(n_nodes))
    return ServiceGraph(n_nodes=n_nodes, node_names=names, edges=tuple(sorted(edges)))


def schedule_faults(spec: ScenarioSpec, graph: ServiceGraph, prng: Prng) -> list[FaultSpec]:
    """Place n_faults non-overlapping intervals with >= window_len_s of
    fault-free slack before, between, and after them."""
    rng = prng.child("faults")
    gap_ms = spec.window_ms
    dur_s = rng.uniform(1.5 * spec.window_len_s, 3 * spec.window_len_s, size=spec.n_faults)
    durations = [int(round(v * 1000)) for v in dur_s]

    need = sum(durations) + (spec.n_faults + 1) * gap_ms
    total = spec.duration_s * 1000
    if need > total:
        raise ValueError(
            f"duration_s={spec.duration_s} cannot fit {spec.n_faults} faults with "
            f"window-length gaps; need at least {math.ceil(need / 1000)} s"
        )
    # Spread the leftover time across the n_faults+1 gaps.
    slack = total - need
    shares = rng.uniform(size=spec.n_faults + 1)
    shares = shares / shares.sum()
    extras = [int(round(slack * v)) for v in shares]
    extras[-1] = slack - sum(extras[:-1])

    types = sorted(spec.fault_mix, key=lambda t: t.value)
    weights = np.array([spec.fault_mix[t] for t in types])
    weights = weights / weights.sum()

    faults = []
    cursor = 0
    for i in range(spec.n_faults):
        cursor += gap_ms + extras[i]
        start = cursor
        target = int(rng.integers(0, graph.n_nodes))
        ftype = types[int(rng.choice(len(types), p=weights))]
        severity = float(rng.uniform(0.7, 1.0))
        faults.append(
            FaultSpec(
                target_node=target,
                fault_type=ftype,
                start_ms=start,
                duration_ms=durations[i],
                severity=severity,
                propagation_factor=float(spec.propagation_factor),
            )
        )
        cursor = start + durations[i]
    return faults


# a value drawn for each kind of template slot
_SLOT_DRAWS = {
    "num": lambda rng: str(int(rng.integers(1, 100000))),
    "id": lambda rng: f"{int(rng.integers(0, 16**8)):08x}",
    "ip": lambda rng: f"10.0.{int(rng.integers(0, 256))}.{int(rng.integers(1, 255))}",
}
_SLOT = re.compile(r"\{(num|id|ip)\}")


def _fill_template(template: str, rng: Prng) -> str:
    """The template with each slot replaced by a fresh draw, left to right."""
    return _SLOT.sub(lambda m: _SLOT_DRAWS[m.group(1)](rng), template)


def _fault_seconds(fault: FaultSpec, duration_s: int) -> range:
    """1 Hz sample indices t with start_ms <= t*1000 < end_ms, clamped."""
    first = max(0, math.ceil(fault.start_ms / 1000))
    last = min(duration_s, math.ceil(fault.end_ms / 1000))
    return range(first, max(first, last))


def _stress_map(fault: FaultSpec, graph: ServiceGraph) -> dict[int, float]:
    """Victim stress per upstream caller: severity * factor**hops."""
    out: dict[int, float] = {}
    if fault.propagation_factor > 0:
        for node, hops in sorted(graph.upstream_hops(fault.target_node).items()):
            out[node] = fault.severity * fault.propagation_factor ** hops
    return out


def simulate(graph: ServiceGraph, faults: list[FaultSpec], spec: ScenarioSpec,
             prng: Prng) -> TelemetryStream:
    """Render a scenario into a telemetry stream.

    Baseline draws come from the `baseline` child stream in a fixed order
    (metrics by node then channel, logs by node, spans by edge), so fault
    effects can never shift them. Each fault consumes its own `fault:<i>`
    child stream. Each metric series is one SERIES_DTYPE array on the 1 Hz
    grid from t=0, the spans one time-ordered SPAN_DTYPE array, their floats
    rounded as the telemetry file writes them, and the log lines one
    LOG_DTYPE array ordered by (t_ms, node), ties in draw order.
    """
    for f in faults:
        if f.target_node >= graph.n_nodes:
            raise ValueError(f"fault target {f.target_node} outside graph")
        if f.end_ms > spec.duration_s * 1000:
            raise ValueError(
                f"fault interval [{f.start_ms}, {f.end_ms}) extends past "
                f"duration {spec.duration_s * 1000} ms"
            )
    names = graph.node_names
    T = spec.duration_s
    base = prng.child("baseline")

    lvl_rng = base.child("levels")
    levels = [
        {ch: float(lvl_rng.uniform(*BASELINE_RANGES[ch])) for ch in METRIC_CHANNELS}
        for _ in range(graph.n_nodes)
    ]

    metric_rng = base.child("metrics")
    values = {
        (i, ch): levels[i][ch] + metric_rng.normal(0.0, NOISE_SIGMA, size=T)
        for i in range(graph.n_nodes)
        for ch in METRIC_CHANNELS
    }

    log_rng = base.child("logs")
    lines: list[tuple[int, int, str]] = []  # (t_ms, node, text) in draw order
    for i in range(graph.n_nodes):
        hits = np.nonzero(log_rng.uniform(size=T) < LOG_RATE)[0]
        offs = log_rng.integers(0, 1000, size=hits.size)
        picks = log_rng.integers(0, len(BENIGN_TEMPLATES), size=hits.size)
        for sec, off, pick in zip(hits, offs, picks):
            text = _fill_template(BENIGN_TEMPLATES[pick], log_rng)
            lines.append((int(sec) * 1000 + int(off), i, text))

    span_rng = base.child("spans")
    edge_base = {e: float(span_rng.uniform(*SPAN_BASE_RANGE)) for e in graph.edges}
    blocks = [np.empty(0, SPAN_DTYPE)]
    for (u, v) in graph.edges:
        counts = span_rng.poisson(SPAN_RATE, size=T)
        n = int(counts.sum())
        block = np.empty(n, SPAN_DTYPE)
        block["t_ms"] = np.repeat(np.arange(T) * 1000, counts) + span_rng.integers(0, 1000, size=n)
        block["caller"], block["callee"] = u, v
        block["latency_ms"] = np.exp(
            span_rng.normal(math.log(edge_base[(u, v)]), SPAN_SIGMA_LOG, size=n))
        block["error"] = span_rng.uniform(size=n) < BASELINE_ERROR_RATE
        blocks.append(block)
    spans = np.concatenate(blocks)
    del blocks  # two span copies, not three, at the sort
    spans = spans[np.argsort(spans["t_ms"], kind="stable")]
    keep = np.ones(spans.size, dtype=bool)  # fault intervals are disjoint: drop once at the end

    for idx, fault in enumerate(sorted(faults, key=lambda f: f.start_ms)):
        frng = prng.child(f"fault:{idx}")
        target = fault.target_node
        s0 = fault.severity
        secs = _fault_seconds(fault, T)
        sec_arr = np.array(secs, dtype=np.int64)
        victims = _stress_map(fault, graph)

        # Metric effects; shifts are deterministic given the fault spec.
        if sec_arr.size:
            if fault.fault_type is FaultType.CPU_STRESS:
                values[(target, "cpu")][sec_arr] += FAULT_SCALE * s0
            elif fault.fault_type is FaultType.MEM_LEAK:
                frac = (sec_arr * 1000 - fault.start_ms) / fault.duration_ms
                values[(target, "mem")][sec_arr] += FAULT_SCALE * s0 * frac
            elif fault.fault_type is FaultType.NET_DELAY:
                values[(target, "latency")][sec_arr] += FAULT_SCALE * s0
            elif fault.fault_type is FaultType.CRASH:
                values[(target, "qps")][sec_arr] *= 1.0 - s0
            for victim, s_k in victims.items():
                values[(victim, "latency")][sec_arr] += FAULT_SCALE * s_k

        # Span effects over the exact [start_ms, end_ms) interval.
        lo, hi = np.searchsorted(spans["t_ms"], (fault.start_ms, fault.end_ms))
        inside = spans[lo:hi]
        multipliers = dict(victims)
        if fault.fault_type is FaultType.NET_DELAY:
            multipliers[target] = s0
        for node, stress in multipliers.items():
            inside["latency_ms"][inside["caller"] == node] *= 1.0 + SPAN_LATENCY_FACTOR * stress
        if fault.fault_type is FaultType.CRASH:
            # one draw per span touching the target, in span order
            outgoing = inside["caller"] == target
            touched = outgoing | (inside["callee"] == target)
            hit = np.zeros(inside.size, dtype=bool)
            hit[touched] = frng.uniform(size=int(touched.sum())) < s0
            inside["error"][hit & ~outgoing] = True
            keep[lo:hi][hit & outgoing] = False

        # Fault log lines: target complains in its own template, victims in
        # the dependency-timeout template, at rates proportional to stress.
        emitters = [(target, s0, FAULT_LOG_TEMPLATES[fault.fault_type])]
        emitters += [(v, s_k, VICTIM_LOG_TEMPLATE) for v, s_k in sorted(victims.items())]
        for node, stress, template in emitters:
            for sec in secs:
                count = int(frng.poisson(FAULT_LOG_RATE * stress))
                for _ in range(count):
                    t_ms = sec * 1000 + int(frng.integers(0, 1000))
                    lines.append((t_ms, node, _fill_template(template, frng)))

    logs = np.array(lines, dtype=LOG_DTYPE)
    logs = logs[np.lexsort((logs["node"], logs["t_ms"]))]  # stable: ties keep draw order

    metrics = {name: {} for name in names}
    for (i, ch), vals in values.items():
        series = metrics[names[i]][ch] = np.empty(T, SERIES_DTYPE)
        series["t_ms"] = np.arange(T) * 1000
        series["value"] = round6(vals)
    spans = spans[keep]
    # rounded as the telemetry file is, so a re-read stream holds the same floats
    spans["latency_ms"] = round6(spans["latency_ms"])
    stream = TelemetryStream(nodes=names, metrics=metrics, logs=logs, spans=spans)
    stream.validate(graph)
    return stream
