"""Topology generation and fault scheduling contracts."""

import json
import re

import pytest

from microdiag.prng import prng_new
from microdiag.simulator import (
    PRESETS,
    ScenarioSpec,
    generate_topology,
    scenario_preset,
    schedule_faults,
)
from microdiag.types import FaultType


def topo(n, density, seed=0):
    return generate_topology(n, density, prng_new(seed).child("simulate"))


class TestGenerateTopology:
    def test_deterministic(self):
        a, b = topo(10, 2.0, seed=5), topo(10, 2.0, seed=5)
        assert a == b
        assert a != topo(10, 2.0, seed=6)

    def test_edge_count_tracks_density(self):
        g = topo(12, 2.0)
        assert len(g.edges) == 24  # round(12 * 2.0); candidates are plentiful

    def test_acyclic(self):
        g = topo(15, 2.5, seed=3)
        # Kahn's algorithm must consume every node.
        indeg = {i: 0 for i in range(g.n_nodes)}
        for _, v in g.edges:
            indeg[v] += 1
        ready = [i for i, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            u = ready.pop()
            seen += 1
            for a, b in g.edges:
                if a == u:
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        ready.append(b)
        assert seen == g.n_nodes

    def test_two_nodes(self):
        g = topo(2, 1.0)
        assert g.n_nodes == 2 and len(g.edges) == 1

    def test_two_nodes_excess_density_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            topo(2, 1.5)

    def test_density_at_least_spanning_tree(self):
        g = topo(9, 0.5)
        assert len(g.edges) >= 8  # connectivity floor beats the density ask

    def test_infeasible_density_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            topo(5, 4.0)

    def test_node_names_stable(self):
        assert topo(3, 1.0).node_names == ("svc-00", "svc-01", "svc-02")


class TestScheduleFaults:
    def spec(self, **kw):
        base = dict(n_nodes=6, edge_density=1.5, duration_s=3600, n_faults=20,
                    window_len_s=30, stride_s=30)
        base.update(kw)
        return ScenarioSpec(**base)

    def test_count_and_bounds(self):
        spec = self.spec()
        graph = topo(6, 1.5)
        faults = schedule_faults(spec, graph, prng_new(0).child("simulate"))
        assert len(faults) == 20
        for f in faults:
            assert 0 <= f.target_node < 6
            assert 0 < f.start_ms and f.end_ms <= 3600 * 1000
            assert 0.7 <= f.severity <= 1.0
            assert 1.5 * 30_000 <= f.duration_ms <= 3 * 30_000

    def test_window_length_slack_between_faults(self):
        spec = self.spec()
        faults = schedule_faults(spec, topo(6, 1.5), prng_new(1).child("simulate"))
        gap = spec.window_len_s * 1000
        assert faults[0].start_ms >= gap
        assert faults[-1].end_ms + gap <= spec.duration_s * 1000
        for a, b in zip(faults, faults[1:]):
            assert b.start_ms >= a.end_ms + gap

    def test_zero_weight_type_never_drawn(self):
        mix = {FaultType.CPU_STRESS: 1.0, FaultType.MEM_LEAK: 0.0,
               FaultType.NET_DELAY: 0.0, FaultType.CRASH: 0.0}
        spec = self.spec(fault_mix=mix, n_faults=30)
        faults = schedule_faults(spec, topo(6, 1.5), prng_new(2).child("simulate"))
        assert {f.fault_type for f in faults} == {FaultType.CPU_STRESS}

    def test_propagation_factor_follows_scenario(self):
        spec = self.spec(propagation_factor=0.6)
        faults = schedule_faults(spec, topo(6, 1.5), prng_new(3).child("simulate"))
        assert all(f.propagation_factor == 0.6 for f in faults)
        local = schedule_faults(self.spec(), topo(6, 1.5), prng_new(3).child("simulate"))
        assert all(f.propagation_factor == 0.0 for f in local)

    def test_overfull_schedule_rejected(self):
        spec = self.spec(duration_s=600, n_faults=20)
        with pytest.raises(ValueError, match="cannot fit"):
            schedule_faults(spec, topo(6, 1.5), prng_new(0).child("simulate"))


class TestScenarioSpec:
    def test_preset_local(self):
        spec = scenario_preset("local")
        assert spec.n_nodes == 12 and spec.propagation_factor == 0.0

    def test_preset_propagated(self):
        spec = scenario_preset("propagated")
        assert spec.propagation_factor == 0.6
        assert spec.fault_mix == scenario_preset("local").fault_mix

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match=r"unknown scenario preset 'staging' \(expected "
                                             r"one of \['local', 'propagated'\]\)"):
            scenario_preset("staging")

    def test_preset_is_a_fresh_copy_of_the_table_entry(self):
        spec = scenario_preset("local")
        assert spec == PRESETS["local"] and spec is not PRESETS["local"]
        spec.fault_mix[FaultType.CRASH] = 0.0
        assert PRESETS["local"].fault_mix[FaultType.CRASH] == 0.3

    def test_json_round_trip(self):
        spec = scenario_preset("propagated")
        # the form `microdiag simulate` writes into scenario.json
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"n_nodes": 4, "chaos_mode": True})

    def test_local_symptom_only_rejected(self):
        # propagation_factor alone decides; a file that still carries the
        # old switch is named rather than read with a different meaning
        old = {**scenario_preset("propagated").to_dict(), "local_symptom_only": False}
        with pytest.raises(ValueError, match="local_symptom_only"):
            ScenarioSpec.from_dict(old)

    def test_window_settings_in_ms(self):
        spec = ScenarioSpec(window_len_s=20, stride_s=10)
        assert (spec.window_ms, spec.stride_ms) == (20_000, 10_000)

    def test_dict_keys(self):
        # the keys of the scenario.json that `microdiag simulate` writes
        assert list(ScenarioSpec().to_dict()) == [
            "n_nodes", "edge_density", "duration_s", "n_faults", "fault_mix",
            "propagation_factor", "window_len_s", "stride_s",
        ]

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("n_nodes", 5.5, "n_nodes must be an int, got 5.5"),
            ("duration_s", 1800.5, "duration_s must be an int, got 1800.5"),
            ("duration_s", "1800", "duration_s must be an int, got '1800'"),
            ("n_faults", 12.0, "n_faults must be an int, got 12.0"),
            ("window_len_s", 30.5, "window_len_s must be an int, got 30.5"),
            ("stride_s", True, "stride_s must be an int, got True"),
            ("edge_density", "2", "edge_density must be a real number, got '2'"),
            ("propagation_factor", False, "propagation_factor must be a real number, got False"),
            ("edge_density", float("nan"), "edge_density must be positive, got nan"),
            ("fault_mix", [1.0], "fault_mix must map fault types to real numbers, got [1.0]"),
            ("fault_mix", {"CRASH": "x"},
             "fault_mix must map fault types to real numbers, got {'CRASH': 'x'}"),
            ("fault_mix", {"CRASH": True}, "fault_mix must map fault types to real numbers"),
            ("fault_mix", {"BOGUS": 1.0}, "'BOGUS' is not a valid FaultType"),
        ],
        ids=["nodes-float", "duration-float", "duration-string", "faults-float",
             "window-float", "stride-bool", "density-string", "propagation-bool",
             "density-nan", "mix-list", "mix-string-weight", "mix-bool-weight",
             "mix-unknown-type"],
    )
    def test_fields_are_typed(self, field, value, detail):
        # each fails by name here, not inside numpy or as a short split later
        with pytest.raises(ValueError, match=re.escape(detail)):
            ScenarioSpec.from_dict({**ScenarioSpec().to_dict(), field: value})

    def test_real_fields_take_json_integers(self):
        spec = ScenarioSpec(edge_density=2, propagation_factor=0)
        assert (spec.edge_density, spec.propagation_factor) == (2, 0)

    def test_duration_floor(self):
        with pytest.raises(ValueError, match="too short"):
            ScenarioSpec(n_nodes=4, duration_s=120, window_len_s=30, n_faults=1)

    def test_negative_mix_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioSpec(fault_mix={FaultType.CRASH: -1.0})
