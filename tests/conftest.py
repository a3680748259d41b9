"""Shared fixtures. Heavy artifacts (the preset dataset) are session-scoped
so the acceptance criteria and the unit tests pay for them once."""

import json

import numpy as np
import pytest

from microdiag import cli
from microdiag.prng import prng_new
from microdiag.simulator import (
    ScenarioSpec,
    generate_topology,
    schedule_faults,
    scenario_preset,
    simulate,
)
from microdiag.train_eval import prepare_dataset


TINY_SPEC = ScenarioSpec(
    n_nodes=5, edge_density=1.6, duration_s=1800, n_faults=12,
    window_len_s=30, stride_s=30,
)


@pytest.fixture(scope="session")
def tiny_sim():
    """Small raw simulation: (spec, graph, faults, stream)."""
    spec = TINY_SPEC
    root = prng_new(7)
    graph = generate_topology(spec.n_nodes, spec.edge_density, root.child("simulate"))
    faults = schedule_faults(spec, graph, root.child("simulate"))
    stream = simulate(graph, faults, spec, root.child("simulate"))
    return spec, graph, faults, stream


@pytest.fixture(scope="session")
def tiny_bundle():
    """Preprocessed tiny dataset for fast end-to-end training tests."""
    bundle, result, raw = prepare_dataset(TINY_SPEC, dataset_seed=7)
    return bundle, result, raw


@pytest.fixture(scope="session")
def tiny_workdir(tmp_path_factory):
    """TINY_SPEC at seed 7 staged by the CLI (`simulate`, then `preprocess`):
    the work directory that `train`, `evaluate`, `ablate` and `report` read.
    A test that runs a command writing into it works on a copy."""
    spec = tmp_path_factory.mktemp("spec") / "tiny.json"
    spec.write_text(json.dumps(TINY_SPEC.to_dict()), "utf-8")
    out = tmp_path_factory.mktemp("staged")
    for argv in (["simulate", "--scenario", str(spec), "--seed", "7", "--out", str(out)],
                 ["preprocess", "--in", str(out)]):
        assert cli.main(argv) == 0, argv
    return out


@pytest.fixture(scope="session")
def local_bundle():
    """The `local` preset dataset at dataset seed 0 (acceptance scale)."""
    bundle, result, raw = prepare_dataset(scenario_preset("local"), dataset_seed=0)
    return bundle, result, raw


def finite_difference(f, arrays: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradients of f() w.r.t. every entry of every array.

    The independent oracle of the gradient tests: it never touches the tape,
    only mutates each array in place around its original value and
    re-evaluates f.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def watch_tape(out) -> dict[str, set]:
    """The dtypes on the tape below `out`: "data" holds every tensor's data
    dtype now, and "grad" collects, as `backward` walks the tape, the dtype
    of every gradient an op hands back. `backward` copies a gradient into
    its parent's dtype, so a stray dtype shows only in what the op returns."""
    nodes = {}
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    seen = {"data": {n.data.dtype for n in nodes.values()}, "grad": set()}

    def recording(grad_fn):
        def wrapped(g):
            grads = grad_fn(g)
            seen["grad"].update(x.dtype for x in grads if x is not None)
            return grads
        return wrapped

    for node in nodes.values():
        if node.grad_fn is not None:
            node.grad_fn = recording(node.grad_fn)
    return seen
