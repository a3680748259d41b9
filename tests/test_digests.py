"""Bit identity of the pipeline's outputs, pinned by sha256.

A change that is meant to keep every output the same (a refactor, a faster
kernel) must leave these digests alone. They cover the simulated telemetry,
the windows, the fitted transforms and the mined template table of the tiny
scenario at seed 7, with symptoms on the target only and with propagation
to upstream callers, and a short ablation trained on the former: every checkpoint, loss history and
results row, so the training step is pinned to the bit too. The digests
belong to one numpy build: a numpy or BLAS upgrade that moves the last bit
of a sum moves them too, and then they are re-derived and the change says
so.
"""

import dataclasses
import hashlib

import pytest

from microdiag.serialize import serialize_stream
from microdiag.train_eval import ablate, prepare_dataset, results_csv_rows, simulate_scenario
from microdiag.types import RunConfig, Task

from conftest import TINY_SPEC

PROPAGATED_TINY_SPEC = dataclasses.replace(TINY_SPEC, propagation_factor=0.6)

DIGESTS = {
    "local": {
        "telemetry": "d1890dcf60ce73a30bd94ce26c05fe71f1f6f9a1afb61dadb2732bbc70454f4f",
        "windows": "b04d252e8dad0d762920a2697776315f90599e434710f8342521c69774c34ad9",
        "transforms": "fb09e91f1b4eeb04eaf943899d41c8ae8f40ea26a5a8b938cda588a80c7abafb",
        "templates": "f86db7a116672ed5754e20e4cf23fa24c73e4941f92e41e72c61725fe1c2a36f",
    },
    "propagated": {
        "telemetry": "d3acc59674722e6ea5c65183b65fd7b74edbd7051518990dea363d5672f55770",
        "windows": "8bb151aea8492d10a738d57948265b67e34d2565c86970f23b10f9e96ca91298",
        "transforms": "ad6281829eb290fca475027bf907710343e64c5168f3849600490dfe4673d77f",
        "templates": "f86db7a116672ed5754e20e4cf23fa24c73e4941f92e41e72c61725fe1c2a36f",
    },
}


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def digests(stream, raw: bytes, result) -> dict[str, str]:
    return {
        "telemetry": sha256(serialize_stream(stream)),
        "windows": sha256(raw),
        "transforms": sha256(result.transforms.to_json()),
        "templates": sha256(result.transforms.table.to_json()),
    }


def test_tiny_outputs_are_pinned(tiny_sim, tiny_bundle):
    _, _, _, stream = tiny_sim
    _, result, raw = tiny_bundle
    assert digests(stream, raw, result) == DIGESTS["local"]


def test_propagated_tiny_outputs_are_pinned():
    _, faults, stream = simulate_scenario(PROPAGATED_TINY_SPEC, 7)
    # the variant must exercise victim multipliers and the crash draws
    assert any(f.fault_type.value == "CRASH" for f in faults)
    assert all(f.propagation_factor == pytest.approx(0.6) for f in faults)
    _, result, raw = prepare_dataset(PROPAGATED_TINY_SPEC, 7)
    assert digests(stream, raw, result) == DIGESTS["propagated"]


# sha256 over `training_digest` of a short ablation on the tiny dataset:
# DETECT, LOCALIZE, CLASSIFY and the DETECT no-message-passing control,
# both backbones, run seeds 1 and 2, four epochs each with early stopping
# out of reach and dropout on
TRAINING_DIGEST = "639727b4e7e8571976577eded9b75e34aef188c02628607d9e4cda54c58b7253"


def training_digest(results) -> str:
    """Checkpoints, histories and `results_csv_rows`, byte for byte."""
    h = hashlib.sha256()
    for result in results:
        for key in sorted(result.checkpoints):
            h.update(repr(key).encode())
            for name, value in sorted(result.checkpoints[key].items()):
                h.update(f"{name}{value.shape}".encode())
                h.update(value.tobytes())
            h.update(repr(result.histories[key]).encode())
        h.update(repr(results_csv_rows(result)).encode())
    return h.hexdigest()


def test_tiny_training_is_pinned(tiny_bundle):
    bundle, _, _ = tiny_bundle
    base = RunConfig(seed=0, task=Task.DETECT, d=8, hidden=16, max_epochs=4, patience=4)
    results = [
        ablate(bundle, dataclasses.replace(base, task=task), [1, 2])
        for task in (Task.DETECT, Task.LOCALIZE, Task.CLASSIFY)
    ]
    results.append(ablate(bundle, base, [1, 2], disable_message_passing=True))
    for result in results:
        assert not result.failures, result.failures
        assert all(len(h) == 2 * base.max_epochs for h in result.histories.values())
    assert training_digest(results) == TRAINING_DIGEST
