"""The benchmark's span tracer still finds every name it wraps, and the
staged command chain still calls each of them.

Tier-1 does not collect `perfbench/`, so without these tests a rename in
`src/`, or a call that is dropped, could break `perfbench/run.py --trace 1`
unnoticed. The tracer is loaded from its file, installed, checked and
uninstalled; the file is only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from microdiag import cli

from conftest import TINY_SPEC

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    owner = importlib.import_module(f"microdiag.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves_and_is_restored():
    tracer = load_tracer()
    ad = importlib.import_module("microdiag.autodiff")
    ops = tracer.AUTODIFF_OPS + tracer.ELEMENTWISE_OPS + ("backward",)
    originals = {(module, path): resolve(module, path) for module, path, _ in tracer.TARGETS}
    original_ops = {op: getattr(ad, op) for op in ops}
    t = tracer.Tracer()
    try:
        t.install()
        for (module, path), original in originals.items():
            assert resolve(module, path).__wrapped__ is original, (module, path)
        for op, original in original_ops.items():
            assert getattr(ad, op).__wrapped__ is original, op
    finally:
        t.uninstall()
    for (module, path), original in originals.items():
        assert resolve(module, path) is original, (module, path)
    assert {op: getattr(ad, op) for op in ops} == original_ops


def test_every_traced_span_fires_in_the_staged_chain(tmp_path, capsys):
    # the benchmark's cli_staged chain with the default task on the tiny
    # scenario; `prepare_dataset` runs only in the ablate workload
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(TINY_SPEC.to_dict()), "utf-8")
    chain = tmp_path / "chain"
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        for argv in (
            ["simulate", "--scenario", str(scenario), "--seed", "7", "--out", str(chain)],
            ["preprocess", "--in", str(chain)],
            ["train", "--workdir", str(chain), "--seed", "1", "--d", "4", "--hidden", "8"],
            ["evaluate", "--workdir", str(chain)],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        t.uninstall()
    fired = {name for name, *_ in t.spans}
    expected = {name for _, _, name in tracer.TARGETS} - {"train_eval.prepare_dataset"}
    assert sorted(expected - fired) == []
