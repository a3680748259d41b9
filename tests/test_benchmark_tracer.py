"""The benchmark's span tracer still finds every name it wraps.

Tier-1 does not collect `perfbench/`, so without this test a rename in
`src/` could break `perfbench/run.py --trace 1` unnoticed. The tracer is
loaded from its file, installed, checked and uninstalled; the file is only
read.
"""

import importlib
import importlib.util
from pathlib import Path

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
