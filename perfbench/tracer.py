"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces selected public functions and methods of the
`microdiag` modules with timing wrappers. A function imported by name into
another module (``from .simulator import simulate``) is a separate reference,
so every module attribute that is the original object is swapped, and
`uninstall` puts every one of them back. Nothing under ``src/`` is edited.

Each call records one span ``(name, start, end, parent)`` in memory; the
spans are written out only when the run ends. Autodiff backward time comes
from wrapping the ``grad_fn`` of each Tensor an op returns, so a backward
step is a child span of ``autodiff.backward``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

# (module, attribute path, span name); a dotted path names a method.
TARGETS = (
    ("simulator", "simulate", "simulator.simulate"),
    ("types", "TelemetryStream.validate", "types.stream_validate"),
    ("templates", "mine_templates", "templates.mine_templates"),
    ("templates", "template_series", "templates.template_series"),
    ("preprocess", "fit_transforms", "preprocess.fit_transforms"),
    ("preprocess", "apply_transforms", "preprocess.apply_transforms"),
    ("preprocess", "compress_metrics", "preprocess.compress_metrics"),
    ("preprocess", "trace_features", "preprocess.trace_features"),
    ("preprocess", "three_sigma_alerts", "preprocess.three_sigma_alerts"),
    ("preprocess", "build_windows", "preprocess.build_windows"),
    ("preprocess", "windows_to_bytes", "preprocess.windows_to_bytes"),
    ("preprocess", "windows_from_bytes", "preprocess.windows_from_bytes"),
    ("serialize", "serialize_stream", "serialize.serialize_stream"),
    ("serialize", "deserialize_stream", "serialize.deserialize_stream"),
    ("serialize", "atomic_write_bytes", "serialize.atomic_write_bytes"),
    ("serialize", "save_checkpoint", "serialize.save_checkpoint"),
    ("serialize", "load_checkpoint", "serialize.load_checkpoint"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_preprocess", "cli.preprocess"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("embed", "encoder_graph", "embed.encoder_graph"),
    ("embed", "events_graph", "embed.events_graph"),
    ("embed", "event_weights", "embed.event_weights"),
    ("models", "forward_graph", "models.forward_graph"),
    ("models", "windows_to_batch", "models.windows_to_batch"),
    ("models", "WindowBatch.select", "models.batch_select"),
    ("train_eval", "train", "train_eval.train"),
    ("train_eval", "evaluate", "train_eval.evaluate"),
    ("train_eval", "topk_accuracy", "train_eval.topk_accuracy"),
    ("train_eval", "prepare_dataset", "train_eval.prepare_dataset"),
)

# autodiff ops whose forward and backward are timed one by one
AUTODIFF_OPS = ("conv1d_valid", "matmul", "layer_norm", "cross_entropy")
# grouped as "elementwise" in the per-layer report
ELEMENTWISE_OPS = (
    "add", "sub", "mul", "relu", "powc", "addc", "mulc",
    "tsum", "tmean", "reshape", "concat",
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "microdiag" or name.startswith("microdiag."))]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """A function that runs `fn` inside a span named `name`; `after`
        sees (result, args, kwargs) once the span has closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
            if after is not None:
                after(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def _swap_everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"microdiag.{name}")
                for name in ("simulator", "types", "templates", "preprocess", "serialize",
                             "cli", "embed", "models", "train_eval", "autodiff")}
        after = {
            "simulator.simulate": lambda out, a, k: self.count("simulator.spans", len(out.spans)),
            "preprocess.windows_to_bytes": self._count_bytes("preprocess.windows"),
            "serialize.serialize_stream": self._count_bytes("serialize.telemetry"),
            "serialize.save_checkpoint": self._count_checkpoint,
        }
        for module, path, name in TARGETS:
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, after.get(name))
            if outer:   # a method: the class attribute is the one reference
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._swap_everywhere(original, wrapped)

        ad = mods["autodiff"]
        for op in AUTODIFF_OPS + ELEMENTWISE_OPS:
            original = getattr(ad, op)
            self._swap_everywhere(
                original, self.wrap(f"autodiff.{op}.fwd", original, self._grad_hook(op))
            )
        self._swap_everywhere(ad.backward, self._backward_wrapper(ad.backward))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks -----------------------------------------------------------

    def _count_bytes(self, prefix: str):
        def after(out, args, kwargs):
            self.count(f"{prefix}_calls")
            self.count(f"{prefix}_bytes", len(out))
        return after

    def _count_checkpoint(self, out, args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.count("serialize.checkpoint_calls")
        self.count("serialize.checkpoint_bytes", os.path.getsize(path))

    def _grad_hook(self, op: str):
        name = f"autodiff.{op}.bwd"

        def after(out, args, kwargs):
            fn = getattr(out, "grad_fn", None)
            # a composite op returns a Tensor its inner op already wrapped
            if fn is not None and not getattr(fn, "_perfbench_bwd", False):
                timed = self.wrap(name, fn)
                timed._perfbench_bwd = True
                out.grad_fn = timed
        return after

    def _backward_wrapper(self, backward):
        timed = self.wrap("autodiff.backward", backward)

        def traced_backward(out, *args, **kwargs):
            # tape size: tensors reachable from the loss that need a gradient
            seen, stack = set(), [out]
            while stack:
                node = stack.pop()
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                stack.extend(node.parents)
            self.count("autodiff.tape_nodes", len(seen))
            self.count("autodiff.backward_calls")
            return timed(out, *args, **kwargs)

        traced_backward.__wrapped__ = backward
        return traced_backward

    # -- reporting -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(inclusive seconds by span name, self seconds by span name,
        seconds of elementwise forward spans not nested in another op)."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, t0, t1, parent in self.spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        own: dict[str, float] = {}
        elementwise_fwd = 0.0
        elementwise = {f"autodiff.{op}.fwd" for op in ELEMENTWISE_OPS}
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (t1 - t0) - child.get(idx, 0.0)
            if name in elementwise:
                outer = self.spans[parent][0] if parent >= 0 else ""
                if not (outer.startswith("autodiff.") and outer.endswith(".fwd")):
                    elementwise_fwd += t1 - t0
        return total, own, elementwise_fwd

    def write(self, path) -> None:
        """Spans as JSON lines, start and end relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "parent": parent,
                                     "start_s": round(t0 - base, 9),
                                     "end_s": round(t1 - base, 9)}) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); a layer the run never
    called reads 0."""
    total, own, elementwise_fwd = tracer.totals()
    c = tracer.counters

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "simulator.simulate_s": (t("simulator.simulate"), "s"),
        "simulator.spans_per_s": (ratio(c.get("simulator.spans", 0.0), t("simulator.simulate")), "spans/s"),
        "types.stream_validate_s": (t("types.stream_validate"), "s"),
        "templates.mine_templates_s": (t("templates.mine_templates"), "s"),
        "templates.template_series_s": (t("templates.template_series"), "s"),
    }
    for fn in ("fit_transforms", "apply_transforms", "compress_metrics", "trace_features",
               "three_sigma_alerts", "build_windows", "windows_to_bytes", "windows_from_bytes"):
        out[f"preprocess.{fn}_s"] = (t(f"preprocess.{fn}"), "s")
    mb = 1024.0 * 1024.0
    out["preprocess.windows_mb"] = (
        ratio(c.get("preprocess.windows_bytes", 0.0), c.get("preprocess.windows_calls", 0.0)) / mb, "MB")
    for fn in ("serialize_stream", "deserialize_stream"):
        out[f"serialize.{fn}_s"] = (t(f"serialize.{fn}"), "s")
    out["serialize.telemetry_mb"] = (
        ratio(c.get("serialize.telemetry_bytes", 0.0), c.get("serialize.telemetry_calls", 0.0)) / mb, "MB")
    for fn in ("atomic_write_bytes", "save_checkpoint", "load_checkpoint"):
        out[f"serialize.{fn}_s"] = (t(f"serialize.{fn}"), "s")
    out["serialize.checkpoint_mb"] = (
        ratio(c.get("serialize.checkpoint_bytes", 0.0), c.get("serialize.checkpoint_calls", 0.0)) / mb, "MB")
    for cmd in ("simulate", "preprocess", "train", "evaluate"):
        out[f"cli.{cmd}_s"] = (t(f"cli.{cmd}"), "s")
    out["autodiff.conv1d_valid.fwd_s"] = (t("autodiff.conv1d_valid.fwd"), "s")
    out["autodiff.conv1d_valid.bwd_s"] = (t("autodiff.conv1d_valid.bwd"), "s")
    out["autodiff.matmul.fwd_s"] = (t("autodiff.matmul.fwd"), "s")
    out["autodiff.matmul.bwd_s"] = (t("autodiff.matmul.bwd"), "s")
    out["autodiff.layer_norm.fwd_s"] = (t("autodiff.layer_norm.fwd"), "s")
    out["autodiff.cross_entropy.fwd_s"] = (t("autodiff.cross_entropy.fwd"), "s")
    out["autodiff.cross_entropy.bwd_s"] = (t("autodiff.cross_entropy.bwd"), "s")
    out["autodiff.elementwise.fwd_s"] = (elementwise_fwd, "s")
    out["autodiff.elementwise.bwd_s"] = (
        sum(t(f"autodiff.{op}.bwd") for op in ELEMENTWISE_OPS), "s")
    out["autodiff.backward_self_s"] = (own.get("autodiff.backward", 0.0), "s")
    out["autodiff.tape_nodes_per_step"] = (
        ratio(c.get("autodiff.tape_nodes", 0.0), c.get("autodiff.backward_calls", 0.0)), "count")
    for fn in ("encoder_graph", "events_graph", "event_weights"):
        out[f"embed.{fn}_s"] = (t(f"embed.{fn}"), "s")
    for fn in ("forward_graph", "windows_to_batch", "batch_select"):
        out[f"models.{fn}_s"] = (t(f"models.{fn}"), "s")
    out["train_eval.train_s"] = (t("train_eval.train"), "s")
    out["train_eval.train_self_s"] = (own.get("train_eval.train", 0.0), "s")
    for fn in ("evaluate", "topk_accuracy", "prepare_dataset"):
        out[f"train_eval.{fn}_s"] = (t(f"train_eval.{fn}"), "s")
    return out
