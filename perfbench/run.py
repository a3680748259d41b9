#!/usr/bin/env python3
"""Benchmark for microdiag: two workloads, timed end to end and layer by layer.

    python3 perfbench/run.py --workload {cli_staged,ablate} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root. The workload's set-up runs first (three
times; the import time plus the median set-up is `setup_s`), then the
workload repeats whole rounds of a fixed amount of work for about S timed
seconds and reports the time per round and the items per second over all of
them. The outputs of every round are checked outside the timed region. With
``--trace 1`` the run instead reports per-layer times from wrappers
installed around the package's public functions, and the tracing overhead
against untraced rounds of the same run. Each round's time goes to standard
error. The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# One BLAS thread: the host has two cores shared with other work, and a fixed
# setting keeps timings and floating-point results repeatable. It must be set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

try:
    import microdiag
    from microdiag import cli, preprocess, simulator, train_eval
    from microdiag.prng import prng_new
    from microdiag.simulator import PRESET_FAULT_MIX, ScenarioSpec
    from microdiag.types import RunConfig, Task
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {SRC}: {exc}")
if not Path(microdiag.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: microdiag was imported from {microdiag.__file__}, not from {SRC}")

import checks
from tracer import Tracer, layer_metrics

IMPORT_S = time.perf_counter() - _START
SETUP_REPS = 3


def local_shape(duration_s: int, n_faults: int) -> ScenarioSpec:
    """The `local` preset's shape (12 nodes, its fault mix, symptoms on the
    target only, 30 s windows) on a shorter timeline."""
    return ScenarioSpec(n_nodes=12, edge_density=2.0, duration_s=duration_s, n_faults=n_faults,
                        fault_mix=dict(PRESET_FAULT_MIX))


# 1800 s is the shortest timeline whose guarded splits keep 10 windows each.
SCENARIO = local_shape(1800, 12)
# Ablation models need more training windows than 1800 s gives to learn
# anything within the epoch budget.
ABLATE_SCENARIO = local_shape(2400, 16)
ABLATE_DATASET_SEED = 0
ABLATE_EPOCHS = 20
SMOKE_SCENARIO = ScenarioSpec(n_nodes=5, edge_density=1.6, duration_s=1800, n_faults=12,
                              fault_mix=dict(PRESET_FAULT_MIX))
SMOKE_EPOCHS = 8


class Round:
    """What one round did: operations attempted and failed, items of work,
    and a deferred check of its outputs."""

    def __init__(self, attempted: int, failed: int, items: float, check):
        self.attempted, self.failed, self.items, self.check = attempted, failed, items, check


def window_ms(spec: ScenarioSpec) -> tuple[int, int]:
    return spec.window_len_s * 1000, spec.stride_s * 1000


def prepare_in_memory(spec: ScenarioSpec, dataset_seed: int):
    """generate_topology -> schedule_faults -> simulate -> preprocess_stream
    -> windows_to_bytes -> windows_from_bytes, as `prepare_dataset` does,
    keeping every intermediate for the checks."""
    root = prng_new(dataset_seed)
    graph = simulator.generate_topology(spec.n_nodes, spec.edge_density, root.child("simulate"))
    faults = simulator.schedule_faults(spec, graph, root.child("simulate"))
    stream = simulator.simulate(graph, faults, spec, root.child("simulate"))
    w_ms, s_ms = window_ms(spec)
    result = preprocess.preprocess_stream(stream, faults, w_ms, s_ms, root.child("preprocess"))
    raw = preprocess.windows_to_bytes(result.nodes, result.split, w_ms, s_ms,
                                      result.transforms.vocab_size)
    return stream, faults, result, raw, preprocess.windows_from_bytes(raw)


class CliStaged:
    """simulate -> preprocess -> train -> evaluate through `cli.main`, with a
    fresh work directory per chain. Items are simulated spans."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.spec = SMOKE_SCENARIO if smoke else SCENARIO
        self.seed = seed
        self.workdir = workdir
        self.scenario_path = workdir / "scenario.json"

    def setup(self):
        """In-memory reference windows for the chain's scenario and seed."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_path.write_text(json.dumps(self.spec.to_dict()), "utf-8")
        self.prepared = None  # a repeated set-up holds one copy at a time
        self.prepared = prepare_in_memory(self.spec, self.seed)
        stream, _, _, self.reference, parsed = self.prepared
        _, self.reference_split, header = parsed
        self.vocab_size = int(header["vocab_size"])
        self.n_spans = len(stream.spans)

    def check_setup(self):
        """The reference windows against the benchmark's own labels,
        z-scores and split plan; the staged windows must equal them."""
        stream, faults, result, raw, parsed = self.prepared
        self.prepared = None
        checks.check_prepared(stream, faults, result.transforms.selected_channels, raw, parsed,
                              *window_ms(self.spec))

    def round(self, r: int) -> Round:
        chain = self.workdir / f"chain-{r}"
        s = str(self.seed)
        commands = (
            ["simulate", "--scenario", str(self.scenario_path), "--seed", s, "--out", str(chain)],
            ["preprocess", "--in", str(chain)],
            ["train", "--workdir", str(chain), "--seed", s],
            ["evaluate", "--workdir", str(chain)],
        )
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                codes.append(cli.main(argv))

        def check():
            try:
                checks.check_staged(chain, codes, self.reference, self.reference_split,
                                    self.vocab_size)
            finally:
                shutil.rmtree(chain, ignore_errors=True)

        return Round(len(codes), sum(rc != 0 for rc in codes), self.n_spans, check)


class Ablate:
    """`train_eval.ablate` for DETECT, LOCALIZE and CLASSIFY plus one DETECT
    control with message passing disabled, at a fixed epoch budget. Items are
    training window passes (one window through forward and backward)."""

    def __init__(self, seed: int, smoke: bool):
        self.spec = SMOKE_SCENARIO if smoke else ABLATE_SCENARIO
        self.epochs = SMOKE_EPOCHS if smoke else ABLATE_EPOCHS
        seeds = [2 * seed + 1, 2 * seed + 2]
        # (task, run seeds, control); CLASSIFY keeps run seeds that do not
        # depend on --seed, so the cells that fail under defect D1 are the
        # same in every run
        self.plan = (
            (Task.DETECT, seeds, False),
            (Task.LOCALIZE, seeds, False),
            (Task.CLASSIFY, [1, 2], False),
            (Task.DETECT, seeds, True),
        )
        self.seed = seed

    def setup(self):
        self.bundle = None  # a repeated set-up holds one copy at a time
        self.bundle, _, _ = train_eval.prepare_dataset(self.spec, ABLATE_DATASET_SEED)

    def check_setup(self):
        pass

    def items_per_round(self) -> int:
        split = self.bundle.split.train
        n = {Task.DETECT: len(split), Task.LOCALIZE: sum(w.label_anomalous for w in split)}
        n[Task.CLASSIFY] = n[Task.LOCALIZE]
        return sum(2 * len(seeds) * self.epochs * n[task] for task, seeds, _ in self.plan)

    def round(self, r: int) -> Round:
        results = []
        for task, seeds, control in self.plan:
            base = RunConfig(seed=0, task=task, max_epochs=self.epochs, patience=self.epochs)
            results.append((train_eval.ablate(self.bundle, base, seeds,
                                              disable_message_passing=control), control))
        failed = sum(len(res.failures) for res, _ in results)
        attempted = sum(len(res.reports) for res, _ in results)

        def check():
            for res, control in results:
                checks.check_ablation(res, self.bundle, control, self.epochs)
            if r == 0:
                checks.check_gradients(self.bundle, self.seed)

        return Round(attempted, failed, self.items_per_round(), check)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_staged", "ablate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario and epoch budget, one set-up; for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def make_workload(args, workdir: Path):
    if args.workload == "cli_staged":
        return CliStaged(args.seed, args.smoke, workdir)
    return Ablate(args.seed, args.smoke)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run(args) -> tuple[dict, bool]:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = make_workload(args, workdir)
    rounds: list[tuple[Round, float]] = []
    correct = True
    first_round_rss_kb = 0

    def run_round(r: int):
        nonlocal correct, first_round_rss_kb
        rnd, seconds = timed(workload.round, r)
        rounds.append((rnd, seconds))
        print(f"round {r}: {seconds:.3f} s, {rnd.items} items", file=sys.stderr)
        if len(rounds) == 1:
            first_round_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            rnd.check()
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed in round {r}: {exc}", file=sys.stderr)
        rnd.check = None  # the closure holds the round's outputs
        return seconds

    def check_setup():
        nonlocal correct
        try:
            workload.check_setup()
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed after set-up: {exc}", file=sys.stderr)

    def rounds_for(seconds: float, first: int) -> int:
        """Whole rounds until the timed seconds are nearest to `seconds`
        (at least one); checks do not count."""
        timed_s, r = 0.0, first
        while r == first or timed_s + timed_s / (r - first) / 2 < seconds:
            timed_s += run_round(r)
            r += 1
        return r

    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            check_setup()
            n = rounds_for(args.seconds, 0)
            untraced = sum(s for _, s in rounds) / len(rounds)
            tracer.install()
            try:
                traced_s = run_round(n)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
            metrics = layer_metrics(tracer)
            metrics["trace.round_s"] = (traced_s, "s")
            metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced - 1.0), "%")
        else:
            reps = 1 if args.smoke else SETUP_REPS
            setup_s = statistics.median(timed(workload.setup)[1] for _ in range(reps))
            check_setup()
            rounds_for(args.seconds, 0)
            # whole-run figures: the host's speed moves by 10-20% from one
            # second to the next, and a mean over all timed rounds averages
            # that out better than the median of a few
            timed_s = sum(s for _, s in rounds)
            metrics = {
                "setup_s": (IMPORT_S + setup_s, "s"),
                "wall_s": (timed_s / len(rounds), "s"),
                "items_per_s": (sum(rnd.items for rnd, _ in rounds) / timed_s, "items/s"),
                # read after the first round, so that it does not depend on
                # how many rounds fit in the run
                "peak_rss_mb": (first_round_rss_kb / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(rnd.attempted for rnd, _ in rounds),
        "failed": sum(rnd.failed for rnd, _ in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    result, correct = run(args)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
