"""Command-line entry point exposing the pipeline stages as subcommands.

Stages communicate through files in one work directory: simulate ->
preprocess -> {train -> evaluate, ablate, report}. `simulate` writes
telemetry and `preprocess` turns it into windows; every later command reads
those windows from its required --workdir, so all of them see one dataset,
pinned by the digest of windows.jsonl, and write their outputs beside it.
Re-running a command in one directory overwrites its outputs (`ablate` its
tables, as `train` its checkpoint.json); every command is deterministic given
its flags and writes atomically, so reruns are byte-identical.

A command that fails prints `error: <cause>` and exits 1. For `ablate` the
cause names the failing cell's backbone and seed, and no table is written.

Only `simulate` takes --scenario; it writes to runs/<scenario>-s<seed> unless
told otherwise. Window length and stride come from the scenario, never from
a flag: `preprocess` reads them from the scenario.json that `simulate` wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import models, train_eval
from .preprocess import write_preprocess_outputs
from .prng import prng_new
from .serialize import (
    atomic_write_bytes,
    atomic_write_text,
    deserialize_stream,
    faults_from_json,
    faults_to_json,
    graph_to_json,
    load_checkpoint,
    save_checkpoint,
    serialize_stream,
    write_csv,
)
# `simulate` is imported for callers that reach it through this module
from .simulator import PRESETS, ScenarioSpec, scenario_preset, simulate  # noqa: F401
from .train_eval import (
    DatasetBundle,
    SeparabilityMode,
    ablate,
    preprocess_scenario,
    simulate_scenario,
    train,
)
from .types import Backbone, RunConfig, ServiceGraph, Task


def _load_scenario(value: str) -> ScenarioSpec:
    if value in PRESETS:
        return scenario_preset(value)
    path = Path(value)
    if not path.is_file():
        raise FileNotFoundError(
            f"scenario '{value}' is neither a preset {sorted(PRESETS)} nor a file")
    spec = json.loads(path.read_text("utf-8"))
    # the scenario.json of `simulate` holds the spec under "scenario", beside its seed
    if isinstance(spec, dict):
        spec = spec.get("scenario", spec)
    return ScenarioSpec.from_dict(spec)


def _run_config(args: argparse.Namespace, seed: int) -> RunConfig:
    # ablate and report train both backbones, so they take no --backbone
    backbone = Backbone(args.backbone.upper()) if "backbone" in args else RunConfig.backbone
    return RunConfig(seed=seed, task=Task(args.task.upper()), backbone=backbone, d=args.d,
                     hidden=args.hidden)


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    out = Path(args.out or Path("runs") / f"{Path(args.scenario).stem}-s{args.seed}")
    graph, faults, stream = simulate_scenario(scenario, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(out / "telemetry.jsonl", serialize_stream(stream))
    atomic_write_text(out / "graph.json", graph_to_json(graph))
    atomic_write_text(out / "faults.json", faults_to_json(faults))
    atomic_write_text(
        out / "scenario.json",
        json.dumps({"scenario": scenario.to_dict(), "seed": args.seed}, indent=2) + "\n",
    )
    print(f"simulated {len(stream.nodes)} nodes, {len(faults)} faults -> {out}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    indir = Path(args.indir)
    out = Path(args.out) if args.out else indir
    meta_path = indir / "scenario.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"{meta_path} not found: preprocess takes the window "
                                "length and stride from the scenario.json of simulate")
    scenario = _load_scenario(str(meta_path))
    faults = faults_from_json((indir / "faults.json").read_text("utf-8"))
    # the stream is not named here, so it is freed before the windows are serialized
    result, raw = preprocess_scenario(
        deserialize_stream((indir / "telemetry.jsonl").read_bytes()), faults, scenario)
    write_preprocess_outputs(result, raw, out)
    split = result.split
    print(
        f"windows: {len(split.train)} train / {len(split.valid)} valid / "
        f"{len(split.test)} test -> {out}"
    )
    return 0


def _load_bundle(workdir: Path) -> DatasetBundle:
    """Windows and the train-range graph that preprocessing observed."""
    path = workdir / "scaler.json"
    scaler = json.loads(path.read_text("utf-8"))
    graph = scaler.get("graph") if isinstance(scaler, dict) else None
    if not isinstance(graph, dict):
        raise ValueError(f'{path}: expected a JSON object with a "graph" object')
    return DatasetBundle.from_bytes((workdir / "windows.jsonl").read_bytes(),
                                    ServiceGraph.from_dict(graph))


def _check_checkpoint(params: dict, path: Path, config: RunConfig, bundle: DatasetBundle) -> None:
    """`params` must hold exactly the tensors, of the same shapes, that
    `init_params` makes for `config` over the bundle; the first that does not
    is named."""
    want = models.init_params(prng_new(config.seed), config.task, config.backbone,
                              bundle.n_nodes, config.d, config.hidden, bundle.vocab_size,
                              *bundle.dims())
    model = f"the {config.backbone.value} {config.task.value} model of run_config.json"
    for name, tensor in want.items():
        if name not in params:
            raise ValueError(f"{path}: tensor {name!r} is missing; {model} "
                             f"needs it with shape {tensor.shape}")
        if params[name].shape != tensor.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {params[name].shape}; "
                             f"{model} needs {tensor.shape}")
    for name in params:
        if name not in want:
            raise ValueError(f"{path}: unexpected tensor {name!r}; {model} has no such tensor")


def cmd_train(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    bundle = _load_bundle(workdir)
    config = _run_config(args, args.seed)
    result = train(bundle, config)
    save_checkpoint(result.params, workdir / "checkpoint.json")
    atomic_write_text(
        workdir / "run_config.json", json.dumps(config.to_dict(), indent=2) + "\n"
    )
    write_csv(workdir / "history.csv", ["epoch", "split", "loss", "objective"], result.history)
    print(
        f"trained {config.backbone.value} on {config.task.value}: "
        f"best validation objective {result.best_objective:.6f} at epoch "
        f"{result.best_epoch} ({result.epochs_run} epochs run) -> {workdir}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    bundle = _load_bundle(workdir)
    config = RunConfig.from_dict(
        json.loads((workdir / "run_config.json").read_text("utf-8"))
    )
    path = workdir / "checkpoint.json"
    params = load_checkpoint(path)
    _check_checkpoint(params, path, config, bundle)
    report = train_eval.evaluate(
        params, bundle.split.test, config.task, bundle.vocab_size,
        backbone=config.backbone, graph=bundle.graph,
    )
    payload = {
        "task": report.task.value,
        "n_runs": report.n_runs,
        "metrics": {k: round(v, 6) for k, (v, _) in sorted(report.mean_and_std.items())},
        "fingerprint": train_eval.config_fingerprint(config, bundle.digest),
    }
    atomic_write_text(workdir / "metrics.json", json.dumps(payload, indent=2) + "\n")
    for name, value in sorted(payload["metrics"].items()):
        print(f"{name}: {value:.6f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    workdir = Path(args.workdir)
    # each cell's run seed comes from --seeds
    result = ablate(_load_bundle(workdir), _run_config(args, 0), seeds)
    header, rows = train_eval.results_csv_rows(result)
    write_csv(workdir / "results.csv", header, rows)
    atomic_write_text(workdir / "summary.md", train_eval.render_summary(result))
    print(f"ablation over seeds {seeds} -> {workdir / 'results.csv'}")
    for backbone in (Backbone.DIAGMLP, Backbone.GCN):
        for name in sorted({m for r in result.reports.values() for m in r.per_run}):
            print(f"{backbone.value} {name}: {result.mean(backbone, name):.6f}")
    return 0


# (variant, features, trained backbone) of each separability row
REPORT_VARIANTS = (
    ("raw", SeparabilityMode.RAW_CONCAT, Backbone.DIAGMLP),
    ("mlp_trunk", SeparabilityMode.MODEL_EMBED, Backbone.DIAGMLP),
    ("gcn_trunk", SeparabilityMode.MODEL_EMBED, Backbone.GCN),
)


def cmd_report(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    bundle = _load_bundle(workdir)
    base = _run_config(args, args.seed)
    checkpoints = {
        backbone: train(bundle, dataclasses.replace(base, backbone=backbone)).params
        for backbone in (Backbone.DIAGMLP, Backbone.GCN)
    }
    variants = [
        (name, *train_eval.separability_report(
            bundle.split.test, mode, checkpoints[backbone], bundle.vocab_size,
            backbone=backbone, graph=bundle.graph,
        ))
        for name, mode, backbone in REPORT_VARIANTS
    ]
    point_rows = []
    score_rows = []
    for name, points, labels, score in variants:
        score_rows.append([name, round(float(score), 6)])
        for (x, y), label in zip(points, labels):
            point_rows.append([name, round(float(x), 6), round(float(y), 6), int(label)])
    write_csv(workdir / "separability.csv", ["variant", "x", "y", "label"], point_rows)
    write_csv(workdir / "separability_scores.csv", ["variant", "silhouette"], score_rows)
    for name, _, _, score in variants:
        print(f"{name} silhouette: {score:.6f}")
    print(f"-> {workdir / 'separability.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microdiag",
        description="Synthetic microservice fault diagnosis: simulate, "
        "preprocess, train, evaluate, ablate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_model_flags(p):
        p.add_argument("--task", choices=[t.value.lower() for t in Task],
                       default=RunConfig.task.value.lower(),
                       help="diagnosis task (default %(default)s)")
        p.add_argument("--d", type=int, default=RunConfig.d,
                       help="embedding width (default %(default)s)")
        p.add_argument("--hidden", type=int, default=RunConfig.hidden,
                       help="fusion width (default %(default)s)")

    p = sub.add_parser("simulate", help="generate telemetry for a scenario")
    p.add_argument("--scenario", default="local",
                   help=f"preset name ({', '.join(PRESETS)}) or scenario JSON file")
    p.add_argument("--seed", type=int, default=0, help="simulation seed (default %(default)s)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="turn staged telemetry into windows")
    p.add_argument("--in", dest="indir", required=True,
                   help="directory from simulate; its scenario.json sets window length and stride")
    p.add_argument("--out", default=None, help="output directory (default: --in)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one model on staged windows")
    p.add_argument("--workdir", required=True,
                   help="directory with windows.jsonl + scaler.json from preprocess")
    p.add_argument("--seed", type=int, default=0, help="run seed (default %(default)s)")
    p.add_argument("--backbone", choices=[b.value.lower() for b in Backbone],
                   default=RunConfig.backbone.value.lower(),
                   help="model backbone (default %(default)s)")
    common_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained checkpoint on the test split")
    p.add_argument("--workdir", required=True, help="directory with checkpoint.json from train")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the backbone comparison over seeds")
    p.add_argument("--seeds", default="1,2,3,4,5",
                   help="comma-separated distinct run seeds (default %(default)s)")
    p.add_argument("--workdir", required=True,
                   help="directory from preprocess; results.csv and summary.md go there")
    common_model_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="emit 2D separability tables for raw and trunk features")
    p.add_argument("--seed", type=int, default=1,
                   help="run seed of both trained backbones (default %(default)s)")
    p.add_argument("--workdir", required=True,
                   help="directory from preprocess; the separability tables go there")
    common_model_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
