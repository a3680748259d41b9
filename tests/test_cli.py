"""The command-line chain end to end on the tiny scenario, the separability
report, and the exit status of an ablation with a failing cell."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import shutil

import numpy as np
import pytest

from microdiag import autodiff as ad
from microdiag import cli, models, train_eval
from microdiag.serialize import faults_to_json, load_checkpoint, serialize_stream
from microdiag.train_eval import AblateResult, MetricsReport
from microdiag.types import Backbone, RunConfig, Task

from conftest import TINY_SPEC

CHAIN_FILES = (
    "telemetry.jsonl", "graph.json", "faults.json", "scenario.json",
    "windows.jsonl", "templates.json", "scaler.json", "checkpoint.json", "run_config.json",
    "history.csv", "metrics.json",
)


def run_chain(scenario_path, out):
    for argv in (
        ["simulate", "--scenario", str(scenario_path), "--seed", "7", "--out", str(out)],
        ["preprocess", "--in", str(out)],
        ["train", "--workdir", str(out), "--seed", "1", "--task", "detect", "--d", "4",
         "--hidden", "8"],
        ["evaluate", "--workdir", str(out)],
    ):
        assert cli.main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_chain_is_byte_identical_on_rerun(tmp_path, capsys, tiny_bundle):
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(TINY_SPEC.to_dict()), "utf-8")
    first = run_chain(scenario, tmp_path / "a")
    second = run_chain(scenario, tmp_path / "b")
    assert set(CHAIN_FILES) <= set(first)
    assert first == second
    # `preprocess` and `prepare_dataset` share one preparation path
    # (tiny_bundle is the dataset of TINY_SPEC at seed 7)
    assert first["windows.jsonl"] == tiny_bundle[2]
    metrics = json.loads(first["metrics.json"])
    assert metrics["task"] == "DETECT" and sorted(metrics["metrics"]) == ["f1", "precision", "recall"]
    assert "f1:" in capsys.readouterr().out


def test_chain_with_separate_preprocess_dir(tmp_path, capsys):
    # train and evaluate read the graph preprocessing observed (scaler.json),
    # so a windows directory apart from the telemetry one is complete
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(TINY_SPEC.to_dict()), "utf-8")
    in_place = run_chain(scenario, tmp_path / "a")
    sim, out = tmp_path / "sim", tmp_path / "out"
    for argv in (
        ["simulate", "--scenario", str(scenario), "--seed", "7", "--out", str(sim)],
        ["preprocess", "--in", str(sim), "--out", str(out)],
        ["train", "--workdir", str(out), "--seed", "1", "--task", "detect", "--d", "4",
         "--hidden", "8"],
        ["evaluate", "--workdir", str(out)],
    ):
        assert cli.main(argv) == 0, argv
    assert not (out / "graph.json").exists()
    assert (out / "metrics.json").read_bytes() == in_place["metrics.json"]


def test_chain_metrics_recompute_from_the_checkpoint_in_float64(tmp_path, capsys, tiny_bundle):
    # training steps run in float32, but what `evaluate` scores is the
    # float64 forward pass of the float64 checkpoint: recomputing the metrics
    # that way from checkpoint.json gives metrics.json exactly
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(TINY_SPEC.to_dict()), "utf-8")
    files = run_chain(scenario, tmp_path / "a")
    params = load_checkpoint(tmp_path / "a" / "checkpoint.json")
    # (tiny_bundle is the dataset of TINY_SPEC at seed 7, as the chain builds it)
    bundle = tiny_bundle[0]
    batch = models.windows_to_batch(bundle.split.test, bundle.vocab_size)
    logits = models.forward_graph({k: ad.constant(v) for k, v in params.items()}, batch,
                                  Task.DETECT, Backbone.DIAGMLP, None).data
    assert logits.dtype == np.float64
    truth, preds = batch.anomalous == 1, logits.argmax(axis=1) == 1
    tp, fp, fn = int(np.sum(truth & preds)), int(np.sum(~truth & preds)), int(np.sum(truth & ~preds))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    want = {"f1": round(f1, 6), "precision": round(p, 6), "recall": round(r, 6)}
    assert json.loads(files["metrics.json"])["metrics"] == want


# sha256 of the two tables `report` writes for TINY_SPEC at seed 7
REPORT_DIGESTS = {
    "separability.csv": "a6637c0b920479e479dbc269f700a2e7030b3907f2c28306a9ef4d90bc390a52",
    "separability_scores.csv": "6a262f882452f6fbe8db4f66b8e6239ff4d48f6bf45608f658bc61f667ebf6ba",
}


def test_report_tables(tmp_path, capsys, tiny_bundle, tiny_workdir):
    # `report` reads the staged windows of TINY_SPEC at seed 7 and writes its
    # tables beside them; each run works on its own copy of the work directory
    def report(out):
        shutil.copytree(tiny_workdir, out)
        argv = ["report", "--seed", "7", "--workdir", str(out), "--d", "4", "--hidden", "8"]
        assert cli.main(argv) == 0
        return {name: (out / name).read_bytes() for name in REPORT_DIGESTS}

    first = report(tmp_path / "a")
    printed = capsys.readouterr().out.splitlines()
    assert report(tmp_path / "b") == first
    variants = ("raw", "mlp_trunk", "gcn_trunk")
    scores = list(csv.reader(io.StringIO(first["separability_scores.csv"].decode())))
    assert scores[0] == ["variant", "silhouette"] and [r[0] for r in scores[1:]] == list(variants)
    assert all(-1.0 <= float(r[1]) <= 1.0 for r in scores[1:])
    for name, (_, value) in zip(variants, scores[1:]):
        assert f"{name} silhouette: {float(value):.6f}" in printed
    # one 2D point per anomalous test window and variant
    # (tiny_bundle is the dataset of TINY_SPEC at seed 7, as tiny_workdir stages it)
    n_anomalous = sum(w.label_anomalous for w in tiny_bundle[0].split.test)
    points = list(csv.reader(io.StringIO(first["separability.csv"].decode())))
    assert points[0] == ["variant", "x", "y", "label"]
    assert len(points) - 1 == 3 * n_anomalous > 0
    assert {r[0] for r in points[1:]} == set(variants)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in first.items()} == REPORT_DIGESTS


@pytest.mark.parametrize("command", [["preprocess", "--in", "sim"], ["ablate", "--workdir", "x"],
                                     ["report", "--workdir", "x"]])
@pytest.mark.parametrize("flag", ["--window", "--stride"])
def test_window_flags_are_rejected(command, flag, capsys):
    # window length and stride come from the scenario only
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(command + [flag, "60"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 60" in capsys.readouterr().err


# every option of each command; each one changes what the command does
OPTIONS = {
    "simulate": ["--out", "--scenario", "--seed"],
    "preprocess": ["--in", "--out"],
    "train": ["--backbone", "--d", "--hidden", "--seed", "--task", "--workdir"],
    "evaluate": ["--workdir"],
    "ablate": ["--d", "--hidden", "--seeds", "--task", "--workdir"],
    "report": ["--d", "--hidden", "--seed", "--task", "--workdir"],
}


def test_each_command_takes_exactly_its_options():
    # an option with no effect (a --backbone that ablate overwrites, a
    # --dropout no caller sets) cannot come back unnoticed
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 22


@pytest.mark.parametrize("command", ["train", "ablate", "report"])
def test_model_flags_default_to_run_config(command):
    args = cli.build_parser().parse_args([command, "--workdir", "x"])
    assert cli._run_config(args, 3) == RunConfig(seed=3)


@pytest.mark.parametrize("target, detail", [
    (99, "fault 0 (CRASH at 60000 ms) targets node 99, but the stream has 5 nodes"),
    (-1, "target_node and start_ms must be non-negative, got -1 and 60000 ms"),
    (1.0, "target_node must be an int, got 1.0"),
])
def test_preprocess_names_a_bad_fault(tmp_path, capsys, tiny_workdir, target, detail):
    # checked when faults.json is read, not left to fail inside training
    for name in ("telemetry.jsonl", "scenario.json"):
        shutil.copy(tiny_workdir / name, tmp_path / name)
    fault = {"target_node": target, "fault_type": "CRASH", "start_ms": 60_000,
             "duration_ms": 45_000, "severity": 0.9, "propagation_factor": 0.0}
    (tmp_path / "faults.json").write_text(json.dumps([fault]), "utf-8")
    assert cli.main(["preprocess", "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert not (tmp_path / "windows.jsonl").exists()


@pytest.mark.parametrize("argv", [["train", "--seed", "3"], ["evaluate"]])
def test_train_and_evaluate_require_workdir(argv, capsys):
    # the windows come from an earlier preprocess, so no default could name them
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --workdir" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "report"])
def test_ablate_and_report_read_a_staged_workdir(command, capsys):
    # both read the windows of an earlier preprocess, never a scenario
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --workdir" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--workdir", "x", "--scenario", "local"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scenario local" in capsys.readouterr().err


def test_simulate_reads_the_scenario_json_it_wrote(tmp_path, capsys, tiny_workdir):
    # --scenario takes the spec out of scenario.json; --seed still sets the seed
    out = tmp_path / "again"
    argv = ["simulate", "--scenario", str(tiny_workdir / "scenario.json"), "--seed", "7",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "telemetry.jsonl").read_bytes() == (tiny_workdir / "telemetry.jsonl").read_bytes()


def test_preprocess_requires_scenario_json(tmp_path, capsys, tiny_sim):
    _, _, faults, stream = tiny_sim
    (tmp_path / "telemetry.jsonl").write_bytes(serialize_stream(stream))
    (tmp_path / "faults.json").write_text(faults_to_json(faults), "utf-8")
    assert cli.main(["preprocess", "--in", str(tmp_path)]) == 1
    assert str(tmp_path / "scenario.json") in capsys.readouterr().err
    assert not (tmp_path / "windows.jsonl").exists()


def test_preprocess_names_a_missing_fault_field(tmp_path, capsys, tiny_workdir):
    for name in ("telemetry.jsonl", "scenario.json"):
        shutil.copy(tiny_workdir / name, tmp_path / name)
    faults = json.loads((tiny_workdir / "faults.json").read_text("utf-8"))
    for fault in faults:
        del fault["severity"]
    (tmp_path / "faults.json").write_text(json.dumps(faults), "utf-8")
    assert cli.main(["preprocess", "--in", str(tmp_path)]) == 1
    assert "error: missing fault fields: ['severity']" in capsys.readouterr().err
    assert not (tmp_path / "windows.jsonl").exists()


def fake_ablation() -> AblateResult:
    def report(f1):
        return MetricsReport(Task.DETECT, {"precision": [f1], "recall": [f1], "f1": [f1]})

    reports = {("DIAGMLP", 1): report(0.5), ("DIAGMLP", 2): report(0.75),
               ("GCN", 1): report(1.0), ("GCN", 2): report(0.5)}
    return AblateResult(task=Task.DETECT, seeds=[1, 2], reports=reports)


def test_ablate_scores_the_staged_dataset(tmp_path, monkeypatch, capsys, tiny_bundle,
                                         tiny_workdir):
    # the staged bundle is the one `prepare_dataset` builds in memory
    seen = []

    def fake(bundle, *args):
        seen.append(bundle)
        return fake_ablation()

    monkeypatch.setattr(cli, "ablate", fake)
    workdir = shutil.copytree(tiny_workdir, tmp_path / "w")
    assert cli.main(["ablate", "--seeds", "1,2", "--workdir", str(workdir)]) == 0
    want = tiny_bundle[0]
    assert [(b.digest, b.graph, b.nodes, b.vocab_size) for b in seen] == [
        (want.digest, want.graph, want.nodes, want.vocab_size)]


def test_ablate_writes_ok_cells_and_prints_means(tmp_path, monkeypatch, capsys, tiny_workdir):
    monkeypatch.setattr(cli, "ablate", lambda *a, **k: fake_ablation())
    workdir = shutil.copytree(tiny_workdir, tmp_path / "w")
    code = cli.main(["ablate", "--seeds", "1,2", "--workdir", str(workdir), "--task", "detect"])
    out, err = capsys.readouterr()
    assert (workdir / "results.csv").is_file() and (workdir / "summary.md").is_file()
    with open(workdir / "results.csv", newline="", encoding="utf-8") as fh:
        statuses = [(r["backbone"], r["seed"], r["value"])
                    for r in csv.DictReader(fh) if r["metric"] == "status"]
    assert statuses == [("DIAGMLP", "1", "ok"), ("DIAGMLP", "2", "ok"), ("GCN", "1", "ok"),
                        ("GCN", "2", "ok")]
    assert code == 0 and err == ""
    assert "DIAGMLP f1: 0.625000" in out and "GCN f1: 0.750000" in out


def test_ablate_failing_cell_exits_1_and_writes_no_tables(tmp_path, monkeypatch, capsys,
                                                          tiny_workdir):
    # the real `ablate` over one-epoch runs, whose GCN seed 2 cell fails
    real = train_eval.train

    def flaky(bundle, config, *args):
        if (config.backbone, config.seed) == (Backbone.GCN, 2):
            raise ValueError("boom")
        return real(bundle, dataclasses.replace(config, max_epochs=1), *args)

    monkeypatch.setattr(train_eval, "train", flaky)
    workdir = shutil.copytree(tiny_workdir, tmp_path / "w")
    code = cli.main(["ablate", "--seeds", "1,2", "--workdir", str(workdir), "--task", "detect",
                     "--d", "4", "--hidden", "8"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: ablation cell GCN seed 2: ValueError: boom\n"
    assert out == ""
    assert not (workdir / "results.csv").exists() and not (workdir / "summary.md").exists()


@pytest.mark.parametrize("wrapped", [True, False], ids=["under-scenario", "bare-spec"])
def test_preprocess_reads_no_seed(tmp_path, capsys, tiny_workdir, wrapped):
    # preprocessing draws nothing, so scenario.json needs only the spec; it is
    # read as `simulate --scenario` reads it, under "scenario" or bare
    for name in ("telemetry.jsonl", "faults.json"):
        shutil.copy(tiny_workdir / name, tmp_path / name)
    spec = json.loads((tiny_workdir / "scenario.json").read_text("utf-8"))["scenario"]
    (tmp_path / "scenario.json").write_text(
        json.dumps({"scenario": spec} if wrapped else spec), "utf-8")
    assert cli.main(["preprocess", "--in", str(tmp_path)]) == 0
    assert (tmp_path / "windows.jsonl").read_bytes() == (tiny_workdir / "windows.jsonl").read_bytes()


def test_run_config_holds_what_a_run_varies(tmp_path, capsys, tiny_workdir):
    # the optimizer protocol is constants of the code, not fields of a run
    out = tmp_path / "w"
    shutil.copytree(tiny_workdir, out)
    argv = ["train", "--workdir", str(out), "--seed", "1", "--task", "detect", "--d", "4",
            "--hidden", "8"]
    assert cli.main(argv) == 0
    saved = json.loads((out / "run_config.json").read_text("utf-8"))
    assert saved == {"seed": 1, "task": "DETECT", "backbone": "DIAGMLP", "d": 4, "hidden": 8,
                     "max_epochs": 200, "patience": 20}


@pytest.mark.parametrize("edit", [lambda s: s.pop("graph"), lambda s: s.update(graph=5), None],
                         ids=["no-graph", "graph-not-an-object", "not-an-object"])
def test_scaler_json_without_a_graph_is_named(tmp_path, capsys, tiny_workdir, edit):
    workdir = shutil.copytree(tiny_workdir, tmp_path / "w")
    scaler = json.loads((workdir / "scaler.json").read_text("utf-8"))
    if edit is None:
        scaler = [scaler]
    else:
        edit(scaler)
    (workdir / "scaler.json").write_text(json.dumps(scaler), "utf-8")
    assert cli.main(["train", "--workdir", str(workdir), "--d", "4", "--hidden", "8"]) == 1
    assert capsys.readouterr().err == (
        f'error: {workdir / "scaler.json"}: expected a JSON object with a "graph" object\n')
    assert not (workdir / "checkpoint.json").exists()


@pytest.fixture(scope="module")
def trained_workdir(tiny_workdir, tmp_path_factory):
    """A copy of the tiny work directory after `train` of a small DIAGMLP
    on DETECT."""
    workdir = shutil.copytree(tiny_workdir, tmp_path_factory.mktemp("trained") / "w")
    assert cli.main(["train", "--workdir", str(workdir), "--task", "detect", "--d", "4",
                     "--hidden", "8"]) == 0
    return workdir


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda ck: ck.pop("enc_log/conv1_b"),
         "tensor 'enc_log/conv1_b' is missing; the DIAGMLP DETECT model of run_config.json "
         "needs it with shape (16,)"),
        (lambda ck: ck["enc_log/conv1_b"].update(shape=[16, 1]),
         "tensor 'enc_log/conv1_b' has shape (16, 1); the DIAGMLP DETECT model of "
         "run_config.json needs (16,)"),
        (lambda ck: ck.update({"gcn/w1": {"shape": [8, 8], "values": [0.0] * 64}}),
         "unexpected tensor 'gcn/w1'; the DIAGMLP DETECT model of run_config.json has no "
         "such tensor"),
    ],
    ids=["missing", "mis-shaped", "unexpected"],
)
def test_evaluate_names_a_checkpoint_tensor_the_model_does_not_fit(
        tmp_path, capsys, trained_workdir, edit, detail):
    workdir = shutil.copytree(trained_workdir, tmp_path / "w")
    checkpoint = json.loads((workdir / "checkpoint.json").read_text("utf-8"))
    edit(checkpoint)
    (workdir / "checkpoint.json").write_text(json.dumps(checkpoint), "utf-8")
    capsys.readouterr()
    assert cli.main(["evaluate", "--workdir", str(workdir)]) == 1
    assert capsys.readouterr().err == f"error: {workdir / 'checkpoint.json'}: {detail}\n"
    assert not (workdir / "metrics.json").exists()
