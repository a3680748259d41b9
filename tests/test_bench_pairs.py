"""The statistics of `tools/bench_pairs.py` on fixed numbers."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_inclusive_quartiles():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    # inclusive: the quartiles interpolate between the data, never past them
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_higher_is_better_gain_holds():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 102.0, 98.0, 101.0, 99.0]
    change = [p * 1.2 for p in parent]
    change[3] = 90.0  # one lost pair of ten still holds
    s = bench_pairs.summarize(pairs_of(parent, change, "items_per_s"),
                              {"items_per_s": "higher"}, {"items_per_s": 0.25})["items_per_s"]
    assert s["parent"] == {"q1": 98.25, "median": 100.0, "q3": 101.75}
    assert s["change_better_pairs"] == "9/10"
    assert s["median_ratio_change_over_parent"] == pytest.approx(s["change"]["median"] / 100.0)
    assert s["gain_holds"]


def test_lower_is_better_counts_falls_as_wins_and_ties_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 10.0, 11.0, 8.0]
    s = bench_pairs.summarize(pairs_of(parent, change, "wall_s"), {"wall_s": "lower"},
                              {"wall_s": 0.25})["wall_s"]
    assert s["change_better_pairs"] == "2/4"
    assert not s["gain_holds"]


def test_gain_needs_a_median_gap_wider_than_the_parent_spread():
    # every pair won, but by less than the parent's own interquartile range
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]
    change = [p + 5.0 for p in parent]
    s = bench_pairs.summarize(pairs_of(parent, change, "x"), {"x": "higher"}, {"x": 0.25})["x"]
    assert s["change_better_pairs"] == "5/5"
    assert s["parent"]["q3"] - s["parent"]["q1"] == 20.0
    assert not s["gain_holds"]


@pytest.mark.parametrize("shift, want", [(2.0, "within_bound"), (2.2, "worse_than_bound")])
def test_verdict_bounds_the_median_by_a_share_of_the_parent_median(shift, want):
    # lower is better: median 8.4, so a bound of 0.25 allows 2.1 s more;
    # the parent's interquartile range, 0.4, is narrower than that
    parent = [8.0, 8.2, 8.4, 8.6, 8.8]
    change = [p + shift for p in parent]
    assert bench_pairs.verdict(parent, change, "lower", 0.25) == want
    # higher is better: a fall is worse, a rise of any size is not
    assert bench_pairs.verdict([100.0] * 5, [76.0] * 5, "higher", 0.25) == "within_bound"
    assert bench_pairs.verdict([100.0] * 5, [74.0] * 5, "higher", 0.25) == "worse_than_bound"
    assert bench_pairs.verdict([100.0] * 5, [900.0] * 5, "higher", 0.25) == "within_bound"


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # q1 80, q3 120: an interquartile range of 40 against 0.25 x 100
    parent = [50.0, 80.0, 100.0, 120.0, 150.0]
    assert bench_pairs.verdict(parent, list(parent), "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict(parent, list(parent), "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(parent, [151.0, 160.0, 170.0], "higher", 0.25) == "within_bound"
    assert bench_pairs.verdict(parent, [10.0, 49.0, 20.0], "lower", 0.25) == "within_bound"
    assert bench_pairs.verdict(parent, [10.0, 50.0, 20.0], "lower", 0.25) == "unresolved"
    # a worse median is named as such, however wide the spread
    assert bench_pairs.verdict(parent, [p + 30.0 for p in parent], "lower", 0.25) == \
        "worse_than_bound"


def test_summary_gives_a_verdict_per_bounded_metric():
    pairs = [{"parent": {"wall_s": p, "peak_rss_mb": 100.0},
              "change": {"wall_s": p, "peak_rss_mb": 111.0}} for p in (8.0, 8.4, 8.8)]
    metrics = {"wall_s": "lower", "peak_rss_mb": "lower"}
    out = bench_pairs.summarize(pairs, metrics, {"wall_s": 0.25, "peak_rss_mb": 0.1})
    assert out["wall_s"]["verdict"] == "within_bound"
    assert out["peak_rss_mb"]["verdict"] == "worse_than_bound"


def test_run_outcomes_count_correct_runs_and_flag_a_growing_failed_share():
    def run(correct, attempted, failed):
        return {"correct": correct, "attempted": attempted, "failed": failed}

    pairs = [
        {"parent": run(True, 48, 0), "change": run(True, 48, 1)},
        {"parent": run(False, 48, 2), "change": run(True, 50, 0)},
        {"parent": run(True, 48, 0), "change": run(False, 50, 1)},
    ]
    out = bench_pairs.run_outcomes(pairs)
    assert out["parent"] == {"correct_runs": 2, "failed_share": 2 / 144}
    assert out["change"] == {"correct_runs": 2, "failed_share": 2 / 148}
    assert not out["failed_share_grew"]
    pairs[0]["change"]["failed"] = 3  # 4 of 148 against 2 of 144
    assert bench_pairs.run_outcomes(pairs)["failed_share_grew"]
    # an equal share, zero on both sides included, does not grow
    clean = [{"parent": run(True, 10, 0), "change": run(True, 12, 0)}]
    assert bench_pairs.run_outcomes(clean) == {
        "parent": {"correct_runs": 1, "failed_share": 0.0},
        "change": {"correct_runs": 1, "failed_share": 0.0},
        "failed_share_grew": False,
    }


def test_src_lines_counts_like_wc(tmp_path):
    pkg = tmp_path / "src" / "microdiag"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline, as wc -l counts
    (pkg / "notes.txt").write_text("ignored\n")
    assert bench_pairs.src_lines(tmp_path) == {"a.py": 2, "b.py": 0, "total": 2}


@pytest.mark.parametrize("stdout", ["", "round 0: 1.000 s\n"], ids=["no-stdout", "not-json"])
def test_a_crashed_run_is_named(tmp_path, stdout):
    # a run that dies before its JSON line names the command, the checkout,
    # the exit code and the end of stderr, whatever it printed to stdout
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"sys.stdout.write({stdout!r})\n"
        "sys.stderr.write('Traceback (most recent call last):\\n"
        "RuntimeError: ablation cell GCN seed 2: ValueError: boom\\n')\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as info:
        bench_pairs.run_benchmark(tmp_path, "ablate", 3, 1.0, 0)
    message = str(info.value)
    assert message.startswith(f"{sys.executable} perfbench/run.py --workload ablate --seed 3 "
                              f"--seconds 1.0 --trace 0 in {tmp_path} printed no JSON result "
                              "(exit 1): Traceback (most recent call last):")
    assert message.endswith("RuntimeError: ablation cell GCN seed 2: ValueError: boom\n")


SPEC = {"run_seconds": 1, "end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "better": "higher", "bound": 0.25}]}


def run_main(tmp_path, monkeypatch, capsys, result):
    """`main` over 4 pairs whose runs `result(side, seed)` gives; its exit
    status, its stderr lines and the file it wrote."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(SPEC), "utf-8")
    monkeypatch.setattr(bench_pairs, "run_benchmark",
                        lambda checkout, workload, seed, seconds, trace:
                        result(checkout.name, seed))
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "4", "--out", str(out)])
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("pair ")]
    return code, lines, json.loads(out.read_text("utf-8"))


def bench_run(wall_s, items_per_s=100.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s}, "items_per_s": {"value": items_per_s}}}


@pytest.mark.parametrize(
    "result, want",
    [
        (lambda side, seed: bench_run(10.0 if side == "parent" else 13.0),
         ["w: wall_s: worse_than_bound, median 10 -> 13, parent IQR 0"]),
        (lambda side, seed: bench_run(10.0, failed=int(side == "change")),
         ["w: failed share grew: 0 -> 0.1"]),
        (lambda side, seed: bench_run(10.0, correct=side == "parent" or seed != 2),
         ["w: change: 3 of 4 runs correct"]),
    ],
    ids=["worse-metric", "failed-share-grew", "a-failed-check"],
)
def test_main_exits_1_on_what_rejects_the_change(tmp_path, monkeypatch, capsys, result, want):
    code, lines, doc = run_main(tmp_path, monkeypatch, capsys, result)
    assert (code, lines) == (1, want)
    assert doc["workloads"]["w"]["summary"]["runs"]["parent"]["correct_runs"] == 4


def test_main_prints_unresolved_metrics_and_exits_0(tmp_path, monkeypatch, capsys):
    spread = (6.0, 9.0, 11.0, 14.0)  # parent IQR 3.5 against 0.25 x 10
    code, lines, _ = run_main(tmp_path, monkeypatch, capsys,
                              lambda side, seed: bench_run(spread[seed]))
    assert (code, lines) == (0, ["w: wall_s: unresolved, median 10 -> 10, parent IQR 3.5"])
    (tmp_path / "same").mkdir()
    code, lines, _ = run_main(tmp_path / "same", monkeypatch, capsys,
                              lambda side, seed: bench_run(10.0))
    assert (code, lines) == (0, [])
