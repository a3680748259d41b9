"""The statistics of `tools/bench_pairs.py` on fixed numbers."""

import importlib.util
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
                              {"items_per_s": "higher"})["items_per_s"]
    assert s["parent"] == {"q1": 98.25, "median": 100.0, "q3": 101.75}
    assert s["change_better_pairs"] == "9/10"
    assert s["median_ratio_change_over_parent"] == pytest.approx(s["change"]["median"] / 100.0)
    assert s["gain_holds"]


def test_lower_is_better_counts_falls_as_wins_and_ties_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 10.0, 11.0, 8.0]
    s = bench_pairs.summarize(pairs_of(parent, change, "wall_s"), {"wall_s": "lower"})["wall_s"]
    assert s["change_better_pairs"] == "2/4"
    assert not s["gain_holds"]


def test_gain_needs_a_median_gap_wider_than_the_parent_spread():
    # every pair won, but by less than the parent's own interquartile range
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]
    change = [p + 5.0 for p in parent]
    s = bench_pairs.summarize(pairs_of(parent, change, "x"), {"x": "higher"})["x"]
    assert s["change_better_pairs"] == "5/5"
    assert s["parent"]["q3"] - s["parent"]["q1"] == 20.0
    assert not s["gain_holds"]


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
