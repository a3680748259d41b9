#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized as a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        [--trace] [--out BENCH_topic.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` once in each,
one process at a time, the parent first when i is even. The run length S,
the end-to-end metrics and their directions come from CHANGE_DIR's
`BENCHMARK.json`. Per metric the summary gives each side's median and
inclusive quartiles, the pairs the change won (ties count for neither
side), whether a gain holds: at least nine tenths of the pairs won and a
median gap wider than the parent's interquartile range, and a no-regression
verdict against the metric's `bound` in `BENCHMARK.json` (see `verdict`).
Under "runs" it gives each side's count of runs whose checks passed and its
share of failed operations (failed / attempted over every run), and whether
the change's share grew, which rejects the change on its own. With
`--trace`, `TRACE_RUNS` `--trace 1` runs per side at seed 0 follow the
pairs, alternating which side goes first; `trace[W]` holds them and, per
metric, each side's median, min and max over them (see `trace_layers`).

The result goes under `workloads[W]` (and `trace[W]`) of the `--out` file,
together with both sides' `src/` line counts; the file's other keys are
kept, so one file gathers every workload. Without `--out` it is printed.
Then each unresolved metric, and each cause that rejects the change (see
`refusals`), is printed to stderr; the exit status is 1 when there is such a
cause, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# traced runs per side: enough for a median and a spread, few enough that
# tracing stays a small share of the pairs' time
TRACE_RUNS = 3


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3 by `statistics.quantiles(method='inclusive')`; one
    value is all three."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change keeps a metric within `bound`, a fraction of the
    parent's median: "worse_than_bound" when the change's median is worse
    than the parent's by more than that; "unresolved" when the parent's
    interquartile range is wider than that, unless every change run beats
    every parent run; "within_bound" otherwise."""
    sign = 1.0 if better == "higher" else -1.0
    qp, qc = quartiles(parent), quartiles(change)
    allowed = bound * abs(qp["median"])
    if sign * (qp["median"] - qc["median"]) > allowed:
        return "worse_than_bound"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if qp["q3"] - qp["q1"] > allowed and not beats_all:
        return "unresolved"
    return "within_bound"


def summarize(pairs: list[dict], metrics: dict[str, str],
              bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric (name -> "higher" or "lower" is better, and name -> bound):
    both sides' quartiles, the pairs the change won, the change's median
    over the parent's, whether a gain holds, and its `verdict`."""
    out = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": qp,
            "change": qc,
            "change_better_pairs": f"{wins}/{len(pairs)}",
            "median_ratio_change_over_parent": qc["median"] / qp["median"],
            "gain_holds": (wins >= math.ceil(0.9 * len(pairs))
                           and sign * (qc["median"] - qp["median"]) > qp["q3"] - qp["q1"]),
            "verdict": verdict(parent, change, better, bounds[name]),
        }
    return out


def run_outcomes(pairs: list[dict]) -> dict:
    """Per side: the runs whose checks passed and the share of attempted
    operations that failed; whether the change's share is above the parent's."""
    out = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        attempted = sum(r["attempted"] for r in runs)
        out[side] = {
            "correct_runs": sum(bool(r["correct"]) for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / attempted if attempted else 0.0,
        }
    out["failed_share_grew"] = out["change"]["failed_share"] > out["parent"]["failed_share"]
    return out


def src_lines(checkout: Path) -> dict[str, int]:
    """Lines per module of `src/microdiag`, as `wc -l` counts them, and the total."""
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((checkout / "src" / "microdiag").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` process in `checkout`; its last stdout line,
    which must be JSON. A run that crashed before printing it (no stdout, or a
    last line that is not JSON) raises a RuntimeError naming the command, the
    checkout, the exit code and the end of stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed no JSON result "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}") from exc


def flat(result: dict) -> dict:
    """A run's outcome and metric values as one flat record."""
    record = {k: result[k] for k in ("correct", "attempted", "failed")}
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    return record


def trace_layers(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per metric that every traced run reports, each side's median, min and
    max over its runs (side -> `flat` records)."""
    records = [r for side in SIDES for r in runs[side]]
    names = set.intersection(*map(set, records)) - {"correct", "attempted", "failed"}
    out = {}
    for name in sorted(names):
        out[name] = {}
        for side in SIDES:
            values = [r[name] for r in runs[side]]
            out[name][side] = {"median": statistics.median(values),
                               "min": min(values), "max": max(values)}
    return out


def refusals(summary: dict, n_pairs: int) -> tuple[list[str], list[str]]:
    """What rejects the change under the no-regression rule: a metric worse
    than its bound, a grown share of failed operations, a side with fewer
    correct runs than pairs; and, apart, the metrics left unresolved."""
    refused, unresolved = [], []
    for name, s in summary.items():
        if name == "runs":
            continue
        qp, qc = s["parent"], s["change"]
        detail = (f"{name}: {s['verdict']}, median {qp['median']:.4g} -> {qc['median']:.4g}, "
                  f"parent IQR {qp['q3'] - qp['q1']:.4g}")
        if s["verdict"] == "worse_than_bound":
            refused.append(detail)
        elif s["verdict"] == "unresolved":
            unresolved.append(detail)
    runs = summary["runs"]
    if runs["failed_share_grew"]:
        refused.append(f"failed share grew: {runs['parent']['failed_share']:.4g} -> "
                       f"{runs['change']['failed_share']:.4g}")
    for side in SIDES:
        if runs[side]["correct_runs"] < n_pairs:
            refused.append(f"{side}: {runs[side]['correct_runs']} of {n_pairs} runs correct")
    return refused, unresolved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help=f"{TRACE_RUNS} --trace 1 runs per side after the pairs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "seed": i, "first": order[0]}
        for side in order:
            pair[side] = flat(run_benchmark(dirs[side], args.workload, i, seconds, 0))
            print(f"pair {i} {side}: {json.dumps(pair[side])}", file=sys.stderr)
        pairs.append(pair)

    doc = json.loads(args.out.read_text("utf-8")) if args.out and args.out.exists() else {}
    doc["src_lines"] = {side: src_lines(d) for side, d in dirs.items()}
    summary = summarize(pairs, {m["name"]: m["better"] for m in spec["end_to_end"]},
                        {m["name"]: m["bound"] for m in spec["end_to_end"]})
    summary["runs"] = run_outcomes(pairs)
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summary}
    if args.trace:
        runs = {side: [] for side in SIDES}
        for i in range(TRACE_RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(flat(run_benchmark(dirs[side], args.workload, 0, seconds, 1)))
        doc.setdefault("trace", {})[args.workload] = {"runs": runs, "layers": trace_layers(runs)}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    refused, unresolved = refusals(summary, args.pairs)
    for line in unresolved + refused:
        print(f"{args.workload}: {line}", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
