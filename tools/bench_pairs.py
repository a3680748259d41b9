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
side), and whether a gain holds: at least nine tenths of the pairs won and
a median gap wider than the parent's interquartile range. Under "runs" it
gives each side's count of runs whose checks passed and its share of failed
operations (failed / attempted over every run), and whether the change's
share grew, which rejects the change on its own. With `--trace`,
one `--trace 1` run per side at seed 0 follows the pairs.

The result goes under `workloads[W]` (and `trace[W]`) of the `--out` file,
together with both sides' `src/` line counts; the file's other keys are
kept, so one file gathers every workload. Without `--out` it is printed.
Standard library only.
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


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3 by `statistics.quantiles(method='inclusive')`; one
    value is all three."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict[str, dict]:
    """Per metric (name -> "higher" or "lower" is better): both sides'
    quartiles, the pairs the change won, the change's median over the
    parent's, and whether a gain holds."""
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
    """One `perfbench/run.py` process in `checkout`; its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def flat(result: dict) -> dict:
    """A run's outcome and metric values as one flat record."""
    record = {k: result[k] for k in ("correct", "attempted", "failed")}
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    return record




def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="one --trace 1 run per side after the pairs")
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
    summary = summarize(pairs, {m["name"]: m["better"] for m in spec["end_to_end"]})
    summary["runs"] = run_outcomes(pairs)
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summary}
    if args.trace:
        doc.setdefault("trace", {})[args.workload] = {
            side: flat(run_benchmark(d, args.workload, 0, seconds, 1))
            for side, d in dirs.items()
        }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
