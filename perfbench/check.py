"""Run the benchmark over several seeds; report spreads and compare sets.

    python3 perfbench/check.py --workloads stream,serve --seeds 1-5
    python3 perfbench/check.py --workloads chess --seeds 1-3 --save base.json
    python3 perfbench/check.py --workloads chess --seeds 1-3 --against base.json

For each workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of the median,
beside the bound ``BENCHMARK.json`` fixes.  ``--against`` compares the new
medians with a saved set and exits 1 if any end-to-end metric got worse by
more than its bound.  Every run is its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, trace: int,
             env: dict | None = None) -> dict:
    """One benchmark run in a fresh process; its parsed result line."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def collect(workloads, seeds, seconds) -> dict:
    """``{workload: [result, ...]}`` of untraced runs over ``seeds``."""
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            runs.setdefault(workload, []).append(result)
    return runs


def spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def summarize(runs: dict) -> dict:
    """``{workload: {metric: {"median", "spread", "values"}}}``."""
    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            summary[workload][name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
    return summary


def worse_by(metric: str, base: float, other: float) -> float:
    """How much worse end-to-end ``other`` is than ``base``, as a share."""
    change = (other - base) / abs(base)
    return change if E2E[metric]["better"] == "lower" else -change


def regressions(base: dict, other: dict) -> list[tuple[str, str, float]]:
    """End-to-end (workload, metric, worse_by) pairs beyond their bound."""
    found = []
    for workload, metrics in other.items():
        for name, entry in metrics.items():
            if name in E2E and workload in base:
                worse = worse_by(name, base[workload][name]["median"], entry["median"])
                if worse > E2E[name]["bound"]:
                    found.append((workload, name, worse))
    return found


def render(summary: dict) -> str:
    lines = []
    for workload, metrics in summary.items():
        lines.append(f"== {workload}")
        for name, entry in metrics.items():
            bound = E2E.get(name, {}).get("bound")
            note = "" if bound is None else f"  bound {bound:.2f}  (1/3: {bound / 3:.3f})"
            lines.append(
                f"  {name:28s} median {entry['median']:14.6g}  "
                f"spread {entry['spread']:.4f}{note}"
            )
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="austral,chess,serve,stream")
    parser.add_argument("--seeds", default="1-5", help="'1-5' or '1,4,9'")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--save", help="write the summary as JSON here")
    parser.add_argument("--against", help="saved summary to compare with")
    args = parser.parse_args(argv)

    runs = collect(args.workloads.split(","), parse_seeds(args.seeds), args.seconds)
    summary = summarize(runs)
    print(render(summary))
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    failed = sum(r["failed"] for results in runs.values() for r in results)
    if failed:
        print(f"{failed} failed operations", file=sys.stderr)
    if args.against:
        base = json.loads(Path(args.against).read_text(encoding="utf-8"))
        found = regressions(base, summary)
        for workload, name, worse in found:
            print(f"REGRESSED {workload} {name}: {100 * worse:+.1f}% "
                  f"(bound {100 * E2E[name]['bound']:.0f}%)")
        return 1 if found or failed else 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
