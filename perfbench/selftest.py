"""Fault self-test: a sleep in one layer must fail exactly what runs it.

    python3 perfbench/selftest.py              # seeds 1-3, every workload

Three sets of untraced runs over the same seeds, interleaved per seed in
alternating order so a machine that slows down over minutes burdens every
set alike.  Each fault run is paired with the baseline run of its seed; a
metric regresses when the median over seeds of its paired change is worse
than its bound in ``BENCHMARK.json``:

1. baseline;
2. a ``REPRO_FAULTS`` sleep at every ``mine:<class>`` point.  Mining runs
   in the ``austral`` and ``chess`` fits and in ``serve``'s setup (which
   fits the served model), so those must regress -- ``work_s`` on the fit
   workloads, ``setup_s`` on ``serve`` -- while every serving and every
   ``stream`` metric stays within its bound;
3. a sleep at ``serve_worker:claim``: only ``serve``'s measured metrics
   (``work_s``, ``lat_*``) may regress, and they must.

A traced ``chess`` run with and without the mining fault must attribute
the added time to ``mining.mine_s``.  ``repro trace diff --explain``
between the two traces must flag a path under the ``mining.mine`` span,
and its explain report must rank first a pattern that names that span.
The pattern may be the path's duration in either trace: side-unique
patterns tie on information gain, and either side names the layer.
A repeated traced run of each workload must give identical counts (the
``EXACT`` metrics).  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from check import BENCHMARK, E2E, ROOT, parse_seeds, run_once, worse_by

sys.path.insert(0, str(ROOT / "src"))
from repro.testing.faults import Fault, faults_env  # noqa: E402

OUT = ROOT / "perfbench" / "out"
#: Per class partition: chess and austral mine two partitions per fit, so
#: a fit slows by 6 s: 39% of chess's 15 s, clear of its 0.25 bound.
MINE_SLEEP_S = 3.0
#: Per request claimed by a serving worker.
CLAIM_SLEEP_S = 0.001
SERVING_METRICS = {"work_s", "lat_p50_ms", "lat_p99_ms"}
#: Counts a seed fixes exactly; a claim may rest on them.
EXACT = (
    "mining.patterns",
    "selection.selected",
    "classifiers.accuracy",
    "streaming.reselect_frac",
    "serving.dropped_items",
)


def _fault_env(point: str, seconds: float) -> dict:
    return faults_env(
        [Fault(point=point, action="sleep", times=-1, seconds=seconds)],
        OUT / "faults",
    )


def _expect(ok: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def _traced_chess(seed: int, env: dict | None, name: str) -> tuple[dict, Path]:
    result = run_once("chess", seed, 1, 1, env)
    trace = OUT / f"selftest-{name}.trace.jsonl"
    shutil.copyfile(OUT / f"chess-seed{seed}.trace.jsonl", trace)
    return result, trace


def _repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--workloads", default="austral,chess,serve,stream")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    failures: list[str] = []

    plans = {
        "baseline": None,
        f"sleep {MINE_SLEEP_S}s at mine:*": _fault_env("mine:*", MINE_SLEEP_S),
        f"sleep {CLAIM_SLEEP_S}s at serve_worker:claim": _fault_env(
            "serve_worker:claim", CLAIM_SLEEP_S
        ),
    }
    runs: dict[str, dict] = {plan: {} for plan in plans}
    for workload in workloads:
        for k, seed in enumerate(seeds):
            for plan in list(plans)[:: 1 if k % 2 == 0 else -1]:
                result = run_once(workload, seed, args.seconds, 0, plans[plan])
                print(f"{workload} seed {seed} {plan}: correct={result['correct']}")
                runs[plan].setdefault(workload, []).append(result)
    (OUT / "selftest-runs.json").write_text(json.dumps(runs, indent=1))
    base, mine, claim = runs.values()

    def flagged(other: dict, workload: str) -> set[str]:
        return {
            name
            for name, metric in E2E.items()
            if statistics.median(
                worse_by(name, b["metrics"][name]["value"], o["metrics"][name]["value"])
                for b, o in zip(base[workload], other[workload])
            ) > metric["bound"]
        }

    for workload, expected in (
        ("austral", {"work_s"}), ("chess", {"work_s"}), ("serve", {"setup_s"}),
        ("stream", set()),
    ):
        if workload in workloads:
            got = flagged(mine, workload)
            _expect(got == expected,
                    f"mine fault: {workload} regressed {sorted(got)}, "
                    f"expected {sorted(expected)}", failures)
    for workload in workloads:
        got = flagged(claim, workload)
        if workload == "serve":
            ok = bool(got) and got <= SERVING_METRICS
        else:
            ok = not got
        _expect(ok, f"claim fault: {workload} regressed {sorted(got)}", failures)

    print("# traced chess, without and with the mining fault")
    seed = seeds[0]
    layers_base, trace_base = _traced_chess(seed, None, "base")
    layers_mine, trace_mine = _traced_chess(
        seed, _fault_env("mine:*", MINE_SLEEP_S), "mine"
    )
    deltas = {
        name: layers_mine["metrics"][name]["value"] - entry["value"]
        for name, entry in layers_base["metrics"].items()
        if name.endswith("_s")
    }
    slowest = max(deltas, key=deltas.get)
    _expect(
        slowest == "mining.mine_s" and deltas[slowest] >= 1.5 * MINE_SLEEP_S,
        f"traced layer that slowed most: {slowest} (+{deltas[slowest]:.2f}s)",
        failures,
    )
    print("# seed discipline: a repeated traced run gives identical counts")
    again = {"chess": run_once("chess", seed, 1, 1)}
    first = {"chess": layers_base}
    for workload in workloads:
        if workload != "chess":
            first[workload] = run_once(workload, seed, 1, 1)
            again[workload] = run_once(workload, seed, 1, 1)
    for workload in workloads:
        counts = [
            {name: run["metrics"][name]["value"] for name in EXACT}
            for run in (first[workload], again[workload])
        ]
        _expect(counts[0] == counts[1],
                f"{workload} seed {seed} counts repeat: {counts[0]}", failures)

    top = _repro("trace", "top", str(trace_mine), "--limit", "8")
    print(top.stdout)
    diff = _repro("trace", "diff", str(trace_base), str(trace_mine),
                  "--explain", "--json")
    report = json.loads(diff.stdout) if diff.stdout else {}
    regressed = report.get("summary", {}).get("regressed", [])
    _expect(
        any("/mining.mine/" in f"{path}/" for path in regressed),
        f"trace diff regressed paths: {regressed}",
        failures,
    )
    explain = report.get("explain", {"error": "no --explain report"})
    top = (explain.get("entries") or [{}])[0]
    _expect(
        "error" not in explain
        and any("mining.mine" in item for item in top.get("items", ())),
        f"trace diff --explain top pattern: {top.get('items')}, more frequent "
        f"in {top.get('majority_class')} {explain.get('error', '')}",
        failures,
    )
    print(f"{len(failures)} expectation(s) failed" if failures else "all expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
