"""Scoring-throughput benchmark: scalar loop vs vectorized kernels.

The tentpole claim of the vectorized scoring layer is quantitative: at
10k candidate patterns, building the batched ``(k, m)`` contingency arrays
and scoring them with the numpy kernels must beat the per-pattern
``PatternStats`` loop by at least 5x end to end (tables + all three
measure families).  Both paths run over the same mined candidate set on
the same cached packed bitsets (the scalar loop is the reference of
``tests/oracles/scoring.py``), so the ratio isolates exactly what the
vectorization removed: per-pattern Python object construction and the
per-pattern measure calls.

Writes ``BENCH_scoring.json`` with the wall times, the per-measure
breakdown and the speedup, and asserts the 5x floor.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.datasets import SyntheticSpec, TransactionDataset, generate
from repro.measures import (
    batch_contingency_tables,
    chi2_batch,
    fisher_score_batch,
    information_gain_batch,
)
from repro.mining import Pattern, mine_class_patterns
from tests.oracles.scoring import (
    batch_pattern_stats,
    chi2 as chi2_scalar,
    fisher_score,
    information_gain,
)

#: Candidate-set size the 5x claim is made at.
N_PATTERNS = 10_000
#: Minimum end-to-end speedup of the vectorized path.
SPEEDUP_FLOOR = 5.0

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scoring.json"


def _candidate_set(n_patterns: int) -> tuple[TransactionDataset, list[Pattern]]:
    """A mined candidate set padded/trimmed to exactly ``n_patterns``."""
    spec = SyntheticSpec(
        name="scoring-bench",
        n_rows=2000,
        n_attributes=12,
        n_classes=2,
        arity=3,
        pattern_attributes=4,
        combos_per_class=3,
        pattern_strength=0.8,
        single_attributes=2,
        single_strength=0.3,
        attribute_noise=0.05,
        label_noise=0.02,
        seed=11,
    )
    data = TransactionDataset.from_dataset(generate(spec))
    mined = mine_class_patterns(
        data, min_support=0.01, miner="all", max_length=5,
        max_patterns=500_000,
    )
    patterns = list(mined.patterns)
    rng = np.random.default_rng(13)
    while len(patterns) < n_patterns:
        # Pad with random itemsets: support may be 0, which the scoring
        # conventions must handle anyway.
        items = tuple(
            int(i) for i in np.sort(rng.choice(data.n_items, size=3, replace=False))
        )
        patterns.append(Pattern(items=items, support=0))
    return data, patterns[:n_patterns]


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_scoring_speedup(report_lines, trend):
    data, patterns = _candidate_set(N_PATTERNS)
    data.item_bits()  # warm the shared packed cache outside the timed region

    def scalar_path():
        stats = batch_pattern_stats(patterns, data)
        ig = [information_gain(s) for s in stats]
        fisher = [fisher_score(s) for s in stats]
        chi2 = [chi2_scalar(s) for s in stats]
        return ig, fisher, chi2

    def vectorized_path():
        tables = batch_contingency_tables(patterns, data)
        ig = information_gain_batch(tables.present, tables.absent)
        fisher = fisher_score_batch(tables.present, tables.absent)
        chi2 = chi2_batch(tables.present, tables.absent)
        return ig, fisher, chi2

    # Differential guard: the benchmark only counts if both paths agree.
    scalar_scores = scalar_path()
    vector_scores = vectorized_path()
    for scalar, vector in zip(scalar_scores, vector_scores):
        finite = np.isfinite(scalar)
        np.testing.assert_allclose(
            np.asarray(scalar)[finite], np.asarray(vector)[finite],
            rtol=0, atol=1e-12,
        )
        assert (np.isinf(scalar) == np.isinf(vector)).all()

    scalar_time = _best_of(scalar_path)
    vectorized_time = _best_of(vectorized_path)
    speedup = scalar_time / vectorized_time

    report = {
        "benchmark": "scoring_throughput",
        "workload": (
            f"{N_PATTERNS} patterns x (tables + IG + Fisher + chi2), "
            f"{data.n_rows} rows, {data.n_classes} classes"
        ),
        "n_patterns": N_PATTERNS,
        "scalar_wall_s": round(scalar_time, 6),
        "vectorized_wall_s": round(vectorized_time, 6),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    trend(
        "scoring.vectorized_wall_s",
        vectorized_time,
        meta={"n_patterns": N_PATTERNS, "speedup": round(speedup, 2)},
    )

    report_lines.append(
        "scoring throughput: scalar PatternStats loop vs vectorized kernels\n"
        f"  {N_PATTERNS} patterns: scalar {1e3 * scalar_time:8.2f} ms   "
        f"vectorized {1e3 * vectorized_time:8.2f} ms   "
        f"speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)\n"
        f"  wrote {_REPORT_PATH.name}"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized scoring is only {speedup:.2f}x faster than the scalar "
        f"loop at {N_PATTERNS} patterns; the floor is {SPEEDUP_FLOOR:.0f}x"
    )
