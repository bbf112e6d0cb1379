"""Serving-throughput benchmark: fused predict vs the design path.

The quantitative claim of the serving layer: on a 10k-pattern model, the
compiled model's fused decision function must beat the design path —
``model_.predict(featurizer_.transform(rows))``, which materializes the
float64 design and stays in the library as the non-linear fallback — by
at least 5x.  Both paths run over the same transactions and share one
matcher (the featurizer's cover plan), so the ratio isolates the float64
design materialization.

Writes ``BENCH_serving.json`` with the match time and the predict
wall-time pair, appends ``serving.compiled_match_wall_s`` and
``serving.predict_wall_s`` to the trend store for ``repro bench check``,
and asserts the 5x floor on predict.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.classifiers.naive_bayes import BernoulliNaiveBayes
from repro.datasets import SyntheticSpec, TransactionDataset, generate
from repro.features.pipeline import FrequentPatternClassifier
from repro.mining import Pattern
from repro.serving import compile_model

#: Pattern count the 5x claim is made at.
N_PATTERNS = 10_000
#: Minimum speedup of the fused predict over the design path.
SPEEDUP_FLOOR = 5.0

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _served_model() -> tuple[FrequentPatternClassifier, TransactionDataset]:
    """A fitted pipeline padded to exactly ``N_PATTERNS`` patterns.

    Naive Bayes keeps the fit closed-form at 10k features; the matcher
    workload is identical for every linear learner.
    """
    spec = SyntheticSpec(
        name="serving-bench",
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
    pipeline = FrequentPatternClassifier(
        classifier=BernoulliNaiveBayes(),
        min_support=0.05,
        selection="topk",
        top_k=N_PATTERNS,
        max_length=4,
        miner="all",
        max_patterns=500_000,
    )
    pipeline.fit(data)
    patterns = list(pipeline.featurizer_.patterns)
    rng = np.random.default_rng(13)
    while len(patterns) < N_PATTERNS:
        items = tuple(
            int(i)
            for i in np.sort(rng.choice(data.n_items, size=3, replace=False))
        )
        pattern = Pattern(items=items, support=0)
        if pattern not in patterns:
            patterns.append(pattern)
    # Refit the learner on the padded feature space so both paths predict
    # with the same 10k-pattern model.
    pipeline.featurizer_ = type(pipeline.featurizer_)(
        n_items=data.n_items,
        patterns=patterns[:N_PATTERNS],
        include_items=True,
    )
    design = pipeline.featurizer_.transform(data)
    pipeline.model_ = BernoulliNaiveBayes().fit(design, data.labels)
    return pipeline, data


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_compiled_serving_speedup(report_lines, trend):
    pipeline, data = _served_model()
    compiled = compile_model(pipeline)
    transactions = data.transactions
    featurizer = pipeline.featurizer_
    data.item_bits()  # warm the shared packed cache outside the timed region

    def design_path():
        return pipeline.model_.predict(featurizer.transform(data))

    # Differential guard: the benchmark only counts if the fused path is
    # exact.
    assert np.array_equal(design_path(), compiled.predict(transactions))

    # Canonical transactions: the match needs no ingestion pass.  The
    # predict pair keeps the compiled path's sanitization in its timing
    # (the design path has none).
    compiled_match_time = _best_of(
        lambda: compiled.match_matrix(transactions, sanitize=False)
    )
    naive_predict_time = _best_of(design_path)
    compiled_predict_time = _best_of(lambda: compiled.predict(transactions))
    predict_speedup = naive_predict_time / compiled_predict_time

    report = {
        "benchmark": "serving_throughput",
        "workload": (
            f"{N_PATTERNS}-pattern model, {data.n_rows} rows, "
            f"{data.n_items} items"
        ),
        "n_patterns": N_PATTERNS,
        "compiled_match_wall_s": round(compiled_match_time, 6),
        "naive_predict_wall_s": round(naive_predict_time, 6),
        "compiled_predict_wall_s": round(compiled_predict_time, 6),
        "predict_speedup": round(predict_speedup, 2),
        "rows_per_s": round(data.n_rows / compiled_predict_time, 1),
        "speedup_floor": SPEEDUP_FLOOR,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    trend(
        "serving.compiled_match_wall_s",
        compiled_match_time,
        meta={"n_patterns": N_PATTERNS},
    )
    trend(
        "serving.predict_wall_s",
        compiled_predict_time,
        meta={"n_patterns": N_PATTERNS, "speedup": round(predict_speedup, 2)},
    )

    report_lines.append(
        "serving throughput: design path vs fused predict\n"
        f"  match  {N_PATTERNS} patterns: {1e3 * compiled_match_time:8.2f} ms\n"
        f"  e2e    predict:  design {1e3 * naive_predict_time:8.2f} ms   "
        f"fused {1e3 * compiled_predict_time:8.2f} ms   "
        f"speedup {predict_speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x) "
        f"({report['rows_per_s']:,.0f} rows/s)\n"
        f"  wrote {_REPORT_PATH.name}"
    )

    assert predict_speedup >= SPEEDUP_FLOOR, (
        f"compiled predict is only {predict_speedup:.2f}x faster than the "
        f"design path at {N_PATTERNS} patterns; the floor is "
        f"{SPEEDUP_FLOOR:.0f}x"
    )
