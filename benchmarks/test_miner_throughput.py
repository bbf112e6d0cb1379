"""Microbenchmarks: miner throughput and the min_sup strategy primitives.

Unlike the table/figure benches (single-shot experiment drivers), these are
conventional repeated-timing benchmarks of the hot substrate operations:
the all-itemset miner vs Apriori vs the closed miners on one workload, the theta*
bisection, the packed-bitset kernels against their dense equivalents, and
serial vs parallel per-class mining.
"""

import time

import numpy as np
import pytest

from repro.core.bitset import class_counts, pack_bits, packed_ones
from repro.datasets import TransactionDataset, load_uci
from repro.measures import theta_star
from repro.mining import closed_fpgrowth, frequent_itemsets, mine_class_patterns
from repro.selection import mmrfs, suggest_min_support
from repro.selection.redundancy import batch_redundancy_packed
from tests.oracles.dense_bits import bit_matrix
from tests.oracles.itemset_miners import apriori, charm
from tests.oracles.mmrfs_dense import batch_redundancy


@pytest.fixture(scope="module")
def workload():
    data = TransactionDataset.from_dataset(load_uci("austral", scale=0.5))
    return data


def test_bench_apriori(benchmark, workload):
    result = benchmark(apriori, workload.transactions, 35)
    assert len(result) > 0


def test_bench_frequent_itemsets(benchmark, workload):
    result = benchmark(frequent_itemsets, workload.transactions, 35)
    assert len(result) > 0


def test_bench_closed_lcm(benchmark, workload):
    result = benchmark(closed_fpgrowth, workload.transactions, 35)
    assert len(result) > 0


def test_bench_closed_charm(benchmark, workload):
    result = benchmark(charm, workload.transactions, 35)
    assert len(result) > 0


def test_bench_theta_star(benchmark):
    value = benchmark(theta_star, 0.05, 0.45)
    assert 0.0 < value < 0.45


def test_bench_suggest_min_support(benchmark, workload):
    suggestion = benchmark(suggest_min_support, workload.labels, 0.05)
    assert suggestion.absolute >= 1


def test_bench_mmrfs(benchmark, workload):
    mined = mine_class_patterns(workload, min_support=0.15)
    result = benchmark.pedantic(
        mmrfs, args=(mined.patterns, workload), kwargs=dict(delta=3),
        rounds=3, iterations=1,
    )
    assert len(result) > 0


# ---------------------------------------------------------------------------
# Bitset vs dense kernels.
#
# The synthetic workloads mirror an MMRFS run on a mid-size dataset: the
# coverage kernel evaluates 256 four-item patterns over 32k transactions;
# the redundancy kernel replays 24 sequential batch updates against 1024
# candidate masks of 8k rows each (one update per selection round).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coverage_workload():
    rng = np.random.default_rng(1)
    n_items, n_rows = 64, 32_768
    dense = rng.random((n_items, n_rows)) < 0.4
    patterns = [
        tuple(sorted(rng.choice(n_items, size=4, replace=False)))
        for _ in range(256)
    ]
    return dense, bit_matrix(dense), patterns


def _coverage_dense(dense, patterns):
    return [int(dense[list(p)].all(axis=0).sum()) for p in patterns]


def _coverage_packed(matrix, patterns):
    rows = packed_ones(matrix.n_bits)[np.newaxis]
    return class_counts(matrix, rows, patterns)[:, 0].tolist()


def test_bench_coverage_dense(benchmark, coverage_workload):
    dense, _, patterns = coverage_workload
    supports = benchmark(_coverage_dense, dense, patterns)
    assert len(supports) == len(patterns)


def test_bench_coverage_bitset(benchmark, coverage_workload):
    _, matrix, patterns = coverage_workload
    supports = benchmark(_coverage_packed, matrix, patterns)
    assert len(supports) == len(patterns)


@pytest.fixture(scope="module")
def redundancy_workload():
    rng = np.random.default_rng(2)
    n_masks, n_rows = 1024, 8192
    dense = rng.random((n_masks, n_rows)) < 0.3
    supports = dense.sum(axis=1).astype(np.int64)
    relevances = rng.random(n_masks)
    # The packed stack is word-major, as MMRFS keeps it: (n_words, n_masks).
    return dense, np.ascontiguousarray(pack_bits(dense).T), supports, relevances


def _redundancy_dense(dense, supports, relevances, rounds=24):
    last = None
    for reference in range(rounds):
        last = batch_redundancy(
            dense, supports, relevances, dense[reference],
            int(supports[reference]), float(relevances[reference]),
        )
    return last


def _redundancy_packed(packed, supports, relevances, rounds=24):
    last = None
    for reference in range(rounds):
        last = batch_redundancy_packed(
            packed, supports, relevances, packed[:, reference],
            int(supports[reference]), float(relevances[reference]),
        )
    return last


def test_bench_redundancy_dense(benchmark, redundancy_workload):
    dense, _, supports, relevances = redundancy_workload
    result = benchmark(_redundancy_dense, dense, supports, relevances)
    assert result.shape == (len(supports),)


def test_bench_redundancy_bitset(benchmark, redundancy_workload):
    _, packed, supports, relevances = redundancy_workload
    result = benchmark(_redundancy_packed, packed, supports, relevances)
    assert result.shape == (len(supports),)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bitset_kernels_at_least_twice_as_fast(
    coverage_workload, redundancy_workload, report_lines
):
    """The headline claim: packed coverage and redundancy each beat the
    dense equivalents by >= 2x on the MMRFS-shaped workloads, while
    producing identical results."""
    dense, matrix, patterns = coverage_workload
    assert _coverage_dense(dense, patterns) == _coverage_packed(matrix, patterns)
    coverage_dense = _best_of(lambda: _coverage_dense(dense, patterns))
    coverage_packed = _best_of(lambda: _coverage_packed(matrix, patterns))

    rdense, rpacked, supports, relevances = redundancy_workload
    assert np.array_equal(
        _redundancy_dense(rdense, supports, relevances),
        _redundancy_packed(rpacked, supports, relevances),
    )
    redundancy_dense = _best_of(
        lambda: _redundancy_dense(rdense, supports, relevances), repeats=3
    )
    redundancy_packed = _best_of(
        lambda: _redundancy_packed(rpacked, supports, relevances), repeats=3
    )

    report_lines.append(
        "bitset vs dense kernels (best-of-n wall clock)\n"
        f"  coverage:   dense {1e3 * coverage_dense:8.2f} ms   "
        f"bitset {1e3 * coverage_packed:8.2f} ms   "
        f"({coverage_dense / coverage_packed:.1f}x)\n"
        f"  redundancy: dense {1e3 * redundancy_dense:8.2f} ms   "
        f"bitset {1e3 * redundancy_packed:8.2f} ms   "
        f"({redundancy_dense / redundancy_packed:.1f}x)"
    )
    assert coverage_packed * 2 <= coverage_dense
    assert redundancy_packed * 2 <= redundancy_dense


# ---------------------------------------------------------------------------
# Serial vs parallel per-class mining.
# ---------------------------------------------------------------------------

def test_bench_mine_serial(benchmark, workload):
    result = benchmark.pedantic(
        mine_class_patterns, args=(workload,),
        kwargs=dict(min_support=0.1, max_length=6, n_jobs=1),
        rounds=3, iterations=1,
    )
    assert len(result) > 0


def test_bench_mine_parallel(benchmark, workload):
    result = benchmark.pedantic(
        mine_class_patterns, args=(workload,),
        kwargs=dict(min_support=0.1, max_length=6, n_jobs=2),
        rounds=3, iterations=1,
    )
    assert len(result) > 0


def test_parallel_mining_matches_serial(workload, report_lines):
    """n_jobs only changes wall clock, never the mined pattern set."""
    serial_time = _best_of(
        lambda: mine_class_patterns(
            workload, min_support=0.1, max_length=6, n_jobs=1
        ),
        repeats=3,
    )
    parallel_time = _best_of(
        lambda: mine_class_patterns(
            workload, min_support=0.1, max_length=6, n_jobs=2
        ),
        repeats=3,
    )
    serial = mine_class_patterns(workload, min_support=0.1, max_length=6)
    parallel = mine_class_patterns(
        workload, min_support=0.1, max_length=6, n_jobs=2
    )
    assert serial.patterns == parallel.patterns
    report_lines.append(
        "per-class mining, serial vs parallel (best-of-3 wall clock)\n"
        f"  n_jobs=1 {1e3 * serial_time:8.2f} ms\n"
        f"  n_jobs=2 {1e3 * parallel_time:8.2f} ms"
    )
