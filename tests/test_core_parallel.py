"""Tests for the fan-out helper and the parallel mining/CV paths.

The contract under test: with any ``n_jobs``, parallel runs return exactly
what the serial default-equivalent path returns — same values, same order,
same exceptions.
"""

import numpy as np
import pytest

from repro.core.parallel import (
    RetryPolicy,
    checkpointed_map,
    parallel_map,
    resolve_n_jobs,
)
from repro.core.shards import shard_dataset
from repro.obs import core as _obs
from repro.eval import cross_validate_pipeline
from repro.features import FrequentPatternClassifier
from repro.mining import PatternBudgetExceeded, mine_class_patterns, mine_sharded
from repro.runtime.cache import ArtifactCache
from repro.testing.faults import Fault, InjectedFault, injected_faults


def _double(x):
    return 2 * x


def _raise_on_two(x):
    if x == 2:
        raise ValueError("two")
    return x


class TestResolveNJobs:
    def test_serial_defaults(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_n_jobs(4) == 4

    def test_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    @pytest.mark.parametrize("bad", [0, -2, -100])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_n_jobs(bad)


class TestParallelMap:
    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_order_preserved(self, executor, n_jobs):
        items = list(range(10))
        assert parallel_map(_double, items, n_jobs=n_jobs, executor=executor) == [
            2 * i for i in items
        ]

    def test_empty_items(self):
        assert parallel_map(_double, [], n_jobs=4) == []

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_first_in_order_exception_propagates(self, executor):
        with pytest.raises(ValueError, match="two"):
            parallel_map(_raise_on_two, [0, 1, 2, 3], n_jobs=2, executor=executor)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_double, [1, 2], n_jobs=2, executor="fibers")


class TestParallelMining:
    def test_parallel_equals_serial(self, planted_transactions):
        serial = mine_class_patterns(planted_transactions, min_support=0.15)
        parallel = mine_class_patterns(
            planted_transactions, min_support=0.15, n_jobs=2
        )
        assert serial.patterns == parallel.patterns
        assert serial.min_support == parallel.min_support

    def test_parallel_equals_serial_all_miner(self, tiny_transactions):
        serial = mine_class_patterns(tiny_transactions, min_support=0.3, miner="all")
        parallel = mine_class_patterns(
            tiny_transactions, min_support=0.3, miner="all", n_jobs=-1
        )
        assert serial.patterns == parallel.patterns

    def test_budget_exception_crosses_process_boundary(self, planted_transactions):
        """PatternBudgetExceeded must pickle intact through the pool."""
        with pytest.raises(PatternBudgetExceeded) as excinfo:
            mine_class_patterns(
                planted_transactions,
                min_support=0.05,
                max_length=4,
                max_patterns=20,
                n_jobs=2,
            )
        assert excinfo.value.budget == 20
        assert excinfo.value.emitted > 20


class TestParallelCrossValidation:
    def test_parallel_equals_serial(self, planted_transactions):
        def factory():
            return FrequentPatternClassifier(
                min_support=0.3, delta=1, max_length=3
            )

        serial = cross_validate_pipeline(
            factory, planted_transactions, n_folds=3, seed=0
        )
        parallel = cross_validate_pipeline(
            factory, planted_transactions, n_folds=3, seed=0, n_jobs=2
        )
        assert serial.folds == parallel.folds

    def test_pipeline_n_jobs_does_not_change_model(self, planted_transactions):
        serial = FrequentPatternClassifier(min_support=0.3, delta=1, n_jobs=1)
        fanout = FrequentPatternClassifier(min_support=0.3, delta=1, n_jobs=2)
        serial.fit(planted_transactions)
        fanout.fit(planted_transactions)
        assert serial.mined_patterns_ == fanout.mined_patterns_
        assert serial.selected_patterns == fanout.selected_patterns
        assert (
            serial.predict(planted_transactions)
            == fanout.predict(planted_transactions)
        ).all()


def _scale(shared, x):
    return shared["factor"] * x


class TestEmptyBatch:
    """Regression: dispatching zero tasks used to die in np.array_split."""

    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 8])
    def test_empty_items_every_executor(self, executor, n_jobs):
        assert parallel_map(_double, [], n_jobs=n_jobs, executor=executor) == []

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_empty_items_under_retry(self, executor):
        policy = RetryPolicy(max_retries=3)
        assert (
            parallel_map(_double, [], n_jobs=4, executor=executor, retry=policy)
            == []
        )

    def test_empty_items_with_shared_payload(self):
        assert (
            parallel_map(_scale, [], n_jobs=4, shared={"factor": 3}) == []
        )


class TestSharedPayload:
    """One pool-wide payload instead of per-task re-pickling."""

    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_parity_across_executors(self, executor, n_jobs):
        items = list(range(12))
        expected = [3 * i for i in items]
        got = parallel_map(
            _scale, items, n_jobs=n_jobs, executor=executor, shared={"factor": 3}
        )
        assert got == expected

    def test_serial_path_applies_shared(self):
        assert parallel_map(_scale, [5], shared={"factor": 7}) == [35]

    def test_payload_shipped_once_not_per_task(self):
        payload = {"factor": 2, "blob": "x" * 50_000}
        items = list(range(16))
        with _obs.session() as sess:
            got = parallel_map(
                _scale, items, n_jobs=2, executor="process", shared=payload
            )
        assert got == [2 * i for i in items]
        counters = sess.counters
        blob_size = len(payload["blob"])
        # The payload crosses once per worker at most, and task pickles
        # stay tiny — the regression shipped ~blob_size per task.
        assert counters["parallel.shared_bytes"] >= blob_size
        assert counters["parallel.tasks_submitted"] == len(items)
        assert counters["parallel.task_bytes"] < blob_size

    def test_task_accounting_counters(self):
        with _obs.session() as sess:
            parallel_map(_double, list(range(6)), n_jobs=2, executor="process")
        counters = sess.counters
        assert counters["parallel.tasks_submitted"] == 6
        assert counters["parallel.task_bytes"] > 0


def _payload(x):
    """A JSON-stable result, as checkpointed functions must return."""
    return {"x": x, "pair": [x, 2 * x]}


def _scaled_payload(shared, x):
    return {"x": x, "scaled": [shared * x]}


#: (n_jobs, executor) for the serial, thread and process paths.
EXECUTORS = [(1, "process"), (2, "thread"), (2, "process")]


def _keys(items):
    return [f"key-{x}" for x in items]


def _skipped(sess):
    return [e["attrs"] for e in sess.events if e["kind"] == "stage_skipped"]


class TestCheckpointedMap:
    @pytest.mark.parametrize("n_jobs,executor", EXECUTORS)
    def test_no_cache_is_parallel_map(self, n_jobs, executor):
        items = list(range(6))
        assert checkpointed_map(
            _payload, items, None, None, "demo", n_jobs=n_jobs, executor=executor
        ) == parallel_map(_payload, items, n_jobs=n_jobs, executor=executor)

    @pytest.mark.parametrize("n_jobs,executor", EXECUTORS)
    def test_restored_equals_computed(self, tmp_path, n_jobs, executor):
        items = list(range(6))
        cache = ArtifactCache(tmp_path)
        computed = checkpointed_map(
            _payload, items, _keys(items), cache, "demo",
            n_jobs=n_jobs, executor=executor,
        )
        assert computed == [_payload(x) for x in items]
        with _obs.session() as sess:
            restored = checkpointed_map(
                _raise_on_two, items, _keys(items), cache, "demo",
                n_jobs=n_jobs, executor=executor,
            )
        assert restored == computed
        assert _skipped(sess) == [
            {"stage": "demo", "index": i} for i in range(len(items))
        ]

    @pytest.mark.parametrize("n_jobs,executor", EXECUTORS)
    def test_shared_payload(self, tmp_path, n_jobs, executor):
        items = list(range(5))
        cache = ArtifactCache(tmp_path)
        run = lambda: checkpointed_map(  # noqa: E731
            _scaled_payload, items, _keys(items), cache, "demo",
            n_jobs=n_jobs, executor=executor, shared=3,
        )
        computed = run()
        assert computed == [_scaled_payload(3, x) for x in items]
        assert run() == computed

    def test_one_skip_event_per_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        checkpointed_map(_payload, [1, 3], _keys([1, 3]), cache, "demo")
        items = [0, 1, 2, 3]
        with _obs.session() as sess:
            results = checkpointed_map(_payload, items, _keys(items), cache, "demo")
        assert results == [_payload(x) for x in items]
        assert _skipped(sess) == [
            {"stage": "demo", "index": 1},
            {"stage": "demo", "index": 3},
        ]
        assert sess.counters["runtime.cache.hits"] == 2
        assert sess.counters["runtime.cache.writes"] == 2

    def test_fault_point_fires_after_put(self, tmp_path):
        items = [0, 1, 2]
        cache = ArtifactCache(tmp_path / "cache")
        with injected_faults([Fault("stage:demo:1", "raise")], tmp_path / "state"):
            with pytest.raises(InjectedFault):
                checkpointed_map(_payload, items, _keys(items), cache, "demo")
        assert cache.get("demo", "key-0") == _payload(0)
        assert cache.get("demo", "key-1") == _payload(1)
        assert cache.get("demo", "key-2") is None


class TestFailedFanOutKeepsFinishedItems:
    """A failing item must not cost the items that finished beside it:
    every worker persists its own result, parallel or not."""

    def test_partition_mining(self, tmp_path, planted_transactions):
        cache = ArtifactCache(tmp_path / "cache")
        with injected_faults([Fault("mine:1", "raise")], tmp_path / "state"):
            with pytest.raises(InjectedFault):
                mine_class_patterns(
                    planted_transactions, min_support=0.3, n_jobs=2, cache=cache
                )
        assert len(list((tmp_path / "cache" / "mine_partition").iterdir())) == 1
        with _obs.session() as sess:
            resumed = mine_class_patterns(
                planted_transactions, min_support=0.3, n_jobs=2, cache=cache
            )
        assert _skipped(sess) == [{"stage": "mine_partition", "index": 0}]
        fresh = mine_class_patterns(planted_transactions, min_support=0.3)
        assert resumed.as_dict() == fresh.as_dict()

    def test_sharded_local_pass(self, tmp_path, planted_transactions):
        shards = shard_dataset(planted_transactions, tmp_path / "shards", 100)
        cache = ArtifactCache(tmp_path / "cache")
        cells = len(shards) * planted_transactions.n_classes
        with injected_faults(
            [Fault("shard:mine:0:1", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                mine_sharded(shards, min_support=0.3, n_jobs=2, cache=cache)
        kept = list((tmp_path / "cache" / "shard_mine").iterdir())
        assert len(kept) == cells - 1
        resumed = mine_sharded(shards, min_support=0.3, n_jobs=2, cache=cache)
        fresh = mine_sharded(shards, min_support=0.3)
        assert resumed.as_dict() == fresh.as_dict()
        assert np.array_equal(resumed.counts, fresh.counts)
