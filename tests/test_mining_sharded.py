"""Sharded mining differential suite: out-of-core == batch, byte for byte.

:func:`repro.mining.sharded.mine_sharded` claims to be a pure
representation change over :func:`repro.mining.generation.mine_class_patterns`
— same patterns, same supports, same per-class counts, same MMRFS
selection — for *any* shard size, including ragged final shards, shards
of one row, and a single shard holding everything.  These tests pin that
claim with hypothesis, then pin the out-of-core extras on top: SON local
threshold soundness, cache checkpoint/restore, budget-trip parity, and
kill/resume byte-identity through ``run_experiment``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.generation import mine_class_patterns
from repro.mining.itemsets import PatternBudgetExceeded
from repro.mining.sharded import local_threshold, mine_sharded
from repro.core.shards import shard_dataset, stitch
from repro.datasets.transactions import TransactionDataset
from repro.obs import core as _obs
from repro.runtime import ArtifactCache, ExperimentSpec, run_experiment
from repro.selection.mmrfs import mmrfs
from repro.testing.faults import Fault, InjectedFault, injected_faults

DIFFERENTIAL_EXAMPLES = 60

SHARDED_SPEC = ExperimentSpec(
    dataset="planted",
    min_support=0.3,
    folds=2,
    max_length=3,
    shard_rows=70,
)

FINAL_ARTIFACTS = ("patterns.json", "selection.json", "report.json")


def _artifact_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in FINAL_ARTIFACTS}


def _dataset(seed: int, n_rows: int, n_items: int, n_classes: int):
    rng = np.random.default_rng(seed)
    transactions = [
        tuple(
            sorted(
                rng.choice(
                    n_items, size=rng.integers(0, n_items + 1), replace=False
                ).tolist()
            )
        )
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, n_classes, n_rows)
    return TransactionDataset(
        transactions, labels, n_items=n_items, n_classes=n_classes
    )


def _signature(result):
    return [(p.items, p.support) for p in result.patterns]


@st.composite
def mining_cases(draw):
    n_rows = draw(st.integers(min_value=4, max_value=120))
    data = _dataset(
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        n_rows,
        n_items=draw(st.integers(min_value=2, max_value=8)),
        n_classes=draw(st.integers(min_value=1, max_value=3)),
    )
    return dict(
        data=data,
        shard_rows=draw(st.integers(min_value=1, max_value=n_rows + 10)),
        min_support=draw(
            st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0])
        ),
        miner=draw(st.sampled_from(["closed", "all"])),
        max_length=draw(st.sampled_from([None, 2, 3, 4])),
        # Up to 8 items give a class partition up to 255 patterns, so a
        # small budget trips some partitions and spares others.
        max_patterns=draw(st.one_of(st.none(), st.integers(0, 40))),
        on_guard=draw(st.sampled_from(["raise", "items_only"])),
    )


class TestShardedEqualsBatch:
    @settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
    @given(case=mining_cases())
    def test_patterns_and_counts_match(self, tmp_path_factory, case):
        data = case["data"]
        kwargs = dict(
            min_support=case["min_support"],
            miner=case["miner"],
            min_length=2,
            max_length=case["max_length"],
            max_patterns=case["max_patterns"],
            on_guard=case["on_guard"],
        )
        shards = shard_dataset(
            data, tmp_path_factory.mktemp("shards"), case["shard_rows"]
        )
        try:
            batch = mine_class_patterns(data, **kwargs)
        except PatternBudgetExceeded:
            assert case["on_guard"] == "raise"
            with pytest.raises(PatternBudgetExceeded):
                mine_sharded(shards, **kwargs)
            return
        sharded = mine_sharded(shards, **kwargs)

        assert _signature(sharded) == _signature(batch)
        assert sharded.min_support == batch.min_support
        assert sharded.itemsets == batch.itemsets
        expected = np.array(
            [data.class_support_counts(items) for items in batch.itemsets],
            dtype=np.int64,
        ).reshape(len(batch), data.n_classes)
        assert np.array_equal(batch.counts, expected)
        assert np.array_equal(sharded.counts, expected)

    def test_selection_matches_on_stitched_vertical(self, tmp_path):
        data = _dataset(21, 140, 7, 2)
        batch = mine_class_patterns(data, min_support=0.15)
        shards = shard_dataset(data, tmp_path, 45)
        sharded = mine_sharded(shards, min_support=0.15)
        picked_batch = mmrfs(batch.patterns, data, max_selected=10)
        picked_sharded = mmrfs(sharded.patterns, stitch(shards), max_selected=10)
        assert [p.items for p in picked_sharded.patterns] == [
            p.items for p in picked_batch.patterns
        ]
        assert [f.relevance for f in picked_sharded.selected] == pytest.approx(
            [f.relevance for f in picked_batch.selected]
        )

    def test_single_shard_degenerate(self, tmp_path):
        data = _dataset(22, 60, 6, 2)
        shards = shard_dataset(data, tmp_path, 10_000)
        assert len(shards) == 1
        assert _signature(mine_sharded(shards, min_support=0.2)) == _signature(
            mine_class_patterns(data, min_support=0.2)
        )

    def test_input_validation(self, tmp_path):
        shards = shard_dataset(_dataset(23, 20, 4, 2), tmp_path, 8)
        with pytest.raises(ValueError):
            mine_sharded(shards, min_support=0.0)
        with pytest.raises(KeyError):
            mine_sharded(shards, min_support=0.5, miner="maximal")
        with pytest.raises(ValueError):
            mine_sharded(shards, min_support=0.5, on_guard="ignore")


class TestLocalThreshold:
    @settings(max_examples=200, deadline=None)
    @given(
        absolute=st.integers(min_value=1, max_value=10_000),
        splits=st.lists(
            st.integers(min_value=0, max_value=500), min_size=1, max_size=12
        ).filter(lambda s: sum(s) > 0),
    )
    def test_pigeonhole_soundness(self, absolute, splits):
        # If an itemset misses the local threshold in *every* shard, the
        # worst case it can total is sum(t_i - 1), which must stay below
        # the global threshold — otherwise SON would lose a pattern.
        total = sum(splits)
        absolute = min(absolute, total)
        thresholds = [
            local_threshold(absolute, rows, total) for rows in splits if rows
        ]
        assert all(t >= 1 for t in thresholds)
        assert sum(t - 1 for t in thresholds) < absolute

    def test_exact_values(self):
        assert local_threshold(10, 50, 100) == 5
        assert local_threshold(10, 33, 100) == 4  # ceil(3.3)
        assert local_threshold(1, 1, 1000) == 1
        assert local_threshold(7, 7, 7) == 7


class TestCheckpointing:
    def test_cache_restores_both_passes(self, tmp_path):
        data = _dataset(31, 100, 6, 2)
        shards = shard_dataset(data, tmp_path / "shards", 30)
        cache = ArtifactCache(tmp_path / "cache")
        cold = mine_sharded(shards, min_support=0.2, cache=cache)
        with _obs.session() as sess:
            warm = mine_sharded(shards, min_support=0.2, cache=cache)
        skipped = [e for e in sess.events if e["kind"] == "stage_skipped"]
        stages = {e["attrs"]["stage"] for e in skipped}
        assert stages == {"shard_mine", "shard_count"}
        assert _signature(warm) == _signature(cold)
        assert np.array_equal(warm.counts, cold.counts)

    @pytest.mark.parametrize("point", ["shard:mine:1:0", "shard:count:2"])
    def test_kill_mid_pass_then_resume_is_byte_identical(
        self, tmp_path, planted_transactions, point
    ):
        reference = tmp_path / "reference"
        run_experiment(planted_transactions, SHARDED_SPEC, reference)
        out = tmp_path / "run"
        with injected_faults([Fault(point, "raise")], tmp_path / "state"):
            with pytest.raises(InjectedFault):
                run_experiment(planted_transactions, SHARDED_SPEC, out)
        resumed = run_experiment(
            planted_transactions, SHARDED_SPEC, out, resume=True
        )
        assert _artifact_bytes(out) == _artifact_bytes(reference)
        assert resumed.mean_accuracy is not None

    def test_sharded_experiment_matches_batch_artifacts(
        self, tmp_path, planted_transactions
    ):
        batch_out = tmp_path / "batch"
        run_experiment(
            planted_transactions,
            ExperimentSpec(
                dataset="planted", min_support=0.3, folds=2, max_length=3
            ),
            batch_out,
        )
        shard_out = tmp_path / "sharded"
        run_experiment(planted_transactions, SHARDED_SPEC, shard_out)
        for name in ("patterns.json", "selection.json"):
            assert (shard_out / name).read_bytes() == (
                batch_out / name
            ).read_bytes()


class TestBudgetParity:
    def _tight_budget(self, data):
        # A cap guaranteed to trip: fewer than the batch pattern count.
        full = mine_class_patterns(data, min_support=0.1)
        assert len(full.patterns) > 1
        return len(full.patterns) - 1

    def test_raise_parity(self, tmp_path):
        data = _dataset(41, 80, 6, 2)
        budget = self._tight_budget(data)
        with pytest.raises(PatternBudgetExceeded):
            mine_class_patterns(data, min_support=0.1, max_patterns=budget)
        shards = shard_dataset(data, tmp_path, 25)
        with pytest.raises(PatternBudgetExceeded):
            mine_sharded(shards, min_support=0.1, max_patterns=budget)

    def test_items_only_degrades_one_class_identically(self, tmp_path):
        # Seed 40's two class partitions straddle a budget of 45: one
        # degrades to items-only, the other keeps its patterns.
        data = _dataset(40, 80, 6, 2)
        kwargs = dict(min_support=0.1, max_patterns=45, on_guard="items_only")
        with _obs.session() as sess:
            batch = mine_class_patterns(data, **kwargs)
        degraded = [
            e["attrs"]["partition"]
            for e in sess.events
            if e["kind"] == "warning" and "partition" in e["attrs"]
        ]
        assert len(degraded) == 1 and len(batch) > 0
        with _obs.session() as sess:
            sharded = mine_sharded(shard_dataset(data, tmp_path, 25), **kwargs)
        assert sess.counters["mining.sharded.degraded_classes"] == 1
        assert _signature(sharded) == _signature(batch)
        assert np.array_equal(sharded.counts, batch.counts)

    @pytest.mark.parametrize("shard_rows", [25, 10_000])
    def test_items_only_degrades_identically(self, tmp_path, shard_rows):
        # The budget meters *result* patterns, not local enumeration, so
        # the union-cap degradation must be byte-equal to batch whatever
        # the shard geometry.
        data = _dataset(42, 80, 6, 2)
        budget = self._tight_budget(data)
        batch = mine_class_patterns(
            data, min_support=0.1, max_patterns=budget, on_guard="items_only"
        )
        shards = shard_dataset(data, tmp_path, shard_rows)
        sharded = mine_sharded(
            shards, min_support=0.1, max_patterns=budget, on_guard="items_only"
        )
        assert _signature(sharded) == _signature(batch)
