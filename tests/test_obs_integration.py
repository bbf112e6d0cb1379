"""Instrumentation threaded through the pipeline: counter exactness,
cross-process trace merging, fallback warnings, and guard hygiene.

The counter-exactness tests pin instrumentation to hand-computed values on
tiny datasets, so a refactor that silently double-counts (or drops) work
fails loudly.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import parallel as parallel_mod
from repro.core.parallel import parallel_map
from repro.datasets.transactions import TransactionDataset
from repro.mining.closed import closed_fpgrowth
from repro.mining.frequent import frequent_itemsets
from repro.mining.generation import mine_class_patterns
from repro.mining.guards import MiningTimeLimitExceeded, _wall_clock_limit
from repro.mining.itemsets import Pattern, PatternBudgetExceeded
from repro.obs import core as obs_core
from repro.obs.core import session
from repro.selection.mmrfs import mmrfs

# Hand-computable 5-transaction dataset (items 0, 1, 2), min_support = 2:
#   items 0, 1, 2 have supports 4/3/3   -> all frequent
#   pairs 01, 02, 12 have supports 2/2/2 -> all frequent
#   012 has support 1                   -> infrequent
# Total: 6 frequent patterns.
HAND_TRANSACTIONS = [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,)]


class TestFPGrowthCounterExactness:
    """The all-itemset miner's ``mining.frequent.patterns`` counter."""

    def test_pattern_count(self):
        with session() as sess:
            result = frequent_itemsets(HAND_TRANSACTIONS, min_support=2)
        assert result.as_dict() == {
            (0,): 4, (1,): 3, (2,): 3, (0, 1): 2, (0, 2): 2, (1, 2): 2,
        }
        assert sess.counters["mining.frequent.patterns"] == 6

    def test_counters_flushed_when_budget_trips(self):
        with session() as sess:
            with pytest.raises(PatternBudgetExceeded) as excinfo:
                frequent_itemsets(HAND_TRANSACTIONS, min_support=2, max_patterns=3)
        # Record-then-check semantics: trips at budget + 1 emitted patterns,
        # and the finally-flush still reports how far enumeration got.
        assert excinfo.value.emitted == 4
        assert sess.counters["mining.frequent.patterns"] == 4


class TestMinerPatternCounters:
    @pytest.mark.parametrize(
        "miner, counter",
        [
            (frequent_itemsets, "mining.frequent.patterns"),
            (closed_fpgrowth, "mining.closed.patterns"),
        ],
    )
    def test_pattern_counter_matches_result(self, miner, counter):
        with session() as sess:
            result = miner(HAND_TRANSACTIONS, min_support=2)
        assert sess.counters[counter] == len(result)


class TestMmrfsCounterExactness:
    def test_two_perfect_patterns_delta_one(self):
        # Two rows per class; pattern (0,) covers class 0, (1,) class 1.
        data = TransactionDataset(
            transactions=[(0,), (0,), (1,), (1,)],
            labels=[0, 0, 1, 1],
            n_items=2,
        )
        patterns = [
            Pattern(items=(0,), support=2),
            Pattern(items=(1,), support=2),
        ]
        with session() as sess:
            result = mmrfs(patterns, data, delta=1)
        assert len(result) == 2 and result.fully_covered
        counters = sess.counters
        # Seed selection + one loop round that accepts the second pattern.
        assert counters["selection.mmrfs.candidates"] == 2
        assert counters["selection.mmrfs.accepted"] == 2
        assert counters["selection.mmrfs.rejected"] == 0
        assert counters["selection.mmrfs.rounds"] == 1
        # Only the seed's acceptance re-scores anything: the one candidate
        # still live.  The loop stops after the second acceptance.
        assert counters["selection.mmrfs.gain_evaluations"] == 1
        # Coverage progress: 2 rows after the seed, all 4 after the second.
        assert sess.series["selection.mmrfs.covered_rows"] == [2, 4]
        [span] = [s for s in sess.spans if s["name"] == "selection.mmrfs"]
        assert span["attrs"]["selected"] == 2
        assert span["attrs"]["fully_covered"] is True


def _observed_square(x):
    """Process-pool payload: records a span and counters in the worker."""
    with obs_core.span("worker.task", item=x):
        obs_core.add("worker.calls", 1)
        obs_core.record("worker.items", x)
    return x * x


class TestProcessPoolTraceMerge:
    def test_worker_spans_merge_into_one_tree(self):
        with session() as sess:
            with obs_core.span("fanout") as launch:
                results = parallel_map(
                    _observed_square, [1, 2, 3, 4], n_jobs=2, executor="process"
                )
        assert results == [1, 4, 9, 16]
        worker_spans = [s for s in sess.spans if s["name"] == "worker.task"]
        assert len(worker_spans) == 4
        # Worker roots re-parent under the launching span: one tree.
        assert all(s["parent"] == launch.span_id for s in worker_spans)
        # The spans really came from other processes.
        assert all(s["pid"] != os.getpid() for s in worker_spans)
        # Counters merge additively; series in submission order.
        assert sess.counters["worker.calls"] == 4
        assert sess.series["worker.items"] == [1, 2, 3, 4]

    def test_thread_fanout_adopts_launching_span(self):
        with session() as sess:
            with obs_core.span("fanout") as launch:
                parallel_map(
                    _observed_square, [1, 2, 3], n_jobs=2, executor="thread"
                )
        worker_spans = [s for s in sess.spans if s["name"] == "worker.task"]
        assert len(worker_spans) == 3
        assert all(s["parent"] == launch.span_id for s in worker_spans)
        assert all(s["pid"] == os.getpid() for s in worker_spans)

    def test_parallel_mining_counters_match_serial(self, planted_transactions):
        with session() as serial_sess:
            serial = mine_class_patterns(planted_transactions, min_support=0.2)
        with session() as parallel_sess:
            parallel = mine_class_patterns(
                planted_transactions, min_support=0.2, n_jobs=2
            )
        assert serial.patterns == parallel.patterns
        mining_counters = {
            name: value
            for name, value in serial_sess.counters.items()
            if name.startswith("mining.")
        }
        for name, value in mining_counters.items():
            assert parallel_sess.counters[name] == value, name


class TestPoolUnavailableFallback:
    def test_warns_and_runs_serially(self, monkeypatch):
        monkeypatch.setattr(
            parallel_mod, "process_pool_available", lambda: False
        )
        with session() as sess:
            with pytest.warns(RuntimeWarning, match="process pools are unavailable"):
                results = parallel_map(
                    _observed_square, [1, 2, 3], n_jobs=2, executor="process"
                )
        assert results == [1, 4, 9]
        [event] = [e for e in sess.events if e["kind"] == "warning"]
        assert event["attrs"]["requested_jobs"] == 2
        assert event["attrs"]["n_items"] == 3

    def test_warns_even_without_session(self, monkeypatch):
        monkeypatch.setattr(
            parallel_mod, "process_pool_available", lambda: False
        )
        with pytest.warns(RuntimeWarning):
            assert parallel_map(
                _observed_square, [2, 3], n_jobs=4, executor="process"
            ) == [4, 9]

    def test_thread_executor_unaffected(self, monkeypatch):
        monkeypatch.setattr(
            parallel_mod, "process_pool_available", lambda: False
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(
                _observed_square, [1, 2], n_jobs=2, executor="thread"
            ) == [1, 4]


class TestWallClockGuardRestoration:
    """Regression tests: the SIGALRM guard must not clobber outer alarms."""

    def _clear_alarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def test_restores_previous_handler(self):
        fired = []

        def outer_handler(signum, frame):
            fired.append(signum)

        original = signal.signal(signal.SIGALRM, outer_handler)
        try:
            with _wall_clock_limit(5.0):
                pass
            assert signal.getsignal(signal.SIGALRM) is outer_handler
        finally:
            signal.signal(signal.SIGALRM, original)

    def test_restores_remaining_outer_timer(self):
        original = signal.signal(signal.SIGALRM, lambda s, f: None)
        try:
            signal.setitimer(signal.ITIMER_REAL, 30.0)
            with _wall_clock_limit(5.0):
                time.sleep(0.05)
            remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
            # Re-armed with the outer delay minus the time the block used.
            assert 0.0 < remaining <= 30.0 - 0.05 + 1e-3
        finally:
            self._clear_alarm()

    def test_no_timer_left_armed_without_outer_timer(self):
        with _wall_clock_limit(5.0):
            pass
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def test_expired_outer_timer_fires_after_exit(self):
        fired = []
        original = signal.signal(signal.SIGALRM, lambda s, f: fired.append(s))
        try:
            # The outer deadline elapses *inside* the guarded block; on exit
            # it must be re-armed (near-immediately), late rather than lost.
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with _wall_clock_limit(5.0):
                time.sleep(0.4)
            deadline = time.monotonic() + 2.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fired, "outer timer was cancelled instead of re-armed"
        finally:
            self._clear_alarm()

    def test_limit_still_interrupts(self):
        with pytest.raises(MiningTimeLimitExceeded):
            with _wall_clock_limit(0.05):
                time.sleep(5.0)
