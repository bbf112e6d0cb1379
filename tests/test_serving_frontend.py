"""Stress tests for the concurrent serving frontend.

The contract under test: however many client threads hammer one
:class:`~repro.serving.frontend.ServingFrontend`, every accepted request
completes exactly once with predictions byte-identical to serial
execution — including while injected faults are killing workers
mid-request (``repro.testing.faults`` staged at the ``serve_worker``
seam).
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.serving import (
    ServingClosedError,
    ServingFrontend,
    ServingTelemetry,
    compile_model,
)
from repro.serving import frontend as frontend_module
from repro.testing.faults import Fault, injected_faults
from tests.serving_common import fitted_pipeline


@pytest.fixture(scope="module")
def compiled():
    pipeline, _ = fitted_pipeline("svm")
    return compile_model(pipeline)


@pytest.fixture(scope="module")
def workload(compiled):
    _, data = fitted_pipeline("svm")
    batches = [
        data.transactions[start : start + 9]
        for start in range(0, data.n_rows, 9)
    ]
    serial = [compiled.predict(batch) for batch in batches]
    return batches, serial


def _hammer(frontend, batches, n_threads: int = 6, rounds: int = 3):
    """Submit every batch from several threads at once; collect futures
    keyed by (thread, round, batch index) so nothing can be conflated."""
    futures = {}
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        for round_no in range(rounds):
            for index, batch in enumerate(batches):
                future = frontend.submit(batch)
                with lock:
                    futures[(thread_id, round_no, index)] = future

    threads = [
        threading.Thread(target=client, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return futures


class TestConcurrentParity:
    def test_concurrent_equals_serial(self, compiled, workload):
        batches, serial = workload
        with ServingFrontend(compiled, n_workers=4, queue_size=8) as frontend:
            futures = _hammer(frontend, batches)
            results = {key: f.result(timeout=30) for key, f in futures.items()}
        n_threads, rounds = 6, 3
        assert len(results) == n_threads * rounds * len(batches)
        for (_, _, index), labels in results.items():
            assert labels.tobytes() == serial[index].tobytes()
        stats = frontend.stats()
        assert stats["requests"] == len(results)
        assert stats["rows"] == sum(len(b) for b in batches) * n_threads * rounds
        assert stats["worker_deaths"] == 0
        assert stats["latency_s"]["count"] == len(results)
        assert stats["latency_s"]["p99"] >= stats["latency_s"]["p50"] >= 0

    def test_single_worker_preserves_results(self, compiled, workload):
        batches, serial = workload
        with ServingFrontend(compiled, n_workers=1, queue_size=2) as frontend:
            futures = [frontend.submit(batch) for batch in batches]
            for future, expected in zip(futures, serial):
                assert np.array_equal(future.result(timeout=30), expected)


class TestWorkerDeath:
    def test_no_drops_or_duplicates_under_worker_deaths(
        self, compiled, workload, tmp_path
    ):
        batches, serial = workload
        deaths = 3
        # "raise" (not "exit") — these workers are threads of the test
        # process; an exit fault would take the whole interpreter down.
        faults = [Fault(point="serve_worker:claim", action="raise", times=deaths)]
        with injected_faults(faults, tmp_path / "fault-state"):
            with ServingFrontend(compiled, n_workers=3, queue_size=8) as frontend:
                futures = _hammer(frontend, batches, n_threads=4, rounds=2)
                results = {
                    key: f.result(timeout=30) for key, f in futures.items()
                }
        assert len(results) == 4 * 2 * len(batches)
        for (_, _, index), labels in results.items():
            assert labels.tobytes() == serial[index].tobytes()
        stats = frontend.stats()
        assert stats["worker_deaths"] == deaths
        # every request still completed exactly once
        assert stats["requests"] == len(results)

    def test_replacement_workers_keep_pool_alive(self, compiled, tmp_path):
        # kill more workers than the pool holds; replacements must keep
        # serving until the workload completes
        faults = [Fault(point="serve_worker:claim", action="raise", times=5)]
        batch = [(0, 1), (2,)]
        expected = compiled.predict(batch)
        with injected_faults(faults, tmp_path / "fault-state"):
            with ServingFrontend(compiled, n_workers=2, queue_size=4) as frontend:
                results = [frontend.predict(batch) for _ in range(20)]
        for labels in results:
            assert np.array_equal(labels, expected)
        assert frontend.stats()["worker_deaths"] == 5


class TestLifecycle:
    def test_submit_after_close_raises(self, compiled):
        frontend = ServingFrontend(compiled, n_workers=1)
        frontend.close()
        assert frontend.closed
        with pytest.raises(ServingClosedError):
            frontend.submit([(0,)])

    def test_close_drains_accepted_work(self, compiled, workload):
        batches, serial = workload
        frontend = ServingFrontend(compiled, n_workers=2, queue_size=64)
        futures = [frontend.submit(batch) for batch in batches]
        frontend.close()  # default drain=True
        for future, expected in zip(futures, serial):
            assert np.array_equal(future.result(timeout=0), expected)

    def test_close_without_drain_fails_pending_futures(self, compiled, tmp_path):
        # Stall both workers with sleep faults so submissions stay queued,
        # then close(drain=False): queued futures must fail, not hang.
        faults = [
            Fault(point="serve_worker:claim", action="sleep", seconds=0.3, times=2)
        ]
        with injected_faults(faults, tmp_path / "fault-state"):
            frontend = ServingFrontend(compiled, n_workers=2, queue_size=16)
            futures = [frontend.submit([(0,)]) for _ in range(10)]
            frontend.close(drain=False)
        outcomes = {"done": 0, "cancelled": 0}
        for future in futures:
            try:
                future.result(timeout=5)
                outcomes["done"] += 1
            except ServingClosedError:
                outcomes["cancelled"] += 1
        assert outcomes["done"] + outcomes["cancelled"] == 10
        assert outcomes["cancelled"] > 0

    def test_constructor_validation(self, compiled):
        with pytest.raises(ValueError):
            ServingFrontend(compiled, n_workers=0)
        with pytest.raises(ValueError):
            ServingFrontend(compiled, queue_size=0)

    def test_request_error_resolves_future(self, compiled):
        with ServingFrontend(compiled, n_workers=1) as frontend:
            future = frontend.submit([["not", "items"]])
            with pytest.raises(Exception):
                future.result(timeout=30)
        # the frontend survives a poisoned request
        assert frontend.stats()["requests"] == 1
        assert frontend.stats()["errors"] == 1


class TestWorkerRoster:
    def test_dead_workers_are_pruned_from_roster(self, compiled, tmp_path):
        # Each injected death leaves a finished thread behind; respawns
        # must prune them so the roster stays bounded over a long uptime
        # instead of accumulating one dead Thread object per death.
        deaths = 6
        faults = [
            Fault(point="serve_worker:claim", action="raise", times=deaths)
        ]
        batch = [(0, 1), (2,)]
        with injected_faults(faults, tmp_path / "fault-state"):
            with ServingFrontend(compiled, n_workers=2, queue_size=4) as frontend:
                for _ in range(30):
                    frontend.predict(batch)
                with frontend._lock:
                    roster = list(frontend._workers)
                # Live workers plus at most the replacements spawned for
                # deaths whose dying thread hasn't fully exited yet.
                assert len(roster) <= frontend.n_workers + deaths
                assert sum(w.is_alive() for w in roster) >= 1
        assert frontend.stats()["worker_deaths"] == deaths
        # After close() every worker has exited and the roster is empty.
        assert frontend._workers == []

    def test_close_empties_roster_without_deaths(self, compiled):
        frontend = ServingFrontend(compiled, n_workers=3)
        assert len(frontend._workers) == 3
        frontend.close()
        assert frontend._workers == []


class TestBlockingWorkers:
    """Idle workers block on the queue; ``close`` wakes each with a stop
    sentinel.  Asserted on the calls the workers make and on thread
    state, never on how long anything took."""

    @staticmethod
    def _spied_gets(calls):
        real_get = queue.Queue.get

        def get(q, block=True, timeout=None):
            name = threading.current_thread().name
            if name.startswith("serving-worker-"):
                calls.append((name, block, timeout))
            return real_get(q, block, timeout)

        return mock.patch.object(queue.Queue, "get", get)

    @staticmethod
    def _close(frontend, **close_kwargs):
        """close() on its own thread, so a hang fails instead of stalling."""
        closer = threading.Thread(target=frontend.close, kwargs=close_kwargs)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive()

    def _close_and_check(self, frontend, calls, **close_kwargs):
        with frontend._lock:
            roster = list(frontend._workers)
        self._close(frontend, **close_kwargs)
        assert not any(worker.is_alive() for worker in roster)
        assert frontend._workers == []
        assert frontend._queue.qsize() == 0
        assert frontend._queue.unfinished_tasks == 0
        assert calls and all(
            block is True and timeout is None for _, block, timeout in calls
        )
        assert {name for name, _, _ in calls} == {w.name for w in roster}

    def test_idle_frontend_makes_no_timed_get(self, compiled):
        calls = []
        with self._spied_gets(calls):
            frontend = ServingFrontend(compiled, n_workers=3)
            assert frontend.predict([(0, 1), (2,)]) is not None
            self._close_and_check(frontend, calls)

    def test_more_workers_than_queue_slots_all_stop(self, compiled, workload):
        batches, serial = workload
        calls = []
        with self._spied_gets(calls):
            frontend = ServingFrontend(compiled, n_workers=4, queue_size=1)
            futures = [frontend.submit(batch) for batch in batches]
            self._close_and_check(frontend, calls)
        for future, expected in zip(futures, serial):
            assert np.array_equal(future.result(timeout=0), expected)

    def test_close_without_drain_stops_every_worker(self, compiled):
        calls = []
        with self._spied_gets(calls):
            frontend = ServingFrontend(compiled, n_workers=2, queue_size=8)
            futures = [frontend.submit([(0,)]) for _ in range(8)]
            self._close_and_check(frontend, calls, drain=False)
        for future in futures:
            assert future.done()

    def test_worker_deaths_then_close_stop_every_worker(self, compiled, tmp_path):
        faults = [Fault(point="serve_worker:claim", action="raise", times=3)]
        calls = []
        with injected_faults(faults, tmp_path / "fault-state"):
            with self._spied_gets(calls):
                frontend = ServingFrontend(compiled, n_workers=2, queue_size=1)
                for _ in range(6):
                    frontend.predict([(0, 1)])
                self._close(frontend)
        assert frontend.stats()["worker_deaths"] == 3
        assert frontend._workers == []
        assert frontend._queue.unfinished_tasks == 0
        assert all(timeout is None for _, _, timeout in calls)

    def test_second_close_returns(self, compiled):
        frontend = ServingFrontend(compiled, n_workers=3, queue_size=1)
        self._close(frontend, drain=False)
        self._close(frontend)
        assert frontend._workers == []
        assert frontend._queue.qsize() == 0


class TestSubmitCloseRace:
    """A submit that passed the closed check before ``close()`` is
    accepted work, so ``close()`` waits for its request to reach the
    queue and its future resolves.  The submit is held between the check
    and the put by a gate in the request constructor; the test asserts
    on the future and the queue, never on how long anything took."""

    @pytest.mark.parametrize("drain", [True, False])
    def test_submit_inside_close_resolves(self, compiled, monkeypatch, drain):
        entered, release = threading.Event(), threading.Event()

        class GatedRequest(frontend_module._Request):
            __slots__ = ()

            def __init__(self, *args) -> None:
                entered.set()
                release.wait()
                super().__init__(*args)

        monkeypatch.setattr(frontend_module, "_Request", GatedRequest)
        frontend = ServingFrontend(compiled, n_workers=2)
        futures = []
        submitter = threading.Thread(
            target=lambda: futures.append(frontend.submit([(0, 1)]))
        )
        submitter.start()
        assert entered.wait(timeout=30)
        closer = threading.Thread(target=frontend.close, kwargs={"drain": drain})
        closer.start()
        # Give an unguarded close() the chance to finish (stop sentinels
        # queued, workers gone) before the gated request is let through.
        closer.join(timeout=0.5)
        release.set()
        submitter.join(timeout=30)
        closer.join(timeout=30)
        assert not submitter.is_alive() and not closer.is_alive()
        (future,) = futures
        assert future.done()
        if future.exception() is not None:
            assert not drain
            assert isinstance(future.exception(), ServingClosedError)
        assert frontend._queue.qsize() == 0
        assert frontend._queue.unfinished_tasks == 0
        with pytest.raises(ServingClosedError):
            frontend.submit([(0, 1)])

    def test_clients_submitting_through_close_all_resolve(self, compiled):
        """Eight clients submit until they are refused while close()
        runs, with a short switch interval to interleave them with it:
        every future a submit returned is resolved when close returns."""
        accepted = []
        lock = threading.Lock()
        busy = threading.Event()
        frontend = ServingFrontend(compiled, n_workers=4, queue_size=4)

        def client() -> None:
            while True:
                try:
                    future = frontend.submit([(0, 1)])
                except ServingClosedError:
                    return
                with lock:
                    accepted.append(future)
                    if len(accepted) >= 64:
                        busy.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            assert busy.wait(timeout=30)
            frontend.close()
            unresolved = sum(not future.done() for future in accepted)
            for thread in clients:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert unresolved == 0
        assert all(future.exception() is None for future in accepted)
        assert frontend._queue.qsize() == 0


class TestLatencyAttribution:
    def test_backpressure_blocking_is_not_charged_to_queue_wait(
        self, compiled, tmp_path
    ):
        """A submit() that blocks on a full queue must not book the stall
        as queue-wait: the clock starts when the request enters the
        queue.  Staged with one slow worker (sleep fault) holding the
        single-slot queue full while a third client blocks in submit().
        """
        from repro.serving import TelemetryConfig

        telemetry = ServingTelemetry(TelemetryConfig(sample_every=1))
        faults = [
            Fault(
                point="serve_worker:claim",
                action="sleep",
                seconds=0.6,
                times=1,
            )
        ]
        batch = [(0, 1)]
        with injected_faults(faults, tmp_path / "fault-state"):
            with ServingFrontend(
                compiled, n_workers=1, queue_size=1, telemetry=telemetry
            ) as frontend:
                frontend.submit(batch)  # A: claimed, sleeps 0.6 s
                frontend.submit(batch)  # B: fills the one-slot queue

                # C: blocks inside submit() until B is claimed.
                def late_client():
                    frontend.submit(batch)

                blocked = threading.Thread(target=late_client)
                blocked.start()
                blocked.join(timeout=30)
                assert not blocked.is_alive()

        by_id = {
            s["request_id"]: s for s in telemetry.snapshot()["samples"]
        }
        assert sorted(by_id) == [0, 1, 2]
        # A's sleep is execute time (the worker held the request).
        assert by_id[0]["execute_s"] >= 0.55
        assert by_id[0]["queue_wait_s"] < 0.3
        # B genuinely sat in the queue behind the slow worker.
        assert by_id[1]["queue_wait_s"] >= 0.4
        # C spent ~0.6 s blocked in submit(), but entered the queue only
        # at the end — its recorded queue-wait must stay small.
        assert by_id[2]["queue_wait_s"] < 0.3

        stats = frontend.stats()
        assert stats["queue_wait_s"]["count"] == 3
        assert stats["execute_s"]["count"] == 3
        assert stats["execute_s"]["max"] >= 0.55


class _FailingModel:
    """Serves one item space like a compiled model, but every predict
    fails — after the frontend's sanitize pass has already dropped the
    request's unknown ids."""

    n_items = 4

    def predict(self, transactions, sanitize=True):
        raise RuntimeError("model failure")


class TestOneAccount:
    """``stats()``, the telemetry snapshot and the active obs session
    are views of one per-request record, so they agree by construction."""

    def test_cancelled_requests_agree_with_snapshot(self, compiled, tmp_path):
        faults = [
            Fault(point="serve_worker:claim", action="sleep", seconds=0.3)
        ]
        telemetry = ServingTelemetry()
        with injected_faults(faults, tmp_path / "fault-state"):
            frontend = ServingFrontend(
                compiled, n_workers=1, queue_size=16, telemetry=telemetry
            )
            futures = [frontend.submit([(0,)]) for _ in range(6)]
            # Let the one worker claim (and sleep on) the first request,
            # so the close below cancels the other five.
            while frontend.stats()["queue_depth"] == 6:
                time.sleep(0.005)
            frontend.close(drain=False)
        assert futures[0].result(timeout=5) is not None
        for future in futures[1:]:
            with pytest.raises(ServingClosedError):
                future.result(timeout=5)
        stats = frontend.stats()
        cumulative = telemetry.snapshot()["cumulative"]
        assert stats["cancelled"] == 5
        for key in ("requests", "rows", "cancelled"):
            assert stats[key] == cumulative[key]
        assert stats["requests"] == 6
        assert (
            stats["latency_s"]["count"]
            == stats["requests"] - stats["cancelled"]
        )

    def test_session_counters_equal_stats(self, tmp_path):
        faults = [Fault(point="serve_worker:claim", action="raise", times=1)]
        with obs.session() as session:
            with injected_faults(faults, tmp_path / "fault-state"):
                with ServingFrontend(_FailingModel(), n_workers=1) as frontend:
                    futures = [
                        frontend.submit([(0, 1, 99), (2, 77)])
                        for _ in range(3)
                    ]
                    for future in futures:
                        with pytest.raises(RuntimeError):
                            future.result(timeout=30)
        stats = frontend.stats()
        assert stats["errors"] == 3
        assert stats["dropped_unknown_items"] == 6
        assert stats["worker_deaths"] == 1
        counters = {
            name: value
            for name, value in session.counters.items()
            if name.startswith("serving.")
        }
        assert counters == {
            "serving.requests_served": stats["requests"],
            "serving.unknown_items_dropped": stats["dropped_unknown_items"],
            "serving.worker_deaths": stats["worker_deaths"],
        }
        histograms = session.histograms
        for name, key in (
            ("serving.request_latency_s", "latency_s"),
            ("serving.queue_wait_s", "queue_wait_s"),
            ("serving.execute_s", "execute_s"),
            ("serving.batch_rows", "batch_rows"),
        ):
            assert histograms[name].count == stats[key]["count"] == 3
            assert histograms[name].max == stats[key]["max"]
