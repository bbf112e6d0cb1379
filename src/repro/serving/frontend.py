"""Thread-pool serving frontend: bounded queue, worker supervision, SLOs.

One :class:`CompiledModel` is immutable and thread-safe, so concurrency
is purely a scheduling problem: accept prediction requests from many
client threads, bound the memory a burst can pin (a *bounded* queue —
back-pressure instead of unbounded buffering), execute on a fixed worker
pool, and shut down without stranding accepted work.

Delivery contract, enforced by the stress suite
(``tests/test_serving_frontend.py``):

* every accepted request completes exactly once — no drops, no
  duplicates, results byte-identical to serial execution;
* a worker death (staged via :func:`repro.testing.faults.fault_point`
  at ``serve_worker:claim``) re-enqueues the request it was holding
  and spawns a replacement worker, so in-flight work survives;
* after :meth:`close`, new submissions are rejected but every already
  accepted request is drained before workers stop.  A submit that
  passed the closed check before :meth:`close` is accepted: ``close``
  waits for it to land in the queue, so its future resolves too.

Every request is recorded once.  It carries a monotonic
``request_id`` and its latency is split at the claim point into
**queue wait** (time actually spent in the bounded queue — stamped at
the moment the request lands in the queue, *not* when ``submit`` was
called, so back-pressure blocking is never mis-charged to queue
latency) and **execute** (model time).  Workers, ``close(drain=False)``
and the worker-death path hand that record to the frontend's
:class:`~repro.serving.telemetry.ServingTelemetry` — the one account of
the frontend's requests.  :meth:`ServingFrontend.stats` (p50/p90/p99
for total/queue-wait/execute since start), the telemetry's windowed
snapshot and the ``serving.*`` metrics of the active :mod:`repro.obs`
session are all views of it, so they agree by construction.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Sequence

from ..core.bitset import pack_transactions
from ..obs import core as _obs
from ..testing.faults import InjectedFault, fault_point
from .compiled import CompiledModel
from .telemetry import ServingTelemetry

__all__ = ["ServingClosedError", "ServingFrontend"]

#: Re-stamp interval while ``submit`` blocks on a full queue: bounds how
#: much back-pressure time can leak into a request's queue-wait reading.
_ENQUEUE_RETRY_S = 0.05


class ServingClosedError(RuntimeError):
    """Submit was called on a frontend that is shutting down."""


class _Request:
    __slots__ = ("transactions", "future", "request_id", "enqueued_at")

    def __init__(
        self, transactions: Sequence[Sequence[int]], request_id: int
    ) -> None:
        self.transactions = transactions
        self.future: Future = Future()
        self.request_id = request_id
        # Stamped by submit() immediately before the successful queue
        # insert (and re-stamped while blocked on a full queue), so the
        # reading is queue residence, not client-side back-pressure.
        self.enqueued_at = 0.0


class ServingFrontend:
    """Concurrent prediction frontend over one compiled model.

    Parameters
    ----------
    model:
        The compiled model every worker shares (read-only, thread-safe).
    n_workers:
        Worker threads executing predictions.
    queue_size:
        Maximum requests buffered; :meth:`submit` blocks once the queue
        is full (bounded-memory back-pressure under burst load).
    telemetry:
        The :class:`~repro.serving.telemetry.ServingTelemetry` that
        receives one record per request that reached an outcome
        (windowed metrics, trace sampling, SLO evaluation) and that
        :meth:`stats` reads.  ``None`` builds a default one: no SLO
        rules, no event log.
    """

    def __init__(
        self,
        model: CompiledModel,
        n_workers: int = 2,
        queue_size: int = 64,
        telemetry: ServingTelemetry | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.model = model
        self.n_workers = int(n_workers)
        self.queue_size = int(queue_size)
        self.telemetry = telemetry or ServingTelemetry()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._closed = threading.Event()
        self._lock = threading.Lock()
        # Submits past the closed check whose request is not yet queued;
        # close() waits on _submits_landed until there are none.
        self._submitting = 0
        self._submits_landed = threading.Condition(self._lock)
        self._workers: list[threading.Thread] = []
        self._next_worker_id = 0
        self._next_request_id = 0
        self.telemetry.bind_queue(self._queue.qsize, self.queue_size)
        for _ in range(self.n_workers):
            self._spawn_worker()

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        with self._lock:
            # Prune exited workers (fault-injected deaths leave their
            # finished threads behind) so the roster cannot grow without
            # bound over a long uptime of respawns.
            self._workers = [w for w in self._workers if w.is_alive()]
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            worker = threading.Thread(
                target=self._worker_loop,
                args=(worker_id,),
                name=f"serving-worker-{worker_id}",
                daemon=True,
            )
            self._workers.append(worker)
        worker.start()

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            request = self._queue.get()
            if request is None:  # close()'s stop sentinel
                self._queue.task_done()
                return
            claimed_at = time.perf_counter()
            queue_wait = max(claimed_at - request.enqueued_at, 0.0)
            # The model is pinned at claim time: a concurrent
            # swap_model() must not change which model an
            # already-claimed request runs on (and the sleep-fault seam
            # below holds the request *with* this capture, which is what
            # the hot-reload test leans on).
            model = self.model
            try:
                # The staged-death seam: an injected fault here models a
                # worker dying *after* it claimed a request but before it
                # produced a result — the hardest case for the
                # no-drop/no-duplicate contract.  The point name is
                # constant (not the worker id) so a fault plan's `times`
                # bounds deaths globally — replacement workers share the
                # budget instead of resetting it.  A `sleep` fault at the
                # same point models a slow worker: its delay lands in the
                # execute reading (the worker held the request), which is
                # what the SLO latency tests lean on.
                fault_point("serve_worker", "claim")
            except InjectedFault:
                self.telemetry.record_worker_death()
                # Replacement FIRST: with the queue full, the re-enqueue
                # below blocks until a consumer takes an item — if every
                # worker died holding a request, no consumer would exist
                # and re-enqueue + client submits would deadlock.
                self._spawn_worker()
                self._queue.put(request)  # hand the claimed request back
                self._queue.task_done()  # ...and close out our claim
                return
            dropped = 0
            error = None
            try:
                # Packed here, not in predict, so the dropped count is
                # recorded even when the model then fails.
                item_bits, dropped = pack_transactions(
                    request.transactions, model.n_items
                )
                request.future.set_result(model.predict(item_bits))
            except BaseException as exc:  # a request error is a result
                request.future.set_exception(exc)
                error = type(exc).__name__
            try:
                self.telemetry.record_request(
                    request_id=request.request_id,
                    rows=len(request.transactions),
                    queue_wait_s=queue_wait,
                    execute_s=time.perf_counter() - claimed_at,
                    dropped_unknown=dropped,
                    outcome="ok" if error is None else "error",
                    error=error,
                )
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    def swap_model(self, model: CompiledModel) -> CompiledModel:
        """Hot-swap the served model; returns the one it replaced.

        The swap is a single locked attribute write, so it is atomic
        with respect to the workers' claim-time capture: requests
        already claimed (or ahead in the queue when a worker claims
        them before the swap lands) finish on the old model, requests
        claimed after the swap run on the new one.  No queue drain, no
        worker restart, no dropped requests.
        """
        with self._lock:
            previous = self.model
            self.model = model
        _obs.add("serving.model_swaps")
        _obs.event(
            "serving",
            "model hot-swapped",
            n_items=model.n_items,
            previous_n_items=previous.n_items,
        )
        return previous

    def submit(self, transactions: Sequence[Sequence[int]]) -> Future:
        """Enqueue one prediction request; resolves to the label array.

        Blocks while the bounded queue is full.  Raises
        :class:`ServingClosedError` once :meth:`close` has been called.
        """
        with self._lock:
            if self._closed.is_set():
                raise ServingClosedError("frontend is closed to new requests")
            request_id = self._next_request_id
            self._next_request_id += 1
            self._submitting += 1
        try:
            request = _Request(transactions, request_id)
            # Queue-wait starts when the request actually enters the
            # queue.  A blocking put on a full queue would otherwise
            # charge the whole back-pressure stall to queue latency, so
            # re-stamp on every bounded retry: at most _ENQUEUE_RETRY_S
            # of pre-insert time can leak into the reading.
            while True:
                request.enqueued_at = time.perf_counter()
                try:
                    self._queue.put(request, timeout=_ENQUEUE_RETRY_S)
                    break
                except queue.Full:
                    continue
        finally:
            with self._lock:
                self._submitting -= 1
                if not self._submitting and self._closed.is_set():
                    self._submits_landed.notify_all()
        return request.future

    def predict(self, transactions: Sequence[Sequence[int]]) -> Any:
        """Synchronous convenience: submit and wait for the labels."""
        return self.submit(transactions).result()

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests; by default drain accepted work first.

        A submit that passed the closed check before this call is
        accepted work: ``close`` first waits for its request to reach the
        queue.  With ``drain=False`` queued-but-unstarted requests are
        then cancelled (their futures fail with
        :class:`ServingClosedError`).  Once the accepted work is done,
        every worker is sent one stop sentinel: workers block on the
        queue, so nothing else wakes them.
        """
        with self._lock:
            first_close = not self._closed.is_set()
            self._closed.set()
            # Workers keep draining meanwhile, so a submit blocked on a
            # full queue still lands.
            self._submits_landed.wait_for(lambda: not self._submitting)
        if first_close:
            while not drain:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                request.future.set_exception(
                    ServingClosedError("frontend closed before execution")
                )
                self.telemetry.record_request(
                    request_id=request.request_id,
                    rows=len(request.transactions),
                    queue_wait_s=max(
                        time.perf_counter() - request.enqueued_at, 0.0
                    ),
                    execute_s=0.0,
                    outcome="cancelled",
                )
                self._queue.task_done()
            self._queue.join()
            # A worker death spawns its replacement before it returns its
            # claim, so once the queue has joined exactly n_workers
            # threads are waiting on it.
            for _ in range(self.n_workers):
                self._queue.put(None)
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join()
        with self._lock:
            # Everything has exited; drop the roster so the dead-thread
            # objects (and their frames) are collectable.
            self._workers = [w for w in self._workers if w.is_alive()]

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def stats(self) -> dict[str, Any]:
        """Serving counters and latency/batch-size rollups (p50/p90/p99)
        since start: a view of the telemetry's lifetime totals plus the
        frontend's own pool and queue geometry.

        Keys are stable — ``tests/test_cli_serving.py`` pins the set —
        because the ``repro serve --json`` output and the HTTP snapshot
        both build on this dict.  ``requests`` and ``rows`` count every
        request that reached an outcome, cancelled ones included; the
        latency rollups cover the requests that ran.
        """
        telemetry = self.telemetry
        totals = telemetry.totals()
        del totals["sampled_traces"]
        return {
            **totals,
            "n_workers": self.n_workers,
            "queue_capacity": self.queue_size,
            "queue_depth": self._queue.qsize(),
            "latency_s": telemetry.latency.lifetime().summary(),
            "queue_wait_s": telemetry.queue_wait.lifetime().summary(),
            "execute_s": telemetry.execute.lifetime().summary(),
            "batch_rows": telemetry.batch_rows.lifetime().summary(),
        }
