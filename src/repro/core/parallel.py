"""Deterministic fan-out for the mining and evaluation hot paths.

The pipeline's natural units of parallelism are embarrassingly parallel
and order-sensitive only in how results are *merged*: per-class-partition
mining (feature generation) and per-fold evaluation (cross-validation).
:func:`parallel_map` runs such a fan-out while keeping the contract of a
plain loop: results come back in item order and the first in-order
exception is raised, so a parallel run is observationally equivalent to
the serial one (modulo wall-clock).

``n_jobs`` follows the familiar convention: ``1`` (or ``None``) means
serial — the default-equivalent path, no executor involved — and ``-1``
means one worker per CPU.  Mining partitions use process workers (the
miners are pure-Python and GIL-bound); fold evaluation uses threads so
non-picklable pipeline factories (closures) keep working.

**Fault tolerance.**  Real process pools die: a worker OOM-killed or
segfaulted surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`
for every in-flight item, and by default that still propagates.  Passing
a :class:`RetryPolicy` makes such *transient* failures survivable: the
pool is rebuilt and only the items without a completed result are
resubmitted, after an exponential backoff — results that finished before
the crash are never recomputed.  Exceptions raised *by the mapped
function* are deterministic and always fail fast (first in item order),
retried or not; retrying a genuine bug would just repeat it.  When the
retry budget is exhausted, :class:`WorkerCrashError` is raised with the
original pool failure as its cause.

Instrumentation (:mod:`repro.obs`) is fan-out aware: with a session
active, process workers record into a fresh per-worker session whose
export rides back with each result and is merged — re-parented under the
launching span — in submission order, and thread workers adopt the
launching span as their parent directly.  With no session active a
process worker opens no session and returns the bare result.  Each retry
round is announced on the obs event channel (``worker_retry``).

Process workers expose a ``worker:<index>`` fault-injection point
(:mod:`repro.testing.faults`), which is how the robustness suite stages
worker deaths deterministically.

**Checkpointing.**  :func:`checkpointed_map` is the one resumable
fan-out: it restores every item whose artifact a cache already holds and
runs only the misses through :func:`parallel_map`, with the worker
itself persisting each result as it finishes.  Partition mining, both
sharded mining passes, CV folds and the experiment's selection stage
all go through it.

On platforms whose process pools are unusable (no working semaphore
support — some sandboxes and WebAssembly builds), a requested process
fan-out degrades to the serial path with a :class:`RuntimeWarning` on the
obs event channel rather than failing or silently diverging.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import BrokenExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Literal, Sequence, TypeVar

from ..obs import core as _obs
from ..testing import faults as _faults

__all__ = [
    "RetryPolicy",
    "WorkerCrashError",
    "resolve_n_jobs",
    "parallel_map",
    "checkpointed_map",
    "process_pool_available",
]

#: Sentinel distinguishing "no shared payload" from a shared value of None.
_NO_SHARED = object()

#: Per-worker-process slot for the pool-wide shared payload (see
#: :func:`parallel_map`'s ``shared``).  Set once per worker by the pool
#: initializer, so the payload crosses the process boundary exactly once
#: per pool instead of once per submitted task.
_SHARED: Any = _NO_SHARED


def _init_shared(payload: Any) -> None:
    """Process-pool initializer: stash the shared payload for this worker."""
    global _SHARED
    _SHARED = payload


ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

ExecutorKind = Literal["process", "thread"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient process-pool failures.

    ``max_retries`` bounds how many times a broken pool is rebuilt; the
    wait before retry ``k`` (0-based) is
    ``min(backoff_cap, backoff_base * backoff_factor ** k)`` — fully
    deterministic, so retried runs stay reproducible.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** attempt,
        )


class WorkerCrashError(RuntimeError):
    """A process fan-out kept losing workers past its retry budget."""

    def __init__(self, attempts: int, n_failed: int) -> None:
        self.attempts = attempts
        self.n_failed = n_failed
        super().__init__(
            f"process pool broke on {n_failed} item(s) after "
            f"{attempts} attempt(s)"
        )


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob to a concrete worker count (>= 1).

    ``None`` and ``1`` mean serial; ``-1`` means ``os.cpu_count()``; any
    other positive integer is taken literally.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
    return n_jobs


def process_pool_available() -> bool:
    """True when this platform can actually run a ProcessPoolExecutor.

    ``concurrent.futures`` needs working multiprocessing synchronization
    primitives; importing ``multiprocessing.synchronize`` is the standard
    probe (it raises ImportError where ``sem_open`` is unimplemented).
    """
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - platform-dependent
        return False
    return True


def _apply(fn: Callable, item: Any, shared: Any) -> Any:
    """Call ``fn`` with or without the pool-wide shared payload."""
    if shared is _NO_SHARED:
        return fn(item)
    return fn(shared, item)


def _call_worker(payload: tuple) -> Any:
    """Run one fan-out item in a process worker.

    Module-level so process pools can pickle it.  Passes the
    ``worker:<index>`` fault point and applies the pool's shared payload.
    When the parent has an obs session (``observed``) the item runs under
    a fresh worker session, returned with the result for the parent to
    absorb.
    """
    fn, item, index, observed = payload
    _faults.fault_point("worker", str(index))
    if not observed:
        return _apply(fn, item, _SHARED)
    with _obs.worker_session() as worker:
        result = _apply(fn, item, _SHARED)
    return result, worker.export()


def _payload_bytes(payload: Any) -> int:
    """Pickled size of one submitted payload (obs accounting only)."""
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable fails later anyway
        return 0


def _collect_batch(
    fn: Callable,
    items: Sequence,
    indices: Sequence[int],
    workers: int,
    results: dict[int, Any],
    shared: Any = _NO_SHARED,
) -> None:
    """Run ``indices`` through one process pool, recording into ``results``.

    Every item is submitted as one :func:`_call_worker` payload.
    Collects in item order; a function-raised exception
    propagates immediately, while pool breakage is re-raised *after* all
    completed results have been harvested, so the caller retries only the
    genuinely lost items.

    An empty ``indices`` is a no-op — a zero-worker pool would raise
    ``ValueError``, which used to crash the retry loop when a broken pool
    had already yielded every result before failing.

    ``shared`` (when given) is shipped to each worker exactly once via the
    pool initializer, not per task; per-task payloads carry ``fn``, the
    item, its index and whether a session observes the run.
    """
    if not indices:
        return
    session = _obs._ACTIVE
    pool_kwargs: dict[str, Any] = {"max_workers": min(workers, len(indices))}
    if shared is not _NO_SHARED:
        pool_kwargs.update(initializer=_init_shared, initargs=(shared,))
        if session is not None:
            session.add("parallel.shared_bytes", _payload_bytes(shared))
    broken: BrokenExecutor | None = None
    with ProcessPoolExecutor(**pool_kwargs) as pool:
        futures = {}
        for i in indices:
            payload = (fn, items[i], i, session is not None)
            futures[i] = pool.submit(_call_worker, payload)
            if session is not None:
                # Fan-out cost accounting: bytes pickled per submitted task
                # (the shared payload is counted once above, not here).
                nbytes = _payload_bytes(payload)
                session.add_many(
                    (
                        ("parallel.tasks_submitted", 1),
                        ("parallel.task_bytes", nbytes),
                    )
                )
        for i in indices:
            try:
                results[i] = futures[i].result()
            except BrokenExecutor as exc:
                broken = broken if broken is not None else exc
    if broken is not None:
        raise broken


def _process_map(
    fn: Callable,
    items: Sequence,
    workers: int,
    retry: RetryPolicy | None,
    shared: Any = _NO_SHARED,
) -> list:
    """Process-pool fan-out with transparent retry of broken pools."""
    session = _obs.active()
    results: dict[int, Any] = {}
    pending = list(range(len(items)))
    attempt = 0
    while True:
        try:
            _collect_batch(fn, items, pending, workers, results, shared)
        except BrokenExecutor as exc:
            failed = [i for i in pending if i not in results]
            if not failed:
                # The pool broke at shutdown after every in-flight result
                # had been harvested — nothing to retry.
                break
            if retry is None or attempt >= retry.max_retries:
                raise WorkerCrashError(attempt + 1, len(failed)) from exc
            delay = retry.delay(attempt)
            _obs.event(
                "worker_retry",
                f"process pool broke on {len(failed)} item(s); "
                f"retry {attempt + 1}/{retry.max_retries} in {delay:g}s",
                attempt=attempt + 1,
                max_retries=retry.max_retries,
                failed_items=len(failed),
                delay_s=delay,
            )
            time.sleep(delay)
            attempt += 1
            pending = failed
            continue
        break

    if session is None:
        return [results[i] for i in range(len(items))]
    parent_id = session.current_span_id()
    ordered = []
    for i in range(len(items)):
        result, export = results[i]
        session.absorb(export, parent_id=parent_id)
        ordered.append(result)
    return ordered


def parallel_map(
    fn: Callable[..., ResultT],
    items: Iterable[ItemT],
    n_jobs: int | None = 1,
    executor: ExecutorKind = "process",
    retry: RetryPolicy | None = None,
    shared: Any = _NO_SHARED,
) -> list[ResultT]:
    """Ordered map over ``items`` with optional process/thread fan-out.

    With ``n_jobs`` resolving to 1 (or a single item) this is exactly
    ``[fn(item) for item in items]`` — no executor, identical exception
    behavior.  With more workers, all items are submitted up front and
    results are collected in submission order; if any call raises, the
    first exception *in item order* propagates.

    ``retry`` (process pools only) makes broken-pool failures — a worker
    killed mid-task — survivable: lost items are resubmitted to a fresh
    pool with exponential backoff, completed results are kept, and
    exceeding the budget raises :class:`WorkerCrashError`.  Exceptions
    raised by ``fn`` itself are never retried.

    ``shared`` ships one large payload to the workers *once per pool*
    (via the pool initializer) instead of once per task; ``fn`` is then
    called as ``fn(shared, item)`` on every path (serial, thread and
    process), so results are independent of the executor as usual.  The
    sharded mining layer uses this to pass a candidate-pattern list to
    every shard-counting task without re-pickling it per shard.

    For ``executor="process"``, ``fn`` and the items must be picklable
    (use module-level functions / :func:`functools.partial`).
    """
    items = list(items)
    workers = min(resolve_n_jobs(n_jobs), len(items))
    if executor == "process" and workers > 1 and not process_pool_available():
        _obs.warn(
            f"n_jobs={n_jobs} requested but process pools are unavailable on "
            "this platform; running serially",
            requested_jobs=int(n_jobs) if n_jobs is not None else 1,
            n_items=len(items),
        )
        workers = 1
    if workers <= 1:
        return [_apply(fn, item, shared) for item in items]
    if executor == "process":
        return _process_map(fn, items, workers, retry, shared)
    if executor != "thread":
        raise ValueError(f"executor must be 'process' or 'thread', got {executor!r}")

    session = _obs.active()
    parent_id = session.current_span_id() if session is not None else None

    # Same process: workers record straight into the session, adopting
    # the launching span as their thread's root parent.
    def bound(item: ItemT) -> ResultT:
        context = (
            nullcontext() if session is None else session.thread_context(parent_id)
        )
        with context:
            return _apply(fn, item, shared)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(bound, item) for item in items]
        return [future.result() for future in futures]



def _persist(fn: Callable, cache: Any, stage: str, *args: Any) -> Any:
    """Compute one checkpointed item and persist it before returning.

    ``args`` is ``(job,)`` or ``(shared, job)`` with ``job = (index, key,
    item)``.  Module-level so process pools can pickle it.  The
    ``stage:<stage>:<index>`` fault point fires once the artifact has
    landed, modelling a crash right after the checkpoint.
    """
    *shared, (index, key, item) = args
    result = fn(*shared, item)
    cache.put(stage, key, result)
    _faults.fault_point("stage", f"{stage}:{index}")
    return result


def checkpointed_map(
    fn: Callable[..., ResultT],
    items: Iterable[ItemT],
    keys: Sequence[str] | None,
    cache: Any,
    stage: str,
    n_jobs: int | None = 1,
    executor: ExecutorKind = "process",
    retry: RetryPolicy | None = None,
    shared: Any = _NO_SHARED,
) -> list[ResultT]:
    """:func:`parallel_map` whose items are checkpointed in ``cache``.

    ``cache`` is anything with ``get(stage, key)`` (``None`` on a miss)
    and ``put(stage, key, payload)`` — an
    :class:`~repro.runtime.cache.ArtifactCache` in practice — and
    ``keys[i]`` is item ``i``'s artifact key.  Every key is probed
    first: a hit is restored and announced by one ``stage_skipped``
    event (attrs ``stage``, ``index``).  The misses then run through
    :func:`parallel_map`, and whichever worker computes an item — serial,
    thread or process — persists it the moment it finishes, so a failing
    item never costs the ones that completed.  Results come back in item
    order.

    ``fn`` must return JSON-serializable payloads.  A restored payload is
    the computed one after a JSON round trip, so tuples come back as
    lists: a caller that can see either must accept both.  With
    ``cache=None`` this is exactly :func:`parallel_map` and ``keys`` is
    ignored.
    """
    items = list(items)
    if cache is None:
        return parallel_map(
            fn, items, n_jobs=n_jobs, executor=executor, retry=retry, shared=shared
        )
    results: list[Any] = [None] * len(items)
    misses: list[int] = []
    for index, key in enumerate(keys):
        payload = cache.get(stage, key)
        if payload is None:
            misses.append(index)
            continue
        results[index] = payload
        _obs.event(
            "stage_skipped",
            f"{stage} item {index}: restored from cache",
            stage=stage,
            index=index,
        )
    computed = parallel_map(
        partial(_persist, fn, cache, stage),
        [(i, keys[i], items[i]) for i in misses],
        n_jobs=n_jobs,
        executor=executor,
        retry=retry,
        shared=shared,
    )
    for index, result in zip(misses, computed):
        results[index] = result
    return results
