"""The ``serve`` workload: a compiled MMRFS model behind ``ServingFrontend``.

Setup fits an austral model at paper scale, compiles it and starts a
two-worker frontend with telemetry attached.  The model is the same for
every seed; the seed makes the traffic.  Untraced, a run repeats rounds in
which one closed-loop client sends the request list through the frontend,
each request after the previous reply:

* ``lat_*`` -- percentiles over the requests of each request's median
  latency over the rounds;
* ``work_s`` -- the sum of those medians: a round with every request at
  its median.  The rounds' own times swung with thread hand-offs more
  than the requests' medians did (quartile spread 0.11 against 0.06).

Both are scaled to the nominal machine speed by a
:class:`~perfbench.common.Pace` that probes between requests, when no
request is in flight.
One client, not two: with two clients and two workers on a 2-core machine
the pass time and the open-loop latencies swung with the scheduler, not
the program (quartile spreads of 0.50 to 0.59 over five seeds).

Traced, it makes one serial pass with a span per serving-layer call, then
runs open loops of seeded Poisson arrivals at a low and a high fixed rate,
each request timed from when it was due to be sent, and climbs a fixed
ladder of rates: ``loadgen.max_rps`` is the highest rung that keeps p99
under ``P99_LIMIT_MS`` without a growing backlog.

Every response is compared with a serial ``CompiledModel.predict`` of the
same request, and the frontend's dropped-item count with the number of
unknown item ids injected.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import obs
from repro.datasets.transactions import TransactionDataset
from repro.features.pipeline import FrequentPatternClassifier
from repro.serving.compiled import compile_model, sanitize_transactions
from repro.serving.frontend import ServingFrontend
from repro.serving.telemetry import ServingTelemetry

from .common import (
    Layers,
    Pace,
    Result,
    latency_metrics,
    peak_rss_mb,
    repeat_for,
    request_sizes,
    spec_rows,
    split,
    timed_setup,
    write_trace,
)

N_WORKERS = 2
#: The served model's data: austral at the paper's 690 rows, split the
#: same way for every seed, so that seeds vary the traffic, not the model.
MODEL_ROWS = 690
MODEL_SPLIT_SEED = 0
#: Distinct requests generated in setup.  A closed-loop round sends each
#: once; open-loop phases walk them cyclically.
N_REQUESTS = 2_000
#: Share of request rows that carry one unknown item id (~1% of ids).
UNKNOWN_ROW_FRAC = 0.14
#: Open-loop phases of the traced run: (requests/s, share of ``--seconds``).
LOW = (400.0, 0.25)
HIGH = (1_200.0, 0.25)
#: The max_rps ladder, climbed until a rung misses the p99 limit, falls
#: behind its schedule, or ends its sending with a backlog.
LADDER = (400.0, 800.0, 1_200.0, 1_600.0, 2_000.0, 2_400.0, 2_800.0, 3_200.0)
LADDER_REQUESTS = 1_000
P99_LIMIT_MS = 25.0
MAX_IN_FLIGHT = 32
#: Requests in the traced serial pass.
N_TRACED = 1_000


class _Setup:
    def __init__(self, seed: int) -> None:
        train, test = split(spec_rows("austral", MODEL_ROWS), MODEL_SPLIT_SEED)
        self.pipeline = FrequentPatternClassifier(min_support=0.07, delta=3).fit(train)
        self.model = compile_model(self.pipeline)
        rows = TransactionDataset.from_dataset(test).transactions
        rng = np.random.default_rng(seed + 2)
        self.requests: list[list[tuple[int, ...]]] = []
        #: Unknown item ids injected into each request.
        self.unknown: list[int] = []
        for size in request_sizes(rng, N_REQUESTS):
            request = []
            injected = 0
            for r in rng.integers(0, len(rows), size):
                row = rows[r]
                if rng.random() < UNKNOWN_ROW_FRAC:
                    row = row + (self.model.n_items + int(rng.integers(0, 1_000)),)
                    injected += 1
                request.append(row)
            self.requests.append(request)
            self.unknown.append(injected)
        self.frontend = _frontend(self.model)

    def close(self) -> None:
        self.frontend.close()


def _frontend(model) -> ServingFrontend:
    return ServingFrontend(model, n_workers=N_WORKERS, telemetry=ServingTelemetry())


def _round(frontend: ServingFrontend, requests, reference, result: Result,
           pace: Pace):
    """One client, each request after the previous reply, the pace ticking
    between them; the scaled latencies."""
    latencies = np.empty(len(requests))
    pace.tick()
    first = len(pace.samples)
    for i, request in enumerate(requests):
        sent = time.perf_counter()
        try:
            ok = np.array_equal(frontend.predict(request), reference[i])
        except Exception:  # a refused or failed request is a failed op
            ok = False
        latencies[i] = time.perf_counter() - sent
        result.check(ok)
        pace.tick()
    return latencies * pace.scale(first)


def _open_loop(frontend, setup, reference, rate, n, seed, result):
    """Seeded Poisson arrivals at ``rate``, walking the requests cyclically;
    latencies timed from each due time.

    Returns (latencies_s, late_s, in-flight requests when sending ended).
    """
    rng = np.random.default_rng(seed * 7919 + int(rate))
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    done = np.zeros(n)
    late = np.zeros(n)
    # A future wakes its waiters before it runs its done-callbacks, so the
    # phase ends when the last callback has stamped its completion time,
    # not when the last future is done.
    pending = [n]
    lock = threading.Lock()
    all_stamped = threading.Event()

    def stamp(j: int) -> None:
        done[j] = time.perf_counter()
        with lock:
            pending[0] -= 1
            if pending[0] == 0:
                all_stamped.set()

    futures = []
    start = time.perf_counter() + 0.005
    for j in range(n):
        due_at = start + due[j]
        now = time.perf_counter()
        if due_at > now:
            time.sleep(due_at - now)
        late[j] = max(0.0, time.perf_counter() - due_at)
        future = frontend.submit(setup.requests[j % N_REQUESTS])
        future.add_done_callback(lambda _f, j=j: stamp(j))
        futures.append(future)
    in_flight = sum(1 for f in futures if not f.done())
    all_stamped.wait()
    for j, future in enumerate(futures):
        result.check(
            future.exception() is None
            and np.array_equal(future.result(), reference[j % N_REQUESTS])
        )
    return done - (start + due), late, in_flight


def _phase(setup, reference, rate, n, seed, result):
    """One open-loop phase on a fresh frontend; returns its readings."""
    frontend = _frontend(setup.model)
    try:
        latencies, late, in_flight = _open_loop(
            frontend, setup, reference, rate, n, seed, result
        )
    finally:
        frontend.close()
    stats = frontend.stats()
    injected = sum(setup.unknown[j % N_REQUESTS] for j in range(n))
    result.check(stats["dropped_unknown_items"] == injected)
    return latencies, late, in_flight, stats


def run(seed: int, seconds: float, trace: bool, out_dir) -> Result:
    def build(previous):
        if previous is not None:
            previous.close()
        return _Setup(seed)

    pace = Pace()
    setup, setup_s = timed_setup(build, pace)
    reference = [setup.model.predict(request) for request in setup.requests]
    result = Result()
    (low_rate, low_share), (high_rate, high_share) = LOW, HIGH
    try:
        if not trace:
            rounds: list[np.ndarray] = []
            pace.burst()
            repeat_for(seconds, lambda _i: rounds.append(_round(
                setup.frontend, setup.requests, reference, result, pace
            )))
            result.check(
                setup.frontend.stats()["dropped_unknown_items"]
                == len(rounds) * sum(setup.unknown)
            )
            latencies = np.median(rounds, axis=0)
            result.metrics.update(
                setup_s=setup_s,
                work_s=float(latencies.sum()),
                peak_rss_mb=peak_rss_mb(),
                **latency_metrics(latencies),
            )
            return result

        _traced(setup, reference, seed, out_dir, result)
        low = _phase(setup, reference, low_rate,
                     int(low_rate * low_share * seconds), seed, result)
        high = _phase(setup, reference, high_rate,
                      int(high_rate * high_share * seconds), seed, result)
        max_rps = 0.0
        for rate in LADDER:
            latencies, late, in_flight, _ = _phase(
                setup, reference, rate, LADDER_REQUESTS, seed, result
            )
            if not (
                np.percentile(latencies, 99) * 1e3 <= P99_LIMIT_MS
                and np.percentile(late, 99) * 1e3 <= P99_LIMIT_MS
                and in_flight <= MAX_IN_FLIGHT
            ):
                break
            max_rps = rate
    finally:
        setup.close()

    low_lat = latency_metrics(low[0])
    high_lat = latency_metrics(high[0])
    stats = high[3]
    result.metrics.update(
        {
            "loadgen.lat_p50_ms.low": low_lat["lat_p50_ms"],
            "loadgen.lat_p99_ms.low": low_lat["lat_p99_ms"],
            "loadgen.lat_p50_ms.high": high_lat["lat_p50_ms"],
            "loadgen.lat_p99_ms.high": high_lat["lat_p99_ms"],
            "loadgen.late_p99_ms": float(np.percentile(high[1], 99) * 1e3),
            "loadgen.max_rps": max_rps,
            "serving.queue_wait_p99_ms": stats["queue_wait_s"]["p99"] * 1e3,
            "serving.execute_p99_ms": stats["execute_s"]["p99"] * 1e3,
        }
    )
    return result


def _traced(setup, reference, seed, out_dir, result: Result) -> None:
    """Serial pass over the requests, one span per serving-layer call."""
    requests = setup.requests[:N_TRACED]
    start = time.perf_counter()
    for request in requests:
        setup.model.predict(request)
    untraced_s = time.perf_counter() - start

    layers = Layers()
    dropped = 0
    with obs.session() as session:
        with obs.span("bench.serve", requests=len(requests)):
            with layers("serving.compile"):
                model = compile_model(setup.pipeline)
            for i, request in enumerate(requests):
                with layers("serving.sanitize"):
                    clean, n_dropped = sanitize_transactions(request, model.n_items)
                with layers("serving.match"):
                    model.match_matrix(clean, sanitize=False)
                with layers("serving.predict"):
                    labels = model.predict(clean, sanitize=False)
                dropped += n_dropped
                result.check(np.array_equal(labels, reference[i]))
    write_trace(session, out_dir, "serve", seed, {"requests": len(requests)})
    result.check(dropped == sum(setup.unknown[:N_TRACED]))

    seconds = layers.seconds
    result.metrics.update(
        {
            "serving.compile_s": seconds["serving.compile"],
            "serving.sanitize_s": seconds["serving.sanitize"],
            "serving.match_s": seconds["serving.match"],
            "serving.predict_s": seconds["serving.predict"],
            "serving.decide_s": seconds["serving.predict"] - seconds["serving.match"],
            "serving.dropped_items": dropped,
            "trace.overhead_frac": (
                seconds["serving.sanitize"] + seconds["serving.predict"]
            ) / untraced_s - 1.0,
        }
    )
