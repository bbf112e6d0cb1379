"""Shared pieces of the benchmark: inputs, timers, percentiles, results.

Every workload module has a ``run`` function that returns a
:class:`Result`.  End-to-end metrics come from untraced runs, their times
scaled to a nominal machine speed by :class:`Pace`; per-layer metrics
from a separate traced run whose spans are opened here, around the calls
into each layer's public function.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.datasets.schema import Dataset
from repro.datasets.synthetic import generate
from repro.datasets.uci import SCALABILITY_SPECS, UCI_SPECS

#: Every end-to-end metric, printed by every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, printed by every workload with ``--trace 1``.
#: A layer a workload never calls reads 0 there.
PER_LAYER = {
    "datasets.encode_s": "s",
    "selection.theta_s": "s",
    "mining.mine_s": "s",
    "mining.patterns": "count",
    "measures.cap_s": "s",
    "measures.cap_kept_frac": "frac",
    "selection.mmrfs_s": "s",
    "selection.selected": "count",
    "selection.selected_frac": "frac",
    "features.transform_s": "s",
    "classifiers.learn_s": "s",
    "classifiers.predict_s": "s",
    "classifiers.accuracy": "frac",
    "serving.compile_s": "s",
    "serving.sanitize_s": "s",
    "serving.match_s": "s",
    "serving.predict_s": "s",
    "serving.decide_s": "s",
    "serving.dropped_items": "count",
    "serving.queue_wait_p99_ms": "ms",
    "serving.execute_p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.lat_p50_ms.low": "ms",
    "loadgen.lat_p99_ms.low": "ms",
    "loadgen.lat_p50_ms.high": "ms",
    "loadgen.lat_p99_ms.high": "ms",
    "loadgen.max_rps": "1/s",
    "streaming.append_s": "s",
    "streaming.count_s": "s",
    "streaming.drift_s": "s",
    "streaming.topk_s": "s",
    "streaming.select_s": "s",
    "streaming.seals": "count",
    "streaming.reselect_frac": "frac",
    "runtime.checkpoint_s": "s",
    "runtime.checkpoint_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

#: Setup repeats at least SETUP_MIN times and until SETUP_SECONDS have
#: passed (at most SETUP_MAX times); ``setup_s`` is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 40, 2.0

#: What one probe (see :class:`Pace`) takes on the machine the bounds were
#: set on, a shared 2-core x86 VM, where it read 1.1 to 1.5 ms.
PROBE_NOMINAL_S = 1.25e-3
#: Seconds between probes while a :class:`Pace` samples.
PROBE_INTERVAL_S = 0.05
#: Probes in the burst that starts sampling.
BURST = 30


@dataclass
class Result:
    """What one run reports: operation counts plus named metric values."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def payload(self, trace: bool) -> dict:
        units = PER_LAYER if trace else END_TO_END
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            },
        }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def spec_rows(spec_name: str, n_rows: int, spec_seed: int | None = None) -> Dataset:
    """The registry spec's synthetic data at ``n_rows`` rows.

    Its planted structure and rows come from the spec's own seed (or
    ``spec_seed``), never from the benchmark seed, so every benchmark seed
    sees the same concept.  Run-to-run spread then reflects the program,
    not a different problem per seed.
    """
    spec = {**UCI_SPECS, **SCALABILITY_SPECS}[spec_name]
    return generate(replace(spec, n_rows=n_rows,
                            seed=spec.seed if spec_seed is None else spec_seed))


def split(data: Dataset, seed: int, train_frac: float = 0.8) -> tuple[Dataset, Dataset]:
    """Seeded train/held-out split, rows kept in their original order."""
    order = np.random.default_rng(seed + 1).permutation(data.n_rows)
    cut = int(round(train_frac * data.n_rows))
    return data.subset(np.sort(order[:cut])), data.subset(np.sort(order[cut:]))


def request_sizes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Request row counts: 45% 1-row, 50% 16-row, 5% 256-row, in seeded order.

    The mix is exact, not drawn: a seed changes which rows are asked for
    and in what order, not how many rows the requests hold in total.  No
    size class ends at the median or the 99th percentile: at 50% 1-row
    requests the median fell on the step between two sizes and moved
    20% from seed to seed.
    """
    counts = np.round(np.array([0.45, 0.5, 0.05]) * n).astype(int)
    return rng.permutation(np.repeat([1, 16, 256], counts))


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
_PROBE_WORDS = np.random.default_rng(0).integers(
    0, 2**62, size=(64, 512), dtype=np.int64
)


def _probe_work() -> int:
    """A fixed mix of interpreter and small-array work, as the program does."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(150):
        row = _PROBE_WORDS[i & 63] & _PROBE_WORDS[(i * 7 + 3) & 63]
        acc += int((row >> 40).sum())
        key = (i * 31) % 97
        counts[key] = counts.get(key, 0) + acc % 13
        for j in range(20):
            acc ^= j * i
    return acc


class Pace:
    """The machine's speed, sampled while the benchmark works.

    On a shared host the same work ran at speeds up to 1.6x apart, in CPU
    time as in wall time, switching within seconds and drifting over
    minutes.  A fixed probe computation times the machine at a moment,
    every ``PROBE_INTERVAL_S``: on ``SIGPROF`` (CPU time) while
    :meth:`sampling` single-threaded work, or on :meth:`tick` (wall time)
    between the requests of threaded work, where a probe on a signal
    would contend with the workers.  A unit's time is reported net of the
    probes that ran inside it, times ``PROBE_NOMINAL_S`` over the mean
    probe during it: seconds on a machine where the probe takes
    ``PROBE_NOMINAL_S``.  The probe lives here, so a change to the program
    cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Total seconds spent probing, to take out of the work's time.
        self.spent = 0.0
        self._probing = False
        self._next_tick = 0.0

    def probe(self, *_signal) -> None:
        if self._probing:
            return
        self._probing = True
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._probing = False

    def burst(self) -> None:
        for _ in range(BURST):
            self.probe()

    @contextmanager
    def sampling(self):
        """Probe on ``SIGPROF`` inside the block (after one burst)."""
        self.burst()
        previous = signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, time.perf_counter()

    def scale(self, first: int) -> float:
        """``PROBE_NOMINAL_S`` over the mean probe from sample ``first`` on.

        A unit too short to hold a probe takes the latest burst's speed.
        """
        window = self.samples[first:] or self.samples[-BURST:]
        return PROBE_NOMINAL_S / statistics.fmean(window)

    def seconds(self, mark) -> float:
        """Scaled seconds of work since ``mark``, net of probes."""
        first, spent, start = mark
        net = time.perf_counter() - start - (self.spent - spent)
        return net * self.scale(first)

    def tick(self) -> None:
        """Probe if ``PROBE_INTERVAL_S`` has passed since the last tick's probe.

        For a loop of threaded work to call when no work is in flight, so
        that the probe neither contends with the program's threads nor
        falls inside a timed request.
        """
        now = time.perf_counter()
        if now >= self._next_tick:
            self.probe()
            self._next_tick = now + PROBE_INTERVAL_S


def timed_setup(build, pace: Pace):
    """Run ``build()`` repeatedly; (last value, median scaled seconds).

    ``build`` receives the previous value (or None) so it can release it.
    """
    times: list[float] = []
    value = None
    with pace.sampling():
        while len(times) < SETUP_MIN or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX
        ):
            mark = pace.mark()
            value = build(value)
            times.append(pace.seconds(mark))
    return value, statistics.median(times)


def repeat_for(seconds: float, op, min_calls: int = 1) -> int:
    """Call ``op(i)`` for about ``seconds``, at least ``min_calls`` times.

    Another call starts only if it would end, at the mean call time so
    far, less than half a call past the deadline.  Returns the number of
    calls.
    """
    start = time.perf_counter()
    deadline = start + seconds
    calls = 0
    while calls < min_calls or (
        time.perf_counter() + (time.perf_counter() - start) / calls / 2 < deadline
    ):
        op(calls)
        calls += 1
    return calls


def tail_percentile(n: int) -> float:
    """The highest percentile up to 99 with at least ten samples beyond it."""
    if n <= 10:
        return 50.0
    return min(99.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)


def latency_metrics(samples_s) -> dict[str, float]:
    """``lat_p50_ms`` and ``lat_p99_ms`` (see :func:`tail_percentile`)."""
    samples_ms = np.asarray(samples_s, dtype=float) * 1e3
    return {
        "lat_p50_ms": float(np.percentile(samples_ms, 50)),
        "lat_p99_ms": float(
            np.percentile(samples_ms, tail_percentile(len(samples_ms)))
        ),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Layers:
    """Per-layer wall-time totals, each call also recorded as a span.

    ``with layers("mining.mine"):`` opens a span named after the layer on
    the active :mod:`repro.obs` session and adds the call's wall time to
    ``layers.seconds["mining.mine"]``.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        with obs.span(name):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def write_trace(session, out_dir, workload: str, seed: int, config: dict):
    """Write the traced run as a schema-v2 JSONL trace; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.trace.jsonl"
    return obs.write_trace(
        path,
        session,
        manifest={
            "command": f"perfbench {workload}",
            "config": {"workload": workload, "seed": seed, **config},
            "started_unix": time.time(),
        },
    )
