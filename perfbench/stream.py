"""The ``stream`` workload: ``run_stream``'s window loop over a concept shift.

Events come from two austral-shaped generators with different seeds, the
second taking over halfway, so drift triggers re-selection.  The events
are the same for every seed; the seed orders the arrivals within each
shard, so every seed seals the same shards and re-selects at the same
seals (a seed that drew other events re-selected 9 to 12 times, and the
spread measured that).  Untraced, a run times whole ``run_stream`` passes
(``work_s``) and the time to consume each sealing event (``lat_*``: window
advance, drift check, optional re-selection and checkpoint), scaled to the
nominal machine speed by a :class:`~perfbench.common.Pace`.  A seal's
latency is its median over the passes: pooling the passes put the tail
among copies of the few re-selecting seals, and its quartile spread over
five seeds ranged from 0.05 to 0.18.  Traced, it replays the same loop
from the public streaming pieces and checks it reproduces
``run_stream``'s tracked counts, re-selection epochs and final checkpoint.
"""

from __future__ import annotations

import shutil
import statistics
import time

import numpy as np

from repro import obs
from repro.datasets.transactions import TransactionDataset
from repro.io.serialize import selection_to_json
from repro.runtime.cache import ArtifactCache, content_key, fingerprint
from repro.selection.mmrfs import mmrfs
from repro.streaming import (
    DriftMonitor,
    SlidingWindowCounts,
    StreamSpec,
    TopKMiner,
    run_stream,
    stream_fingerprint,
)

from .common import (
    Layers,
    Pace,
    Result,
    latency_metrics,
    peak_rss_mb,
    repeat_for,
    spec_rows,
    timed_setup,
    write_trace,
)

#: Events per generator; the concept shifts after the first half.
HALF = 10_000
#: Registry seed of austral, then a second, unrelated concept.
CONCEPT_SEEDS = (102, 302)
N_ITEMS = 42  # austral: 14 attributes of arity 3
SPEC = StreamSpec(n_items=N_ITEMS, n_classes=2, k=20, shard_rows=256, window_shards=8)
#: ``run_stream``'s checkpoint stage and payload format.
SHARD_STAGE = "stream_shard"
FORMAT_VERSION = 1


def _events(seed: int) -> list[tuple[tuple[int, ...], int]]:
    events = []
    for concept in CONCEPT_SEEDS:
        data = TransactionDataset.from_dataset(
            spec_rows("austral", HALF, spec_seed=concept)
        )
        events += list(zip(data.transactions, data.labels.tolist()))
    rng = np.random.default_rng(seed)
    order = np.concatenate([
        start + rng.permutation(min(SPEC.shard_rows, len(events) - start))
        for start in range(0, len(events), SPEC.shard_rows)
    ])
    return [events[i] for i in order]


class _TimedEvents(list):
    """The event list, stamping the time each event is handed to the consumer.

    ``run_stream`` iterates ``events[consumed:]``; the slice is served by a
    generator that records ``perf_counter`` less the pace's probe time
    before yielding each event, so ``pulled[i + 1] - pulled[i]`` is the
    time spent consuming event ``i``.
    """

    def __init__(self, events, pace: Pace) -> None:
        super().__init__(events)
        self.pace = pace
        self.pulled: list[float] = []

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._stamped(super().__getitem__(index))
        return super().__getitem__(index)

    def _stamped(self, events):
        stamp = self.pulled.append
        clock = time.perf_counter
        pace = self.pace
        for event in events:
            stamp(clock() - pace.spent)
            yield event


def run(seed: int, seconds: float, trace: bool, out_dir) -> Result:
    pace = Pace()
    events, setup_s = timed_setup(lambda _previous: _events(seed), pace)
    if trace:
        return _traced(events, seed, out_dir)

    result = Result()
    run_dir = out_dir / f"stream-seed{seed}"
    sealing = np.arange(SPEC.shard_rows - 1, len(events) - 1, SPEC.shard_rows)
    pass_times: list[float] = []
    seal_latencies: list[np.ndarray] = []
    reports: list[dict] = []

    def one_pass(_i: int) -> None:
        shutil.rmtree(run_dir, ignore_errors=True)
        timed = _TimedEvents(events, pace)
        mark = pace.mark()
        reports.append(run_stream(timed, SPEC, out_dir=run_dir).report)
        pass_times.append(pace.seconds(mark))
        pulled = np.asarray(timed.pulled)
        seal_latencies.append(
            (pulled[sealing + 1] - pulled[sealing]) * pace.scale(mark[0])
        )
        result.check(
            reports[-1] == reports[0]
            and reports[-1]["seals"] == len(events) // SPEC.shard_rows
        )

    with pace.sampling():
        repeat_for(seconds, one_pass)
    shutil.rmtree(run_dir, ignore_errors=True)

    result.metrics.update(
        setup_s=setup_s,
        work_s=statistics.median(pass_times),
        peak_rss_mb=peak_rss_mb(),
        **latency_metrics(np.median(seal_latencies, axis=0)),
    )
    return result


def _traced(events, seed: int, out_dir) -> Result:
    result = Result()
    reference_dir = out_dir / f"stream-seed{seed}-reference"
    composed_dir = out_dir / f"stream-seed{seed}-composed"
    for directory in (reference_dir, composed_dir):
        shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    reference = run_stream(events, SPEC, out_dir=reference_dir).report
    untraced_s = time.perf_counter() - start

    layers = Layers()
    key = stream_fingerprint(SPEC, events)
    cache = ArtifactCache(composed_dir / "cache")
    window = SlidingWindowCounts(
        SPEC.n_items, SPEC.n_classes, SPEC.shard_rows, SPEC.window_shards
    )
    monitor = DriftMonitor(tolerance=SPEC.drift_tolerance)
    windows: list[dict] = []
    topk_json = selection_json = payload = None
    seals = reselections = checkpoint_bytes = consumed = 0
    start = time.perf_counter()
    with obs.session() as session:
        with obs.span("bench.stream", events=len(events)):
            while consumed < len(events):
                sealed = None
                with layers("streaming.append"):
                    while consumed < len(events) and sealed is None:
                        items, label = events[consumed]
                        sealed = window.append(items, label)
                        consumed += 1
                if sealed is None:
                    break
                with layers("streaming.count"):
                    counts = window.counts()
                    totals = window.class_totals()
                had_baseline = monitor.has_baseline
                with layers("streaming.drift"):
                    drift = monitor.evaluate(counts, totals)
                if drift.drifted:
                    data = window.window_dataset(name=f"stream-window-{sealed}")
                    miner = TopKMiner(
                        k=SPEC.k,
                        min_length=SPEC.min_length,
                        max_length=SPEC.max_length,
                        frontier_cap=SPEC.frontier_cap,
                        bound_mode=SPEC.bound_mode,
                    )
                    with layers("streaming.topk"):
                        topk = miner.mine(data)
                    with layers("streaming.select"):
                        selection = mmrfs(
                            topk.patterns, data, relevance=SPEC.relevance, delta=SPEC.delta
                        )
                    window.track([p.items for p in selection.patterns])
                    monitor.rebase(window.counts(), totals)
                    topk_json = topk.to_json()
                    selection_json = selection_to_json(selection)
                    reselections += 1
                seals += 1
                windows.append(
                    {
                        "epoch": sealed,
                        "window_rows": window.window_rows,
                        "reselected": drift.drifted,
                        "max_shift": drift.max_shift if had_baseline else None,
                        "n_tracked": drift.n_tracked,
                    }
                )
                payload = {
                    "format_version": FORMAT_VERSION,
                    "epoch": sealed,
                    "events_consumed": consumed,
                    "seals": seals,
                    "n_reselections": reselections,
                    "window": window.to_payload(),
                    "monitor": monitor.to_payload(),
                    "topk": topk_json,
                    "selection": selection_json,
                    "windows": windows,
                }
                with layers("runtime.checkpoint"):
                    path = cache.put(
                        SHARD_STAGE, fingerprint(run=key, seal=sealed), payload
                    )
                checkpoint_bytes += path.stat().st_size
    traced_s = time.perf_counter() - start
    write_trace(session, out_dir, "stream", seed, {"events": len(events)})

    counts = window.counts()
    tracked = [
        {"items": list(items), "class_counts": [int(c) for c in counts[i]]}
        for i, items in enumerate(window.patterns)
    ]
    final = ArtifactCache(reference_dir / "cache").get(
        SHARD_STAGE, fingerprint(run=key, seal=windows[-1]["epoch"])
    )
    result.check(
        tracked == reference["tracked"]
        and [w["epoch"] for w in windows if w["reselected"]]
        == [w["epoch"] for w in reference["windows"] if w["reselected"]]
        and content_key(payload) == content_key(final)
    )
    for directory in (reference_dir, composed_dir):
        shutil.rmtree(directory, ignore_errors=True)

    seconds = layers.seconds
    result.metrics.update(
        {
            "streaming.append_s": seconds["streaming.append"],
            "streaming.count_s": seconds["streaming.count"],
            "streaming.drift_s": seconds["streaming.drift"],
            "streaming.topk_s": seconds.get("streaming.topk", 0.0),
            "streaming.select_s": seconds.get("streaming.select", 0.0),
            "streaming.seals": seals,
            "streaming.reselect_frac": reselections / max(1, seals),
            "runtime.checkpoint_s": seconds["runtime.checkpoint"],
            "runtime.checkpoint_bytes": checkpoint_bytes,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }
    )
    return result
