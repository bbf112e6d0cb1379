"""The stream consumer's seal spans under ``obs.session()``.

Every seal opens ``streaming.count``, ``streaming.drift`` and
``runtime.checkpoint``; a re-selecting seal also opens ``streaming.topk``
(``TopKMiner.mine``) and ``streaming.select`` (around MMRFS, whose
``selection.mmrfs`` span nests inside it).  All of them are children of
``streaming.run``.  Without a session every span is the shared no-op,
and the report is the same bytes either way.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.obs import core as _obs
from repro.streaming import StreamSpec, run_stream

SPEC = StreamSpec(
    n_items=10,
    n_classes=2,
    k=8,
    max_length=2,
    shard_rows=20,
    window_shards=3,
    drift_tolerance=0.05,
)
SEAL_SPANS = ("streaming.count", "streaming.drift", "runtime.checkpoint")
RESELECT_SPANS = ("streaming.topk", "streaming.select")


def shifting_events(n: int = 160, seed: int = 5):
    """A stream whose class signal flips half-way, so drift re-selects."""
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        label = int(rng.integers(0, 2))
        base = [0, 1] if label ^ (i >= n // 2) else [2, 3]
        extra = rng.choice(SPEC.n_items, size=2, replace=False).tolist()
        events.append((tuple(sorted(set(base + extra))), label))
    return events


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream-spans") / "run"
    with obs.session() as session:
        result = run_stream(shifting_events(), SPEC, out)
    return result, session.spans


class TestSealSpans:
    def test_names_and_counts_per_seal(self, traced):
        result, spans = traced
        names = Counter(span["name"] for span in spans)
        assert result.seals == 8 and 1 < result.n_reselections < result.seals
        assert names == {
            "streaming.run": 1,
            **{name: result.seals for name in SEAL_SPANS},
            **{name: result.n_reselections for name in RESELECT_SPANS},
            "selection.mmrfs": result.n_reselections,
        }

    def test_every_seal_span_is_a_child_of_the_run(self, traced):
        _, spans = traced
        (run,) = [span for span in spans if span["name"] == "streaming.run"]
        assert run["parent"] is None
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            if span["name"] in SEAL_SPANS + RESELECT_SPANS:
                assert span["parent"] == run["id"], span["name"]
            elif span["name"] == "selection.mmrfs":
                assert by_id[span["parent"]]["name"] == "streaming.select"

    def test_seal_spans_carry_their_epoch_in_seal_order(self, traced):
        result, spans = traced
        for name in SEAL_SPANS:
            epochs = [s["attrs"]["epoch"] for s in spans if s["name"] == name]
            assert epochs == list(range(result.seals)), name
        reselected = [w["epoch"] for w in result.report["windows"] if w["reselected"]]
        select = [s["attrs"]["epoch"] for s in spans if s["name"] == "streaming.select"]
        assert select == reselected

    def test_untraced_run_uses_the_shared_no_op_and_writes_the_same_report(
        self, traced, tmp_path
    ):
        result, _ = traced
        assert _obs.active() is None
        assert _obs.span("streaming.count", epoch=0) is _obs._NULL_SPAN
        untraced = run_stream(shifting_events(), SPEC, tmp_path / "run")
        assert untraced.report_path.read_bytes() == result.report_path.read_bytes()
