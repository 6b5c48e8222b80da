"""Chrome-trace timeline export tests."""

import json

import pytest

from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload, GDroid
from repro.gpu.spec import TESLA_P40
from repro.gpu.timeline import kernel_timeline_events
from repro.obs.export import write_chrome_trace
from tests.conftest import tiny_app


@pytest.fixture(scope="module")
def priced():
    workload = AppWorkload.build(tiny_app(9))
    return GDroid(GDroidConfig.all_optimizations()).price(workload)


class TestTimeline:
    def test_events_cover_every_block_and_launch(self, priced):
        events = kernel_timeline_events(priced.kernels)
        launches = [e for e in events if e["cat"] == "launch"]
        blocks = [e for e in events if e["cat"] == "block"]
        assert len(launches) == len(priced.kernels)
        assert len(blocks) == sum(len(k.block_costs) for k in priced.kernels)

    def test_spans_do_not_overlap_per_slot(self, priced):
        events = kernel_timeline_events(priced.kernels)
        by_slot = {}
        for event in events:
            if event["cat"] != "block":
                continue
            by_slot.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
        for spans in by_slot.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1e-9

    def test_layers_are_sequential(self, priced):
        """A layer's blocks never start before the previous layer ends."""
        events = kernel_timeline_events(priced.kernels)
        launches = sorted(
            (e for e in events if e["cat"] == "launch"), key=lambda e: e["ts"]
        )
        blocks = [e for e in events if e["cat"] == "block"]
        for first, second in zip(launches, launches[1:]):
            previous_blocks = [
                b for b in blocks if first["ts"] <= b["ts"] < second["ts"]
            ]
            for block in previous_blocks:
                assert block["ts"] + block["dur"] <= second["ts"] + 1e-6

    def test_export_writes_valid_json(self, priced, tmp_path):
        path = tmp_path / "trace.json"
        events = kernel_timeline_events(priced.kernels)
        count = write_chrome_trace(events, str(path), {"device": TESLA_P40.name})
        document = json.loads(path.read_text())
        assert document["traceEvents"] == events
        assert len(document["traceEvents"]) == count
        assert document["metadata"]["device"].startswith("NVIDIA")
        args = document["traceEvents"][-1].get("args", {})
        assert "node_visits" in args or document["traceEvents"][-1]["cat"] == "launch"
