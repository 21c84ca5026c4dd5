"""Span arithmetic: self time, conservation, patching."""

import json
import sys
import types
from pathlib import Path

import pytest

from bench import spans

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def traced_tree(tracer, clock):
    """outer(3 s own) -> [inner(1 s own) -> leaf(2 s), leaf(0.5 s)]."""

    def leaf(seconds):
        clock.advance(seconds)

    def inner():
        clock.advance(1.0)
        wrapped_leaf(2.0)

    def outer():
        clock.advance(1.0)
        wrapped_inner()
        clock.advance(2.0)
        wrapped_leaf(0.5)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("inner", inner)
    return tracer.wrap("outer", outer)


def test_self_time_subtracts_enclosed_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.active = True
    outer = traced_tree(tracer, clock)
    clock.advance(0.25)           # before any span: unattributed
    outer()
    clock.advance(0.75)           # after: unattributed
    assert tracer.self_s == pytest.approx(
        {"outer": 3.0, "inner": 1.0, "leaf": 2.5}
    )
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 2}
    assert tracer.incl_s["outer"] == pytest.approx(6.5)
    assert tracer.root_s == pytest.approx(6.5)


def test_self_times_plus_unattributed_equal_wall():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.active = True
    outer = traced_tree(tracer, clock)
    start = clock()
    clock.advance(0.25)
    outer()
    outer()
    clock.advance(0.75)
    totals = tracer.totals()
    totals["wall_s"] = clock() - start
    metrics = spans.layer_metrics(spans.merge_totals([totals]))
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert sum(tracer.self_s.values()) + metrics["unattributed_s"] == (
        pytest.approx(totals["wall_s"])
    )


def test_nested_same_layer_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.active = True

    def step():
        clock.advance(1.0)

    def run():
        clock.advance(1.0)
        wrapped_step()

    wrapped_step = tracer.wrap("isa.run", step)
    tracer.wrap("isa.run", run)()
    assert tracer.calls["isa.run"] == 2
    assert tracer.self_s["isa.run"] == pytest.approx(2.0)
    assert tracer.incl_s["isa.run"] == pytest.approx(2.0)


def test_inactive_tracer_records_nothing():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    traced_tree(tracer, clock)()
    assert tracer.calls == {} and tracer.root_s == 0.0


def test_after_hook_sees_a_raising_call():
    seen = []
    tracer = spans.Tracer()
    tracer.active = True

    def boom():
        raise ValueError("budget exceeded")

    wrapped = tracer.wrap(
        "isa.run", boom, after=lambda *args: seen.append(args[-1])
    )
    with pytest.raises(ValueError):
        wrapped()
    assert seen == [None]
    assert tracer.calls["isa.run"] == 1


def test_patches_reach_every_importer_and_undo():
    def original():
        return "original"

    home = types.ModuleType("bench_test_home")
    user = types.ModuleType("bench_test_user")
    home.entry = user.entry = original
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        patches = spans.Patches()
        patches.function(home, "entry", lambda fn: lambda: "wrapped")
        assert home.entry() == user.entry() == "wrapped"
        patches.undo()
        assert home.entry is original and user.entry is original
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_chrome_trace_holds_every_recorded_span():
    trace = spans.chrome_trace([("p", [("core.run", 0.5, 0.25)])])
    (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert event["name"] == "core.run"
    assert event["ts"] == 500000.0 and event["dur"] == 250000.0


def test_benchmark_json_lists_every_metric_the_runner_prints():
    from bench.run import UNITS

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert listed == spans.per_layer_units()
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == UNITS
