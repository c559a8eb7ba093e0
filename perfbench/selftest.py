"""Self-test of the benchmark's own helpers: ``python3 perfbench/selftest.py``.

Covers the percentile rule, span self-time subtraction, Chrome trace
export, the seeded arrival schedule, the SLO rate interpolation and the
host gauge's scaling.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
from common import (REFERENCE_NOMINAL_S, HostGauge, Tracer,  # noqa: E402
                    percentile, reference_kernel, supported_percentile,
                    tail)


def test_percentile_rule():
    # A percentile is reported only with >= 10 samples beyond it.
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(999) == 95.0
    assert supported_percentile(200) == 95.0
    assert supported_percentile(199) == 90.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(20) == 50.0
    assert supported_percentile(19) is None
    assert supported_percentile(100000, wanted=99.0) == 99.0
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert tail(values) == (99.0, 990)
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_self_time_subtraction():
    tracer = Tracer()
    parent = tracer.add("parent", 0.0, 10.0)
    tracer.add("a", 1.0, 3.0, parent)
    tracer.add("b", 2.0, 5.0, parent)       # overlaps a: union [1, 5]
    child = tracer.add("c", 8.0, 12.0, parent)  # clipped to [8, 10]
    tracer.add("grandchild", 8.5, 9.0, child)
    own = tracer.self_times()
    assert own[parent] == 10.0 - 4.0 - 2.0
    assert own[child] == 4.0 - 0.5
    table = {name: (count, total, own_s)
             for name, count, total, own_s in tracer.layer_table()}
    assert table["parent"] == (1, 10.0, 4.0)
    # Context-manager spans nest through the per-thread stack.
    nested = Tracer()
    with nested.span("outer") as outer:
        with nested.span("inner"):
            pass
    inner = nested.by_name("inner")[0]
    assert inner.parent == outer.sid
    assert nested.self_times()[outer.sid] <= nested.spans[outer.sid].duration


def test_chrome_trace():
    tracer = Tracer()
    sid = tracer.add("sync", tracer.origin, tracer.origin + 0.002)
    tracer.add("request", tracer.origin, tracer.origin + 0.001, sid, rid="r1")
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "trace.json"
        tracer.write_chrome(path)
        events = json.loads(path.read_text())["traceEvents"]
    phases = sorted(event["ph"] for event in events)
    assert phases == ["X", "b", "e"], phases
    complete = next(e for e in events if e["ph"] == "X")
    assert abs(complete["dur"] - 2000.0) < 1e-3 and complete["ts"] == 0.0


def _plan(seed, rungs=((10, 3.0), (20, 2.0))):
    sessions = loadgen.Sessions("", 4)
    ramp = sessions.ramp()
    plans = [loadgen.plan_rung(seed, k, rate, seconds, 16, sessions)
             for k, (rate, seconds) in enumerate(rungs)]
    return ramp, plans


def test_arrival_schedule_reproduces():
    assert _plan(3) == _plan(3)
    assert _plan(3) != _plan(4)
    ramp, plans = _plan(3)
    for plan, (rate, seconds) in zip(plans, ((10, 3.0), (20, 2.0))):
        dues = [p.due for p in plan]
        assert dues == sorted(dues) and all(0 < d < seconds for d in dues)
    # Every session is fed hours 1, 2, 3, ... in order, across rungs.
    hours = {}
    for planned in ramp + [p for plan in plans for p in plan]:
        if planned.kind == "step":
            hours.setdefault(planned.session, []).append(planned.hour)
    for fed in hours.values():
        assert fed == list(range(fed[0], fed[0] + len(fed)))
        assert fed[0] == 1 and fed[-1] <= loadgen.HOURS
    # The ramp staggers the open sessions' ages evenly.
    ages = [max(h for p in ramp if p.session == s for h in [p.hour])
            for s in sorted({p.session for p in ramp})]
    step = loadgen.HOURS // loadgen.ACTIVE_SESSIONS
    assert sorted(ages) == [1 + k * step
                            for k in range(loadgen.ACTIVE_SESSIONS)]


def test_rate_at_slo():
    def stats(rate, good, backlog=False):
        s = loadgen.RungStats(rate, sent={"predict": 100}, within_slo=good)
        s.backlog_growing = backlog
        return s
    assert loadgen.max_rate_at_slo([stats(10, 100), stats(20, 100)]) == 20
    # Halfway between 1.0 and 0.9 crosses 0.95.
    assert abs(loadgen.max_rate_at_slo(
        [stats(10, 100), stats(20, 90)]) - 15.0) < 1e-9
    assert loadgen.max_rate_at_slo([stats(10, 100),
                                    stats(20, 99, backlog=True)]) == 10
    assert loadgen.backlog_growing([0] * 10 + [2] * 10 + [20] * 10)
    assert not loadgen.backlog_growing([3, 4, 2, 5, 3, 4, 3, 5, 4, 3, 4, 2])


def test_host_gauge():
    gauge = HostGauge()
    reading = gauge.read()
    assert gauge.readings == [reading] and reading > 0.0
    # Slowness is the median reading from the mark on, over nominal.
    nominal = REFERENCE_NOMINAL_S
    gauge.readings = [9.0, 1.5 * nominal, 2.5 * nominal, 2.0 * nominal]
    assert gauge.slowness_since(1) == 2.0
    assert abs(gauge.slowness_since(2) - 2.25) < 1e-12
    # The kernel computes the same thing every call.
    assert reference_kernel() == reference_kernel()


def main():
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
