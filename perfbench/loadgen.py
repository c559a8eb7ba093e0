"""Open-loop load generation: seeded Poisson schedules, a rate ladder,
and the per-rung census.  Pure functions, so the self-test can pin them."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from common import percentile, tail

HOURS = 48
#: Streaming sessions open at once; each advances one hour per step.
ACTIVE_SESSIONS = 8
SLO_MS = 250.0
SLO_SHARE = 0.95
#: A rung whose generator lags this much (at its tail) is over capacity.
LAG_LIMIT_MS = 20.0


@dataclass(frozen=True)
class Planned:
    due: float           # seconds after the rung starts
    kind: str            # "predict" or "step"
    row: int = -1        # predict: index into the predict rows
    session: str = ""    # step: session id
    source: int = -1     # step: index into the session sources
    hour: int = 0        # step: 1-based hour fed by this step


class Sessions:
    """Streaming sessions shared by every rung of a run.

    :data:`ACTIVE_SESSIONS` sessions are open at once; each step goes to
    the next slot in turn and feeds that session its next hour.  A
    session that has fed all :data:`HOURS` hours closes and a fresh one
    (hour 1 again) takes its slot.
    """

    def __init__(self, tag, sources):
        self.tag, self.sources = tag, sources
        self.opened = list(range(ACTIVE_SESSIONS))
        self.hours = [0] * ACTIVE_SESSIONS
        self.next_number = ACTIVE_SESSIONS
        self.turn = 0

    def step(self, due, slot=None):
        if slot is None:
            slot = self.turn % ACTIVE_SESSIONS
            self.turn += 1
        if self.hours[slot] == HOURS:
            self.hours[slot] = 0
            self.opened[slot] = self.next_number
            self.next_number += 1
        self.hours[slot] += 1
        number = self.opened[slot]
        return Planned(due, "step", session=f"{self.tag}s{number}",
                       source=number % self.sources, hour=self.hours[slot])

    def ramp(self):
        """Steps that open every slot's session and stagger their hours
        evenly, so later session roll-overs spread over the run."""
        return [self.step(0.0, slot) for slot in range(ACTIVE_SESSIONS)
                for _ in range(1 + slot * (HOURS // ACTIVE_SESSIONS))]


def plan_rung(seed, rung, rate, seconds, predict_rows, sessions):
    """Poisson arrivals at ``rate`` per second for ``seconds``; each is
    a predict or (with equal odds) the next in-order hourly step of a
    session from ``sessions``.  Same arguments and session state, same
    plan."""
    rng = np.random.default_rng([seed, rung])
    plan, due = [], 0.0
    while True:
        due += rng.exponential(1.0 / rate)
        if due >= seconds:
            return plan
        if rng.random() < 0.5:
            plan.append(Planned(due, "predict",
                                row=int(rng.integers(predict_rows))))
        else:
            plan.append(sessions.step(due))


@dataclass
class Outcome:
    planned: Planned
    due: float                 # absolute perf_counter time
    lag: float = 0.0           # generator lateness at send
    in_flight: int = 0         # requests outstanding at send
    admit: float = 0.0         # traced: pool.submit/submit_step called
    resolved: float = 0.0      # traced: future resolved
    done: float = 0.0          # coroutine resumed with the outcome
    ok: bool = False
    value: object = None
    error: str = ""

    @property
    def latency_ms(self):
        return (self.done - self.due) * 1e3


_WORKER_PREFIX = re.compile(r"^pool worker \d+ failed the request: ")


def failure_key(error):
    """Group key of a failure: exception type and message, minus the
    worker pid."""
    return f"{type(error).__name__}: " + _WORKER_PREFIX.sub("", str(error))


@dataclass
class RungStats:
    rate: float
    sent: dict = field(default_factory=dict)
    succeeded: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    within_slo: int = 0
    lag_tail_ms: float = 0.0
    backlog_growing: bool = False

    @property
    def total_sent(self):
        return sum(self.sent.values())

    @property
    def good_share(self):
        return self.within_slo / self.total_sent if self.total_sent else 0.0

    @property
    def over_capacity(self):
        return self.backlog_growing or self.lag_tail_ms > LAG_LIMIT_MS

    @property
    def passes(self):
        return self.good_share >= SLO_SHARE and not self.over_capacity


def rung_stats(rate, outcomes):
    stats = RungStats(rate)
    for o in outcomes:
        kind = o.planned.kind
        stats.sent[kind] = stats.sent.get(kind, 0) + 1
        bucket = stats.succeeded if o.ok else stats.failed
        bucket[kind] = bucket.get(kind, 0) + 1
        if o.ok and o.latency_ms <= SLO_MS:
            stats.within_slo += 1
    lags = [o.lag * 1e3 for o in outcomes]
    if lags:
        stats.lag_tail_ms = tail(lags, 99.0)[1]
    stats.backlog_growing = backlog_growing([o.in_flight for o in outcomes])
    return stats


def backlog_growing(in_flight):
    """Whether outstanding requests keep growing across a rung: the last
    third's mean exceeds the first third's by five, and by half again."""
    third = len(in_flight) // 3
    if third < 3:
        return False
    first = sum(in_flight[:third]) / third
    last = sum(in_flight[-third:]) / third
    return last > first + max(5.0, 0.5 * first)


def max_rate_at_slo(rungs):
    """Highest rate meeting the SLO without growing backlog, linearly
    interpolated on the within-SLO share between the last passing rung
    and the first failing one.  ``rungs`` ascend by rate."""
    below_rate, below_share = 0.0, 1.0
    for stats in rungs:
        if stats.passes:
            below_rate, below_share = stats.rate, stats.good_share
            continue
        if stats.good_share >= SLO_SHARE:
            return below_rate       # failed on backlog or generator lag
        fraction = ((below_share - SLO_SHARE)
                    / (below_share - stats.good_share))
        return below_rate + fraction * (stats.rate - below_rate)
    return below_rate


def latency_summary(outcomes, kind):
    """Median and tail latency (ms) of the successful requests of a kind."""
    values = [o.latency_ms for o in outcomes
              if o.planned.kind == kind and o.ok]
    if not values:
        return {"count": 0, "p50": float("nan"), "tail": float("nan"),
                "tail_percentile": None}
    p, value = tail(values, 99.0)
    return {"count": len(values), "p50": percentile(values, 50),
            "tail": value, "tail_percentile": p}


def completion_rate(outcomes):
    """Successful completions per second, from the first scheduled send
    to the last completion."""
    ok = [o for o in outcomes if o.ok]
    if not ok:
        return 0.0
    return len(ok) / (max(o.done for o in ok) - min(o.due for o in outcomes))
