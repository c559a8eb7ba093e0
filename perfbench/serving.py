"""Serving workload: ``serve-gru``.

Set-up trains a short run directory, then starts a ``ReplicaPool`` with
``ServeConfig`` defaults except ``workers``.  One single-threaded
asyncio generator sends open-loop Poisson traffic through
``AsyncServeFrontend``, half single-admission predicts and half
in-order hourly stream steps, and times each request from its scheduled
send time: first a ladder of fixed rates, then rounds of one nominal
segment and one saturation burst each.  A host gauge is read before
and after each set-up and burst, and the end-to-end figures are scaled
to the nominal host (see ``common.HostGauge``).  After the traffic,
outside the timed window, every served predict is compared bit-for-bit
with the in-process ``Predictor.predict_proba(row,
pad_to=max_batch_size)`` and every stream step with the full-prefix
forward at that hour.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import shutil
from time import perf_counter

import numpy as np

import loadgen
from common import HostGauge, median, peak_rss_mb, process_peak_rss_mb

from repro.baselines import build_model
from repro.data import load_cohort
from repro.serve import (AsyncServeFrontend, Predictor, ReplicaPool,
                         ServeConfig)
from repro.train import Trainer

SHORT_TRAIN = 128            # admissions in the short training run
PREDICT_ROWS = 16            # distinct single-admission predict inputs
SESSION_SOURCES = 4          # distinct admissions replayed as sessions
WARMUP_REQUESTS = 16
DRAIN_TIMEOUT_S = 30.0
#: Shares of the measuring window.  Each ladder rung gets ``RUNG_SHARE``;
#: the ladder stops at its first rung that fails the SLO and, while
#: every rung passes, goes on doubling the top rate, at most
#: ``EXTRA_RUNGS`` times.  Then ``ROUNDS`` rounds each send one nominal
#: segment and one saturation burst and repeat the set-up once.  A burst
#: offers ``SATURATION_FACTOR`` times the highest rate listed or sent
#: and must drive the pool over capacity: what the pool completes per
#: second while overloaded is its capacity, not the offered rate.  The
#: offer does not follow the first failing rung down: a rung can fail
#: on a latency spike well below capacity, and a pool's completion rate
#: grows with its backlog (more predicts coalesce per forward).  The
#: rounds spread the nominal figures, the bursts and the set-ups over
#: the run, because the host's speed drifts over seconds; the
#: throughput figure is the median burst's.
RUNG_SHARE = 0.06
NOMINAL_SHARE = 0.3
SATURATION_SHARE = 0.1
ROUNDS = 5
EXTRA_RUNGS = 6
SATURATION_FACTOR = 2

WORKLOADS = {
    "serve-gru": {"model": "GRU", "nominal": 100,
                  "ladder": (100, 200, 300, 400, 500, 600, 800, 1000)},
}

_current = contextvars.ContextVar("perfbench_request")


def _setup(spec, seed, scratch, index, workers, gauge):
    """Cohort -> model -> short training run -> started pool, between
    two host gauge readings."""
    mark = len(gauge.readings)
    gauge.read()
    started = perf_counter()
    splits = load_cohort("physionet2012", scale="small", seed=seed)
    cohort_s = perf_counter() - started
    model = build_model(spec["model"], splits.train.num_features,
                        rng=np.random.default_rng(seed))
    run_dir = scratch / f"serve-run{index}"
    trainer = Trainer(model, "mortality", max_epochs=1, seed=seed,
                      run_dir=run_dir)
    trainer.fit(splits.train.subset(np.arange(SHORT_TRAIN)),
                splits.validation)
    evaluation = trainer.evaluate(splits.test)
    pool_started = perf_counter()
    pool = _start_pool(run_dir, workers)
    ended = perf_counter()
    gauge.read()
    return {"splits": splits, "run_dir": run_dir, "pool": pool,
            "eval": evaluation, "setup_s": ended - started,
            "slowness": gauge.slowness_since(mark),
            "cohort_s": cohort_s,
            "pool_start_s": ended - pool_started}


def _start_pool(run_dir, workers):
    pool = ReplicaPool(run_dir, config=ServeConfig(workers=workers))
    pool.start()
    _pin_workers(pool)
    return pool


def _cpus():
    return sorted(os.sched_getaffinity(0))


def _pin_workers(pool):
    """Each pool worker on a CPU of its own, away from the generator's."""
    cpus = _cpus()
    if len(cpus) > 1:
        for index, pid in enumerate(pool.worker_pids):
            os.sched_setaffinity(pid, {cpus[index % (len(cpus) - 1)]})


def run(workload, seed, seconds, tracer, scratch):
    spec = WORKLOADS[workload]
    workers = int(os.environ.get("PERFBENCH_WORKERS", "1"))
    # The generator's thread, and the collector and queue-feeder threads
    # it starts, stay on the last CPU; _pin_workers gives the workers
    # the others, so the two sides never share a core.
    cpus = _cpus()
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})
    gauge = HostGauge()
    setups = [_setup(spec, seed, scratch, 0, workers, gauge)]

    def repeat_setup():
        """One more timed set-up, torn down at once; only its figures
        are kept."""
        extra = _setup(spec, seed, scratch, len(setups), workers, gauge)
        extra["pool"].stop()
        shutil.rmtree(extra["run_dir"])
        del extra["pool"], extra["splits"]
        setups.append(extra)

    try:
        return _measure(spec, seed, seconds, tracer, setups, workers,
                        repeat_setup, gauge)
    finally:
        setups[0]["pool"].stop()


def _measure(spec, seed, seconds, tracer, setups, workers, repeat_setup,
             gauge):
    current = setups[0]
    pool, test = current["pool"], current["splits"].test
    rows = [test.subset([i]) for i in range(PREDICT_ROWS)]
    sources = [test.subset([PREDICT_ROWS + i])
               for i in range(SESSION_SOURCES)]

    ladder = [(rate, seconds * RUNG_SHARE) for rate in spec["ladder"]]
    nominal_segment = (spec["nominal"], seconds * NOMINAL_SHARE / ROUNDS)
    checked = []
    reference_nominal = None
    if tracer is not None:
        # Untraced nominal segments, on sessions of their own:
        # trace.overhead_ratio's base.  The traced drive then gets a
        # fresh pool, so the worker metrics merged at its stop cover the
        # traced drive alone.
        ref_ramp, _, reference_nominal, _ = asyncio.run(_drive(
            pool, Traffic(seed, rows, sources, tag="ref-"), None,
            nominal_segment))
        checked += [ref_ramp, reference_nominal]
        pool.stop()
        pool = current["pool"] = _start_pool(current["run_dir"], workers)
    # Set-up repeats and gauge readings are left out of the drive's
    # wall time.
    paused = []

    def between_rounds():
        started, spent = perf_counter(), gauge.spent
        repeat_setup()
        paused.append(perf_counter() - started - (gauge.spent - spent))

    spent = gauge.spent
    started = perf_counter()
    ramp_outcomes, results, nominal, (burst_rps, bursts, burst_slowness) = \
        asyncio.run(_drive(pool, Traffic(seed, rows, sources), tracer,
                           nominal_segment, ladder,
                           seconds * SATURATION_SHARE / ROUNDS,
                           between_rounds, gauge))
    window = (perf_counter() - started - sum(paused)
              - (gauge.spent - spent))
    rss = peak_rss_mb() + sum(process_peak_rss_mb(pid)
                              for pid in pool.worker_pids)
    pool.stop()
    metrics = pool.metrics.as_dict()

    # Checks run after the timed window and after peak RSS is read.
    rung_outcomes = [outcomes for _, outcomes in results]
    predictor = Predictor.load(current["run_dir"])
    checked += [ramp_outcomes, nominal] + rung_outcomes + bursts
    problems, census_failures = _check(predictor, pool.config, checked,
                                       rows, sources)
    for index, setup in enumerate(setups):
        if setup["eval"] != current["eval"]:
            problems.append(f"set-up {index}: same seed, different eval")
    burst_stats = [loadgen.rung_stats(burst_rps, b) for b in bursts]
    if not all(stats.over_capacity for stats in burst_stats):
        problems.append(
            f"a saturation burst at {burst_rps:g} req/s did not drive the "
            "pool over capacity (backlog steady, generator on time), so "
            "its completion rate is the offered load")

    stats = [loadgen.rung_stats(rate, outcomes)
             for rate, outcomes in results]
    burst_rates = [loadgen.completion_rate(b) for b in bursts]
    nominal_stats = loadgen.rung_stats(spec["nominal"], nominal)
    predicts = loadgen.latency_summary(nominal, "predict")
    steps = loadgen.latency_summary(nominal, "step")
    all_outcomes = [o for outcomes in checked for o in outcomes]
    failed = sum(census_failures.values())
    max_rps = loadgen.max_rate_at_slo(stats)

    report = {
        "setup_s": median([s["setup_s"] / s["slowness"] for s in setups]),
        "peak_rss_mb": rss,
        "throughput_per_s": median([rate * slow for rate, slow
                                    in zip(burst_rates, burst_slowness)]),
    }
    named = {
        "serve.predict_p50_ms": predicts["p50"],
        "serve.predict_p99_ms": predicts["tail"],
        "serve.step_p50_ms": steps["p50"],
        "serve.step_p99_ms": steps["tail"],
        "serve.max_rps_at_slo": max_rps,
        "serve.saturated_rps": median(burst_rates),
        "setup_wall_s": median([s["setup_s"] for s in setups]),
        "host.reference_ms": median(gauge.readings) * 1e3,
        "serve.failed_ratio": failed / len(all_outcomes),
        "eval.auc_pr": current["eval"]["auc_pr"],
        "eval.bce": current["eval"]["bce"],
    }
    info = {
        "workers": workers,
        "ladder_sent": [[rate, len(outcomes)] for rate, outcomes in results],
        "nominal_sent": [spec["nominal"], len(nominal)],
        "bursts_sent": [burst_rps, [len(b) for b in bursts]],
        "bursts_completed_per_s": burst_rates,
        "bursts_host_slowness": burst_slowness,
        "ramp_steps": len(ramp_outcomes),
        "set_ups": len(setups),
        "window_s": window,
        "predict_tail_percentile": predicts["tail_percentile"],
        "step_tail_percentile": steps["tail_percentile"],
        "nominal_samples": {"predict": predicts["count"],
                            "step": steps["count"]},
        "slo": {"ms": loadgen.SLO_MS, "share": loadgen.SLO_SHARE},
        "failures": census_failures,
    }
    layers = None
    if tracer is not None:
        layers = _layer_metrics(tracer, metrics, nominal, nominal_stats,
                                reference_nominal, window, workers,
                                pool.config, setups)
        layers.update(named)
    rows_shown = ([(f"{s.rate:g}", s) for s in stats]
                  + [("nominal", nominal_stats)]
                  + [("burst", s) for s in burst_stats])
    return {"report": report, "named": named, "layers": layers,
            "info": info, "problems": problems,
            "census": _census(rows_shown, census_failures),
            "attempted": len(all_outcomes), "failed": failed}


# ----------------------------------------------------------------------
class Traffic:
    """The inputs and session state one ladder draws its requests from."""

    def __init__(self, seed, rows, sources, tag=""):
        self.seed, self.rows, self.sources = seed, rows, sources
        self.sessions = loadgen.Sessions(tag, len(sources))
        self.rungs_planned = 0

    def plan(self, rate, seconds):
        plan = loadgen.plan_rung(self.seed, self.rungs_planned, rate,
                                 seconds, len(self.rows), self.sessions)
        self.rungs_planned += 1
        return plan


async def _drive(pool, traffic, tracer, nominal, ladder=(),
                 burst_s=None, between_rounds=None, gauge=None):
    """Warm up and open the sessions, send the ``ladder`` rungs, then
    :data:`ROUNDS` rounds of one ``nominal`` segment (``(rate,
    seconds)``), one saturation burst of ``burst_s`` seconds when given,
    and a call to ``between_rounds`` when given.  ``gauge`` is read
    before and after each burst, with the pool idle.  Each rung, segment
    and burst is planned just before it runs and drained before the
    next, so each starts with an idle pool and sessions continue across
    them.

    Returns ``(ramp outcomes, [(rate, outcomes) per ladder rung sent],
    nominal outcomes, (burst rate, [outcomes per burst], [host slowness
    per burst]))``.  The ramp counts in the census and the checks but in
    no rung."""
    frontend = AsyncServeFrontend(pool)
    if tracer is not None:
        _instrument(pool)
    rows = traffic.rows
    for i in range(WARMUP_REQUESTS):    # one at a time: one forward each
        await frontend.predict_proba(rows[i % len(rows)])
    ramp_outcomes = []
    for planned in traffic.sessions.ramp():
        outcome = loadgen.Outcome(planned, perf_counter())
        ramp_outcomes.append(outcome)
        await _request(frontend, outcome, traffic)

    async def send(rate, seconds, span_name):
        return await _drive_rung(frontend, traffic.plan(rate, seconds),
                                 traffic, tracer, span_name)

    results = []
    pending = list(ladder)
    while pending:
        rate, seconds = pending.pop(0)
        outcomes = await send(rate, seconds, "gen.rung")
        results.append((rate, outcomes))
        if not loadgen.rung_stats(rate, outcomes).passes:
            break           # rungs above the first failing one add nothing
        if not pending and len(results) < len(ladder) + EXTRA_RUNGS:
            pending.append((2 * rate, seconds))
    burst_rate = None
    if burst_s is not None:
        burst_rate = SATURATION_FACTOR * max(ladder[-1][0], results[-1][0])
    nominal_outcomes, bursts, slowness = [], [], []
    for _ in range(ROUNDS):
        nominal_outcomes += await send(*nominal, "gen.nominal")
        if burst_rate is not None:
            mark = len(gauge.readings)
            gauge.read()
            bursts.append(await send(burst_rate, burst_s, "gen.saturation"))
            gauge.read()
            slowness.append(gauge.slowness_since(mark))
        if between_rounds is not None:
            between_rounds()
    return (ramp_outcomes, results, nominal_outcomes,
            (burst_rate, bursts, slowness))


async def _drive_rung(frontend, plan, traffic, tracer, span_name):
    rung_span = tracer.span(span_name) if tracer is not None else None
    if rung_span is not None:
        rung_span.__enter__()
    outstanding = set()
    outcomes = []
    start = perf_counter() + 0.005
    for planned in plan:
        due = start + planned.due
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            await asyncio.sleep(0)
        outcome = loadgen.Outcome(planned, due)
        outcome.lag = perf_counter() - due
        outcome.in_flight = len(outstanding)
        outcomes.append(outcome)
        task = asyncio.ensure_future(_request(frontend, outcome, traffic))
        outstanding.add(task)
        task.add_done_callback(outstanding.discard)
    if outstanding:
        await asyncio.wait_for(asyncio.gather(*outstanding),
                               DRAIN_TIMEOUT_S)
    if rung_span is not None:
        rung_span.__exit__(None, None, None)
        for rid, o in enumerate(outcomes):
            _request_spans(tracer, o, rung_span.sid,
                           f"{rung_span.sid}-{rid}")
    return outcomes


async def _request(frontend, outcome, traffic):
    _current.set(outcome)
    planned = outcome.planned
    try:
        if planned.kind == "predict":
            value = await frontend.predict_proba(traffic.rows[planned.row])
        else:
            source = traffic.sources[planned.source]
            t = planned.hour - 1
            value = await frontend.step(
                planned.session, source.values[:, t],
                mask_t=source.mask[:, t], deltas_t=source.deltas[:, t])
    except Exception as error:  # every failure is counted and checked
        outcome.done = perf_counter()
        outcome.error = loadgen.failure_key(error)
        return
    outcome.done = perf_counter()
    outcome.ok = True
    outcome.value = value


def _instrument(pool):
    """Stamp admission and resolution on the pool's client surface."""
    for name in ("submit", "submit_step"):
        original = getattr(pool, name)

        def stamped(*args, _original=original, **kwargs):
            outcome = _current.get(None)
            if outcome is None:     # warm-up request
                return _original(*args, **kwargs)
            outcome.admit = perf_counter()
            future = _original(*args, **kwargs)
            future.add_done_callback(
                lambda _f: setattr(outcome, "resolved", perf_counter()))
            return future
        setattr(pool, name, stamped)


def _request_spans(tracer, o, parent, rid):
    sid = tracer.add(f"serve.request.{o.planned.kind}", o.due, o.done,
                     parent, rid)
    if o.admit and o.resolved:
        tracer.add("serve.frontend.admit", o.due, o.admit, sid, rid)
        tracer.add("serve.pool.roundtrip", o.admit, o.resolved, sid, rid)
        tracer.add("serve.frontend.resume", o.resolved, o.done, sid, rid)


# ----------------------------------------------------------------------
def _check(predictor, config, outcome_lists, rows, sources):
    """Served outputs against in-process references: every predict
    bit-equal to ``predict_proba(row, pad_to=max_batch_size)``, every
    stream step to the full-prefix forward at that hour.

    Returns ``(problems, failure census)``; the census groups failed
    requests by exception type and message."""
    problems, census = [], {}
    predict_refs, step_refs = {}, {}
    for outcomes in outcome_lists:
        for o in outcomes:
            p = o.planned
            if not o.ok:
                census[o.error] = census.get(o.error, 0) + 1
                continue
            if p.kind == "predict":
                if p.row not in predict_refs:
                    predict_refs[p.row] = predictor.predict_proba(
                        rows[p.row], pad_to=config.max_batch_size)
                expected = predict_refs[p.row]
            else:
                key = (p.source, p.hour)
                if key not in step_refs:
                    step_refs[key] = predictor.predict_proba(
                        sources[p.source].truncate(p.hour))
                expected = step_refs[key]
            if not np.array_equal(o.value, expected):
                problems.append(
                    f"{p.kind} {p.session or p.row} hour {p.hour}: served "
                    f"{o.value!r}, in-process {expected!r}")
    if census:
        problems.append(f"{sum(census.values())} request failures: "
                        f"{census}")
    return problems[:20], census


def _census(rows, failures):
    """Table of ``(label, RungStats)`` rows, then the failure groups."""
    lines = [f"{'rps':>7s} {'sent p/s':>11s} {'ok p/s':>11s} "
             f"{'failed p/s':>11s} {'in SLO':>7s} {'lag tail ms':>12s} "
             f"{'backlog+':>8s} {'pass':>5s}"]
    for label, s in rows:
        def pair(d):
            return f"{d.get('predict', 0)}/{d.get('step', 0)}"
        lines.append(
            f"{label:>7s} {pair(s.sent):>11s} {pair(s.succeeded):>11s} "
            f"{pair(s.failed):>11s} {s.good_share:7.3f} "
            f"{s.lag_tail_ms:12.2f} {str(s.backlog_growing):>8s} "
            f"{str(s.passes):>5s}")
    for name, count in sorted(failures.items()):
        lines.append(f"failure x{count}: {name}")
    return "\n".join(lines)


def _layer_metrics(tracer, metrics, nominal, nominal_stats,
                   reference_nominal, window, workers, config, setups):
    """Per-layer serve figures.  The worker figures come from the pool
    that served only the traced drive (warm-up, session ramp, ladder,
    nominal segments and bursts), so ``busy_share`` divides its work by
    that drive's wall time, set-up repeats excluded."""

    def mean_ms(name, parents):
        """Mean duration of a request stage over the requests sent in
        the ``parents`` spans."""
        parent_ids = {p.sid for p in parents}
        requests = {s.sid for s in tracer.spans if s.parent in parent_ids}
        spans = [s for s in tracer.by_name(name) if s.parent in requests]
        return (sum(s.duration for s in spans) / len(spans) * 1e3
                if spans else 0.0)

    batches = metrics["batches"]
    forward_ms = metrics["batch_seconds"] / batches * 1e3 if batches else 0.0
    stream = metrics["stream"]
    step_ms = (stream["step_seconds"] / stream["steps"] * 1e3
               if stream["steps"] else 0.0)
    # Stage means: admission at the highest ladder rung sent (where
    # queueing for a front-end slot shows), the rest at the nominal
    # segments.
    nominal_spans = tracer.by_name("gen.nominal")
    top_rung = tracer.by_name("gen.rung")[-1:]
    roundtrip_ms = mean_ms("serve.pool.roundtrip", nominal_spans)
    predicts = sum(1 for o in nominal if o.planned.kind == "predict")
    steps = len(nominal) - predicts
    service_ms = ((predicts * forward_ms + steps * step_ms)
                  / (predicts + steps)) if predicts + steps else 0.0
    layers = {
        "serve.frontend.admit_ms": mean_ms("serve.frontend.admit", top_rung),
        "serve.pool.roundtrip_ms": roundtrip_ms,
        "serve.frontend.resume_ms": mean_ms("serve.frontend.resume",
                                            nominal_spans),
        "serve.pool.overhead_ms": roundtrip_ms - service_ms,
        "serve.worker.forward_ms": forward_ms,
        "serve.worker.step_ms": step_ms,
        "serve.worker.busy_share": (metrics["batch_seconds"]
                                    + stream["step_seconds"])
                                   / (window * workers),
        "serve.pool.rows_per_forward": metrics["mean_batch_size"],
        "serve.pool.padding_efficiency": (metrics["mean_batch_size"]
                                          / config.max_batch_size),
        "serve.pool.start_s": median([s["pool_start_s"] for s in setups]),
        "data.cohort_s": median([s["cohort_s"] for s in setups]),
    }
    traced_p50 = loadgen.latency_summary(nominal, "predict")["p50"]
    untraced_p50 = loadgen.latency_summary(reference_nominal,
                                           "predict")["p50"]
    layers["trace.overhead_ratio"] = traced_p50 / untraced_p50
    layers["gen.lag_p99_ms"] = nominal_stats.lag_tail_ms
    return layers
