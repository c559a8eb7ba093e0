"""Training workloads: ``train-elda`` and ``train-concare``.

Each run builds the workload's data and model from the seed, then fits
fresh models (same seed, so every fit computes the same thing) for a
fixed number of epochs until the measuring window is spent, and reports
the median fit.  A host gauge is read before and after each set-up and
fit, and the end-to-end figures are scaled to the nominal host (see
``common.HostGauge``).  Only public entry points are used: ``load_cohort``,
``generate_shards`` / ``ShardedDataset.open``, ``build_model``,
``Trainer(callbacks=...)`` and ``Trainer.evaluate``.
"""

from __future__ import annotations

import math
import shutil
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from common import HostGauge, median, peak_rss_mb, percentile

from repro.baselines import build_model
from repro.bench import profile
from repro.data import ShardedDataset, generate_shards, load_cohort
from repro.train import Callback, Trainer

BATCH_SIZE = 64
SETUP_REPEATS = 5

#: The ten ops with the most profiled self time across both training
#: workloads when the benchmark was defined.  Fixed, so later commits
#: are compared on the same rows.
PROFILED_OPS = ("getitem", "sigmoid", "matmul", "add", "mul", "softmax",
                "relu", "gru_scan", "concat", "where")

WORKLOADS = {
    "train-elda": {"model": "ELDA-Net", "epochs": 2, "bucket": False,
                   "source": "cohort"},
    "train-concare": {"model": "ConCare", "epochs": 1, "bucket": True,
                      "source": "shards"},
}

#: Sharded store for ``train-concare``: 4 shards of 64 admissions —
#: two train, one validation, one test.
SHARD_SIZE = 64
SHARD_COUNT = 4

#: ``repro.core`` / ``repro.baselines`` modules timed in traced runs:
#: metric name -> (attribute path on the model, method wrapped).
MODULE_SPANS = {
    "ELDA-Net": {
        "core.embedding": ("embedding", "forward"),
        "core.feature_interaction": ("feature_module", "forward"),
        "core.time_interaction": ("time_module", "forward"),
        "core.prediction": ("prediction", "logits"),
    },
    "ConCare": {
        "baselines.concare.encoder": ("encoder", "forward"),
        "baselines.concare.attention": ("attention", "forward"),
    },
}


def wrap_modules(model, tracer):
    """Record a span around each mapped child module's forward."""
    for span_name, (attribute, method) in MODULE_SPANS.get(
            model.spec.name, {}).items():
        child = getattr(model, attribute)
        setattr(child, method,
                tracer.wrap(span_name + ".fwd", getattr(child, method)))


class StepProbe(Callback):
    """Per-step wall time, loss and data wait; span source when traced.

    The engine emits ``on_batch_start`` before ``zero_grad`` and
    ``on_backward_end`` after ``loss.backward()``; the wrapped
    ``forward_batch`` opens the forward span, so a step splits into
    forward, backward (loss + backward) and optimizer (clip + step).
    """

    def __init__(self, gauge, tracer=None, profiler=None):
        self.gauge = gauge
        self.gauge_seconds = 0.0
        self.tracer = tracer
        self.profiler = profiler
        self.step_seconds = []
        self.losses = []
        self.waits = []
        self.in_step = False
        self._last_end = None
        self._epoch_span = self._step_span = None

    def on_epoch_start(self, engine, epoch):
        self._last_end = None
        if self.tracer is not None:
            self._epoch_span = self.tracer.span("train.epoch")
            self._epoch_span.__enter__()

    def on_batch_start(self, engine, epoch, batch_index):
        # One host gauge reading per step, left out of every timing.
        started = perf_counter()
        self.gauge.read(repeats=1)
        now = perf_counter()
        self.gauge_seconds += now - started
        if self._last_end is not None:
            self.waits.append(started - self._last_end)
        self._started = now
        self._backward_end = None
        self.in_step = True
        if self.tracer is not None:
            self._step_span = self.tracer.span("train.step")
            self._step_span.__enter__()
        if self.profiler is not None:
            self.profiler.__enter__()

    def on_backward_end(self, engine, epoch, batch_index, loss):
        self._backward_end = perf_counter()

    def on_batch_end(self, engine, epoch, batch_index, loss):
        if self.profiler is not None:
            self.profiler.__exit__(None, None, None)
        now = perf_counter()
        self.in_step = False
        self.step_seconds.append(now - self._started)
        self.losses.append(float(loss))
        self._last_end = now
        if self._step_span is not None:
            step = self._step_span.sid
            forward = [s for s in self.tracer.spans[step:]
                       if s.name == "train.forward" and s.parent == step]
            if forward and self._backward_end is not None:
                self.tracer.add("train.backward", forward[-1].end,
                                self._backward_end, step)
                self.tracer.add("train.optimizer", self._backward_end, now,
                                step)
            self._step_span.__exit__(None, None, None)
            self._step_span = None

    def on_epoch_end(self, engine, epoch, logs):
        if self._epoch_span is not None:
            self._epoch_span.__exit__(None, None, None)
            self._epoch_span = None


# ----------------------------------------------------------------------
def _make_data(spec, seed, scratch, tracer):
    """The workload's (train, validation, test) from the seed."""
    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()
    if spec["source"] == "cohort":
        with span("data.cohort"):
            splits = load_cohort("physionet2012", scale="small", seed=seed)
        return splits.train, splits.validation, splits.test
    store = scratch / "shards"
    if store.exists():
        shutil.rmtree(store)
    with span("data.cohort"):
        generate_shards(store, SHARD_SIZE * SHARD_COUNT, cohort="mimic3",
                        shard_size=SHARD_SIZE, seed=seed)
    with span("data.shards.open"):
        dataset = ShardedDataset.open(store)
    ids = [entry["shard_id"] for entry in dataset.entries]
    return (dataset.select_shards(ids[:2]), dataset.select_shards(ids[2:3]),
            dataset.select_shards(ids[3:]))


def _build(spec, num_features, seed):
    return build_model(spec["model"], num_features,
                       rng=np.random.default_rng(seed))


def run(workload, seed, seconds, tracer, scratch):
    spec = WORKLOADS[workload]
    traced = tracer is not None
    gauge = HostGauge()
    setups, data_cohort_s, shards_open_s = [], [], []
    for _ in range(SETUP_REPEATS):
        count = len(tracer.spans) if traced else 0
        mark = len(gauge.readings)
        gauge.read()
        started = perf_counter()
        train, validation, test = _make_data(spec, seed, scratch, tracer)
        _build(spec, train.num_features, seed)
        seconds_taken = perf_counter() - started
        gauge.read()
        setups.append((seconds_taken, gauge.slowness_since(mark)))
        if traced:
            fresh = tracer.spans[count:]
            data_cohort_s += [s.duration for s in fresh
                              if s.name == "data.cohort"]
            shards_open_s += [s.duration for s in fresh
                              if s.name == "data.shards.open"]

    steps_per_epoch = math.ceil(len(train) / BATCH_SIZE)
    fits = []
    deadline = perf_counter() + seconds
    # A traced run starts with one untraced fit: the reference for
    # trace.overhead_ratio.  No fit starts that the last one's length
    # says would end past the deadline.
    while len(fits) < 1 + traced or (
            perf_counter() + fits[-1]["seconds"] <= deadline):
        model = _build(spec, train.num_features, seed)
        mark = len(gauge.readings)
        gauge.read()
        run_dir = scratch / f"run{len(fits)}"
        fit_tracer = tracer if fits or not traced else None
        profiler = profile("train") if fit_tracer else None
        probe = StepProbe(gauge, fit_tracer, profiler)
        trainer = Trainer(model, "mortality", batch_size=BATCH_SIZE,
                          max_epochs=spec["epochs"],
                          patience=spec["epochs"] + 1, seed=seed,
                          bucket_by_length=spec["bucket"], run_dir=run_dir,
                          callbacks=[probe])
        if fit_tracer:
            _instrument(trainer, model, tracer, probe)
        fit_span = tracer.span("train.fit") if fit_tracer else nullcontext()
        with fit_span:
            started = perf_counter()
            trainer.fit(train, validation)
            fit_seconds = perf_counter() - started - probe.gauge_seconds
        gauge.read()
        evaluation = trainer.evaluate(test)
        fits.append({"seconds": fit_seconds, "probe": probe,
                     "slowness": gauge.slowness_since(mark),
                     "eval": evaluation, "profiler": profiler,
                     "traced": fit_tracer is not None})
        shutil.rmtree(run_dir)

    problems = _check(fits, spec["epochs"] * steps_per_epoch)
    samples = spec["epochs"] * len(train)
    measured = [f for f in fits if f["traced"] == traced]
    step_ms = [s * 1e3 for f in measured for s in f["probe"].step_seconds]
    first = fits[0]
    report = {
        "setup_s": median([s / slow for s, slow in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": median([samples / f["seconds"] * f["slowness"]
                                    for f in measured]),
    }
    named = {
        "train.samples_per_s": median([samples / f["seconds"]
                                       for f in measured]),
        "setup_wall_s": median([s for s, _ in setups]),
        "host.reference_ms": median(gauge.readings) * 1e3,
        "train.step_p50_ms": percentile(step_ms, 50),
        "eval.auc_pr": first["eval"]["auc_pr"],
        "eval.bce": first["eval"]["bce"],
    }
    info = {"fits": len(measured), "steps_per_fit": len(first["probe"].losses),
            "admissions": {"train": len(train), "validation":
                           len(validation), "test": len(test)},
            "epochs": spec["epochs"], "step_samples": len(step_ms),
            "fit_rates": {"wall": [samples / f["seconds"] for f in measured],
                          "host_slowness": [f["slowness"]
                                            for f in measured]}}
    layers = None
    if traced:
        layers = _layer_metrics(tracer, spec["model"], measured,
                                data_cohort_s, shards_open_s)
        layers.update(named)
        layers["trace.overhead_ratio"] = (
            median([f["seconds"] for f in measured]) / fits[0]["seconds"])
    attempted = sum(len(f["probe"].losses) for f in fits)
    return {"report": report, "named": named, "layers": layers,
            "info": info, "problems": problems, "attempted": attempted,
            "failed": 0}


def _instrument(trainer, model, tracer, probe):
    """Spans around the calls into ``repro.train`` and the model."""
    wrap_modules(model, tracer)
    forward_batch = model.forward_batch
    traced_forward = tracer.wrap("train.forward", forward_batch)
    # Validation and evaluation call forward_batch too; only forwards
    # inside a training step are training forwards.
    model.forward_batch = lambda batch: (
        traced_forward(batch) if probe.in_step else forward_batch(batch))
    engine = trainer.engine
    engine.save_checkpoint = tracer.wrap("train.checkpoint",
                                         engine.save_checkpoint)
    engine.evaluate = tracer.wrap("train.evaluate", engine.evaluate)


def _check(fits, expected_steps):
    problems = []
    reference = fits[0]["eval"]
    for index, fit in enumerate(fits):
        losses = fit["probe"].losses
        if len(losses) != expected_steps:
            problems.append(f"fit {index}: {len(losses)} steps, expected "
                            f"{expected_steps} (epochs x batches)")
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"fit {index}: non-finite training loss")
        evaluation = fit["eval"]
        if not (0.0 < evaluation["auc_pr"] <= 1.0
                and 0.0 <= evaluation["auc_roc"] <= 1.0
                and math.isfinite(evaluation["bce"])
                and evaluation["bce"] > 0.0):
            problems.append(f"fit {index}: eval metrics out of range "
                            f"{evaluation}")
        if evaluation != reference:
            problems.append(f"fit {index}: same seed, different eval "
                            f"{evaluation} vs {reference}")
    return problems


def _layer_metrics(tracer, model_name, fits, data_cohort_s, shards_open_s):
    steps = sum(len(f["probe"].step_seconds) for f in fits)
    epochs = len(tracer.by_name("train.epoch"))
    waits = [w for f in fits for w in f["probe"].waits]

    def per_step_ms(name):
        return sum(s.duration for s in tracer.by_name(name)) / steps * 1e3

    layers = {
        "data.cohort_s": median(data_cohort_s),
        "data.shards.open_s": median(shards_open_s) if shards_open_s else 0.0,
        "data.wait_ms": (sum(waits) / len(waits) * 1e3) if waits else 0.0,
        "train.forward_ms": per_step_ms("train.forward"),
        "train.backward_ms": per_step_ms("train.backward"),
        "train.optimizer_ms": per_step_ms("train.optimizer"),
        "train.checkpoint_s": sum(
            s.duration for s in tracer.by_name("train.checkpoint")) / epochs,
    }
    # Validation is the engine.evaluate calls made inside an epoch; the
    # test-split evaluate after fit has no epoch parent.
    inside = {s.sid for s in tracer.by_name("train.epoch")}
    layers["train.validate_s"] = sum(
        s.duration for s in tracer.by_name("train.evaluate")
        if s.parent in inside) / epochs
    # Module spans nested under validation/eval are no-grad forwards;
    # per-step figures count only training forwards.
    forward_ids = {s.sid for s in tracer.by_name("train.forward")}
    for name in MODULE_SPANS[model_name]:
        layers[name + ".fwd_ms"] = sum(
            s.duration for s in tracer.by_name(name + ".fwd")
            if _under(tracer, s, forward_ids)) / steps * 1e3
    profilers = [f["profiler"] for f in fits]
    for op in PROFILED_OPS:
        layers[f"nn.{op}.fwd_self_ms"] = sum(
            p.op(op).forward_self_seconds for p in profilers) / steps * 1e3
        layers[f"nn.{op}.bwd_self_ms"] = sum(
            p.op(op).backward_self_seconds for p in profilers) / steps * 1e3
    layers["nn.op_calls_per_step"] = sum(
        p.forward_calls() for p in profilers) / steps
    layers["nn.alloc_mb_per_step"] = sum(
        s.forward_bytes for p in profilers for s in p.stats.values()
    ) / steps / 1e6
    layers["nn.peak_grad_mb"] = max(p.peak_grad_bytes for p in profilers) / 1e6
    return layers


def _under(tracer, span, ancestors):
    parent = span.parent
    while parent is not None:
        if parent in ancestors:
            return True
        parent = tracer.spans[parent].parent
    return False
