"""Training callbacks: every cross-cutting training concern as a plugin.

The :class:`~repro.train.engine.Engine` owns only the batch loop; each
behavior the old monolithic trainer hard-wired — early stopping,
scheduler stepping, batch timing, anomaly aborts — plus the new run
artifacts (checkpoints, metric streams) is a :class:`Callback` here.
Callbacks receive events in stack order:

=====================  ==============================================
event                  when
=====================  ==============================================
``on_fit_start``       before the first epoch (after a resume restore)
``on_epoch_start``     before each epoch's batch loop
``on_batch_start``     before ``zero_grad`` (timers start here)
``on_backward_end``    after ``loss.backward()``, **before** clip/step
``on_batch_end``       after the optimizer step (or on a failed step)
``on_epoch_end``       after validation metrics for the epoch exist
``on_fit_end``         after training completes without error
=====================  ==============================================

Stateful callbacks additionally implement ``state_dict()`` (JSON-able
scalars) and ``array_state()`` (flat name → ndarray) so the engine can
checkpoint and resume them exactly.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np

from .. import nn

__all__ = ["Callback", "monitor_score", "EarlyStopping",
           "LRSchedulerCallback", "BatchTimer", "AnomalyGuard",
           "Checkpointer", "JSONLLogger"]


def monitor_score(logs, monitor):
    """Higher-is-better score of an epoch under a monitor name.

    ``"loss"`` monitors negated validation loss; ``"auc_pr"`` monitors
    validation AUC-PR directly.
    """
    if monitor == "loss":
        return -logs["val_loss"]
    return logs["val_auc_pr"]


class Callback:
    """Base class; override any subset of the event hooks.

    Every hook receives the :class:`~repro.train.engine.Engine`, so
    callbacks can read the model, optimizer, history, and run directory,
    and request a stop via ``engine.should_stop = True``.
    """

    def on_fit_start(self, engine):
        pass

    def on_epoch_start(self, engine, epoch):
        pass

    def on_batch_start(self, engine, epoch, batch_index):
        pass

    def on_backward_end(self, engine, epoch, batch_index, loss):
        pass

    def on_batch_end(self, engine, epoch, batch_index, loss):
        pass

    def on_epoch_end(self, engine, epoch, logs):
        pass

    def on_fit_end(self, engine):
        pass

    # ------------------------------------------------------------------
    # Checkpointing (optional)
    # ------------------------------------------------------------------
    def state_dict(self):
        """JSON-serializable scalar state (checkpointed per epoch)."""
        return {}

    def load_state_dict(self, state):
        pass

    def array_state(self):
        """Flat ``{name: ndarray}`` state too large for JSON."""
        return {}

    def load_array_state(self, arrays):
        pass


class EarlyStopping(Callback):
    """Stop when the monitored validation score stalls; restore the best.

    Implements the paper's protocol: track the best epoch under
    ``monitor`` (``"auc_pr"`` or ``"loss"``), stop after ``patience``
    epochs without improvement, and load the best-on-validation weights
    back into the model when training ends.

    If the monitored score is NaN on *every* epoch the best-weight
    restore falls back to the last epoch's weights (with a warning)
    instead of silently rewinding to the initial ones.
    """

    def __init__(self, monitor="auc_pr", patience=4, restore_best=True):
        self.monitor = monitor
        self.patience = patience
        self.restore_best = restore_best
        self.best_score = -np.inf
        self.stall = 0
        self.best_state = None

    def on_fit_start(self, engine):
        if self.best_state is None:
            self.best_state = engine.model.state_dict()

    def on_epoch_end(self, engine, epoch, logs):
        score = monitor_score(logs, self.monitor)
        if np.isnan(score):
            score = -np.inf
        if score > self.best_score:
            self.best_score = score
            self.best_state = engine.model.state_dict()
            engine.history.best_epoch = epoch
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= self.patience:
                engine.should_stop = True
                engine.stop_reason = (
                    f"early stopping: no {self.monitor} improvement in "
                    f"{self.patience} epochs")

    def on_fit_end(self, engine):
        if not self.restore_best:
            return
        if engine.history.best_epoch >= 0:
            engine.model.load_state_dict(self.best_state)
        elif engine.history.num_epochs > 0:
            # Degenerate run: the monitor was NaN every epoch, so no
            # epoch ever registered as "best".  Keep the last epoch's
            # weights (the model already holds them) rather than
            # rewinding to the untrained initial state.
            engine.history.best_epoch = engine.history.num_epochs - 1
            warnings.warn(
                f"monitored score {self.monitor!r} was NaN every epoch; "
                "keeping the last epoch's weights instead of restoring "
                "initial ones", RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    def state_dict(self):
        return {"best_score": float(self.best_score), "stall": int(self.stall)}

    def load_state_dict(self, state):
        self.best_score = float(state["best_score"])
        self.stall = int(state["stall"])

    def array_state(self):
        return dict(self.best_state) if self.best_state is not None else {}

    def load_array_state(self, arrays):
        if arrays:
            self.best_state = dict(arrays)


class LRSchedulerCallback(Callback):
    """Step a learning-rate scheduler once per epoch with the val loss."""

    def __init__(self, scheduler):
        self.scheduler = scheduler

    def on_epoch_end(self, engine, epoch, logs):
        self.scheduler.step(logs["val_loss"])

    def state_dict(self):
        getter = getattr(self.scheduler, "state_dict", None)
        return dict(getter()) if getter is not None else {}

    def load_state_dict(self, state):
        setter = getattr(self.scheduler, "load_state_dict", None)
        if setter is not None and state:
            setter(state)


class BatchTimer(Callback):
    """Record per-batch wall-clock; feeds the Table III timing columns.

    At fit end, writes the mean seconds-per-batch and the per-sample
    prediction latency (measured on the validation split) into the
    engine's :class:`~repro.train.engine.TrainingHistory`.
    """

    def __init__(self):
        self.batch_times = []
        self._started = None

    def on_batch_start(self, engine, epoch, batch_index):
        self._started = time.perf_counter()

    def on_batch_end(self, engine, epoch, batch_index, loss):
        if self._started is not None:
            self.batch_times.append(time.perf_counter() - self._started)
            self._started = None

    def on_fit_end(self, engine):
        engine.history.seconds_per_batch = (
            float(np.mean(self.batch_times)) if self.batch_times else 0.0)
        if engine.validation_data is not None:
            engine.history.prediction_seconds_per_sample = (
                engine.time_prediction(engine.validation_data))


class AnomalyGuard(Callback):
    """Abort on garbage losses; optionally run under anomaly detection.

    Independent of ``anomaly_mode``, a non-finite training loss aborts
    the run *before* the optimizer step (the old trainer's behavior).
    With ``anomaly_mode=True`` every batch runs inside
    :class:`repro.nn.debug.detect_anomaly`, so the first NaN/Inf raises
    at the op that produced it.
    """

    def __init__(self, anomaly_mode=False):
        self.anomaly_mode = anomaly_mode
        self._context = None

    def on_batch_start(self, engine, epoch, batch_index):
        if self.anomaly_mode:
            self._context = nn.detect_anomaly()
            self._context.__enter__()

    def on_backward_end(self, engine, epoch, batch_index, loss):
        if not np.isfinite(loss):
            raise nn.AnomalyError(
                f"non-finite training loss ({loss}) at epoch {epoch}, "
                f"batch {batch_index}; aborting instead of training on "
                f"garbage — rerun with anomaly_mode=True "
                f"(CLI: --debug-anomaly) to pinpoint the op")

    def on_batch_end(self, engine, epoch, batch_index, loss):
        if self._context is not None:
            self._context.__exit__(None, None, None)
            self._context = None


class Checkpointer(Callback):
    """Durable ``.npz`` checkpoints under ``run_dir/checkpoints/``.

    Writes ``last/`` after every epoch (what :meth:`Engine.resume` loads)
    and ``best/`` whenever the epoch just finished is the monitored best.
    ``every=k`` additionally keeps a permanent ``epoch_%04d/`` snapshot
    every k epochs.  Best detection reads ``history.best_epoch``, so
    order this callback *after* :class:`EarlyStopping` in the stack.
    """

    def __init__(self, run_dir, every=0, keep_best=True):
        from pathlib import Path
        self.run_dir = Path(run_dir)
        self.every = int(every)
        self.keep_best = keep_best

    def on_epoch_end(self, engine, epoch, logs):
        root = self.run_dir / "checkpoints"
        engine.save_checkpoint(root / "last")
        if self.keep_best and engine.history.best_epoch == epoch:
            engine.save_checkpoint(root / "best")
        if self.every > 0 and (epoch + 1) % self.every == 0:
            engine.save_checkpoint(root / f"epoch_{epoch:04d}")


class JSONLLogger(Callback):
    """Stream per-epoch metrics into ``run_dir/metrics.jsonl``.

    A fresh fit also writes the engine's configuration to
    ``run_dir/config.json``; a resumed fit appends to the existing
    stream so the run directory stays a complete replayable record.
    """

    def __init__(self, run_dir):
        from pathlib import Path
        self.run_dir = Path(run_dir)

    def on_fit_start(self, engine):
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if engine.epoch == 0:
            with open(self.run_dir / "config.json", "w") as handle:
                json.dump(engine.config, handle, indent=2, sort_keys=True)
                handle.write("\n")
            # Truncate any stale stream from a previous run in this dir.
            open(self.run_dir / "metrics.jsonl", "w").close()

    def on_epoch_end(self, engine, epoch, logs):
        record = {"epoch": epoch, "lr": float(engine.optimizer.lr)}
        record.update({key: _jsonable(value) for key, value in logs.items()})
        with open(self.run_dir / "metrics.jsonl", "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
