"""Tests of the shared training loop."""

import numpy as np
import pytest

from repro.baselines import GRUClassifier, LogisticRegression
from repro.data import NUM_FEATURES
from repro.train import Trainer


@pytest.fixture(scope="module")
def separable_splits():
    """A cohort where mortality is strongly learnable."""
    from repro.data import SyntheticEMRGenerator, train_val_test_split
    admissions = SyntheticEMRGenerator(label_noise=0.0).sample_many(
        160, np.random.default_rng(10))
    return train_val_test_split(admissions, np.random.default_rng(11))


class TestFitting:
    def test_learns_above_chance(self, separable_splits):
        model = GRUClassifier(NUM_FEATURES, np.random.default_rng(0),
                              hidden_size=16)
        trainer = Trainer(model, "mortality", max_epochs=8, patience=8,
                          batch_size=32, monitor="loss")
        trainer.fit(separable_splits.train, separable_splits.validation)
        metrics = trainer.evaluate(separable_splits.train)
        assert metrics["auc_roc"] > 0.7

    def test_training_loss_decreases(self, separable_splits):
        model = GRUClassifier(NUM_FEATURES, np.random.default_rng(1),
                              hidden_size=8)
        trainer = Trainer(model, "mortality", max_epochs=4, patience=4,
                          batch_size=32)
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_bookkeeping(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(2))
        trainer = Trainer(model, "mortality", max_epochs=3, patience=3)
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        assert history.num_epochs == 3
        assert len(history.val_auc_pr) == 3
        assert 0 <= history.best_epoch < 3
        assert history.seconds_per_batch > 0
        assert history.prediction_seconds_per_sample > 0

    def test_early_stopping_halts(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(3))
        trainer = Trainer(model, "mortality", max_epochs=50, patience=2)
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        assert history.num_epochs < 50

    def test_best_weights_restored(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(4))
        trainer = Trainer(model, "mortality", max_epochs=6, patience=6)
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        restored = trainer.evaluate(separable_splits.validation)
        assert np.isclose(restored["auc_pr"],
                          history.val_auc_pr[history.best_epoch], atol=1e-9)

    def test_monitor_loss_mode(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(5))
        trainer = Trainer(model, "mortality", max_epochs=2, patience=2,
                          monitor="loss")
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        assert history.best_epoch == int(np.argmin(history.val_loss))

    def test_invalid_monitor_raises(self):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Trainer(model, "mortality", monitor="vibes")


class TestPrediction:
    def test_probabilities_shape_and_range(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(6))
        trainer = Trainer(model, "mortality", max_epochs=1, patience=1)
        trainer.fit(separable_splits.train, separable_splits.validation)
        probs = trainer.engine.predict_proba(separable_splits.test)
        assert probs.shape == (len(separable_splits.test),)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_prediction_order_preserved(self, separable_splits):
        """predict_proba must not shuffle: metrics align with labels."""
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(7))
        trainer = Trainer(model, "mortality", max_epochs=1, patience=1)
        trainer.fit(separable_splits.train, separable_splits.validation)
        a = trainer.engine.predict_proba(separable_splits.test)
        b = trainer.engine.predict_proba(separable_splits.test)
        assert np.array_equal(a, b)

    def test_los_task(self, separable_splits):
        model = LogisticRegression(NUM_FEATURES, np.random.default_rng(8))
        trainer = Trainer(model, "los", max_epochs=2, patience=2)
        history = trainer.fit(separable_splits.train,
                              separable_splits.validation)
        assert history.num_epochs >= 1
