"""Tests of the multi-class (phenotyping) training path."""

import numpy as np
import pytest

from repro.core.elda_net import ELDANet
from repro.data import ARCHETYPES, NUM_FEATURES
from repro.train import Trainer


@pytest.fixture(scope="module")
def pheno_splits():
    from repro.data import SyntheticEMRGenerator, train_val_test_split
    admissions = SyntheticEMRGenerator().sample_many(
        90, np.random.default_rng(4))
    return train_val_test_split(admissions, np.random.default_rng(5))


NUM_CLASSES = len(ARCHETYPES)


class TestPhenotypeLabels:
    def test_labels_are_archetype_indices(self, pheno_splits):
        labels = pheno_splits.train.labels("phenotype")
        assert labels.min() >= 0
        assert labels.max() < NUM_CLASSES
        names = [a.name for a in ARCHETYPES]
        for i in range(5):
            assert names[labels[i]] == pheno_splits.train.archetypes[i]

    def test_missing_annotations_raise(self, pheno_splits):
        stripped = pheno_splits.train.subset(np.arange(4))
        stripped.archetypes = []
        with pytest.raises(ValueError):
            stripped.labels("phenotype")


class TestMulticlassTrainer:
    def test_trains_and_reports_multiclass_metrics(self, pheno_splits):
        model = ELDANet(NUM_FEATURES, np.random.default_rng(0),
                        embedding_size=6, hidden_size=8, compression=2,
                        num_classes=NUM_CLASSES)
        trainer = Trainer(model, "phenotype", max_epochs=2, patience=2,
                          batch_size=32, num_classes=NUM_CLASSES)
        history = trainer.fit(pheno_splits.train, pheno_splits.validation)
        assert history.num_epochs >= 1
        metrics = trainer.evaluate(pheno_splits.test)
        assert set(metrics) == {"ce", "accuracy"}
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_predict_proba_is_row_stochastic(self, pheno_splits):
        model = ELDANet(NUM_FEATURES, np.random.default_rng(1),
                        embedding_size=6, hidden_size=8, compression=2,
                        num_classes=NUM_CLASSES)
        trainer = Trainer(model, "phenotype", max_epochs=1, patience=1,
                          num_classes=NUM_CLASSES)
        trainer.fit(pheno_splits.train, pheno_splits.validation)
        probs = trainer.engine.predict_proba(pheno_splits.test)
        assert probs.shape == (len(pheno_splits.test), NUM_CLASSES)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_monitor_falls_back_to_loss(self):
        model = ELDANet(NUM_FEATURES, np.random.default_rng(2),
                        embedding_size=4, hidden_size=6, compression=2,
                        num_classes=3)
        trainer = Trainer(model, "phenotype", num_classes=3)
        assert trainer.monitor == "loss"

    def test_learning_reduces_cross_entropy(self, pheno_splits):
        """A brief run must reduce CE below the log(K) chance level."""
        model = ELDANet(NUM_FEATURES, np.random.default_rng(3),
                        embedding_size=8, hidden_size=16, compression=2,
                        num_classes=NUM_CLASSES)
        trainer = Trainer(model, "phenotype", max_epochs=14, patience=14,
                          batch_size=32, num_classes=NUM_CLASSES)
        history = trainer.fit(pheno_splits.train, pheno_splits.validation)
        # 90 admissions over 10 classes is a tiny problem; require steady
        # progress on the training loss rather than an absolute bar.
        assert history.train_loss[-1] < history.train_loss[0] - 0.05
