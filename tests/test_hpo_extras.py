"""Tests for model weights and training-state serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    SGD,
    Sequential,
    load_training_state,
    load_weights,
    save_training_state,
    save_weights,
)


@pytest.fixture()
def trained_model():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 5))
    y = (x @ rng.standard_normal(5)).reshape(-1, 1)
    m = Sequential([Dense(8, activation="tanh"), Dense(1)])
    m.build((5,), np.random.default_rng(0))
    opt = Adam(m.parameters(), lr=1e-2)
    m.fit(x, y, epochs=3, optimizer=opt, seed=0)
    return m, opt, x, y


class TestSerialization:
    def test_weights_roundtrip(self, trained_model, tmp_path):
        m, _, x, _ = trained_model
        save_weights(m, tmp_path / "w.npz", metadata={"tag": "v1"})
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(42))
        meta = load_weights(m2, tmp_path / "w.npz")
        assert meta == {"tag": "v1"}
        assert np.allclose(m.predict(x), m2.predict(x))

    def test_checkpoint_restores_optimizer_state(self, trained_model, tmp_path):
        m, opt, x, y = trained_model
        save_training_state(m, opt, tmp_path / "c.npz", epoch=3)
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(7))
        opt2 = Adam(m2.parameters(), lr=999.0)
        header = load_training_state(m2, opt2, tmp_path / "c.npz")
        assert header["epoch"] == 3
        assert opt2.lr == opt.lr
        assert opt2.step_count == opt.step_count
        # Adam moments restored for every parameter.
        assert opt2.state["m"].size == m2.param_count()

    def test_resume_training_continues_identically(self, trained_model, tmp_path):
        """Checkpoint/restore then train must match uninterrupted training."""
        m, opt, x, y = trained_model
        save_training_state(m, opt, tmp_path / "c.npz")
        # Continue original for 2 epochs.
        m.fit(x, y, epochs=2, optimizer=opt, seed=1)
        ref = m.predict(x)
        # Restore into a clone and do the same.
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(3))
        opt2 = Adam(m2.parameters(), lr=1e-2)
        load_training_state(m2, opt2, tmp_path / "c.npz")
        m2.fit(x, y, epochs=2, optimizer=opt2, seed=1)
        assert np.allclose(m2.predict(x), ref)

    def test_sgd_momentum_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        y = (x @ np.ones(3)).reshape(-1, 1)
        m = Sequential([Dense(1)])
        m.build((3,), np.random.default_rng(0))
        opt = SGD(m.parameters(), lr=0.01, momentum=0.9)
        m.fit(x, y, epochs=2, optimizer=opt, seed=0)
        save_training_state(m, opt, tmp_path / "sgd.npz")
        m2 = Sequential([Dense(1)])
        m2.build((3,), np.random.default_rng(9))
        opt2 = SGD(m2.parameters(), lr=0.01, momentum=0.9)
        load_training_state(m2, opt2, tmp_path / "sgd.npz")
        assert opt2.state["velocity"].size == m2.param_count()

    def test_shape_mismatch_raises(self, trained_model, tmp_path):
        m, _, _, _ = trained_model
        save_weights(m, tmp_path / "w.npz")
        wrong = Sequential([Dense(9), Dense(1)])
        wrong.build((5,), np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_weights(wrong, tmp_path / "w.npz")
