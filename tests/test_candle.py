"""Tests for CANDLE-style models and classical baselines (repro.candle)."""

import numpy as np
import pytest

from repro.candle import (
    PCA,
    ComboModel,
    KNNRegressor,
    LogisticRegression,
    MultitaskModel,
    REGISTRY,
    RidgeRegression,
    build_amr_classifier,
    build_combo_mlp,
    build_nt3_classifier,
    build_p1b1_autoencoder,
    build_p1b2_classifier,
    encode_p1b1,
    feature_importance,
    fit_multitask,
    get_benchmark,
)
from repro.datasets import (
    attribution_hit_rate,
    make_amr_genomes,
    make_autoencoder_expression,
    make_combo_response,
    make_medical_records,
    make_tumor_expression,
)
from repro.nn import Tensor, metrics

RNG = np.random.default_rng(99)


class TestRidge:
    def test_recovers_linear_coefficients(self):
        x = RNG.standard_normal((300, 5))
        w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = x @ w + 2.0
        model = RidgeRegression(alpha=1e-6).fit(x, y)
        assert np.allclose(model.coef_.ravel(), w, atol=1e-6)
        assert model.intercept_[0] == pytest.approx(2.0, abs=1e-6)

    def test_regularization_shrinks(self):
        x = RNG.standard_normal((50, 5))
        y = x @ np.ones(5)
        small = RidgeRegression(alpha=1e-6).fit(x, y)
        big = RidgeRegression(alpha=1000.0).fit(x, y)
        assert np.linalg.norm(big.coef_) < np.linalg.norm(small.coef_)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((2, 3)))

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1.0)

    def test_multioutput(self):
        x = RNG.standard_normal((100, 4))
        y = x @ RNG.standard_normal((4, 3))
        model = RidgeRegression(alpha=1e-6).fit(x, y)
        assert model.predict(x).shape == (100, 3)


class TestLogistic:
    def test_separable_problem(self):
        x = np.vstack([RNG.standard_normal((60, 2)) + 3, RNG.standard_normal((60, 2)) - 3])
        y = np.array([0] * 60 + [1] * 60)
        model = LogisticRegression(n_iter=500).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.98

    def test_proba_sums_to_one(self):
        x = RNG.standard_normal((50, 3))
        y = RNG.integers(0, 3, 50)
        model = LogisticRegression(n_iter=50).fit(x, y)
        assert np.allclose(model.predict_proba(x).sum(axis=1), 1.0)

    def test_multiclass(self):
        centers = np.array([[4, 0], [-4, 0], [0, 4]])
        x = np.vstack([RNG.standard_normal((40, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 40)
        model = LogisticRegression(n_iter=500).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.95

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((2, 3)))


class TestKNN:
    def test_regressor_memorizes_train(self):
        x = RNG.standard_normal((80, 4))
        y = RNG.standard_normal(80)
        model = KNNRegressor(k=1).fit(x, y)
        assert np.allclose(model.predict(x), y)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)
        with pytest.raises(ValueError):
            KNNRegressor(k=-1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KNNRegressor().predict(np.zeros((2, 3)))


class TestPCA:
    def test_perfect_reconstruction_full_rank(self):
        x = RNG.standard_normal((50, 5))
        pca = PCA(n_components=5).fit(x)
        assert pca.reconstruction_mse(x) == pytest.approx(0.0, abs=1e-18)

    def test_low_rank_data_recovered(self):
        z = RNG.standard_normal((100, 3))
        x = z @ RNG.standard_normal((3, 20))
        pca = PCA(n_components=3).fit(x)
        assert pca.reconstruction_mse(x) == pytest.approx(0.0, abs=1e-18)

    def test_transform_shape(self):
        x = RNG.standard_normal((30, 8))
        assert PCA(4).fit(x).transform(x).shape == (30, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PCA(0)


class TestP1B1:
    def test_autoencoder_beats_undersized_pca_style_bottleneck(self):
        x, _ = make_autoencoder_expression(n_samples=300, n_genes=80, latent_dim=6, noise=0.1, seed=0)
        ae = build_p1b1_autoencoder(80, latent_dim=8, hidden=(60,))
        h = ae.fit(x, None, epochs=30, lr=1e-3, seed=0)
        assert h.series("loss")[-1] < h.series("loss")[0] * 0.7

    def test_encoder_output_dimension(self):
        x, _ = make_autoencoder_expression(n_samples=50, n_genes=40, seed=0)
        ae = build_p1b1_autoencoder(40, latent_dim=7, hidden=(30,))
        ae.fit(x, None, epochs=1, seed=0)
        z = encode_p1b1(ae, x)
        assert z.shape == (50, 7)

    def test_output_matches_input_dim(self):
        ae = build_p1b1_autoencoder(33, latent_dim=5, hidden=(20,))
        ae.build((33,), np.random.default_rng(0))
        out = ae(Tensor(RNG.standard_normal((4, 33))))
        assert out.shape == (4, 33)


class TestP1B2AndNT3:
    def test_p1b2_learns_tumor_types(self):
        ds = make_tumor_expression(n_samples=400, n_genes=100, n_classes=3, seed=0)
        m = build_p1b2_classifier(3, hidden=(64, 32), dropout=0.0)
        m.fit(ds.x, ds.y, epochs=15, loss="cross_entropy", lr=1e-3, seed=0)
        acc = metrics.accuracy(m.predict(ds.x), ds.y)
        assert acc > 0.85

    def test_p1b2_batchnorm_variant_runs(self):
        ds = make_tumor_expression(n_samples=100, n_genes=50, seed=0)
        m = build_p1b2_classifier(4, hidden=(32,), batch_norm=True)
        h = m.fit(ds.x, ds.y, epochs=2, loss="cross_entropy", seed=0)
        assert len(h) == 2

    def test_nt3_learns(self):
        ds = make_tumor_expression(n_samples=240, n_genes=120, n_classes=2, seed=0)
        m = build_nt3_classifier(2, conv_filters=(8,), dense_units=(32,), kernel_size=5, dropout=0.0)
        m.fit(ds.as_conv_input(), ds.y, epochs=6, loss="cross_entropy", lr=1e-3, seed=0)
        acc = metrics.accuracy(m.predict(ds.as_conv_input()), ds.y)
        assert acc > 0.9

    def test_nt3_two_conv_blocks_shapes(self):
        m = build_nt3_classifier(2, conv_filters=(8, 16), kernel_size=5, pool_size=2)
        m.build((1, 200), np.random.default_rng(0))
        out = m(Tensor(RNG.standard_normal((3, 1, 200))))
        assert out.shape == (3, 2)


class TestCombo:
    def test_tower_model_trains(self):
        ds = make_combo_response(n_samples=500, seed=0)
        m = ComboModel(ds.n_cell_features, ds.n_drug_features, tower_units=(32, 16), head_units=(32,))
        h = m.fit(ds.x, ds.y.reshape(-1, 1), epochs=8, loss="mse", lr=1e-3, seed=0)
        assert h.series("loss")[-1] < h.series("loss")[0] * 0.7

    def test_tower_input_validation(self):
        m = ComboModel(10, 5)
        with pytest.raises(ValueError):
            m.build((99,), np.random.default_rng(0))

    def test_drug_towers_share_weights(self):
        ds = make_combo_response(n_samples=50, seed=0)
        m = ComboModel(ds.n_cell_features, ds.n_drug_features, tower_units=(8,), head_units=(8,))
        m.build((ds.x.shape[1],), np.random.default_rng(0))
        # Parameter count: one cell tower + ONE drug tower + head.
        n_cell = (ds.n_cell_features * 8 + 8)
        n_drug = ((ds.n_drug_features + 1) * 8 + 8)
        n_head = (24 * 8 + 8) + (8 * 1 + 1)
        assert m.param_count() == n_cell + n_drug + n_head

    def test_swap_drugs_different_doses_change_prediction(self):
        ds = make_combo_response(n_samples=20, seed=0)
        m = ComboModel(ds.n_cell_features, ds.n_drug_features, tower_units=(8,), head_units=(8,))
        m.fit(ds.x, ds.y.reshape(-1, 1), epochs=1, seed=0)
        nc, nd = ds.n_cell_features, ds.n_drug_features
        x = ds.x[:5].copy()
        swapped = x.copy()
        swapped[:, nc : nc + nd] = x[:, nc + nd : nc + 2 * nd]
        swapped[:, nc + nd : nc + 2 * nd] = x[:, nc : nc + nd]
        swapped[:, -2] = x[:, -1]
        swapped[:, -1] = x[:, -2]
        # Shared towers mean drug-order symmetry: predictions must match.
        assert np.allclose(m.predict(x), m.predict(swapped), atol=1e-10)

    def test_flat_mlp_builder(self):
        m = build_combo_mlp(hidden=(16,), dropout=0.1)
        m.build((10,), np.random.default_rng(0))
        assert m(Tensor(RNG.standard_normal((4, 10)))).shape == (4, 1)


class TestMultitask:
    def test_training_improves_all_tasks(self):
        ds = make_medical_records(n_docs=400, label_noise=0.0, seed=0)
        m = MultitaskModel(ds.n_classes, shared_units=(64,), head_units=(16,), dropout=0.0)
        fit_multitask(m, ds.x, ds.labels, epochs=12, lr=1e-3, seed=0)
        preds = m.predict_all(ds.x)
        for t in ds.tasks:
            chance = 1.0 / ds.n_classes[t]
            acc = metrics.accuracy(preds[t], ds.labels[t])
            assert acc > chance + 0.1, f"task {t}: acc {acc} barely above chance {chance}"

    def test_forward_all_keys(self):
        m = MultitaskModel({"a": 2, "b": 3}, shared_units=(8,), head_units=(4,))
        m.build((10,), np.random.default_rng(0))
        out = m.forward_all(Tensor(RNG.standard_normal((5, 10))))
        assert set(out) == {"a", "b"}
        assert out["a"].shape == (5, 2) and out["b"].shape == (5, 3)

    def test_task_weights_affect_loss(self):
        ds = make_medical_records(n_docs=60, seed=0)
        m1 = MultitaskModel(ds.n_classes, shared_units=(16,), head_units=(8,))
        l1 = fit_multitask(m1, ds.x, ds.labels, epochs=1, seed=0)
        m2 = MultitaskModel(ds.n_classes, shared_units=(16,), head_units=(8,))
        l2 = fit_multitask(
            m2, ds.x, ds.labels, epochs=1, seed=0,
            task_weights={t: 2.0 for t in ds.tasks},
        )
        assert l2[0] == pytest.approx(2 * l1[0], rel=0.05)


class TestAMRModel:
    def test_classifier_beats_chance(self):
        ds = make_amr_genomes(n_genomes=200, genome_length=1500, seed=0)
        m = build_amr_classifier(hidden=(64,), dropout=0.0)
        m.fit(ds.x, ds.y.reshape(-1, 1).astype(float), epochs=15, loss="bce_logits", lr=1e-3, seed=0)
        auc = metrics.roc_auc(m.predict(ds.x).ravel(), ds.y)
        assert auc > 0.9

    def test_attribution_recovers_planted_motifs(self):
        """Mechanism discovery (claim C5): top attributed features are
        enriched for the planted motif buckets far beyond chance."""
        ds = make_amr_genomes(n_genomes=200, genome_length=1500, seed=0)
        m = build_amr_classifier(hidden=(64,), dropout=0.0)
        m.fit(ds.x, ds.y.reshape(-1, 1).astype(float), epochs=15, loss="bce_logits", lr=1e-3, seed=0)
        imp = feature_importance(m, ds.x)
        hit = attribution_hit_rate(imp, ds, top_n=30)
        from repro.datasets import motif_buckets

        chance = len(motif_buckets(ds)) / ds.n_features
        assert hit > 3 * chance

    def test_feature_importance_shape_and_sign(self):
        ds = make_amr_genomes(n_genomes=30, genome_length=500, seed=0)
        m = build_amr_classifier(hidden=(16,), dropout=0.0)
        m.fit(ds.x, ds.y.reshape(-1, 1).astype(float), epochs=1, seed=0)
        imp = feature_importance(m, ds.x)
        assert imp.shape == (ds.n_features,)
        assert np.all(imp >= 0)


class TestRegistry:
    def test_all_entries_complete(self):
        for name, spec in REGISTRY.items():
            assert spec.name == name
            assert spec.metric_mode in ("max", "min")
            assert callable(spec.make_data) and callable(spec.build_model)

    def test_get_unknown(self):
        with pytest.raises(ValueError):
            get_benchmark("nope")

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_data_and_model_compose(self, name):
        """Every registry entry must produce data its model can train on."""
        spec = get_benchmark(name)
        x, y = spec.make_data(seed=0)
        x, y = x[:40], (None if y is None else y[:40])
        model = spec.build_model()
        h = model.fit(x, y, epochs=1, loss=spec.loss, batch_size=16, seed=0)
        assert np.isfinite(h.series("loss")[0])
