"""E7 — Benchmark accuracy: DL models vs classical baselines (C1/C2/C4/C5).

Every CANDLE-style workload against the matching classical method on
held-out data.  Expected shape: the DL model beats its baseline on every
planted-nonlinear-structure dataset.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.candle import (
    KNNRegressor,
    build_imaging_classifier,
    LogisticRegression,
    MultitaskModel,
    PCA,
    RidgeRegression,
    build_amr_classifier,
    build_combo_mlp,
    build_nt3_classifier,
    build_p1b1_autoencoder,
    build_p1b2_classifier,
    fit_multitask,
)
from repro.datasets import (
    make_amr_genomes,
    make_tumor_images,
    make_autoencoder_expression,
    make_combo_response,
    make_medical_records,
    make_tumor_expression,
)
from repro.nn import metrics, train_val_split
from repro.utils import format_table


def _split(x, y, seed=0):
    return train_val_split(x, y, val_frac=0.3, rng=np.random.default_rng(seed))


def row_p1b1():
    # saturation=4: a genuinely nonlinear manifold, where the linear
    # bottleneck (PCA) hits a floor the autoencoder can go below.
    x, _ = make_autoencoder_expression(
        n_samples=800, n_genes=150, latent_dim=8, noise=0.2, saturation=4.0, seed=0
    )
    x_tr, _, x_te, _ = _split(x, None)
    ae = build_p1b1_autoencoder(150, latent_dim=8, hidden=(120, 60), activation="tanh")
    ae.fit(x_tr, None, epochs=200, lr=3e-3, batch_size=64, seed=0)
    dl = ae.evaluate(x_te, None)["loss"]
    pca = PCA(8).fit(x_tr)
    base = pca.reconstruction_mse(x_te)
    return ["p1b1 (autoencoder)", "recon MSE (lower better)", dl, base, dl < base]


def row_p1b2():
    ds = make_tumor_expression(n_samples=700, n_genes=150, n_classes=4, noise=0.6, seed=0)
    x_tr, y_tr, x_te, y_te = _split(ds.x, ds.y)
    m = build_p1b2_classifier(4, hidden=(128, 64), dropout=0.1)
    m.fit(x_tr, y_tr, epochs=25, loss="cross_entropy", lr=1e-3, seed=0)
    dl = metrics.accuracy(m.predict(x_te), y_te)
    base = metrics.accuracy(
        LogisticRegression(n_iter=400).fit(x_tr, y_tr).predict_proba(x_te), y_te
    )
    return ["p1b2 (tumor type)", "accuracy", dl, base, dl >= base - 0.02]


def row_nt3():
    ds = make_tumor_expression(n_samples=500, n_genes=200, n_classes=2, noise=0.8, seed=1)
    x = ds.as_conv_input()
    x_tr, y_tr, x_te, y_te = _split(x, ds.y)
    m = build_nt3_classifier(2, conv_filters=(16,), dense_units=(32,), kernel_size=7, dropout=0.1)
    m.fit(x_tr, y_tr, epochs=12, loss="cross_entropy", lr=1e-3, seed=0)
    dl = metrics.accuracy(m.predict(x_te), y_te)
    base = metrics.accuracy(
        LogisticRegression(n_iter=400).fit(x_tr[:, 0, :], y_tr).predict_proba(x_te[:, 0, :]), y_te
    )
    return ["nt3 (conv tumor/normal)", "accuracy", dl, base, dl >= base - 0.02]


def row_combo():
    ds = make_combo_response(n_samples=2500, seed=0)
    x_tr, y_tr, x_te, y_te = _split(ds.x, ds.y)
    # Standardize (fit on train): the raw dose column's scale otherwise
    # dominates the MLP's early optimization.
    mu, sd = x_tr.mean(axis=0), x_tr.std(axis=0) + 1e-9
    xs_tr, xs_te = (x_tr - mu) / sd, (x_te - mu) / sd
    m = build_combo_mlp(hidden=(128, 64), dropout=0.0)
    m.fit(xs_tr, y_tr.reshape(-1, 1), epochs=60, loss="mse", lr=3e-3, seed=0)
    dl = metrics.r2_score(m.predict(xs_te), y_te)
    base = metrics.r2_score(RidgeRegression(alpha=1.0).fit(x_tr, y_tr).predict(x_te), y_te)
    return ["combo (drug pair R2)", "R2", dl, base, dl > base]


def row_p3b1():
    ds = make_medical_records(n_docs=900, seed=0)
    idx = np.random.default_rng(0).permutation(len(ds.x))
    tr, te = idx[:650], idx[650:]
    m = MultitaskModel(ds.n_classes, shared_units=(128,), head_units=(32,), dropout=0.1)
    fit_multitask(m, ds.x[tr], {t: ds.labels[t][tr] for t in ds.tasks}, epochs=20, lr=1e-3, seed=0)
    preds = m.predict_all(ds.x[te])
    dl = float(np.mean([metrics.accuracy(preds[t], ds.labels[t][te]) for t in ds.tasks]))
    base_accs = []
    for t in ds.tasks:
        clf = LogisticRegression(n_iter=300).fit(ds.x[tr], ds.labels[t][tr])
        base_accs.append(metrics.accuracy(clf.predict_proba(ds.x[te]), ds.labels[t][te]))
    base = float(np.mean(base_accs))
    return ["p3b1 (multitask records)", "mean accuracy", dl, base, dl >= base - 0.03]


def row_amr():
    ds = make_amr_genomes(n_genomes=400, genome_length=2000, seed=0)
    x_tr, y_tr, x_te, y_te = _split(ds.x, ds.y)
    m = build_amr_classifier(hidden=(128, 64), dropout=0.1)
    m.fit(x_tr, y_tr.reshape(-1, 1).astype(float), epochs=25, loss="bce_logits", lr=1e-3, seed=0)
    dl = metrics.roc_auc(m.predict(x_te).ravel(), y_te)
    knn = KNNRegressor(k=5).fit(x_tr, y_tr.astype(float))
    base = metrics.roc_auc(knn.predict(x_te), y_te)
    return ["amr (resistance AUC)", "ROC AUC", dl, base, dl > base - 0.02]


def row_imaging():
    # Hard variant: equal nucleus density + per-patch standardization, so
    # only local shape/texture signal remains (no linear shortcut).
    ds = make_tumor_images(n_samples=300, size=20, equal_density=True, standardize=True, seed=0)
    x_tr, y_tr, x_te, y_te = _split(ds.x, ds.y)
    m = build_imaging_classifier(2, conv_filters=(8, 16), dense_units=(32,), dropout=0.0)
    m.fit(x_tr, y_tr, epochs=8, batch_size=32, loss="cross_entropy", lr=2e-3, seed=0)
    dl = metrics.accuracy(m.predict(x_te), y_te)
    flat_tr, flat_te = x_tr.reshape(len(x_tr), -1), x_te.reshape(len(x_te), -1)
    base = metrics.accuracy(
        LogisticRegression(n_iter=300).fit(flat_tr, y_tr).predict_proba(flat_te), y_te
    )
    return ["imaging (tumor grade conv2d)", "accuracy", dl, base, dl > base + 0.1]


def test_e7_accuracy_table():
    rows = [row_p1b1(), row_p1b2(), row_nt3(), row_combo(), row_p3b1(), row_amr(), row_imaging()]
    table_rows = [[r[0], r[1], r[2], r[3], "yes" if r[4] else "NO"] for r in rows]
    print_experiment(
        "E7  DL benchmarks vs classical baselines (held-out data)",
        format_table(["benchmark", "metric", "DL", "baseline", "DL wins"], table_rows),
    )
    failures = [r[0] for r in rows if not r[4]]
    assert not failures, f"DL failed to beat baseline on: {failures}"
