"""Classical ML baselines, from scratch in NumPy.

Experiment E7 compares every DL benchmark against the matching classical
method — the keynote's claim is that the DL models out-perform them on
these workloads.  Implemented here so the repository has no ML-library
dependency: ridge regression (closed form), multinomial logistic
regression (full-batch gradient descent), and k-nearest-neighbours.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class RidgeRegression:
    """L2-regularized least squares, solved in closed form.

    Solves (X'X + alpha I) w = X'y with an intercept column handled
    separately (the intercept is not penalized).
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        x_mean = x.mean(axis=0)
        y_mean = y.mean(axis=0)
        xc = x - x_mean
        yc = y - y_mean
        d = x.shape[1]
        a = xc.T @ xc + self.alpha * np.eye(d)
        b = xc.T @ yc
        self.coef_ = np.linalg.solve(a, b)
        self.intercept_ = y_mean - x_mean @ self.coef_
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit before predict")
        out = np.asarray(x, dtype=np.float64) @ self.coef_ + self.intercept_
        return out.squeeze(-1) if out.shape[-1] == 1 else out


class LogisticRegression:
    """Multinomial logistic regression with L2, full-batch gradient descent."""

    def __init__(
        self,
        lr: float = 0.5,
        n_iter: int = 300,
        alpha: float = 1e-3,
        tol: float = 1e-7,
    ) -> None:
        self.lr = lr
        self.n_iter = n_iter
        self.alpha = alpha
        self.tol = tol
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self.n_classes_: int = 0

    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        n, d = x.shape
        self.n_classes_ = int(y.max()) + 1
        onehot = np.eye(self.n_classes_)[y]
        w = np.zeros((d, self.n_classes_))
        b = np.zeros(self.n_classes_)
        prev_loss = np.inf
        for _ in range(self.n_iter):
            probs = self._softmax(x @ w + b)
            grad_logits = (probs - onehot) / n
            grad_w = x.T @ grad_logits + self.alpha * w
            grad_b = grad_logits.sum(axis=0)
            w -= self.lr * grad_w
            b -= self.lr * grad_b
            loss = -np.log(probs[np.arange(n), y] + 1e-12).mean() + 0.5 * self.alpha * (w ** 2).sum()
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self.coef_, self.intercept_ = w, b
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit before predict")
        return self._softmax(np.asarray(x, dtype=np.float64) @ self.coef_ + self.intercept_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)


class KNNRegressor:
    """Brute-force k-nearest-neighbour regressor (mean of neighbours)."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        self._x = np.asarray(x, dtype=np.float64)
        self._y = np.asarray(y, dtype=np.float64).ravel()
        return self

    def predict(self, x: np.ndarray, batch: int = 256) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("fit before predict")
        x = np.asarray(x, dtype=np.float64)
        preds = np.empty(len(x))
        train_sq = (self._x ** 2).sum(axis=1)
        for start in range(0, len(x), batch):
            xb = x[start : start + batch]
            d2 = (xb ** 2).sum(axis=1)[:, None] - 2 * xb @ self._x.T + train_sq[None, :]
            nn_idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            preds[start : start + batch] = self._y[nn_idx].mean(axis=1)
        return preds


class PCA:
    """Principal component analysis via thin SVD (baseline for the P1B1
    autoencoder: the best *linear* bottleneck)."""

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "PCA":
        x = np.asarray(x, dtype=np.float64)
        self.mean_ = x.mean(axis=0)
        # full_matrices=False: we only need the top singular vectors.
        _, _, vt = np.linalg.svd(x - self.mean_, full_matrices=False)
        self.components_ = vt[: self.n_components]
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) - self.mean_) @ self.components_.T

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z) @ self.components_ + self.mean_

    def reconstruction_mse(self, x: np.ndarray) -> float:
        recon = self.inverse_transform(self.transform(x))
        return float(((recon - np.asarray(x)) ** 2).mean())
