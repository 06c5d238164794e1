"""Pharmacology utilities: Hill-curve fitting and potency estimation.

The drug-response workloads predict growth at arbitrary doses; turning
those predictions into the numbers pharmacologists use (IC50, AUC of the
dose-response curve) needs curve fitting.  Fitting the planted Hill
model back out of noisy measurements also serves as an end-to-end check
that :func:`repro.datasets.make_single_drug_response` generates what it
claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .drug_response import hill_response


@dataclass(frozen=True)
class HillFit:
    """Fitted Hill parameters for one dose-response series."""

    ic50: float  # log10 concentration of half-maximal inhibition
    slope: float
    residual: float  # RMS of the fit

    def inhibition(self, dose: np.ndarray) -> np.ndarray:
        return hill_response(np.asarray(dose, dtype=np.float64), np.full(np.shape(dose), self.ic50), self.slope)

    def growth(self, dose: np.ndarray) -> np.ndarray:
        return 1.0 - self.inhibition(dose)


def fit_hill(
    doses: np.ndarray,
    growth: np.ndarray,
    ic50_bounds: Tuple[float, float] = (-10.0, -2.0),
    slope_bounds: Tuple[float, float] = (0.2, 5.0),
) -> HillFit:
    """Least-squares fit of a Hill curve to (log-dose, growth) points.

    Growth is modelled as 1 - hill(dose; ic50, slope).  Requires at least
    three points spanning some dose range.
    """
    # Imported here, not at module level: nothing else in the package needs
    # scipy.optimize, and importing it costs every `import repro.datasets`.
    from scipy.optimize import least_squares

    doses = np.asarray(doses, dtype=np.float64).ravel()
    growth = np.asarray(growth, dtype=np.float64).ravel()
    if doses.size != growth.size:
        raise ValueError("doses and growth must have equal length")
    if doses.size < 3:
        raise ValueError("need at least 3 dose points")

    def residuals(params):
        ic50, slope = params
        return (1.0 - hill_response(doses, np.full_like(doses, ic50), slope)) - growth

    x0 = np.array([np.median(doses), 1.0])
    x0[0] = np.clip(x0[0], *ic50_bounds)
    result = least_squares(
        residuals, x0,
        bounds=([ic50_bounds[0], slope_bounds[0]], [ic50_bounds[1], slope_bounds[1]]),
    )
    rms = float(np.sqrt(np.mean(result.fun ** 2)))
    return HillFit(ic50=float(result.x[0]), slope=float(result.x[1]), residual=rms)


def dose_response_auc(doses: np.ndarray, growth: np.ndarray) -> float:
    """Normalized area under the growth curve over the tested dose range.

    1.0 = completely insensitive (growth 1 everywhere); 0.0 = fully
    inhibited at all doses.  The standard screening summary statistic.
    """
    doses = np.asarray(doses, dtype=np.float64).ravel()
    growth = np.asarray(growth, dtype=np.float64).ravel()
    if doses.size != growth.size or doses.size < 2:
        raise ValueError("need matching arrays with at least 2 points")
    order = np.argsort(doses)
    d, g = doses[order], np.clip(growth[order], 0.0, 1.0)
    span = d[-1] - d[0]
    if span <= 0:
        raise ValueError("doses must span a nonzero range")
    return float(np.trapezoid(g, d) / span)


def estimate_ic50_from_model(
    predict_growth,
    cell_features: np.ndarray,
    drug_features: np.ndarray,
    dose_grid: Optional[np.ndarray] = None,
) -> HillFit:
    """Virtual dose-response: query a trained response model over a dose
    grid for one (cell, drug) pair and fit the Hill curve to its output.

    ``predict_growth`` maps an (n, features) matrix laid out as
    ``[cell | drug | dose]`` to growth predictions.
    """
    dose_grid = np.linspace(-8.0, -4.0, 9) if dose_grid is None else np.asarray(dose_grid)
    n = dose_grid.size
    x = np.concatenate(
        [
            np.tile(cell_features, (n, 1)),
            np.tile(drug_features, (n, 1)),
            dose_grid[:, None],
        ],
        axis=1,
    )
    growth = np.asarray(predict_growth(x)).ravel()
    return fit_hill(dose_grid, growth)
