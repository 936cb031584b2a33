"""Sequence extrapolation and tail-model fitting used by limit drivers."""

from __future__ import annotations

import math

import numpy as np


def neville_extrapolate(h, values):
    """Polynomial extrapolation of values(h) to h = 0 (Neville tableau).

    Returns (limit, error_estimate) where the estimate is the magnitude of
    the last tableau correction.  Values of shape (m, ...) give arrays of
    shape (...), one tableau per trailing column; a sequence gives floats.
    """
    if np.ndim(values) == 1:
        # the same tableau on plain floats, in the same order, bit for bit: for
        # a handful of values NumPy's per-call cost exceeds the arithmetic
        h = [float(x) for x in h]
        tableau = [float(v) for v in values]
        last, err = tableau[-1], math.inf
        for k in range(1, len(tableau)):
            tableau = [((0.0 - h[i + k]) * tableau[i] - (0.0 - h[i]) * tableau[i + 1])
                       / (h[i] - h[i + k]) for i in range(len(tableau) - 1)]
            last, err = tableau[0], abs(tableau[0] - last)
        return last, err
    tableau = np.array(values, dtype=float)
    h = np.asarray(h, dtype=float).reshape((-1,) + (1,) * (tableau.ndim - 1))
    last, err = tableau[-1], np.full(tableau.shape[1:], np.inf)
    for k in range(1, len(tableau)):
        tableau = ((0.0 - h[k:]) * tableau[:-1] - (0.0 - h[:-k]) * tableau[1:]) / (h[:-k] - h[k:])
        last, err = tableau[0], np.abs(tableau[0] - last)
    return last, err


def neville_in_size(sizes, values, m):
    """Neville extrapolation of the last ``m`` values to 1/(level size) = 0."""
    h = 1.0 / np.asarray(sizes[-m:], dtype=float)
    return neville_extrapolate(h, values[-m:])


def fit_power_tail(t, values):
    """Least-squares fit v(t) = a + b * t^(-p), p in (0.5, 1, 1.5) chosen by residual.

    Returns (a, b, p, rms_residual).
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    best = None
    for p in (0.5, 1.0, 1.5):
        basis = np.column_stack([np.ones_like(t), t**-p])
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        resid = float(np.sqrt(np.mean((basis @ coef - v) ** 2)))
        if best is None or resid < best[3]:
            best = (float(coef[0]), float(coef[1]), float(p), resid)
    return best


def fit_loglog_slope(t, values):
    """Slope of log|v| vs log t over the final decade of t.

    Returns (slope, stderr, n_points_used); slope is the fitted power.
    """
    t = np.asarray(t, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    keep = (t >= t[-1] / 10.0) & (v > 0.0)
    if keep.sum() < 3:
        return 0.0, float("inf"), int(keep.sum())
    lt, lv = np.log(t[keep]), np.log(v[keep])
    basis = np.column_stack([np.ones_like(lt), lt])
    coef, *_ = np.linalg.lstsq(basis, lv, rcond=None)
    resid = lv - basis @ coef
    dof = max(len(lt) - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(basis.T @ basis)
    return float(coef[1]), float(np.sqrt(cov[1, 1])), int(keep.sum())


def fit_exponential_rate(t, values):
    """Fit log v = c - rate * t; returns (rate, rms_residual)."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > 0.0
    if keep.sum() < 3:
        return 0.0, float("inf")
    basis = np.column_stack([np.ones(keep.sum()), -t[keep]])
    coef, *_ = np.linalg.lstsq(basis, np.log(v[keep]), rcond=None)
    resid = float(np.sqrt(np.mean((basis @ coef - np.log(v[keep])) ** 2)))
    return float(coef[1]), resid


def fit_log_time_formula(t, values):
    """Fit y(t) = a + b * log(t)/t + c/t; returns (a, b, c, rms_residual).

    The constant a estimates the exponential decay rate of a kernel whose
    large-time form is t^(-q) e^(-a t) * const.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    basis = np.column_stack([np.ones_like(t), np.log(t) / t, 1.0 / t])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    resid = float(np.sqrt(np.mean((basis @ coef - y) ** 2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), resid


def geometric_grid(start, stop, n):
    return np.geomspace(float(start), float(stop), int(n))


def increments_decreasing(values):
    """True if successive |increments| are (weakly) decreasing within a 1e-3 slack."""
    v = np.asarray(values, dtype=float)
    inc = np.abs(np.diff(v))
    if len(inc) < 2:
        return False
    return bool(np.all(inc[1:] <= inc[:-1] * (1.0 + 1e-3)))
