"""Reference computations the benchmark checks thermolens outputs against.

Only numpy and scipy are used here, never thermolens, so a fault in the
program cannot hide in its own reference. The discrete zeta-law cdf is
F(v) = 1 - zeta(alpha, v+1) / zeta(alpha) with the Hurwitz zeta function
(Clauset, Shalizi & Newman, arXiv:0706.1062, App. B). ``selfcheck.py``
checks these functions against mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special


def zeta(alpha: float) -> float:
    """Riemann zeta(alpha) = Hurwitz zeta(alpha, 1)."""
    return float(special.zeta(alpha, 1.0))


def free_energy(alpha: float) -> float:
    """A = -ln(zeta(alpha)) / alpha of the zeta law."""
    return -math.log(zeta(alpha)) / alpha


def ks_distance(values: np.ndarray, counts: np.ndarray, alpha: float) -> float:
    """Largest gap between a histogram's cdf and the zeta-law cdf.

    Both cdfs are step functions on the integers, so the supremum is taken
    at each observed value v and just below it, where the law's cdf is
    F(v - 1) = 1 - zeta(alpha, v) / zeta(alpha).
    """
    order = np.argsort(values)
    v = np.asarray(values, dtype=np.float64)[order]
    c = np.asarray(counts, dtype=np.float64)[order]
    emp = np.cumsum(c) / c.sum()
    emp_left = np.concatenate(([0.0], emp[:-1]))
    z = zeta(alpha)
    at_v = 1.0 - special.zeta(alpha, v + 1.0) / z
    below_v = 1.0 - special.zeta(alpha, v) / z
    return float(max(np.abs(emp - at_v).max(), np.abs(emp_left - below_v).max()))


def dkw_bound(n: int, p: float) -> float:
    """KS distance a sample of n draws exceeds with probability at most p.

    Dvoretzky-Kiefer-Wolfowitz with Massart's constant; it holds for any
    distribution, discrete ones included.
    """
    return math.sqrt(math.log(2.0 / p) / (2.0 * n))


@dataclass(frozen=True)
class Bundle:
    """Metric bundle of one value histogram under the logarithmic model."""

    population: int
    entropy: float
    entropy_reduction: float
    avg_energy: float
    efficiency: float | None
    alpha: float | None
    total_energy: float
    total_edits: int


def bundle(values: np.ndarray, counts: np.ndarray) -> Bundle:
    """S = -sum p ln p, R = ln N - S, E = sum p ln v, Q = S/E and the MLE.

    The exponent estimate is 1 + N / sum s_v ln(v / v_min); it is absent
    when all individuals hold the same value.
    """
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(counts, dtype=np.float64)
    n = float(s.sum())
    p = s / n
    entropy = float(-(p * np.log(p)).sum())
    log_v = np.log(v)
    avg_energy = float(p @ log_v)
    alpha = None
    if v.size > 1:
        alpha = 1.0 + n / float(s @ (log_v - math.log(v.min())))
    return Bundle(
        population=int(round(n)),
        entropy=entropy,
        entropy_reduction=math.log(n) - entropy,
        avg_energy=avg_energy,
        efficiency=entropy / avg_energy if avg_energy > 0.0 else None,
        alpha=alpha,
        total_energy=float(s @ log_v),
        total_edits=sum(a * b for a, b in zip(np.asarray(values).tolist(),
                                              np.asarray(counts).tolist())),
    )


def group_histograms(
    group: np.ndarray, editor: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per group code, the histogram of per-editor event counts.

    Returns group -> (values ascending, number of editors holding each).
    """
    width = int(editor.max()) + 1
    pair, per_editor = np.unique(group.astype(np.int64) * width + editor, return_counts=True)
    owner = pair // width
    vwidth = int(per_editor.max()) + 1
    cell, holders = np.unique(owner * vwidth + per_editor, return_counts=True)
    cell_group = cell // vwidth
    cell_value = cell % vwidth
    bounds = np.flatnonzero(np.diff(cell_group)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [cell.size]))
    return {
        int(cell_group[a]): (cell_value[a:b], holders[a:b]) for a, b in zip(starts, ends)
    }


def truncated_power_law(alpha: float, n_trunc: int) -> tuple[float, float, float]:
    """S, Q and R of p_v proportional to v^-alpha on 1..n_trunc."""
    log_v = np.log(np.arange(1, n_trunc + 1, dtype=np.float64))
    log_p = -alpha * log_v - special.logsumexp(-alpha * log_v)
    p = np.exp(log_p)
    s = float(-(p @ log_p))
    e = float(p @ log_v)
    return s, s / e, math.log(n_trunc) - s


def maxent_rate(e_target: float, support_max: int, model: str) -> float:
    """Rate lambda with mean energy e_target under p_v ~ exp(-lambda u(v)).

    Solved with Brent's method on v = 1..support_max, where u(v) = ln v
    (logarithmic model) or v (linear model).
    """
    v = np.arange(1, support_max + 1, dtype=np.float64)
    u = np.log(v) if model == "logarithmic" else v

    def excess(lam: float) -> float:
        w = special.softmax(-lam * u)
        return float(w @ u) - e_target

    step = 1.0
    while excess(-step) <= 0.0 or excess(step) >= 0.0:
        step *= 2.0
    return optimize.brentq(excess, -step, step, xtol=1e-15, rtol=1e-13, maxiter=500)
