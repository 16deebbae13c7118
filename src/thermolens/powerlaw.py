"""Discrete power-law machinery on support {1, 2, 3, ...}.

Covers the zeta-normalized distribution p_v = v^(-alpha) / zeta(alpha), the
closed-form exponent estimator alpha = 1 + N / sum(ln(v_i / v_min)), the
Kolmogorov-Smirnov distance between the fitted and empirical cdfs, and a
seeded sampler for synthetic data.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .collection import Collection, Row
from .errors import DegenerateError, DomainError, EmptyCollectionError

__all__ = [
    "ALPHA_MIN",
    "DEFAULT_KS_THRESHOLD",
    "PowerLawFit",
    "zeta",
    "mle_fit",
    "theoretical_pmf",
    "theoretical_cdf",
    "ks_statistic",
    "classify",
    "sample",
]

# zeta(alpha) diverges as alpha -> 1; exponents at or below this are rejected.
ALPHA_MIN = 1.0 + 1e-6

DEFAULT_KS_THRESHOLD = 0.1

# Points per kernel call in the sampler; bounds the kernel's temporaries.
_TAIL_CHUNK = 8192
_FLOAT_MAX = float(np.finfo(np.float64).max)
_TINY = float(np.finfo(np.float64).tiny)
_EPS = 2.0**-53  # unit roundoff

# Terms of the Hurwitz series summed directly before the Euler-Maclaurin tail.
_HEAD = 10
# Bernoulli numbers B_2, B_4, ..., B_20.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
    Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
    Fraction(-174611, 330),
)
_EM_COEFFS = np.array(
    [float(b / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI, start=1)]
)


def _require_convergent(alpha: float) -> None:
    if not alpha > ALPHA_MIN:
        raise DomainError(f"zeta divergent: alpha must exceed {ALPHA_MIN}, got {alpha}")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")


def _hurwitz(alpha: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(alpha, q) = Σ_{k>=0} (q+k)^(-alpha) for each q >= 1.

    The first _HEAD terms are summed directly; the rest is the
    Euler-Maclaurin tail at a = q + _HEAD: the integral a^(1-alpha)/(alpha-1),
    the half term a^(-alpha)/2 and the corrections
    B_2j/(2j)! · alpha(alpha+1)...(alpha+2j-2) · a^(-alpha-2j+1) for j <= 10
    (Johansson, arXiv:1309.2877). For alpha in (1, 10] the result is within
    1e-14 relative of the exact value. The rising factorials are running
    products of (alpha+k)/a, each finite, so a huge alpha whose powers
    underflow gives zero corrections rather than 0 * inf.
    """
    q = np.asarray(q, dtype=np.float64)
    a = q + _HEAD
    head = ((np.arange(_HEAD)[:, None] + q) ** -alpha).sum(axis=0)
    a_pow = a ** -alpha
    factors = np.empty((2 * len(_EM_COEFFS) - 1, q.size))
    factors[0] = alpha * a_pow / a
    factors[1:] = (alpha + np.arange(1, len(factors)))[:, None] / a
    rising = np.cumprod(factors, axis=0)[::2]
    tail = a ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * a_pow + _EM_COEFFS @ rising
    return head + tail


def _psi(w: float) -> float:
    """(1 - e^-w)/w = ∫_0^1 e^(-w r) dr for w >= 0."""
    return -math.expm1(-w) / w if w > 0.0 else 1.0


def _chi(w: float) -> float:
    """(1 - e^-w (1 + w))/w² = ∫_0^1 r e^(-w r) dr for w >= 0; a series below 1."""
    if w >= 1.0:
        return (-math.expm1(-w) - w * math.exp(-w)) / (w * w)
    term, total = 1.0, 0.5
    for k in range(1, 18):
        term *= -w / k
        total += term / (k + 2)
    return total


def _power_sums(s: float, n: int, centre: float) -> tuple[float, float, float, float]:
    """Σ v^s and Σ (ln v - centre) · v^s over v = 1..n, with error bounds.

    Returns (sum0, sum1, err0, err1): the sums are (sum0 ± err0) · L and
    (sum1 ± err1) · L, where L = e^max(0, s · ln n) is the largest term,
    so no power overflows for either sign of s. Below 2·_HEAD terms the sums are direct. Above,
    v < _HEAD and v > b are summed directly and a = _HEAD..b by Euler-Maclaurin
    with the _EM_COEFFS of _hurwitz, for f(x) = x^s and its s-derivative
    g(x) = ln x · x^s (Johansson, arXiv:1309.2877):
    - the integrals ∫ x^s and ∫ (ln x - centre) x^s, written around the
      dominant endpoint through _psi and _chi so that nothing cancels at
      s = -1;
    - the half endpoint terms;
    - B_2j/(2j)! · (f^(2j-1)(b) - f^(2j-1)(a)), j <= 10, where
      f^(k) = P_k(s) x^(s-k) and g^(k) = (P_k(s) ln x + P_k'(s)) x^(s-k)
      for P_k(s) = s(s-1)...(s-k+1), built as running products.
    The remainder is below |B_20|/20! · ∫|g^(20) - centre f^(20)|. Since
    |P_20(s)| and |P_20'(s)| are at most Q = (σ+1)(σ+2)...(σ+20) with
    σ = |s|, it is at most |B_20|/20! · Q · (1 + ln b + |centre|) ·
    max(a^t, b^t) · min(ln(b/a), 1/|t|), with t = s - 19.

    Each piece is a rounded power times a few factors. The power carries a
    relative error below ε(8 + 8(|s|+1) ln n), ε = _EPS, from the rounding
    of s · ln v, which grows with |s| ln n; the factors and the sums add
    at most 504 ε more. A centre near the mean of ln v keeps that error
    small in sum1 where the mass sits near ln v = centre; the rounding of
    ln v itself, 4 ε |ln v| per piece, is bounded apart.
    """
    log_n = math.log(n)
    log_scale = max(0.0, s * log_n)
    # The corrections at the top shrink like ((s + 20)/(2π n))^2j; above s = n/2
    # the top terms are summed directly down to where (v/n)^s < e^-46.
    top = n if s <= 0.5 * n else max(n - math.ceil(46.0 * n / s), 0)
    direct = range(1, n + 1) if top < 2 * _HEAD else chain(range(1, _HEAD), range(top + 1, n + 1))
    # mags1 bounds the pieces of sum1 for their relative error, logs1 the
    # pieces times the rounding of ln x, which centring does not remove.
    pieces0, pieces1, mags1, logs1 = [], [], [], []
    for v in direct:
        log_v = math.log(v)
        term = math.exp(s * log_v - log_scale)
        pieces0.append(term)
        pieces1.append((log_v - centre) * term)
        logs1.append(log_v * term)
    mags1.extend(map(abs, pieces1))
    remainder = 0.0
    if top >= 2 * _HEAD:
        a, b = float(_HEAD), float(top)
        log_a, log_b = math.log(a), math.log(b)
        span = math.log1p((b - a) / a)
        t = s + 1.0
        log_d = log_b if t >= 0.0 else log_a
        scale = math.exp(t * log_d - log_scale) * span
        w = abs(t) * span
        psi, chi = _psi(w), _chi(w)
        sign = -1.0 if t >= 0.0 else 1.0
        pieces0.append(scale * psi)
        pieces1.append(scale * ((log_d - centre) * psi + sign * span * chi))
        mags1.append(scale * (abs(log_d - centre) * psi + span * chi))
        logs1.append(scale * log_d * psi)
        for x, log_x, side in ((a, log_a, -1.0), (b, log_b, 1.0)):
            f = math.exp(s * log_x - log_scale)
            pieces0.append(0.5 * f)
            pieces1.append(0.5 * (log_x - centre) * f)
            mags1.append(abs(pieces1[-1]))
            logs1.append(0.5 * log_x * f)
            g = g_mag = 0.0
            for k, coeff in enumerate(np.repeat(_EM_COEFFS, 2).tolist()):
                g, g_mag = (g * (s - k) + f) / x, (g_mag * abs(s - k) + abs(f)) / x
                f *= (s - k) / x
                if k % 2 == 0:  # odd derivative k + 1
                    pieces0.append(side * coeff * f)
                    pieces1.append(side * coeff * ((log_x - centre) * f + g))
                    mags1.append(abs(coeff) * (abs(log_x - centre) * abs(f) + g_mag))
                    logs1.append(abs(coeff) * log_x * abs(f))
        t = s - 19.0
        log_q = math.fsum(math.log(abs(s) + j) for j in range(1, 21))
        log_r = math.log(abs(_EM_COEFFS[-1])) + log_q + max(t * log_a, t * log_b) - log_scale
        width = min(span, 1.0 / abs(t)) if t else span
        remainder = math.exp(min(log_r, 700.0)) * (1.0 + log_b + abs(centre)) * width
    rel = _EPS * (512.0 + 8.0 * (abs(s) + 1.0) * log_n)
    err0 = rel * math.fsum(map(abs, pieces0)) + remainder + _TINY
    err1 = rel * math.fsum(mags1) + 4.0 * _EPS * math.fsum(logs1) + remainder + _TINY
    return math.fsum(pieces0), math.fsum(pieces1), err0, err1


def zeta(alpha: float) -> float:
    """Σ v^(-alpha) over v >= 1, the Hurwitz zeta function at q = 1."""
    _require_convergent(alpha)
    return float(_hurwitz(alpha, np.ones(1))[0])


def mle_fit(c: Collection) -> float:
    """Closed-form exponent estimate alpha = 1 + N / Σ ln(v_i / v_min).

    v_min is the smallest observed value. With v_min = 1 the denominator is
    exactly N times the logarithmic average energy, which makes
    alpha - 1 = 1/E an identity of this estimator.
    """
    if not c:
        raise EmptyCollectionError("cannot fit an empty collection")
    v_min = c.min_value
    if len(c) == 1:
        raise DegenerateError("zero log-spread: all values equal")
    if v_min == 1:
        denom = c.log_value_sum
    else:
        denom = math.fsum(s * math.log(v / v_min) for v, s in sorted(c.counts.items()))
        if denom == 0.0:
            # Values above 2^53 can differ by less than the float spacing.
            raise DegenerateError("zero log-spread: values equal at float precision")
    return 1.0 + c.population / denom


def theoretical_pmf(alpha: float, v: int) -> float:
    """P(V = v) = v^(-alpha) / zeta(alpha)."""
    _require_convergent(alpha)
    if v < 1:
        raise DomainError(f"support starts at 1, got {v}")
    return float(v) ** (-alpha) / zeta(alpha)


def theoretical_cdf(alpha: float, v: int) -> float:
    """F(v) = Σ_{w<=v} theoretical_pmf(alpha, w) = 1 - zeta(alpha, v+1)/zeta(alpha)."""
    _require_convergent(alpha)
    if v < 1:
        raise DomainError(f"support starts at 1, got {v}")
    z, tail = _hurwitz(alpha, np.array([1.0, float(v) + 1.0]))
    return float(1.0 - tail / z)


def ks_statistic(c: Collection, alpha: float) -> float:
    """Maximum gap between the empirical cdf and the fitted cdf.

    Both cdfs are integer step functions, so the supremum over the whole
    line is attained at a support point, approached from one side or the
    other. Both one-sided gaps are taken at every observed value: the
    right gap compares the cdfs at v, the left gap compares them just
    below v (where the theoretical cdf has already grown past any
    unobserved values but the empirical one has not). With
    F(v) = 1 - zeta(alpha, v+1)/zeta(alpha), one kernel call on
    q = [1, v..., v+1...] gives both sides.
    """
    if not c:
        raise EmptyCollectionError("cannot compare an empty collection")
    _require_convergent(alpha)
    values = np.array(c.support, dtype=np.float64)
    counts = np.array([c.counts[v] for v in c.support], dtype=np.float64)
    emp = np.cumsum(counts) / c.population
    emp_left = np.concatenate(([0.0], emp[:-1]))
    h = _hurwitz(alpha, np.concatenate(([1.0], values, values + 1.0)))
    fitted_left = 1.0 - h[1 : len(values) + 1] / h[0]
    fitted = 1.0 - h[len(values) + 1 :] / h[0]
    right_gap = np.abs(emp - fitted).max()
    left_gap = np.abs(emp_left - fitted_left).max()
    return float(max(right_gap, left_gap))


@dataclass(frozen=True)
class PowerLawFit(Row):
    """Result of fitting and testing a collection against a power law."""

    alpha: float
    v_min: int
    zeta_value: float
    ks_stat: float
    is_power_law: bool
    threshold: float = DEFAULT_KS_THRESHOLD

    COLUMNS = (
        ("alpha", "alpha"),
        ("v_min", "v_min"),
        ("zeta", "zeta_value"),
        ("D", "ks_stat"),
        ("is_power_law", "is_power_law"),
    )


def classify(c: Collection, threshold: float = DEFAULT_KS_THRESHOLD) -> PowerLawFit:
    """Fit the exponent, measure the KS distance, and flag D < threshold."""
    alpha = mle_fit(c)
    _require_convergent(alpha)
    d = ks_statistic(c, alpha)
    return PowerLawFit(
        alpha=alpha,
        v_min=c.min_value,
        zeta_value=zeta(alpha),
        ks_stat=d,
        is_power_law=d < threshold,
        threshold=threshold,
    )


def _invert_cdf(alpha: float, u: np.ndarray) -> np.ndarray:
    """Smallest integer v >= 1 with F(v) >= u for each u, as floats.

    The guess g inverts ζ(α, v+1) ≈ (v+½)^(1−α)/(α−1) (Clauset, Shalizi &
    Newman, arXiv:0706.1062, App. D). The kernel cdf on a grid of 0, the
    distinct g and g−1, and the sentinel FLOAT_MAX/2 places each u between
    two grid points. A draw whose upper point follows the lower by one is
    exact; the rest are bisected _TAIL_CHUNK at a time, down to adjacent
    floats above 2^53. z = ζ(α) is the grid's value at 0: a one-point
    kernel call can round an ulp differently from a batch. Bisection steps
    on a single draw are one-point calls, so there a u within an ulp of
    F(v) may resolve differently from the batched `theoretical_cdf`.
    """
    with np.errstate(over="ignore", divide="ignore"):
        g = ((1.0 - u) * zeta(alpha) * (alpha - 1.0)) ** (-1.0 / (alpha - 1.0))
    g = np.sort(np.clip(np.ceil(g - 0.5, out=g), 1.0, _FLOAT_MAX / 2.0, out=g))
    g = g[np.diff(g, prepend=-1.0) > 0.0]  # not np.unique: its hash set fragments the heap
    grid = np.sort(np.concatenate(([0.0], g, g - 1.0, [_FLOAT_MAX / 2.0])))
    grid = grid[np.diff(grid, prepend=-1.0) > 0.0]
    parts = np.array_split(grid, -(-grid.size // _TAIL_CHUNK))
    h = np.concatenate([_hurwitz(alpha, part + 1.0) for part in parts])
    z = h[0]
    at = 1 + np.searchsorted(1.0 - h[1:] / z, u, side="left")
    if at.max() == grid.size:
        raise DomainError(f"alpha={alpha} is too close to 1: a draw exceeds the float range")
    drawn = grid[at]
    wide = np.flatnonzero((np.diff(grid, prepend=0.0) > 1.0)[at])
    for start in range(0, wide.size, _TAIL_CHUNK):
        part = wide[start : start + _TAIL_CHUNK]
        lo_v, hi_v, target = grid[at[part] - 1], drawn[part], u[part]
        while True:
            mid = np.floor(lo_v + 0.5 * (hi_v - lo_v))
            todo = np.flatnonzero((lo_v < mid) & (mid < hi_v))
            if not todo.size:
                break
            reached = 1.0 - _hurwitz(alpha, mid[todo] + 1.0) / z >= target[todo]
            hi_v[todo[reached]] = mid[todo[reached]]
            lo_v[todo[~reached]] = mid[todo[~reached]]
        drawn[part] = hi_v
    return drawn


def sample(alpha: float, n: int, seed: int) -> Collection:
    """Draw n values from the zeta power law by inverting the cdf.

    Each uniform variate u maps to the smallest v with F(v) >= u, where F
    is the kernel cdf 1 - ζ(α, v+1)/ζ(α); every draw takes the same path
    through `_invert_cdf`. A draw past FLOAT_MAX/2 is a DomainError. The
    same seed always produces the same collection.
    """
    _require_convergent(alpha)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    u = np.random.default_rng(seed).random(n)
    values, counts = np.unique(_invert_cdf(alpha, u), return_counts=True)
    return Collection(dict(zip(map(int, values.tolist()), counts.tolist())))
