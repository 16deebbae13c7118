"""Structural theory tools: logarithmic classes, the constrained
maximum-entropy oracle, and theoretical metric curves over the exponent.

The class decomposition groups contributors by decade of activity
(values 1..b in class 1, b+1..b^2 in class 2, ...). For a power law with
exponent alpha the adjacent-class population ratio is b^-(alpha-1) and the
contribution-mass ratio is b^-(alpha-2), so alpha = 2 spreads the total
contribution evenly across classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .collection import Collection, Distribution, EnergyModel, Row, format_cell
from .errors import ConvergenceError, DomainError, EmptyCollectionError
from .powerlaw import _EPS, ALPHA_MIN, _power_sums
from .thermo import theoretical_energy, theoretical_free_energy

__all__ = [
    "ClassBin",
    "ClassDecomposition",
    "ClassScaling",
    "StationarityReport",
    "TheoryCurve",
    "class_decompose",
    "theoretical_class_scaling",
    "max_entropy_oracle",
    "stationarity_report",
    "efficiency_vs_alpha_curve",
    "energy_curve",
    "merge_curves",
    "write_curve_csv",
]

_BISECT_MAX_ITER = 200
_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class ClassBin:
    index: int
    population: int
    mass: int


@dataclass(frozen=True)
class ClassDecomposition:
    """Contributors bucketed by logarithmic class of their value.

    Class n holds values in (b^(n-1), b^n], with v = 1 joining class 1.
    Bins run contiguously from 1 to the highest occupied class; empty
    classes in between appear as explicit zero rows. Populations and
    masses are exact integers and sum to the collection totals.
    """

    base: int
    bins: tuple[ClassBin, ...]

    def population_of(self, index: int) -> int:
        return self.bins[index - 1].population

    def mass_of(self, index: int) -> int:
        return self.bins[index - 1].mass


def _class_index(value: int, base: int) -> int:
    # Integer arithmetic keeps boundary values (v == b^n) in class n exactly.
    index = 1
    bound = base
    while value > bound:
        bound *= base
        index += 1
    return index


def class_decompose(c: Collection, base: int = 10) -> ClassDecomposition:
    """Bucket a collection into logarithmic classes of the given base."""
    if not c:
        raise EmptyCollectionError("cannot decompose an empty collection")
    if base < 2:
        raise DomainError(f"class base must be >= 2, got {base}")
    pops: dict[int, int] = {}
    masses: dict[int, int] = {}
    for v, s in c.counts.items():
        n = _class_index(v, base)
        pops[n] = pops.get(n, 0) + s
        masses[n] = masses.get(n, 0) + v * s
    top = max(pops)
    bins = tuple(
        ClassBin(index=n, population=pops.get(n, 0), mass=masses.get(n, 0))
        for n in range(1, top + 1)
    )
    return ClassDecomposition(base=base, bins=bins)


class ClassScaling(NamedTuple):
    pop_ratio: float
    mass_ratio: float


def theoretical_class_scaling(alpha: float, base: int = 10, n: int = 1) -> ClassScaling:
    """Adjacent-class ratios N(n+1)/N(n) and C(n+1)/C(n) for a power law.

    Both ratios are independent of n: populations shrink by b^-(alpha-1)
    per class and contribution masses by b^-(alpha-2), which is exactly 1
    at alpha = 2.
    """
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if base < 2:
        raise DomainError(f"class base must be >= 2, got {base}")
    if n < 1:
        raise DomainError(f"class index must be >= 1, got {n}")
    return ClassScaling(
        pop_ratio=float(base) ** -(alpha - 1.0),
        mass_ratio=float(base) ** -(alpha - 2.0),
    )


def _exponential_family(lam: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-lam * u) normalized to sum 1, computed in place in `out`."""
    np.multiply(u, -lam, out=out)
    np.subtract(out, out.max(), out=out)
    np.exp(out, out=out)
    return np.divide(out, out.sum(), out=out)


def _linear_mean_energy(lam: float, n: int) -> tuple[float, float]:
    """E(lam) = Σ v e^(-lam v) / Σ e^(-lam v) over 1..n, and an error bound.

    For lam > 0 the geometric sums give E = -1/expm1(-lam) - n/expm1(lam n);
    E(-lam) = n + 1 - E(lam) by the reflection v -> n + 1 - v. Near lam = 0
    or lam·n = 0 the two terms nearly cancel, and the bound, which scales
    with each term, grows to match.
    """
    if lam == 0.0:
        return 0.5 * (n + 1), 0.0
    x = abs(lam)
    head = -1.0 / math.expm1(-x)
    if x * n < 700.0:
        tail, tail_err = n / math.expm1(x * n), 0.0
    else:  # n e^(-x n) is below the rounding of everything else
        tail, tail_err = 0.0, 2.0 * n * math.exp(-700.0)
    e = head - tail
    # expm1 and the division: 3 eps each; the rounding of x·n: eps (1 + x n).
    err = _EPS * (8.0 * head + (8.0 + 2.0 * x * n) * tail + 2.0 * abs(e)) + tail_err
    if lam < 0.0:
        e = (n + 1) - e
        err += 2.0 * _EPS * abs(e)
    return e, err


def _log_mean_energy(lam: float, n: int) -> tuple[float, float]:
    """E(lam) = Σ ln v · v^-lam / Σ v^-lam over 1..n, and an error bound.

    The log moment is centred on ln n when the mass leans to the top of the
    support (lam < 0), where the mean sits close to ln n.
    """
    centre = math.log(n) if lam < 0.0 else 0.0
    sum0, sum1, err0, err1 = _power_sums(-lam, n, centre)
    if not sum0 > err0:
        return math.nan, math.inf
    shift = sum1 / sum0
    e = centre + shift
    return e, (err1 + abs(shift) * err0) / (sum0 - err0) + 2.0 * _EPS * (abs(shift) + abs(e))


_CLOSED_FORMS = {
    EnergyModel.LINEAR: _linear_mean_energy,
    EnergyModel.LOGARITHMIC: _log_mean_energy,
}


def _direct_error(lam: float, e: float, err: float, u_lo: float, u_hi: float, n: int) -> float:
    """Bound on |direct mean energy - E(lam)| for the O(n) pass of max_entropy_oracle.

    The pass computes u = fl(ln v) (4 ulp, so 8 eps relative) or u = v, then
    exp(-lam u - max) (4 ulp), a sum, a division and a dot product. Each
    weight is off by a relative eta <= (11 |lam| u_hi + 8) eps, from the
    rounded exponent and the exp; the max is one common shift and cancels.
    Such weights move the mean by at most eta/(1-eta) · Σ p |u - E|, and
    Σ p |u - E| <= 2 min(E - u_lo, u_hi - E). The sum and the dot product,
    of n non-negative terms in any order, add (n-1) eps each, relative. The
    weights that underflow carry at most u_hi · 2^-1074 each.
    """
    eta = 1.01 * _EPS * (11.0 * abs(lam) * u_hi + 8.0)
    if not eta < 0.5:
        return math.inf
    mad = 2.0 * (max(0.0, min(e - u_lo, u_hi - e)) + err + _EPS * u_hi)
    spread = eta / (1.0 - eta) * mad
    sums = 1.01 * _EPS * (2.0 * n + 10.0) * (abs(e) + err + spread)
    return spread + sums + n * u_hi * 2.0**-1072


def max_entropy_oracle(
    e_target: float,
    support_max: int,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
    tol: float = _BISECT_TOL,
) -> Distribution:
    """Entropy-maximizing distribution on 1..V at a fixed average energy.

    The maximizer is the exponential family p_v proportional to
    exp(-lambda * u(v)): a truncated power law for the logarithmic energy
    model, an exponential (Boltzmann) law for the linear one. The rate
    lambda is found by bisection on the mean energy, which is strictly
    decreasing in lambda, until the bracket is at most `tol` wide. The
    target must lie strictly between the smallest and largest attainable
    energy on the support, and `tol` must lie in (0, 1).

    `tol` bounds the rate, not the energy: the returned distribution may
    miss the target energy by about Var(u) * tol / 2. On a wide linear
    support that is visible, e.g. E is off by 1.93 for
    max_entropy_oracle(500000.0, 10**6, LINEAR).

    Each bisection step only needs the side of the target on which the
    mean energy of the O(V) pass lies. It is decided in O(1) from a closed
    form with a certified error band, and the O(V) pass runs only for a
    step the band cannot decide, so lambda is the float the O(V) pass alone
    would give:
    - linear: E = -1/expm1(-lambda) - V/expm1(lambda V), reflected as
      E(-lambda) = V + 1 - E(lambda), and (V + 1)/2 at lambda = 0;
    - logarithmic: E = Σ ln v · v^-lambda / Σ v^-lambda by the head-plus-
      Euler-Maclaurin sums of powerlaw._power_sums.
    The band adds the closed form's bound (rounding, cancellation near
    lambda = 0 or lambda V = 0, the Euler-Maclaurin remainder) to a bound on
    the rounding of the O(V) pass (_direct_error). A step whose closed form
    lies within the band of the target, or is not finite, takes the O(V)
    pass. Only those steps and the final distribution are O(V).

    Support points whose probability underflows below the smallest normal
    float are omitted from the returned distribution; they carry no
    representable mass and would corrupt log-domain diagnostics.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"bisection tolerance must lie in (0, 1), got {tol}")
    if support_max < 2:
        raise DomainError(f"support must contain at least 2 points, got {support_max}")
    u = np.arange(1, support_max + 1, dtype=np.float64)
    if model is EnergyModel.LOGARITHMIC:
        np.log(u, out=u)
    u_lo, u_hi = float(u[0]), float(u[-1])
    if not u_lo < e_target < u_hi:
        raise DomainError(
            f"target energy {e_target} outside attainable range ({u[0]}, {u[-1]})"
        )

    buf = np.empty_like(u)
    closed_form = _CLOSED_FORMS[model]

    def mean_energy(lam: float) -> float:
        """The O(V) pass's mean energy, or a value on the same side of e_target."""
        e, err = closed_form(lam, support_max)
        band = err + _direct_error(lam, e, err, u_lo, u_hi, support_max)
        if math.isfinite(e) and abs(e - e_target) > band:
            return e
        return float(_exponential_family(lam, u, buf) @ u)

    lo, hi = -1.0, 1.0
    while mean_energy(lo) < e_target:
        lo *= 2.0
    while mean_energy(hi) > e_target:
        hi *= 2.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if mean_energy(mid) > e_target:
            lo = mid
        else:
            hi = mid
    else:
        raise ConvergenceError(
            f"bisection did not reach tol={tol} in {_BISECT_MAX_ITER} iterations"
        )
    lam = 0.5 * (lo + hi)
    probs = _exponential_family(lam, u, buf)
    keep = probs >= np.finfo(np.float64).tiny
    return Distribution(np.flatnonzero(keep) + 1, probs[keep])


@dataclass(frozen=True)
class StationarityReport(Row):
    """How closely a distribution matches the stationary exponential form.

    `rate` and `offset` are the affine-fit coefficients of ln(p_v) against
    the energy u(v); `max_residual` is the largest pointwise deviation of
    ln(p_v) + 1 + rate*u(v) + offset from zero, which vanishes exactly for
    the exponential-family stationary point. `efficiency_gap` reports
    |Q - rate|: the efficiency approximates the rate but exceeds it by
    ln(Z)/E, so the gap is informative rather than a pass/fail residual.
    """

    rate: float
    offset: float
    max_residual: float
    entropy: float
    avg_energy: float
    efficiency: float
    efficiency_gap: float

    COLUMNS = (
        ("lambda", "rate"),
        ("kappa", "offset"),
        ("max_residual", "max_residual"),
        ("S", "entropy"),
        ("E", "avg_energy"),
        ("Q", "efficiency"),
        ("efficiency_gap", "efficiency_gap"),
    )


def stationarity_report(
    dist: Distribution,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
) -> StationarityReport:
    """Fit ln(p) = -rate*u + const and report the worst-case residual."""
    values = dist.values.astype(np.float64)
    p = dist.p
    u = np.log(values) if model is EnergyModel.LOGARITHMIC else values
    logp = np.log(p)
    slope, intercept = np.polyfit(u, logp, 1)
    rate = -slope
    # Residual of ln(p) + 1 + rate*u + kappa with kappa = -intercept - 1.
    offset = -intercept - 1.0
    residual = float(np.abs(logp + 1.0 + rate * u + offset).max())
    s = float(-(p @ logp))
    e = float(p @ u)
    q = s / e
    return StationarityReport(
        rate=float(rate),
        offset=float(offset),
        max_residual=residual,
        entropy=s,
        avg_energy=e,
        efficiency=q,
        efficiency_gap=abs(q - rate),
    )


@dataclass(frozen=True)
class TheoryCurve:
    """Metric columns evaluated on a strictly increasing exponent grid.

    Curves from `efficiency_vs_alpha_curve` carry S, Q, R (and truncated E)
    at the stated support truncation plus uniform-distribution reference
    values; curves from `energy_curve` carry the closed-form E and A.
    Missing columns are None. A single efficiency cell is None where the
    truncated E is 0, as Q = S/E is undefined there.
    """

    alphas: tuple[float, ...]
    entropy: tuple[float, ...] | None = None
    efficiency: tuple[float | None, ...] | None = None
    entropy_reduction: tuple[float, ...] | None = None
    energy: tuple[float, ...] | None = None
    free_energy: tuple[float, ...] | None = None
    truncation: int | None = None
    uniform_entropy: float | None = None
    uniform_efficiency: float | None = None
    uniform_entropy_reduction: float | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.alphas, dtype=np.float64)
        if len(grid) == 0:
            raise DomainError("alpha grid is empty")
        if len(grid) > 1 and not np.all(np.diff(grid) > 0):
            raise DomainError("alpha grid must be strictly increasing")


def _validated_grid(alphas: Sequence[float]) -> np.ndarray:
    grid = np.asarray(list(alphas), dtype=np.float64)
    if grid.size == 0:
        raise DomainError("alpha grid is empty")
    for a in grid:
        if not a > ALPHA_MIN:
            raise DomainError(f"alpha must exceed {ALPHA_MIN}, got {a}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("alpha grid must be strictly increasing")
    return grid


def efficiency_vs_alpha_curve(alphas: Sequence[float], n_trunc: int) -> TheoryCurve:
    """S, Q, R of the truncated, renormalized power law across a grid.

    The power-law pmf on 1..n_trunc is renormalized after truncation; the
    entropy reduction baseline ln(n_trunc) plays the role of the maximum
    entropy at that sample size. Uniform-distribution reference values
    (S_u = ln n_trunc, R_u = 0) are attached for plotting. Once v^(-alpha)
    underflows, the lost terms add 0·ln 0 = 0 to S; Q is None where the
    truncated E is exactly 0 (alpha above ~1075).
    """
    grid = _validated_grid(alphas)
    if n_trunc < 10:
        raise DomainError(f"truncation must be >= 10, got {n_trunc}")
    values = np.arange(1, n_trunc + 1, dtype=np.float64)
    log_values = np.log(values)
    s_col, q_col, r_col, e_col = [], [], [], []
    log_n = math.log(n_trunc)
    for alpha in grid:
        w = np.exp(-alpha * log_values)
        p = w / w.sum()
        held = p[p > 0.0]  # 0·ln 0 = 0 where w underflows
        s = float(0.0 - held @ np.log(held))  # 0.0 - x is -x, but never -0.0
        e = float(p @ log_values)
        s_col.append(s)
        e_col.append(e)
        q_col.append(s / e if e != 0.0 else None)
        r_col.append(log_n - s)
    e_uniform = float(log_values.mean())
    return TheoryCurve(
        alphas=tuple(float(a) for a in grid),
        entropy=tuple(s_col),
        efficiency=tuple(q_col),
        entropy_reduction=tuple(r_col),
        energy=tuple(e_col),
        truncation=n_trunc,
        uniform_entropy=log_n,
        uniform_efficiency=log_n / e_uniform,
        uniform_entropy_reduction=0.0,
    )


def energy_curve(alphas: Sequence[float]) -> TheoryCurve:
    """Closed-form E = 1/(alpha-1) and A = -ln(zeta)/alpha across a grid."""
    grid = _validated_grid(alphas)
    return TheoryCurve(
        alphas=tuple(float(a) for a in grid),
        energy=tuple(theoretical_energy(a) for a in grid),
        free_energy=tuple(theoretical_free_energy(a) for a in grid),
    )


_CURVE_COLUMNS = (
    ("S", "entropy"),
    ("Q", "efficiency"),
    ("R", "entropy_reduction"),
    ("E", "energy"),
    ("A", "free_energy"),
)


def write_curve_csv(curve: TheoryCurve, stream: IO[str], header_comment: str | None = None) -> None:
    """Write `alpha,S,Q,R,E,A` rows; absent columns serialize as blanks."""
    if header_comment:
        stream.write(f"# {header_comment}\n")
    stream.write("alpha,S,Q,R,E,A\n")
    columns = [getattr(curve, attr) for _, attr in _CURVE_COLUMNS]
    for i, alpha in enumerate(curve.alphas):
        cells = [alpha, *(None if col is None else col[i] for col in columns)]
        stream.write(",".join(map(format_cell, cells)) + "\n")


def merge_curves(fig1: TheoryCurve, fig2: TheoryCurve) -> TheoryCurve:
    """Join a truncated S/Q/R curve with a closed-form E/A curve.

    Both curves must share the same alpha grid. The merged E column is the
    closed form, not the truncated energy.
    """
    if fig1.alphas != fig2.alphas:
        raise DomainError("curves were computed on different alpha grids")
    return TheoryCurve(
        alphas=fig1.alphas,
        entropy=fig1.entropy,
        efficiency=fig1.efficiency,
        entropy_reduction=fig1.entropy_reduction,
        energy=fig2.energy,
        free_energy=fig2.free_energy,
        truncation=fig1.truncation,
        uniform_entropy=fig1.uniform_entropy,
        uniform_efficiency=fig1.uniform_efficiency,
        uniform_entropy_reduction=fig1.uniform_entropy_reduction,
    )
