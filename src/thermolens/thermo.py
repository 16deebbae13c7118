"""Scalar order/efficiency metrics for a collection.

Entropy S measures disorder of the contribution spread, entropy reduction
R = ln(N) - S measures order, average energy E prices the contributions
under an energy model, and entropy efficiency Q = S/E is the entropy
produced per unit of energy. For a power law with exponent alpha and
minimum value 1, the closed forms E = 1/(alpha - 1) and
A = -ln(zeta(alpha))/alpha (free energy) apply, with temperature 1/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import powerlaw
from .collection import Collection, EnergyModel, Row
from .errors import (
    DegenerateError,
    DomainError,
    EmptyCollectionError,
    ZeroEnergyError,
)

__all__ = [
    "ThermoReport",
    "entropy",
    "entropy_reduction",
    "average_energy",
    "entropy_efficiency",
    "theoretical_energy",
    "theoretical_free_energy",
    "fe_reduction_ratio",
    "thermo_report",
]


def _require_nonempty(c: Collection) -> None:
    if not c:
        raise EmptyCollectionError("metric undefined for an empty collection")


def entropy(c: Collection) -> float:
    """Shannon entropy S = -Σ p_v ln(p_v) of the value histogram, in nats.

    Zero when every individual holds the same value; ln(N) when all N
    values are distinct. Invariant under scaling all counts by the same
    factor.
    """
    _require_nonempty(c)
    n = c.population
    # ln N - (Σ s ln s)/N cancels exactly in the single-value and
    # all-distinct cases, so S hits its 0 and ln N endpoints precisely.
    s = math.log(n) - math.fsum(k * math.log(k) for k in c.counts.values()) / n
    return max(s, 0.0)


def entropy_reduction(c: Collection) -> float:
    """R = ln(N) - S: entropy shortfall against the all-distinct maximum.

    Unlike S, this grows with uniform count scaling (ln N moves, S does
    not), so it is a population-size-sensitive order measure.
    """
    _require_nonempty(c)
    return math.log(c.population) - entropy(c)


def average_energy(c: Collection, model: EnergyModel = EnergyModel.LOGARITHMIC) -> float:
    """Mean energy per individual: Σ p_v·ln(v) or Σ p_v·v."""
    _require_nonempty(c)
    if model is EnergyModel.LOGARITHMIC:
        return c.log_value_sum / c.population
    return c.value_sum / c.population


def entropy_efficiency(c: Collection, model: EnergyModel = EnergyModel.LOGARITHMIC) -> float:
    """Q = S/E: entropy per unit of average energy."""
    e = average_energy(c, model)
    if e == 0.0:
        raise ZeroEnergyError("average energy is zero (all values are 1)")
    return entropy(c) / e


def theoretical_energy(alpha: float) -> float:
    """Average energy 1/(alpha - 1) of a power law with minimum value 1.

    Diverges as alpha -> 1, so exponents <= 1 are rejected.
    """
    if alpha <= 1.0:
        raise DomainError(f"divergent energy: alpha must exceed 1, got {alpha}")
    return 1.0 / (alpha - 1.0)


def theoretical_free_energy(alpha: float) -> float:
    """Free energy A = -ln(zeta(alpha)) / alpha of a power law."""
    return -math.log(powerlaw.zeta(alpha)) / alpha


def fe_reduction_ratio(q: float, alpha: float) -> float:
    """Free-energy reduction ratio Q/alpha, which equals (E - A)/E in theory."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return q / alpha


@dataclass(frozen=True)
class ThermoReport(Row):
    """Bundle of metrics for one collection.

    `entropy`, `entropy_reduction`, `avg_energy` and `entropy_efficiency`
    are plug-in estimates from the histogram itself; `alpha` is the fitted
    power-law exponent and `free_energy` and `fe_reduction_ratio` are
    theoretical functions of that fit. Fields are None when undefined
    (zero energy, degenerate fit, or exponent too close to 1).
    `free_energy` evaluates zeta(alpha) when read, so a caller that never
    reads it (the per-page outputs) never pays for it.
    """

    population: int
    entropy: float
    entropy_reduction: float
    avg_energy: float
    entropy_efficiency: float | None
    alpha: float | None
    fe_reduction_ratio: float | None

    @property
    def free_energy(self) -> float | None:
        if self.alpha is None or not self.alpha > powerlaw.ALPHA_MIN:
            return None
        return theoretical_free_energy(self.alpha)

    COLUMNS = (
        ("N", "population"),
        ("S", "entropy"),
        ("R", "entropy_reduction"),
        ("E", "avg_energy"),
        ("Q", "entropy_efficiency"),
        ("alpha", "alpha"),
        ("A", "free_energy"),
        ("fe_ratio", "fe_reduction_ratio"),
    )


def thermo_report(
    c: Collection,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
) -> ThermoReport:
    """Compute the full metric bundle, leaving undefined fields absent."""
    s = entropy(c)
    r = math.log(c.population) - s
    e = average_energy(c, model)
    q = s / e if e != 0.0 else None

    try:
        alpha = powerlaw.mle_fit(c)
    except DegenerateError:
        alpha = None

    ratio = None
    if q is not None and alpha is not None:
        ratio = fe_reduction_ratio(q, alpha)

    return ThermoReport(
        population=c.population,
        entropy=s,
        entropy_reduction=r,
        avg_energy=e,
        entropy_efficiency=q,
        alpha=alpha,
        fe_reduction_ratio=ratio,
    )
