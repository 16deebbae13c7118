#!/usr/bin/env python3
"""The constrained maximum-entropy oracle and its stationary forms.

Maximizing entropy at a pinned average energy yields the exponential
family exp(-lambda * u(v)): a truncated power law when energy is
logarithmic in the value, a Boltzmann exponential when it is linear.
This demo solves both, verifies the stationarity residual, and shows
that feasible perturbations only lower the entropy (and hence Q).
"""

import math

import numpy as np

from thermolens import EnergyModel, max_entropy_oracle, stationarity_report


def main() -> None:
    print("= Logarithmic energy: the maximizer is a power law =\n")
    dist = max_entropy_oracle(1.0, 10_000, EnergyModel.LOGARITHMIC)
    rep = stationarity_report(dist, EnergyModel.LOGARITHMIC)
    print(f"target E = 1.0 on support 1..10^4")
    print(f"recovered rate lambda = {rep.rate:.6f}")
    print(f"stationarity residual = {rep.max_residual:.2e}")
    print(f"S = {rep.entropy:.6f}, Q = S/E = {rep.efficiency:.6f}")
    print(
        f"Q - lambda = {rep.efficiency - rep.rate:+.6f}  (= ln(Z)/E: the efficiency"
        " approximates the\nexponent from above, it does not equal it)"
    )
    head = {v: dist.probs[v] for v in dist.support[:4]}
    print(f"head probabilities: { {v: round(p, 5) for v, p in head.items()} }")
    scaled = [p * v**rep.rate for v, p in sorted(dist.probs.items())]
    print(f"p_v * v^lambda spread: {max(scaled) / min(scaled) - 1:.2e} (constant = pure power law)")

    print("\n= Linear energy: the maximizer is a Boltzmann exponential =\n")
    dist_lin = max_entropy_oracle(3.0, 10_000, EnergyModel.LINEAR)
    rep_lin = stationarity_report(dist_lin, EnergyModel.LINEAR)
    print(f"target E = 3.0: recovered rate = {rep_lin.rate:.6f}")
    scaled_lin = [p * math.exp(rep_lin.rate * v) for v, p in sorted(dist_lin.probs.items())]
    print(f"p_v * exp(lambda v) spread: {max(scaled_lin) / min(scaled_lin) - 1:.2e}")
    print(f"support kept: {len(dist_lin.support)} points (deep exponential tail underflows)")

    print("\n= Nothing feasible beats the oracle =\n")
    p = dist.p
    u = np.log(dist.values)
    q_star = float(-(p @ np.log(p)) / (p @ u))
    rng = np.random.default_rng(0)
    ones = np.ones_like(p)
    best = -np.inf
    for _ in range(500):
        d = rng.normal(size=len(p))
        for basis in (ones, u):
            d -= (d @ basis) / (basis @ basis) * basis
        eps = 0.5 * np.min(p / np.maximum(np.abs(d), 1e-300))
        q = float(-((p + eps * d) @ np.log(p + eps * d)) / ((p + eps * d) @ u))
        best = max(best, q)
    print(f"oracle Q            = {q_star:.12f}")
    print(f"best of 500 rivals  = {best:.12f}")
    print(f"margin              = {q_star - best:.3e}")


if __name__ == "__main__":
    main()
