"""Checks the benchmark's own reference computations against mpmath.

    python3 bench/selfcheck.py

Exits 0 when every check passes. mpmath works at 40 significant digits
here, so it serves as the exact answer.
"""

from __future__ import annotations

import sys

import mpmath as mp
import numpy as np
from scipy import special

import oracles

mp.mp.dps = 40
FAILURES: list[str] = []


def expect(name: str, got: float, want, rtol: float = 1e-12, atol: float = 1e-14) -> None:
    want = float(want)
    ok = abs(got - want) <= atol + rtol * abs(want)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {got!r} vs mpmath {want!r}")
    if not ok:
        FAILURES.append(name)


def mp_cdf(alpha, v):
    """F(v) of the zeta law, F(0) = 0."""
    return 1 - mp.zeta(alpha, v + 1) / mp.zeta(alpha)


def check_cdf() -> None:
    for alpha, v in ((1.0738, 1), (1.1, 7), (1.3, 1000), (1.5, 10**6), (2.0, 3), (2.5, 10**9)):
        got = 1.0 - float(special.zeta(alpha, v + 1.0)) / oracles.zeta(alpha)
        expect(f"cdf alpha={alpha} v={v}", got, mp_cdf(mp.mpf(alpha), v))


def check_ks() -> None:
    values = np.array([1, 2, 3, 5, 8, 40, 1000, 10**7])
    counts = np.array([500, 160, 70, 40, 20, 6, 2, 1])
    n = int(counts.sum())
    for alpha in (1.2, 1.7, 2.4):
        a = mp.mpf(alpha)
        emp, gap = mp.mpf(0), mp.mpf(0)
        for v, c in zip(values.tolist(), counts.tolist()):
            gap = max(gap, abs(emp - mp_cdf(a, v - 1)))
            emp += mp.mpf(c) / n
            gap = max(gap, abs(emp - mp_cdf(a, v)))
        expect(f"KS distance alpha={alpha}", oracles.ks_distance(values, counts, alpha), gap)


def check_bundle() -> None:
    values = np.array([1, 2, 3, 7, 50, 4000])
    counts = np.array([900, 210, 80, 31, 6, 1])
    b = oracles.bundle(values, counts)
    n = mp.mpf(int(counts.sum()))
    s = -mp.fsum(mp.mpf(c) / n * mp.log(mp.mpf(c) / n) for c in counts.tolist())
    e = mp.fsum(mp.mpf(c) / n * mp.log(v) for v, c in zip(values.tolist(), counts.tolist()))
    expect("entropy S", b.entropy, s)
    expect("entropy reduction R", b.entropy_reduction, mp.log(n) - s)
    expect("average energy E", b.avg_energy, e)
    expect("efficiency Q", b.efficiency, s / e)
    expect("estimator alpha = 1 + 1/E", b.alpha, 1 + 1 / e)
    for alpha in (1.05, 1.3, 2.2):
        expect(f"free energy alpha={alpha}", oracles.free_energy(alpha),
               -mp.log(mp.zeta(mp.mpf(alpha))) / alpha)


def check_truncated_curve() -> None:
    n = 2000
    for alpha in (1.2, 2.5):
        w = [mp.mpf(v) ** -alpha for v in range(1, n + 1)]
        z = mp.fsum(w)
        p = [x / z for x in w]
        s = -mp.fsum(q * mp.log(q) for q in p)
        e = mp.fsum(q * mp.log(v) for v, q in zip(range(1, n + 1), p))
        got = oracles.truncated_power_law(alpha, n)
        expect(f"truncated S alpha={alpha}", got[0], s)
        expect(f"truncated Q alpha={alpha}", got[1], s / e)
        expect(f"truncated R alpha={alpha}", got[2], mp.log(n) - s)


def check_maxent_rate() -> None:
    n = 2000
    for model, e_target in (("logarithmic", 2.0), ("linear", 30.0)):
        u = [mp.log(v) if model == "logarithmic" else mp.mpf(v) for v in range(1, n + 1)]

        def excess(lam):
            w = [mp.exp(-lam * x) for x in u]
            return mp.fsum(x * y for x, y in zip(w, u)) / mp.fsum(w) - e_target

        start = 1.0 if model == "logarithmic" else 0.03
        expect(f"max-entropy rate {model} E={e_target}",
               oracles.maxent_rate(e_target, n, model), mp.findroot(excess, start), rtol=1e-10)


def main() -> int:
    check_cdf()
    check_ks()
    check_bundle()
    check_truncated_curve()
    check_maxent_rate()
    print(f"{len(FAILURES)} of the checks failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
