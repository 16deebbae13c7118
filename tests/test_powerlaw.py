"""Zeta evaluation, exponent fitting, KS classification, and sampling.

Independent oracles: closed forms pi^2/6 and pi^4/90, scipy's Hurwitz
zeta, mpmath's Hurwitz zeta at 40 digits, and mpmath's zeta derivative
for the population value of the log-moment. The estimator here is the
closed continuous form 1 + N / sum(ln v_i / v_min); on exact zeta-law
samples its population value is 1 + zeta(a)/(-zeta'(a)), not a itself,
and the tests below pin that actual behavior.
"""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as hurwitz_zeta

import thermolens.powerlaw as pl
from thermolens import (
    Collection,
    DegenerateError,
    DomainError,
    EmptyCollectionError,
    from_values,
)
from helpers import geometric_collection

ZETA_2 = 1.6449340668482264  # pi^2/6
ZETA_4 = 1.0823232337111382  # pi^4/90
ZETA_10 = 1.000994575127818  # mpmath.zeta(10)
PMF_2_1 = 0.6079271018540267  # 1/ZETA_2
PMF_2_2 = 0.15198177546350666  # 2^-2/ZETA_2
CDF_2_2 = 0.7599088773175333  # PMF_2_1 + PMF_2_2

# Population value of the closed-form estimator on exact zeta samples:
# 1 + zeta(a)/(-zeta'(a)), from mpmath.zeta(a, derivative=1).
ESTIMATOR_LIMIT = {1.5: 1.6643479348, 2.0: 2.7545060313, 2.5: 4.4633151822}


KERNEL_ALPHAS = (1 + 1e-6, 1 + 1e-4, 1.0738, 1.2, 2.0, 2.6, 5.0, 10.0)
KERNEL_QS = (1.0, 2.0, 7.0, 101.0, 1e6, 1e12)


class TestHurwitzKernel:
    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_matches_mpmath(self, alpha):
        got = pl._hurwitz(alpha, np.array(KERNEL_QS))
        with mpmath.workdps(40):
            for q, value in zip(KERNEL_QS, got):
                exact = mpmath.zeta(mpmath.mpf(alpha), mpmath.mpf(q))
                assert abs((mpmath.mpf(float(value)) - exact) / exact) <= 1e-14

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_matches_scipy(self, alpha):
        got = pl._hurwitz(alpha, np.array(KERNEL_QS))
        want = hurwitz_zeta(alpha, np.array(KERNEL_QS))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_finite_for_huge_alpha(self):
        for alpha in (50.0, 300.0, 1e15, 1e300, np.finfo(np.float64).max):
            got = pl._hurwitz(alpha, np.array([1.0, 2.0, 1e9]))
            assert np.all(np.isfinite(got))
            assert got[0] == pytest.approx(1.0, abs=1e-14)


def _mp_power_sums(s: float, n: int, centre: float):
    """Σ v^s and Σ (ln v - centre) v^s over 1..n at 30 digits, by mpmath.

    Term by term up to n = 2000. Beyond: for s > 50 the top 90 n/s terms,
    since the rest add under n e^-90 relative; for a whole s >= 0, Hurwitz
    zeta differences ζ(-s) - ζ(-s, n+1) and their s-derivatives; otherwise
    199 terms plus mpmath's own Euler-Maclaurin sum.
    """
    s, centre = mpmath.mpf(s), mpmath.mpf(centre)
    f0 = lambda x: mpmath.power(x, s)
    f1 = lambda x: (mpmath.log(x) - centre) * mpmath.power(x, s)
    if n <= 2000 or s > 50:
        lo = 1 if s <= 50 else max(1, n - math.ceil(90 * n / s))
        return tuple(mpmath.fsum(f(v) for v in range(lo, n + 1)) for f in (f0, f1))
    if s >= 0 and s == int(s):
        sum0 = mpmath.zeta(-s) - mpmath.zeta(-s, n + 1)
        log_sum = mpmath.zeta(-s, n + 1, 1) - mpmath.zeta(-s, 1, 1)
        return sum0, log_sum - centre * sum0
    return tuple(
        mpmath.fsum(f(v) for v in range(1, 200)) + mpmath.sumem(f, [200, n]) for f in (f0, f1)
    )


POWER_SUM_NS = (2, 3, 19, 20, 21, 40, 1000, 10**5, 10**6)
# Both signs, s = -1 where the integral is a logarithm, s·ln n near 0, and
# a large s, above n/2 (top terms summed directly) where n <= 1400.
POWER_SUM_SS = (-1.0, -1.0 - 1e-9, -1e-13, 0.0, 1e-13, -0.5, 0.5, -2.2, 3.3, -40.0, 20.0)


class TestPowerSums:
    @pytest.mark.parametrize("n", POWER_SUM_NS)
    def test_matches_mpmath_within_the_stated_bound(self, n):
        with mpmath.workdps(30):
            for s in (*POWER_SUM_SS, max(700.0, n / 20)):
                for centre in (0.0, math.log(n)):
                    sum0, sum1, err0, err1 = pl._power_sums(s, n, centre)
                    exact0, exact1 = _mp_power_sums(s, n, centre)
                    scale = mpmath.exp(max(0.0, s * math.log(n)))  # the largest term
                    assert abs(mpmath.mpf(sum0) - exact0 / scale) <= err0, (s, centre)
                    assert abs(mpmath.mpf(sum1) - exact1 / scale) <= err1, (s, centre)
                    # The Euler-Maclaurin remainder stays below the stated rounding.
                    rounding = 2**-53 * (512 + 8 * (abs(s) + 1) * math.log(n))
                    assert err0 <= 2 * rounding * sum0, (s, centre)
                    assert err1 <= 2 * rounding * (abs(sum1) + math.log(n) * sum0), (s, centre)

    def test_scaled_by_the_largest_term(self):
        # n^s overflows at s = 60, n = 10^6; the scaled sums stay finite.
        sum0, sum1, err0, err1 = pl._power_sums(60.0, 10**6, math.log(10**6))
        assert sum0 == pytest.approx(10**6 / 61.0, rel=1e-4)  # Σ v^60 ≈ n^61/61, over n^60
        assert all(map(math.isfinite, (sum0, sum1, err0, err1)))


class TestZeta:
    def test_closed_form_values(self):
        assert pl.zeta(2.0) == pytest.approx(ZETA_2, abs=1e-6)
        assert pl.zeta(4.0) == pytest.approx(ZETA_4, abs=1e-6)
        assert pl.zeta(10.0) == pytest.approx(ZETA_10, abs=1e-6)

    def test_matches_scipy_across_range(self):
        for alpha in np.linspace(1.3, 8.0, 15):
            assert pl.zeta(float(alpha)) == pytest.approx(
                float(hurwitz_zeta(alpha, 1)), abs=1e-8
            )

    def test_tolerance_is_honored(self):
        with mpmath.workdps(40):
            exact = float(mpmath.zeta(mpmath.mpf(1.8)))
        assert pl.zeta(1.8) == pytest.approx(exact, rel=1e-14)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        alphas = np.sort(rng.uniform(1.2, 6.0, size=12))
        values = [pl.zeta(float(a)) for a in alphas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_divergent_domain(self):
        for bad in (1.0, 1.0 + 1e-7, 0.5, -2.0):
            with pytest.raises(DomainError, match="divergent"):
                pl.zeta(bad)

    def test_non_finite_alpha_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                pl.zeta(bad)
            with pytest.raises(DomainError):
                pl.ks_statistic(Collection({1: 2, 3: 1}), bad)
            with pytest.raises(DomainError):
                pl.sample(bad, 10, seed=0)


class TestMleFit:
    def test_hand_evaluation(self):
        c = Collection({1: 2, 2: 1, 4: 1})
        assert pl.mle_fit(c) == pytest.approx(1 + 4 / (3 * math.log(2)), rel=1e-12)
        assert pl.mle_fit(c) == pytest.approx(2.923594, abs=1e-6)

    def test_count_scaling_invariance(self):
        for k in (1, 3, 17):
            c = Collection({1: k, 2: k})
            assert pl.mle_fit(c) == pytest.approx(1 + 2 / math.log(2), rel=1e-12)

    def test_v_min_above_one(self):
        # Smallest observed value, not 1, anchors the ratio.
        c = Collection({2: 1, 4: 1})
        assert pl.mle_fit(c) == pytest.approx(1 + 2 / math.log(2), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateError, match="log-spread"):
            pl.mle_fit(Collection({3: 10}))

    def test_values_equal_at_float_precision_rejected(self):
        # 2^60 + 1 over 2^60 rounds to 1.0, so every log ratio is 0.
        with pytest.raises(DegenerateError, match="log-spread"):
            pl.mle_fit(Collection({2**60: 1, 2**60 + 1: 1}))

    def test_empty_rejected(self):
        with pytest.raises(EmptyCollectionError):
            pl.mle_fit(from_values([]))


class TestTheoreticalPmfCdf:
    def test_pmf_oracle_values(self):
        assert pl.theoretical_pmf(2.0, 1) == pytest.approx(PMF_2_1, abs=1e-9)
        assert pl.theoretical_pmf(2.0, 2) == pytest.approx(PMF_2_2, abs=1e-9)

    def test_cdf_oracle_values(self):
        assert pl.theoretical_cdf(2.0, 1) == pytest.approx(PMF_2_1, abs=1e-9)
        assert pl.theoretical_cdf(2.0, 2) == pytest.approx(CDF_2_2, abs=1e-9)

    def test_total_mass(self):
        # F(v) -> 1: the infinite pmf sums to 1 by construction.
        assert pl.theoretical_cdf(2.0, 10**9) == pytest.approx(1.0, abs=1e-6)
        assert pl.theoretical_cdf(1.5, 10**12) == pytest.approx(1.0, abs=1e-5)

    def test_cdf_monotone_and_bounded(self):
        # The second run of values spans v ~ 7.5e5, where an earlier
        # implementation switched from partial sums to a tail bracket.
        vs = np.concatenate((np.arange(1, 2001), np.arange(749_000, 751_000)))
        f = np.array([pl.theoretical_cdf(1.7, int(v)) for v in vs])
        assert np.all(np.diff(f) > 0)
        assert f[-1] <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(min_value=1.0 + 2e-6, max_value=4.0),
        v=st.integers(min_value=2, max_value=1000),
    )
    def test_cdf_steps_by_the_pmf(self, alpha, v):
        below, at = pl.theoretical_cdf(alpha, v - 1), pl.theoretical_cdf(alpha, v)
        assert below < at <= 1.0
        assert at - below == pytest.approx(pl.theoretical_pmf(alpha, v), rel=1e-9, abs=1e-14)

    def test_pmf_cdf_consistency(self):
        total = sum(pl.theoretical_pmf(2.5, v) for v in range(1, 51))
        assert pl.theoretical_cdf(2.5, 50) == pytest.approx(total, abs=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            pl.theoretical_pmf(1.0, 3)
        with pytest.raises(DomainError):
            pl.theoretical_pmf(2.0, 0)
        with pytest.raises(DomainError):
            pl.theoretical_cdf(2.0, -1)


class TestKsStatistic:
    def test_single_point_oracle(self):
        d = pl.ks_statistic(Collection({1: 1}), 2.0)
        assert d == pytest.approx(1 - PMF_2_1, abs=1e-9)

    def test_matching_construction_gives_small_d(self):
        # Histogram proportional to the truncated pmf: only truncation
        # mass and rounding remain.
        n = 10**7
        counts = {}
        for v in range(1, 201):
            c = round(n * pl.theoretical_pmf(2.0, v))
            if c:
                counts[v] = c
        d = pl.ks_statistic(Collection(counts), 2.0)
        assert d < 0.005

    def test_geometric_tail_is_far(self):
        c = geometric_collection(10_000, 1 / 3, seed=404)
        alpha = pl.mle_fit(c)
        assert pl.ks_statistic(c, alpha) > 0.1

    def test_empty_rejected(self):
        with pytest.raises(EmptyCollectionError):
            pl.ks_statistic(from_values([]), 2.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            c = from_values([int(v) for v in rng.integers(1, 500, size=200)])
            d = pl.ks_statistic(c, 2.0)
            assert 0.0 <= d <= 1.0


class TestClassify:
    def test_threshold_one_accepts_everything(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            c = from_values([int(v) for v in rng.integers(1, 100, size=50)])
            assert pl.classify(c, threshold=1.0).is_power_law

    def test_fields_cohere(self):
        c = pl.sample(2.0, 5000, seed=3)
        fit = pl.classify(c, threshold=0.25)
        assert fit.alpha == pytest.approx(pl.mle_fit(c))
        assert fit.ks_stat == pytest.approx(pl.ks_statistic(c, fit.alpha))
        assert fit.v_min == 1
        assert fit.zeta_value == pytest.approx(pl.zeta(fit.alpha))
        assert fit.is_power_law == (fit.ks_stat < 0.25)

    def test_geometric_rejected_at_default_threshold(self):
        c = geometric_collection(10_000, 1 / 3, seed=5)
        assert not pl.classify(c).is_power_law

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateError):
            pl.classify(Collection({4: 10}))

    def test_fit_near_one_is_fast(self):
        # alpha ~ 1.074: a direct zeta series would need ~2e9 terms.
        c = Collection({1: 1, 10**6: 50})
        started = time.perf_counter()
        fit = pl.classify(c)
        elapsed = time.perf_counter() - started
        assert fit.alpha == pytest.approx(1.0738, abs=1e-4)
        assert elapsed < 0.05

    def test_huge_alpha_gives_finite_d(self):
        fit = pl.classify(Collection({10**9: 10**6, 10**9 + 1: 1}))
        assert fit.alpha > 1e14
        assert math.isfinite(fit.zeta_value) and math.isfinite(fit.ks_stat)
        assert 0.0 <= fit.ks_stat <= 1.0

    def test_json_and_csv_shapes(self):
        fit = pl.classify(pl.sample(2.0, 2000, seed=9))
        d = fit.to_json_dict()
        assert set(d) == {"alpha", "v_min", "zeta", "D", "is_power_law"}
        assert len(fit.to_csv_row().split(",")) == len(fit.CSV_HEADER.split(","))


class TestSample:
    def test_population_contract(self):
        assert pl.sample(2.0, 1, seed=0).population == 1
        assert pl.sample(2.0, 777, seed=1).population == 777

    def test_determinism(self):
        a = pl.sample(1.8, 20_000, seed=42)
        b = pl.sample(1.8, 20_000, seed=42)
        assert a == b
        assert a != pl.sample(1.8, 20_000, seed=43)

    def test_head_probability_concentration(self):
        # Binomial std of p_1 at n=1e5 is ~0.0015; 4 sigma slack.
        c = pl.sample(2.0, 100_000, seed=7)
        assert c.counts[1] / c.population == pytest.approx(PMF_2_1, abs=0.006)

    def test_tail_draws_reach_past_table(self):
        # At alpha=1.5 roughly 0.24% of draws land beyond the cached table.
        c = pl.sample(1.5, 100_000, seed=11)
        assert max(c.support) > 100_000

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pl.sample(1.0, 10, seed=0)
        with pytest.raises(DomainError):
            pl.sample(2.0, 0, seed=0)
        # At alpha = 1.01 about 8e-4 of all draws lie beyond the float range.
        with pytest.raises(DomainError, match="float range"):
            pl.sample(1.01, 100_000, seed=3)

    def test_tail_inversion_brackets_each_draw(self):
        u = np.array([0.9999, 0.99999, 0.999999, 1 - 1e-7])
        drawn = pl._invert_tail(1.5, pl.zeta(1.5), u, 1000)
        for ui, v in zip(u, drawn):
            v = int(v)
            assert pl.theoretical_cdf(1.5, v - 1) < ui <= pl.theoretical_cdf(1.5, v)

    def test_tail_inversion_memory_does_not_grow_with_draws(self):
        # Resolving all tail draws in one kernel call held ~30 float64
        # temporaries per draw: 15 MiB for these 40000 draws.
        u = np.random.default_rng(1).uniform(pl.theoretical_cdf(1.05, 100_000), 1.0, 40_000)
        tracemalloc.start()
        try:
            drawn = pl._invert_tail(1.05, pl.zeta(1.05), u, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (drawn > 100_000).all()

    def test_tail_inversion_is_independent_of_chunking(self, monkeypatch):
        u = np.random.default_rng(2).uniform(pl.theoretical_cdf(1.3, 1000), 1.0, 3000)
        whole = pl._invert_tail(1.3, pl.zeta(1.3), u, 1000)
        monkeypatch.setattr(pl, "_TAIL_CHUNK", 700)
        assert np.array_equal(pl._invert_tail(1.3, pl.zeta(1.3), u, 1000), whole)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
    def test_estimator_reaches_its_population_value(self, alpha):
        # Joint sampler/estimator consistency against the mpmath oracle:
        # the closed-form fit on zeta-law data converges to
        # 1 + zeta(a)/(-zeta'(a)). (It does NOT recover a itself; see the
        # acceptance suite for the faithful round-trip criterion.)
        c = pl.sample(alpha, 100_000, seed=int(alpha * 100))
        assert pl.mle_fit(c) == pytest.approx(ESTIMATOR_LIMIT[alpha], abs=0.05)
