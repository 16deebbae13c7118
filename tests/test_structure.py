"""Class decomposition, the max-entropy oracle, and theoretical curves."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from thermolens import (
    Collection,
    DomainError,
    EmptyCollectionError,
    EnergyModel,
    class_decompose,
    efficiency_vs_alpha_curve,
    energy_curve,
    from_values,
    max_entropy_oracle,
    sample,
    stationarity_report,
    theoretical_class_scaling,
)
from thermolens import structure
from thermolens.structure import merge_curves, write_curve_csv

LOG = EnergyModel.LOGARITHMIC
LIN = EnergyModel.LINEAR


class TestClassDecompose:
    def test_decade_binning(self):
        d = class_decompose(from_values([1, 5, 10, 11, 100, 101]))
        assert [(b.index, b.population) for b in d.bins] == [(1, 3), (2, 2), (3, 1)]

    def test_single_class(self):
        d = class_decompose(Collection({1: 7}))
        assert [(b.index, b.population, b.mass) for b in d.bins] == [(1, 7, 7)]

    def test_boundary_values_stay_in_lower_class(self):
        # 10 belongs to class 1 and 100 to class 2 under (b^(n-1), b^n].
        d = class_decompose(from_values([1, 10, 100]))
        assert d.mass_of(1) == 11
        assert d.mass_of(2) == 100

    def test_zero_rows_up_to_max_class(self):
        d = class_decompose(from_values([1, 101]))
        assert [(b.index, b.population) for b in d.bins] == [(1, 1), (2, 0), (3, 1)]

    def test_conservation_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = from_values([int(v) for v in rng.integers(1, 5000, size=300)])
            d = class_decompose(c)
            assert sum(b.population for b in d.bins) == c.population
            assert sum(b.mass for b in d.bins) == c.value_sum

    def test_other_base(self):
        d = class_decompose(from_values([1, 2, 3, 4, 5, 8, 9]), base=2)
        # Classes under base 2: {1,2}, {3,4}, {5..8}, {9..16}.
        assert [(b.index, b.population) for b in d.bins] == [(1, 2), (2, 2), (3, 2), (4, 1)]

    def test_errors(self):
        with pytest.raises(EmptyCollectionError):
            class_decompose(from_values([]))
        with pytest.raises(DomainError):
            class_decompose(Collection({1: 1}), base=1)


class TestTheoreticalClassScaling:
    def test_even_mass_at_alpha_two(self):
        for base in (2, 10, 16):
            assert theoretical_class_scaling(2.0, base).mass_ratio == 1.0

    def test_population_ratio_at_alpha_two(self):
        assert theoretical_class_scaling(2.0, 10).pop_ratio == pytest.approx(0.1)

    def test_mass_shifts_to_high_classes_below_two(self):
        ratio = theoretical_class_scaling(1.5, 10).mass_ratio
        assert ratio == pytest.approx(math.sqrt(10), rel=1e-12)
        assert theoretical_class_scaling(2.5, 10).mass_ratio < 1.0

    def test_index_independent(self):
        assert theoretical_class_scaling(1.7, 10, 1) == theoretical_class_scaling(1.7, 10, 5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theoretical_class_scaling(1.0)
        with pytest.raises(DomainError):
            theoretical_class_scaling(2.0, base=1)
        with pytest.raises(DomainError):
            theoretical_class_scaling(2.0, n=0)

    def test_sampled_population_slope(self):
        # ln N(n) over the first 3 classes falls with slope close to
        # -(alpha-1) ln b; the head class deviates most, 15% covers it.
        c = sample(2.0, 10**6, seed=99)
        d = class_decompose(c)
        pops = [d.population_of(n) for n in (1, 2, 3)]
        slope = np.polyfit([1, 2, 3], np.log(pops), 1)[0]
        expected = -(2.0 - 1.0) * math.log(10)
        assert abs(slope - expected) <= 0.15 * abs(expected)


def _truncated_mean_log(lam: float, v_max: int) -> float:
    v = np.arange(1, v_max + 1, dtype=np.float64)
    w = v ** (-lam)
    return float((w @ np.log(v)) / w.sum())


class TestMaxEntropyOracle:
    def test_logarithmic_matches_independent_solver(self):
        dist = max_entropy_oracle(1.0, 10_000, LOG)
        rate = stationarity_report(dist, LOG).rate
        # Independent route: brentq on an independently coded truncated
        # mean-log series.
        alpha_star = brentq(lambda l: _truncated_mean_log(l, 10_000) - 1.0, 1.05, 4.0, xtol=1e-12)
        assert rate == pytest.approx(alpha_star, abs=1e-3)

    def test_linear_forward_then_invert(self):
        v = np.arange(1, 10_001, dtype=np.float64)
        w = np.exp(-0.5 * v)
        target = float((w @ v) / w.sum())
        dist = max_entropy_oracle(target, 10_000, LIN)
        assert stationarity_report(dist, LIN).rate == pytest.approx(0.5, abs=1e-6)

    def test_moment_constraint_is_met(self):
        dist = max_entropy_oracle(1.0, 10_000, LOG)
        e = sum(p * math.log(v) for v, p in dist.probs.items())
        assert e == pytest.approx(1.0, abs=1e-8)

    def test_boundary_targets_rejected(self):
        with pytest.raises(DomainError):
            max_entropy_oracle(0.0, 100, LOG)  # exactly u(1)
        with pytest.raises(DomainError):
            max_entropy_oracle(math.log(100), 100, LOG)  # exactly u(V)
        with pytest.raises(DomainError):
            max_entropy_oracle(1.0, 100, LIN)  # exactly u(1) for linear
        max_entropy_oracle(math.log(100) - 1e-6, 100, LOG)  # just inside works

    def test_support_too_small(self):
        with pytest.raises(DomainError):
            max_entropy_oracle(0.5, 1, LOG)

    def test_power_law_form_pointwise(self):
        dist = max_entropy_oracle(1.0, 2_000, LOG)
        rep = stationarity_report(dist, LOG)
        scaled = np.array([p * v ** rep.rate for v, p in sorted(dist.probs.items())])
        assert scaled.max() / scaled.min() - 1 < 1e-9

    def test_exponential_form_pointwise(self):
        dist = max_entropy_oracle(4.0, 2_000, LIN)
        rep = stationarity_report(dist, LIN)
        scaled = np.array([p * math.exp(rep.rate * v) for v, p in sorted(dist.probs.items())])
        assert scaled.max() / scaled.min() - 1 < 1e-9

    def test_entropy_is_maximal_among_feasible_perturbations(self):
        v_max = 200
        dist = max_entropy_oracle(1.0, v_max, LOG)
        values = np.array(dist.support, dtype=np.float64)
        p = np.array([dist.probs[int(v)] for v in values])
        u = np.log(values)
        q_oracle = float(-(p @ np.log(p)) / (p @ u))
        rng = np.random.default_rng(23)
        ones = np.ones_like(p)
        for _ in range(100):
            d = rng.normal(size=len(p))
            # Project onto the feasible tangent space: total mass and
            # mean energy both unchanged.
            for basis in (ones, u):
                d -= (d @ basis) / (basis @ basis) * basis
            eps = 0.5 * np.min(p / np.maximum(np.abs(d), 1e-300))
            perturbed = p + eps * d
            assert perturbed.min() > 0
            e = float(perturbed @ u)
            q = float(-(perturbed @ np.log(perturbed))) / e
            assert e == pytest.approx(1.0, abs=1e-9)
            assert q_oracle >= q - 1e-12


class TestOracleArrays:
    def test_peak_memory_at_a_million_points(self):
        # One value->probability dict entry per support point peaked near
        # 177 MiB here; the arrays from bisection to report stay near 84 MiB.
        tracemalloc.start()
        try:
            rep = stationarity_report(max_entropy_oracle(2.2, 10**6, LOG), LOG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.avg_energy == pytest.approx(2.2, abs=1e-8)
        assert peak < 120 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from([LOG, LIN]),
        support_max=st.integers(2, 5000),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_moment_met_and_probabilities_valid(self, model, support_max, frac):
        u_max = math.log(support_max) if model is LOG else float(support_max)
        u_min = 0.0 if model is LOG else 1.0
        target = u_min + frac * (u_max - u_min)
        assume(u_min < target < u_max)  # frac may round onto a bound
        dist = max_entropy_oracle(target, support_max, model)
        values = dist.values.astype(np.float64)
        u = np.log(values) if model is LOG else values
        e = float(dist.p @ u)
        assert (dist.p > 0).all()
        assert abs(math.fsum(dist.p.tolist()) - 1.0) <= 1e-12
        # tol = 1e-10 bounds the rate, so E may miss by up to Var(u) * tol / 2.
        var = float(dist.p @ (u - e) ** 2)
        assert abs(e - target) <= 1e-6 + 1e-10 * var


def _reference_oracle(e_target: float, support_max: int, model, tol: float = 1e-10):
    """The oracle's bisection with every step an O(V) pass, as it was before
    the closed forms; returns the rate and the kept values and probabilities."""

    def family(lam, u, out):
        np.multiply(u, -lam, out=out)
        np.subtract(out, out.max(), out=out)
        np.exp(out, out=out)
        return np.divide(out, out.sum(), out=out)

    u = np.arange(1, support_max + 1, dtype=np.float64)
    if model is LOG:
        np.log(u, out=u)
    buf = np.empty_like(u)

    def mean_energy(lam):
        return float(family(lam, u, buf) @ u)

    lo, hi = -1.0, 1.0
    while mean_energy(lo) < e_target:
        lo *= 2.0
    while mean_energy(hi) > e_target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if mean_energy(mid) > e_target:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    probs = family(lam, u, buf)
    keep = probs >= np.finfo(np.float64).tiny
    return lam, np.flatnonzero(keep) + 1, probs[keep]


@pytest.fixture
def family_calls(monkeypatch):
    """The rate of every O(V) pass the oracle makes, in order."""
    calls = []
    family = structure._exponential_family

    def recording(lam, u, out):
        calls.append(lam)
        return family(lam, u, out)

    monkeypatch.setattr(structure, "_exponential_family", recording)
    return calls


def _energy_range(model, support_max):
    return (0.0, math.log(support_max)) if model is LOG else (1.0, float(support_max))


class TestOracleClosedForms:
    @pytest.mark.parametrize("model", [LOG, LIN])
    @pytest.mark.parametrize("support_max", [2, 10, 11, 21, 1000, 10**5])
    def test_rate_and_probabilities_identical_to_direct_bisection(
        self, model, support_max, family_calls
    ):
        u_min, u_max = _energy_range(model, support_max)
        targets = [u_min + f * (u_max - u_min) for f in (0.05, 0.25, 0.5, 0.75, 0.95)]
        targets += [u_min + 1e-3, u_max - 1e-3]
        for target in targets:
            family_calls.clear()
            dist = max_entropy_oracle(target, support_max, model)
            lam, values, p = _reference_oracle(target, support_max, model)
            assert family_calls[-1] == lam, target
            assert np.array_equal(dist.values, values), target
            assert np.array_equal(dist.p, p), target

    def test_few_passes_at_a_million_points(self, family_calls):
        # The direct bisection made ~38 O(V) passes per call; the count
        # here includes the final pass that builds the distribution.
        passes = {}
        for model, targets in ((LOG, (1.5, 2.2, 2.9)), (LIN, (20.0, 80.0, 200.0))):
            for target in targets:
                family_calls.clear()
                max_entropy_oracle(target, 10**6, model)
                passes[model.value, target] = len(family_calls)
        print("O(V) passes per call:", passes)
        assert max(passes.values()) <= 6, passes

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from([LOG, LIN]),
        support_max=st.integers(2, 10**5),
        log_rate=st.floats(-12.0, 3.0),
        negative=st.booleans(),
    )
    def test_closed_form_within_its_band_of_the_direct_pass(
        self, model, support_max, log_rate, negative
    ):
        lam = -(10.0**log_rate) if negative else 10.0**log_rate
        u = np.arange(1, support_max + 1, dtype=np.float64)
        if model is LOG:
            np.log(u, out=u)
        direct = float(structure._exponential_family(lam, u, np.empty_like(u)) @ u)
        e, err = structure._CLOSED_FORMS[model](lam, support_max)
        band = err + structure._direct_error(lam, e, err, u[0], u[-1], support_max)
        assert abs(e - direct) <= band
        # Not vacuous: near lam = 0 the linear form cancels two terms of 1/lam.
        assert band <= 1e-6 * (u[-1] - u[0]) + 32 * 2**-53 / abs(lam)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1e300, 1.0])
    def test_bad_tolerance_rejected_before_allocation(self, tol):
        # A support of 10^13 points would need 80 TB; the check comes first.
        with pytest.raises(DomainError, match="tolerance"):
            max_entropy_oracle(2.0, 10**13, LOG, tol)


class TestEfficiencyCurve:
    def test_truncation_independence_of_q(self):
        q_small = efficiency_vs_alpha_curve([2.0], 10**3).efficiency[0]
        q_large = efficiency_vs_alpha_curve([2.0], 10**5).efficiency[0]
        assert abs(q_large - q_small) / q_small < 0.05

    def test_monotone_in_alpha(self):
        grid = [1.2 + 0.1 * k for k in range(14)]
        curve = efficiency_vs_alpha_curve(grid, 1000)
        assert np.all(np.diff(curve.entropy) < 0)
        assert np.all(np.diff(curve.entropy_reduction) > 0)

    def test_uniform_references(self):
        curve = efficiency_vs_alpha_curve([1.5, 2.0], 1000)
        assert curve.uniform_entropy == pytest.approx(math.log(1000))
        assert curve.uniform_entropy_reduction == 0.0
        assert curve.uniform_efficiency > 0

    def test_entropy_grows_with_truncation(self):
        small = efficiency_vs_alpha_curve([2.0], 10**3)
        large = efficiency_vs_alpha_curve([2.0], 10**5)
        assert large.entropy[0] > small.entropy[0]
        assert large.entropy_reduction[0] > small.entropy_reduction[0]

    def test_underflowed_terms_add_nothing(self):
        # At alpha = 100, v^-alpha underflows to 0 from v ~ 1700 on; those
        # terms add 0·ln 0 = 0, so S is the sum over the others.
        curve = efficiency_vs_alpha_curve([100.0], 10**4)
        w = [math.exp(-100.0 * math.log(v)) for v in range(1, 10**4 + 1)]
        total = math.fsum(w)
        p = [x / total for x in w if x > 0.0]
        assert curve.entropy[0] == pytest.approx(-math.fsum(x * math.log(x) for x in p), rel=1e-12)
        assert math.isfinite(curve.efficiency[0])
        assert curve.entropy_reduction[0] == math.log(10**4) - curve.entropy[0]

    def test_zero_energy_leaves_q_undefined(self):
        # From alpha ~ 1075, 2^-alpha underflows: all mass sits on v = 1.
        curve = efficiency_vs_alpha_curve([1100.0], 1000)
        assert curve.energy[0] == 0.0 and curve.efficiency[0] is None
        assert math.copysign(1.0, curve.entropy[0]) == 1.0 and curve.entropy[0] == 0.0
        assert curve.entropy_reduction[0] == math.log(1000)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            efficiency_vs_alpha_curve([], 1000)
        with pytest.raises(DomainError):
            efficiency_vs_alpha_curve([2.0, 1.5], 1000)  # not increasing
        with pytest.raises(DomainError):
            efficiency_vs_alpha_curve([1.0], 1000)  # divergent exponent
        with pytest.raises(DomainError):
            efficiency_vs_alpha_curve([2.0], 9)  # truncation too small


class TestEnergyCurve:
    def test_monotone(self):
        grid = [1.2 + 0.05 * k for k in range(20)]
        curve = energy_curve(grid)
        assert np.all(np.diff(curve.energy) < 0)
        assert np.all(np.diff(curve.free_energy) > 0)

    def test_saturation_beyond_four(self):
        curve = energy_curve([1.5, 2.5, 4.0, 5.0])
        a = dict(zip(curve.alphas, curve.free_energy))
        assert abs(a[4.0] - a[5.0]) < abs(a[1.5] - a[2.5])

    def test_closed_forms(self):
        curve = energy_curve([2.0])
        assert curve.energy[0] == 1.0
        assert curve.free_energy[0] == pytest.approx(-0.24885015123537266, abs=1e-9)


class TestCurveSerialization:
    def test_csv_with_absent_columns(self):
        curve = energy_curve([1.5, 2.0])
        buf = io.StringIO()
        write_curve_csv(curve, buf, header_comment="cfg")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# cfg"
        assert lines[1] == "alpha,S,Q,R,E,A"
        # S, Q, R are absent on a closed-form curve.
        assert lines[2].split(",")[1:4] == ["", "", ""]
        assert float(lines[2].split(",")[4]) == 2.0

    def test_merge_requires_same_grid(self):
        f1 = efficiency_vs_alpha_curve([1.5, 2.0], 100)
        f2 = energy_curve([1.5, 2.5])
        with pytest.raises(DomainError):
            merge_curves(f1, f2)

    def test_merged_curve_has_all_columns(self):
        grid = [1.5, 2.0]
        merged = merge_curves(efficiency_vs_alpha_curve(grid, 100), energy_curve(grid))
        assert merged.entropy is not None
        assert merged.free_energy is not None
        assert merged.energy[0] == 2.0  # closed form, not the truncated value
