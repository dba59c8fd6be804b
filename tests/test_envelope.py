"""Envelope package: tails, Tauberian verdicts, return series, parity bridge."""

from fractions import Fraction
from math import comb, factorial, fsum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlab import groups
from greenlab.envelope import (Envelope, EnvelopeSpec, near_diag_tail_exact,
                               on_diagonal_probe, return_series,
                               return_series_tree, tr_alpha_ratio)
from greenlab.green import TreeGreenOracle, ball_domain
from greenlab.measures import (StepMeasure, convolve_z, lazy_transform,
                               pmf_from_dict, uniform_on_generators)

Z1 = groups.integer_lattice(1)
Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


def spec32(phi, alpha=1.0):
    return EnvelopeSpec(3.0, 2.0, phi, alpha=alpha)


def parity_slack(series, k_max: int) -> float:
    """min over 1 <= k <= k_max of sqrt(p_2floor(k/2) p_2ceil(k/2)) - p_k."""
    k = np.arange(1, k_max + 1)
    return float(np.min(np.sqrt(series[2 * (k // 2)] * series[2 * ((k + 1) // 2)])
                        - series[k]))


STRETCHED = Envelope("stretched", eta=1.0, c=1.0)


class TestEnvelopeSpec:
    def test_transience_required(self):
        with pytest.raises(ValueError):
            EnvelopeSpec(2.0, 2.0, STRETCHED)

    def test_n_minus_threshold(self):
        s = spec32(STRETCHED)
        assert s.n_minus(1.0) == 1
        assert s.n_minus(3.0) == 9
        assert s.n_minus(3.5) == 13      # ceil(12.25)


class TestNearDiagTail:
    @given(s=st.floats(1.05, 4.0), gamma=st.floats(0.5, 2.0),
           m=st.integers(1, 10 ** 4), extra=st.integers(0, 10 ** 4))
    def test_zeta_within_partial_sum_bracket(self, s, gamma, m, extra):
        # zeta(s, m) = sum_{n >= m} n^{-s} lies in [S_H, S_H + H^{1-s}/(s-1)],
        # S_H the sum over m <= n <= H (the tail is below its integral);
        # 1e-13 covers the rounding of the sum and of scipy's zeta
        spec = EnvelopeSpec(s * gamma, gamma, STRETCHED)
        s = spec.d_star / spec.gamma
        horizon = m + extra
        partial = fsum(np.arange(m, horizon + 1, dtype=np.float64) ** -s)
        tail = horizon ** (1.0 - s) / (s - 1.0)
        value = near_diag_tail_exact(spec, m)
        assert partial * (1 - 1e-13) <= value <= (partial + tail) * (1 + 1e-13)

    def test_zeta_three_halves(self):
        assert near_diag_tail_exact(spec32(STRETCHED), 1) == pytest.approx(
            2.6123753486854883, abs=1e-14)

    def test_limit_ratio(self):
        # A(m) m^{d*/gamma - 1} -> gamma/(d* - gamma) = 2 for (3, 2)
        s = spec32(STRETCHED)
        m = 10 ** 6
        assert near_diag_tail_exact(s, m) * m ** 0.5 == pytest.approx(2.0, abs=1e-5)


GRID = np.logspace(0.5, 5.0, 19)      # 4 points per decade


class TestTauberian:
    def test_stretched_bounded(self):
        rep = tr_alpha_ratio(spec32(STRETCHED), GRID)
        assert rep.verdict == "bounded"

    def test_polynomial_at_safe_exponent(self):
        rep = tr_alpha_ratio(spec32(Envelope("polynomial", delta=5.0)), GRID)
        assert rep.verdict == "bounded"       # delta = d* + gamma

    def test_polynomial_below_threshold_diverges(self):
        rep = tr_alpha_ratio(spec32(Envelope("polynomial", delta=1.5)), GRID)
        assert rep.verdict == "diverging"
        assert rep.decade_growth >= 2.0       # grows like r^{1/2} per decade

    @pytest.mark.parametrize("d_star,gamma,alpha", [(3, 2, 1), (4, 2, 1),
                                                    (3, 1, 0.5)])
    def test_verdict_flips_at_threshold(self, d_star, gamma, alpha):
        threshold = d_star + alpha - gamma
        for off in (0.25, 0.5):
            above = EnvelopeSpec(d_star, gamma,
                                 Envelope("polynomial", delta=threshold + off),
                                 alpha=alpha)
            below = EnvelopeSpec(d_star, gamma,
                                 Envelope("polynomial", delta=threshold - off),
                                 alpha=alpha)
            assert tr_alpha_ratio(above, GRID).verdict == "bounded"
            assert tr_alpha_ratio(below, GRID).verdict == "diverging"

    def test_positive_entries(self):
        rep = tr_alpha_ratio(spec32(STRETCHED), GRID)
        assert np.all(rep.lhs > 0) and np.all(rep.rhs > 0)


class TestReturnSeries:
    def test_z3_two_step(self):
        series = return_series(Z3, srw(Z3), 2)
        assert series[0] == 1.0 and series[1] == 0.0
        assert series[2] == pytest.approx(1 / 6, abs=1e-15)

    def test_z1_series_is_the_central_binomial(self):
        z1 = groups.integer_lattice(1)
        series = return_series(z1, srw(z1), 40)
        want = [comb(2 * n, n) / 4 ** n for n in range(21)]
        assert series[::2].tolist() == pytest.approx(want, rel=1e-13, abs=0)
        assert not series[1::2].any()

    def test_z3_series_is_the_trinomial_sum(self):
        # p_2n = 6^{-2n} sum_{i+j+k=n} (2n)! / (i! j! k!)^2, in exact Fractions
        series = return_series(Z3, srw(Z3), 40)
        want = [float(Fraction(sum(factorial(2 * n)
                                   // (factorial(i) * factorial(j)
                                       * factorial(n - i - j)) ** 2
                                   for i in range(n + 1)
                                   for j in range(n + 1 - i)), 36 ** n))
                for n in range(21)]
        assert series[::2].tolist() == pytest.approx(want, rel=1e-13, abs=0)
        assert not series[1::2].any()

    @pytest.mark.parametrize("d", [1, 3])
    def test_identity_only_law_stays_home(self, d):
        # no step leaves e: the window is the one point e and p_n = 1
        spec = groups.integer_lattice(d)
        mu = StepMeasure(spec, "finite", "stay", probs={(0,) * d: 1.0})
        assert return_series(spec, mu, 7).tolist() == [1.0] * 8

    def test_tree_series_against_word_convolution(self):
        # brute-force word-level convolution oracle for small m
        mu = srw(F2)
        dist = {(): 1.0}
        oracle_vals = [1.0]
        for _ in range(6):
            new = {}
            for w, p in dist.items():
                for s in mu.support_elements():
                    v = groups.mul(F2, w, s)
                    new[v] = new.get(v, 0.0) + p * 0.25
            dist = new
            oracle_vals.append(dist.get((), 0.0))
        series = return_series_tree(2, 6)
        assert np.allclose(series, oracle_vals, atol=1e-14)

    def test_lazy_tree_series_mass(self):
        series = return_series_tree(2, 10, laziness=0.5)
        assert series[1] == pytest.approx(0.5, abs=1e-15)
        assert np.all(np.diff(series[::2]) <= 0)


class TestOnDiagonal:
    def test_z3_probe(self):
        rep = on_diagonal_probe(Z3, srw(Z3), 6)
        assert rep.p2m[0] == pytest.approx(1 / 6, abs=1e-15)

    def test_f2_log_convexity(self):
        # p_{2m} is a moment sequence: p_{2(m-1)} p_{2(m+1)} >= p_{2m}^2
        rep = on_diagonal_probe(F2, srw(F2), 16)
        p = rep.p2m
        assert np.all(p[:-2] * p[2:] >= p[1:-1] ** 2 * (1 - 1e-12))

    def test_f2_kesten_rate(self):
        rep = on_diagonal_probe(F2, srw(F2), 40)
        # three-parameter fit pins the exponential rate at 2 log(sqrt(3)/2)
        assert abs(rep.rate - 2 * np.log(np.sqrt(3) / 2)) < 0.01
        assert -1.6 < rep.rate_poly < -0.8     # polynomial correction ~ m^-3/2


class TestParityBridge:
    def test_srw_z_k3_term(self):
        # nu^(3)(e) = 0 <= sqrt(nu^(2) nu^(4)) = sqrt(0.5 * 0.375) = 0.433
        series = [1.0, 0.0, 0.5, 0.0, 0.375]
        k = 3
        bound = np.sqrt(series[2 * (k // 2)] * series[2 * ((k + 1) // 2)])
        assert bound == pytest.approx(0.43301, abs=1e-5)
        worst = parity_slack(np.array(series + [0.0, 0.3125]), k_max=3)
        assert worst >= -1e-15

    def test_even_k_equality(self):
        series = return_series(Z3, srw(Z3), 8)
        for k in (2, 4, 6):
            bound = np.sqrt(series[2 * (k // 2)] * series[2 * ((k + 1) // 2)])
            assert bound == pytest.approx(series[k], abs=1e-15)

    def test_lazy_z3_and_f2_no_violations(self):
        lazy3 = lazy_transform(srw(Z3), 0.5)
        assert parity_slack(return_series(Z3, lazy3, 20), 20) >= -1e-12
        assert parity_slack(return_series(F2, srw(F2), 20), 20) >= -1e-12
        assert parity_slack(return_series(Z3, srw(Z3), 20), 20) >= -1e-12

    def test_hundred_random_symmetric_pmfs(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            half = rng.random(rng.integers(1, 5))
            mid = rng.random()
            vals = np.concatenate([half[::-1], [mid], half])
            vals /= vals.sum()
            lo = -len(half)
            mu = StepMeasure(Z1, "finite", "symmetric-z",
                             probs={(lo + i,): v for i, v in enumerate(vals)})
            assert parity_slack(return_series(Z1, mu, 20), 20) >= -1e-11


class TestReturnSeriesAgainstConvolution:
    """The stencil recursion of return_series against the mass at 0 of the
    n-fold convolution power, the two exact mechanisms on Z."""

    @staticmethod
    def convolution_series(mu, n_max: int) -> list:
        pmf = pmf_from_dict({k: p for (k,), p in mu.probs.items()})
        cap = n_max * max(abs(pmf.lo), abs(pmf.hi))
        out, power = [1.0], pmf
        for _ in range(n_max):
            out.append(power.at(0))
            power = convolve_z(power, pmf, cap)
        return out

    def test_random_symmetric_laws(self, symmetric_z_laws):
        for mu in symmetric_z_laws:
            want = self.convolution_series(mu, 22)
            assert np.max(np.abs(return_series(Z1, mu, 22) - want)) <= 1e-15

    def test_law_with_asymmetric_support(self):
        mu = StepMeasure(Z1, "finite", "skew-z",
                         probs={(-1,): 0.2, (0,): 0.5, (2,): 0.3})
        got = return_series(Z1, mu, 22)
        assert got[3] > 0.0
        assert np.max(np.abs(got - self.convolution_series(mu, 22))) <= 1e-15


class TestGrowthSumProbe:
    def test_constant_two_series(self):
        # sum of G(e, y) over the sphere S(e, n+1), the boundary of B(e, n):
        # |S| (q/(q-1)) q^{-(n+1)} = 2 on F_2 for every n
        oracle = TreeGreenOracle(srw(F2))
        sums = []
        for n in range(5):
            bdry = ball_domain(F2, srw(F2), n).boundary
            sums.append(len(bdry) * oracle.green((), bdry[0]))
        assert np.allclose(sums, 2.0, atol=1e-12)
