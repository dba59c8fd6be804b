"""Certificate functionals: variation functionals, bands, kernels."""

from fractions import Fraction

import numpy as np
import pytest

from greenlab import groups
from greenlab.functionals import (DegenerateBracketError, delta, epsilon,
                                  eps_delta_band_check, martin_kernel,
                                  normalized_kernel_sequence,
                                  tree_martin_kernel)
from greenlab.green import (TreeGreenOracle, ball_domain, exit_distribution,
                            killed_green_solve)
from greenlab.measures import lazy_transform, uniform_on_generators
from word_ball_oracle import reference_ball

Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
E3 = (0, 0, 0)
E1 = (1, 0, 0)


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


@pytest.fixture(scope="module")
def tree():
    return TreeGreenOracle(srw(F2))


@pytest.fixture(scope="module")
def z3_scan_tables():
    """Enclosing-rule tables for scales 4..10 with sources (0, e1)."""
    mu = srw(Z3)
    out = {}
    for r in (4, 6, 8, 10):
        om = ball_domain(Z3, mu, 2 * r + 2, with_boundary=False)
        out[r] = killed_green_solve(om, [E3, E1], mu, tol=1e-12)
    return out


class TestDelta:
    def test_equal_basepoints_zero(self, tree):
        dom = ball_domain(F2, srw(F2), 3)
        row = delta(dom, (1,), (1,), tree)
        assert row.value == 0.0 and row.err == 0.0

    def test_f2_constant_two(self, tree):
        mu = srw(F2)
        for n in (1, 2, 5, 8):
            dom = ball_domain(F2, mu, n)
            row = delta(dom, (), (1,), tree, scale=n)
            assert row.value == pytest.approx(2.0, abs=1e-12)
            # max-ratio boundary points start with the generator letter
            assert row.argmax[0] == 1

    def test_z3_strictly_decreasing(self, z3_scan_tables):
        mu = srw(Z3)
        vals = []
        for r in (6, 8, 10):
            dom = ball_domain(Z3, mu, r)
            vals.append(delta(dom, E3, E1, z3_scan_tables[r], scale=r).value)
        assert vals[0] > vals[1] > vals[2] > 0

    def test_lazification_invariance(self):
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 4)
        om = ball_domain(Z3, mu, 10, with_boundary=False)
        base = delta(dom, E3, E1,
                     killed_green_solve(om, [E3, E1], mu, method="direct")).value
        for eps in (0.25, 0.5):
            lz = lazy_transform(mu, eps)
            v = delta(dom, E3, E1,
                      killed_green_solve(om, [E3, E1], lz, method="direct")).value
            assert abs(v - base) < 1e-10

    def test_argmax_deterministic(self, z3_scan_tables):
        dom = ball_domain(Z3, srw(Z3), 6)
        a1 = delta(dom, E3, E1, z3_scan_tables[6]).argmax
        a2 = delta(dom, E3, E1, z3_scan_tables[6]).argmax
        assert a1 == a2

    def test_basepoint_on_boundary_rejected(self, tree):
        dom = ball_domain(F2, srw(F2), 2)
        with pytest.raises(ValueError):
            delta(dom, (), (1, 2, 1), tree)


class TestEpsilon:
    def test_equal_basepoints(self):
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 3)
        (pa,) = exit_distribution(dom, [E3], mu)
        res = epsilon(dom, pa, pa)
        assert res.value == 0.0

    def test_factorisation_gives_pointwise_equality(self):
        # when mu_S(p, x) = c_S(x) G(p, x) / G(o, x) exactly, the two
        # variation functionals agree pointwise (synthetic check of the
        # cancellation algebra)
        rng = np.random.default_rng(8)
        g_a, g_b, g_o = rng.random(12) + 0.5, rng.random(12) + 0.5, rng.random(12) + 0.5
        c = rng.random(12) + 0.1
        mu_a, mu_b = c * g_a / g_o, c * g_b / g_o
        eps_pt = np.abs(mu_a - mu_b) / mu_a
        del_pt = np.abs(g_a - g_b) / g_a
        assert np.allclose(eps_pt, del_pt, rtol=1e-12)

    def test_z3_band(self, z3_scan_tables):
        mu = srw(Z3)
        etas = []
        for r in (6, 10):
            dom = ball_domain(Z3, mu, r)
            chk = eps_delta_band_check(dom, E3, E1, mu, z3_scan_tables[r])
            # the row the eps-delta runner reports
            assert chk.delta_row == delta(dom, E3, E1, z3_scan_tables[r])
            assert not chk.void
            assert chk.band_ok
            etas.append(chk.eta_hat)
        assert etas[1] < etas[0]        # eta ~ O(1/R)

    def test_origin_basepoint_degenerates(self, z3_scan_tables):
        # a = o makes theta vanish for that basepoint; with b = a = o the
        # band collapses to epsilon = delta = 0
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 4)
        chk = eps_delta_band_check(dom, E3, E3, mu, z3_scan_tables[4])
        assert chk.eta_hat == 0.0
        assert chk.delta_row.value == 0.0 and chk.epsilon_value == 0.0
        assert chk.band_ok


class TestMartinKernel:
    def test_identity_base(self, z3_scan_tables):
        s = martin_kernel(Z3, E3, (5, 5, 0), z3_scan_tables[6])
        assert s.value == pytest.approx(1.0, abs=1e-12)

    def test_tree_value_three(self, tree):
        # x = t, y starting with t at distance 4: K = q = 3
        y = (1, 2, -1, 2)
        s_num = tree.green((1,), y) / tree.green((), y)
        assert s_num == pytest.approx(3.0, abs=1e-12)

    def test_z3_kernel_tends_to_one(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 34, with_boundary=False)
        prov = killed_green_solve(om, [E3, E1], mu, tol=1e-11)
        k8 = martin_kernel(Z3, E1, (8, 0, 0), prov).value
        k16 = martin_kernel(Z3, E1, (16, 0, 0), prov).value
        assert abs(k16 - 1) < abs(k8 - 1)

    def test_degenerate_bracket_rejected(self, z3_scan_tables):
        class ZeroBracket:
            def bracket_row(self, a, xs):
                zero = np.zeros(len(xs))
                return zero, zero, zero

        with pytest.raises(DegenerateBracketError):
            martin_kernel(Z3, E1, (2, 0, 0), ZeroBracket())


class TestKernelSequence:
    def test_psi_at_base_is_one_and_defects_vanish(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 16, with_boundary=False)
        targets = [(6, 0, 0), (0, 8, 0), (10, 0, 0)]
        prov = killed_green_solve(om, targets, mu, tol=1e-12)
        probes = [E3, E1, (1, 1, 0), (0, 0, 2)]
        seq = normalized_kernel_sequence(probes, E3, targets, mu, prov, Z3)
        assert np.allclose(seq.psi[:, 0], 1.0, atol=1e-12)
        # defect vanishes when the target is not in the probe's one-step
        # neighborhood (solver-exact one-step identity)
        assert seq.defects.max() < 1e-8

    def test_psi_domination_by_green_comparison(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 16, with_boundary=False)
        targets = [(6, 0, 0), (0, 8, 0)]
        prov = killed_green_solve(om, targets, mu, tol=1e-12)
        probes = [E1, (1, 1, 0), (2, 0, 0)]
        seq = normalized_kernel_sequence(probes, E3, targets, mu, prov, Z3)
        rho = 1 / 6
        for i, v in enumerate(probes):
            bound = rho ** -groups.word_length(Z3, v)
            assert np.all(seq.psi[:, i] <= bound + 1e-9)

    def test_f2_ray_limit_three(self, tree):
        # psi_k(t) -> 3 along a ray through t
        targets = [(1, 2) * k for k in (2, 3, 4)]
        seq = normalized_kernel_sequence([(1,)], (), targets, srw(F2), tree, F2)
        assert np.allclose(seq.psi[:, 0], 3.0, atol=1e-12)

    def test_distinct_targets_required(self, tree):
        with pytest.raises(ValueError):
            normalized_kernel_sequence([()], (), [(1,), (1,)], srw(F2), tree, F2)


class RowOnlyTree:
    """A provider with bracket_row alone, from the F_2 closed form
    G(a, x) = (3/2) 3^{-|a^{-1} x|}."""

    def bracket_row(self, a, xs):
        v = np.array([1.5 * 3.0 ** -len(groups.mul(F2, groups.inv(F2, a), x))
                      for x in xs])
        return v, v, v


class TestOneMethodProtocol:
    """Every Green consumer runs on a provider that defines bracket_row
    and nothing else."""

    def test_delta(self, tree):
        dom = ball_domain(F2, srw(F2), 3)
        row = delta(dom, (), (1,), RowOnlyTree())
        assert row.value == pytest.approx(2.0, abs=1e-12) and row.err == 0.0
        assert row.argmax == delta(dom, (), (1,), tree).argmax

    def test_martin_kernel(self):
        s = martin_kernel(F2, (1,), (1, 2, -1, 2), RowOnlyTree())
        assert s.value == pytest.approx(3.0, abs=1e-12) and s.err == 0.0

    def test_normalized_kernel_sequence(self, tree):
        targets = [(1, 2) * k for k in (2, 3, 4)]
        probes = [(1,), (2,), (1, 2)]
        seq = normalized_kernel_sequence(probes, (), targets, srw(F2),
                                         RowOnlyTree(), F2)
        assert np.allclose(seq.psi, [[3.0, 1 / 3, 9.0]] * 3, rtol=1e-14)
        assert seq.defects.max() < 1e-14
        ref = normalized_kernel_sequence(probes, (), targets, srw(F2), tree, F2)
        assert np.array_equal(seq.psi, ref.psi)


class TestTreeMartinKernel:
    def test_identity(self):
        assert tree_martin_kernel(F2, (1, 2, 1, 2), ()) == 1

    def test_on_ray_power(self):
        ray = (1, 2, 1, 2, 1, 2, 1, 2)
        for n in (1, 2, 3):
            x = ray[:n]
            assert tree_martin_kernel(F2, ray, x) == Fraction(3) ** n

    def test_harmonicity_exact_rational(self):
        rng = np.random.default_rng(31)
        rays = []
        for _ in range(10):
            word = [int(rng.integers(1, 3))]
            while len(word) < 10:
                nxt = int(rng.integers(1, 5))
                letter = [1, -1, 2, -2][nxt - 1]
                if letter != -word[-1]:
                    word.append(letter)
            rays.append(tuple(word))
        gens = groups.standard_generators(F2)
        for ray in rays:
            for x in sorted(reference_ball(F2, 6)):
                k = tree_martin_kernel(F2, ray, x)
                avg = sum(tree_martin_kernel(F2, ray, groups.mul(F2, x, t))
                          for t in gens) / 4
                assert k == avg

    def test_exponential_band_is_exact_power(self):
        rng = np.random.default_rng(77)
        c_lo, c_hi = np.log(3) - 0.01, np.log(3) + 0.01
        for _ in range(10):
            word = [int([1, -1, 2, -2][rng.integers(4)])]
            while len(word) < 9:
                letter = int([1, -1, 2, -2][rng.integers(4)])
                if letter != -word[-1]:
                    word.append(letter)
            ray = tuple(word)
            for r in (2, 4, 6):
                sup = max(tree_martin_kernel(F2, ray, x)
                          for x in reference_ball(F2, r))
                assert sup == Fraction(3) ** r
                assert np.exp(c_lo * r) <= float(sup) <= np.exp(c_hi * r)

    def test_distinct_rays_non_proportional(self):
        ray1, ray2 = (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1)
        ratios = {tree_martin_kernel(F2, ray1, x) / tree_martin_kernel(F2, ray2, x)
                  for x in reference_ball(F2, 3)}
        assert len(ratios) > 1

    def test_decay_away_from_pole(self):
        ray = (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        vals = [tree_martin_kernel(F2, ray, (2,) * n) for n in range(1, 5)]
        for n, v in enumerate(vals, start=1):
            assert v == Fraction(1, 3) ** n
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_prefix_too_short(self):
        with pytest.raises(ValueError):
            tree_martin_kernel(F2, (1, 2), (1, 2))
