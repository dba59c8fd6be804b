"""Certificate functionals: variation functionals, bands, kernels."""

from fractions import Fraction

import numpy as np
import pytest

from greenlab import groups
from greenlab.functionals import (DegenerateBracketError, delta, epsilon,
                                  eps_delta_band_check, martin_kernel,
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


class SourcesOnly:
    """A provider serving the rows of `sources` alone, as a GreenTable does:
    reading any other row raises KeyError, so a kernel that reads the row
    of a target fails."""

    def __init__(self, provider, sources):
        self.provider, self.sources = provider, list(sources)

    def bracket_row(self, a, xs):
        if a not in self.sources:
            raise KeyError(f"{a!r} is not a tabulated source")
        return self.provider.bracket_row(a, xs)


class DriftedZ:
    """The full G of the nearest-neighbour walk on Z with p(+1) = p >
    q = p(-1): G(a, x) = (q/p)^max(a - x, 0) / (p - q), so G(a, x) differs
    from G(x, a) whenever a != x."""

    p, q = 0.7, 0.3

    def bracket_row(self, a, xs):
        v = np.array([(self.q / self.p) ** max(a[0] - x[0], 0) / (self.p - self.q)
                      for x in xs])
        return v, v, v


class TestMartinKernel:
    def test_identity_base(self, z3_scan_tables):
        values, errors = martin_kernel([E3], E3, [(5, 5, 0)], z3_scan_tables[6])
        assert values.shape == errors.shape == (1, 1)
        assert values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= errors[0, 0] < 1e-8

    def test_tree_value_three(self, tree):
        # x = t, y starting with t at distance 4: K = q = 3
        values, errors = martin_kernel([(1,)], (), [(1, 2, -1, 2)],
                                       SourcesOnly(tree, [(1,), ()]))
        assert values[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert errors[0, 0] == 0.0

    def test_z3_kernel_tends_to_one(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 34, with_boundary=False)
        prov = killed_green_solve(om, [E3, E1], mu, tol=1e-11)
        k8, k16 = martin_kernel([E1], E3, [(8, 0, 0), (16, 0, 0)], prov)[0][0]
        assert abs(k16 - 1) < abs(k8 - 1)

    def test_degenerate_bracket_rejected(self, z3_scan_tables):
        class ZeroBracket:
            def bracket_row(self, a, xs):
                zero = np.zeros(len(xs))
                return zero, zero, zero

        with pytest.raises(DegenerateBracketError):
            martin_kernel([E1], E3, [(2, 0, 0)], ZeroBracket())

    def test_reads_the_rows_of_probes_and_base(self):
        # on a drifted walk G(a, x) != G(x, a): K must be row(v) / row(base),
        # exactly (q/p)^(max(v - x, 0) - max(base - x, 0))
        prov = DriftedZ()
        probes, base = [(-3,), (0,), (2,), (5,)], (1,)
        targets = [(-4,), (0,), (3,), (7,)]
        values, errors = martin_kernel(probes, base, targets,
                                       SourcesOnly(prov, probes + [base]))
        r = prov.q / prov.p
        want = [[r ** (max(v - x, 0) - max(base[0] - x, 0)) for (x,) in targets]
                for (v,) in probes]
        assert values.tolist() == [pytest.approx(w, rel=1e-12) for w in want]
        assert (errors == 0.0).all()
        swapped = [[r ** (max(x - v, 0) - max(x - base[0], 0)) for (x,) in targets]
                   for (v,) in probes]
        assert not np.allclose(values, swapped)

    def test_tree_rays_match_closed_form(self, tree):
        # G(x, y) / G(e, y) = q^(|y| - d(x, y)) is the ray kernel
        # K(x, xi) = q^(2 c(x) - |x|) as soon as y lies on the ray at
        # length >= |x|
        rng = np.random.default_rng(2828)
        probes = sorted(reference_ball(F2, 3))
        for _ in range(5):
            word = [int(rng.choice([1, -1, 2, -2]))]
            while len(word) < 10:
                letter = int(rng.choice([1, -1, 2, -2]))
                if letter != -word[-1]:
                    word.append(letter)
            ray = tuple(word)
            targets = [ray[:m] for m in range(3, 11)]
            values, errors = martin_kernel(probes, (), targets,
                                           SourcesOnly(tree, probes + [()]))
            for v, row in zip(probes, values.tolist()):
                exact = float(tree_martin_kernel(F2, ray, v))
                assert row == pytest.approx([exact] * len(targets), rel=1e-12)
            assert (errors == 0.0).all()


class TestKernelSequence:
    """psi_k(v) = K(v, x_k) along a target sequence x_k."""

    def test_psi_domination_by_green_comparison(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 16, with_boundary=False)
        targets = [(6, 0, 0), (0, 8, 0)]
        probes = [E1, (1, 1, 0), (2, 0, 0)]
        prov = killed_green_solve(om, probes + [E3], mu, tol=1e-12)
        psi = martin_kernel(probes, E3, targets, prov)[0]
        rho = 1 / 6
        for i, v in enumerate(probes):
            bound = rho ** -groups.word_length(Z3, v)
            assert np.all(psi[i] <= bound + 1e-9)

    def test_f2_ray_limit_three(self, tree):
        # psi_k(t) -> 3 along a ray through t
        targets = [(1, 2) * k for k in (2, 3, 4)]
        psi = martin_kernel([(1,)], (), targets, SourcesOnly(tree, [(1,), ()]))[0]
        assert np.allclose(psi[0], 3.0, atol=1e-12)


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
        values, errors = martin_kernel([(1,)], (), [(1, 2, -1, 2)],
                                       SourcesOnly(RowOnlyTree(), [(1,), ()]))
        assert values[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert errors[0, 0] == 0.0

    def test_normalized_kernel_sequence(self, tree):
        # psi_k(v) = K(v, x_k) normalised at the base e, along a ray
        targets = [(1, 2) * k for k in (2, 3, 4)]
        probes = [(1,), (2,), (1, 2)]
        values, errors = martin_kernel(
            probes, (), targets, SourcesOnly(RowOnlyTree(), probes + [()]))
        assert np.allclose(values.T, [[3.0, 1 / 3, 9.0]] * 3, rtol=1e-14)
        assert (errors == 0.0).all()
        ref = martin_kernel(probes, (), targets, tree)[0]
        assert np.array_equal(values, ref)


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
