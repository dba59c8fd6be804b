"""Step laws: construction, exact pmfs, sampling, convolution."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import greenlab
from greenlab import groups, measures
from greenlab.groups import identity
from greenlab.measures import (PmfOnZ, SAMPLE_HEAD, SHELL_SAMPLE_RADIUS_MAX,
                               STABLE_SAMPLE_MAGNITUDE_MAX, UNIT_MASS,
                               convolve_z, first_moment_partial, lazy_transform,
                               pmf_from_dict, self_convolution_powers,
                               shell_measure, shell_norm_constant,
                               stable_z_measure, total_variation_shift,
                               uniform_on_generators)
from running_max_oracle import radius_mass

Z1 = groups.integer_lattice(1)
Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
H = groups.heisenberg()

# Frozen oracle value: direct summation of sum_{r>=3} 1/(r^2 ln r) to 1e7
# plus integral tail bound (see shell_norm_constant).
SHELL_Z_R0_3 = 0.2448480726


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


class TestUniform:
    def test_pmf_values(self):
        assert srw(Z3).pmf((1, 0, 0)) == pytest.approx(1 / 6, abs=1e-15)
        assert srw(F2).pmf((1,)) == pytest.approx(1 / 4, abs=1e-15)
        assert srw(H).pmf((0, 1, 0)) == pytest.approx(1 / 4, abs=1e-15)

    def test_symmetric_flag(self):
        mu = srw(Z3)
        for g in mu.support_elements():
            assert mu.pmf(g) == mu.pmf(groups.inv(Z3, g))

    def test_empty_generators_rejected(self):
        with pytest.raises(Exception):
            uniform_on_generators(
                groups.GeneratorSet(Z3, ()))  # empty set fails construction


class TestLazy:
    def test_definition(self):
        lz = lazy_transform(srw(Z3), 0.5)
        assert lz.pmf((0, 0, 0)) == pytest.approx(0.5, abs=1e-15)
        assert lz.pmf((1, 0, 0)) == pytest.approx(1 / 12, abs=1e-15)

    def test_zero_is_identity(self):
        mu = srw(Z3)
        assert lazy_transform(mu, 0.0) is mu

    def test_double_lazification(self):
        lz = lazy_transform(lazy_transform(srw(Z3), 0.5), 0.5)
        assert lz.pmf((0, 0, 0)) == pytest.approx(0.75, abs=1e-15)

    def test_pmf_identity_exact(self):
        # lazy(mu, eps).pmf(g) = eps [g = e] + (1 - eps) mu.pmf(g), exactly
        mu = srw(F2)
        for eps in (0.25, 0.5, 0.9):
            lz = lazy_transform(mu, eps)
            for g in mu.support_elements():
                assert lz.pmf(g) == eps * (g == ()) + (1 - eps) * mu.pmf(g)
            assert lz.pmf(()) == eps

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lazy_transform(srw(Z3), 1.0)


class TestShell:
    def test_norm_constant_oracle(self):
        assert 1.0 / shell_norm_constant(3) == pytest.approx(SHELL_Z_R0_3, abs=1e-6)

    def test_r0_validation(self):
        with pytest.raises(ValueError):
            shell_measure(H, r0=2)

    def test_two_sided_shell_bounds(self):
        mu = shell_measure(H, r0=3)
        c1, c2 = mu.shell_constants()
        assert 0 < c1 <= c2
        for r in [3, 4, 7, 19, 160, 4096, 10 ** 4]:
            pr = radius_mass(mu, r)
            assert c1 / (r * r * np.log(r)) <= pr * (1 + 1e-12)
            assert pr <= c2 / (r * r * np.log(r)) * (1 + 1e-12)

    def test_normalization_with_tail_rule(self):
        # partial radius sums plus the measure's own analytic tail rule give
        # total mass 1 within 1e-12
        mu = shell_measure(H, r0=3)
        hi = 10 ** 7
        acc = 0.0
        for lo in range(3, hi, 10 ** 6):
            r = np.arange(lo, min(lo + 10 ** 6, hi), dtype=np.float64)
            acc += float(np.sum(mu.shell_norm / (r * r * np.log(r))))
        acc += mu.shell_norm / (hi * np.log(hi))     # analytic tail rule
        total = UNIT_MASS + (1.0 - UNIT_MASS) * acc
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_on_axis_powers(self):
        mu = shell_measure(H, r0=3)
        pr = mu.shell_constants()[0] / (25 * np.log(5))
        # four direction choices x^{+-5}, y^{+-5} split the radius mass
        assert mu.pmf((5, 0, 0)) == pytest.approx(pr / 4, rel=1e-12)
        assert mu.pmf((0, -5, 0)) == pytest.approx(pr / 4, rel=1e-12)
        assert mu.pmf((5, 5, 0)) == 0.0
        assert mu.pmf((2, 0, 0)) == 0.0       # below r0, not a unit generator
        assert mu.pmf((1, 0, 0)) == pytest.approx(UNIT_MASS / 4, rel=1e-12)


class TestStable:
    def test_alpha_one_constant(self):
        mu = stable_z_measure(1.0)
        # normalization 2 C zeta(2) = 1 gives C = 3/pi^2
        assert mu.pmf((1,)) == pytest.approx(3 / np.pi ** 2, abs=1e-12)
        assert mu.pmf((1,)) == pytest.approx(0.30396, abs=5e-6)

    def test_symmetry(self):
        mu = stable_z_measure(1.0)
        ks = np.arange(1, 10 ** 4 + 1)
        for k in ks[:: 997]:
            assert mu.pmf((int(k),)) == mu.pmf((int(-k),))

    def test_tail_sum_stabilizes(self):
        mu = stable_z_measure(1.0)
        two_c = 2 * mu.c_alpha
        for x in (10 ** 3, 10 ** 4):
            tail = 2 * mu.c_alpha * float(special.polygamma(1, x + 1))
            assert x * tail == pytest.approx(two_c, rel=2e-3)
        assert two_c == pytest.approx(0.608, abs=5e-4)

    def test_alpha_range(self):
        for bad in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                stable_z_measure(bad)

    def test_aperiodicity_gcd(self):
        mu = stable_z_measure(1.2)
        assert mu.pmf((1,)) > 0 and mu.pmf((2,)) > 0
        # gcd of support differences is 1 (checked on {1, 2})
        assert np.gcd(2 - 1, 1 - (-1)) == 1


class TestSampling:
    def test_f2_generator_frequencies_4sigma(self):
        mu = srw(F2)
        rng = np.random.default_rng(2024)
        n = 10 ** 6
        draws = mu.sample_support_index(rng, n)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert len(mu.support_elements()) == 4
        for i in range(4):
            freq = (draws == i).mean()
            assert abs(freq - 0.25) < 4 * sigma

    def test_lazy_identity_frequency(self):
        mu = lazy_transform(srw(Z3), 0.5)
        rng = np.random.default_rng(5)
        n = 10 ** 5
        draws = mu.sample_steps(rng, n)
        freq = (draws == 0).all(axis=1).mean()
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_support_index_is_one_choice(self):
        mu = lazy_transform(srw(Z3), 0.25)
        sup = mu.support_elements()
        assert identity(Z3) in sup
        w = np.array([mu.pmf(s) for s in sup])
        got = mu.sample_support_index(np.random.default_rng(8), 500)
        want = np.random.default_rng(8).choice(len(sup), size=500, p=w / w.sum())
        assert (got == want).all()
        rows = mu.sample_steps(np.random.default_rng(8), 500)
        assert rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == [sup[i] for i in want]

    def test_lazy_transform_rebuilds_support_law(self):
        mu = srw(Z3)
        mu.sample_support_index(np.random.default_rng(0), 3)
        lazy = lazy_transform(mu, 0.5)
        draws = lazy.sample_steps(np.random.default_rng(1), 4000)
        assert abs((draws == 0).all(axis=1).mean() - 0.5) < 0.05

    @pytest.mark.parametrize("spec", [Z3, H])
    def test_shell_steps_draw_order(self, spec):
        # one length (laziness and unit steps included), then one direction
        mu = lazy_transform(shell_measure(spec, r0=3), 0.3)
        got = mu.sample_steps(np.random.default_rng(12), 300)
        rng = np.random.default_rng(12)
        radii = mu.sample_shell_radii(rng, 300)
        direction = rng.integers(0, 2 * len(mu.axes), size=300)
        assert set(np.unique(radii[radii < 3])) == {0, 1}
        # x^k is (k, 0, 0) and y^k is (0, k, 0) on Heis3, as on Z^3
        want = [tuple(int(radii[i]) * (1 if d % 2 == 0 else -1) * (j == mu.axes[d // 2])
                      for j in range(3))
                for i, d in enumerate(direction)]
        assert [tuple(r) for r in got.tolist()] == want

    def test_stable_steps_draw_order(self):
        mu = lazy_transform(stable_z_measure(1.0), 0.2)
        got = mu.sample_steps(np.random.default_rng(13), 300)
        rng = np.random.default_rng(13)
        u = rng.random(300)
        signs = rng.integers(0, 2, size=300) * 2 - 1
        # no tail redraw in these 300: the signs follow the one uniform each
        table = mu._stable_cdf
        mags = table.index(u)
        assert mags.max() < table.n - 1
        mags += table.start
        # sample_stable_ints draws the magnitudes alone, and sample_steps
        # signs them with the next draw
        ks = mu.sample_stable_ints(np.random.default_rng(13), 300)
        assert (ks == mags).all()
        assert got.shape == (300, 1) and (got[:, 0] == ks * signs).all()
        assert (ks == 0).any()

    def test_lazy_transform_rebuilds_length_tables(self):
        # the laziness is an atom of the length table, so a table built
        # before lazy_transform must not be carried over by replace()
        for mu in (shell_measure(H, r0=3), stable_z_measure(1.0)):
            draws = mu.sample_steps(np.random.default_rng(0), 10)
            assert (np.abs(draws).sum(axis=1) > 0).all()
            built = mu._radius_cdf or mu._stable_cdf
            lazy = lazy_transform(mu, 0.5)
            assert lazy._radius_cdf is None and lazy._stable_cdf is None
            draws = lazy.sample_steps(np.random.default_rng(1), 4000)
            assert (lazy._radius_cdf or lazy._stable_cdf) is not built
            assert abs((draws == 0).all(axis=1).mean() - 0.5) < 0.05

    def test_concurrent_first_draws_build_one_table(self, monkeypatch):
        # replica threads of the batched walker share a measure: its lazy
        # sampling table is built once however many threads draw first
        builds = []

        build = measures._GuidedCdf.__init__

        def counting(self, table):
            builds.append(len(table))
            build(self, table)

        monkeypatch.setattr(measures._GuidedCdf, "__init__", counting)
        mu = shell_measure(H, r0=3)
        barrier = threading.Barrier(4)

        def draw(seed):
            barrier.wait(timeout=30)
            return mu.sample_steps(np.random.default_rng(seed), 1000)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                draws = list(pool.map(draw, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        assert all(d.shape == (1000, 3) for d in draws)

    def test_coordinate_steps_need_coordinates(self):
        with pytest.raises(ValueError, match="coordinate steps"):
            srw(F2).sample_steps(np.random.default_rng(0), 3)

    def test_shell_radius_histogram_4sigma(self):
        mu = shell_measure(H, r0=3)
        rng = np.random.default_rng(99)
        n = 10 ** 6
        radii = mu.sample_shell_radii(rng, n)
        p_unit = UNIT_MASS
        assert abs((radii == 1).mean() - p_unit) < 4 * np.sqrt(p_unit / n)
        for r in range(3, 51):
            p = radius_mass(mu, r)
            freq = (radii == r).mean()
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n) + 1e-9

    def test_stable_draws_match_pmf(self):
        mu = stable_z_measure(1.0)
        rng = np.random.default_rng(123)
        n = 10 ** 5
        ks = mu.sample_stable_ints(rng, n)
        for k in (1, 2, 5):
            p = 2 * mu.pmf((k,))          # both signs
            freq = (np.abs(ks) == k).mean()
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)


def _sampler_table(kind, par):
    """The length table a shell (r0 = par) or stable (alpha = par) sampler
    builds on its first draw."""
    if kind == "shell":
        mu = shell_measure(H, r0=par)
        mu.sample_shell_radii(np.random.default_rng(0), 1)
        return mu._radius_cdf
    mu = stable_z_measure(par)
    mu.sample_stable_ints(np.random.default_rng(0), 1)
    return mu._stable_cdf


def _law_weights(kind, par, lo, hi):
    """The unnormalised weights of lengths lo..hi - 1 (shell radius
    r0 = par, stable magnitude alpha = par)."""
    k = np.arange(lo, hi, dtype=np.float64)
    if kind == "shell":
        return 1.0 / (k * k * np.log(k))
    return k ** -(1.0 + par)


def _tail_sum(kind, par, m):
    """Exact sum of the law's weights over [m, M], M the sampler cap."""
    if kind == "shell":
        return float(np.sum(_law_weights(kind, par, m, SHELL_SAMPLE_RADIUS_MAX + 1)))
    s = 1.0 + par
    return float(special.zeta(s, m) - special.zeta(s, STABLE_SAMPLE_MAGNITUDE_MAX + 1))


GUIDED_LAWS = [("shell", 3), ("shell", 5), ("stable", 0.5), ("stable", 1.0),
               ("stable", 1.5)]


@pytest.fixture(scope="module", params=GUIDED_LAWS,
                ids=lambda p: f"{p[0]}-{p[1]:g}")
def guided(request):
    return request.param + (_sampler_table(*request.param),)


def _binary_search_index(cdf, u):
    return np.minimum(np.searchsorted(cdf, u), len(cdf) - 1)


class TestGuidedCdf:
    """_GuidedCdf.index(u) returns exactly the clipped binary-search index,
    on the head tables the shell and stable samplers build."""

    def test_cdf_is_cumsum_over_sum(self, guided):
        # lengths 1..L: the unit mass (shells), the head, and the tail atom
        # at L holding the exact weight of [L, M]
        kind, par, table = guided
        lo = par if kind == "shell" else 1
        big_l = lo + SAMPLE_HEAD
        assert (table.start, table.tail_lo) == (1, big_l)
        assert table.tail_hi == (SHELL_SAMPLE_RADIUS_MAX if kind == "shell"
                                 else STABLE_SAMPLE_MAGNITUDE_MAX)
        head = _law_weights(kind, par, lo, big_l)
        tail = _tail_sum(kind, par, big_l)
        body = 1.0 - UNIT_MASS if kind == "shell" else 1.0
        w = np.zeros(big_l)
        w[lo - 1:big_l - 1] = head
        w[big_l - 1] = tail
        w *= body / (head.sum() + tail)
        if kind == "shell":
            w[0] = UNIT_MASS
        assert table.n == len(w) and table.cdf[-1] == np.inf
        cdf = table.cdf[:-1]
        assert np.allclose(cdf, np.cumsum(w), rtol=0.0, atol=1e-13)
        assert 1.0 - cdf[-2] == pytest.approx(w[-1], rel=1e-6, abs=1e-15)

    def test_index_at_edges_and_cdf_entries(self, guided):
        table = guided[2]
        cdf = table.cdf[:-1]
        assert table.wide.any()          # the binary-search branch is exercised
        edges = np.arange(table.K) / table.K
        assert np.array_equal(table.index(edges), _binary_search_index(cdf, edges))
        for side in (None, -np.inf, np.inf):
            u = cdf if side is None else np.nextafter(cdf, side)
            u = u[u < 1.0]
            assert np.array_equal(table.index(u), _binary_search_index(cdf, u))
        # above the last entry the index clips to it (cumsum / sum can
        # round the last entry to either side of 1)
        above = np.array([np.nextafter(cdf[-1], np.inf), np.nextafter(1.0, 0.0)])
        above = above[(cdf[-1] < above) & (above < 1.0)]
        assert (table.index(above) == len(cdf) - 1).all()

    @settings(max_examples=4)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_index_on_random_draws(self, guided, seed):
        table = guided[2]
        u = np.random.default_rng(seed).random(250_000)
        assert np.array_equal(table.index(u),
                              _binary_search_index(table.cdf[:-1], u))

    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=64))
    def test_index_on_any_floats(self, guided, us):
        table = guided[2]
        u = np.array(us)
        assert np.array_equal(table.index(u),
                              _binary_search_index(table.cdf[:-1], u))

    def test_first_draw_peak_allocation(self):
        # the first draw builds the head table and sums the tail exactly,
        # in bounded memory, whatever the cap
        for kind, par in GUIDED_LAWS:
            mu = shell_measure(H, r0=par) if kind == "shell" else stable_z_measure(par)
            tracemalloc.start()
            try:
                mu.sample_steps(np.random.default_rng(0), 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20, (kind, par, peak)


class TestHeadTailCdf:
    """The tail atom's exact rejection redraw."""

    def test_tail_draws_follow_the_law_4sigma(self, guided):
        # P(K >= m | K >= L) = T(m) / T(L), T(m) the law's weight on [m, M]
        kind, par, table = guided
        big_l, big_m = table.tail_lo, table.tail_hi
        rng = np.random.default_rng(2027)
        n = 4 * 10 ** 6
        k = np.concatenate([table.tail_draws(rng, 10 ** 6) for _ in range(4)])
        assert k.dtype == np.int64 and len(k) == n
        assert k.min() >= big_l and k.max() <= big_m
        whole = _tail_sum(kind, par, big_l)
        for m in (big_l - 1, big_l, big_l + 1, 10 ** 5, big_m):
            p = min(1.0, _tail_sum(kind, par, max(m, big_l)) / whole)
            freq = (k >= m).mean()
            assert abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / n), (m, freq, p)

    def test_acceptance_at_most_one(self, guided):
        kind, par, table = guided
        big_l, big_m = table.tail_lo, table.tail_hi
        for lo in range(big_l, big_m + 1, 10 ** 6):
            k = np.arange(lo, min(lo + 10 ** 6, big_m + 1), dtype=np.float64)
            acc = table.accept(k)
            assert (acc <= 1.0).all() and (acc > 0.0).all(), lo
        assert table.accept(np.array([float(big_l), float(big_m)])).max() <= 1.0
        if kind == "shell":
            # g(k) / g(L): exactly 1 at L
            assert table.accept(np.array([float(big_l)]))[0] == 1.0


class TestSamplerTailMass:
    @pytest.mark.parametrize("alpha, size", [(0.5, 2.42e-4), (1.0, 6.08e-8),
                                             (1.5, 1.57e-11)])
    def test_stable_is_the_hurwitz_tail(self, alpha, size):
        s, n = 1.0 + alpha, STABLE_SAMPLE_MAGNITUDE_MAX + 1
        mu = stable_z_measure(alpha)
        want = special.zeta(s, n) / special.zeta(s)
        assert mu.sampler_tail_mass() == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(size, rel=1e-3)
        # Euler-Maclaurin for sum_{k>=n} k^-s, good to O(n^(-s-3))
        em = n ** (1 - s) / (s - 1) + n ** -s / 2 + s * n ** (-s - 1) / 12
        assert mu.sampler_tail_mass() == pytest.approx(em / special.zeta(s),
                                                       rel=1e-9)
        lazy = lazy_transform(mu, 0.3)
        assert lazy.sampler_tail_mass() == pytest.approx(0.7 * want, rel=1e-12)

    def test_shell_bounds_the_tail_sum(self):
        mu = lazy_transform(shell_measure(H, r0=3), 0.25)
        m = SHELL_SAMPLE_RADIUS_MAX
        c = 0.75 * (1.0 - UNIT_MASS) * mu.shell_norm

        def integral_from(a):
            # int_a^inf dr / (r^2 log r), with r = a / t
            return integrate.quad(lambda t: 1.0 / np.log(a / t), 0.0, 1.0)[0] / a

        # sum_{r>m} lies between the integrals from m + 1 and from m
        assert mu.sampler_tail_mass() >= c * integral_from(m)
        assert mu.sampler_tail_mass() <= 1.1 * c * integral_from(m + 1)

    def test_finite_law_has_no_tail(self):
        assert lazy_transform(srw(Z3), 0.5).sampler_tail_mass() == 0.0


class TestConvolveZ:
    def test_delta_is_identity(self):
        p = pmf_from_dict({-1: 0.5, 1: 0.5})
        q = convolve_z(pmf_from_dict({0: 1.0}), p, cap=4)
        assert q.at(-1) == 0.5 and q.at(1) == 0.5 and q.delta_trunc == 0.0

    def test_srw_two_and_four_steps(self):
        p = pmf_from_dict({-1: 0.5, 1: 0.5})
        p2 = convolve_z(p, p, cap=8)
        assert p2.at(0) == pytest.approx(0.5, abs=1e-15)
        p4 = convolve_z(p2, p2, cap=8)
        assert p4.at(0) == pytest.approx(6 / 16, abs=1e-15)

    def test_commutative_associative_up_to_truncation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.random(5)
            w /= w.sum()
            p = pmf_from_dict({k - 2: w[k] for k in range(5)})
            v = rng.random(3)
            v /= v.sum()
            q = pmf_from_dict({k - 1: v[k] for k in range(3)})
            ab = convolve_z(p, q, cap=10)
            ba = convolve_z(q, p, cap=10)
            assert np.max(np.abs(ab.vals - ba.vals)) <= ab.delta_trunc + ba.delta_trunc + 1e-15
            r = pmf_from_dict({0: 0.5, 1: 0.25, -1: 0.25})
            lhs = convolve_z(convolve_z(p, q, cap=10), r, cap=10)
            rhs = convolve_z(p, convolve_z(q, r, cap=10), cap=10)
            slack = lhs.delta_trunc + rhs.delta_trunc + 1e-14
            lo = min(lhs.lo, rhs.lo)
            hi = max(lhs.hi, rhs.hi)
            for k in range(lo, hi + 1):
                assert abs(lhs.at(k) - rhs.at(k)) <= slack

    def test_truncation_bookkeeping(self):
        p = pmf_from_dict({-3: 0.5, 3: 0.5})
        q = convolve_z(p, p, cap=4)
        # mass at +-6 clipped
        assert q.delta_trunc == pytest.approx(0.5, abs=1e-15)


    @staticmethod
    def random_pmf(rng, length, lo):
        w = rng.random(length)
        return PmfOnZ(w / w.sum(), lo)

    def test_fft_branch_shared_spectrum_bit_identical(self):
        # n = 2 * 3000 - 1 > 4096: q is p squares one spectrum, a copy of p
        # transforms it twice; the two must agree bit for bit
        p = self.random_pmf(np.random.default_rng(5), 3000, -1500)
        same = convolve_z(p, p, cap=2000)
        copy = convolve_z(p, PmfOnZ(p.vals.copy(), p.lo, p.delta_trunc), cap=2000)
        assert same.lo == copy.lo == -2000
        assert np.array_equal(same.vals, copy.vals)
        assert same.delta_trunc == copy.delta_trunc

    def test_fft_branch_matches_direct_convolution(self):
        rng = np.random.default_rng(6)
        p = self.random_pmf(rng, 3000, -1500)
        q = self.random_pmf(rng, 2500, -700)
        for a, b in ((p, p), (p, q), (q, p)):
            full = np.convolve(a.vals, b.vals)
            lo = a.lo + b.lo
            for cap in (10 ** 4, 1800):
                c = convolve_z(a, b, cap)
                want = full[c.lo - lo: c.hi - lo + 1]
                assert np.max(np.abs(c.vals - want)) <= 1e-15

    def test_fft_branch_clipped_mass_in_delta_trunc(self):
        p = self.random_pmf(np.random.default_rng(7), 3000, -1500)
        p = PmfOnZ(p.vals * (1.0 - 1e-3), p.lo, 1e-3)   # mass already missing
        full = np.convolve(p.vals, p.vals)
        c = convolve_z(p, p, cap=1000)
        assert (c.lo, c.hi) == (-1000, 1000)
        outside = full.sum() - full[3000 - 1000: 3000 + 1000 + 1].sum()
        assert c.delta_trunc == pytest.approx(1.0 - full.sum() + outside,
                                              abs=1e-13)
        assert c.delta_trunc > 0.1
        assert float(c.vals.sum()) + c.delta_trunc == pytest.approx(1.0, abs=1e-13)

    def test_fft_branch_clamps_round_off(self):
        # two atoms 4000 apart: the square is three atoms and zeros between,
        # where the FFT's round-off (about -7e-17 here) must be clamped to 0
        p = pmf_from_dict({-2000: 0.5, 2000: 0.5})
        c = convolve_z(p, p, cap=5000)
        assert c.vals.min() >= 0.0
        assert c.at(0) == pytest.approx(0.5, abs=1e-15)
        assert c.at(-4000) == pytest.approx(0.25, abs=1e-15)
        assert np.max(c.vals[1:4000]) < 1e-15

    @staticmethod
    def cap_range(cut, lo, hi):
        """Caps whose window |k| <= cap cuts the product support [lo, hi] on
        the named sides only."""
        if cut == "none":
            c = max(-lo, hi, 1)
            return c, c + 100
        if cut == "low":
            return max(abs(hi), 1), -lo - 1
        if cut == "high":
            return max(abs(lo), 1), hi - 1
        return 1, min(-lo, hi) - 1

    @pytest.mark.parametrize("cut", ["none", "low", "high", "both"])
    @settings(max_examples=40)
    @given(data=st.data(), same=st.booleans(),
           len_p=st.integers(2049, 6000), seed=st.integers(0, 2 ** 32 - 1))
    def test_fft_branch_matches_np_convolve(self, cut, data, same, len_p, seed):
        # the cyclic length max(b + 1, n - a) wraps nothing into the kept
        # window, whichever sides the cap cuts
        rng = np.random.default_rng(seed)
        len_q = len_p if same else data.draw(st.integers(max(1, 4098 - len_p), 6000))
        n = len_p + len_q - 1
        lo = data.draw({"none": st.integers(-2 * n, 2 * n),
                        "low": st.integers(-3 * n, -(n + 1) // 2 - 1),
                        "high": st.integers(2 - (n - 1) // 2, 2 * n),
                        "both": st.integers(4 - n, -2)}[cut])
        if same:
            lo -= lo % 2
            lo_p = lo_q = lo // 2
        else:
            lo_p = data.draw(st.integers(-n, n))
            lo_q = lo - lo_p
        hi = lo + n - 1
        cap = data.draw(st.integers(*self.cap_range(cut, lo, hi)))
        assert (lo < -cap, hi > cap) == (cut in ("low", "both"), cut in ("high", "both"))
        p = self.random_pmf(rng, len_p, lo_p)
        q = p if same else self.random_pmf(rng, len_q, lo_q)
        c = convolve_z(p, q, cap)
        assert (c.lo, c.hi) == (max(lo, -cap), min(hi, cap))
        want = np.convolve(p.vals, q.vals)[c.lo - lo: c.hi - lo + 1]
        assert np.max(np.abs(c.vals - want)) <= 1e-15
        assert c.delta_trunc == pytest.approx(1.0 - want.sum(), abs=1e-13)

    @pytest.mark.parametrize("low", [False, True])
    def test_fft_branch_does_not_alias(self, low):
        # atoms at both ends of a 3241-point support: the square's support
        # has n = 6481 points and the cap cuts one side only, so the cyclic
        # length must be n.  6480 = 81 * 80 is itself a four-step length, so
        # a length one shorter would wrap the far atom onto the near one
        # (cut high) or drop the kept end (cut low)
        p = pmf_from_dict({-3240 * low: 0.5, 3240 - 3240 * low: 0.5})
        c = convolve_z(p, p, cap=5000)
        near, mid, far = (0, -3240, -6480) if low else (0, 3240, 6480)
        assert (c.lo, c.hi) == ((-5000, 0) if low else (0, 5000))
        assert c.at(near) == pytest.approx(0.25, abs=1e-15)
        assert c.at(mid) == pytest.approx(0.5, abs=1e-15)
        assert c.at(far) == 0.0
        rest = np.delete(c.vals, [near - c.lo, mid - c.lo])
        assert np.max(rest) < 1e-15
        assert c.delta_trunc == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("n1, n2", [(3600, 3520), (75, 81)])
    def test_factored_twiddles_within_4_ulp(self, n1, n2):
        # the two small tables' product against the whole table
        # exp(-2 pi i (k1 j2 mod N) / N) over the whole grid, in column blocks
        tw = measures._Twiddles(n1, n2)
        size = n1 * n2
        k1 = np.arange(n1 // 2 + 1, dtype=np.int64)[:, None]
        worst = 0.0
        for lo in range(0, n2, 64):
            hi = min(lo + 64, n2)
            angle = (k1 * np.arange(lo, hi, dtype=np.int64) % size) * (-2.0 * np.pi / size)
            whole = np.cos(angle) + 1j * np.sin(angle)
            worst = max(worst, float(np.abs(tw.cols(lo, hi) - whole).max()))
        assert worst <= 4 * np.finfo(np.float64).eps, worst


def whole_grid_cyclic_convolution(x, y, need):
    """The whole cyclic convolution of x and y (y None: x with itself) from
    whole n1 x n2 grids: each input's real grid and half spectrum, the
    twiddles applied eight spectrum rows at a time, and one inverse of the
    whole product.  The reference that measures._cyclic_convolution's
    column slabs must equal bit for bit."""
    fft = measures.fft
    n1, n2 = measures._four_step_shape(need)
    tw = measures._Twiddles(n1, n2)

    def apply(s, inverse=False):
        for lo in range(0, len(s), 8):
            block = s[lo:lo + 8]
            w = tw.coarse[lo:lo + 8, :, None] * tw.fine[lo:lo + 8, None, :]
            w = w.reshape(len(w), -1)[:, :n2]
            if inverse:
                np.conjugate(block, out=block)
                block *= w
                np.conjugate(block, out=block)
            else:
                block *= w

    spectra = []
    for v in (x,) if y is None else (x, y):
        grid = np.zeros((n1, n2))
        grid.reshape(-1)[:len(v)] = v
        s = fft.rfft(grid, axis=0, workers=measures.CPUS)
        apply(s)
        spectra.append(fft.fft(s, axis=1, workers=measures.CPUS))
    s = spectra[0] * spectra[-1]
    s = fft.ifft(s, axis=1, workers=measures.CPUS)
    apply(s, inverse=True)
    return fft.irfft(s, n1, axis=0, workers=measures.CPUS).reshape(-1)


class TestStreamedSquaring:
    """convolve_z's FFT branch streams the four-step transform through
    column slabs; it must equal the whole-grid transform bit for bit, for
    any slab width and thread count."""

    @staticmethod
    def streamed_and_whole(p, q, cap):
        """(convolve_z(p, q, cap).vals, the same window of the whole-grid
        reference clamped at 0, the (n1, n2) grid, [a, b])."""
        n = len(p.vals) + len(q.vals) - 1
        lo = p.lo + q.lo
        a, b = max(lo, -cap) - lo, min(lo + n - 1, cap) - lo
        need = max(b + 1, n - a, len(p.vals), len(q.vals))
        whole = whole_grid_cyclic_convolution(
            p.vals, None if q is p else q.vals, need)
        got = convolve_z(p, q, cap).vals
        return got, np.maximum(whole[a: b + 1], 0.0), \
            measures._four_step_shape(need), (a, b)

    @pytest.mark.parametrize("cut", ["none", "low", "high", "both"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), same=st.booleans(), slab=st.integers(1, 40),
           len_p=st.integers(2049, 6000), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_whole_grid(self, cut, data, same, slab, len_p, seed):
        rng = np.random.default_rng(seed)
        len_q = len_p if same else data.draw(st.integers(max(1, 4098 - len_p), 6000))
        n = len_p + len_q - 1
        lo = data.draw({"none": st.integers(-2 * n, 2 * n),
                        "low": st.integers(-3 * n, -(n + 1) // 2 - 1),
                        "high": st.integers(2 - (n - 1) // 2, 2 * n),
                        "both": st.integers(4 - n, -2)}[cut])
        if same:
            lo -= lo % 2
            lo_p = lo_q = lo // 2
        else:
            lo_p = data.draw(st.integers(-n, n))
            lo_q = lo - lo_p
        cap = data.draw(st.integers(*TestConvolveZ.cap_range(cut, lo, lo + n - 1)))
        p = TestConvolveZ.random_pmf(rng, len_p, lo_p)
        q = p if same else TestConvolveZ.random_pmf(rng, len_q, lo_q)
        with mock.patch.object(measures, "SLAB_COLUMNS", slab):
            got, want, _, _ = self.streamed_and_whole(p, q, cap)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("same", [True, False])
    @pytest.mark.parametrize("lo, cap", [(-6000, 4500), (-2000, 3000),
                                         (-4500, 2000)],
                             ids=["cut-low", "cut-high", "cut-both"])
    def test_ragged_slab_and_mid_row_window(self, same, lo, cap):
        # the last slab is narrower than the rest, and the window ends (and,
        # where the cap cuts the low side, starts) inside a grid row
        rng = np.random.default_rng(31)
        p = TestConvolveZ.random_pmf(rng, 5001, lo // 2)
        q = p if same else TestConvolveZ.random_pmf(rng, 5001, lo - lo // 2)
        n = 2 * 5001 - 1
        cut_low, cut_high = lo < -cap, lo + n - 1 > cap
        with mock.patch.object(measures, "SLAB_COLUMNS", 11):
            got, want, (n1, n2), (a, b) = self.streamed_and_whole(p, q, cap)
        assert n2 % 11 and (b + 1) % n2 and (a % n2 > 0) == cut_low
        assert (a > 0, b < n - 1) == (cut_low, cut_high)
        assert np.array_equal(got, want)

    def test_independent_of_cpu_count(self, monkeypatch):
        rng = np.random.default_rng(32)
        p = TestConvolveZ.random_pmf(rng, 40001, -20000)
        q = TestConvolveZ.random_pmf(rng, 30001, -9000)
        runs = []
        for cpus in (greenlab.CPUS, 1):
            monkeypatch.setattr(greenlab, "CPUS", cpus)
            monkeypatch.setattr(measures, "CPUS", cpus)
            runs.append((convolve_z(p, p, 30000).vals, convolve_z(p, q, 25000).vals))
        for many, one in zip(*runs):
            assert np.array_equal(many, one)

    def test_inputs_handed_over(self):
        # the squaring takes the arrays out of its list and leaves the
        # inputs themselves unchanged
        p = TestConvolveZ.random_pmf(np.random.default_rng(33), 3000, -1500)
        before = p.vals.copy()
        inputs = [p.vals]
        n = 2 * len(before) - 1
        measures._cyclic_convolution(inputs, n, 0, n - 1)
        assert inputs == []
        assert np.array_equal(p.vals, before)


class TestSelfConvolutionPowers:
    def test_yields_ascending_checkpoints(self):
        p = pmf_from_dict({-1: 0.25, 0: 0.5, 1: 0.25})
        got = list(self_convolution_powers(p, [8, 1, 4, 8], cap=50))
        assert [n for n, _ in got] == [1, 4, 8]
        assert got[0][1] is p
        p2 = convolve_z(p, p, 50)
        p4 = convolve_z(p2, p2, 50)
        p8 = convolve_z(p4, p4, 50)
        assert np.array_equal(got[1][1].vals, p4.vals)
        assert np.array_equal(got[2][1].vals, p8.vals)
        assert got[2][1].at(0) == pytest.approx(
            special.comb(16, 8) / 4 ** 8, abs=1e-15)

    def test_non_power_of_two_rejected(self):
        p = pmf_from_dict({-1: 0.5, 1: 0.5})
        for bad in ([3], [4, 6], [12, 16], [0, 16]):
            with pytest.raises(ValueError):
                self_convolution_powers(p, bad, cap=50)


def tv_shift_padded(p, k):
    """TV(p, p shifted by k) from two zero-padded copies of the window."""
    if k == 0:
        return 0.0
    a = p.vals
    pad = np.zeros(abs(k))
    if k > 0:
        left, right = np.concatenate([a, pad]), np.concatenate([pad, a])
    else:
        left, right = np.concatenate([pad, a]), np.concatenate([a, pad])
    return 0.5 * float(np.abs(left - right).sum())


class TestTotalVariationShift:
    def test_matches_padded_copies_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 300, 5000):
            vals = rng.random(n)
            p = PmfOnZ(vals / vals.sum(), -n // 2)
            for k in {0, 1, -1, 3, -3, n - 1, -(n - 1), n, -n, n + 5, -(n + 5)}:
                assert total_variation_shift(p, k) == tv_shift_padded(p, k), (n, k)

    def test_disjoint_shift_is_one(self):
        p = pmf_from_dict({-1: 0.25, 0: 0.5, 1: 0.25})
        assert total_variation_shift(p, 3) == 1.0
        assert total_variation_shift(p, -7) == 1.0
        assert total_variation_shift(p, 1) == pytest.approx(0.5, abs=1e-15)


class TestFirstMoment:
    def test_srw_unit(self):
        assert first_moment_partial(srw(Z3), 1) == pytest.approx(1.0, abs=1e-12)
        assert first_moment_partial(srw(Z3), 100) == pytest.approx(1.0, abs=1e-12)

    def test_shell_loglog_growth(self):
        mu = shell_measure(H, r0=3)
        c1, _ = mu.shell_constants()
        v3, v6 = first_moment_partial(mu, 10 ** 3), first_moment_partial(mu, 10 ** 6)
        gap = v6 - v3
        # integral comparison with matching endpoints:
        # sum_{r=1001}^{1e6} 1/(r ln r) >= int_1001^(1e6+1) dr/(r ln r)
        lower = c1 * (np.log(np.log(10 ** 6 + 1)) - np.log(np.log(1001)))
        assert gap >= lower
        assert gap == pytest.approx(c1 * np.log(2), rel=2e-3)

    def test_stable_log_growth_ratio(self):
        mu = stable_z_measure(1.0)
        r = first_moment_partial(mu, 10 ** 6) / first_moment_partial(mu, 10 ** 3)
        assert abs(r - 2.0) < 0.2


class TestPmfOnZ:
    @pytest.mark.parametrize("lazy", [0.0, 0.5])
    def test_finite_window_matches_per_point_pmf(self, lazy):
        # the support scattered into a zero window, against one pmf call
        # per window point
        mu = lazy_transform(srw(Z1), lazy)
        for cap in (1, 2, 7):
            got = mu.to_pmf_on_z(cap)
            want = np.array([mu.pmf((k,)) for k in range(-cap, cap + 1)])
            assert got.vals.tobytes() == want.tobytes()
            assert (got.lo, got.delta_trunc) == (-cap, max(0.0, 1.0 - float(want.sum())))

    @pytest.mark.parametrize("alpha, lazy", [(0.5, 0.0), (1.0, 0.0),
                                             (1.0, 0.2), (1.7, 0.0)])
    def test_stable_window_matches_power_expression(self, alpha, lazy):
        # the in-place window, against c |k|^-(1+alpha) as a scalar product
        # of a power of a converted copy
        mu = lazy_transform(stable_z_measure(alpha), lazy)
        cap = 1000
        mag = np.abs(np.arange(-cap, cap + 1)).astype(np.float64)
        with np.errstate(divide="ignore"):
            want = mu.c_alpha * mag ** -(1.0 + alpha)
        want[cap] = 0.0
        want *= 1.0 - lazy
        want[cap] += lazy
        assert mu.to_pmf_on_z(cap).vals.tobytes() == want.tobytes()

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            PmfOnZ(np.array([0.5, 0.4]), 0)    # mass 0.9, no delta
