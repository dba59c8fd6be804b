"""Step laws: construction, exact pmfs, sampling, convolution."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy
from scipy import integrate, special

import greenlab
from greenlab import groups, measures, walks
from greenlab.groups import identity
from greenlab.measures import (PmfOnZ, SAMPLE_HEAD, SHELL_SAMPLE_RADIUS_MAX,
                               STABLE_SAMPLE_MAGNITUDE_MAX, UNIT_MASS, StepMeasure,
                               convolve_z, first_moment_partial, lazy_transform,
                               pmf_from_dict, self_convolution_powers,
                               shell_measure, shell_norm_constant,
                               stable_z_measure, total_variation_shift,
                               uniform_on_generators)
from greenlab.walks import _support_gcd
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


def block_sums(f, lo, hi, block=10 ** 6):
    """_range_sum as one whole float64 array and np.sum per block."""
    total = 0.0
    for start in range(lo, hi, block):
        n = np.arange(start, min(start + block, hi), dtype=np.float64)
        total += float(np.sum(f(n)))
    return total


class TestRangeSum:
    @settings(max_examples=40)
    @given(lo=st.integers(2, 3 * 10 ** 6), length=st.integers(0, 2_200_000),
           block=st.sampled_from([128, 1000, 65_536, 100_003, 10 ** 6]),
           run=st.sampled_from([128, 1000, measures._SUM_RUN]),
           f=st.sampled_from(["shell", "power", "r_log_r"]))
    # the default block, with runs crossing block edges
    @example(lo=3, length=2_200_000, block=10 ** 6, run=measures._SUM_RUN,
             f="shell")
    @example(lo=999_990, length=1_000_020, block=10 ** 6, run=1000, f="power")
    @example(lo=2, length=10 ** 6, block=10 ** 6, run=128, f="r_log_r")
    def test_equals_one_array_per_block(self, lo, length, block, run, f):
        # the runs of a block's pairwise tree give np.sum's bits, whether
        # f works in place (_shell_f) or not, and whether a block is shorter
        # than a run, one run, or many
        f = {"shell": measures._shell_f, "power": lambda k: k ** -0.7,
             "r_log_r": lambda r: 1.0 / (r * np.log(r))}[f]
        with mock.patch.object(measures, "_SUM_RUN", run):
            got = measures._range_sum(f, lo, lo + length, block)
        assert got == block_sums(f, lo, lo + length, block)

    @pytest.mark.parametrize("r0", [3, 4, 5, 17])
    def test_shell_norm_constant_bits(self, r0):
        hi = 10 ** 7
        total = block_sums(measures._shell_f, r0, hi) + 1.0 / (hi * np.log(hi))
        assert shell_norm_constant(r0) == 1.0 / total

    def test_shell_norm_constant_peak_allocation(self):
        # a run's terms and its log, in place of two 8 MB blocks
        shell_norm_constant(3)
        tracemalloc.start()
        try:
            shell_norm_constant(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20, peak


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


class TestHurwitzZeta:
    """measures._hurwitz_zeta against scipy.special.zeta(s, q), whose Cephes
    code it ports; a failure names the SciPy it ran against."""

    S = sorted({1.0001, 1.5, 2.0, 2.9999, *np.linspace(1.01, 2.99, 34).tolist()})

    # q = 1 and 2 take the Euler-Maclaurin tail; 65537 and 2e6 + 1 are the
    # stable and shell table edges, 1e7 the stable cap + 1, 2e8 the
    # asymptotic branch
    @pytest.mark.parametrize("q", [1, 2, 65537, 2 * 10 ** 6 + 1, 10 ** 7,
                                   2 * 10 ** 8])
    def test_equals_scipy_bit_for_bit(self, q):
        for s in self.S:
            assert measures._hurwitz_zeta(s, q) == float(special.zeta(s, q)), \
                (s, q, f"scipy {scipy.__version__}")

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("lazy", [0.0, 0.2])
    def test_stable_table_as_with_scipy(self, alpha, lazy):
        # the sampling table's bytes, tail atom included, are those of a
        # table built on SciPy's Hurwitz zeta
        def table():
            mu = lazy_transform(stable_z_measure(alpha), lazy)
            mu.sample_stable_ints(np.random.default_rng(0), 1)
            return mu._stable_cdf.cdf.tobytes()

        ported = table()
        with mock.patch.object(measures, "_hurwitz_zeta",
                               lambda s, q: float(special.zeta(s, q))):
            assert table() == ported, f"scipy {scipy.__version__}"

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
    def test_c_alpha_is_scipy_riemann_zeta(self, alpha):
        assert stable_z_measure(alpha).c_alpha == \
            1.0 / (2.0 * special.zeta(1.0 + alpha))

    def test_sampling_reads_no_c_alpha(self):
        # sampling, the tail mass and the steps evaluate no special function:
        # C_alpha stays unread and measures.special untouched
        class NoSpecial:
            def __getattr__(self, name):
                raise AssertionError(f"special.{name} called")

        mu = lazy_transform(stable_z_measure(1.0), 0.2)
        with mock.patch.object(measures, "special", NoSpecial()):
            mu.sample_stable_ints(np.random.default_rng(1), 1000)
            mu.sample_steps(np.random.default_rng(2), 1000)
            assert mu.sampler_tail_mass() > 0
        assert "c_alpha" not in vars(mu)
        assert mu.pmf((3,)) > 0 and "c_alpha" in vars(mu)


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
        # where the FFT's round-off (about -7e-17 here) must be clamped to 0;
        # centred at 0 on the even route, at 4000 on the real-FFT product
        for d, mid in (({-2000: 0.5, 2000: 0.5}, 0), ({0: 0.5, 4000: 0.5}, 4000)):
            p = pmf_from_dict(d)
            c = convolve_z(p, p, cap=5000)
            assert (c.half is not None) == (mid == 0)
            assert c.vals.min() >= 0.0
            assert c.at(mid) == pytest.approx(0.5, abs=1e-15)
            assert c.at(mid - 4000) == pytest.approx(0.25, abs=1e-15)
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
        # the real-FFT product of dense pmfs, a square or a product of two:
        # the cyclic length max(b + 1, n - a) wraps nothing into the kept
        # window, whichever sides the cap cuts, and the inputs stay as they
        # were
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
        before = p.vals.tobytes() + q.vals.tobytes()
        c = convolve_z(p, q, cap)
        assert p.vals.tobytes() + q.vals.tobytes() == before
        assert (c.lo, c.hi) == (max(lo, -cap), min(hi, cap))
        assert c.half is None and c.vals.min() >= 0.0
        want = np.convolve(p.vals, q.vals)[c.lo - lo: c.hi - lo + 1]
        assert np.max(np.abs(c.vals - want)) <= 1e-15
        assert c.delta_trunc == pytest.approx(1.0 - want.sum(), abs=1e-13)

    @pytest.mark.parametrize("len_p, len_q, lo, cap", [
        (5063, 5063, -6000, 4128), (5100, 3001, -6000, 2105),
        (5063, 5063, -2000, 2000), (5100, 3001, -2000, 2000),
        (5001, 5001, -4500, 3715), (5001, 3001, -4500, 1124)],
        ids=["cut-low-square", "cut-low-product", "cut-high-square",
             "cut-high-product", "cut-both-square", "cut-both-product"])
    def test_real_product_at_the_shortest_length(self, len_p, len_q, lo, cap):
        # need = max(b + 1, n - a) is itself a fast real length here, so
        # the transform is exactly need points long and any shorter one
        # would wrap random mass into the kept window
        rng = np.random.default_rng(len_q + cap)
        p = self.random_pmf(rng, len_p, lo // 2)
        q = p if len_q == len_p else self.random_pmf(rng, len_q, lo - lo // 2)
        n = len_p + len_q - 1
        a, b = max(lo, -cap) - lo, min(lo + n - 1, cap) - lo
        need = max(b + 1, n - a)
        assert measures.fft.next_fast_len(need, True) == need
        assert (a > 0, b < n - 1) == (lo < -cap, lo + n - 1 > cap)
        c = convolve_z(p, q, cap)
        want = np.convolve(p.vals, q.vals)[a: b + 1]
        assert (c.lo, c.hi, c.half) == (lo + a, lo + b, None)
        assert np.max(np.abs(c.vals - want)) <= 1e-15
        assert c.delta_trunc == pytest.approx(1.0 - want.sum(), abs=1e-13)

    @pytest.mark.parametrize("low", [False, True, None])
    def test_fft_branch_does_not_alias(self, low):
        # atoms at both ends of a 3241-point support: the square's support
        # has n = 6481 points and the cap cuts one side only, so the cyclic
        # length must be n.  6480 = 2^4 3^4 5 is itself a fast real length,
        # so a length one shorter would wrap the far atom onto the near one
        # (cut high) or drop the kept end (cut low).  low None: the even
        # square, cut on both sides
        if low is None:
            self.even_square_does_not_alias()
            return
        assert measures.fft.next_fast_len(6480, True) == 6480
        p = pmf_from_dict({-3240 * low: 0.5, 3240 - 3240 * low: 0.5})
        assert p.half is None
        c = convolve_z(p, p, cap=5000)
        near, mid, far = (0, -3240, -6480) if low else (0, 3240, 6480)
        assert (c.lo, c.hi) == ((-5000, 0) if low else (0, 5000))
        assert c.at(near) == pytest.approx(0.25, abs=1e-15)
        assert c.at(mid) == pytest.approx(0.5, abs=1e-15)
        assert c.at(far) == 0.0
        rest = np.delete(c.vals, [near - c.lo, mid - c.lo])
        assert np.max(rest) < 1e-15
        assert c.delta_trunc == pytest.approx(0.25, abs=1e-14)

    @staticmethod
    def even_square_does_not_alias():
        # atoms at -+1100 square to -+2200, which cap 1832 clips; the centred
        # placement needs 2 * 1100 + 1832 + 1 points, and one fewer,
        # 4032 = 64 * 63, is itself a four-step length, which would wrap
        # -2200 onto +-1832
        p = pmf_from_dict({-1100: 0.5, 1100: 0.5})
        assert p.half is not None
        assert measures._four_step_shape(4032) == (64, 63)
        c = convolve_z(p, p, cap=1832)
        assert (c.lo, c.hi) == (-1832, 1832) and c.half is not None
        assert c.at(0) == pytest.approx(0.5, abs=1e-15)
        assert np.max(np.delete(c.vals, 1832)) < 1e-15
        assert c.delta_trunc == pytest.approx(0.5, abs=1e-14)
        assert np.array_equal(c.vals, c.vals[::-1])

    @staticmethod
    def even_pmf(rng, m):
        """A random even pmf on [-m, m], in half form."""
        w = rng.random(m + 1)
        return PmfOnZ.even(w / (2 * w.sum() - w[0]))

    @staticmethod
    def square_against_np_convolve(p, cap):
        """convolve_z(p, p, cap) of a half-form p on the even route,
        checked against np.convolve and for being exactly even."""
        m = p.hi
        c = convolve_z(p, p, cap)
        assert (c.lo, c.hi) == (-min(cap, 2 * m), min(cap, 2 * m))
        assert c.half is not None
        want = np.convolve(p.vals, p.vals)[c.lo + 2 * m: c.hi + 2 * m + 1]
        assert np.max(np.abs(c.vals - want)) <= 1e-15
        assert c.delta_trunc == pytest.approx(1.0 - want.sum(), abs=1e-13)
        assert np.array_equal(c.vals, c.vals[::-1])
        return c

    @pytest.mark.parametrize("full", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(1024, 3000), slab=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_even_square_matches_np_convolve(self, full, data, m, slab, seed):
        # the square of an even pmf on the real half spectrum, with the cap
        # inside the product's support (a full window) or past it
        cap = data.draw(st.integers(1, 2 * m - 1) if full
                        else st.integers(2 * m, 3 * m))
        p = self.even_pmf(np.random.default_rng(seed), m)
        with mock.patch.object(measures, "SLAB_COLUMNS", slab):
            self.square_against_np_convolve(p, cap)

    @pytest.mark.parametrize("m, cap, n2, edge", [
        (1100, 48, 48, 0), (1100, 47, 48, -1), (2115, 4230, 90, 0),
        (1100, 245, 49, 0), (1100, 244, 49, -1), (1387, 2774, 75, -1)])
    def test_even_square_at_grid_edges(self, m, cap, n2, edge):
        # n2 even (a Nyquist column) and odd, the window's last point c the
        # first (edge 0) or last (edge -1) of its grid row, the window full
        # and not (cap = 2m), and a last slab narrower than the rest
        need = 2 * m + min(cap, 2 * m) + 1
        assert measures._four_step_shape(need)[1] == n2
        assert cap % n2 == edge % n2 and (n2 // 2 + 1) % 11
        p = self.even_pmf(np.random.default_rng(m + cap), m)
        with mock.patch.object(measures, "SLAB_COLUMNS", 11):
            self.square_against_np_convolve(p, cap)

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

    def test_twiddle_columns_equal_the_gathered_product(self):
        # runs of columns within one coarse column and across several equal
        # coarse[:, q] * fine[:, r] gathered column by column, bit for bit,
        # in a contiguous array
        tw = measures._Twiddles(75, 81)
        assert tw.b == 9
        for lo, hi in ((0, 1), (3, 9), (8, 10), (0, 81), (17, 50), (80, 81)):
            q, r = np.divmod(np.arange(lo, hi), tw.b)
            want = tw.coarse[:, q] * tw.fine[:, r]
            got = tw.cols(lo, hi)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestStreamedSquaring:
    """convolve_z's even route streams the four-step transform through
    column slabs and row blocks; its result must not depend on the slab
    width, the row block or the thread count."""

    @pytest.mark.parametrize("case", ["not-even-at-0", "not-even-at-m-1",
                                      "off-centre", "copy", "dense", "even"])
    def test_routes(self, case):
        # only the square of a half-form pmf takes the real half spectrum;
        # its exactly even dense window, that window off centre, its
        # product with a copy, or pmf_from_dict of its values one ulp off
        # at the window's end or next to its centre (a dense window, as
        # the dict is not symmetric) is the real-FFT product, which
        # matches np.convolve
        rng = np.random.default_rng(34)
        p = TestConvolveZ.even_pmf(rng, 2500)
        q = p
        if case.startswith("not-even"):
            vals = p.vals
            i = 0 if case.endswith("0") else 2500 - 1
            vals[i] = np.nextafter(vals[i], 1.0)
            p = q = pmf_from_dict(dict(zip(range(p.lo, p.hi + 1), vals)))
            assert p.half is None and (p.lo, p.hi) == (-2500, 2500)
        elif case == "off-centre":
            p = q = PmfOnZ(p.vals, p.lo + 3)
        elif case == "copy":
            q = PmfOnZ(p.vals, p.lo)
        elif case == "dense":
            p = q = PmfOnZ(p.vals, p.lo)
        with mock.patch.object(measures, "_even_square",
                               wraps=measures._even_square) as even:
            if case == "even":
                TestConvolveZ.square_against_np_convolve(p, 3000)
            else:
                c = convolve_z(p, q, 3000)
                lo = p.lo + q.lo
                want = np.convolve(p.vals, q.vals)[c.lo - lo: c.hi - lo + 1]
                assert c.half is None
                assert np.max(np.abs(c.vals - want)) <= 1e-15
        assert even.called == (case == "even")

    def test_independent_of_cpu_count(self, monkeypatch):
        e = TestConvolveZ.even_pmf(np.random.default_rng(32), 20000)
        runs = []
        for cpus in (greenlab.CPUS, 1):
            monkeypatch.setattr(greenlab, "CPUS", cpus)
            runs.append((convolve_z(e, e, 30000).vals, convolve_z(e, e, 50000).vals))
        for many, one in zip(*runs):
            assert np.array_equal(many, one)

    def test_even_square_independent_of_slab_width(self):
        e = TestConvolveZ.even_pmf(np.random.default_rng(35), 20000)
        runs = []
        for slab in (1, 7, measures.SLAB_COLUMNS, 40, 10 ** 6):
            with mock.patch.object(measures, "SLAB_COLUMNS", slab):
                runs.append((convolve_z(e, e, 30000).vals, convolve_z(e, e, 50000).vals))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_independent_of_row_block(self, cpus, monkeypatch):
        # the even route's row stage in blocks of one row, seven rows (with
        # a ragged last block), the default budget and all rows, on one
        # thread and on two
        monkeypatch.setattr(greenlab, "CPUS", cpus)
        e = TestConvolveZ.even_pmf(np.random.default_rng(36), 20000)
        shapes = []
        stage = measures._row_stage

        def spy(s, step):
            shapes.append((len(s), s[0].nbytes))
            stage(s, step)

        for cap in (30000, 50000):
            shapes.clear()
            with mock.patch.object(measures, "_row_stage", spy):
                want = convolve_z(e, e, cap).vals
            [(rows, row_bytes)] = shapes
            assert rows % 7
            for budget in (1, 7 * row_bytes, rows * row_bytes):
                with mock.patch.object(measures, "_ROW_BLOCK_BYTES", budget):
                    assert np.array_equal(convolve_z(e, e, cap).vals, want)

    def test_row_stage_blocks(self, monkeypatch):
        # the blocks cover every row once, in budget-sized runs
        s = np.zeros((23, 5), dtype=np.complex128)
        for budget, size in ((1, 1), (7 * 80, 7), (80 * 23, 23), (10 ** 9, 23),
                             (8 * 80 + 79, 8)):
            monkeypatch.setattr(measures, "_ROW_BLOCK_BYTES", budget)
            seen = []
            measures._row_stage(s, lambda lo, hi: seen.append((lo, hi)))
            assert sorted(seen) == [(lo, min(lo + size, 23))
                                    for lo in range(0, 23, size)]

    def test_even_square_peak_allocation(self):
        # a full-window squaring whose input half is handed over holds the
        # spectrum beside one half window (the input half, then the output
        # rows 0..R), the twiddle tables and a slab or row block per
        # thread, and no window
        m = 500_000
        half = TestConvolveZ.even_pmf(np.random.default_rng(37), m).half
        n1, n2 = measures._four_step_shape(3 * m + 1)
        measures._twiddles.cache_clear()
        tracemalloc.start()
        try:
            inputs = [half.copy()]
            out = measures._even_square(inputs, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == m + 1
        rows = 8 * n2 * (m // n2 + 1)
        spectrum = 16 * (n1 // 2 + 1) * (n2 // 2 + 1)
        threads = min(greenlab.CPUS, -(-(n2 // 2 + 1) // measures.SLAB_COLUMNS))
        scratch = threads * max(4 * 8 * n1 * measures.SLAB_COLUMNS,
                                2 * measures._ROW_BLOCK_BYTES + 16 * n2)
        tables = 16 * (n1 // 2 + 1) * 2 * (math.isqrt(n2 - 1) + 1)
        held = spectrum + max(8 * (m + 1), rows)
        assert peak <= held + tables + scratch, \
            (peak - held) / (tables + scratch)

    def test_twiddles_built_once_per_grid(self, monkeypatch):
        # the squarings of a chain on a full window share one grid and one
        # pair of twiddle tables; two chains in turn keep both
        built = []
        real = measures._Twiddles

        def counting(n1, n2):
            built.append((n1, n2))
            return real(n1, n2)

        monkeypatch.setattr(measures, "_Twiddles", counting)
        measures._twiddles.cache_clear()
        try:
            mu = stable_z_measure(1.0)
            # the chains square in turn, as product_dispersion_bound's do
            n_list = [2, 4, 8, 16]
            z = self_convolution_powers(mu.to_pmf_on_z(20000), n_list, 20000)
            h = self_convolution_powers(mu.to_pmf_on_z(30000), n_list, 30000)
            for _ in zip(z, h):
                pass
            assert built == [measures._four_step_shape(60001),
                             measures._four_step_shape(90001)]
        finally:
            measures._twiddles.cache_clear()

    def test_inputs_handed_over(self):
        # the even squaring takes the half out of its list and leaves the
        # half itself unchanged
        v = TestConvolveZ.even_pmf(np.random.default_rng(33), 1500).half
        before = v.copy()
        inputs = [v]
        measures._even_square(inputs, 2000)
        assert inputs == []
        assert np.array_equal(v, before)


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

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_match_padded_copies(self, block, monkeypatch):
        # windows and shifts over several blocks, the last one ragged and
        # the edge runs across block ends, equal the one-pass sum to rounding
        monkeypatch.setattr(measures, "_TV_BLOCK", block)
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 300, 1001):
            vals = rng.random(n)
            p = PmfOnZ(vals / vals.sum(), -n // 2)
            for k in {1, -1, 3, -3, 65, n - 1, -(n - 1), n, -n, n + 5, -(n + 70)} - {0}:
                assert total_variation_shift(p, k) == pytest.approx(
                    tv_shift_padded(p, k), rel=1e-13, abs=1e-16), (n, k)

    def test_peak_allocation(self):
        # a checkpoint's TV holds one block beside its window, not a second
        # window
        p = stable_z_measure(1.0).to_pmf_on_z(10 ** 6)
        tracemalloc.start()
        try:
            total_variation_shift(p, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * measures._TV_BLOCK + 2 ** 12, peak

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

    @pytest.mark.parametrize("lazy", [0.0, 0.5])
    @pytest.mark.parametrize("law", ["srw", "shell", 0.5, 1.0, 1.5])
    def test_laws_on_z_are_exactly_even(self, law, lazy):
        # every window a doubling chain starts from is on [-cap, cap] and
        # equal to its reverse, and comes as its nonnegative half, so its
        # squarings take the even route
        base = {"srw": lambda: srw(Z1), "shell": lambda: shell_measure(Z1)}
        mu = lazy_transform(base.get(law, lambda: stable_z_measure(law))(), lazy)
        p = mu.to_pmf_on_z(5000)
        assert p.lo == -p.hi == -5000
        assert p.half is not None and len(p.half) == 5001
        assert np.array_equal(p.vals, p.vals[::-1])
        assert p.delta_trunc == max(0.0, 1.0 - float(p.vals.sum()))

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            PmfOnZ(np.array([0.5, 0.4]), 0)    # mass 0.9, no delta

    def test_negative_entry_rejected(self):
        # one entry below -1e-15 anywhere in the window
        for i in (0, 2, 4):
            vals = np.full(5, 0.2)
            vals[i] = -1e-14
            vals[(i + 1) % 5] += 1e-14
            with pytest.raises(ValueError, match="must be nonnegative"):
                PmfOnZ(vals, -2)
        PmfOnZ(np.array([0.5, -1e-16, 0.5]), -1)

    def test_mass_off_by_2e_9_rejected(self):
        # the window's own sum, and the sum a caller passes with it
        for vals, delta in (([0.5, 0.5 - 2e-9], 0.0), ([0.5, 0.5], 2e-9),
                            ([0.5, 0.5 + 2e-9], 0.0)):
            with pytest.raises(ValueError, match="is not 1"):
                PmfOnZ(np.array(vals), 0, delta)
            with pytest.raises(ValueError, match="is not 1"):
                PmfOnZ(np.array(vals), 0, delta, float(np.sum(vals)))
        PmfOnZ(np.array([0.5, 0.5 - 5e-10]), 0)

    def test_nan_value_rejected(self):
        # NaN compares false with everything, so a "below the bound" test
        # would let it through
        with pytest.raises(ValueError, match="must be nonnegative"):
            PmfOnZ(np.array([np.nan, 1.0]), 0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            PmfOnZ(np.array([0.5, np.nan, 0.5]), -1, 0.0, 1.0)

    def test_nan_mass_rejected(self):
        # a NaN sum passed with the window
        with pytest.raises(ValueError, match="is not 1"):
            PmfOnZ(np.array([0.5, 0.5]), 0, 0.0, float("nan"))

    def test_nan_delta_trunc_rejected(self):
        # with the window's own sum and with a sum passed with it
        for mass in (None, 1.0):
            with pytest.raises(ValueError, match="is not 1"):
                PmfOnZ(np.array([0.5, 0.5]), 0, float("nan"), mass)

    @settings(max_examples=40)
    @given(m=st.integers(0, 300), lo=st.integers(-3, 3),
           flip=st.sampled_from(["none", "ulp", "add"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pmf_from_dict_half_form_exactly_when_symmetric(self, m, lo, flip,
                                                           seed):
        # a dict symmetric about 0 (lo 0, zero values among its entries)
        # becomes a half form; a window off centre, one value one ulp off
        # its mirror's, or a key past the end (value 0) stays dense.
        # Either way every value is read back at its key
        rng = np.random.default_rng(seed)
        w = rng.random(m + 1) * (rng.random(m + 1) >= 0.3)
        w[0] += 1.0
        w /= 2 * w.sum() - w[0]
        d = {k + lo: w[abs(k)] for k in range(-m, m + 1)}
        if flip == "ulp" and m:
            k = int(rng.integers(1, m + 1)) * int(rng.choice([-1, 1])) + lo
            d[k] = np.nextafter(d[k], 1.0)
        elif flip == "add":
            d[m + 1 + lo] = 0.0
        p = pmf_from_dict(d)
        symmetric = lo == 0 and (flip == "none" or flip == "ulp" and m == 0)
        assert (p.half is not None) == symmetric
        assert (p.lo, p.hi) == (min(d), max(d))
        for j in range(p.lo - 1, p.hi + 2):
            assert p.at(j) == d.get(j, 0.0), j


class TestHalfForm:
    """An even pmf stored as its nonnegative half reads, sums and squares
    exactly as its mirrored window stored dense."""

    @staticmethod
    def pair(rng, m, zeros=0.0):
        """(half form, dense window) of one random even pmf on [-m, m],
        with about a `zeros` share of its points 0."""
        w = rng.random(m + 1) * (rng.random(m + 1) >= zeros)
        w[int(rng.integers(0, m + 1))] += 1.0
        w /= 2 * w.sum() - w[0]
        half = PmfOnZ.even(w)
        return half, PmfOnZ(half.vals, -m)

    @settings(max_examples=40)
    @given(m=st.integers(0, 3000), zeros=st.sampled_from([0.0, 0.9]),
           block=st.sampled_from([1, 7, 64, 2 ** 16]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reads_match_the_window(self, m, zeros, block, seed):
        # TV at shifts inside, at and past the window, in blocks that cross
        # the centre anywhere, at, hi, the window sum and the support gcd
        rng = np.random.default_rng(seed)
        half, dense = self.pair(rng, m, zeros)
        n = 2 * m + 1
        assert (half.lo, half.hi, len(half)) == (dense.lo, dense.hi, n)
        assert measures._window_sum(half.half) == float(dense.vals.sum())
        assert half.delta_trunc == dense.delta_trunc == 0.0
        with mock.patch.object(measures, "_TV_BLOCK", block):
            for k in {1, 2, 3, m, m + 1, n - 1, n, n + 5,
                      int(rng.integers(1, n + 9))}:
                for s in (k, -k):
                    assert total_variation_shift(half, s) == \
                        total_variation_shift(dense, s), s
        for k in range(-m - 3, m + 4):
            assert half.at(k) == dense.at(k)
        ends = {0, m, m + 1, n, *rng.integers(0, n + 1, 2).tolist()}
        for i in ends:
            for j in ends - set(range(i)):
                out = half.read(i, j, np.full(n + 1, np.nan))
                assert out.tobytes() == dense.vals[i:j].tobytes()
        with mock.patch.object(walks, "_GCD_CHUNK", max(block, 2)):
            assert _support_gcd(half) == _support_gcd(dense)

    @pytest.mark.parametrize("full", [True, False])
    @settings(max_examples=20)
    @given(data=st.data(), m=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_squaring_matches_the_dense_square(self, full, data, m, seed):
        # on the FFT branch (4m + 1 > 4096 points) and the direct one, the
        # square of the half form is that of the same law built by
        # pmf_from_dict from the dense even window, also a half form, bit
        # for bit, with the same delta_trunc; the even route returns a half
        # form.  The dense window's own square (the real-FFT product on the
        # FFT branch) agrees to 1e-15, and bit for bit on the direct one
        cap = data.draw(st.integers(1, 2 * m - 1) if full and m > 1
                        else st.integers(2 * m, 3 * m))
        half, dense = self.pair(np.random.default_rng(seed), m)
        built = pmf_from_dict(dict(zip(range(-m, m + 1), dense.vals)))
        assert built.half is not None
        a, b = convolve_z(half, half, cap), convolve_z(built, built, cap)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        assert a.vals.tobytes() == b.vals.tobytes()
        assert a.delta_trunc == b.delta_trunc
        fft_branch = 4 * m + 1 > 4096
        assert (a.half is not None) == (b.half is not None) == fft_branch
        c = convolve_z(dense, dense, cap)
        assert (c.lo, c.hi, c.half) == (a.lo, a.hi, None)
        if fft_branch:
            assert np.max(np.abs(c.vals - a.vals)) <= 1e-15
        else:
            assert c.vals.tobytes() == a.vals.tobytes()

    @pytest.mark.parametrize("run", [128, 1000, measures._SUM_RUN])
    @settings(max_examples=30)
    @given(m=st.integers(0, 70_000), seed=st.integers(0, 2 ** 32 - 1))
    def test_window_sum_is_np_sum(self, run, m, seed):
        # NumPy's pairwise tree over the mirrored window, from the half,
        # with runs of any length of at least NumPy's 128-point leaf
        half = np.random.default_rng(seed).random(m + 1) ** 4
        window = np.concatenate([half[:0:-1], half])
        with mock.patch.object(measures, "_SUM_RUN", run):
            assert measures._window_sum(half) == float(np.sum(window))

    def test_window_sum_at_the_acceptance_size(self):
        # the alpha = 1 stable law's window at cap 4.2e6
        half = stable_z_measure(1.0).to_pmf_on_z(4_200_000).half
        assert measures._window_sum(half) == \
            float(np.sum(np.concatenate([half[:0:-1], half])))

    @pytest.mark.parametrize("lazy", [0.0, 0.5])
    def test_asymmetric_law_stays_dense(self, lazy):
        mu = lazy_transform(StepMeasure(Z1, "finite", "drift",
                                        probs={(1,): 0.7, (-1,): 0.3}), lazy)
        for cap in (1, 2, 7):
            p = mu.to_pmf_on_z(cap)
            assert p.half is None
            want = np.array([mu.pmf((k,)) for k in range(-cap, cap + 1)])
            assert p.vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r0", [3, 5])
    @pytest.mark.parametrize("lazy", [0.0, 0.3])
    def test_shell_half_matches_per_point_pmf(self, r0, lazy):
        # the vectorised half, against one pmf call per window point
        mu = lazy_transform(shell_measure(Z1, r0=r0), lazy)
        for cap in (0, 1, 2, 3, 4, 5, 6, 50, 2000):
            got = mu.to_pmf_on_z(cap)
            want = np.array([mu.pmf((k,)) for k in range(-cap, cap + 1)])
            assert got.vals.tobytes() == want.tobytes(), cap
            assert (got.lo, got.delta_trunc) == \
                (-cap, max(0.0, 1.0 - float(want.sum())))
