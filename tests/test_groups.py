"""Group backends: arithmetic, word metrics, spheres and balls."""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlab import groups
from greenlab.groups import (BfsTable, EnumerationCapError, OutOfRangeError,
                             ball, free_group, heisenberg,
                             identity, integer_lattice, inv, mul, neighbors,
                             sphere, standard_generators, word_length)

Z3 = integer_lattice(3)
F2 = free_group(2)
H = heisenberg()


class TestMul:
    def test_lattice_addition(self):
        assert mul(Z3, (1, 0, 0), (0, 1, 0)) == (1, 1, 0)

    def test_free_reduction(self):
        # (a b)(b^-1 a) -> a a
        assert mul(F2, (1, 2), (-2, 1)) == (1, 1)

    def test_heisenberg_noncommutative(self):
        x, y = (1, 0, 0), (0, 1, 0)
        assert mul(H, x, y) != mul(H, y, x)
        # [x, y] = x y x^-1 y^-1 -> central (0,0,1), by direct expansion of
        # (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')
        comm = mul(H, mul(H, mul(H, x, y), inv(H, x)), inv(H, y))
        assert comm == (0, 0, 1)

    def test_backend_mismatch(self):
        with pytest.raises(groups.BackendMismatchError):
            mul(Z3, (1, 0), (0, 1, 0))

    def test_associativity_sampled(self):
        rng = np.random.default_rng(7)
        for spec in (Z3, F2, H):
            gens = standard_generators(spec)
            els = ball(spec, gens, 3)
            for _ in range(50):
                g, h, k = (els[rng.integers(len(els))] for _ in range(3))
                assert mul(spec, mul(spec, g, h), k) == mul(spec, g, mul(spec, h, k))


# a, b stay below 2^30 and c below 2^61, so c + c' + a b' fits in int64
_AB = st.integers(-2 ** 30, 2 ** 30)
_C = st.integers(-2 ** 61, 2 ** 61)


class TestMulRows:
    @given(st.lists(st.tuples(_AB, _AB, _C, _AB, _AB, _C), min_size=1, max_size=40))
    def test_heisenberg_rows_match_mul(self, pairs):
        rows = np.array(pairs, dtype=np.int64)
        got = groups.mul_rows(H, rows[:, :3], rows[:, 3:])
        assert got.dtype == np.int64
        assert [tuple(r) for r in got.tolist()] == \
            [mul(H, p[:3], p[3:]) for p in pairs]

    @given(st.lists(st.tuples(*[st.integers(-2 ** 62, 2 ** 62)] * 6),
                    min_size=1, max_size=40))
    def test_lattice_rows_match_mul(self, pairs):
        rows = np.array(pairs, dtype=np.int64)
        got = groups.mul_rows(Z3, rows[:, :3], rows[:, 3:])
        assert [tuple(r) for r in got.tolist()] == \
            [mul(Z3, p[:3], p[3:]) for p in pairs]

    def test_rows_broadcast(self):
        # one product per (frontier row, step), as a BFS layer takes it
        g = np.array([[2, -3, 7], [-1, 4, 0]], dtype=np.int64)
        s = np.array([[0, 1, 0], [1, 0, 0], [0, -2, 5]], dtype=np.int64)
        got = groups.mul_rows(H, g[:, None], s)
        assert got.shape == (2, 3, 3)
        assert [[tuple(r) for r in block] for block in got.tolist()] == \
            [[mul(H, tuple(a), tuple(b)) for b in s.tolist()] for a in g.tolist()]


class TestInv:
    def test_lattice(self):
        assert inv(Z3, (2, -1, 0)) == (-2, 1, 0)

    def test_free(self):
        # (a b a^-1)^-1 = a b^-1 a^-1
        assert inv(F2, (1, 2, -1)) == (1, -2, -1)

    def test_heisenberg(self):
        # solve (1,1,0)(a',b',c') = (0,0,0) under the polynomial group law
        assert inv(H, (1, 1, 0)) == (-1, -1, 1)

    def test_right_inverse_sampled(self):
        rng = np.random.default_rng(11)
        for spec in (Z3, F2, H):
            els = ball(spec, standard_generators(spec), 3)
            for _ in range(30):
                g = els[rng.integers(len(els))]
                assert mul(spec, g, inv(spec, g)) == identity(spec)


class TestWordLength:
    def test_lattice_l1(self):
        assert word_length(Z3, (1, -2, 0)) == 3

    def test_free_reduced(self):
        assert word_length(F2, (1, 2, -1, -2)) == 4

    def test_heisenberg_central_bfs(self):
        # breadth-first search from the identity with gens {x^+-1, y^+-1}
        table = BfsTable.build(H, standard_generators(H), 6)
        assert table.length((0, 0, 1)) == 4

    def test_bfs_out_of_range(self):
        table = BfsTable.build(Z3, standard_generators(Z3), 2)
        with pytest.raises(OutOfRangeError):
            table.length((3, 0, 0))

    def test_word_length_matches_oracles(self):
        # the formulas on Z^3 and F_2, and the radius-14 table on Heis3,
        # agree with a breadth-first search over every point it reaches
        for spec, radius in ((H, 6), (Z3, 3), (F2, 3)):
            gens = standard_generators(spec)
            table = BfsTable.build(spec, gens, radius)
            for g in ball(spec, gens, radius):
                assert word_length(spec, g) == table.length(g)
        with pytest.raises(OutOfRangeError):
            word_length(H, (15, 0, 0))

    def test_word_table_built_once_per_spec(self):
        groups.word_length(H, (1, 1, 1))
        assert groups._word_table(groups.heisenberg()) is groups._word_table(H)
        assert groups._word_table(H).r_max == groups.WORD_TABLE_RADIUS

    def test_inverse_invariance_sampled(self):
        rng = np.random.default_rng(3)
        for spec in (Z3, F2, H):
            gens = standard_generators(spec)
            if spec.variant == "heisenberg":
                length = BfsTable.build(spec, gens, 5).length
                els = ball(spec, gens, 5)
            else:
                length = functools.partial(word_length, spec)
                els = ball(spec, gens, 4)
            for _ in range(40):
                g = els[rng.integers(len(els))]
                assert length(g) == length(inv(spec, g))


class TestSpheres:
    def test_z3_sphere_sizes(self):
        gens = standard_generators(Z3)
        assert len(sphere(Z3, gens, 1)) == 6
        assert len(sphere(Z3, gens, 2)) == 18

    def test_f2_sphere_growth_exact(self):
        # 2k (2k-1)^(r-1) for the free group, r <= 8
        gens = standard_generators(F2)
        for r in range(1, 9):
            assert len(sphere(F2, gens, r)) == 4 * 3 ** (r - 1)

    def test_ball_equals_sphere_sums(self):
        for spec, rmax in ((Z3, 5), (F2, 5), (H, 5)):
            gens = standard_generators(spec)
            total = sum(len(sphere(spec, gens, r)) for r in range(rmax + 1))
            assert len(ball(spec, gens, rmax)) == total

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            sphere(F2, standard_generators(F2), 11)

    def test_heisenberg_quartic_growth(self):
        # |B(e,r)| ~ r^4: log-log slope over r in [4, 12] within [3.5, 4.5]
        gens = standard_generators(H)
        table = BfsTable.build(H, gens, 12)
        counts = np.zeros(13, dtype=int)
        for _, d in table.dist.items():
            counts[d] += 1
        sizes = np.cumsum(counts)
        rs = np.arange(4, 13)
        slope = np.polyfit(np.log(rs), np.log(sizes[4:13]), 1)[0]
        assert 3.5 <= slope <= 4.5


class TestNeighbors:
    def test_z1(self):
        Z1 = integer_lattice(1)
        assert sorted(neighbors(Z1, (0,), standard_generators(Z1))) == [(-1,), (1,)]

    def test_f2_identity(self):
        assert len(neighbors(F2, (), standard_generators(F2))) == 4

    def test_heisenberg_from_x(self):
        got = set(neighbors(H, (1, 0, 0), standard_generators(H)))
        assert got == {(2, 0, 0), (1, 1, 1), (0, 0, 0), (1, -1, -1)}


class TestQuasiNorm:
    def test_values(self):
        assert groups.homogeneous_quasi_norm((0, 0, 0)) == 0
        assert groups.homogeneous_quasi_norm((0, 0, 1)) == 1
        assert groups.homogeneous_quasi_norm((3, 2, 6)) == 3 + 2 + 3

    def test_bilipschitz_fit_on_bfs_ball(self):
        # N(g)/4 <= |g| <= 4 N(g) over every BFS-enumerated g (central
        # elements need the factor 4: |(0,0,k^2)| ~ 4k)
        table = BfsTable.build(H, standard_generators(H), 10)
        for g, length in table.dist.items():
            n = groups.homogeneous_quasi_norm(g)
            assert n <= 4 * length and length <= 4 * n


class TestGroupSpec:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            integer_lattice(0)
        with pytest.raises(ValueError):
            free_group(1)

    def test_generator_sets_symmetric(self):
        for spec in (Z3, F2, H):
            gens = standard_generators(spec)
            for g, j in zip(gens.elements, gens.inverse_index):
                assert gens.elements[j] == inv(spec, g)
