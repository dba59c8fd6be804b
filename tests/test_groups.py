"""Group backends: arithmetic, word metrics, spheres and balls."""

import numpy as np
import pytest

from greenlab import groups
from greenlab.groups import (BfsTable, EnumerationCapError, OutOfRangeError,
                             ball, bfs_oracle, exact_oracle, free_group,
                             heisenberg, identity, integer_lattice, inv, mul,
                             neighbors, product_with_z, quasi_norm_oracle,
                             sphere, standard_generators)

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
        assert exact_oracle(Z3).length((1, -2, 0)) == 3

    def test_free_reduced(self):
        assert exact_oracle(F2).length((1, 2, -1, -2)) == 4

    def test_heisenberg_central_bfs(self):
        # breadth-first search from the identity with gens {x^+-1, y^+-1}
        oracle = bfs_oracle(H, standard_generators(H), 6)
        assert oracle.length((0, 0, 1)) == 4

    def test_bfs_out_of_range(self):
        oracle = bfs_oracle(Z3, standard_generators(Z3), 2)
        with pytest.raises(OutOfRangeError):
            oracle.length((3, 0, 0))

    def test_word_length_matches_oracles(self):
        gens = standard_generators(H)
        table = bfs_oracle(H, gens, 6)
        for g in ball(H, gens, 6):
            assert groups.word_length(H, g) == table.length(g)
        for spec in (Z3, F2):
            for g in ball(spec, standard_generators(spec), 3):
                assert groups.word_length(spec, g) == exact_oracle(spec).length(g)
        p = groups.product_with_z(H)
        assert groups.word_length(p, ((0, 0, 1), -2)) == 6
        with pytest.raises(OutOfRangeError):
            groups.word_length(H, (15, 0, 0))

    def test_word_table_built_once_per_spec(self):
        groups.word_length(H, (1, 1, 1))
        assert groups._word_table(groups.heisenberg()) is groups._word_table(H)
        assert groups._word_table(H).r_max == groups.WORD_TABLE_RADIUS

    def test_inverse_invariance_sampled(self):
        rng = np.random.default_rng(3)
        for spec in (Z3, F2, H):
            gens = standard_generators(spec)
            if spec.variant == "heisenberg":
                oracle = bfs_oracle(spec, gens, 5)
                els = ball(spec, gens, 5)
            else:
                oracle = exact_oracle(spec)
                els = ball(spec, gens, 4)
            for _ in range(40):
                g = els[rng.integers(len(els))]
                assert oracle.length(g) == oracle.length(inv(spec, g))


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
        # A^-1 N(g) - B <= |g| <= A N(g) + B over every BFS-enumerated g,
        # with fitted A <= 4 (central elements force A = 4: |(0,0,k^2)| ~ 4k)
        table = BfsTable.build(H, standard_generators(H), 10)
        oracle = quasi_norm_oracle(H, calibration=table)
        a, b = oracle.bilip
        assert a <= 4
        for g, length in table.dist.items():
            n = groups.homogeneous_quasi_norm(g)
            assert n / a - b <= length + 1e-9
            assert length <= a * n + b + 1e-9


class TestGroupSpec:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            integer_lattice(0)
        with pytest.raises(ValueError):
            free_group(1)

    def test_product_nesting_capped(self):
        p = product_with_z(H)
        with pytest.raises(ValueError):
            product_with_z(p)

    def test_product_ops(self):
        p = product_with_z(integer_lattice(2))
        g = ((1, 0), 2)
        h = ((0, -1), -1)
        assert mul(p, g, h) == ((1, -1), 1)
        assert mul(p, g, inv(p, g)) == identity(p)
        assert groups.exact_word_length(p, g) == 3

    def test_generator_sets_symmetric(self):
        for spec in (Z3, F2, H, product_with_z(Z3)):
            gens = standard_generators(spec)
            for g, j in zip(gens.elements, gens.inverse_index):
                assert gens.elements[j] == inv(spec, g)
