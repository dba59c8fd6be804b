"""Group backends: arithmetic, word metrics, spheres and balls."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlab import groups
from greenlab.green import ball_domain
from greenlab.groups import (OutOfRangeError, free_group, heisenberg,
                             identity, integer_lattice, inv, mul,
                             standard_generators, word_length)
from greenlab.measures import uniform_on_generators
from word_ball_oracle import reference_ball, reference_sphere

Z3 = integer_lattice(3)
F2 = free_group(2)
H = heisenberg()


def ball(spec, r):
    """B(e, r), sorted, from the reference BFS."""
    return sorted(reference_ball(spec, r))


def srw(spec):
    return uniform_on_generators(standard_generators(spec))


# step sets for the layer BFS: Heis3's generators, Z^3 with +-2 e2 in
# place of +-e2, and a one-way Heis3 set (no step's inverse is a step)
LAYER_LAWS = {
    "heis3": (H, standard_generators(H).elements),
    "stretched": (Z3, ((1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 1),
                       (0, 0, -1))),
    "one-way": (H, ((1, 0, 0), (0, 1, 0), (-1, -1, 1))),
}


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
            els = ball(spec, 3)
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
            els = ball(spec, 3)
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
        assert reference_ball(H, 6)[(0, 0, 1)] == 4
        assert word_length(H, (0, 0, 1)) == 4

    def test_word_length_matches_oracles(self):
        # the formulas on Z^3 and F_2, and the radius-14 table on Heis3,
        # agree with a breadth-first search over every point it reaches
        heis = reference_ball(H, groups.WORD_TABLE_RADIUS)
        assert len(heis) == 16381
        for spec, dist in ((H, heis), (Z3, reference_ball(Z3, 3)),
                           (F2, reference_ball(F2, 3))):
            for g, d in dist.items():
                assert word_length(spec, g) == d
        with pytest.raises(OutOfRangeError):
            word_length(H, (15, 0, 0))

    def test_word_table_built_once_per_spec(self):
        groups.word_length(H, (1, 1, 1))
        assert groups._word_table(groups.heisenberg()) is groups._word_table(H)
        assert max(groups._word_table(H).values()) == groups.WORD_TABLE_RADIUS

    def test_inverse_invariance_sampled(self):
        rng = np.random.default_rng(3)
        for spec in (Z3, F2, H):
            length = functools.partial(word_length, spec)
            els = ball(spec, 5 if spec.variant == "heisenberg" else 4)
            for _ in range(40):
                g = els[rng.integers(len(els))]
                assert length(g) == length(inv(spec, g))


class TestSpheres:
    # the outer boundary of B(e, r - 1) is the sphere of radius r
    @pytest.mark.parametrize("spec", [Z3, F2, H], ids=["Z3", "F2", "Heis3"])
    def test_ball_boundary_is_reference_sphere(self, spec):
        for r in range(1, 6):
            dom = ball_domain(spec, srw(spec), r - 1)
            assert dom.boundary == reference_sphere(spec, r)

    def test_z3_sphere_sizes(self):
        for r in range(1, 9):
            assert len(ball_domain(Z3, srw(Z3), r - 1).boundary) == 4 * r * r + 2

    def test_f2_sphere_growth_exact(self):
        # 2k (2k-1)^(r-1) for the free group, r <= 8
        for r in range(1, 9):
            assert len(ball_domain(F2, srw(F2), r - 1).boundary) == 4 * 3 ** (r - 1)

    def test_ball_equals_sphere_sums(self):
        for spec, rmax in ((Z3, 5), (F2, 5), (H, 5)):
            total = sum(len(reference_sphere(spec, r)) for r in range(rmax + 1))
            dom = ball_domain(spec, srw(spec), rmax, with_boundary=False)
            assert len(dom) == total == len(reference_ball(spec, rmax))

    def test_heisenberg_quartic_growth(self):
        # |B(e,r)| ~ r^4: log-log slope over r in [4, 12] within [3.5, 4.5]
        counts = np.zeros(13, dtype=int)
        for d in reference_ball(H, 12).values():
            counts[d] += 1
        sizes = np.cumsum(counts)
        rs = np.arange(4, 13)
        slope = np.polyfit(np.log(rs), np.log(sizes[4:13]), 1)[0]
        assert 3.5 <= slope <= 4.5


class TestLayerBall:
    @pytest.mark.parametrize("spec, radius", [(Z3, 4), (H, 6)], ids=["Z3", "Heis3"])
    def test_rows_and_layers_match_reference(self, spec, radius):
        gens = standard_generators(spec).elements
        rows, layers, bdry = groups.layer_ball(spec, identity(spec), gens,
                                               radius, with_boundary=True)
        dist = reference_ball(spec, radius + 1)
        got = [tuple(g) for g in rows.tolist()]
        assert got == sorted(g for g, d in dist.items() if d <= radius)
        assert layers.tolist() == [dist[g] for g in got]
        assert [tuple(g) for g in bdry.tolist()] == reference_sphere(spec, radius + 1)

    def test_centered_layers_are_distances_from_center(self):
        center = (2, -1, 3)
        rows, layers, bdry = groups.layer_ball(
            H, center, standard_generators(H).elements, 4)
        dist = reference_ball(H, 4, center=center)
        assert bdry is None
        assert dict(zip(map(tuple, rows.tolist()), layers.tolist())) == dist

    @given(law=st.sampled_from(sorted(LAYER_LAWS)), radius=st.integers(0, 4),
           center=st.one_of(st.just((0, 0, 0)),
                            st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                      st.integers(-9, 9))),
           with_boundary=st.booleans())
    def test_matches_reference_bfs(self, law, radius, center, with_boundary):
        # rows, layers and boundary of the key BFS against the pure-Python
        # one, for unit, stretched and one-way steps, on and off centre
        spec, steps = LAYER_LAWS[law]
        rows, layers, bdry = groups.layer_ball(spec, center, steps, radius,
                                               with_boundary)
        dist = reference_ball(spec, radius + 1, steps, center)
        got = [tuple(g) for g in rows.tolist()]
        assert got == sorted(g for g, d in dist.items() if d <= radius)
        assert layers.tolist() == [dist[g] for g in got]
        if with_boundary:
            assert [tuple(g) for g in bdry.tolist()] == sorted(
                g for g, d in dist.items() if d == radius + 1)
        else:
            assert bdry is None

    def test_key_range_is_guarded(self):
        # the Heis3 step (0, 1, 0) moves c by a, so the key box of a ball
        # grows with |a| at its centre: at a = 2^30 it still fits int64
        # keys, at a = 2^56 it does not, although the ball is small
        with pytest.raises(OverflowError):
            groups.KeyBox((0, 0), (2 ** 31, 2 ** 31))
        gens = standard_generators(H).elements
        with pytest.raises(OverflowError):
            groups.layer_ball(H, (2 ** 56, 0, 0), gens, 2)
        center = (2 ** 30, 1, -3)
        rows, layers, _ = groups.layer_ball(H, center, gens, 2)
        dist = reference_ball(H, 2, center=center)
        assert dict(zip(map(tuple, rows.tolist()), layers.tolist())) == dist


class TestQuasiNorm:
    def test_values(self):
        assert groups.homogeneous_quasi_norm((0, 0, 0)) == 0
        assert groups.homogeneous_quasi_norm((0, 0, 1)) == 1
        assert groups.homogeneous_quasi_norm((3, 2, 6)) == 3 + 2 + 3

    @pytest.mark.parametrize("k0", [94_906_266, 95_000_000, 3_000_000_000])
    def test_exact_above_two_to_the_53(self, k0):
        # at c = 94906266^2 + 1 the float ceil(sqrt c) is 94906266, one short
        k = np.arange(k0 - 500, k0 + 500, dtype=np.int64)
        c = np.concatenate([k * k - 1, k * k, k * k + 1])
        rows = np.stack([np.full_like(c, 2), np.full_like(c, -3), c], axis=1)
        want = [5 + math.isqrt(int(x)) + (math.isqrt(int(x)) ** 2 != int(x))
                for x in c]
        assert groups.homogeneous_quasi_norm(rows).tolist() == want
        rows[:, 2] *= -1
        assert groups.homogeneous_quasi_norm(rows).tolist() == want

    def test_bilipschitz_fit_on_bfs_ball(self):
        # N(g)/4 <= |g| <= 4 N(g) over every BFS-enumerated g (central
        # elements need the factor 4: |(0,0,k^2)| ~ 4k)
        for g, length in reference_ball(H, 10).items():
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
