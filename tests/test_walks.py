"""Trajectory experiments: speed, increments, Green speed, dispersion,
the Heis3 centre's growth."""

import json
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import greenlab
from greenlab import groups, measures, walks
from greenlab.cli import STATUS_CONFIG, run
from greenlab.measures import (PmfOnZ, StepMeasure, UNIT_MASS, lazy_transform,
                               pmf_from_dict, shell_measure, stable_z_measure,
                               uniform_on_generators)
from greenlab.rng import derive_stream
from greenlab.walks import (_batch_positions, _shell_tail_probability,
                            _support_gcd, batch_lengths, green_speed_estimate,
                            increment_ratio_max, product_dispersion_bound,
                            sample_jump_lengths, speed_in_probability,
                            truncated_coordinate_moments, tv_dispersion_z)
from running_max_oracle import radius_mass, radius_tail, running_max_cdf
from word_ball_oracle import reference_ball

Z1 = groups.integer_lattice(1)
Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
H = groups.heisenberg()


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


class TestSimulateWalk:
    """Whole trajectories through batch_lengths."""

    def test_z3_diffusive_scaling(self):
        # E|X_n|_1 = sqrt(6 n / pi) ~ 1.382 sqrt(n): mean/sqrt(n) in [1.3, 1.8]
        rng = derive_stream(1, "walk-z3")
        n = 10 ** 4
        lengths = batch_lengths(Z3, srw(Z3), n, 500, rng, [n])[n]
        ratio = lengths.mean() / np.sqrt(n)
        assert 1.3 <= ratio <= 1.8

    def test_f2_escape_rate(self):
        # |X_n|/n -> (q-1)/(q+1) = 1/2 on the 4-regular tree
        rng = derive_stream(2, "walk-f2")
        n = 10 ** 4
        lengths = batch_lengths(F2, srw(F2), n, 500, rng, [n])[n]
        assert abs(lengths.mean() / n - 0.5) < 0.02


def heis_central_law():
    """Finite Heis3 law on the unit generators and the central +-z steps."""
    steps = list(groups.standard_generators(H)) + [(0, 0, 1), (0, 0, -1)]
    return StepMeasure(H, "finite", "heis-central",
                       probs={g: 1.0 / len(steps) for g in steps})


BATCH_LAWS = {
    "z3-srw": (Z3, lambda: srw(Z3)),
    "z3-srw-lazy": (Z3, lambda: lazy_transform(srw(Z3), 0.3)),
    "z3-shell": (Z3, lambda: shell_measure(Z3, r0=3)),
    "z1-stable-lazy": (Z1, lambda: lazy_transform(stable_z_measure(1.0), 0.2)),
    "heis3-srw": (H, lambda: srw(H)),
    "heis3-shell": (H, lambda: shell_measure(H, r0=3)),
    "heis3-central": (H, heis_central_law),
}


def replay_positions(spec, mu, n, trials, rng, checkpoints, truncate_at=None):
    """walks._batch_positions replayed walker by walker through groups.mul:
    the same replica split, spawned streams and step-major sample_steps
    blocks, with each step applied by the group law."""
    replicas = -(-trials // walks.REPLICA_WALKERS)
    edges = [trials * i // replicas for i in range(replicas + 1)]
    want = {k: [] for k in checkpoints}
    for stream, lo, hi in zip(rng.spawn(replicas), edges, edges[1:]):
        b = hi - lo
        block = max(1, walks.BLOCK_STEPS // b)
        walkers = [groups.identity(spec)] * b
        if 0 in want:
            want[0] += walkers
        for k0 in range(0, n, block):
            t = min(block, n - k0)
            rows = mu.sample_steps(stream, b * t).tolist()
            for j in range(t):
                for w, row in enumerate(rows[j * b:(j + 1) * b]):
                    if truncate_at is not None and sum(map(abs, row)) > truncate_at:
                        row = groups.identity(spec)
                    walkers[w] = groups.mul(spec, walkers[w], tuple(row))
                if k0 + j + 1 in want:
                    want[k0 + j + 1] += walkers
    return want


# (REPLICA_WALKERS, BLOCK_STEPS): the defaults, under which 40 walkers are
# one replica walking 30 steps in one block, and small sizes that split
# them into three replicas of four-step blocks
SIZES = [(walks.REPLICA_WALKERS, walks.BLOCK_STEPS), (16, 64)]


class TestBatchPositions:
    @pytest.mark.parametrize("name", sorted(BATCH_LAWS))
    def test_matches_per_walker_mul(self, name, monkeypatch):
        # the batch walker against a loop of groups.mul fed the same
        # sample_steps rows in the same replica and block order
        spec, law = BATCH_LAWS[name]
        mu = law()
        n, trials, checkpoints = 30, 40, [0, 1, 7, 8, 30]
        for sizes in SIZES:
            monkeypatch.setattr(walks, "REPLICA_WALKERS", sizes[0])
            monkeypatch.setattr(walks, "BLOCK_STEPS", sizes[1])
            got = _batch_positions(spec, mu, n, trials, derive_stream(31, name),
                                   checkpoints)
            want = replay_positions(spec, mu, n, trials,
                                    derive_stream(31, name), checkpoints)
            assert sorted(got) == checkpoints
            for k in checkpoints:
                assert got[k].dtype == np.int64
                assert [tuple(r) for r in got[k].tolist()] == want[k], (sizes, k)

    def test_central_steps_move_the_centre(self):
        mu = heis_central_law()
        pos = _batch_positions(H, mu, 200, 300, derive_stream(32, "c"), [200])[200]
        assert np.abs(pos[:, 2]).max() > 0
        assert set(np.unique(mu.sample_steps(derive_stream(33, "c"), 2000)[:, 2])) == {-1, 0, 1}

    def test_truncation_drops_long_steps(self, monkeypatch):
        mu = shell_measure(H, r0=3)
        # 4000 walkers are one replica, whose first block holds step 1 of
        # every walker: n = 1 replays as one sample_steps draw
        assert 4000 <= walks.REPLICA_WALKERS
        steps = mu.sample_steps(derive_stream(34, "t").spawn(1)[0], 4000)
        lengths = np.abs(steps).sum(axis=1)
        assert lengths.max() > 5
        trunc = _batch_positions(H, mu, 1, 4000, derive_stream(34, "t"), [1],
                                 truncate_at=5)[1]
        assert (trunc == np.where((lengths > 5)[:, None], 0, steps)).all()
        # and over several replicas and blocks, against the group law
        monkeypatch.setattr(walks, "REPLICA_WALKERS", 16)
        monkeypatch.setattr(walks, "BLOCK_STEPS", 64)
        got = _batch_positions(H, mu, 12, 40, derive_stream(36, "t"), [5, 12],
                               truncate_at=5)
        want = replay_positions(H, mu, 12, 40, derive_stream(36, "t"), [5, 12],
                                truncate_at=5)
        for k in (5, 12):
            assert [tuple(r) for r in got[k].tolist()] == want[k], k

    @pytest.mark.parametrize("name", ["heis3-shell", "z1-stable-lazy"])
    def test_positions_do_not_depend_on_cpus(self, name, monkeypatch):
        # seven replicas on 1, 2 and 4 threads, switching threads often
        monkeypatch.setattr(walks, "REPLICA_WALKERS", 16)
        monkeypatch.setattr(walks, "BLOCK_STEPS", 256)
        spec, law = BATCH_LAWS[name]
        mu = law()
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 4):
                monkeypatch.setattr(greenlab, "CPUS", cpus)
                runs.append(_batch_positions(spec, mu, 200, 100,
                                             derive_stream(37, name), [50, 200]))
        finally:
            sys.setswitchinterval(interval)
        for got in runs[1:]:
            for k in (50, 200):
                assert np.array_equal(got[k], runs[0][k]), k

    @pytest.mark.parametrize("n", [7, 60, 75])
    def test_positions_do_not_depend_on_checkpoints(self, n, monkeypatch):
        # two replicas of 50 walkers in blocks of 20 steps: n = 60 ends on a
        # block boundary, 7 and 75 inside a block
        monkeypatch.setattr(walks, "REPLICA_WALKERS", 50)
        monkeypatch.setattr(walks, "BLOCK_STEPS", 1000)
        mu = shell_measure(H, r0=3)
        alone = _batch_positions(H, mu, n, 100, derive_stream(38, "c"), [n])[n]
        among = _batch_positions(H, mu, n, 100, derive_stream(38, "c"),
                                 [1, 7, n])[n]
        assert np.array_equal(alone, among)

    def test_checkpoints_outside_the_walk_rejected(self):
        for checkpoints in ([-1, 5], [6]):
            with pytest.raises(ValueError, match="checkpoints"):
                _batch_positions(Z3, srw(Z3), 5, 10, derive_stream(39, "c"),
                                 checkpoints)

    def test_law_of_another_group_rejected(self):
        rng = derive_stream(35, "spec")
        for spec in (Z3, H):
            with pytest.raises(ValueError, match="not a step law"):
                _batch_positions(spec, stable_z_measure(1.0), 5, 10, rng, [5])

    def test_tree_walker_rejects_other_laws(self):
        # the tree walker reads nothing of the law but its laziness, so any
        # law but (lazy) SRW on the backend would be walked as SRW
        rng = derive_stream(36, "tree-law")
        biased = StepMeasure(F2, "finite", "biased",
                             probs={(1,): 0.4, (-1,): 0.4, (2,): 0.1, (-2,): 0.1})
        for mu in (stable_z_measure(1.0), biased, srw(groups.free_group(3))):
            with pytest.raises(ValueError, match=r"measure must be SRW on F_2 "
                               r".* got " + re.escape(mu.name)):
                batch_lengths(F2, mu, 5, 10, rng, [5])
        lazy = lazy_transform(srw(F2), 0.5)
        assert batch_lengths(F2, lazy, 5, 10, rng, [5])[5].shape == (10,)

    @pytest.mark.parametrize("rank, laziness", [(2, 0.0), (2, 0.3), (3, 0.5)])
    def test_tree_chain_matches_per_walker_steps(self, rank, laziness):
        # the vectorised birth-death chain against one walker at a time on
        # the same uniforms: stay below the laziness, step towards e with
        # the next 1 / (2k) of the rest when away from it, else away; each
        # step yields a new array
        walkers, steps = 50, 40
        chain = walks._tree_distance_chain(rank, walkers,
                                           derive_stream(37, "tree"), laziness)
        got = [next(chain) for _ in range(steps + 1)]
        rng = derive_stream(37, "tree")
        d = [0] * walkers
        want = [list(d)]
        for _ in range(steps):
            for i, u in enumerate(rng.random(walkers)):
                if u >= laziness:
                    closer = d[i] > 0 and u < laziness + (1 - laziness) / (2 * rank)
                    d[i] += -1 if closer else 1
            want.append(list(d))
        assert [g.tolist() for g in got] == want
        assert len({id(g) for g in got}) == len(got)

    @pytest.mark.parametrize("backend", ["Z^3", "Heis3"])
    def test_speed_with_stable_law_off_z_exits_2(self, backend, tmp_path):
        cfg = {"kind": "speed", "backend": backend,
               "measure": {"type": "stable", "alpha": 1.0},
               "n_list": [10], "eps_list": [0.5], "trials": 20, "seed": 0,
               "output": str(tmp_path / "speed.csv")}
        path = tmp_path / "speed.json"
        path.write_text(json.dumps(cfg))
        assert run(str(path)) == STATUS_CONFIG
        assert not (tmp_path / "speed.csv").exists()


class TestSpeedInProbability:
    def test_z3_diffusive_small(self):
        rng = derive_stream(5, "speed-z3")
        table = speed_in_probability(Z3, srw(Z3), [400], [0.5], 2000, rng)
        (_, _, p, _), = table.rows
        assert p <= 0.01

    def test_f2_positive_speed(self):
        rng = derive_stream(6, "speed-f2")
        table = speed_in_probability(F2, srw(F2), [10 ** 4], [0.25], 500, rng)
        (_, _, p, _), = table.rows
        assert p >= 0.99

    def test_monotone_in_eps(self):
        rng = derive_stream(7, "speed-mono")
        table = speed_in_probability(Z3, srw(Z3), [100], [0.1, 0.3, 0.5], 1000, rng)
        probs = [p for _, _, p, _ in table.rows]
        assert probs == sorted(probs, reverse=True)

    def test_heisenberg_shell_trend_small(self):
        mu = shell_measure(H, r0=3)
        rng = derive_stream(8, "speed-h")
        table = speed_in_probability(H, mu, [100, 1000], [0.5], 800, rng)
        probs = [p for _, _, p, _ in table.rows]
        assert table.metric_mode == "quasi_norm"
        assert probs[1] <= probs[0] + 0.03

    def test_ci_halfwidth_bound(self):
        rng = derive_stream(9, "speed-ci")
        table = speed_in_probability(Z3, srw(Z3), [50], [0.2], 400, rng)
        (_, _, _, ci), = table.rows
        assert ci <= 1 / np.sqrt(400) + 1e-12


class TestIncrementRatioMax:
    def test_srw_constant_one(self):
        rng = derive_stream(10, "incr-srw")
        rep = increment_ratio_max(srw(Z3), 10 ** 3, 100, rng, [100, 1000])
        assert rep.medians == [1.0, 1.0]
        assert np.max(rep.per_trial_max) <= 1.0

    def test_shell_median_grows_strictly(self):
        mu = shell_measure(H, r0=3)
        rng = derive_stream(11, "incr-shell")
        rep = increment_ratio_max(mu, 10 ** 4, 200, rng, [100, 10 ** 4])
        assert rep.medians[1] > rep.medians[0]

    def test_stable_median_grows_strictly(self):
        mu = stable_z_measure(1.0)
        rng = derive_stream(12, "incr-stable")
        rep = increment_ratio_max(mu, 10 ** 4, 200, rng, [100, 10 ** 4])
        assert rep.medians[1] > rep.medians[0]

    def test_jump_length_law(self):
        mu = shell_measure(H, r0=3)
        rng = derive_stream(13, "incr-law")
        lens = sample_jump_lengths(mu, rng, 10 ** 5)
        assert set(np.unique(lens[lens < 3])) <= {1.0}
        p3 = radius_mass(mu, 3)
        assert abs((lens == 3).mean() - p3) < 4 * np.sqrt(p3 / 10 ** 5)

    def test_stable_jump_lengths_draw_no_sign(self):
        # a length is the magnitude alone: one uniform per jump, any tail
        # redraws, and no sign draw
        mu = stable_z_measure(1.0)
        a, b = (derive_stream(16, "incr-stable-len") for _ in range(2))
        lens = sample_jump_lengths(mu, a, 1000)
        assert (lens == mu.sample_stable_ints(b, 1000)).all() and lens.min() >= 1
        assert a.random() == b.random()

    def test_lazy_finite_jump_lengths_4sigma(self):
        # the identity is in a lazy finite law's support: one draw, no
        # second laziness mask (which gave P(0) = 0.751 here)
        mu = lazy_transform(srw(Z3), 0.5)
        n = 10 ** 5
        lens = sample_jump_lengths(mu, derive_stream(14, "incr-lazy-srw"), n)
        assert set(np.unique(lens)) == {0.0, 1.0}
        p0 = mu.pmf((0, 0, 0))
        assert p0 == 0.5
        assert abs((lens == 0).mean() - p0) < 4 * np.sqrt(p0 * (1 - p0) / n)

    def test_lazy_shell_jump_lengths_4sigma(self):
        mu = lazy_transform(shell_measure(H, r0=3), 0.5)
        n = 10 ** 5
        lens = sample_jump_lengths(mu, derive_stream(15, "incr-lazy-shell"), n)
        assert 2.0 not in lens
        for length, p in [(0, mu.pmf((0, 0, 0))), (1, 0.5 * UNIT_MASS),
                          (3, radius_mass(mu, 3)),
                          (4, radius_mass(mu, 4))]:
            freq = (lens == length).mean()
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n), length

    def test_running_max_oracle_at_one_step(self):
        # M_1 = R_1: the oracle at n = 1 is the radius law, summed directly
        shell, stable = shell_measure(H, r0=3), stable_z_measure(1.0)
        r_max = 2000
        unit = np.zeros(r_max + 1)
        unit[1] = 1.0
        masses = {
            "srw": unit,
            "shell": np.array([radius_mass(shell, r) for r in range(r_max + 1)])
            + UNIT_MASS * unit,
            "stable": np.array([0.0] + [stable.pmf((r,)) + stable.pmf((-r,))
                                        for r in range(1, r_max + 1)]),
        }
        for name, mu in [("srw", srw(Z3)), ("shell", shell), ("stable", stable)]:
            tail, mass = radius_tail(mu), masses[name]
            for x in [0.5, 1.0, 2.5, 3.0, 4.0, 7.5, 999.0, 1000.0, 1001.0,
                      1500.5, float(r_max)]:
                # shell_norm carries a tail bound good to 1e-8
                assert running_max_cdf(tail, 1, x) == pytest.approx(
                    mass[:int(x) + 1].sum(), abs=1e-8), (name, x)
                if x < 2:
                    continue  # the normalisation defect sits in the jump at 1
                jump = running_max_cdf(tail, 1, x) - running_max_cdf(
                    tail, 1, x, strict=True)
                assert jump == pytest.approx(mass[int(x)] if x == int(x) else 0.0,
                                             rel=1e-9, abs=1e-15), (name, x)


class TestGreenSpeed:
    def test_f2_single_step_sanity(self):
        # at n = 1 the mean equals E d_G(e, S_1) = log 3 exactly on the tree
        rng = derive_stream(14, "gs-f2")
        rows = green_speed_estimate(F2, srw(F2), [1], 500, rng).rows
        assert rows[0].mean == pytest.approx(np.log(3.0), abs=1e-12)

    def test_f2_limit(self):
        rng = derive_stream(15, "gs-f2-limit")
        rows = green_speed_estimate(F2, srw(F2), [2000], 500, rng).rows
        assert abs(rows[0].mean - np.log(3.0) / 2) < 0.05

    def test_z3_small_scale(self):
        # quick version (acceptance runs n up to 1e3): decreasing and small
        rng = derive_stream(16, "gs-z3")
        rows = green_speed_estimate(Z3, srw(Z3), [50, 200], 300, rng).rows
        assert rows[1].mean < rows[0].mean
        assert rows[1].mean < 0.15


class TestDispersion:
    def test_zero_shift(self):
        mu = stable_z_measure(1.0)
        curve = tv_dispersion_z(mu.to_pmf_on_z(2000), 0, [16, 64], 4000)
        assert all(tv == 0.0 for _, tv, _ in curve.rows)

    def test_periodic_srw_flagged_tv_one(self):
        pmf = pmf_from_dict({-1: 0.5, 1: 0.5})
        curve = tv_dispersion_z(pmf, 1, [16, 64, 256], 600)
        assert curve.periodic
        for _, tv, dt in curve.rows:
            assert tv == pytest.approx(1.0, abs=2 * dt + 1e-12)

    def test_stable_tv_decreasing(self):
        mu = stable_z_measure(1.0)
        pmf = mu.to_pmf_on_z(10 ** 5)
        curve = tv_dispersion_z(pmf, 1, [16, 64, 256], 10 ** 5)
        tvs = [tv for _, tv, _ in curve.rows]
        assert tvs[0] > tvs[1] > tvs[2]
        assert not curve.periodic

    def test_mirror_shift_invariance(self):
        mu = stable_z_measure(1.0)
        pmf = mu.to_pmf_on_z(5000)
        c1 = tv_dispersion_z(pmf, 3, [16, 64], 5000)
        c2 = tv_dispersion_z(pmf, -3, [16, 64], 5000)
        for (_, a, _), (_, b, _) in zip(c1.rows, c2.rows):
            assert a == pytest.approx(b, abs=1e-14)

    def test_chain_peak_allocation(self):
        # one live power, and no window: the pmf is passed without being
        # kept and in half form, the chain hands each power's half to its
        # squaring, which frees it after the forward slabs, and no real grid
        # is built.  The law is even, so each squaring is on the real half
        # spectrum: its peak is a half window (the input half, then the
        # output rows 0..R) beside the complex half S of T,
        # (n1 / 2 + 1) x (n2 / 2 + 1) values; the scratch of one column slab
        # per thread: at most four arrays (the slab, its transform, its
        # twiddles and its inverse transform) of about n1 x SLAB_COLUMNS x 8
        # bytes each; and the two twiddle tables.  The row stage holds S
        # alone beside its blocks.  The support gcd and a checkpoint's TV
        # add blocks of a few hundred KiB to a power.  A mirrored window
        # beside the half (the chain before half forms) breaks the bound.
        cap = 5 * 10 ** 5
        mu = stable_z_measure(1.0)
        # a full window squares at cyclic length 3 cap + 1 (this also loads
        # scipy.fft before tracing starts)
        n1, n2 = measures._four_step_shape(3 * cap + 1)
        measures._twiddles.cache_clear()
        tracemalloc.start()
        try:
            tv_dispersion_z(mu.to_pmf_on_z(cap), 1, [16, 256, 4096], cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        spectrum = 16 * (n1 // 2 + 1) * (n2 // 2 + 1)
        half = 8 * n2 * (cap // n2 + 1)
        threads = min(greenlab.CPUS, -(-(n2 // 2 + 1) // measures.SLAB_COLUMNS))
        slabs = threads * 4 * 8 * n1 * measures.SLAB_COLUMNS
        tables = 16 * (n1 // 2 + 1) * 2 * (math.isqrt(n2 - 1) + 1)
        assert peak <= half + spectrum + slabs + tables + 2 ** 19, \
            (peak - half - spectrum) / (slabs + tables)

    def test_chains_never_scan_for_evenness(self):
        # every law's pmf comes in half form, so every squaring of either
        # chain past the direct branch takes the even route: the route is
        # read off the form, and no window is scanned.  The TVs agree with
        # those of the dense even windows, squared by the real-FFT product
        mu = stable_z_measure(1.0)
        h = lazy_transform(srw(Z1), 0.5)
        with mock.patch.object(measures, "_even_square",
                               wraps=measures._even_square) as even:
            curve = tv_dispersion_z(mu.to_pmf_on_z(20000), 1, [16, 256], 20000)
            rows = product_dispersion_bound(h.to_pmf_on_z(300),
                                            mu.to_pmf_on_z(3000), (1, 1),
                                            [16, 64], 300, 3000)
        # 8 squarings of the first chain, 6 of the second's Z^1 chain; the
        # lazy SRW chain's 1201-point window stays on the direct branch
        assert even.call_count == 8 + 6
        dense = lambda p: PmfOnZ(p.vals, p.lo, p.delta_trunc)
        dense_curve = tv_dispersion_z(dense(mu.to_pmf_on_z(20000)), 1,
                                      [16, 256], 20000)
        for got, want in zip(dense_curve.rows, curve.rows):
            assert got[0] == want[0]
            assert got[1:] == pytest.approx(want[1:], rel=0, abs=1e-14)
        dense_rows = product_dispersion_bound(
            dense(h.to_pmf_on_z(300)), dense(mu.to_pmf_on_z(3000)), (1, 1),
            [16, 64], 300, 3000)
        for got, want in zip(dense_rows, rows):
            assert got.n == want.n and got.tv_h == want.tv_h
            assert (got.tv_product, got.tv_z, got.error_budget) == pytest.approx(
                (want.tv_product, want.tv_z, want.error_budget), rel=0, abs=1e-14)

    def test_non_power_checkpoint_rejected(self):
        pmf = pmf_from_dict({-1: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            tv_dispersion_z(pmf, 1, [10], 100)
        with pytest.raises(ValueError):
            tv_dispersion_z(pmf, 1, [0, 16], 100)


class TestSupportGcd:
    @staticmethod
    def pmf_on(support, lo):
        vals = np.zeros(int(support.max()) + 1)
        vals[support] = 1.0 / len(support)
        return PmfOnZ(vals, lo)

    @staticmethod
    def reference_gcd(support):
        g = 0
        for d in np.diff(np.sort(support)):
            g = math.gcd(g, int(d))
        return g

    def test_matches_math_gcd_on_random_supports(self):
        rng = np.random.default_rng(11)
        for step in (1, 1, 2, 3, 6, 7):
            for _ in range(20):
                size = int(rng.integers(2, 40))
                sup = np.unique(rng.integers(0, 500, size) * step
                                + int(rng.integers(0, step)))
                lo = int(rng.integers(-300, 300))
                got = _support_gcd(self.pmf_on(sup, lo))
                assert got == self.reference_gcd(sup)
                assert isinstance(got, int)

    def test_periodic_supports(self):
        assert _support_gcd(self.pmf_on(np.arange(0, 41, 2), -20)) == 2
        assert _support_gcd(self.pmf_on(np.array([1, 4, 13, 31]), -5)) == 3
        assert _support_gcd(pmf_from_dict({-1: 0.5, 1: 0.5})) == 2
        assert _support_gcd(stable_z_measure(1.0).to_pmf_on_z(1000)) == 1

    def test_single_point_gives_zero(self):
        assert _support_gcd(pmf_from_dict({7: 1.0})) == 0

    @pytest.mark.parametrize("step", [2, 3])
    def test_periodic_support_over_several_chunks(self, step):
        chunk = walks._GCD_CHUNK
        sup = np.arange(1, 3 * chunk + 5, step)
        assert _support_gcd(self.pmf_on(sup, -chunk)) == step
        # one gap of step + 1 in the last chunk breaks the period
        assert _support_gcd(self.pmf_on(np.append(sup, sup[-1] + step + 1), 0)) == 1

    @pytest.mark.parametrize("step", [2, 3])
    def test_gap_across_a_chunk_edge(self, step):
        # the only gap that is not a multiple of 6 spans a chunk edge
        chunk = walks._GCD_CHUNK
        left = np.arange(chunk - 6 * 40, chunk, 6)
        right = left[-1] + 6 * step + step + np.arange(0, 6 * 40, 6)
        sup = np.concatenate([left, right])
        assert sup[-len(right) - 1] < chunk <= sup[-len(right)]
        assert _support_gcd(self.pmf_on(sup, 0)) == step

    def test_empty_chunks_are_skipped(self):
        # the gap from the first chunk to the fourth is carried over two
        # chunks with no atom
        chunk = walks._GCD_CHUNK
        for gap in (3 * chunk + 10, 3 * chunk + 21):
            assert _support_gcd(self.pmf_on(np.array([5, 5 + gap]), 0)) == gap
        sup = np.array([5, 11, 11 + 3 * chunk])
        assert _support_gcd(self.pmf_on(sup, 0)) == 6

    @pytest.mark.parametrize("chunk", [2, 5, walks._GCD_CHUNK])
    def test_half_form_reads_the_whole_window(self, chunk, monkeypatch):
        # an even pmf's support is its half's mirrored: {2, 5} spans gaps
        # 3 and 4 (gcd 1), a lone atom at 4 spans the gap 8
        monkeypatch.setattr(walks, "_GCD_CHUNK", chunk)
        for atoms in ((2, 5), (1, 3), (0, 3, 6), (4,), (0,), (3, 9, 12)):
            half = np.zeros(max(atoms) + 4)
            half[list(atoms)] = 1.0
            pmf = PmfOnZ.even(half / (2 * half.sum() - half[0]))
            support = np.flatnonzero(pmf.vals)
            assert _support_gcd(pmf) == self.reference_gcd(support), atoms

    def test_single_atom_in_a_long_window_gives_zero(self):
        vals = np.zeros(3 * walks._GCD_CHUNK + 1)
        vals[2 * walks._GCD_CHUNK - 1] = 1.0
        assert _support_gcd(PmfOnZ(vals, -5)) == 0


class TestProductDispersion:
    @staticmethod
    def lazy_srw_pmf(cap):
        return lazy_transform(srw(Z1), 0.5).to_pmf_on_z(cap)

    def test_identity_shift_is_zero(self):
        h = self.lazy_srw_pmf(70)
        z = stable_z_measure(1.0).to_pmf_on_z(10 ** 4)
        rows = product_dispersion_bound(h, z, (0, 0), [16, 64], 70, 10 ** 4)
        for r in rows:
            assert r.tv_product == 0.0 and r.tv_h == 0.0 and r.tv_z == 0.0

    def test_h_only_shift_matches_factor(self):
        # with z = (1, 0) the second factor cancels: TV_prod = TV_H up to the
        # truncated mass of the convolved Z factor
        h = self.lazy_srw_pmf(70)
        z = stable_z_measure(1.0).to_pmf_on_z(10 ** 4)
        rows = product_dispersion_bound(h, z, (1, 0), [16, 64], 70, 10 ** 4)
        for r in rows:
            assert r.tv_product == pytest.approx(r.tv_h, abs=2 * r.error_budget)
            assert r.tv_product <= r.tv_h + 1e-12

    @pytest.mark.parametrize("shift", [(0, 0), (1, 1), (-2, 3), (5, -1)])
    @pytest.mark.parametrize("rows", [1, 3, 40])
    def test_product_tv_matches_the_whole_product(self, shift, rows, monkeypatch):
        # blocks of `rows` rows u, the last one ragged, against the whole
        # outer products of the zero-padded factors
        rng = np.random.default_rng(41)
        a, b = rng.random(37), rng.random(23)
        a, b = a / a.sum(), b / b.sum()
        sh, sz = shift
        pad = lambda v, s, late: np.concatenate(
            [v, np.zeros(abs(s))] if (s >= 0) == late else [np.zeros(abs(s)), v])
        want = 0.5 * np.abs(np.outer(pad(a, sh, True), pad(b, sz, True))
                            - np.outer(pad(a, sh, False), pad(b, sz, False))).sum()
        monkeypatch.setattr(walks, "_PRODUCT_BLOCK_BYTES", 8 * (len(b) + abs(sz)) * rows)
        got = walks._tv_product_shift(PmfOnZ(a, -5), sh, PmfOnZ(b, 3), sz)
        assert got == pytest.approx(want, rel=1e-14)

    def test_product_tv_peak_allocation(self):
        # criterion 12's factors: an H window of 601 points and a Z window
        # of 100,001, both in half form; beside the four padded copies the
        # blocks take two buffers of at most _PRODUCT_BLOCK_BYTES (here one
        # row each)
        a = self.lazy_srw_pmf(300)
        b = stable_z_measure(1.0).to_pmf_on_z(5 * 10 ** 4)
        assert a.half is not None and b.half is not None
        tracemalloc.start()
        try:
            walks._tv_product_shift(a, 1, b, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copies = 2 * 8 * (len(a) + 1) + 2 * 8 * (len(b) + 1)
        rows = max(1, walks._PRODUCT_BLOCK_BYTES // (8 * (len(b) + 1)))
        assert peak <= copies + 2 * 8 * rows * (len(b) + 1) + 2 ** 16, peak

    def test_tensor_inequality_holds(self):
        h = self.lazy_srw_pmf(300)
        z = stable_z_measure(1.0).to_pmf_on_z(5 * 10 ** 4)
        rows = product_dispersion_bound(h, z, (1, 1), [16, 64, 256], 300,
                                        5 * 10 ** 4)
        for r in rows:
            assert r.slack >= -(2 * r.error_budget + 1e-12)


class TestMalcev:
    def test_growth_bound_on_bfs_ball(self):
        # |x2(g)| <= |g|^2/4 + |g| over the BFS-enumerated ball (sharp along
        # x^m y^m words); the max ratio |x2|/|g|^2 stays finite
        worst = 0.0
        for g, length in reference_ball(H, 12).items():
            if length == 0:
                continue
            c = abs(g[2])
            assert c <= length ** 2 / 4 + length
            worst = max(worst, c / length ** 2)
        assert worst <= 0.5


class TestTruncatedMoments:
    def test_non_increasing_small_grid(self):
        mu = shell_measure(H, r0=3)
        rng = derive_stream(18, "mom")
        rows = truncated_coordinate_moments(mu, [100, 1000], 800, rng)
        assert rows[1].weight1_second_moment <= rows[0].weight1_second_moment * 1.1
        assert rows[1].weight2_second_moment <= rows[0].weight2_second_moment * 1.1
        assert rows[1].coupling_failure_rate < rows[0].coupling_failure_rate

    def test_requires_heisenberg_shell(self):
        rng = derive_stream(19, "mom2")
        with pytest.raises(ValueError):
            truncated_coordinate_moments(srw(Z3), [100], 10, rng)

    @pytest.mark.parametrize("laziness", [0.0, 0.5])
    def test_shell_tail_matches_radius_law(self, laziness):
        mu = lazy_transform(shell_measure(H, r0=3), laziness)
        tail = radius_tail(mu)
        # shell_norm_constant stands 1/(M log M) in for sum_{r >= M} f(r)
        m = 10 ** 7
        tol = (1 - laziness) * (1 - UNIT_MASS) * mu.shell_norm / (m * np.log(m))
        for x in (0, 1, 2, mu.r0, 10, 1000):
            want = float(tail(np.array([x], dtype=np.float64))[0])
            assert abs(_shell_tail_probability(mu, x) - want) <= tol, x
        assert _shell_tail_probability(mu, 0) == 1 - laziness
        assert _shell_tail_probability(mu, 2) == (1 - laziness) * (1 - UNIT_MASS)
