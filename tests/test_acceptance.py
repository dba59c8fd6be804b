"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Criteria 9 and 11 are checked against exact oracles.  Criterion 9 holds
the fitted Kesten root exp(rate / 2) at m = 12 to 0.02 of sqrt(3)/2
(0.8545), and the raw root p_24^(1/24) = 0.7472 to McKay's closed form;
the raw root converges only like m^{-3/(4m)} and is 0.812 at m = 40.
Criterion 11 holds the Monte Carlo running maxima inside a DKW band
around their exact law prod_k P(R <= k x); its exact medians grow like
log log n (shell: 6.969 -> 8.763 from n = 100 to 10^4) and log n
(stable alpha = 1: 4.667 -> 8.654), so no fixed growth factor is asked.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from greenlab import groups, walks
from greenlab.envelope import (Envelope, EnvelopeSpec, exp_growth_sum_probe,
                               on_diagonal_probe, parity_bridge_check,
                               return_series, tr_alpha_ratio)
from greenlab.functionals import (DeltaScan, delta, delta_rate_fit,
                                  eps_delta_band_check, tree_martin_kernel)
from greenlab.green import (TreeGreenOracle, ball_domain,
                            boundary_green_matrix, killed_green_solve,
                            mc_green_diagonal, mc_hitting_green,
                            quadrant_harmonicity_defect,
                            quadrant_killed_green, vector_identity_residual,
                            verify_exit_decomposition)
from greenlab.measures import (first_moment_partial, lazy_transform,
                               pmf_from_dict, shell_measure, stable_z_measure,
                               uniform_on_generators)
from greenlab.rng import derive_stream
from running_max_oracle import (dkw_radius, ks_distance, radius_tail,
                                running_max_cdf, running_max_median)

Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
H = groups.heisenberg()
E3 = (0, 0, 0)
E1 = (1, 0, 0)


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


def report(num: int, label: str, failures: list, elapsed: float = None):
    status = "PASS" if not failures else "FAIL"
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {label}{extra}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def test_criterion_01_tree_oracle_suite():
    t0 = time.time()
    failures = []
    mu = srw(F2)
    oracle = TreeGreenOracle(F2)
    check(failures, oracle.gee() == pytest.approx(1.5, abs=1e-15),
          "G(e,e) != 3/2")
    words = {0: (), 1: (1,), 2: (1, 2), 3: (1, 2, -1), 4: (2, 1, 2, 1),
             5: (1, 2, 1, 2, 1), 6: (2, -1, 2, -1, 2, -1)}
    for n, x in words.items():
        check(failures, oracle.hitting((), x) == pytest.approx(3.0 ** -n, rel=1e-12),
              f"F(e,x) != 3^-{n}")
        check(failures, oracle.green((), x) == pytest.approx(1.5 * 3.0 ** -n, rel=1e-12),
              f"G(e,x) != (3/2) 3^-{n}")
    omega = ball_domain(F2, mu, 12, with_boundary=False)
    table = killed_green_solve(omega, [()], mu, tol=1e-12, method="cg")
    worst = max(abs(table.green((), x) - oracle.green((), x))
                for x in words.values())
    check(failures, worst < 1e-6,
          f"killed B(e,12) deviates {worst:.2e} > 1e-6 for |x| <= 6")
    rng = derive_stream(101, "accept-tree-mc")
    gee_hat, gee_ci = mc_green_diagonal(F2, mu, 10 ** 5, 400, rng)
    check(failures, abs(gee_hat - 1.5) < 3 * gee_ci / 1.96 + 2e-3,
          f"MC G(e,e) {gee_hat:.4f} off 1.5")
    for x, f_true in [((1,), 1 / 3), ((1, 2), 1 / 9), ((1, 2, 1), 1 / 27)]:
        est = mc_hitting_green(F2, mu, (), x, 10 ** 5, rng, gee=gee_hat)
        sigma = np.sqrt(f_true * (1 - f_true) / 10 ** 5)
        check(failures, abs(est.hit_fraction - f_true) < 3 * sigma + est.bias_bound / gee_hat,
              f"MC F(e,{x}) {est.hit_fraction:.5f} outside 3 sigma of {f_true:.5f}")
    elapsed = time.time() - t0
    check(failures, elapsed < 60, f"runtime {elapsed:.0f}s >= 1 min")
    report(1, "tree oracle suite (closed forms, killed solve, MC hitting)",
           failures, elapsed)


def test_criterion_02_nondecay_exponential_growth():
    t0 = time.time()
    failures = []
    mu = srw(F2)
    oracle = TreeGreenOracle(F2)
    for n in range(1, 9):
        dom = ball_domain(F2, mu, n)
        row = delta(dom, (), (1,), oracle, scale=n)
        check(failures, abs(row.value - 2.0) <= 1e-9,
              f"Delta(B(e,{n});e,t) = {row.value} != 2 +- 1e-9")
    probe = exp_growth_sum_probe(F2, list(range(1, 9)))
    check(failures, np.allclose(probe.sums, 2.0, atol=1e-12),
          "sphere Green sums differ from the constant 2")
    elapsed = time.time() - t0
    check(failures, elapsed < 60, f"runtime {elapsed:.0f}s >= 1 min")
    report(2, "non-decay on exponential growth (Delta = 2, constant sums)",
           failures, elapsed)


def test_criterion_03_delta_decay_z3(z3_srw, z3_enclosing_tables):
    t0 = time.time()
    failures = []
    scales = (4, 6, 8, 10, 12, 14, 16)
    rows = []
    for r in scales:
        dom = ball_domain(Z3, z3_srw, r)
        rows.append(delta(dom, E3, E1, z3_enclosing_tables[r], scale=r))
    vals = [r.value for r in rows]
    check(failures, all(a > b for a, b in zip(vals, vals[1:])),
          f"Delta not strictly decreasing: {np.round(vals, 5)}")
    fit = delta_rate_fit(DeltaScan(E3, E1, rows), d_ab=1.0)
    check(failures, not fit.rejected, "rate fit rejected")
    check(failures, 0.7 <= fit.alpha <= 1.3,
          f"alpha-hat {fit.alpha:.3f} outside [0.7, 1.3]")
    elapsed = time.time() - t0
    check(failures, elapsed < 600, f"runtime {elapsed:.0f}s >= 10 min")
    report(3, f"Z^3 Delta decay (strict over R=4..16, alpha={fit.alpha:.3f})",
           failures, elapsed)


def test_criterion_04_exit_calculus(z3_srw):
    t0 = time.time()
    failures = []
    mu = z3_srw
    s4 = ball_domain(Z3, mu, 4)
    omega = ball_domain(Z3, mu, 20, with_boundary=False)
    table = killed_green_solve(omega, [E3] + s4.boundary, mu, tol=1e-12)
    res = verify_exit_decomposition(s4, E3, (6, 0, 0), mu, table)
    check(failures, res < 1e-8, f"exit decomposition residual {res:.2e} >= 1e-8")
    bgm = boundary_green_matrix(s4, table)
    check(failures, bgm.spd_ok,
          f"SPD certificate failed (min eig {bgm.min_eigenvalue:.3e})")
    vres = vector_identity_residual(s4, E3, mu, table, bgm)
    check(failures, vres < 1e-8, f"vector identity residual {vres:.2e} >= 1e-8")
    elapsed = time.time() - t0
    check(failures, elapsed < 120, f"runtime {elapsed:.0f}s >= 2 min")
    report(4, "exit calculus on S=B(0,4) (decomposition, SPD, vector identity)",
           failures, elapsed)


def test_criterion_05_eps_delta_band(z3_srw, z3_enclosing_tables):
    t0 = time.time()
    failures = []
    etas = []
    for r in (6, 10, 14):
        dom = ball_domain(Z3, z3_srw, r)
        chk = eps_delta_band_check(dom, E3, E1, z3_srw, z3_enclosing_tables[r],
                                   tol=1e-12)
        check(failures, not chk.void, f"band void at R={r}")
        check(failures, chk.band_ok, f"band violated at R={r}")
        etas.append(chk.eta_hat)
    check(failures, etas[0] >= etas[1] >= etas[2],
          f"eta-hat not non-increasing: {np.round(etas, 4)}")
    elapsed = time.time() - t0
    check(failures, elapsed < 600, f"runtime {elapsed:.0f}s >= 10 min")
    report(5, f"eps/Delta band (band_ok at R=6,10,14; eta {np.round(etas,4)})",
           failures, elapsed)


def test_criterion_06_lazification_invariance(z3_srw):
    t0 = time.time()
    failures = []
    dom3 = ball_domain(Z3, z3_srw, 4)
    om3 = ball_domain(Z3, z3_srw, 10, with_boundary=False)
    base3 = delta(dom3, E3, E1,
                  killed_green_solve(om3, [E3, E1], z3_srw, method="direct")).value
    lazy3 = delta(dom3, E3, E1,
                  killed_green_solve(om3, [E3, E1], lazy_transform(z3_srw, 0.5),
                                     method="direct")).value
    check(failures, abs(lazy3 - base3) < 1e-9,
          f"Z^3 lazy Delta differs by {abs(lazy3 - base3):.2e}")
    mu2 = srw(F2)
    dom2 = ball_domain(F2, mu2, 3)
    om2 = ball_domain(F2, mu2, 8, with_boundary=False)
    base2 = delta(dom2, (), (1,),
                  killed_green_solve(om2, [(), (1,)], mu2, method="direct")).value
    lazy2 = delta(dom2, (), (1,),
                  killed_green_solve(om2, [(), (1,)], lazy_transform(mu2, 0.5),
                                     method="direct")).value
    check(failures, abs(lazy2 - base2) < 1e-9,
          f"F_2 lazy Delta differs by {abs(lazy2 - base2):.2e}")
    report(6, "lazification invariance of Delta (Z^3 and F_2, within 1e-9)",
           failures, time.time() - t0)


def test_criterion_07_tauberian_checker():
    t0 = time.time()
    failures = []
    grid = np.logspace(0.5, 5.0, 19)
    stretched = EnvelopeSpec(3, 2, Envelope("stretched", eta=1.0, c=1.0), alpha=1.0)
    check(failures, tr_alpha_ratio(stretched, grid).verdict == "bounded",
          "stretched (3,2,1) not bounded")
    poly_safe = EnvelopeSpec(3, 2, Envelope("polynomial", delta=5.0), alpha=1.0)
    check(failures, tr_alpha_ratio(poly_safe, grid).verdict == "bounded",
          "polynomial delta = d*+gamma not bounded")
    poly_bad = EnvelopeSpec(3, 2, Envelope("polynomial", delta=1.5), alpha=1.0)
    check(failures, tr_alpha_ratio(poly_bad, grid).verdict == "diverging",
          "polynomial delta = threshold - 0.5 not diverging")
    threshold = 3 + 1 - 2
    above = EnvelopeSpec(3, 2, Envelope("polynomial", delta=threshold + 0.25), alpha=1.0)
    below = EnvelopeSpec(3, 2, Envelope("polynomial", delta=threshold - 0.25), alpha=1.0)
    check(failures, tr_alpha_ratio(above, grid).verdict == "bounded",
          "flip not localized: threshold + 0.25 diverging")
    check(failures, tr_alpha_ratio(below, grid).verdict == "diverging",
          "flip not localized: threshold - 0.25 bounded")
    elapsed = time.time() - t0
    check(failures, elapsed < 60, f"runtime {elapsed:.0f}s >= 1 min")
    report(7, "Tauberian verdicts and threshold flip within +-0.25",
           failures, elapsed)


def test_criterion_08_parity_bridge():
    t0 = time.time()
    failures = []
    check(failures,
          parity_bridge_check(return_series(groups.integer_lattice(1),
                                            srw(groups.integer_lattice(1)), 22), 20) >= -1e-12,
          "violation for SRW on Z")
    check(failures,
          parity_bridge_check(return_series(Z3, lazy_transform(srw(Z3), 0.5), 22), 20) >= -1e-12,
          "violation for lazy SRW on Z^3")
    check(failures,
          parity_bridge_check(return_series(F2, srw(F2), 22), 20) >= -1e-12,
          "violation for SRW on F_2")
    rng = np.random.default_rng(808)
    bad = 0
    for _ in range(100):
        half = rng.random(int(rng.integers(1, 6)))
        vals = np.concatenate([half[::-1], [rng.random()], half])
        vals /= vals.sum()
        pmf = pmf_from_dict({i - len(half): v for i, v in enumerate(vals)})
        if parity_bridge_check(pmf, k_max=20) < -1e-11:
            bad += 1
    check(failures, bad == 0, f"{bad}/100 random symmetric pmfs violated")
    report(8, "parity bridge (zero violations, k <= 20, exact convolutions)",
           failures, time.time() - t0)


def tree_return_probability(m: int, degree: int = 4) -> Fraction:
    """McKay's closed form for p_2m(e,e) of SRW on the degree-regular tree:
    sum_{j=1}^m j/(2m-j) C(2m-j, m) d^j (d-1)^(m-j) closed walks of 2m steps."""
    if m == 0:
        return Fraction(1)
    walks_2m = sum(Fraction(j, 2 * m - j) * comb(2 * m - j, m)
                   * degree ** j * (degree - 1) ** (m - j) for j in range(1, m + 1))
    return walks_2m / Fraction(degree) ** (2 * m)


def test_criterion_09_on_diagonal_probe():
    t0 = time.time()
    failures = []
    target = np.sqrt(3) / 2
    rep12 = on_diagonal_probe(F2, srw(F2), 12)
    # the fit log p_2m = a m + b log m + c separates rho^{2m} from the
    # m^{-3/2} prefactor; the raw root p_24^(1/24) = 0.7472 does not
    fit_root = float(np.exp(rep12.rate / 2))
    check(failures, abs(fit_root - target) <= 0.02,
          f"exp(rate/2) at m = 12 = {fit_root:.4f} vs sqrt(3)/2 = {target:.4f} "
          f"(|diff| = {abs(fit_root - target):.4f} > 0.02)")
    exact_root = float(tree_return_probability(12)) ** (1.0 / 24)
    check(failures, rep12.kesten_root == pytest.approx(exact_root, rel=1e-12),
          f"p_24^(1/24) = {rep12.kesten_root!r} vs McKay {exact_root!r}")
    rep40 = on_diagonal_probe(F2, srw(F2), 40)
    # symmetric walk: p_2m(e,e) = <P^2m delta_e, delta_e> <= ||P||^2m = rho^2m
    roots = rep40.p2m ** (1.0 / (2 * rep40.m_values))
    check(failures, bool(np.all(roots <= target)),
          f"spectral bound p_2m^(1/2m) <= sqrt(3)/2 fails at m = "
          f"{rep40.m_values[roots > target].tolist()}")
    rate_target = 2 * np.log(target)
    check(failures, abs(rep40.rate - rate_target) <= 0.1 * abs(rate_target),
          f"exponential rate {rep40.rate:.4f} not within 10% of {rate_target:.4f}")
    check(failures, 0.5 <= rep40.beta_hat <= 1.5,
          f"stretch exponent {rep40.beta_hat:.2f} inconsistent with beta = 1")
    report(9, f"on-diagonal probe (fit root@12 = {fit_root:.4f}, "
              f"root@12 = {rep12.kesten_root:.4f}, rate = {rep40.rate:.4f})",
           failures, time.time() - t0)


def test_criterion_10_heavy_tails_heisenberg():
    t0 = time.time()
    failures = []
    mu = shell_measure(H, r0=3)
    moments = [first_moment_partial(mu, 10 ** k) for k in (3, 4, 5, 6)]
    check(failures, all(a < b for a, b in zip(moments, moments[1:])),
          f"partial first moments not strictly increasing: {np.round(moments, 3)}")
    rng = derive_stream(1010, "accept-heavy-speed")
    table = walks.speed_in_probability(H, mu, [100, 1000, 10000], [0.5], 2000, rng)
    probs = [p for _, _, p, _ in table.rows]
    check(failures, probs[0] >= probs[1] >= probs[2],
          f"P(|X_n|/n > 0.5) not non-increasing: {np.round(probs, 4)}")
    rng2 = derive_stream(1011, "accept-heavy-moments")
    rows = walks.truncated_coordinate_moments(mu, [100, 1000, 10000], 2000, rng2)
    w1 = [r.weight1_second_moment for r in rows]
    w2 = [r.weight2_second_moment for r in rows]
    check(failures, w1[0] >= w1[1] >= w1[2],
          f"weight-1 moments not non-increasing: {np.round(w1, 4)}")
    check(failures, w2[0] >= w2[1] >= w2[2],
          f"weight-2 moments not non-increasing: {np.round(w2, 4)}")
    elapsed = time.time() - t0
    check(failures, elapsed < 1200, f"runtime {elapsed:.0f}s >= 20 min")
    report(10, f"heavy tails on Heisenberg (P = {np.round(probs, 3)}; "
               "the 1/log n rate itself is not desk-reproducible)",
           failures, elapsed)


def test_criterion_11_increment_ratio_dichotomy():
    t0 = time.time()
    failures = []
    checkpoints = [100, 10 ** 4]
    laws = [("srw", srw(Z3), derive_stream(1111, "accept-incr")),
            ("shell", shell_measure(H, r0=3), derive_stream(1112, "accept-shell")),
            ("stable", stable_z_measure(1.0), derive_stream(1112, "accept-stable"))]
    # one DKW band per (law, checkpoint), false alarm 1e-6 over all of them
    eps = dkw_radius(200, 1e-6 / (len(laws) * len(checkpoints)))
    exact = {}
    for name, mu, rng in laws:
        rep = walks.increment_ratio_max(mu, 10 ** 4, 200, rng, checkpoints)
        tail = radius_tail(mu)
        for j, n in enumerate(checkpoints):
            dist = ks_distance(rep.per_trial_max[:, j], tail, n)
            check(failures, dist <= eps,
                  f"{name}: running max at n = {n} is {dist:.3f} from its "
                  f"exact law in sup norm (DKW band {eps:.3f})")
        if name == "srw":
            check(failures, rep.medians == [1.0, 1.0],
                  f"SRW running max not constant 1: {rep.medians}")
            # the exact median is 1 iff P(M_n <= 1) >= 1/2 > P(M_n < 1)
            check(failures, all(running_max_cdf(tail, n, 1.0) >= 0.5
                                > running_max_cdf(tail, n, 1.0, strict=True)
                                for n in (10 ** 2, 10 ** 4, 10 ** 6)),
                  "SRW exact median is not 1")
            continue
        check(failures, rep.medians[1] > rep.medians[0],
              f"{name}: median did not grow")
        meds = [running_max_median(tail, n) for n in checkpoints]
        # the n = 10^6 median exceeds meds[1] iff P(M_{10^6} <= meds[1]) < 1/2
        beyond = running_max_cdf(tail, 10 ** 6, meds[1])
        check(failures, meds[0] < meds[1] and beyond < 0.5,
              f"{name}: exact medians {meds} with P(M_1e6 <= {meds[1]:.4f}) = "
              f"{beyond:.4f} do not increase strictly")
        exact[name] = [round(m, 3) for m in meds]
    report(11, f"increment-ratio dichotomy (exact medians at n = 100, 10^4: "
               f"{exact}; DKW band {eps:.3f})",
           failures, time.time() - t0)


def test_criterion_12_dispersion():
    t0 = time.time()
    failures = []
    mu = stable_z_measure(1.0)
    cap = 4_200_000
    pmf = mu.to_pmf_on_z(cap)
    curve = walks.tv_dispersion_z(pmf, 1, [2 ** k for k in range(4, 13)], cap)
    tvs = [tv for _, tv, _ in curve.rows]
    check(failures, all(a > b for a, b in zip(tvs, tvs[1:])),
          "TV not strictly decreasing over n = 2^4..2^12")
    check(failures, tvs[-1] < 0.2, f"final TV {tvs[-1]:.3f} >= 0.2")
    check(failures, curve.rows[-1][2] < 1e-3,
          f"delta_trunc {curve.rows[-1][2]:.2e} >= 1e-3")
    check(failures, not curve.periodic, "stable law flagged periodic")
    srw_curve = walks.tv_dispersion_z(pmf_from_dict({-1: 0.5, 1: 0.5}), 1,
                                      [16, 64, 256], 600)
    check(failures, srw_curve.periodic, "plain SRW not flagged periodic")
    check(failures, all(abs(tv - 1.0) <= 2 * dt + 1e-12
                        for _, tv, dt in srw_curve.rows),
          "plain SRW TV != 1")
    h_pmf = lazy_transform(srw(groups.integer_lattice(1)), 0.5).to_pmf_on_z(300)
    z_pmf = mu.to_pmf_on_z(5 * 10 ** 4)
    prod = walks.product_dispersion_bound(h_pmf, z_pmf, (1, 1), [16, 64, 256],
                                          300, 5 * 10 ** 4)
    check(failures, all(r.slack >= -(2 * r.error_budget + 1e-12) for r in prod),
          "product TV bound violated")
    elapsed = time.time() - t0
    check(failures, elapsed < 300, f"runtime {elapsed:.0f}s >= 5 min")
    report(12, f"dispersion (TV {tvs[0]:.3f} -> {tvs[-1]:.5f}, product bound ok)",
           failures, elapsed)


def test_criterion_13_green_speed(z3_srw):
    t0 = time.time()
    failures = []
    rng = derive_stream(1313, "accept-green-speed")
    rows = walks.green_speed_estimate(Z3, z3_srw, [100, 1000], 2000, rng).rows
    v100, v1000 = rows[0].mean, rows[1].mean
    check(failures, v1000 < 0.05, f"Z^3 mean at n=1e3 is {v1000:.4f} >= 0.05")
    check(failures, v1000 < v100,
          f"Z^3 mean not decreasing: {v100:.4f} -> {v1000:.4f}")
    rng2 = derive_stream(1314, "accept-green-speed-f2")
    f2_rows = walks.green_speed_estimate(F2, srw(F2), [2000], 2000, rng2).rows
    target = np.log(3.0) / 2
    check(failures, abs(f2_rows[0].mean - target) < 0.05,
          f"F_2 value {f2_rows[0].mean:.4f} not within 0.05 of {target:.4f}")
    report(13, f"Green speed (Z^3: {v100:.4f} -> {v1000:.4f}; "
               f"F_2: {f2_rows[0].mean:.4f} vs {target:.4f})",
           failures, time.time() - t0)


def test_criterion_14_cone_appendix():
    t0 = time.time()
    failures = []
    table = quadrant_killed_green(60, [(2, 3), (1, 1)])
    ratio = table.green((2, 3), (30, 30)) / table.green((1, 1), (30, 30))
    check(failures, abs(ratio - 6.0) / 6.0 < 0.05,
          f"quadrant ratio {ratio:.4f} not within 5% of 6")
    defect = quadrant_harmonicity_defect(60)
    check(failures, defect == 0.0,
          f"harmonicity of x1 x2 not exact (defect {defect})")
    report(14, f"cone appendix (ratio {ratio:.4f}, harmonicity defect 0)",
           failures, time.time() - t0)


def test_criterion_15_tree_martin_kernels():
    t0 = time.time()
    failures = []
    gens = groups.standard_generators(F2)
    ball6 = groups.ball(F2, gens, 6)
    rng = np.random.default_rng(1515)
    letters = [1, -1, 2, -2]
    rays = []
    while len(rays) < 10:
        word = [letters[rng.integers(4)]]
        while len(word) < 9:
            nxt = letters[rng.integers(4)]
            if nxt != -word[-1]:
                word.append(nxt)
        if tuple(word) not in rays:
            rays.append(tuple(word))
    harmonic_ok = True
    for ray in rays:
        for x in ball6:
            k = tree_martin_kernel(F2, ray, x)
            avg = sum(tree_martin_kernel(F2, ray, groups.mul(F2, x, t))
                      for t in gens) / 4
            if k != avg:
                harmonic_ok = False
    check(failures, harmonic_ok, "exact harmonicity violated on B(e,6)")
    from fractions import Fraction
    for ray in rays[:5]:
        for r in (2, 4, 6):
            sup = max(tree_martin_kernel(F2, ray, x)
                      for x in groups.ball(F2, gens, r))
            check(failures, sup == Fraction(3) ** r,
                  f"sup over B(e,{r}) is {sup}, not 3^{r}")
    ratios = {tree_martin_kernel(F2, rays[0], x) / tree_martin_kernel(F2, rays[1], x)
              for x in groups.ball(F2, gens, 3)}
    check(failures, len(ratios) > 1, "distinct rays gave proportional kernels")
    report(15, "tree Martin kernels (exact harmonicity, 3^r band, distinct rays)",
           failures, time.time() - t0)
