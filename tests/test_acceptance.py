"""Acceptance gate.

One test per shipped guarantee, at the stated tolerances and runtime
budgets; `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.  These are deliberately end-to-end: they exercise the
public API the way the narrative scripts do, with fixed seeds throughout.
"""

import math
import time

import numpy as np

from simplexlearn.diagnostics import scaling_suite, tv_suite
from simplexlearn.evaluation import match_vertices, tv_distance_mc
from simplexlearn.geometry import Simplex, isotropic_simplex
from simplexlearn.ica import (
    ica_estimate,
    lp_symmetric_difference,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
    separation_index,
)
from simplexlearn.learner import boost, learn_simplex
from simplexlearn.moments import certify_landscape, exact_grad_m3, exact_m3
from simplexlearn.sampling import (
    sample_lp_ball,
    sample_simplex,
    sample_standard_simplex,
    simplex_source,
    substream,
)
from simplexlearn.vertex_finder import reconstruct_squares


def test_criterion_1_exact_moments_match_monte_carlo_and_finite_differences():
    started = time.perf_counter()
    rng = substream(0, 9001)
    for n in (2, 5, 10):
        m = n + 1
        sample = sample_standard_simplex(m, 100_000, 9100 + n)
        for _ in range(20):
            u = rng.standard_normal(m)
            s = sample @ u
            cubes = s**3
            tol = 3.0 * cubes.std(ddof=1) / math.sqrt(cubes.size)
            assert abs(cubes.mean() - exact_m3(u)) <= tol
        for _ in range(5):
            u = rng.standard_normal(m)
            grad = exact_grad_m3(u)
            h = 1e-6
            fd = np.empty(m)
            for j in range(m):
                step = np.zeros(m)
                step[j] = h
                fd[j] = (exact_m3(u + step) - exact_m3(u - step)) / (2.0 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 1: PASS (moment agreement at 3 sigma, gradient vs FD; {elapsed:.1f}s)")


def test_criterion_2_square_reconstruction_identity_to_1e_minus_10():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 21):
        m = n + 1
        rng = substream(0, 9002, n)
        u = rng.standard_normal((1000, m))
        for row in u:
            err = np.abs(reconstruct_squares(row, exact_grad_m3(row)) - row**2).max()
            worst = max(worst, err)
    assert worst <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 2: PASS (worst reconstruction error {worst:.2e}; {elapsed:.1f}s)")


def test_criterion_3_landscape_certification_n2_through_n8():
    started = time.perf_counter()
    for n in range(2, 9):
        report = certify_landscape(n)
        assert report["pass"], f"landscape certification failed at n={n}: {report}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 3: PASS (n=2..8 certified; {elapsed:.1f}s)")


def test_criterion_4_rescaling_laws_at_fixed_seeds():
    started = time.perf_counter()
    report = scaling_suite(seed=0)
    names = {c["name"] for c in report["checks"]}
    for required in (
        "simplex_rescale_exp_ks_n3",
        "simplex_rescale_exp_ks_n8",
        "lp_rescale_moment_p1_n4",
        "lp_rescale_moment_p2_n4",
        "lp_rescale_moment_p3_n4",
        "joint_independence_chi2_p2_n3",
    ):
        assert required in names, f"missing check {required}: have {sorted(names)}"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["pass"], f"failed checks: {failed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 4: PASS ({len(report['checks'])} checks; {elapsed:.1f}s)")


def test_criterion_5_end_to_end_recovery_on_isotropic_truth():
    started = time.perf_counter()
    summary = []
    for n in (3, 5):
        truth = isotropic_simplex(n)
        bound = 0.1 * math.sqrt(n * (n + 2))
        good = 0
        for seed in range(10):
            result = learn_simplex(simplex_source(truth, seed)(100_000), seed=seed)
            err = match_vertices(truth, result.simplex).max_error
            tv = tv_distance_mc(truth, result.simplex, 100_000, rng=seed).value
            if err <= bound and tv <= 0.25:
                good += 1
        assert good >= 8, f"n={n}: only {good}/10 seeds recovered within tolerance"
        summary.append(f"n={n} {good}/10")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"criterion 5: PASS ({', '.join(summary)}; {elapsed:.1f}s)")


def test_criterion_6_affine_equivariance_via_shared_seeds():
    started = time.perf_counter()
    n = 4
    s = isotropic_simplex(n)
    rng = substream(0, 2024)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    f_mat = q * rng.uniform(0.6, 1.8, size=n)  # singular values in [0.6, 1.8]
    f_shift = rng.standard_normal(n)
    image = Simplex(s.vertices @ f_mat.T + f_shift)

    learned_s = learn_simplex(simplex_source(s, 7)(100_000), seed=0)
    learned_image = learn_simplex(simplex_source(image, 7)(100_000), seed=0)

    mapped = learned_s.simplex.vertices @ f_mat.T + f_shift
    rel = match_vertices(mapped, learned_image.simplex.vertices).max_error / image.circumscribed_radius()
    assert rel <= 5e-2, f"relative equivariance error {rel:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"criterion 6: PASS (relative error {rel:.4f}; {elapsed:.1f}s)")


def test_criterion_7_ica_reductions_recover_maps():
    started = time.perf_counter()

    # plane triangle through the exponential-mixture reduction
    triangle = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    sample = sample_simplex(triangle, 200_000, 77)
    reduction = reduce_simplex_to_ica(sample, seed=0)
    vertex_error = match_vertices(triangle.vertices, reduction.vertices).max_error
    assert vertex_error <= 0.15, f"vertex error {vertex_error:.4f}"

    # axis-aligned cross-polytope image through the lp reduction
    a_map = np.diag([2.0, 1.0])
    ball = sample_lp_ball(2, 1.0, 200_000, 78)
    mapped = ball @ a_map.T
    lp_reduction = reduce_lp_to_ica(mapped, 1.0, seed=0)
    symdiff = lp_symmetric_difference(a_map, lp_reduction.mixing, 1.0, seed=0)
    assert symdiff <= 0.2, f"symmetric difference ratio {symdiff:.4f}"

    # known-mixing unmixing quality
    rng = substream(1, 2025)
    worst_sep = 0.0
    for d in (2, 3, 4):
        mix = rng.standard_normal((d, d))
        sources = rng.exponential(1.0, size=(200_000, d))
        est = ica_estimate(sources @ mix.T, seed=0)
        worst_sep = max(worst_sep, separation_index(est.separating @ mix))
    assert worst_sep <= 0.2, f"separation index {worst_sep:.4f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 7: PASS (vertex {vertex_error:.3f}, symdiff {symdiff:.3f}, "
        f"separation {worst_sep:.3f}; {elapsed:.1f}s)"
    )


def test_criterion_8_tv_identities_and_sandwich_bound():
    started = time.perf_counter()
    report = tv_suite(seed=0)
    grid = [c for c in report["checks"] if c["name"].startswith("scaled_tv_")]
    sandwich = [c for c in report["checks"] if c["name"].startswith("sandwich_")]
    assert len(grid) == 15  # alphas {0.5, 0.8, 0.95} x dims {2..6}
    assert len(sandwich) == 3
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["pass"], f"failed checks: {failed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 8: PASS ({len(grid)} grid + {len(sandwich)} sandwich checks; {elapsed:.1f}s)")


def test_criterion_9_boost_selection_guarantees():
    started = time.perf_counter()
    truth = isotropic_simplex(2)
    eps = 0.1

    # 5 near-copies and one gross outlier, outlier listed first; the
    # consensus pick must never be the outlier
    outlier_picks = 0
    for seed in range(100):
        rng = substream(seed, 3000)
        runs = [truth.scaled(0.5)]
        for _ in range(5):
            runs.append(Simplex(truth.vertices + 0.02 * rng.standard_normal(truth.vertices.shape)))
        result = boost(runs, eps, seed=seed)
        if result.index == 0:
            outlier_picks += 1
    assert outlier_picks == 0, f"outlier selected {outlier_picks} times"

    # synthetic-distance runs on a line, estimator noise at the +-eps/10
    # budget: the selected run must sit within (3 + 2/10) eps of the truth
    guarantee = (3.0 + 0.2) * eps
    worst = 0.0
    for seed in range(20):
        rng = substream(seed, 3001)
        goods = list(rng.uniform(-eps, eps, size=4))
        bads = list(rng.uniform(0.5, 0.9, size=2) * rng.choice([-1.0, 1.0], size=2))
        positions = bads[:1] + goods + bads[1:]
        runs = [Simplex(isotropic_simplex(2).vertices * (1.0 + 1e-6 * i)) for i in range(6)]
        position_of = {id(run): x for run, x in zip(runs, positions)}

        def estimator(a, b, _pos=position_of):
            base = min(abs(_pos[id(a)] - _pos[id(b)]), 1.0)
            noise = 0.1 * eps * (1.0 if (_pos[id(a)] + _pos[id(b)]) > 0 else -1.0)
            return max(base + noise, 0.0)

        result = boost(runs, eps, tv_estimator=estimator)
        worst = max(worst, abs(positions[result.index]))
    assert worst <= guarantee, f"selected run at distance {worst:.4f} > {guarantee}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 9: PASS (0/100 outlier picks, worst synthetic pick {worst:.3f}; {elapsed:.1f}s)")
