import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from simplexlearn.diagnostics import run_suite, scaling_suite, tv_suite
from simplexlearn.evaluation import check_sandwich_bound, tv_distance_mc
from simplexlearn.ica import (
    _reduction_rows,
    compute_c_pn,
    ica_estimate,
    lp_symmetric_difference,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
)
from simplexlearn.geometry import DegenerateSimplexError, Simplex, contains_points, isotropic_simplex
from simplexlearn.learner import boost, learn_simplex
from simplexlearn.sampling import (
    _row_blocks,
    _simplex_points,
    child_seed,
    generalized_gaussian_std,
    hidden_instance,
    sample_lp_ball,
    sample_simplex,
    sample_standard_simplex,
    simplex_source,
    substream,
)

T = 100_000


def corner_triangle() -> Simplex:
    """conv{e1, e2, 0} in R^2: the first two coordinates of the standard
    simplex in R^3, so a draw's weights times its vertices round nothing."""
    return Simplex(np.eye(3)[:, :2])


def se(values: np.ndarray) -> float:
    return values.std(ddof=1) / math.sqrt(values.size)


class TestDeterminism:
    def test_same_seed_bit_exact(self):
        producers = [
            lambda seed: sample_standard_simplex(4, 100, seed),
            lambda seed: sample_lp_ball(3, 1.5, 100, seed),
            lambda seed: sample_simplex(corner_triangle(), 100, seed),
        ]
        for producer in producers:
            a, b = producer(42), producer(42)
            assert (a == b).all()
            assert (producer(42) != producer(43)).any()

    def test_streams_are_isolated(self):
        # the same seed feeds every producer without making them copies of
        # each other
        a = sample_standard_simplex(3, 50, 7)
        b = sample_lp_ball(3, 1.0, 50, 7)
        assert (a != b).any()

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 11, 21])
    def test_simplex_weights_bits_pinned(self, m):
        # the weights behind every simplex sampler and source stay the
        # exponential(1.0) rows over their sums they were, bit for bit;
        # a product with the identity rounds nothing, so the points are them
        for seed in range(4):
            for t in (1, 7, 50_000):
                e = substream(seed, 5).exponential(1.0, size=(t, m))
                points = _simplex_points(substream(seed, 5), np.eye(m), t)
                assert np.array_equal(points, e / np.cumsum(e, axis=1)[:, -1:])

    def test_substream_repeatable(self):
        x = substream(1, 2, 3).standard_normal(5)
        y = substream(1, 2, 3).standard_normal(5)
        z = substream(1, 2, 4).standard_normal(5)
        assert (x == y).all()
        assert (x != z).any()


def gamma_radii(shape: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Gamma(shape, 1) radii, the law of the simplex reduction's
    radii at shape n + 1."""
    return rng.gamma(shape, 1.0, size=count)


class TestGamma:
    def test_exponential_moments(self):
        draws = gamma_radii(1.0, T, substream(0, 1))
        assert abs(draws.mean() - 1.0) <= 3.0 / math.sqrt(T)

    def test_additivity_against_direct_draws(self):
        n = 4
        rng = substream(0, 2)
        sums = gamma_radii(1.0, 5 * T // 10 * n, rng).reshape(-1, n).sum(axis=1)
        direct = gamma_radii(float(n), sums.size, rng)
        result = stats.ks_2samp(sums, direct)
        assert result.pvalue >= 0.01

    def test_half_shape_moments(self):
        draws = gamma_radii(0.5, T, substream(0, 3))
        assert abs(draws.mean() - 0.5) <= 5.0 * se(draws)
        assert abs(draws.var(ddof=1) - 0.5) <= 5.0 * se((draws - 0.5) ** 2)


class TestStandardSimplex:
    def test_rows_on_simplex(self):
        sm = sample_standard_simplex(3, 1000, 0)
        assert np.allclose(sm.sum(axis=1), 1.0, atol=1e-12)
        assert (sm >= 0).all()

    def test_coordinate_means(self):
        sm = sample_standard_simplex(3, T, 1)
        for j in range(3):
            col = sm[:, j]
            assert abs(col.mean() - 1 / 3) <= 3 * se(col)

    def test_second_moment_against_quadrature(self):
        # E[X1^2] over the triangle x+y <= 1, x,y >= 0 with density 2,
        # X = (x, y, 1-x-y)
        target, err = integrate.dblquad(lambda y, x: 2.0 * x * x, 0, 1, 0, lambda x: 1 - x)
        assert err < 1e-10
        assert target == pytest.approx(1 / 6)
        col = sample_standard_simplex(3, T, 2)[:, 0] ** 2
        assert abs(col.mean() - target) <= 3 * se(col)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_standard_simplex(1, 10, 0)
        with pytest.raises(ValueError):
            sample_standard_simplex(3, 0, 0)


class TestSampleSimplex:
    def test_rows_inside(self):
        rng = np.random.default_rng(0)
        s = Simplex(rng.standard_normal((4, 3)))
        sm = sample_simplex(s, 2000, 3)
        assert contains_points(s, sm, tol=1e-9).all()

    def test_standard_vertices_match_direct_sampler(self):
        direct = sample_standard_simplex(3, 20_000, 5)[:, 0]
        pushed = sample_simplex(corner_triangle(), 20_000, 6)[:, 0]
        assert stats.ks_2samp(direct, pushed).pvalue >= 0.01

    def test_centroid(self):
        s = Simplex(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]]))
        pts = sample_simplex(s, T, 7)
        for j in range(2):
            assert abs(pts[:, j].mean() - s.centroid()[j]) <= 3 * se(pts[:, j])

    def test_isotropic_covariance(self):
        pts = sample_simplex(isotropic_simplex(4), T, 8)
        cov = np.cov(pts.T, bias=True)
        assert np.abs(cov - np.eye(4)).max() <= 0.05

    def test_affine_coupling(self):
        # equal seeds push the same barycentric weights through both vertex
        # matrices, so the samples are the pointwise affine image
        rng = np.random.default_rng(1)
        s = Simplex(rng.standard_normal((4, 3)))
        m, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
        image = Simplex(s.vertices @ m.T + b)
        a = sample_simplex(s, 500, 11)
        c = sample_simplex(image, 500, 11)
        assert np.allclose(a @ m.T + b, c, atol=1e-12)

    def test_degenerate_rejected(self):
        from simplexlearn.geometry import DegenerateSimplexError

        flat = Simplex(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
        with pytest.raises(DegenerateSimplexError):
            sample_simplex(flat, 10, 0)


def exp_p_coordinates(p: float) -> np.ndarray:
    """The 3 columns, pooled, of the rows that ``reduce_lp_to_ica`` hands
    ICA for a ball draw: the package's one exp(-|x|^p) draw, rescaled to
    iid coordinates with that density."""
    return _reduction_rows(sample_lp_ball(3, p, T, 0), p, 1)[0:T].ravel()


class TestGeneralizedGaussian:
    def test_p2_is_normal_variance_half(self):
        draws = exp_p_coordinates(2.0)
        assert abs(draws.var(ddof=1) - 0.5) <= 3 * se((draws - draws.mean()) ** 2)
        assert stats.kstest(draws, "norm", args=(0.0, math.sqrt(0.5))).pvalue >= 0.01

    def test_p1_is_laplace(self):
        draws = exp_p_coordinates(1.0)
        a = np.abs(draws)
        assert abs(a.mean() - 1.0) <= 3 * se(a)
        assert stats.kstest(a, "expon").pvalue >= 0.01

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 7.0])
    def test_pth_absolute_moment(self, p):
        draws = exp_p_coordinates(p)
        a = np.abs(draws) ** p
        assert abs(a.mean() - 1.0 / p) <= 3 * se(a)

    def test_symmetry(self):
        draws = exp_p_coordinates(3.0)
        assert abs(draws.mean()) <= 3 * se(draws)

    def test_std_constant(self):
        # closed form sqrt(Gamma(3/p)/Gamma(1/p)); p=2 gives sqrt(1/2)
        assert generalized_gaussian_std(2.0) == pytest.approx(math.sqrt(0.5))
        draws = exp_p_coordinates(4.0)
        assert abs(draws.std(ddof=1) - generalized_gaussian_std(4.0)) <= 0.01


class TestLpBall:
    def test_norms_inside(self):
        for n, p in ((3, 1.0), (3, 2.0), (3, 3.0), (5, 3.0)):
            pts = sample_lp_ball(n, p, T, 1)
            norms = (np.abs(pts) ** p).sum(axis=1) ** (1 / p)
            assert (norms <= 1.0 + 1e-12).all()

    def test_euclidean_ball_radial_cdf(self):
        pts = sample_lp_ball(2, 2.0, T, 2)
        frac = (np.linalg.norm(pts, axis=1) <= 0.5).mean()
        assert abs(frac - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / T)

    def test_cross_polytope_orthant_symmetry(self):
        pts = sample_lp_ball(3, 1.0, T, 3)
        frac = (pts > 0).all(axis=1).mean()
        assert abs(frac - 1 / 8) <= 3 * math.sqrt((1 / 8) * (7 / 8) / T)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    @pytest.mark.parametrize("n", [3, 5])
    def test_half_ball_holds_its_volume_share(self, p, n):
        # vol(B_p / 2) / vol(B_p) = 2^-n for every p, which pins the radial
        # law that the denominator (sum |G_i|^p + Z)^(1/p) sets
        pts = sample_lp_ball(n, p, T, 4)
        frac = ((np.abs(pts) ** p).sum(axis=1) ** (1 / p) <= 0.5).mean()
        share = 2.0**-n
        assert abs(frac - share) <= 4 * math.sqrt(share * (1 - share) / T)


COUNT_CASES = [
    pytest.param(lambda v: sample_lp_ball(3, 3.0, v, 0), "t", id="lp_ball-t"),
    pytest.param(lambda v: sample_lp_ball(v, 3.0, 10, 0), "n", id="lp_ball-n"),
    pytest.param(lambda v: sample_standard_simplex(3, v, 0), "t", id="standard_simplex-t"),
    pytest.param(lambda v: sample_standard_simplex(v, 10, 0), "n", id="standard_simplex-n"),
    pytest.param(lambda v: sample_simplex(corner_triangle(), v, 0), "t", id="simplex-t"),
    pytest.param(lambda v: simplex_source(corner_triangle(), 0)(v), "count", id="simplex_source-count"),
]


# every public function that takes an lp exponent
P_CASES = [
    pytest.param(generalized_gaussian_std, id="generalized_gaussian_std"),
    pytest.param(lambda p: sample_lp_ball(3, p, 10, 0), id="sample_lp_ball"),
    pytest.param(lambda p: reduce_lp_to_ica(np.zeros((10, 3)), p), id="reduce_lp_to_ica"),
    pytest.param(lambda p: compute_c_pn(p, 3), id="compute_c_pn"),
    pytest.param(lambda p: lp_symmetric_difference(np.eye(3), np.eye(3), p, 10), id="lp_symmetric_difference"),
    pytest.param(lambda p: hidden_instance("lp", 3, 10, 0, p), id="hidden_instance"),
]


@pytest.mark.parametrize("bad", [True, False, "2", None, 2 + 0j])
@pytest.mark.parametrize("call", P_CASES)
def test_p_must_be_a_real_number(call, bad):
    # a bool or a string is no exponent, though float() would take it
    with pytest.raises(ValueError, match="^p must be a real number"):
        call(bad)


class TestCountArguments:
    @pytest.mark.parametrize("bad", [2.5, True, "10", None])
    @pytest.mark.parametrize("call, name", COUNT_CASES)
    def test_non_integer_named_at_the_boundary(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad)

    @pytest.mark.parametrize("call, name", COUNT_CASES)
    def test_too_small_named(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            call(-1)

    def test_numpy_integers_accepted(self):
        assert sample_lp_ball(np.int64(2), 3.0, np.int32(4), 0).shape == (4, 2)


def triangle_points() -> np.ndarray:
    return sample_simplex(corner_triangle(), 200, 0)


def boost_runs() -> list:
    k = isotropic_simplex(2)
    return [k, k.scaled(0.99), k.scaled(0.98)]


# every public function that takes a seed; the samples are valid, so a
# good seed runs the call through
SEED_CALLS = [
    pytest.param(lambda s: substream(s, 1), id="substream"),
    pytest.param(lambda s: child_seed(s, 1), id="child_seed"),
    # the factory itself rejects the seed, before its first draw
    pytest.param(lambda s: simplex_source(corner_triangle(), s), id="simplex_source"),
    pytest.param(lambda s: sample_simplex(corner_triangle(), 10, s), id="sample_simplex"),
    pytest.param(lambda s: sample_standard_simplex(3, 10, s), id="sample_standard_simplex"),
    pytest.param(lambda s: sample_lp_ball(3, 3.0, 10, s), id="sample_lp_ball"),
    pytest.param(lambda s: hidden_instance("lp", 3, 10, s, 3.0), id="hidden_instance"),
    pytest.param(lambda s: reduce_simplex_to_ica(triangle_points(), s), id="reduce_simplex_to_ica"),
    pytest.param(lambda s: reduce_lp_to_ica(sample_lp_ball(2, 3.0, 200, 0), 3.0, s), id="reduce_lp_to_ica"),
    pytest.param(lambda s: ica_estimate(triangle_points(), seed=s), id="ica_estimate"),
    pytest.param(lambda s: lp_symmetric_difference(np.eye(3), np.eye(3), 3.0, 10, s), id="lp_symmetric_difference"),
    pytest.param(lambda s: tv_distance_mc(isotropic_simplex(2), isotropic_simplex(2), 10, seed=s), id="tv_distance_mc"),
    pytest.param(
        lambda s: check_sandwich_bound(isotropic_simplex(2), isotropic_simplex(2).scaled(0.9), 0.9, 1.0, 100, seed=s),
        id="check_sandwich_bound",
    ),
    pytest.param(lambda s: learn_simplex(triangle_points(), seed=s), id="learn_simplex"),
    pytest.param(lambda s: boost(boost_runs(), 0.1, seed=s), id="boost"),
    # the seed is checked even where no default estimator reads it
    pytest.param(lambda s: boost(boost_runs(), 0.1, tv_estimator=lambda a, b: 0.0, seed=s), id="boost-estimator"),
    pytest.param(
        lambda s: scaling_suite(s, t=500, simplex_dims=(2,), lp_powers=(1.0,), lp_dim=2), id="scaling_suite"
    ),
    pytest.param(lambda s: tv_suite(s, mc_points=100, alphas=(0.5,), dims=(2,)), id="tv_suite"),
    pytest.param(lambda s: run_suite("scaling", s, n=2), id="run_suite-scaling"),
]


def assert_same(a, b) -> None:
    """a and b hold equal values, every array equal bit for bit; a draw
    callable is called twice, a generator compared by its state."""
    if callable(a):
        assert_same(a(50), a(50))
    elif isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert type(a) is type(b) and a == b


class TestSeeds:
    @pytest.mark.parametrize("bad", [1.5, True, "3", None])
    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_non_integer_named(self, call, bad):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            call(bad)

    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_negative_named(self, call):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            call(-1)

    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_same_seed_same_result(self, call):
        # every draw is a function of its integer seed alone
        assert_same(call(5), call(5))

    def test_numpy_integers_accepted(self):
        assert (substream(np.int64(3), 1).random(4) == substream(3, 1).random(4)).all()
        assert child_seed(np.uint32(3), 2) == child_seed(3, 2)


class TestJointIndependence:
    def test_chi_square_on_quantile_bins(self):
        # the normalized vector H/(sum H + W) is independent of its
        # denominator; 4 x 4 quantile binning, first coordinate vs sum
        p, n = 2.0, 3
        rng = substream(0, 10)
        h = rng.gamma(1.0 / p, 1.0, size=(T, n))
        w = rng.exponential(1.0, size=T)
        denom = h.sum(axis=1) + w
        first = h[:, 0] / denom
        counts = np.zeros((4, 4))
        ix = np.searchsorted(np.quantile(first, [0.25, 0.5, 0.75]), first)
        iy = np.searchsorted(np.quantile(denom, [0.25, 0.5, 0.75]), denom)
        np.add.at(counts, (ix, iy), 1)
        assert stats.chi2_contingency(counts).pvalue >= 0.01


class TestSources:
    def test_simplex_source_is_stateless(self):
        # the corner triangle's products round nothing, so the prefix law
        # holds for the points bit for bit, as it does for their weights
        src = simplex_source(corner_triangle(), 0)
        a, b = src(100), src(100)
        assert (a == b).all()
        assert (src(40) == a[:40]).all()
        assert (src(250)[:100] == a).all()
        assert (simplex_source(corner_triangle(), 0)(100) == a).all()
        assert (simplex_source(corner_triangle(), 1)(100) != a).any()

    def test_simplex_source_rejects_a_flat_simplex(self):
        # as sample_simplex does, before any draw
        flat = Simplex([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateSimplexError):
            sample_simplex(flat, 5, 0)
        with pytest.raises(DegenerateSimplexError):
            simplex_source(flat, 0)

    def test_count_rejects_a_negative_and_takes_zero_or_a_numpy_integer(self):
        src = simplex_source(corner_triangle(), 0)
        with pytest.raises(ValueError, match="^count must be >= 0"):
            src(-1)
        assert src(0).shape == (0, 2)
        fresh = simplex_source(corner_triangle(), 0)
        fresh(0)
        assert (src(np.int64(50)) == fresh(50)).all()

    def test_simplex_source_affine_coupling(self):
        rng = np.random.default_rng(2)
        s = Simplex(rng.standard_normal((3, 2)))
        m, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
        image = Simplex(s.vertices @ m.T + b)
        a = simplex_source(s, 5)(300)
        c = simplex_source(image, 5)(300)
        assert np.allclose(a @ m.T + b, c, atol=1e-12)


def reference_instance(problem: str, n: int, t: int, seed: int, p: float | None = None):
    """The command line's hidden-instance law written out: a Haar rotation
    (QR of a Gaussian matrix, columns signed by diag R) from key 97 for a
    simplex or 103 for lp; the isotropic simplex rotated and shifted, with
    learn's points from key 98 and reduce's from key 101; or the map
    A = rotation diag(uniform(0.5, 2)) applied to the key-104 ball, block
    by block."""
    rng = substream(seed, 103 if problem == "lp" else 97)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    rotation = q * np.sign(np.diag(r))
    if problem == "lp":
        a = rotation * rng.uniform(0.5, 2.0, size=n)
        ball = sample_lp_ball(n, p, t, child_seed(seed, 104))
        return a, np.vstack([ball[rows] @ a.T for rows in _row_blocks(0, t)])
    truth = Simplex(isotropic_simplex(n).vertices @ rotation.T + rng.standard_normal(n))
    if problem == "learn":
        return truth, simplex_source(truth, child_seed(seed, 98))(t)
    return truth, sample_simplex(truth, t, child_seed(seed, 101))


class TestHiddenInstance:
    @pytest.mark.parametrize("problem, p", [("learn", None), ("simplex", None), ("lp", 1.0), ("lp", 3.0)])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bits_of_the_written_law(self, problem, p, n):
        for seed in range(3):
            truth, sample = hidden_instance(problem, n, 20_000, seed, p)
            expected_truth, expected = reference_instance(problem, n, 20_000, seed, p)
            if problem != "lp":
                truth, expected_truth = truth.vertices, expected_truth.vertices
            assert (truth == expected_truth).all()
            assert sample.shape == (20_000, n)
            assert (sample == expected).all()

    # a longer draw of a simplex instance begins with the shorter one, so a
    # run that needs more points can extend its block
    @pytest.mark.parametrize("problem", ["learn", "simplex"])
    @pytest.mark.parametrize("n", [3, 5, 10])
    @pytest.mark.parametrize("t", [1000, 8192, 10_000, 50_000, 65_537])
    def test_simplex_draws_are_prefix_stable(self, problem, n, t):
        seed = t + n
        assert (hidden_instance(problem, n, 2 * t + 123, seed)[1][:t] == hidden_instance(problem, n, t, seed)[1]).all()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("reduce", 3, 100, 0), "^problem must be 'learn', 'simplex' or 'lp', got 'reduce'$"),
            (("learn", 3, 100, 0, 3.0), "^p applies only to problem 'lp', got 3.0$"),
            (("simplex", 3, 100, 0, 1), "^p applies only to problem 'lp', got 1$"),
            (("lp", 3, 100, 0), "^p must be a real number, got None$"),
            (("lp", 0, 100, 0, 3.0), "^n must be >= 1, got 0$"),
            (("learn", 3, 0, 0), "^t must be >= 1, got 0$"),
            (("simplex", 3, 0, 0), "^t must be >= 1, got 0$"),
            (("lp", 3, 0, 0, 3.0), "^t must be >= 1, got 0$"),
            (("learn", 3, True, 0), "^t must be an integer, got True$"),
            (("simplex", 3, True, 0), "^t must be an integer, got True$"),
            (("lp", 3, True, 0, 3.0), "^t must be an integer, got True$"),
        ],
    )
    def test_rejected_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            hidden_instance(*args)
