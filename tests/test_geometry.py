import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from simplexlearn.evaluation import tv_distance_mc
from simplexlearn.geometry import (
    MEMBERSHIP_TOL,
    AffineFrame,
    DegenerateSimplexError,
    Simplex,
    _barycentric,
    _coordinates,
    _gauge,
    contains_points,
    isotropic_simplex,
    make_embed_map,
)


def right_triangle():
    return Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def halfspace_membership(s: Simplex, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Independent membership oracle for full-dimensional simplices: inside
    iff on the inner side of every facet hyperplane."""
    v = s.vertices
    m = v.shape[0]
    inside = np.ones(points.shape[0], dtype=bool)
    for i in range(m):
        facet = np.delete(v, i, axis=0)
        base = facet[0]
        normal_system = facet[1:] - base
        # normal orthogonal to the facet: null space of the edge rows
        _, _, vt = np.linalg.svd(normal_system)
        normal = vt[-1]
        side = np.sign(normal @ (v[i] - base))
        inside &= side * ((points - base) @ normal) >= -tol
    return inside


class TestSimplex:
    def test_basic_properties(self):
        s = right_triangle()
        assert s.dim == 2
        assert np.allclose(s.centroid(), [1 / 3, 1 / 3])
        assert s.volume() == pytest.approx(0.5)

    def test_scaled_volume(self):
        s = right_triangle()
        assert s.scaled(3.0).volume() == pytest.approx(9 * s.volume())

    def test_vertices_are_copied(self):
        v = np.eye(3)[:, :2]
        s = Simplex(v)
        v[0, 0] = 99.0
        assert s.vertices[0, 0] == 1.0

    def test_equality_compares_vertices_and_never_raises(self):
        a, b = isotropic_simplex(2), isotropic_simplex(2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.scaled(2.0)
        assert a != isotropic_simplex(3)  # another shape
        assert a != "simplex" and a != None  # noqa: E711
        zero = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        signed = Simplex(np.array([[-0.0, 0.0], [1.0, -0.0], [0.0, 1.0]]))
        assert zero == signed and hash(zero) == hash(signed)

    def test_frozen_with_read_only_vertices(self):
        s = isotropic_simplex(2)
        with pytest.raises(AttributeError):
            s.vertices = s.vertices + 100.0
        with pytest.raises(ValueError, match="read-only"):
            s.vertices[0, 0] = 100.0
        with pytest.raises(ValueError, match="read-only"):
            s.vertices += 100.0
        assert s == isotropic_simplex(2)
        assert np.array_equal(_barycentric(s), _barycentric(isotropic_simplex(2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Simplex(np.zeros(3))  # not 2-D
        with pytest.raises(ValueError):
            Simplex(np.zeros((1, 2)))  # single vertex
        with pytest.raises(ValueError):
            Simplex(np.array([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 3), (1, 0), (3,), (2, 2, 1)])
    def test_only_n_plus_one_vertices_in_r_n(self, shape):
        # a simplex is full-dimensional: n+1 vertices in R^n, nothing embedded
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            Simplex(np.ones(shape))

    def test_circumscribed_radius_regular(self):
        # every vertex of the isotropic n-simplex sits at sqrt(n(n+2))
        assert isotropic_simplex(3).circumscribed_radius() == pytest.approx(math.sqrt(15))


class TestBarycentric:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        s = Simplex(rng.standard_normal((4, 3)))
        pts = rng.standard_normal((50, 3))
        lam = _coordinates(s, pts).T
        assert np.allclose(lam.sum(axis=1), 1.0)
        assert np.allclose(lam @ s.vertices, pts)

    def test_single_point_shape(self):
        s = right_triangle()
        point = np.array([0.25, 0.25])
        assert contains_points(s, point).shape == (1,)
        assert contains_points(s, point)[0]
        assert np.allclose(_coordinates(s, point[None, :]).T, [[0.5, 0.25, 0.25]])

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 2), ()])
    def test_points_past_two_dimensions_rejected(self, shape):
        # one 1-D point is one row; a stack of point sets is not, nor is a
        # 0-D value, which has no coordinates to read as a point's
        with pytest.raises(ValueError, match=rf"^points must form a \(t, d\) array or one \(d,\) point, got shape {re.escape(str(shape))}$"):
            contains_points(right_triangle(), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_points_must_be_finite(self, bad, shape):
        # a NaN point read as outside, since NaN >= -tol is false
        points = np.zeros(shape)
        points.flat[-1] = bad
        with pytest.raises(ValueError, match="^points must be finite$"):
            contains_points(right_triangle(), points)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains_points(right_triangle(), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="points have dimension 2, simplex lives in 3"):
            contains_points(isotropic_simplex(3), np.zeros((4, 2)))

    def test_degenerate_raises(self):
        flat = Simplex(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(DegenerateSimplexError):
            contains_points(flat, np.zeros((1, 2)))

    def test_membership_matches_halfspace_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            s = Simplex(rng.standard_normal((4, 3)) * 2.0)
            box = rng.uniform(-3, 3, size=(400, 3))
            w = rng.dirichlet(np.ones(4), size=50)  # guaranteed interior hits
            pts = np.vstack([box, w @ s.vertices])
            ours = contains_points(s, pts)
            oracle = halfspace_membership(s, pts)
            # points within numerical slack of the boundary may differ
            lam = _coordinates(s, pts).T
            clear = np.abs(lam).min(axis=1) > 1e-9
            assert (ours[clear] == oracle[clear]).all()
            assert ours[400:].all()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_square_system_agrees_with_lu_reference(self, n):
        rng = np.random.default_rng(100 + n)
        s = Simplex(rng.standard_normal((n + 1, n)))
        v = s.vertices
        midpoints = np.array([(v[i] + v[j]) / 2 for i in range(n + 1) for j in range(i)])
        interior = rng.dirichlet(np.ones(n + 1), size=200) @ v
        box = rng.uniform(v.min(axis=0), v.max(axis=0), size=(400, n))
        pts = np.vstack([v, midpoints, interior, box])
        lam = _coordinates(s, pts).T
        system = np.vstack([v.T, np.ones((1, n + 1))])
        reference = lu_solve(lu_factor(system), np.vstack([pts.T, np.ones((1, len(pts)))])).T
        np.testing.assert_allclose(lam, reference, rtol=0, atol=1e-12)
        inside = contains_points(s, pts)
        assert np.array_equal(inside, (reference >= -MEMBERSHIP_TOL).all(axis=1))
        # vertices and edge midpoints sit on the boundary and count as inside
        assert inside[: len(v) + len(midpoints) + len(interior)].all()
        assert not inside.all()

    def test_vertices_and_centroid_inside(self):
        s = right_triangle()
        assert contains_points(s, s.vertices).all()
        assert contains_points(s, s.centroid())[0]
        assert not contains_points(s, np.array([1.0, 1.0]))[0]

    def test_a_simplex_holds_only_its_vertices(self):
        # membership, the gauge and the TV scorer solve the barycentric
        # system where they need it and leave nothing on the simplex
        s, other = isotropic_simplex(2), isotropic_simplex(2).scaled(0.5)
        contains_points(s, np.zeros(2))
        _gauge(s, np.full(2, 0.1))
        tv_distance_mc(other, s, 10)
        tv_distance_mc(s, other, 10)
        assert list(vars(s)) == list(vars(other)) == ["vertices"]


class TestEmbedMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_basis_orthonormal_and_ones_free(self, n):
        emb = make_embed_map(n)
        b = emb.basis
        assert b.shape == (n + 1, n)
        assert np.allclose(b.T @ b, np.eye(n))
        assert np.allclose(np.ones(n + 1) @ b, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_forward_lands_on_hyperplane(self, n):
        emb = make_embed_map(n)
        x = np.random.default_rng(0).standard_normal((20, n))
        y = emb.forward(x)
        assert np.allclose(y.sum(axis=1), 1.0)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_round_trip_and_isometry(self, n):
        emb = make_embed_map(n)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, n))
        assert np.allclose(emb.inverse(emb.forward(x)), x)
        d_in = np.linalg.norm(x[0] - x[1])
        d_out = np.linalg.norm(emb.forward(x[0]) - emb.forward(x[1]))
        assert d_out * math.sqrt((n + 1) * (n + 2)) == pytest.approx(d_in)

    def test_standard_simplex_pulls_back_to_isotropic(self):
        n = 3
        emb = make_embed_map(n)
        iso = isotropic_simplex(n)
        assert np.allclose(emb.forward(iso.vertices), np.eye(n + 1), atol=1e-12)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, seed):
        emb = make_embed_map(n)
        x = np.random.default_rng(seed).standard_normal(n)
        assert np.allclose(emb.inverse(emb.forward(x)), x, atol=1e-10)


class TestIsotropicSimplex:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_centroid_and_covariance(self, n):
        s = isotropic_simplex(n)
        v = s.vertices
        assert np.allclose(v.mean(axis=0), 0.0, atol=1e-12)
        # uniform-distribution covariance with zero centroid: sum v v^T / ((n+1)(n+2))
        cov = v.T @ v / ((n + 1) * (n + 2))
        assert np.allclose(cov, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_vertex_norms(self, n):
        s = isotropic_simplex(n)
        inradius, circum = math.sqrt((n + 2) / n), math.sqrt(n * (n + 2))
        assert np.allclose(np.linalg.norm(s.vertices, axis=1), circum)
        # inradius: distance from the origin to each facet {x : a.x = 1}
        for i in range(n + 1):
            others = np.delete(s.vertices, i, axis=0)
            a = np.linalg.solve(others, np.ones(n))
            assert 1.0 / np.linalg.norm(a) == pytest.approx(inradius)

    def test_norm_values(self):
        s = isotropic_simplex(3)
        assert np.linalg.norm(s.vertices, axis=1) == pytest.approx([math.sqrt(15)] * 4)
        # the inradius of a regular simplex is the distance to a facet centroid
        assert np.linalg.norm(s.vertices[1:].mean(axis=0)) == pytest.approx(math.sqrt(5 / 3))
        with pytest.raises(ValueError):
            isotropic_simplex(0)

    @pytest.mark.parametrize("build", [isotropic_simplex, make_embed_map])
    @pytest.mark.parametrize("n", [2.0, True, "3"])
    def test_dimension_must_be_an_integer(self, build, n):
        # a float raised a TypeError deep in numpy, and True built a 1-simplex
        with pytest.raises(ValueError, match="^n must be an integer"):
            build(n)

    def test_numpy_integer_dimension(self):
        assert isotropic_simplex(np.int64(3)) == isotropic_simplex(3)


class TestAffineFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        frame = AffineFrame(mean=rng.standard_normal(3), factor=np.linalg.qr(rng.standard_normal((3, 3)))[0] * 2.0)
        pts = rng.standard_normal((6, 3))
        assert np.allclose(frame.inverse(frame.forward(pts)), pts)
        assert np.allclose(frame.forward(frame.inverse(pts)), pts)

    def test_single_point_keeps_shape(self):
        frame = AffineFrame(mean=np.zeros(2), factor=2.0 * np.eye(2))
        x = np.array([4.0, 2.0])
        assert frame.forward(x).shape == (2,)
        assert np.allclose(frame.forward(x), [2.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineFrame(mean=np.zeros(3), factor=np.eye(2))

    @pytest.mark.parametrize("mean_shape,factor_shape", [((2, 2), (2, 2)), ((), (2, 2)), ((2,), (2, 2, 2)), ((2,), (2,))])
    def test_shapes_named(self, mean_shape, factor_shape):
        # a 2-D mean is not a (d,) vector, though a (d, d) factor fits its rows
        shapes = rf"got shapes {re.escape(str(mean_shape))} and {re.escape(str(factor_shape))}$"
        with pytest.raises(ValueError, match=rf"^mean must be \(d,\) and factor \(d, d\), {shapes}"):
            AffineFrame(mean=np.zeros(mean_shape), factor=np.ones(factor_shape))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_barycentric_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    vertices = rng.standard_normal((n + 1, n))
    # skip the (measure-zero, but hypothesis will find it) degenerate draws
    edges = vertices[1:] - vertices[0]
    if abs(np.linalg.det(edges)) < 1e-6:
        return
    s = Simplex(vertices)
    pts = rng.standard_normal((5, n))
    lam = _coordinates(s, pts).T
    assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-8)
    assert np.allclose(lam @ s.vertices, pts, atol=1e-7)
