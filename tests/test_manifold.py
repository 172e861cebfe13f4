from __future__ import annotations

import numpy as np
import pytest

from morinchi.expr import Expr, parse_prefix
from morinchi.manifold import (
    ImplicitManifold,
    ManifoldError,
    ProjectionError,
    RegularityError,
    project_to_manifold,
    sample_starts,
    tangent_frame,
    validate_regularity,
)
from tests.conftest import bundled


@pytest.fixture
def sphere2():
    return bundled("s2-height").manifold


@pytest.fixture
def torus():
    return bundled("torus-height").manifold


def test_sphere_regularity_min_singular_value(sphere2):
    report = validate_regularity(sphere2, count=25, seed=0)
    assert report.ok
    # |grad(sum x^2 - 1)| = 2 everywhere on the unit sphere
    assert report.min_singular_value == pytest.approx(2.0, abs=1e-9)


def test_torus_regularity(torus):
    report = validate_regularity(torus, count=25, seed=0)
    assert report.ok
    assert report.min_singular_value > 1e-3


def test_sample_starts_are_the_seeds_then_one_draw_per_start(torus):
    # the loop the regularity audit and the multistart seeds each ran: a
    # draw per start after the sample seeds, from one keyed generator
    rng = np.random.default_rng([4, 23, 1])
    want = [np.array(s) for s in torus.sample_seeds]
    while len(want) < 25:
        want.append(rng.uniform(-torus.sample_halfwidth, torus.sample_halfwidth, 3))
    assert np.array_equal(sample_starts(torus, 25, [4, 23, 1]), np.array(want))
    assert np.array_equal(sample_starts(torus, 1, [4, 23, 1]), np.array(torus.sample_seeds))


def test_double_root_constraint_fails_regularity():
    g = Expr.variable(0, 2) ** 2
    M = ImplicitManifold(2, [g], 1, sample_seeds=[(0.1, 0.3)])
    report = validate_regularity(M, count=5, seed=0)
    assert not report.ok
    assert report.failures  # offending points reported, all near x0 = 0
    assert all(abs(p[0]) < 1e-3 for p in report.failures)


def test_projection_radial(sphere2):
    p = project_to_manifold(sphere2, (0.0, 0.0, 2.0))
    assert np.allclose(p, (0, 0, 1), atol=1e-12)


def test_projection_normalization(sphere2):
    p = project_to_manifold(sphere2, (3.0, 4.0, 0.0))
    assert np.allclose(p, (0.6, 0.8, 0.0), atol=1e-12)


def test_projection_torus_residual_and_idempotence(torus):
    p = project_to_manifold(torus, (2.5, 0.7, 0.9))
    assert torus.residual(p) <= 1e-12
    p2 = project_to_manifold(torus, p)
    assert np.linalg.norm(p2 - p) < 1e-12


def test_tangent_frame_north_pole(sphere2):
    T = tangent_frame(sphere2, (0.0, 0.0, 1.0))
    assert T.shape == (2, 3)
    assert np.allclose(T[:, 2], 0, atol=1e-12)
    assert np.allclose(T @ T.T, np.eye(2), atol=1e-12)


def test_tangent_frame_s3_pole():
    M = bundled("s3-proj").manifold
    T = tangent_frame(M, (1.0, 0.0, 0.0, 0.0))
    assert T.shape == (3, 4)
    assert np.allclose(T[:, 0], 0, atol=1e-12)
    assert np.allclose(T @ T.T, np.eye(3), atol=1e-12)


def test_tangent_frame_torus_orthogonality(torus):
    p = project_to_manifold(torus, (1.7, 1.2, 0.4))
    T = tangent_frame(torus, p)
    J = torus.jacobian(p)
    assert float(np.max(np.abs(J @ T.T))) <= 1e-10
    gram = T @ T.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_frame_deterministic(torus):
    p = project_to_manifold(torus, (1.7, 1.2, 0.4))
    assert np.array_equal(tangent_frame(torus, p), tangent_frame(torus, p))


def test_frame_rejects_off_manifold_point(sphere2):
    with pytest.raises(ManifoldError):
        tangent_frame(sphere2, (0.0, 0.0, 3.0))


def test_custom_manifold_from_prefix():
    M = ImplicitManifold(2, [parse_prefix("(+ (^ x0 2) (^ x1 2) -1)", 2)], 1)
    p = project_to_manifold(M, (2.0, 0.0))
    assert np.allclose(p, (1, 0), atol=1e-12)


def test_dimension_bookkeeping():
    M = bundled("s2xs2-height").manifold
    assert len(M.constraints) == 2
    p = project_to_manifold(M, (1.0, 0.2, -0.3, 0.9, 0.1, -0.2))
    T = tangent_frame(M, p)
    assert T.shape == (M.intrinsic_dim, M.ambient_dim)
    assert np.allclose(T @ T.T, np.eye(M.intrinsic_dim), atol=1e-12)
    assert float(np.max(np.abs(M.jacobian(p) @ T.T))) <= 1e-10
