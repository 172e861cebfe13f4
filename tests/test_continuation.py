"""The continuation routines on a system that is not a scenario: the unit
circle in R^2, seen only through ``evaluate``, ``dim_z`` and ``tol``."""

from __future__ import annotations

import numpy as np

from morinchi.continuation import bisect_on_curve, correct_in_planes, curve_tangents


class Circle:
    """x^2 + y^2 - 1 = 0 in z = (x, y)."""

    dim_z, tol = 2, 1e-12

    def evaluate(self, Z):
        Z = np.asarray(Z, dtype=float)
        return np.sum(Z * Z, axis=-1, keepdims=True) - 1.0, 2.0 * Z[..., None, :]


def _on_circle(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_correct_in_planes_lands_on_the_circle():
    theta = np.array([0.3, 1.9, 3.5, 5.2])
    P = _on_circle(theta)
    T = np.stack([-P[:, 1], P[:, 0]], axis=1)
    anchors = P + 0.05 * T
    out = correct_in_planes(Circle(), 1.02 * anchors, anchors, T)
    assert out.converged.all()
    assert np.max(np.abs(np.linalg.norm(out.z, axis=1) - 1.0)) <= 1e-12
    # each lands in its own plane through its anchor normal to its tangent
    assert np.max(np.abs(np.sum((out.z - anchors) * T, axis=1))) <= 1e-12


def test_curve_tangents_are_the_circle_tangents():
    P = _on_circle(np.array([0.3, 1.9, 3.5, 5.2]))
    rotated = np.stack([-P[:, 1], P[:, 0]], axis=1)
    # sign-normalized: the first entry above 1e-12 in magnitude is positive
    T = curve_tangents(Circle(), P)
    want = np.where(rotated[:, :1] < 0, -rotated, rotated)
    assert np.max(np.abs(T - want)) <= 1e-12
    # and oriented along prev when it is given, either way round
    for sign in (1.0, -1.0):
        T = curve_tangents(Circle(), P, prev=sign * rotated)
        assert np.max(np.abs(T - sign * rotated)) <= 1e-12


def test_bisect_on_curve_finds_where_x_changes_sign():
    ZA, ZB = _on_circle(np.array([1.2, -1.2])), _on_circle(np.array([1.9, -1.9]))
    Z, steps = bisect_on_curve(Circle(), ZA, ZB, ZA[:, 0], lambda Z: Z[:, 0], gap=1e-13)
    assert np.max(np.abs(Z - [[0.0, 1.0], [0.0, -1.0]])) <= 1e-12
    assert np.all(steps > 1)
