"""Continuation on the solution curve of an underdetermined system.

A predictor-corrector layout after Allgower & Georg, Introduction to
Numerical Continuation Methods (SIAM 2003): a step along the tangent t,
then Newton back to the curve inside the plane normal to t.  Every routine
takes a stack of points and every solve is ``newton_batch`` with its
minimal-norm step: landing (the midpoints of ``bisect_on_curve``, all
brackets at once) solves the rectangular curve equations, the corrector
(``correct_in_planes``) the curve equations bordered by each start's plane
row.  The bordered matrix [J; t] is square, and nonsingular wherever the
curve is smooth and t is not normal to it; there its inverse gives the
step.  Along a chain of steps the next tangent is the one [J(z_new); t]
induces (``chain_tangents``: the solution of [J; t] tau = e_last,
normalized), oriented along t since t . tau = 1; a point with no
predecessor, and an exactly singular bordered stack, take it from the null
space by SVD (``curve_tangents``).

Smoothness rests on one rank rule, ``nullities``, applied by
``audit_nullity`` to a stack of Jacobians where they are computed: the
fold-curve trace audits every corrected node from the corrector's own
Jacobians in the step that makes it, ``curve_tangents`` the Jacobians it
evaluates, and the Morse theory on a stratum each root's DF together with
its reduced Hessian.  The trace reaches the rule through
``audit_bordered``, a certificate from the determinant of each bordered
matrix that clears a well-conditioned node without an SVD and sends every
other node to the rule; the sign of that determinant, which it returns,
flips where a chain of steps passes a bifurcation point.

A system is anything with ``evaluate(Z) -> (R, J)`` on a stack Z
(B, dim_z), its ``dim_z`` and ``tol``, the residual tolerance its solves
stop at; its solution set near the points given is a smooth curve.  The
fold-curve trace, the cusp search and the cusp charts in ``strata`` and
the cusp partners in ``morse`` are its clients; ``bisect_on_curve`` serves
the cusp search only, since the Morse walk along the fold curves polishes
each critical point from its bracket instead.
"""

from __future__ import annotations

import numpy as np

from ._numeric import batch_width, newton_batch, sign_normalize
from .scenario import MorinnessError, StratificationError


def correct_in_planes(system, Z, anchors, normals):
    """Newton from each start of a stack (B, dim_z) onto the solution set cut
    by its own plane, start i by the plane through anchors[i] normal to
    normals[i]: one ``newton_batch`` on the bordered system, whose lanes each
    see their own plane row."""
    def bordered(W, rows):
        R, J = system.evaluate(W)
        t = normals[rows]
        plane = np.sum((W - anchors[rows]) * t, axis=1)
        return (np.concatenate((R, plane[:, None]), axis=1),
                np.concatenate((J, t[:, None, :]), axis=1))

    return newton_batch(bordered, Z, tol=system.tol, max_iter=40, indexed=True)


def chain_tangents(system, Z, T, bordered):
    """Unit tangents at a stack of points Z induced by their bordered
    matrices [J(Z); T]: the solutions of [J(z); t] tau = e_last, normalized,
    so each points along its t.  ``batch_width`` points take one solve; a
    chunk with an exactly singular matrix takes its SVD null vectors
    instead (``curve_tangents`` along T)."""
    width = batch_width(system.dim_z)
    out = np.empty_like(T)
    for i in range(0, len(Z), width):
        e_last = np.zeros(T[i:i + width].shape + (1,))
        e_last[:, -1] = 1.0
        try:
            tau = np.linalg.solve(bordered[i:i + width], e_last)[..., 0]
        except np.linalg.LinAlgError:
            out[i:i + width] = curve_tangents(system, Z[i:i + width], T[i:i + width])
            continue
        out[i:i + width] = tau / np.linalg.norm(tau, axis=1, keepdims=True)
    return out


def nullities(J, k=0):
    """The rank rule of every dimension audit, on a stack of Jacobians J
    (B, r, d): the nullity of each is d less its number of singular values
    above 1e-8 sigma_max and above ``tiny``.  With k > 0 also returns the
    last k right-singular vectors of each (B, k, d), an orthonormal basis
    of its null space where the nullity is k."""
    svd = np.linalg.svd(J, compute_uv=k > 0)
    s = svd[1] if k else svd
    cutoff = np.maximum(1e-8 * s[:, :1], np.finfo(float).tiny)
    nullity = J.shape[-1] - np.sum(s > cutoff, axis=1)
    return (nullity, svd[2][:, J.shape[-1] - k:]) if k else nullity


def audit_nullity(J, dim=1, k=0):
    """Reject the first Jacobian of a stack J whose nullity is not ``dim``,
    where the solution set is not a smooth manifold of dimension dim;
    with k > 0 returns the null space bases of ``nullities(J, k)``."""
    out = nullities(J, k)
    nullity = out[0] if k else out
    bad = np.flatnonzero(nullity != dim)
    if bad.size:
        shape = "curve" if dim == 1 else f"{dim}-manifold"
        raise MorinnessError(
            f"singular-set dimension audit failed: nullity {nullity[bad[0]]} != {dim} "
            f"(solution variety is not a smooth {shape} here)"
        )
    return out[1] if k else None


def audit_bordered(B):
    """``audit_nullity`` of the Jacobians J = B[:, :-1] of a stack of square
    bordered matrices B = [J; t] (k, d, d), by a certificate first; returns
    the sign of each det B (0.0 where it is exactly 0).

    J is B less its last row, so by interlacing sigma_{d-1}(J) >=
    sigma_min(B), and sigma_max(J) <= ||B||_F.  Hong & Pan (Linear Algebra
    Appl. 172, 1992) bound sigma_min(B) >= |det B| ((d-1)/||B||_F^2)^((d-1)/2).
    A lane whose bound exceeds 1e-6 ||B||_F therefore has every singular
    value of J above 1e-8 sigma_max(J): nullity 1 under the rule, with a
    margin of 100 for the rounding of det.  Every other lane (a small bound,
    det 0, NaN or inf) goes to ``audit_nullity``, which raises for the first
    lane the rule rejects.

    Where J has a one-dimensional kernel spanned by n, det [J; v] =
    (v . n) det [J; n], so along a chain of steps, whose tangents keep their
    orientation (``chain_tangents``), the sign of det B is the sign of the
    augmented determinant: constant along a smooth branch, and flipped
    where the chain passes a simple bifurcation point (Allgower & Georg,
    ch. 8; Keller, 1977).
    """
    d = B.shape[-1]
    with np.errstate(all="ignore"):         # a NaN bound is doubt
        det = np.linalg.det(B)
        frobenius2 = np.sum(B * B, axis=(1, 2))
        bound = np.abs(det) * ((d - 1) / frobenius2) ** ((d - 1) / 2)
        doubt = ~(bound > 1e-6 * np.sqrt(frobenius2))
    if doubt.any():
        audit_nullity(B[doubt, :-1])
    return np.sign(det)


def curve_tangents(system, Z, prev=None):
    """Unit tangents of the solution curve at a stack of points Z (B, dim_z):
    the SVD null vectors of J, each oriented along its row of ``prev`` when
    given and sign-normalized otherwise, one stacked SVD per ``batch_width``
    points; a nullity other than 1 is rejected (``audit_nullity``)."""
    width = batch_width(system.dim_z)
    T = np.empty_like(Z)
    for i in range(0, len(Z), width):
        T[i:i + width] = audit_nullity(system.evaluate(Z[i:i + width])[1], k=1)[:, 0]
    if prev is None:
        return sign_normalize(T)
    return np.where((np.sum(T * prev, axis=1) < 0)[:, None], -T, T)


def bisect_on_curve(system, ZA, ZB, FA, value, gap):
    """Bisect sign changes of a scalar along the curve, all brackets in
    lockstep.

    Bracket i runs from ZA[i] to ZB[i], and FA[i] is the value at ZA[i].
    Each round lands the midpoints of the open brackets with one
    ``newton_batch`` and evaluates ``value(Z)`` there.  A bracket stops at a
    landed midpoint whose value is exactly zero or whose chord ZB - ZA is
    shorter than ``gap``, and returns its bracket midpoint, unlanded, after
    60 halvings.
    Returns the points (k, dim_z) and the number of midpoints landed per
    bracket.
    """
    ZA, ZB = np.array(ZA, dtype=float), np.array(ZB, dtype=float)
    FA = np.array(FA, dtype=float)
    Z = np.empty_like(ZA)
    steps = np.zeros(len(ZA), dtype=int)
    live = np.arange(len(ZA))
    for step in range(1, 61):
        if live.size == 0:
            break
        mid = newton_batch(system.evaluate, 0.5 * (ZA[live] + ZB[live]),
                           tol=system.tol, max_iter=60)
        if not mid.converged.all():
            raise StratificationError("bisection lost the curve")
        fm = value(mid.z)
        steps[live] = step
        done = (fm == 0.0) | (np.linalg.norm(ZB[live] - ZA[live], axis=1) < gap)
        Z[live[done]] = mid.z[done]
        right = ~done & (FA[live] * fm < 0)
        left = ~done & ~right
        ZB[live[right]] = mid.z[right]
        ZA[live[left]], FA[live[left]] = mid.z[left], fm[left]
        live = live[~done]
    Z[live] = 0.5 * (ZA[live] + ZB[live])
    return Z, steps
