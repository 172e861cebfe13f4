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
space by SVD (``curve_tangents``), which also audits the nullity of J
(``audit_curve_nullity``).

A system is anything with ``evaluate(Z) -> (R, J)`` on a stack Z
(B, dim_z), its ``dim_z`` and ``tol``, the residual tolerance its solves
stop at; its solution set near the points given is a smooth curve.  The
fold-curve trace and cusp search in ``strata`` and the Morse walk along the
fold curves in ``morse`` are its clients.
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
    instead (``curve_tangents`` along T), which reject a nullity other
    than 1."""
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


def nullities(system, Z, tangents=False):
    """Nullity of the Jacobian at each point of a stack (B, dim_z), by the
    rank rule of ``nullspace(J, rtol=1e-8)``; with ``tangents`` also the
    last right-singular vector of each, the null vector where the nullity
    is 1."""
    svd = np.linalg.svd(system.evaluate(Z)[1], compute_uv=tangents)
    s = svd[1] if tangents else svd
    cutoff = np.maximum(1e-8 * s[:, :1], np.finfo(float).tiny)
    nullity = system.dim_z - np.sum(s > cutoff, axis=1)
    return (nullity, svd[2][:, -1]) if tangents else nullity


def audit_curve_nullity(system, Z, tangents=False):
    """Reject the first point of a stack Z (in order) where the solution set
    is not a smooth curve, one stacked SVD per ``batch_width`` points; with
    ``tangents`` return the null vector of J at every point."""
    width = batch_width(system.dim_z)
    T = np.empty_like(Z) if tangents else None
    for i in range(0, len(Z), width):
        if tangents:
            nullity, T[i:i + width] = nullities(system, Z[i:i + width], tangents=True)
        else:
            nullity = nullities(system, Z[i:i + width])
        bad = np.flatnonzero(nullity != 1)
        if bad.size:
            raise MorinnessError(
                f"singular-set dimension audit failed: nullity {nullity[bad[0]]} != 1 "
                f"(solution variety is not a smooth curve here)"
            )
    return T


def curve_tangents(system, Z, prev=None):
    """Unit tangents of the solution curve at a stack of points Z (B, dim_z):
    the SVD null vectors of J, each oriented along its row of ``prev`` when
    given and sign-normalized otherwise; a nullity other than 1 is
    rejected."""
    T = audit_curve_nullity(system, Z, tangents=True)
    if prev is None:
        return sign_normalize(T)
    return np.where((np.sum(T * prev, axis=1) < 0)[:, None], -T, T)


def bisect_on_curve(system, ZA, ZB, FA, value, gap):
    """Bisect sign changes of a scalar along the curve, all brackets in
    lockstep.

    Bracket i runs from ZA[i] to ZB[i], and FA[i] is the value at ZA[i].
    Each round lands the midpoints of the open brackets with one
    ``newton_batch`` and evaluates ``value(Z, chords)`` there, ``chords``
    being the current brackets ZB - ZA.  A bracket stops at a landed
    midpoint whose value is exactly zero or whose bracket is shorter than
    ``gap``, and returns its bracket midpoint, unlanded, after 60 halvings.
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
        chords = ZB[live] - ZA[live]
        fm = value(mid.z, chords)
        steps[live] = step
        done = (fm == 0.0) | (np.linalg.norm(chords, axis=1) < gap)
        Z[live[done]] = mid.z[done]
        right = ~done & (FA[live] * fm < 0)
        left = ~done & ~right
        ZB[live[right]] = mid.z[right]
        ZA[live[left]], FA[live[left]] = mid.z[left], fm[left]
        live = live[~done]
    Z[live] = 0.5 * (ZA[live] + ZB[live])
    return Z, steps
