from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morinchi.expr import (
    DimensionMismatch,
    Expr,
    ExprBlock,
    ExprError,
    Jet,
    differentiate,
    evaluate,
    gradient,
    parse_prefix,
    to_prefix,
)


def x(i, n):
    return Expr.variable(i, n)


def test_evaluate_product():
    e = x(0, 2) ** 2 * x(1, 2)
    assert evaluate(e, (2, 3)) == 12


def test_evaluate_fold_leading_term_vanishes_at_origin():
    # x_n^(k+1) with k=1, at x_n = 0
    e = x(0, 1) ** 2
    assert evaluate(e, (0,)) == 0


def test_evaluate_sphere_constraint_on_unit_vector():
    n = 3
    e = sum((x(i, n) ** 2 for i in range(n)), Expr.constant(-1, n))
    assert evaluate(e, (Fraction(3, 5), Fraction(4, 5), 0)) == 0
    assert evaluate(e, (1, 0, 0)) == 0


def test_evaluate_exact_on_rationals():
    e = x(0, 1) ** 3 - Fraction(1, 3) * x(0, 1)
    val = evaluate(e, (Fraction(1, 2),))
    assert isinstance(val, Fraction)
    assert val == Fraction(1, 8) - Fraction(1, 6)


def test_evaluate_dimension_mismatch():
    e = x(0, 2) + x(1, 2)
    with pytest.raises(DimensionMismatch):
        evaluate(e, (1.0,))


def test_differentiate_product():
    e = x(0, 2) ** 2 * x(1, 2)
    assert differentiate(e, 0) == 2 * x(0, 2) * x(1, 2)


def test_differentiate_cusp_chain_normal_form():
    # d/dxn of xn^3 + x1*xn^2 + x2*xn  ->  3 xn^2 + 2 x1 xn + x2
    n = 3
    xn, x1, x2 = x(2, n), x(0, n), x(1, n)
    e = xn**3 + x1 * xn**2 + x2 * xn
    assert differentiate(e, 2) == 3 * xn**2 + 2 * x1 * xn + x2


def test_differentiate_constant_is_zero():
    assert differentiate(Expr.constant(7, 1), 0).is_zero()


def test_gradient_round_quadratic():
    e = x(0, 2) ** 2 + x(1, 2) ** 2
    assert gradient(e) == (2 * x(0, 2), 2 * x(1, 2))


def test_gradient_fold_model():
    n = 3
    e = x(0, n) ** 2 + x(1, n) ** 2 - x(2, n) ** 2
    assert gradient(e) == (2 * x(0, n), 2 * x(1, n), -2 * x(2, n))


def test_gradient_linear_is_constant_vector():
    n = 3
    e = 2 * x(0, n) - 5 * x(1, n) + x(2, n)
    g = gradient(e)
    assert [evaluate(gi, (9, 9, 9)) for gi in g] == [2, -5, 1]


def _random_cubic(rng, n):
    e = Expr.constant(0, n)
    for _ in range(8):
        mono = Expr.constant(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))), n)
        for _ in range(int(rng.integers(0, 4))):
            mono = mono * x(int(rng.integers(0, n)), n)
        e = e + mono
    return e


def test_directional_derivative_matches_finite_difference():
    # the second directional derivative v^T H v from the jet's Hessian
    rng = np.random.default_rng(7)
    n = 3
    e = _random_cubic(rng, n)
    jet = Jet([e], n)
    for _ in range(20):
        pt = rng.uniform(-1, 1, n)
        v = rng.uniform(-1, 1, n)
        v /= np.linalg.norm(v)
        h = 1e-4
        fd = (evaluate(e, pt + h * v) - 2 * evaluate(e, pt) + evaluate(e, pt - h * v)) / h**2
        assert v @ jet(pt)[2][0] @ v == pytest.approx(fd, rel=1e-6, abs=1e-6)


@st.composite
def polys(draw, n=3, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Expr(n, terms)


@given(polys(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(e, i, j):
    assert differentiate(differentiate(e, i), j) == differentiate(differentiate(e, j), i)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_prefix_roundtrip(e):
    assert parse_prefix(to_prefix(e), e.nvars) == e


def test_parse_prefix_examples():
    e = parse_prefix("(+ (* 2 (^ x0 2)) x1)")
    assert e == 2 * x(0, 2) ** 2 + x(1, 2)
    assert parse_prefix("(- x0 x1)", 2) == x(0, 2) - x(1, 2)
    assert parse_prefix("(- x0)", 1) == -x(0, 1)
    assert parse_prefix("3/4", 0) == Expr.constant(Fraction(3, 4))


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_prefix("(+ x0")
    with pytest.raises(ExprError):
        parse_prefix("(^ x0 1/2)")
    with pytest.raises(ExprError):
        parse_prefix("(% x0 x1)")
    with pytest.raises(ExprError):
        parse_prefix("(+ x0 x5)", nvars=2)


def test_float_coefficients_rejected():
    with pytest.raises(ExprError):
        Expr.constant(0.5)  # type: ignore[arg-type]
    with pytest.raises(ExprError):
        x(0, 1) * 0.5  # type: ignore[operator]


def test_expr_block_matches_evaluate():
    e = parse_prefix("(+ (* 3 (^ x0 2) x1) (* -1/2 x2) 4)", 3)
    pt = (0.3, -1.2, 2.5)
    assert ExprBlock([e], 3)(pt)[0] == pytest.approx(float(evaluate(e, pt)), rel=1e-14)
