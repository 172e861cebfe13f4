"""Exact polynomial expressions over ambient coordinates x0, x1, ...

Expressions are multivariate polynomials with rational coefficients kept in
an expanded normal form (sorted monomials, exact Fraction coefficients), so
structural equality is plain equality of the normal forms and mixed partial
derivatives commute exactly.  Floating point only ever enters when an
expression is *evaluated* at a floating point; the algebra itself is exact.

The text form is a prefix notation used by scenario files, e.g.

    (+ (* 2 (^ x0 2)) x1)      ->  2*x0^2 + x1
    (- (^ x2 3) (* 1/2 x0))    ->  x2^3 - x0/2
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence, Union

import numpy as np

Rational = Union[int, Fraction]


class ExprError(ValueError):
    """Malformed expression or unsupported operation."""


class DimensionMismatch(ExprError):
    """Point dimension does not match the expression's ambient dimension."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ExprError(
            f"coefficients must be int or Fraction, got {type(value).__name__}"
        )
    return Fraction(value)


class Expr:
    """Immutable polynomial in variables x0..x{nvars-1} with exact coefficients.

    ``terms`` maps a dense exponent tuple of length ``nvars`` to a nonzero
    Fraction coefficient.  Instances are hashable and safe to share.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ExprError(f"bad monomial {mono} for nvars={nvars}")
            clean[mono] = coeff
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value: Rational, nvars: int = 0) -> "Expr":
        return Expr(nvars, {(0,) * nvars: _as_fraction(value)})

    @staticmethod
    def variable(i: int, nvars: int | None = None) -> "Expr":
        if i < 0:
            raise ExprError("variable index must be nonnegative")
        if nvars is None:
            nvars = i + 1
        if i >= nvars:
            raise ExprError(f"variable x{i} does not fit in nvars={nvars}")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Expr(nvars, {mono: Fraction(1)})

    def with_nvars(self, nvars: int) -> "Expr":
        """Pad to a larger ambient dimension (new variables appear with power 0)."""
        if nvars < self.nvars:
            if any(any(m[j] for j in range(nvars, self.nvars)) for m in self.terms):
                raise ExprError("cannot shrink ambient dimension below used variables")
            return Expr(nvars, {m[:nvars]: c for m, c in self.terms.items()})
        pad = (0,) * (nvars - self.nvars)
        return Expr(nvars, {m + pad: c for m, c in self.terms.items()})

    # -- algebra -----------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            n = max(self.nvars, other.nvars)
            return other.with_nvars(n)
        return Expr.constant(other, self.nvars)

    def _aligned(self, other: "Expr") -> "Expr":
        return self.with_nvars(max(self.nvars, other.nvars if isinstance(other, Expr) else 0))

    def __add__(self, other):
        other = self._coerce(other)
        left = self._aligned(other)
        terms = dict(left.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Expr(left.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        left = self._aligned(other)
        terms: dict = {}
        for m1, c1 in left.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = terms.get(mono)
                terms[mono] = c1 * c2 if acc is None else acc + c1 * c2
        return Expr(left.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ExprError("only nonnegative integer powers are supported")
        result = Expr.constant(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Monomials in the canonical order: total degree descending, then lex."""
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        n = max(self.nvars, other.nvars)
        return self.with_nvars(n).terms == other.with_nvars(n).terms

    def __hash__(self):
        if self._hash is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __repr__(self):
        return f"Expr({to_prefix(self)!r})"


# -- core operations --------------------------------------------------------


def evaluate(e: Expr, x: Sequence):
    """Evaluate ``e`` at point ``x``.

    Exact (Fraction) when every coordinate is an int or Fraction, floating
    otherwise.  Raises DimensionMismatch unless len(x) == e.nvars.
    """
    if len(x) != e.nvars:
        raise DimensionMismatch(f"point has dimension {len(x)}, expression has {e.nvars}")
    exact = all(isinstance(c, (int, Fraction)) and not isinstance(c, bool) for c in x)
    total = Fraction(0) if exact else 0.0
    for mono, coeff in e.terms.items():
        term = coeff if exact else float(coeff)
        for xi, ei in zip(x, mono):
            if ei:
                term = term * xi**ei
        total = total + term
    return total


def differentiate(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to x_i, in normal form."""
    if not 0 <= i < e.nvars:
        raise ExprError(f"variable index {i} outside ambient dimension {e.nvars}")
    terms: dict = {}
    for mono, coeff in e.terms.items():
        ei = mono[i]
        if ei == 0:
            continue
        new = mono[:i] + (ei - 1,) + mono[i + 1 :]
        terms[new] = terms.get(new, Fraction(0)) + coeff * ei
    return Expr(e.nvars, terms)


def gradient(e: Expr) -> tuple:
    """Tuple of partial derivatives (component i is differentiate(e, i))."""
    return tuple(differentiate(e, i) for i in range(e.nvars))


# -- fast numeric evaluation --------------------------------------------------


class ExprBlock:
    """Joint float evaluator for a family of expressions over one basis.

    All expressions are expanded over the union of their monomials.  A call
    takes one point (N,) or a stack of points (B, N) and returns the family's
    values, (R,) or (B, R): one power table, one gather-product per monomial
    and one coefficient product cover the whole stack.  This is the hot path
    of every solver.
    """

    def __init__(self, exprs: Sequence[Expr], nvars: int):
        exprs = [e.with_nvars(nvars) for e in exprs]
        basis = sorted({m for e in exprs for m in e.terms})
        index = {m: i for i, m in enumerate(basis)}
        C = np.zeros((len(exprs), len(basis)))
        for r, e in enumerate(exprs):
            for m, c in e.terms.items():
                C[r, index[m]] = float(c)
        self.nvars = nvars
        self.exponents = np.array(basis, dtype=np.int64).reshape(len(basis), nvars)
        self.coeffs = C
        self._max_exp = int(self.exponents.max()) if self.exponents.size else 0
        self._columns = np.arange(nvars)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.exponents.shape[0] == 0:
            return np.zeros(x.shape[:-1] + (self.coeffs.shape[0],))
        # power table per variable, then one gather-product per monomial
        table = np.ones(x.shape[:-1] + (self._max_exp + 1, self.nvars))
        for e in range(1, self._max_exp + 1):
            table[..., e, :] = table[..., e - 1, :] * x
        powers = np.prod(table[..., self.exponents, self._columns], axis=-1)
        return powers @ self.coeffs.T


class Jet:
    """Values, gradients and Hessians of a family of polynomials.

    The family, its first partials and its upper-triangle second partials
    form one ExprBlock.  A call takes a point (N,) or a stack (B, N) and
    returns (values (..., k), gradients (..., k, N), Hessians (..., k, N, N)).
    The last evaluation is memoized, so the residual/Jacobian call pairs the
    solvers issue for one point or stack evaluate the block once.
    """

    def __init__(self, exprs: Sequence[Expr], nvars: int):
        exprs = [e.with_nvars(nvars) for e in exprs]
        gradients = [[differentiate(e, i) for i in range(nvars)] for e in exprs]
        upper = [(i, j) for i in range(nvars) for j in range(i, nvars)]
        family = list(exprs)
        family += [d for row in gradients for d in row]
        family += [differentiate(row[i], j) for row in gradients for (i, j) in upper]
        self._block = ExprBlock(family, nvars)
        self._k = len(exprs)
        self._ui = np.array([i for i, _ in upper], dtype=np.int64)
        self._uj = np.array([j for _, j in upper], dtype=np.int64)
        self._memo = (None, None, None)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        memo = self._memo          # single read keeps the triple consistent
        if key == memo[0] and x.shape == memo[1]:
            return memo[2]
        k, N, lead = self._k, self._block.nvars, x.shape[:-1]
        vals = self._block(x)
        D = vals[..., k:k + k * N].reshape(lead + (k, N))
        H = np.zeros(lead + (k, N, N))
        tri = vals[..., k + k * N:].reshape(lead + (k, len(self._ui)))
        H[..., self._ui, self._uj] = tri
        H[..., self._uj, self._ui] = tri
        out = (vals[..., :k], D, H)
        self._memo = (key, x.shape, out)
        return out


class ThirdJet:
    """Symmetric third-derivative tensors (..., k, N, N, N) of a family.

    The nonzero partials d^3 e / dx_i dx_j dx_l with i <= j <= l form one
    ExprBlock; each value is scattered to every index permutation through
    precomputed index arrays.
    """

    def __init__(self, exprs: Sequence[Expr], nvars: int):
        partials, where = [], []
        for r, e in enumerate(exprs):
            for i in range(nvars):
                di = differentiate(e.with_nvars(nvars), i)
                for j in range(i, nvars):
                    dij = differentiate(di, j)
                    for l in range(j, nvars):
                        dijl = differentiate(dij, l)
                        if dijl.is_zero():
                            continue
                        for perm in sorted(set(permutations((i, j, l)))):
                            where.append((len(partials), r) + perm)
                        partials.append(dijl)
        self._block = ExprBlock(partials, nvars)
        self._shape = (len(exprs), nvars, nvars, nvars)
        self._src, self._r, self._i, self._j, self._l = (
            np.array(where, dtype=np.int64).reshape(-1, 5).T)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape[:-1] + self._shape)
        if self._src.size:
            T[..., self._r, self._i, self._j, self._l] = self._block(x)[..., self._src]
        return T


# -- prefix text form ---------------------------------------------------------


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_atom(token: str):
    if token.startswith("x") and token[1:].isdigit():
        idx = int(token[1:])
        return ("var", idx)
    try:
        if "/" in token:
            num, den = token.split("/")
            return ("const", Fraction(int(num), int(den)))
        return ("const", Fraction(int(token)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprError(f"bad token {token!r}") from exc


def _parse(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ExprError("unexpected end of expression")
    tok = tokens[pos]
    if tok == ")":
        raise ExprError("unexpected ')'")
    if tok != "(":
        kind, val = _parse_atom(tok)
        return (kind, val), pos + 1
    op = tokens[pos + 1]
    if op not in ("+", "*", "-", "^"):
        raise ExprError(f"unknown operator {op!r}")
    args = []
    pos += 2
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse(tokens, pos)
        args.append(node)
    if pos >= len(tokens):
        raise ExprError("missing ')'")
    return (op, args), pos + 1


def _max_var(node) -> int:
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "const":
        return -1
    return max((_max_var(a) for a in node[1]), default=-1)


def _build(node, nvars: int) -> Expr:
    kind, payload = node
    if kind == "const":
        return Expr.constant(payload, nvars)
    if kind == "var":
        return Expr.variable(payload, nvars)
    if kind == "+":
        acc = Expr.constant(0, nvars)
        for a in payload:
            acc = acc + _build(a, nvars)
        return acc
    if kind == "*":
        acc = Expr.constant(1, nvars)
        for a in payload:
            acc = acc * _build(a, nvars)
        return acc
    if kind == "-":
        if len(payload) == 1:
            return -_build(payload[0], nvars)
        if len(payload) == 2:
            return _build(payload[0], nvars) - _build(payload[1], nvars)
        raise ExprError("'-' takes one or two arguments")
    if kind == "^":
        if len(payload) != 2 or payload[1][0] != "const":
            raise ExprError("'^' takes a base and an integer exponent")
        exponent = payload[1][1]
        if exponent.denominator != 1 or exponent < 0:
            raise ExprError("exponent must be a nonnegative integer")
        return _build(payload[0], nvars) ** int(exponent)
    raise ExprError(f"unknown node {kind!r}")


def parse_prefix(text: str, nvars: int | None = None) -> Expr:
    """Parse the prefix text form into a normalized Expr.

    When ``nvars`` is omitted the ambient dimension is the smallest one that
    fits every variable mentioned.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    node, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ExprError(f"trailing tokens: {' '.join(tokens[pos:])}")
    needed = _max_var(node) + 1
    if nvars is None:
        nvars = needed
    if needed > nvars:
        raise ExprError(f"expression uses x{needed - 1} but nvars={nvars}")
    return _build(node, nvars)


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_term(mono, coeff: Fraction) -> str:
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"(^ x{i} {e})")
    if not factors:
        return _format_coeff(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    parts = [] if coeff == 1 else [_format_coeff(coeff)]
    parts.extend(factors)
    if len(parts) == 1:
        return parts[0]
    return "(* " + " ".join(parts) + ")"


def to_prefix(e: Expr) -> str:
    """Serialize to the canonical prefix text form (sorted monomials)."""
    if not e.terms:
        return "0"
    terms = [_format_term(m, c) for m, c in e.sorted_terms()]
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"
