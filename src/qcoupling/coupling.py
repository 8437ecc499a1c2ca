"""Closed-form recoupling coefficients and the summation-identity verifiers.

The recoupling (6j) coefficient of three coupled factors is a third Jackson
q-Bessel value in base q^2.  This module provides the closed forms, the
bilateral-sum residuals for the backcoupling, Biedenharn-Elliott and hexagon
identities, the lattice Hankel-type transform with q-Bessel kernel, and the
truncated Yang-Baxter operator built from the recoupling weights.  Every
sum or product of J values and recoupling weights (``weight_pair``) in the
library is a ``SumSpec``, frozen data of factors at orders and labels
affine in the summation point, read by its one evaluator ``lattice_sum``.

Verification status at the shipped tolerances: Biedenharn-Elliott holds;
orthogonality, translation invariance and duality of the closed form hold;
the backcoupling and hexagon identities and the Yang-Baxter triple product
do NOT hold as stated (the residual functions compute them faithfully and
report O(1) values).  verify_backcoupling's docstring shows why the
backcoupling cannot close; the README's verification status has the rest.

The truncated Yang-Baxter operator is never built as a matrix: each pair
operator conserves the sum of its two legs, so ``yang_baxter_residual`` and
``yang_baxter_unitarity_defect`` sum its entries one sector at a time, in
Python floats.  Nothing in this module loads numpy or scipy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Dict, NamedTuple, Optional, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, to_float

from .errors import DomainError, InsufficientWindow
from .qcore import (at_working_precision, cached, QContext, SeriesResult, TruncationPolicy,
                    bilateral_sum, exact_product, integer_label, integer_labels, mantissa, qpower,
                    rounded)
from .qfunctions import qbessel_lattice

__all__ = [
    "sixj_closed",
    "recoupling_R",
    "weight_pair",
    "Affine",
    "Factor",
    "SumSpec",
    "variables",
    "lattice_sum",
    "verify_backcoupling",
    "backcoupling_forms_gap",
    "verify_biedenharn_elliott",
    "verify_hexagon",
    "hexagon_j_form_residual",
    "yang_baxter_residual",
    "yang_baxter_unitarity_defect",
    "qhankel_transform",
    "qhankel_factorization_residual",
    "cg_contraction_residual",
]


def sixj_closed(p1: int, r1: int, p2: int, r2: int, ctx: QContext) -> mp.mpf:
    """Closed-form recoupling coefficient; zero unless r1 == r2.

    Independent of the total eigenvalue label, so that label is not an
    argument.  It is the tree-move weight at n1 = n2 = n3 = 0: a base-q^2
    q-Bessel value at the lattice point p1-p2.
    """
    p1, r1, p2, r2 = integer_labels("p1 r1 p2 r2", p1, r1, p2, r2)
    if r1 != r2:
        return mp.mpf(0)
    return recoupling_R(r1, 0, 0, 0, p1, -p2, ctx)


def recoupling_R(x: int, n1: int, n2: int, n3: int, p1p: int, p2p: int,
                 ctx: QContext) -> mp.mpf:
    """Tree-move weight for re-bracketing three coupled factors.

    Value depends on the labels only through e = p1p+p2p-n1-n3 and the order
    x-n1+n2-n3; equals sixj_closed under p1p = n1+p1, p2p = n3-p2.
    ``weight_pair`` rounded once.
    """
    x, n1, n2, n3, p1p, p2p = integer_labels("x n1 n2 n3 p1p p2p", x, n1, n2, n3, p1p, p2p)
    return rounded(weight_pair(x - n1 + n2 - n3, p1p + p2p - n1 - n3, ctx), ctx)


def _minus_q_power(e: int, ctx: QContext) -> Tuple[int, int]:
    """(-q)^e as an exact pair, from ``qcore.qpower``."""
    m, k = qpower(2 * e, ctx)
    return (-m if e & 1 else m), k


_WEIGHTS: dict = {}


def weight_pair(order: int, e: int, ctx: QContext) -> Tuple[int, int]:
    """(-q)^e J_order(q^{2e}; q^2) as an exact pair (m, k) for m 2^k.

    The exact product of (-q)^e and the J pair in base q^2, formed once per
    key in ``_WEIGHTS``.  Key and label rules are ``qbessel_lattice``'s: a
    label such as 2.0 or True finds a warm entry of 2 or 1, but raises
    DomainError cold.
    """
    hit = _WEIGHTS.get((order, e, ctx.q_key, ctx.working_precision))
    if hit is None:
        order, e = integer_label(order, "order"), integer_label(e, "e")
        hit = _WEIGHTS[order, e, ctx.q_key, ctx.working_precision] = exact_product(
            _minus_q_power(e, ctx), _J(order, e, ctx.base_squared()))
    return hit


def _J(order: int, y: int, ctx: QContext) -> Tuple[int, int]:
    """The lattice value J_order(q^y) as an exact pair."""
    return mantissa(qbessel_lattice(order, y, ctx))


class Affine(NamedTuple):
    """const + sum_i a_i x_i on Z^d, its coefficients the nonzero pairs (i, a_i)
    in increasing i.  Forms add, subtract and scale by ints (no tuple
    concatenation), so a label walk written on ints runs on forms."""

    const: int
    coeffs: Tuple[Tuple[int, int], ...] = ()

    def __add__(self, other):
        if isinstance(other, int):
            return Affine(self.const + other, self.coeffs)
        merged = dict(self.coeffs)
        for i, a in other.coeffs:
            merged[i] = merged.get(i, 0) + a
        return Affine(self.const + other.const, tuple(sorted(p for p in merged.items() if p[1])))

    def __mul__(self, k: int):
        return Affine(self.const * k, tuple((i, a * k) for i, a in self.coeffs) if k else ())

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    __radd__, __rmul__ = __add__, __mul__


def variables(d: int) -> Tuple[Affine, ...]:
    """The coordinates x_0, ..., x_{d-1} of Z^d as forms."""
    return tuple(Affine(0, ((i, 1),)) for i in range(d))


# A read at an int or ``Affine`` order and label: "J" of J_order(q^label),
# "weight" of ``weight_pair(order, label)``, of the base q^base (1 or 2).
Factor = namedtuple("Factor", "table order label base", defaults=(1,))
# sum over x in Z^dim of (-1)^sign(x) q^{half(x)/2} prod factors(x), half and
# sign ints or forms; at dim = 0 the product.  Context-free, frozen data.
SumSpec = namedtuple("SumSpec", "dim factors half sign", defaults=(0, 0))


def _spec_term(spec: SumSpec, ctx: QContext):
    """term(*x): spec's exact term at the point x (no q power read at half 0)."""
    reads = []
    for table, o, y, base in spec.factors:
        if table not in ("J", "weight") or base not in (1, 2):
            raise DomainError(f"no table {table!r} of base q^{base}")
        reads.append((_J if table == "J" else weight_pair, ctx if base == 1 else ctx.base_squared(),
                      *(o if isinstance(o, Affine) else (o, ())),
                      *(y if isinstance(y, Affine) else (y, ()))))
    half, sign = spec.half, spec.sign
    (h0, hc), (s0, sc) = (half if isinstance(half, Affine) else (half, ()),
                          sign if isinstance(sign, Affine) else (sign, ()))
    if any(not 0 <= i < spec.dim for cs in (hc, sc, *[r[3] for r in reads], *[r[5] for r in reads])
           for i, _ in cs):
        raise DomainError(f"a form reads a coordinate outside Z^{spec.dim}")
    if spec.dim == 1:  # the point one int, each coefficient one scalar
        line = [(read, fctx, o, oc[0][1] if oc else 0, y, yc[0][1] if yc else 0)
                for read, fctx, o, oc, y, yc in reads]
        h1, s1 = hc[0][1] if hc else 0, sc[0][1] if sc else 0

        def term(r):
            m, e = qpower(h0 + h1 * r, ctx) if h0 or h1 else (1, 0)
            for read, fctx, o0, o1, y0, y1 in line:
                fm, fe = read(o0 + o1 * r, y0 + y1 * r, fctx)
                m *= fm
                e += fe
            return (-m if (s0 + s1 * r) & 1 else m), e

        return term

    def term(*x):
        m, e = 1, 0
        if h0 or hc:
            h = h0
            for i, a in hc:
                h += a * x[i]
            m, e = qpower(h, ctx)
        for read, fctx, o, oc, y, yc in reads:
            for i, a in oc:
                o += a * x[i]
            for i, a in yc:
                y += a * x[i]
            fm, fe = read(o, y, fctx)
            m *= fm
            e += fe
        s = s0
        for i, a in sc:
            s += a * x[i]
        return (-m if s & 1 else m), e

    return term


def _spec_product(spec: SumSpec, ctx: QContext):
    """spec's exact product at dim = 0, read straight from its factors after
    ``_spec_term``'s checks: a table or base that does not exist, or a form
    with any coordinate, raises DomainError before any read."""
    half, sign = spec.half, spec.sign
    forms = isinstance(half, Affine) or isinstance(sign, Affine)
    for table, o, y, base in spec.factors:
        if table not in ("J", "weight") or base not in (1, 2):
            raise DomainError(f"no table {table!r} of base q^{base}")
        forms = forms or isinstance(o, Affine) or isinstance(y, Affine)
    if forms:
        if any(isinstance(v, Affine) and v.coeffs
               for v in (half, sign, *(v for f in spec.factors for v in f[1:3]))):
            raise DomainError("a form reads a coordinate outside Z^0")
        half, sign = _constant(half), _constant(sign)
    m, e = qpower(half, ctx) if half else (1, 0)
    for table, o, y, base in spec.factors:
        if forms:
            o, y = _constant(o), _constant(y)
        fm, fe = (_J if table == "J" else weight_pair)(o, y, ctx if base == 1
                                                        else ctx.base_squared())
        m *= fm
        e += fe
    return (-m if sign & 1 else m), e


def _constant(v):
    """A label as given, or a constant form as its int."""
    return v.const if isinstance(v, Affine) else v


def lattice_sum(spec: SumSpec, ctx: QContext, policy: Optional[TruncationPolicy] = None):
    """spec in ctx: at dim = 0 its product (``_spec_product``) rounded once,
    above the SeriesResult of one ``bilateral_sum`` (dim = 1) or
    ``_nested_vector_sum`` over the terms of ``_spec_term``; terms are exact."""
    if spec.dim == 0:
        return rounded(_spec_product(spec, ctx), ctx)
    term = _spec_term(spec, ctx)
    if spec.dim == 1:
        return bilateral_sum(term, policy, ctx)
    return _nested_vector_sum(term, spec.dim, policy, ctx)


def _nested_vector_sum(term, dim: int, policy: TruncationPolicy, ctx: QContext,
                       inner=None) -> SeriesResult:
    """Sum term(*tvec) over tvec in Z^dim, one bilateral level per coordinate.

    term(*tvec) returns an exact pair (m, e) for m 2^e; (0, 0) is zero.  The
    first coordinate is innermost.  When ``inner`` is given, each nonzero
    term is multiplied by ``inner(*tvec).value``, where ``inner`` returns the
    SeriesResult of a further nested sum; its mpf value enters as its
    integer mantissa and exponent.

    Each level is one ``qcore.bilateral_sum`` over its exact terms: its
    window, stop rule and estimate are that engine's, and it adds the terms
    on integers at a scale set by its own largest term, so no mpf arithmetic
    is done per term.

    Each level combines its own bilateral sum with every inner result it
    used (its coordinate sub-sums, or the ``inner`` results): the estimates
    and the term counts add, and ``converged`` is the AND of them all.  The
    estimates add unweighted, so the per-term path stays one multiplication;
    this takes the weights an inner result is multiplied by to be at most of
    order one.  They are q-Bessel products (orthogonality) and S chain
    coefficients (S-composition); none exceeds 1 in modulus on criterion
    5's grids, nor on the k = 2 S-composition instance the tests run.
    """
    used = []  # inner SeriesResults, one per index that used one
    if dim > 1:
        def level(t):
            sub = _nested_vector_sum(lambda *rest: term(*rest, t), dim - 1, policy, ctx,
                                     None if inner is None else lambda *rest: inner(*rest, t))
            used.append(sub)
            return mantissa(sub.value)
    elif inner is None:
        level = term
    else:
        def level(t):
            m, e = term(t)
            if not m:
                return m, e
            r = inner(t)
            used.append(r)
            im, ie = mantissa(r.value)
            return m * im, e + ie

    own = bilateral_sum(level, policy, ctx)
    if not used:
        return own
    return SeriesResult(own.value, own.est_error + _rounded_sum([r.est_error for r in used]),
                        own.terms_used + sum(r.terms_used for r in used),
                        own.converged and all(r.converged for r in used))


def _rounded_sum(values) -> mp.mpf:
    """Sum of the mpf values, exact on their mantissas (in units of the
    lowest exponent so far) and rounded once to the current precision, as
    ``mp.fsum`` rounds it."""
    total, low = 0, None
    for v in values:
        sign, m, e, _ = v._mpf_
        if not m:
            continue
        if sign:
            m = -m
        if low is None:
            total, low = m, e
        elif e >= low:
            total += m << (e - low)
        else:
            total, low = (total << (low - e)) + m, e
    if low is None:
        return mp.mpf(0)
    return mp.make_mpf(from_man_exp(total, low, mp.mp.prec, round_nearest))


@at_working_precision
def verify_backcoupling(x: int, n1: int, n2: int, n3: int, p1: int, p2: int,
                        ctx: QContext, policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the stated backcoupling identity (q-Bessel form).

    | J_{r123}(q^{p1+p2}) - sum_p J_{r132}(q^{p+p1}) J_{r312}(q^{p+p2}) q^p |
    with r_ijk = x-n_i+n_j-n_k.  The identity does not hold as stated; the
    residual is O(1) and is reported honestly.  Shifting the summation index
    gives RHS(p1+1, p2+1) = q^{-1} RHS(p1, p2), so the identity would force
    J_{r123}(q^{s+2}) = q^{-1} J_{r123}(q^s) for every s.  J stays bounded as
    s -> +inf, so J would vanish on the lattice, which orthogonality rules out.
    """
    x, n1, n2, n3, p1, p2 = integer_labels("x n1 n2 n3 p1 p2", x, n1, n2, n3, p1, p2)
    r123 = x - n1 + n2 - n3
    r132 = x - n1 + n3 - n2
    r312 = x - n3 + n1 - n2
    lhs = qbessel_lattice(r123, p1 + p2, ctx)
    (p,) = variables(1)
    rhs = lattice_sum(SumSpec(1, (Factor("J", r132, p1 + p), Factor("J", r312, p2 + p)),
                              half=2 * p), ctx, policy)
    return rhs.residual(lhs)


@at_working_precision
def backcoupling_forms_gap(x: int, n1: int, n2: int, n3: int, p1p: int, p2p: int,
                           ctx: QContext, policy: Optional[TruncationPolicy] = None) -> mp.mpf:
    """Gap between the recoupling-weight form and the q-Bessel form.

    The two printed forms of the backcoupling identity are translations of
    each other; this returns |R-form residual - |(-q)^e| * J-form residual|,
    which is ~0 even though both residuals are large.
    """
    x, n1, n2, n3, p1p, p2p = integer_labels("x n1 n2 n3 p1p p2p", x, n1, n2, n3, p1p, p2p)
    lhsR = recoupling_R(x, n1, n2, n3, p1p, p2p, ctx)
    # sum_p R(x, n1, n3, n2; p1p, p) R(x, n3, n1, n2; p, p2p), as printed
    (p,) = variables(1)
    rhsR = lattice_sum(SumSpec(1, (Factor("weight", x - n1 + n3 - n2, p1p - n1 - n2 + p),
                                   Factor("weight", x - n3 + n1 - n2, p2p - n3 - n2 + p))),
                       ctx, policy)
    res_R = abs(lhsR - rhsR.value)
    # J-form with p1 = p1p-n1, p2 = p2p-n3 in base q^2, scaled by the common prefactor
    e = p1p + p2p - n1 - n3
    res_J = verify_backcoupling(x, n1, n2, n3, p1p - n1, p2p - n3, ctx.base_squared(),
                                policy).value
    return abs(res_R - rounded(exact_product(qpower(2 * e, ctx), mantissa(res_J)), ctx))


@at_working_precision
def verify_biedenharn_elliott(P: int, Q: int, R: int, nu: int, mu1: int, mu2: int,
                              ctx: QContext,
                              policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the Biedenharn-Elliott (pentagon) product formula.

    J_{nu+mu1}(q^{P-Q}) J_{nu+mu2}(q^{Q-R}) = sum_mu A * J_{nu+mu}(q^{P-R}),
    A = (-1)^{mu1+mu2} q^{mu-(mu1+mu2)/2} J_{mu2-mu1+P-Q}(q^{mu-mu1})
        * J_{mu1-mu2+Q-R}(q^{mu-mu2}).
    """
    P, Q, R, nu, mu1, mu2 = integer_labels("P Q R nu mu1 mu2", P, Q, R, nu, mu1, mu2)
    lhs = rounded(exact_product(_J(nu + mu1, P - Q, ctx), _J(nu + mu2, Q - R, ctx)), ctx)
    (mu,) = variables(1)
    rhs = lattice_sum(SumSpec(1, (Factor("J", mu2 - mu1 + P - Q, mu - mu1),
                                  Factor("J", mu1 - mu2 + Q - R, mu - mu2),
                                  Factor("J", nu + mu, P - R)),
                              half=-mu1 - mu2 + 2 * mu, sign=mu1 + mu2), ctx, policy)
    return rhs.residual(lhs)


def _hexagon_side(x: int, n1: int, n2: int, n3: int, n4: int,
                  p1: int, p2: int, p3: int, p4: int) -> SumSpec:
    """The hexagon's left side, weight form:
    sum_r R(x, p1, n3, n4; p2, r) R(r, n2, n1, n3; p3, p1) R(x, p3, n2, n4; p4, r).
    The right side is this side under (n1, n2, p1, p3) <-> (n4, n3, p2, p4)."""
    (r,) = variables(1)
    return SumSpec(1, (Factor("weight", x - p1 + n3 - n4, p2 - p1 - n4 + r),
                       Factor("weight", n1 - n2 - n3 + r, p3 + p1 - n2 - n3),
                       Factor("weight", x - p3 + n2 - n4, p4 - p3 - n4 + r)))


@at_working_precision
def verify_hexagon(x: int, n1: int, n2: int, n3: int, n4: int,
                   p1: int, p2: int, p3: int, p4: int, ctx: QContext,
                   policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the stated hexagon identity (recoupling-weight form).

    Both bilateral sums over the internal label run under the same policy.
    Like the backcoupling, the identity fails as stated except at symmetric
    fixed points; the residual is faithful.
    """
    x, n1, n2, n3, n4, p1, p2, p3, p4 = integer_labels(
        "x n1 n2 n3 n4 p1 p2 p3 p4", x, n1, n2, n3, n4, p1, p2, p3, p4)
    lhs = lattice_sum(_hexagon_side(x, n1, n2, n3, n4, p1, p2, p3, p4), ctx, policy)
    rhs = lattice_sum(_hexagon_side(x, n4, n3, n2, n1, p2, p1, p4, p3), ctx, policy)
    est = lhs.est_error + rhs.est_error
    return SeriesResult(abs(lhs.value - rhs.value), est,
                        lhs.terms_used + rhs.terms_used, lhs.converged and rhs.converged)


def _hexagon_j_display(x: int, n1: int, n2: int, n3: int, n4: int,
                       p1: int, p2: int, p3: int, p4: int) -> SumSpec:
    """The left side of the hexagon's stated J display, with q -> q^2 so both
    forms share a base: its J values are of base q^2."""
    (r,) = variables(1)
    return SumSpec(1, (Factor("J", n1 - n2 - n3 + r, p1 + p3 - n2 - n3, 2),
                       Factor("J", x - p1 + n3 - n4, p2 - p1 - n4 + r, 2),
                       Factor("J", x - p3 + n2 - n4, p4 - p3 - n4 + r, 2)),
                   half=2 * (p2 + p4) - 4 * n4 + 4 * r, sign=p2 + p4)


@at_working_precision
def hexagon_j_form_residual(x: int, n1: int, n2: int, n3: int, n4: int,
                            p1: int, p2: int, p3: int, p4: int, ctx: QContext,
                            policy: Optional[TruncationPolicy] = None) -> Tuple[mp.mpf, mp.mpf]:
    """(stated-J-form LHS vs weight-form LHS gap, same for the swapped side).

    The stated q-Bessel form of the hexagon is checked against the
    recoupling-weight form before being trusted.  The J form is a base
    statement; rebasing it to the weight form's squared base shows the two
    printed forms agree termwise up to a constant (-q)^{n2+n3} the J display
    drops, and that factor is restored here, multiplying each weight-form
    sum exactly.  The swap between the two sides is
    (n1,n2,p1,p3) <-> (n4,n3,p2,p4).  The J display (``_hexagon_j_display``)
    and the weights (``_hexagon_side``) are each transcribed as printed, not
    derived from each other; only that swap is shared.
    """
    x, n1, n2, n3, n4, p1, p2, p3, p4 = integer_labels(
        "x n1 n2 n3 n4 p1 p2 p3 p4", x, n1, n2, n3, n4, p1, p2, p3, p4)

    def gap(*labels):
        j_side = lattice_sum(_hexagon_j_display(x, *labels), ctx, policy).value
        weights = lattice_sum(_hexagon_side(x, *labels), ctx, policy).value
        return abs(j_side - rounded(exact_product(_minus_q_power(n2 + n3, ctx),
                                                  mantissa(weights)), ctx))

    return gap(n1, n2, n3, n4, p1, p2, p3, p4), gap(n4, n3, n2, n1, p2, p1, p4, p3)


_YB_KERNELS: Dict[tuple, Dict[int, float]] = {}


def _yb_sector_kernel(nu: int, offsets, ctx: QContext) -> Dict[int, float]:
    """Toeplitz kernel K(d) = (-q)^d J_nu(q^{2d}; q^2), ``weight_pair`` rounded
    once to a float, over the given offsets."""
    def build():
        return {d: to_float(from_man_exp(*weight_pair(nu, d, ctx), 53, round_nearest))
                for d in offsets}

    return cached(_YB_KERNELS, ctx, (nu, min(offsets), max(offsets)), build)


class _YBKernels(dict):
    """nu -> ``_yb_sector_kernel(nu)`` over every offset of one window, read
    from the process table when a sum first reaches that sector."""

    def __init__(self, window: Tuple[int, int], ctx: QContext):
        super().__init__()
        self.offsets, self.ctx = range(window[0] - window[1], window[1] - window[0] + 1), ctx

    def __missing__(self, nu: int) -> Dict[int, float]:
        kernel = self[nu] = _yb_sector_kernel(nu, self.offsets, self.ctx)
        return kernel


_YB_NORM_TOL = 1e-9  # a column this close to unit norm lost no kernel mass to the window
_YB_MARGIN = 3  # leg indices this far inside the window are interior


def _yb_complete_columns(u: int, v: int, window: Tuple[int, int],
                         ctx: QContext) -> Dict[int, list]:
    """The complete columns of the truncated pair operator, by sector.

    The operator sends e_{t1} x e_{t2} to sum_y K_{u+v-s}(y-t2) e_{s-y} x e_y
    over the y with both legs in the window, so it conserves the sector
    s = t1+t2 and depends on u, v only through u+v.  A column is its list
    of values over the legs y of its sector; it is complete when its norm is
    within _YB_NORM_TOL of 1, i.e. the window cut did not swallow kernel
    mass for that input.
    """
    lo, hi = window
    kernels = _YBKernels(window, ctx)
    sectors = {}
    for s in range(2 * lo, 2 * hi + 1):
        kernel = kernels[u + v - s]
        legs = range(max(lo, s - hi), min(hi, s - lo) + 1)
        columns = ([kernel[y - t2] for y in legs] for t2 in legs)
        sectors[s] = [col for col in columns
                      if abs(math.sqrt(sum(x * x for x in col)) - 1.0) <= _YB_NORM_TOL]
    return sectors


def yang_baxter_unitarity_defect(u: int, v: int, window: Tuple[int, int],
                                 ctx: QContext) -> float:
    """Max Gram defect of the truncated operator over its complete columns.

    Columns of different sectors have disjoint supports, so the Gram matrix
    is one block per sector (``_yb_complete_columns``); the complete columns
    are the interior coordinates of the truncation.
    """
    lo, hi = window
    u, v, lo, hi = integer_labels("u v lo hi", u, v, lo, hi)
    sectors = _yb_complete_columns(u, v, (lo, hi), ctx)
    if not any(sectors.values()):
        raise InsufficientWindow("no complete columns inside the window")
    return max(abs(sum(x * y for x, y in zip(a, b)) - (1.0 if i == j else 0.0))
               for columns in sectors.values()
               for i, a in enumerate(columns) for j, b in enumerate(columns[i:], i))


def yang_baxter_residual(u: int, v: int, w: int, window: Tuple[int, int],
                         ctx: QContext, probe: Optional[list] = None) -> float:
    """Max interior entry difference of the two triple products.

    Compares R12 R13 R23 with R23 R13 R12 on the three-fold space, where
    Rij is the truncated pair operator (``_yb_complete_columns``) on legs i
    and j: R12 at u+w, R13 at v+w and R23 at u+v.  With ``probe`` (a list
    of basis index triples) only those input columns are compared, which is
    much cheaper for sweeps.  The identity fails as stated; the defect is
    O(1) and reported faithfully.

    Only entries whose three leg indices each lie at least _YB_MARGIN inside
    the window count (for the full products, both the row and the column);
    the defect is the largest absolute difference among them.  Each pair
    operator conserves the sum of its two legs, so an entry between triples
    of the same total is one sum over the middle leg m of the intermediate
    triples, with at most one term per m in the window: Python floats, one
    sector kernel per pair, built only for the sectors a sum reaches.  The
    terms are multiplied and added in the order scipy's CSR products use,
    so the defect is the same double as theirs: the full products as
    (K12 K13) K23 over ascending m and (K23 K13) K12 over descending m, the
    probes (matrix-vector products) as K12 (K13 K23) over descending m and
    K23 (K13 K12) over ascending m.

    The operator is float64 whatever ctx.working_precision is: the kernel
    values are rounded to doubles, so a higher working precision only makes
    the J evaluations dearer.
    """
    lo, hi = window
    u, v, w, lo, hi = integer_labels("u v w lo hi", u, v, w, lo, hi)
    if hi - lo + 1 < 2 * _YB_MARGIN + 3:
        raise InsufficientWindow("window too small for the interior margin")
    interior = {}
    for row in itertools.product(range(lo + _YB_MARGIN, hi - _YB_MARGIN + 1), repeat=3):
        interior.setdefault(sum(row), []).append(row)
    full = probe is None
    if full:
        columns = [col for rows in interior.values() for col in rows]
    else:
        columns = []
        for t0, t1, t2 in probe:
            columns.append(integer_labels("t0 t1 t2", t0, t1, t2))
            if not all(lo <= t <= hi for t in columns[-1]):
                raise InsufficientWindow(f"probe point {(t0, t1, t2)} outside the window")

    kernels = _YBKernels((lo, hi), ctx)
    defect = 0.0
    for c0, c1, c2 in columns:
        total = c0 + c1 + c2
        mid = v + w - total  # the sector of R13's input is total - m
        k23, k12 = kernels[u + v - c1 - c2], kernels[u + w - c0 - c1]
        # probes: (m, K13 K23) per row leg r2, (m, K13 K12) per row leg r0, in sum order
        lefts, rights = {}, {}
        for r0, r1, r2 in interior.get(total, ()):
            a12, a23 = kernels[u + w - r0 - r1], kernels[u + v - r1 - r2]
            # R12 R13 R23: c -> (c0, m, c1+c2-m) -> (r0+r1-m, m, r2) -> r
            ms = range(max(lo, c1 + c2 - hi, r0 + r1 - hi), min(hi, c1 + c2 - lo, r0 + r1 - lo) + 1)
            left = 0.0
            if full:
                for m in ms:
                    left += a12[r1 - m] * kernels[mid + m][r2 - c1 - c2 + m] * k23[c1 - m]
            else:
                for m, p in lefts.get(r2) or lefts.setdefault(r2, [
                        (m, kernels[mid + m][r2 - c1 - c2 + m] * k23[c1 - m]) for m in reversed(ms)]):
                    left += a12[r1 - m] * p
            # R23 R13 R12: c -> (c0+c1-m, m, c2) -> (r0, m, total-r0-m) -> r
            ms = range(max(lo, c0 + c1 - hi, total - r0 - hi), min(hi, c0 + c1 - lo, total - r0 - lo) + 1)
            right = 0.0
            if full:
                for m in reversed(ms):
                    right += a23[m - r1] * kernels[mid + m][c0 + c1 - r0 - m] * k12[m - c1]
            else:
                for m, p in rights.get(r0) or rights.setdefault(r0, [
                        (m, kernels[mid + m][c0 + c1 - r0 - m] * k12[m - c1]) for m in ms]):
                    right += a23[m - r1] * p
            defect = max(defect, abs(left - right))
    return defect


def qhankel_transform(f: Dict[int, mp.mpf], nu: int, ctx: QContext,
                      out_window: Tuple[int, int]) -> Dict[int, mp.mpf]:
    """Lattice Hankel-type transform (H_nu f)(n) = sum_x f(q^x) J_nu(q^{x+n}) q^x
    at each n of ``out_window``.

    f maps lattice exponents to mpf values; each output is one
    ``bilateral_sum`` on the fixed window spanning the support of f, whose
    products f(q^x) q^x are formed once, exactly.  It is not a
    ``lattice_sum``: f is data, not a table value at labels affine in x.
    """
    lo, hi = out_window
    weighted = {xx: exact_product(mantissa(val), qpower(2 * xx, ctx)) for xx, val in f.items()}
    support = TruncationPolicy(bilateral_window=(min(f, default=0), max(f, default=0)),
                               adaptive=False)

    def output(n):
        def term(xx):
            v = weighted.get(xx)
            return (0, 0) if v is None else exact_product(v, _J(nu, xx + n, ctx))
        return bilateral_sum(term, support, ctx).value

    return {n: output(n) for n in range(lo, hi + 1)}


_QHANKEL_PROBE = (-8, 8)  # the outputs the factorization compares


@at_working_precision
def qhankel_factorization_residual(x: int, n1: int, n2: int, n3: int,
                                   f: Dict[int, mp.mpf], ctx: QContext) -> mp.mpf:
    """Max gap between H_{r123} f and (H_{r312} o H_{r132}) f on _QHANKEL_PROBE.

    States the remarked transform factorization faithfully; it fails along
    with the backcoupling identity it is equivalent to.
    """
    x, n1, n2, n3 = integer_labels("x n1 n2 n3", x, n1, n2, n3)
    r123 = x - n1 + n2 - n3
    r132 = x - n1 + n3 - n2
    r312 = x - n3 + n1 - n2
    lo, hi = _QHANKEL_PROBE
    direct = qhankel_transform(f, r123, ctx, _QHANKEL_PROBE)
    inner = qhankel_transform(f, r132, ctx, (lo - 12, hi + 12))
    composed = qhankel_transform(inner, r312, ctx, _QHANKEL_PROBE)
    return max(abs(direct[n] - composed[n]) for n in range(lo, hi + 1))


@at_working_precision
def cg_contraction_residual(x: int, n: int, m: int, k: int, p1: int, ctx: QContext) -> float:
    """Residual of the recoupling contraction of Clebsch-Gordan products.

    C_{x,n+p1,n} C_{n+p1,m,k} = sum_{p2} R_{p1,r;p2,r} C_{x,k-p2,k} C_{k-p2,m,n}
    with x-r = n-m+k; the zero convention kills terms with p2 > k, so the sum
    runs over all p2 (|p2| <= 40, a fixed window) and the cutoff is checked
    rather than imposed.  R_{p1,r;p2,r} = sixj_closed is the recoupling
    weight at order r and e = p1 - p2.  The sum is a ``bilateral_sum`` of
    its own, not a ``lattice_sum``: the CG factors are floats, not table
    values.
    """
    from .representation import cg_coefficient

    x, n, m, k, p1 = integer_labels("x n m k p1", x, n, m, k, p1)
    r = x - (n - m + k)
    lhs = cg_coefficient(x, n + p1, n, ctx) * cg_coefficient(n + p1, m, k, ctx)

    def term(p2):
        c = cg_coefficient(x, k - p2, k, ctx) * cg_coefficient(k - p2, m, n, ctx)
        if c == 0.0:
            return 0, 0
        return exact_product(weight_pair(r, p1 - p2, ctx), mantissa(mp.mpf(c)))

    window = TruncationPolicy(bilateral_window=(-40, 40), adaptive=False)
    return float(abs(lhs - bilateral_sum(term, window, ctx).value))
