"""Closed-form recoupling coefficients and the summation-identity verifiers.

The recoupling (6j) coefficient of three coupled factors is a third Jackson
q-Bessel value in base q^2.  This module provides the closed forms, the
bilateral-sum residuals for the backcoupling, Biedenharn-Elliott and hexagon
identities, the lattice Hankel-type transform with q-Bessel kernel, and the
truncated Yang-Baxter operator built from the recoupling weights.  Every
bilateral sum here is one ``qcore.bilateral_sum`` over exact (m, e) terms,
built from the process tables of J values, recoupling weights
(``weight_pair``) and powers of q (``qcore.qpower``); a product that is not
a sum is the exact product of such pairs, rounded once by ``qcore.rounded``.

Verification status at the shipped tolerances: Biedenharn-Elliott holds;
orthogonality, translation invariance and duality of the closed form hold;
the backcoupling and hexagon identities and the Yang-Baxter triple product
do NOT hold as stated (the residual functions compute them faithfully and
report O(1) values).  verify_backcoupling's docstring shows why the
backcoupling cannot close; the README's verification status has the rest.

Only the truncated Yang-Baxter operator is a matrix: ``_yb_operator``,
``_yb_lift``, ``yang_baxter_residual`` and ``yang_baxter_unitarity_defect``
need numpy and scipy.sparse, and each imports them when called.  Importing
this module loads neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, to_float

from .errors import InsufficientWindow
from .qcore import (at_working_precision, cached, QContext, SeriesResult, TruncationPolicy,
                    bilateral_sum, exact_product, integer_label, mantissa, qpower, rounded)
from .qfunctions import qbessel_lattice

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "sixj_closed",
    "recoupling_R",
    "weight_pair",
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
    return rounded(_R_pair(x, n1, n2, n3, p1p, p2p, ctx), ctx)


def _minus_q_power(e: int, ctx: QContext) -> Tuple[int, int]:
    """(-q)^e as an exact pair, from ``qcore.qpower``."""
    m, k = qpower(2 * e, ctx)
    return (-m if e & 1 else m), k


_WEIGHTS: dict = {}


def weight_pair(order: int, e: int, ctx: QContext) -> Tuple[int, int]:
    """(-q)^e J_order(q^{2e}; q^2) as an exact pair (m, k) for m 2^k.

    The exact product of (-q)^e and the J pair in base q^2, formed once per
    key in ``_WEIGHTS``.  Key and label rules are ``qbessel_lattice``'s: a
    float label such as 2.0 finds a warm entry of 2, but raises DomainError cold.
    """
    hit = _WEIGHTS.get((order, e, ctx.q_key, ctx.working_precision))
    if hit is None:
        order, e = integer_label(order, "order"), integer_label(e, "e")
        hit = _WEIGHTS[order, e, ctx.q_key, ctx.working_precision] = exact_product(
            _minus_q_power(e, ctx), _J(order, e, ctx.base_squared()))
    return hit


def _R_pair(x: int, n1: int, n2: int, n3: int, p1p: int, p2p: int,
            ctx: QContext) -> Tuple[int, int]:
    """``recoupling_R`` as an exact pair (``weight_pair``)."""
    return weight_pair(x - n1 + n2 - n3, p1p + p2p - n1 - n3, ctx)


def _J(order: int, y: int, ctx: QContext) -> Tuple[int, int]:
    """The lattice value J_order(q^y) as an exact pair."""
    return mantissa(qbessel_lattice(order, y, ctx))


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
    policy = policy or TruncationPolicy()
    r123 = x - n1 + n2 - n3
    r132 = x - n1 + n3 - n2
    r312 = x - n3 + n1 - n2
    lhs = qbessel_lattice(r123, p1 + p2, ctx)

    def term(p):
        return exact_product(_J(r132, p + p1, ctx), _J(r312, p + p2, ctx), qpower(2 * p, ctx))

    rhs = bilateral_sum(term, policy, ctx)
    return rhs.residual(lhs)


@at_working_precision
def backcoupling_forms_gap(x: int, n1: int, n2: int, n3: int, p1p: int, p2p: int,
                           ctx: QContext, policy: Optional[TruncationPolicy] = None) -> mp.mpf:
    """Gap between the recoupling-weight form and the q-Bessel form.

    The two printed forms of the backcoupling identity are translations of
    each other; this returns |R-form residual - |(-q)^e| * J-form residual|,
    which is ~0 even though both residuals are large.
    """
    policy = policy or TruncationPolicy()
    lhsR = recoupling_R(x, n1, n2, n3, p1p, p2p, ctx)

    def termR(p):
        return exact_product(_R_pair(x, n1, n3, n2, p1p, p, ctx),
                             _R_pair(x, n3, n1, n2, p, p2p, ctx))

    rhsR = bilateral_sum(termR, policy, ctx)
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
    policy = policy or TruncationPolicy()
    lhs = rounded(exact_product(_J(nu + mu1, P - Q, ctx), _J(nu + mu2, Q - R, ctx)), ctx)
    odd = (mu1 + mu2) & 1

    def term(mu):
        # q^{mu-(mu1+mu2)/2} is the table's power of q^{1/2} at 2 mu - mu1 - mu2
        m, e = exact_product(qpower(2 * mu - mu1 - mu2, ctx),
                             _J(mu2 - mu1 + P - Q, mu - mu1, ctx),
                             _J(mu1 - mu2 + Q - R, mu - mu2, ctx),
                             _J(nu + mu, P - R, ctx))
        return (-m if odd else m), e

    rhs = bilateral_sum(term, policy, ctx)
    return rhs.residual(lhs)


def _hexagon_weight_terms(x: int, n1: int, n2: int, n3: int, n4: int,
                          p1: int, p2: int, p3: int, p4: int, ctx: QContext):
    """Exact summands over the internal label of the hexagon's two sides,
    weight form."""
    def lhs_term(r):
        return exact_product(_R_pair(x, p1, n3, n4, p2, r, ctx),
                             _R_pair(r, n2, n1, n3, p3, p1, ctx),
                             _R_pair(x, p3, n2, n4, p4, r, ctx))

    def rhs_term(r):
        return exact_product(_R_pair(x, n1, n2, p2, r, p1, ctx),
                             _R_pair(r, n2, n4, n3, p2, p4, ctx),
                             _R_pair(x, n1, n3, p4, r, p3, ctx))

    return lhs_term, rhs_term


@at_working_precision
def verify_hexagon(x: int, n1: int, n2: int, n3: int, n4: int,
                   p1: int, p2: int, p3: int, p4: int, ctx: QContext,
                   policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the stated hexagon identity (recoupling-weight form).

    Both bilateral sums over the internal label run under the same policy.
    Like the backcoupling, the identity fails as stated except at symmetric
    fixed points; the residual is faithful.
    """
    policy = policy or TruncationPolicy()
    lhs_term, rhs_term = _hexagon_weight_terms(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx)
    lhs = bilateral_sum(lhs_term, policy, ctx)
    rhs = bilateral_sum(rhs_term, policy, ctx)
    est = lhs.est_error + rhs.est_error
    return SeriesResult(abs(lhs.value - rhs.value), est,
                        lhs.terms_used + rhs.terms_used, lhs.converged and rhs.converged)


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
    (n1,n2,p1,p3) <-> (n4,n3,p2,p4).
    """
    policy = policy or TruncationPolicy()
    ctx2 = ctx.base_squared()

    def j_side(m1, m2, m3, m4, q1, q2, q3, q4):
        # stated form with q -> q^2 so both sides live in the same base
        odd = (q2 + q4) & 1

        def term(r):
            m, e = exact_product(qpower(2 * (2 * r - 2 * m4 + q2 + q4), ctx),
                                 _J(r - m2 + m1 - m3, q1 + q3 - m2 - m3, ctx2),
                                 _J(x - q1 + m3 - m4, r + q2 - q1 - m4, ctx2),
                                 _J(x - q3 + m2 - m4, r + q4 - q3 - m4, ctx2))
            return (-m if odd else m), e
        return bilateral_sum(term, policy, ctx).value

    def restore(term):
        value = bilateral_sum(term, policy, ctx).value
        return rounded(exact_product(_minus_q_power(n2 + n3, ctx), mantissa(value)), ctx)

    lhs_term, rhs_term = _hexagon_weight_terms(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx)
    gap_lhs = abs(j_side(n1, n2, n3, n4, p1, p2, p3, p4) - restore(lhs_term))
    gap_rhs = abs(j_side(n4, n3, n2, n1, p2, p1, p4, p3) - restore(rhs_term))
    return gap_lhs, gap_rhs


_YB_KERNELS: Dict[tuple, Dict[int, float]] = {}
_YB_OPS: Dict[tuple, sparse.csr_matrix] = {}
_YB_LIFTS: Dict[tuple, sparse.csr_matrix] = {}


def _yb_sector_kernel(nu: int, offsets, ctx: QContext) -> Dict[int, float]:
    """Toeplitz kernel K(d) = (-q)^d J_nu(q^{2d}; q^2), ``weight_pair`` rounded
    once to a float, over the given offsets."""
    def build():
        return {d: to_float(from_man_exp(*weight_pair(nu, d, ctx), 53, round_nearest))
                for d in offsets}

    return cached(_YB_KERNELS, ctx, (nu, min(offsets), max(offsets)), build)


def _yb_operator(u: int, v: int, window: Tuple[int, int], ctx: QContext) -> sparse.csr_matrix:
    """Truncated pair-space operator built from the recoupling weights.

    Acting on e_{t1} x e_{t2} it conserves the sector s = t1+t2 and maps it
    to sum_y K_{u+v-s}(y-t2) e_{s-y} x e_y; the decomposition gauge is fixed
    so that the coefficient depends only on (t1, t2, y).  Depends on u, v
    only through u+v, which the cache exploits.
    """
    from scipy import sparse

    def build():
        lo, hi = window
        pts = list(range(lo, hi + 1))
        npts = len(pts)
        idx = {t: i for i, t in enumerate(pts)}
        rows, cols, vals = [], [], []
        offs = range(lo - hi, hi - lo + 1)
        for t1 in pts:
            for t2 in pts:
                s = t1 + t2
                ker = _yb_sector_kernel(u + v - s, offs, ctx)
                col = idx[t1] * npts + idx[t2]
                for y in pts:
                    k = s - y
                    if lo <= k <= hi:
                        c = ker[y - t2]
                        if c != 0.0:
                            rows.append(idx[k] * npts + idx[y])
                            cols.append(col)
                            vals.append(c)
        n = npts * npts
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    return cached(_YB_OPS, ctx, (u + v, window), build)


_YB_NORM_TOL = 1e-9  # a column this close to unit norm lost no kernel mass to the window
_YB_MARGIN = 3  # leg indices this far inside the window are interior


def yang_baxter_unitarity_defect(u: int, v: int, window: Tuple[int, int],
                                 ctx: QContext) -> float:
    """Max Gram defect of the truncated operator over its complete columns.

    A column is complete when its truncated norm is within _YB_NORM_TOL of 1,
    i.e. the window cut did not swallow kernel mass for that input; those
    are the interior coordinates of the truncation.
    """
    import numpy as np

    R = _yb_operator(u, v, window, ctx)
    norms = np.sqrt(np.asarray(R.multiply(R).sum(axis=0)).ravel())
    complete = np.where(np.abs(norms - 1.0) <= _YB_NORM_TOL)[0]
    if len(complete) == 0:
        raise InsufficientWindow("no complete columns inside the window")
    sub = R[:, complete]
    G = (sub.T @ sub).toarray() - np.eye(len(complete))
    return float(np.abs(G).max())


def _yb_lift(u: int, v: int, window: Tuple[int, int], legs: Tuple[int, int],
             ctx: QContext) -> sparse.csr_matrix:
    """``_yb_operator(u, v, window)`` lifted onto the given legs of the
    three-fold space, built once per (u+v, window, legs) and context."""
    import numpy as np
    from scipy import sparse

    def build():
        R = _yb_operator(u, v, window, ctx)
        n = window[1] - window[0] + 1
        I = sparse.identity(n, format="csr")
        if legs == (0, 1):
            return sparse.kron(R, I, format="csr")
        if legs == (1, 2):
            return sparse.kron(I, R, format="csr")
        # legs (0, 2): conjugate by the swap of the last two legs, which sends
        # column (a * n + b) * n + c to row (a * n + c) * n + b
        perm_rows = np.arange(n ** 3).reshape(n, n, n).transpose(0, 2, 1).ravel()
        P = sparse.csr_matrix((np.ones(n ** 3), (perm_rows, np.arange(n ** 3))),
                              shape=(n ** 3, n ** 3))
        return P.T @ sparse.kron(R, I, format="csr") @ P

    return cached(_YB_LIFTS, ctx, (u + v, window, legs), build)


def yang_baxter_residual(u: int, v: int, w: int, window: Tuple[int, int],
                         ctx: QContext, probe: Optional[list] = None) -> float:
    """Max interior entry difference of the two triple products.

    Builds the truncated operator on each pair of legs of the three-fold
    space and compares R12 R13 R23 with R23 R13 R12.  With ``probe`` (a list
    of basis index triples) only those input columns are compared, which is
    much cheaper for sweeps.  The identity fails as stated; the defect is
    O(1) and reported faithfully.

    Only entries whose three leg indices each lie at least _YB_MARGIN inside
    the window count (for the full products, both the row and the column).
    That interior is one boolean mask over the flattened n^3 index, and the
    defect is the largest absolute difference it selects (0.0 if none).
    The full products restrict their left factor to the interior rows
    before multiplying.  scipy's CSR product forms each output row on its
    own, from that row's nonzeros in stored order, so those rows are
    bit-identical to the rows of the whole product.  The three lifted
    operators are cached per (u+v, window, legs) and context (``_yb_lift``).

    The operator is float64 whatever ctx.working_precision is: the kernel
    values are rounded to doubles when the sparse matrices are built, so a
    higher working precision only makes the J evaluations dearer.
    """
    import numpy as np

    lo, hi = window
    npts = hi - lo + 1
    if npts < 2 * _YB_MARGIN + 3:
        raise InsufficientWindow("window too small for the interior margin")
    L12 = _yb_lift(u, w, window, (0, 1), ctx)
    L13 = _yb_lift(v, w, window, (0, 2), ctx)
    L23 = _yb_lift(u, v, window, (1, 2), ctx)

    inside = (np.arange(npts) >= _YB_MARGIN) & (np.arange(npts) < npts - _YB_MARGIN)
    interior = (inside[:, None, None] & inside[None, :, None] & inside[None, None, :]).ravel()

    if probe is not None:
        defect = 0.0
        for tpl in probe:
            pos = [t - lo for t in tpl]
            if not all(0 <= p < npts for p in pos):
                raise InsufficientWindow(f"probe point {tpl} outside the window")
            e = np.zeros(npts ** 3)
            e[(pos[0] * npts + pos[1]) * npts + pos[2]] = 1.0
            left = L12 @ (L13 @ (L23 @ e))
            right = L23 @ (L13 @ (L12 @ e))
            defect = max(defect, np.abs(left - right)[interior].max())
        return float(defect)

    rows = np.flatnonzero(interior)
    D = (L12[rows] @ L13 @ L23 - L23[rows] @ L13 @ L12).tocoo()
    return float(np.abs(D.data[interior[D.col]]).max(initial=0.0))


def qhankel_transform(f: Dict[int, mp.mpf], nu: int, ctx: QContext,
                      policy: Optional[TruncationPolicy] = None,
                      out_window: Optional[Tuple[int, int]] = None) -> Dict[int, mp.mpf]:
    """Lattice Hankel-type transform (H_nu f)(n) = sum_x f(q^x) J_nu(q^{x+n}) q^x.

    f maps lattice exponents to mpf values; each output is one
    ``bilateral_sum`` on the fixed window spanning the support of f, whose
    products f(q^x) q^x are formed once, exactly.
    """
    policy = policy or TruncationPolicy()
    if out_window is None:
        out_window = policy.bilateral_window
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


@at_working_precision
def qhankel_factorization_residual(x: int, n1: int, n2: int, n3: int,
                                   f: Dict[int, mp.mpf], ctx: QContext,
                                   policy: Optional[TruncationPolicy] = None,
                                   probe: Tuple[int, int] = (-8, 8)) -> mp.mpf:
    """Max gap between H_{r123} f and (H_{r312} o H_{r132}) f on the probe window.

    States the remarked transform factorization faithfully; it fails along
    with the backcoupling identity it is equivalent to.
    """
    policy = policy or TruncationPolicy()
    r123 = x - n1 + n2 - n3
    r132 = x - n1 + n3 - n2
    r312 = x - n3 + n1 - n2
    lo, hi = probe
    direct = qhankel_transform(f, r123, ctx, policy, probe)
    inner_window = (lo - 12, hi + 12)
    inner = qhankel_transform(f, r132, ctx, policy, inner_window)
    composed = qhankel_transform(inner, r312, ctx, policy, probe)
    return max(abs(direct[n] - composed[n]) for n in range(lo, hi + 1))


@at_working_precision
def cg_contraction_residual(x: int, n: int, m: int, k: int, p1: int, ctx: QContext) -> float:
    """Residual of the recoupling contraction of Clebsch-Gordan products.

    C_{x,n+p1,n} C_{n+p1,m,k} = sum_{p2} R_{p1,r;p2,r} C_{x,k-p2,k} C_{k-p2,m,n}
    with x-r = n-m+k; the zero convention kills terms with p2 > k, so the sum
    runs over all p2 (|p2| <= 40, a fixed window) and the cutoff is checked
    rather than imposed.  R_{p1,r;p2,r} = sixj_closed is the recoupling
    weight at order r and e = p1 - p2.
    """
    from .representation import cg_coefficient

    r = x - (n - m + k)
    lhs = cg_coefficient(x, n + p1, n, ctx) * cg_coefficient(n + p1, m, k, ctx)

    def term(p2):
        c = cg_coefficient(x, k - p2, k, ctx) * cg_coefficient(k - p2, m, n, ctx)
        if c == 0.0:
            return 0, 0
        return exact_product(weight_pair(r, p1 - p2, ctx), mantissa(mp.mpf(c)))

    window = TruncationPolicy(bilateral_window=(-40, 40), adaptive=False)
    return float(abs(lhs - bilateral_sum(term, window, ctx).value))
