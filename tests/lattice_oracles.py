"""The hand-written term closures that ``coupling.lattice_sum`` replaced.

Each function below is a one-variable identity sum as it was written before
the factor-list form: its own term closure, sign code and
``qcore.bilateral_sum`` call, reading the same process tables (``_J``,
``weight_pair``, ``qpower``).  They are the oracles of
``tests/test_lattice_sum.py``, which asserts that the library's
``lattice_sum`` builders give the same value, estimate, term count and
convergence flag, bit for bit.
"""

from __future__ import annotations

import mpmath as mp

from qcoupling.coupling import _J, _minus_q_power, recoupling_R, weight_pair
from qcoupling.qcore import (SeriesResult, TruncationPolicy, at_working_precision,
                             bilateral_sum, exact_product, mantissa, qpower, rounded)
from qcoupling.qfunctions import qbessel_lattice


def _R_pair(x, n1, n2, n3, p1p, p2p, ctx):
    return weight_pair(x - n1 + n2 - n3, p1p + p2p - n1 - n3, ctx)


def hankel(nu, m, n, ctx, policy):
    def term(x):
        return exact_product(_J(nu, x + m, ctx), _J(nu, x + n, ctx), qpower(2 * x, ctx))

    s = bilateral_sum(term, policy, ctx)
    target = ctx.q ** (-n) if m == n else mp.mpf(0)
    return s.residual(target)


def sixj_orthogonality(r, p2, p3, ctx, policy):
    s = bilateral_sum(lambda p1: exact_product(
        weight_pair(r, p1 - p2, ctx), weight_pair(r, p1 - p3, ctx)), policy, ctx)
    return s.residual(1 if p2 == p3 else 0)


@at_working_precision
def backcoupling(x, n1, n2, n3, p1, p2, ctx, policy=None):
    policy = policy or TruncationPolicy()
    r123 = x - n1 + n2 - n3
    r132 = x - n1 + n3 - n2
    r312 = x - n3 + n1 - n2
    lhs = qbessel_lattice(r123, p1 + p2, ctx)

    def term(p):
        return exact_product(_J(r132, p + p1, ctx), _J(r312, p + p2, ctx), qpower(2 * p, ctx))

    return bilateral_sum(term, policy, ctx).residual(lhs)


@at_working_precision
def backcoupling_forms_gap(x, n1, n2, n3, p1p, p2p, ctx, policy=None):
    policy = policy or TruncationPolicy()
    lhsR = recoupling_R(x, n1, n2, n3, p1p, p2p, ctx)

    def termR(p):
        return exact_product(_R_pair(x, n1, n3, n2, p1p, p, ctx),
                             _R_pair(x, n3, n1, n2, p, p2p, ctx))

    res_R = abs(lhsR - bilateral_sum(termR, policy, ctx).value)
    e = p1p + p2p - n1 - n3
    res_J = backcoupling(x, n1, n2, n3, p1p - n1, p2p - n3, ctx.base_squared(), policy).value
    return abs(res_R - rounded(exact_product(qpower(2 * e, ctx), mantissa(res_J)), ctx))


@at_working_precision
def biedenharn_elliott(P, Q, R, nu, mu1, mu2, ctx, policy=None):
    policy = policy or TruncationPolicy()
    lhs = rounded(exact_product(_J(nu + mu1, P - Q, ctx), _J(nu + mu2, Q - R, ctx)), ctx)
    odd = (mu1 + mu2) & 1

    def term(mu):
        m, e = exact_product(qpower(2 * mu - mu1 - mu2, ctx),
                             _J(mu2 - mu1 + P - Q, mu - mu1, ctx),
                             _J(mu1 - mu2 + Q - R, mu - mu2, ctx),
                             _J(nu + mu, P - R, ctx))
        return (-m if odd else m), e

    return bilateral_sum(term, policy, ctx).residual(lhs)


def _hexagon_weight_terms(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx):
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
def hexagon(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx, policy=None):
    policy = policy or TruncationPolicy()
    lhs_term, rhs_term = _hexagon_weight_terms(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx)
    lhs = bilateral_sum(lhs_term, policy, ctx)
    rhs = bilateral_sum(rhs_term, policy, ctx)
    return SeriesResult(abs(lhs.value - rhs.value), lhs.est_error + rhs.est_error,
                        lhs.terms_used + rhs.terms_used, lhs.converged and rhs.converged)


@at_working_precision
def hexagon_j_form(x, n1, n2, n3, n4, p1, p2, p3, p4, ctx, policy=None):
    policy = policy or TruncationPolicy()
    ctx2 = ctx.base_squared()

    def j_side(m1, m2, m3, m4, q1, q2, q3, q4):
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
