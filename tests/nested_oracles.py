"""The label walks and hand-written term closures that ``SumSpec`` replaced.

Each function below is a multivariate product or nested sum as it was
written before every J/weight sum became a ``coupling.SumSpec``: the label
walks ``R_labels``, ``S_labels`` and ``factor_labels`` returning (order,
label) pairs, the exact products over them, and each nested builder's own
``term(tvec)`` closure summed by ``_nested_vector_sum`` (through ``_point``,
as the engine passes the coordinates as arguments), reading the same
process tables (``_J``, ``weight_pair``, ``qpower``).  They are the oracles
of ``tests/test_sum_specs.py``, which asserts that the library's spec
builders give the same value, estimate, term count and convergence flag,
bit for bit.
"""

from __future__ import annotations

import mpmath as mp

from qcoupling.coupling import _J, _minus_q_power, _nested_vector_sum, weight_pair
from qcoupling.multivariate import MultiBesselParams, ThreeNJParams, drop_first, hat, multi_cg
from qcoupling.qcore import (TruncationPolicy, _exact, at_working_precision, exact_product,
                             qpower, rounded)


def _point(fn):
    # fn on the point as one tuple, as the closures below were written
    return lambda *tvec: fn(tvec)


def factor_labels(nu, x, lam):
    d = len(x)
    lam_full = (nu[0],) + tuple(lam)
    x_full = tuple(x) + (nu[d + 1],)
    out = []
    for j in range(1, d + 1):
        order = nu[j] - x_full[j] - lam_full[j - 1]
        expo = x_full[j - 1] - x_full[j] + lam_full[j] - lam_full[j - 1]
        out.append((order, expo))
    return out


def R_labels(x, n, r, s):
    k = len(r)
    s_prev, out = n[0], []
    for j in range(k):
        r_next = r[j + 1] if j + 1 < k else n[k + 1]
        out.append((x - s_prev + n[j + 1] - r_next, r[j] + s[j] - s_prev - r_next))
        s_prev = s[j]
    return out


def S_labels(x, n, r, s):
    k = len(r)
    r_prev, out = n[1], []
    for j in range(k):
        s_next = s[j + 1] if j + 1 < k else x
        out.append((s_next - n[0] + r_prev - n[j + 2], r[j] + s[j] - n[0] - n[j + 2]))
        r_prev = r[j]
    return out


def weight_product(labels, ctx):
    return exact_product(*[weight_pair(order, e, ctx) for order, e in labels])


def J_product(labels, ctx):
    return exact_product(*[_J(order, y, ctx) for order, y in labels])


def multi_qbessel(p, ctx):
    return rounded(J_product(factor_labels(p.nu, p.x, p.lam), ctx), ctx)


def threenj_R(p, ctx):
    return rounded(weight_product(R_labels(p.x, p.n, p.r, p.s), ctx), ctx)


def threenj_S(p, ctx):
    return rounded(weight_product(S_labels(p.x, p.n, p.r, p.s), ctx), ctx)


@at_working_precision
def threenj_corollary_gap(p, ctx):
    k = p.k
    nu_vec = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    pref = _minus_q_power(p.r[0] + p.s[k - 1] - p.n[0] - p.n[k + 1], ctx)
    jval = J_product(factor_labels(nu_vec, p.r, p.s), ctx.base_squared())
    return abs(threenj_R(p, ctx) - rounded(exact_product(pref, jval), ctx))


@at_working_precision
def multi_orthogonality(nu, lam, lam2, ctx, policy=None):
    policy = policy or TruncationPolicy()
    nu, lam, lamp = tuple(nu), tuple(lam), tuple(lam2)
    d = len(lam)
    lam_full = (nu[0],) + lam
    lamp_full = (nu[0],) + lamp

    def level(j):
        table = {}
        inner = level(j - 1) if j > 1 else None
        order, order_p = nu[j] - lam_full[j - 1], nu[j] - lamp_full[j - 1]
        shift, shift_p = lam_full[j] - lam_full[j - 1], lamp_full[j] - lamp_full[j - 1]

        def at(tv):
            hit = table.get(tv)
            if hit is None:
                xj1 = tv[0]

                def term(xv):
                    xj = xv[0]
                    am, ae = _J(order - xj1, xj - xj1 + shift, ctx)
                    bm, be = _J(order_p - xj1, xj - xj1 + shift_p, ctx)
                    if inner is not None:
                        return am * bm, ae + be
                    qm, qe = qpower(2 * xj, ctx)
                    return am * bm * qm, ae + be + qe

                hit = table[tv] = _nested_vector_sum(_point(term), 1, policy, ctx,
                                                     inner and _point(inner))
            return hit

        return at

    total = level(d)((nu[d + 1],))
    exponent = nu[d + 1] + nu[0] - lam[d - 1]
    target = _exact(*qpower(2 * exponent, ctx)) if lam == lamp else mp.mpf(0)
    return total.residual(target)


@at_working_precision
def s_lemma(x, n, s, s2, ctx, policy):
    def term(rvec):
        return weight_product(S_labels(x, n, rvec, s) + S_labels(x, n, rvec, s2), ctx)

    return _nested_vector_sum(_point(term), len(s), policy, ctx).residual(1 if s == s2 else 0)


@at_working_precision
def multi_be(p, ctx, policy=None):
    policy = policy or TruncationPolicy()
    nprime, rprime = drop_first(p.n), drop_first(p.r)

    def term(tvec):
        return weight_product(S_labels(p.x, p.n, tvec + (p.r[0],), p.s)
                              + R_labels(p.r[0], nprime, rprime, tvec), ctx)

    return _nested_vector_sum(_point(term), p.k - 1, policy, ctx).residual(threenj_R(p, ctx))


@at_working_precision
def multi_be_stated_form(p, ctx, policy=None):
    policy = policy or TruncationPolicy()
    k = p.k
    nu_out = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    nu_in = (p.n[1],) + tuple(p.r[0] + p.n[j] for j in range(2, k + 1)) + (p.n[k + 1],)
    lhs = multi_qbessel(MultiBesselParams(nu_out, p.r, p.s), ctx)
    rprime = drop_first(p.r)
    s_ext = p.s + (p.x,)

    def term(tvec):
        t_full = (p.n[1],) + tvec + (p.r[0],)
        expo = sum(tvec) + sum(p.s) - sum(p.n) - (k - 2) * p.n[0] - p.s[k - 1] + p.r[1]
        labels = [(s_ext[j] - p.n[0] + t_full[j - 1] + p.n[j + 1],
                   s_ext[j - 1] + t_full[j] - p.n[0] - p.n[j + 1]) for j in range(1, k + 1)]
        m, e = J_product(labels + factor_labels(nu_in, rprime, tvec), ctx)
        am, ae = qpower(expo, ctx)
        return (-m if expo & 1 else m) * am, e + ae

    return _nested_vector_sum(_point(term), k - 1, policy, ctx).residual(lhs)


@at_working_precision
def s_composition(x, n, r, s, ctx, policy=None):
    policy = policy or TruncationPolicy()
    n, r, s = tuple(n), tuple(r), tuple(s)
    k = len(r)

    def rotation(j):
        return tuple(n[(k + 2 - j + i) % (k + 2)] for i in range(k + 2))

    lhs = threenj_S(ThreeNJParams(x, n, s, r), ctx)

    def level(l, prev):
        rot, last = rotation(l), rotation(k + 1)

        def term(tvec):
            labels = S_labels(x, rot, prev, tvec)
            if l == k:
                labels += S_labels(x, last, tvec, s)
            return weight_product(labels, ctx)

        return _nested_vector_sum(_point(term), k, policy, ctx,
                                  None if l == k else _point(lambda tvec: level(l + 1, tvec)))

    return level(1, r).residual(lhs)


@at_working_precision
def cg_expansion(x, r, n, ctx, policy=None):
    policy = policy or TruncationPolicy()
    r, n = tuple(r), tuple(n)
    k = len(r)
    lhs = mp.mpf(multi_cg(x, r, n, ctx))

    def term(svec):
        c = multi_cg(x, hat(svec), hat(n), ctx)
        if c == 0.0:
            return 0, 0
        m, e = weight_product(R_labels(x, n, r, svec), ctx)
        num, den = c.as_integer_ratio()
        return m * num, e + 1 - den.bit_length()

    return _nested_vector_sum(_point(term), k, policy, ctx).residual(lhs)
