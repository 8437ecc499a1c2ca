"""The one fixed-point summation engine against the mpf sums it replaced.

``_old_bilateral_sum`` (the mpf ``qcore.bilateral_sum``),
``_old_nested_vector_sum``, ``_old_orthogonality``, ``_old_S_composition``,
``_old_chain_residuals`` and ``_old_one_variable`` are kept here, and only
here, as oracles: the mpf engine itself, the coordinate recursion the chain
identities used, the memoized ``inner()`` level recursion of the
multivariate orthogonality, and the mpf terms of the chain evaluators and
of the one-variable identities.  Each oracle also returns its scale, the
largest term magnitude of its top level.  The engine sums on integers, so
its values must agree with the oracles' to 10^-wp times that scale, not bit
for bit.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

from qcoupling import (QContext, ThreeNJParams, TruncationPolicy, cg_expansion_residual,
                       multi_be_stated_form_residual, multi_orthogonality_residual,
                       verify_S_composition, verify_multivariate_BE)
from qcoupling import coupling, multivariate, verifier
from qcoupling.errors import NonConvergent
from qcoupling.multivariate import (MultiBesselParams, drop_first, hat, multi_cg,
                                    multi_qbessel, threenj_R, threenj_S)
from qcoupling.qcore import (SeriesResult, at_working_precision, bilateral_sum, mantissa,
                             tail_estimate, tail_threshold)
from qcoupling.qfunctions import qbessel_lattice

CTXS = {"0.3": QContext("0.3"), "0.5": QContext("0.5"), "0.7": QContext("0.7")}
WINDOWS = [(-3, 3), (-4, 2)]


def _old_bilateral_sum(term, policy=None):
    """The mpf bilateral sum the integer engine replaced: the same window and
    stop rule with mpf comparisons, the terms added one by one at the
    current precision, and the estimate from ``mp.fsum`` of the boundary."""
    policy = policy or TruncationPolicy()
    lo, hi = policy.bilateral_window
    bnd = tail_threshold(policy)
    vals = {p: term(p) for p in range(lo, hi + 1)}

    def side_ok(ps):
        return all(abs(vals[p]) < bnd for p in ps)

    if policy.adaptive:
        while not side_ok(range(lo, min(lo + 3, hi + 1))):
            lo -= 1
            vals[lo] = term(lo)
            if len(vals) > policy.max_terms:
                raise NonConvergent("bilateral_sum: left tail did not settle")
        while not side_ok(range(max(hi - 2, lo), hi + 1)):
            hi += 1
            vals[hi] = term(hi)
            if len(vals) > policy.max_terms:
                raise NonConvergent("bilateral_sum: right tail did not settle")
    edge = list(range(lo, min(lo + 3, hi + 1))) + list(range(max(hi - 2, lo), hi + 1))
    total = mp.mpf(0)
    for p in range(lo, hi + 1):
        total += vals[p]
    est, converged = tail_estimate(mp.fsum(abs(vals[p]) for p in edge), policy)
    return SeriesResult(total, est, len(vals), converged)


def _tracked(term, top):
    # term, recording its largest magnitude in top[0]
    def run(t):
        v = term(t)
        top[0] = max(top[0], abs(v))
        return v
    return run


def _old_nested_vector_sum(term, dim, policy):
    """(value, scale) of the coordinate recursion over Z^dim."""
    top = [mp.mpf(0)]
    if dim == 1:
        return _old_bilateral_sum(_tracked(lambda t: term((t,)), top), policy).value, top[0]

    def outer(t_last):
        return _old_nested_vector_sum(lambda rest: term(rest + (t_last,)), dim - 1, policy)[0]

    return _old_bilateral_sum(_tracked(outer, top), policy).value, top[0]


@at_working_precision
def _old_orthogonality(nu, lam, lamp, ctx, policy):
    q = ctx.q
    d = len(lam)
    lam_full = (nu[0],) + lam
    lamp_full = (nu[0],) + lamp
    memo = {}
    top = [mp.mpf(0)]

    def factor(j, xj, xj1, lam_full_vec):
        order = nu[j] - xj1 - lam_full_vec[j - 1]
        expo = xj - xj1 + lam_full_vec[j] - lam_full_vec[j - 1]
        return qbessel_lattice(order, expo, ctx)

    def inner(j, xj1):
        key = (j, xj1)
        if key not in memo:
            if j == 1:
                def term(x1):
                    return factor(1, x1, xj1, lam_full) * factor(1, x1, xj1, lamp_full) * q ** x1
            else:
                def term(xj):
                    return factor(j, xj, xj1, lam_full) * factor(j, xj, xj1, lamp_full) \
                        * inner(j - 1, xj)
            memo[key] = _old_bilateral_sum(_tracked(term, top) if j == d else term, policy).value
        return memo[key]

    target = q ** (nu[d + 1] + nu[0] - lam[d - 1]) if lam == lamp else mp.mpf(0)
    return abs(inner(d, nu[d + 1]) - target), top[0]


@at_working_precision
def _old_S_composition(x, n, r, s, ctx, policy):
    k = len(r)

    def rotation(j):
        return tuple(n[(k + 2 - j + i) % (k + 2)] for i in range(k + 2))

    def chain(level, prev):
        if level == k + 1:
            return threenj_S(ThreeNJParams(x, rotation(level), prev, s), ctx), None

        def term(tvec):
            val = threenj_S(ThreeNJParams(x, rotation(level), prev, tvec), ctx)
            if val == 0:
                return mp.mpf(0)
            return val * chain(level + 1, tvec)[0]

        return _old_nested_vector_sum(term, k, policy)

    rhs, scale = chain(1, r)
    return abs(threenj_S(ThreeNJParams(x, n, s, r), ctx) - rhs), scale


@at_working_precision
def _old_chain_residuals(kind, x, n, r, s, ctx, policy):
    """[(residual, scale)] of the mpf chain evaluators; s-lemma reads (s, s2) = (r, s)."""
    if kind == "cg-expansion":
        def term(svec):
            c = multi_cg(x, hat(svec), hat(n), ctx)
            if c == 0.0:
                return mp.mpf(0)
            return threenj_R(ThreeNJParams(x, n, r, svec), ctx) * c

        rhs, scale = _old_nested_vector_sum(term, len(r), policy)
        return [(abs(mp.mpf(multi_cg(x, r, n, ctx)) - rhs), scale)]
    if kind == "s-lemma":
        def term(rvec):
            return threenj_S(ThreeNJParams(x, n, rvec, r), ctx) \
                * threenj_S(ThreeNJParams(x, n, rvec, s), ctx)

        total, scale = _old_nested_vector_sum(term, len(r), policy)
        return [(abs(total - (1 if r == s else 0)), scale)]
    p = ThreeNJParams(x, n, r, s)
    k, q = p.k, ctx.q
    nprime, rprime = drop_first(p.n), drop_first(p.r)

    def s_term(tvec):
        return threenj_S(ThreeNJParams(x, n, tvec + (r[0],), s), ctx) \
            * threenj_R(ThreeNJParams(r[0], nprime, rprime, tvec), ctx)

    nu_out = (n[0],) + tuple(x + n[j] for j in range(1, k + 1)) + (n[k + 1],)
    nu_in = (n[1],) + tuple(r[0] + n[j] for j in range(2, k + 1)) + (n[k + 1],)
    s_ext = s + (x,)

    def a_term(tvec):
        t_full = (n[1],) + tvec + (r[0],)
        expo = sum(tvec) + sum(s) - sum(n) - (k - 2) * n[0] - s[k - 1] + r[1]
        a = (-mp.sqrt(q)) ** expo
        for j in range(1, k + 1):
            a *= qbessel_lattice(s_ext[j] - n[0] + t_full[j - 1] + n[j + 1],
                                 s_ext[j - 1] + t_full[j] - n[0] - n[j + 1], ctx)
        return a * multi_qbessel(MultiBesselParams(nu_in, rprime, tvec), ctx)

    s_rhs, s_scale = _old_nested_vector_sum(s_term, k - 1, policy)
    a_rhs, a_scale = _old_nested_vector_sum(a_term, k - 1, policy)
    return [(abs(threenj_R(p, ctx) - s_rhs), s_scale),
            (abs(multi_qbessel(MultiBesselParams(nu_out, r, s), ctx) - a_rhs), a_scale)]


def _assert_close(new, old, scale, ctx):
    # the engine keeps the working precision relative to each level's largest term
    assert abs(new - old) <= mp.mpf(10) ** -ctx.working_precision * scale


def _vec(size, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(tuple)


@st.composite
def _orthogonality_case(draw):
    d = draw(st.integers(1, 3))
    return draw(_vec(d + 2, -2, 2)), draw(_vec(d, -2, 2)), draw(_vec(d, -2, 2))


@st.composite
def _chain_case(draw):
    kind = draw(st.sampled_from(["cg-expansion", "s-lemma", "multi-be", "s-composition"]))
    k = draw(st.integers(2 if kind == "multi-be" else 1, 2 if kind == "s-composition" else 3))
    return (kind, draw(st.integers(0, 2)), draw(_vec(k + 2, -1, 1)),
            draw(_vec(k, -1, 1)), draw(_vec(k, -1, 1)))


def _chain_residuals(kind, x, n, r, s, ctx, policy):
    if kind == "cg-expansion":
        return [cg_expansion_residual(x, r, n, ctx, policy).value]
    if kind == "s-lemma":
        return [multivariate.s_lemma_residual(x, n, r, s, ctx, policy).value]
    p = ThreeNJParams(x, n, r, s)
    return [verify_multivariate_BE(p, ctx, policy).value,
            multi_be_stated_form_residual(p, ctx, policy).value]


@settings(max_examples=80, deadline=None)
@given(case=_orthogonality_case(), q=st.sampled_from(sorted(CTXS)),
       window=st.sampled_from(WINDOWS))
def test_engine_orthogonality_matches_old_recursion(case, q, window):
    nu, lam, lamp = case
    ctx = CTXS[q]
    pol = TruncationPolicy(bilateral_window=window, adaptive=False)
    got = multi_orthogonality_residual(nu, lam, lamp, ctx, pol)
    _assert_close(got.value, *_old_orthogonality(nu, lam, lamp, ctx, pol), ctx)


@settings(max_examples=40, deadline=None)
@given(case=_chain_case(), window=st.sampled_from(WINDOWS))
def test_engine_chain_sums_match_old_recursion(case, window):
    kind, x, n, r, s = case
    ctx = CTXS["0.5"]
    pol = TruncationPolicy(bilateral_window=window, adaptive=False)
    if kind == "s-composition":
        got = verify_S_composition(x, n, r, s, ctx, pol).value
        _assert_close(got, *_old_S_composition(x, n, r, s, ctx, pol), ctx)
        return
    got = _chain_residuals(kind, x, n, r, s, ctx, pol)
    old = _old_chain_residuals(kind, x, n, r, s, ctx, pol)
    assert len(got) == len(old)
    for new, (value, scale) in zip(got, old):
        _assert_close(new, value, scale, ctx)


def test_engine_combines_every_level_it_used(ctx05):
    pol = TruncationPolicy(bilateral_window=(-3, 3), adaptive=False, tail_tol=1.0)

    def term(t):
        # 2^(-10 |t|) as an exact (m, e) pair, zero at t = 0
        return (0, 0) if t == 0 else (1, -10 * abs(t))

    def term2(t0, t1):
        (am, ae), (bm, be) = term(t0), term(t1)
        return am * bm, ae + be

    def inner(t):
        return SeriesResult(mp.mpf(2), mp.mpf(1) / 8, 5, t != 1)

    own = multivariate._nested_vector_sum(term, 1, pol, ctx05)
    res = multivariate._nested_vector_sum(term, 1, pol, ctx05, inner)
    assert own.converged and res.value == 2 * own.value
    # the t = 0 term vanishes and uses no inner result; the other six do,
    # and the one at t = 1 did not converge (the doubled terms double the
    # level's own estimate)
    assert res.est_error == 2 * own.est_error + mp.mpf(6) / 8
    assert res.terms_used == 7 + 6 * 5
    assert not res.converged
    # a coordinate level adds its sub-sums' estimates and counts
    grid = multivariate._nested_vector_sum(term2, 2, pol, ctx05)
    subs = [multivariate._nested_vector_sum(lambda t0: term2(t0, t), 1, pol, ctx05)
            for t in range(-3, 4)]
    outer = bilateral_sum(lambda t: mantissa(subs[t + 3].value), pol, ctx05)
    assert grid.value == outer.value and grid.converged and grid.terms_used == 7 + 7 * 7
    assert grid.est_error == outer.est_error + mp.fsum(sub.est_error for sub in subs)


@pytest.mark.parametrize("dps", [15, 40, 75])
def test_estimate_fold_rounds_as_fsum(dps):
    # the inner estimates add exactly on their mantissas and round once, bit
    # for bit as mp.fsum: exponents 740 bits apart, zeros, and mantissas
    # longer than the precision
    rng = random.Random(dps)
    with mp.workdps(dps):
        for _ in range(400):
            ests = [mp.mpf(0) if rng.random() < 0.1 else
                    mp.make_mpf(from_man_exp(rng.getrandbits(rng.randint(1, 300)) | 1,
                                             rng.randint(-700, 40)))
                    for _ in range(rng.randint(0, 8))]
            assert coupling._rounded_sum(ests)._mpf_ == mp.fsum(ests)._mpf_


@pytest.mark.parametrize("shift", [0, -600])
def test_engine_sums_exact_terms_exactly_on_the_bilateral_window(ctx05, shift):
    # dyadic terms m 2^e, exactly representable: the total is exact, and the
    # window grown and the terms read are bilateral_sum's on the same terms.
    # The terms decay at different rates on the two sides, so each side grows
    # by its own amount; one term equals the stop threshold tail_tol / 30
    # (not below it) and one lies a unit below it, so an inexact comparison
    # moves the window.  Shifted by 2^-600 they test that each level's scale
    # follows its largest term, not a fixed absolute unit.
    def value(t):
        if t == 1:
            return 0, 0
        if t == 9:
            return 3, shift - 47
        if t == -16:
            return 3 * 2 ** 20 - 1, shift - 67
        return (-1 if t % 2 else 1) * (2 * abs(t) + 1), shift - (5 * t if t > 0 else -3 * t)

    # tail_tol / 30 = 3 2^(shift-47), so t = 9 sits on it and t = -16 in its binade
    pol = TruncationPolicy(bilateral_window=(-2, 2), tail_tol=90 * 2.0 ** (shift - 47))
    read, read_ref = [], []

    def term(t):
        read.append(t)
        return value(t)

    def ref(t):
        read_ref.append(t)
        return mp.ldexp(*value(t))

    res = multivariate._nested_vector_sum(term, 1, pol, ctx05)
    expected = _old_bilateral_sum(ref, pol)
    assert read == read_ref and (min(read), max(read)) == (-18, 12)
    assert res.terms_used == expected.terms_used == len(read)
    assert res.est_error == expected.est_error and res.converged == expected.converged
    exact = sum(Fraction(m) * Fraction(2) ** e for m, e in map(value, read))
    man, exp = mantissa(res.value)
    assert Fraction(man) * Fraction(2) ** exp == exact


@pytest.mark.parametrize("precision", [30, 40])
def test_hoisted_factors_never_cross_bases_or_precisions(precision):
    # each evaluation converts its own J factors and recoupling weights: values
    # at q = 0.3 and then at q = 0.5 in one process are the fresh oracle values
    pol = TruncationPolicy(bilateral_window=(-4, 4), adaptive=False)
    chain = (1, (0, 1, 0, -1), (1, 0), (1, 0))
    nu, lam, lamp = (0, 1, 0, 1), (1, -1), (1, -1)
    for q in ("0.3", "0.5", "0.3"):
        ctx = QContext(q, precision)
        got = multivariate.s_lemma_residual(*chain, ctx, pol).value
        [(old, scale)] = _old_chain_residuals("s-lemma", *chain, ctx, pol)
        _assert_close(got, old, scale, ctx)
        got = multi_orthogonality_residual(nu, lam, lamp, ctx, pol).value
        _assert_close(got, *_old_orthogonality(nu, lam, lamp, ctx, pol), ctx)


def test_orthogonality_levels_keep_bases_precisions_and_policies_apart(monkeypatch):
    # one level table once handed q = 0.5 levels to q = 0.3 (residual 0.2):
    # read warm, after the other bases, precisions and policies, each case
    # gives what it gives from an emptied table
    nu, lam = (0, 1, 0, 1), (0, 0)
    cases = ((QContext("0.5"), None), (QContext("0.3"), None), (QContext("0.3", 40), None),
             (QContext("0.3"), TruncationPolicy(tail_tol=1e-18)))
    monkeypatch.setattr(multivariate, "_ORTHOGONALITY_LEVELS", {})
    warm = [multi_orthogonality_residual(nu, lam, lam, ctx, pol) for ctx, pol in cases]
    for (ctx, pol), got in zip(cases, warm):
        monkeypatch.setattr(multivariate, "_ORTHOGONALITY_LEVELS", {})
        assert got == multi_orthogonality_residual(nu, lam, lam, ctx, pol)
        assert got.value < 1e-20


def test_s_composition_reports_the_truncation_it_reached():
    pol = TruncationPolicy(bilateral_window=(-6, 7), adaptive=False)
    res = verify_S_composition(1, (0, 1, -1, 0), (1, 0), (0, 1), QContext("0.5"), pol)
    assert not res.converged
    assert res.est_error > pol.tail_tol


def test_orthogonality_reports_the_estimate_reached(ctx05):
    # a criterion-5 pair: every level converged, and the estimate is the
    # levels' own, not tail_tol echoed back
    pol = TruncationPolicy(tail_tol=1e-16)
    res = multi_orthogonality_residual((0, 1, 0, 1), (1, -1), (0, 1), ctx05, pol)
    assert res.converged and res.value < 1e-7
    assert res.est_error != pol.tail_tol and 0 < res.est_error < 1e-12
    assert res.terms_used > 70 ** 2
    narrow = TruncationPolicy(tail_tol=1e-16, bilateral_window=(-3, 3), adaptive=False)
    res = multi_orthogonality_residual((0, 1, 0, 1), (1, -1), (0, 1), ctx05, narrow)
    assert not res.converged and res.est_error > narrow.tail_tol
    assert res.terms_used == 7 + 7 * 7


def _old_weight(order, e, ctx):
    # the mpf recoupling weight (-q)^e J_order(q^{2e}; q^2) at wp + 5 digits
    with ctx.workdps(5):
        return (-ctx.q) ** e * qbessel_lattice(order, e, ctx.base_squared())


def _old_R(x, n1, n2, n3, p1p, p2p, ctx):
    return _old_weight(x - n1 + n2 - n3, p1p + p2p - n1 - n3, ctx)


def _old_sum(term, policy):
    """(SeriesResult, scale) of the mpf bilateral sum of term."""
    top = [mp.mpf(0)]
    return _old_bilateral_sum(_tracked(term, top), policy), top[0]


@at_working_precision
def _old_one_variable(kind, labels, ctx, policy):
    """[(SeriesResult or mpf, scale)] of the mpf one-variable identity sums."""
    q = ctx.q
    J = qbessel_lattice
    if kind == "hankel-orthogonality":
        nu, m, n = labels
        res, scale = _old_sum(lambda x: J(nu, x + m, ctx) * J(nu, x + n, ctx) * q ** x, policy)
        return [(res.residual(q ** (-n) if m == n else mp.mpf(0)), scale)]
    if kind == "sixj-orthogonality":
        r, p2, p3 = labels
        res, scale = _old_sum(lambda p1: _old_weight(r, p1 - p2, ctx)
                              * _old_weight(r, p1 - p3, ctx), policy)
        return [(res.residual(1 if p2 == p3 else 0), scale)]
    if kind == "biedenharn-elliott":
        P, Q, R, nu, mu1, mu2 = labels

        def term(mu):
            return (-1) ** (mu1 + mu2) * q ** (mu - mp.mpf(mu1 + mu2) / 2) \
                * J(mu2 - mu1 + P - Q, mu - mu1, ctx) * J(mu1 - mu2 + Q - R, mu - mu2, ctx) \
                * J(nu + mu, P - R, ctx)

        res, scale = _old_sum(term, policy)
        return [(res.residual(J(nu + mu1, P - Q, ctx) * J(nu + mu2, Q - R, ctx)), scale)]
    if kind == "backcoupling":
        x, n1, n2, n3, p1, p2 = labels
        r123, r132, r312 = x - n1 + n2 - n3, x - n1 + n3 - n2, x - n3 + n1 - n2
        res, scale = _old_sum(lambda p: J(r132, p + p1, ctx) * J(r312, p + p2, ctx) * q ** p,
                              policy)
        return [(res.residual(J(r123, p1 + p2, ctx)), scale)]
    x, n1, n2, n3, n4, p1, p2, p3, p4 = labels
    lhs, lscale = _old_sum(lambda r: _old_R(x, p1, n3, n4, p2, r, ctx)
                           * _old_R(r, n2, n1, n3, p3, p1, ctx)
                           * _old_R(x, p3, n2, n4, p4, r, ctx), policy)
    rhs, rscale = _old_sum(lambda r: _old_R(x, n1, n2, p2, r, p1, ctx)
                           * _old_R(r, n2, n4, n3, p2, p4, ctx)
                           * _old_R(x, n1, n3, p4, r, p3, ctx), policy)
    if kind == "hexagon":
        return [(SeriesResult(abs(lhs.value - rhs.value), lhs.est_error + rhs.est_error,
                              lhs.terms_used + rhs.terms_used, lhs.converged and rhs.converged),
                 max(lscale, rscale))]
    ctx2 = ctx.base_squared()
    restore = (-q) ** (n2 + n3)

    def j_side(m1, m2, m3, m4, q1, q2, q3, q4):
        return _old_sum(lambda r: (-1) ** (q2 + q4) * q ** (2 * r - 2 * m4 + q2 + q4)
                        * J(r - m2 + m1 - m3, q1 + q3 - m2 - m3, ctx2)
                        * J(x - q1 + m3 - m4, r + q2 - q1 - m4, ctx2)
                        * J(x - q3 + m2 - m4, r + q4 - q3 - m4, ctx2), policy)

    jl, jlscale = j_side(n1, n2, n3, n4, p1, p2, p3, p4)
    jr, jrscale = j_side(n4, n3, n2, n1, p2, p1, p4, p3)
    return [(abs(jl.value - lhs.value * restore), max(jlscale, lscale * abs(restore))),
            (abs(jr.value - rhs.value * restore), max(jrscale, rscale * abs(restore)))]


def _one_variable(kind, labels, ctx, policy):
    if kind == "hankel-orthogonality":
        with ctx.workdps(10):  # the precision eval_single gives it
            return [verifier._eval_hankel(*labels, ctx, policy)]
    if kind == "sixj-orthogonality":
        with ctx.workdps(10):
            return [verifier._eval_sixj_orthogonality(*labels, ctx, policy)]
    if kind == "hexagon-j-form":
        return list(coupling.hexagon_j_form_residual(*labels, ctx, policy))
    verify = {"biedenharn-elliott": coupling.verify_biedenharn_elliott,
              "backcoupling": coupling.verify_backcoupling,
              "hexagon": coupling.verify_hexagon}[kind]
    return [verify(*labels, ctx, policy)]


_ONE_VARIABLE = {  # identity -> (label count, label range, policy)
    "hankel-orthogonality": (3, (-3, 3), TruncationPolicy(tail_tol=1e-16, max_terms=600)),
    "sixj-orthogonality": (3, (-2, 2), None),
    "biedenharn-elliott": (6, (-1, 1), None),
    "backcoupling": (6, (-1, 1), None),
    "hexagon": (9, (-1, 1), None),
    "hexagon-j-form": (9, (-1, 1), None),
}


@pytest.mark.parametrize("kind", list(_ONE_VARIABLE))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from(sorted(CTXS)))
def test_one_variable_sums_match_the_mpf_engine(kind, data, q):
    # residuals and estimates to 10^-wp times the oracle's largest term, on
    # the same window reached by the same number of terms
    size, (lo, hi), policy = _ONE_VARIABLE[kind]
    labels = data.draw(_vec(size, lo, hi))
    ctx = CTXS[q]
    got = _one_variable(kind, labels, ctx, policy)
    old = _old_one_variable(kind, labels, ctx, policy)
    assert len(got) == len(old)
    for new, (ref, scale) in zip(got, old):
        if isinstance(ref, SeriesResult):
            assert (new.terms_used, new.converged) == (ref.terms_used, ref.converged)
            _assert_close(new.est_error, ref.est_error, scale, ctx)
            new, ref = new.value, ref.value
        _assert_close(new, ref, scale, ctx)
