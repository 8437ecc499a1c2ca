"""The one nested-sum engine against the two recursions it replaced.

``_old_nested_vector_sum`` and ``_old_orthogonality`` are kept here, and only
here, as oracles: the coordinate recursion the chain identities used, and the
memoized ``inner()`` level recursion of the multivariate orthogonality.  The
engine must reproduce their values bit for bit.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import (QContext, ThreeNJParams, TruncationPolicy, cg_expansion_residual,
                       multi_orthogonality_residual, verify_S_composition,
                       verify_multivariate_BE)
from qcoupling import multivariate, verifier
from qcoupling.qcore import SeriesResult, at_working_precision, bilateral_sum
from qcoupling.qfunctions import qbessel_lattice

CTXS = {"0.3": QContext("0.3"), "0.5": QContext("0.5")}
WINDOWS = [(-3, 3), (-4, 2)]


def _old_nested_vector_sum(term, dim, policy):
    if dim == 1:
        return bilateral_sum(lambda t: term((t,)), policy).value

    def outer(t_last):
        return _old_nested_vector_sum(lambda rest: term(rest + (t_last,)), dim - 1, policy)

    return bilateral_sum(outer, policy).value


@at_working_precision
def _old_orthogonality(nu, lam, lamp, ctx, policy):
    q = ctx.q
    d = len(lam)
    lam_full = (nu[0],) + lam
    lamp_full = (nu[0],) + lamp
    memo = {}

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
            memo[key] = bilateral_sum(term, policy).value
        return memo[key]

    target = q ** (nu[d + 1] + nu[0] - lam[d - 1]) if lam == lamp else mp.mpf(0)
    return abs(inner(d, nu[d + 1]) - target)


@at_working_precision
def _old_S_composition(x, n, r, s, ctx, policy):
    k = len(r)

    def rotation(j):
        return tuple(n[(k + 2 - j + i) % (k + 2)] for i in range(k + 2))

    def chain(level, prev):
        if level == k + 1:
            return multivariate.threenj_S(ThreeNJParams(x, rotation(level), prev, s), ctx)

        def term(tvec):
            val = multivariate.threenj_S(ThreeNJParams(x, rotation(level), prev, tvec), ctx)
            if val == 0:
                return mp.mpf(0)
            return val * chain(level + 1, tvec)

        return _old_nested_vector_sum(term, k, policy)

    return abs(multivariate.threenj_S(ThreeNJParams(x, n, s, r), ctx) - chain(1, r))


def _old_engine(term, dim, policy):
    return SeriesResult(_old_nested_vector_sum(term, dim, policy), mp.mpf(0), 0, True)


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


def _chain_residual(kind, x, n, r, s, ctx, policy):
    if kind == "cg-expansion":
        return cg_expansion_residual(x, r, n, ctx, policy)
    if kind == "s-lemma":
        return verifier._eval_s_lemma(x, n, r, s, ctx, policy)
    res = verify_multivariate_BE(ThreeNJParams(x, n, r, s), ctx, policy)
    return res.s_form_residual, res.a_form_residual


@settings(max_examples=80, deadline=None)
@given(case=_orthogonality_case(), q=st.sampled_from(sorted(CTXS)),
       window=st.sampled_from(WINDOWS))
def test_engine_orthogonality_matches_old_recursion(case, q, window):
    nu, lam, lamp = case
    ctx = CTXS[q]
    pol = TruncationPolicy(bilateral_window=window, adaptive=False)
    got = multi_orthogonality_residual(nu, lam, lamp, ctx, pol)
    assert got.value == _old_orthogonality(nu, lam, lamp, ctx, pol)


@settings(max_examples=40, deadline=None)
@given(case=_chain_case(), window=st.sampled_from(WINDOWS))
def test_engine_chain_sums_match_old_recursion(case, window):
    kind, x, n, r, s = case
    ctx = CTXS["0.5"]
    pol = TruncationPolicy(bilateral_window=window, adaptive=False)
    if kind == "s-composition":
        got = verify_S_composition(x, n, r, s, ctx, pol).value
        assert got == _old_S_composition(x, n, r, s, ctx, pol)
        return
    got = _chain_residual(kind, x, n, r, s, ctx, pol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multivariate, "_nested_vector_sum", _old_engine)
        old = _chain_residual(kind, x, n, r, s, ctx, pol)
    assert got == old


def test_engine_combines_every_level_it_used():
    pol = TruncationPolicy(bilateral_window=(-3, 3), adaptive=False, tail_tol=1.0)

    def term(tvec):
        return mp.mpf(0) if tvec == (0,) else mp.mpf(2) ** (-10 * abs(tvec[0]))

    def inner(tvec):
        return SeriesResult(mp.mpf(2), mp.mpf(1) / 8, 5, tvec != (1,))

    own = multivariate._nested_vector_sum(term, 1, pol)
    res = multivariate._nested_vector_sum(term, 1, pol, inner)
    assert own.converged and res.value == 2 * own.value
    # the t = 0 term vanishes and uses no inner result; the other six do,
    # and the one at t = 1 did not converge (the doubled terms double the
    # level's own estimate)
    assert res.est_error == 2 * own.est_error + mp.mpf(6) / 8
    assert res.terms_used == 7 + 6 * 5
    assert not res.converged
    # a coordinate level adds its sub-sums' estimates and counts
    grid = multivariate._nested_vector_sum(lambda tv: term(tv[:1]) * term(tv[1:]), 2, pol)
    subs = [multivariate._nested_vector_sum(lambda tv: term(tv) * term((t,)), 1, pol)
            for t in range(-3, 4)]
    outer = bilateral_sum(lambda t: subs[t + 3].value, pol)
    assert grid.value == outer.value and grid.converged and grid.terms_used == 7 + 7 * 7
    assert grid.est_error == outer.est_error + mp.fsum(sub.est_error for sub in subs)


def test_orthogonality_memo_keeps_bases_precisions_and_policies_apart():
    # a shared memo once handed q = 0.5 levels to q = 0.3 (residual 0.2)
    nu, lam = (0, 1, 0, 1), (0, 0)
    shared: dict = {}
    for ctx, pol in ((QContext("0.5"), None), (QContext("0.3"), None),
                     (QContext("0.3", 40), None),
                     (QContext("0.3"), TruncationPolicy(tail_tol=1e-18))):
        got = multi_orthogonality_residual(nu, lam, lam, ctx, pol, memo=shared)
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
