import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import (MultiBesselParams, QContext, ThreeNJParams, TruncatedFock,
                       TruncationPolicy, cg_expansion_residual, coupled_vector, hat,
                       multi_cg, multi_orthogonality_residual, multi_qbessel,
                       multivariate_be_cross_check, qbessel_lattice, recoupling_R,
                       threenj_R, threenj_S, threenj_corollary_gap, verify_S_composition,
                       verify_multivariate_BE)
from qcoupling.coupling import _yb_sector_kernel
from qcoupling.errors import DomainError
from qcoupling.multivariate import _R_labels, _S_labels, _factor_labels, drop_first
from qcoupling.qcore import at_working_precision

CTXS = {"0.3": QContext("0.3"), "0.5": QContext("0.5"), "0.7": QContext("0.7")}


def test_label_accessors():
    assert hat((1, 2, 3)) == (3, 2, 1)
    assert hat(hat((1, 2, 3))) == (1, 2, 3)
    assert drop_first((1, 2, 3)) == (2, 3)
    assert sum(hat((1, -2, 5))) == sum((1, -2, 5))


def test_params_validation():
    with pytest.raises(DomainError):
        MultiBesselParams((0, 0), (0,), (0,))
    with pytest.raises(DomainError):
        ThreeNJParams(0, (0, 0, 0), (0, 0), (0,))


def test_multi_qbessel_single_variable_reduction(ctx05):
    nu = (1, 2, 0)
    x, lam = (1,), (-1,)
    got = multi_qbessel(MultiBesselParams(nu, x, lam), ctx05)
    order = nu[1] - nu[2] - nu[0]
    expo = x[0] - nu[2] + lam[0] - nu[0]
    assert got == qbessel_lattice(order, expo, ctx05)


def test_multi_qbessel_factorwise(ctx05):
    nu = (0, 1, 1, 0)
    x, lam = (0, 0), (0, 0)
    got = multi_qbessel(MultiBesselParams(nu, x, lam), ctx05)
    f1 = qbessel_lattice(nu[1] - x[1] - nu[0], x[0] - x[1] + lam[0] - nu[0], ctx05)
    f2 = qbessel_lattice(nu[2] - nu[3] - lam[0], x[1] - nu[3] + lam[1] - lam[0], ctx05)
    assert abs(got - f1 * f2) < 1e-15


def test_multi_qbessel_self_duality(ctx05):
    rng = random.Random(5)
    for _ in range(8):
        d = rng.choice([2, 3, 4])
        nu = tuple(rng.randint(-3, 3) for _ in range(d + 2))
        x = tuple(rng.randint(-3, 3) for _ in range(d))
        lam = tuple(rng.randint(-3, 3) for _ in range(d))
        a = multi_qbessel(MultiBesselParams(nu, x, lam), ctx05)
        b = multi_qbessel(MultiBesselParams(hat(nu), hat(lam), hat(x)), ctx05)
        assert abs(a - b) <= 1e-14 * max(1, abs(a))


def test_multi_orthogonality_single_variable_is_lattice_relation(ctx05):
    res = multi_orthogonality_residual((0, 1, 0), (1,), (1,), ctx05)
    assert res.value < 1e-8
    res2 = multi_orthogonality_residual((0, 1, 0), (1,), (0,), ctx05)
    assert res2.value < 1e-8


def test_multi_orthogonality_two_variables(ctx05):
    nu = (0, 1, 0, 1)
    pol = TruncationPolicy(tail_tol=1e-18)
    assert multi_orthogonality_residual(nu, (0, 0), (0, 0), ctx05, pol).value < 1e-7
    assert multi_orthogonality_residual(nu, (1, -1), (1, -1), ctx05, pol).value < 1e-7
    assert multi_orthogonality_residual(nu, (0, 1), (0, 0), ctx05, pol).value < 1e-7
    assert multi_orthogonality_residual(nu, (1, 0), (0, 0), ctx05, pol).value < 1e-7


def test_threenj_chain_single_factor(ctx05):
    p = ThreeNJParams(1, (0, 1, -1), (2,), (0,))
    got = threenj_R(p, ctx05)
    expect = recoupling_R(1, 0, 1, -1, 2, 0, ctx05)
    assert got == expect


def test_threenj_chain_split_factorization(ctx05):
    rng = random.Random(23)
    for k, k1 in [(2, 1), (3, 1), (3, 2)]:
        for _ in range(4):
            x = rng.randint(0, 2)
            n = tuple(rng.randint(-2, 2) for _ in range(k + 2))
            r = tuple(rng.randint(-2, 2) for _ in range(k))
            s = tuple(rng.randint(-2, 2) for _ in range(k))
            whole = threenj_R(ThreeNJParams(x, n, r, s), ctx05)
            left = threenj_R(ThreeNJParams(x, n[:k1 + 1] + (r[k1],), r[:k1], s[:k1]), ctx05)
            right = threenj_R(ThreeNJParams(x, (s[k1 - 1],) + n[k1 + 1:], r[k1:], s[k1:]), ctx05)
            assert abs(whole - left * right) <= 1e-12 * max(1, abs(whole))


def test_threenj_corollary_bridge(ctx05):
    rng = random.Random(7)
    for k in (1, 2, 3):
        for _ in range(5):
            p = ThreeNJParams(rng.randint(0, 2),
                              tuple(rng.randint(-2, 2) for _ in range(k + 2)),
                              tuple(rng.randint(-2, 2) for _ in range(k)),
                              tuple(rng.randint(-2, 2) for _ in range(k)))
            assert threenj_corollary_gap(p, ctx05) < 1e-10


def test_threenj_duality(ctx05):
    rng = random.Random(9)
    for k in (1, 2, 3):
        for _ in range(4):
            x = rng.randint(0, 2)
            n = tuple(rng.randint(-2, 2) for _ in range(k + 2))
            r = tuple(rng.randint(-2, 2) for _ in range(k))
            s = tuple(rng.randint(-2, 2) for _ in range(k))
            a = threenj_R(ThreeNJParams(x, n, r, s), ctx05)
            b = threenj_R(ThreeNJParams(x, hat(n), hat(s), hat(r)), ctx05)
            assert abs(a - b) <= 1e-12 * max(1, abs(a))


def test_threenj_orthogonality(ctx05):
    # rows of the chain coefficients are orthonormal across the r-labels
    x, n = 1, (0, 1, -1, 0)
    for (s1, s2) in [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 1), (1, 0))]:
        tot = mp.fsum(threenj_R(ThreeNJParams(x, n, (r1, r2), s1), ctx05)
                      * threenj_R(ThreeNJParams(x, n, (r1, r2), s2), ctx05)
                      for r1 in range(-12, 14) for r2 in range(-12, 14))
        target = 1 if s1 == s2 else 0
        assert abs(tot - target) < 1e-7


def test_left_chain_single_factor_conventions(ctx05):
    # k = 1: the left-hanging chain is the plain recoupling weight
    p = ThreeNJParams(2, (1, 0, -1), (1,), (0,))
    got = threenj_S(p, ctx05)
    expect = recoupling_R(2, 1, 0, -1, 1, 0, ctx05)
    assert got == expect


def test_left_chain_sweep_builds_two_contexts(monkeypatch):
    # every recoupling weight of the sweep reuses the case context's one
    # squared base instead of building its own
    built = []
    post_init = QContext.__post_init__

    def counting(self):
        built.append(self.q)
        post_init(self)

    monkeypatch.setattr(QContext, "__post_init__", counting)
    ctx = QContext("0.5")
    for r1 in range(-11, 12):
        for r2 in range(-11, 12):
            threenj_S(ThreeNJParams(1, (0, 1, -1, 0), (r1, r2), (1, 0)), ctx)
    assert len(built) <= 2


def test_left_chain_lacks_self_duality(ctx05):
    p = ThreeNJParams(2, (1, 0, 0, 1), (0, 1), (1, -1))
    a = threenj_S(p, ctx05)
    b = threenj_S(ThreeNJParams(2, hat(p.n), hat(p.s), hat(p.r)), ctx05)
    assert abs(a - b) > 1e-3


def test_left_chain_orthogonality(ctx05):
    x, n = 1, (0, 1, -1, 0)
    for (s1, s2) in [((0, 0), (0, 0)), ((1, 0), (0, 0))]:
        tot = mp.fsum(threenj_S(ThreeNJParams(x, n, (r1, r2), s1), ctx05)
                      * threenj_S(ThreeNJParams(x, n, (r1, r2), s2), ctx05)
                      for r1 in range(-12, 14) for r2 in range(-12, 14))
        target = 1 if s1 == s2 else 0
        assert abs(tot - target) < 1e-7


def test_multivariate_pentagon_chain_form(ctx05):
    rng = random.Random(31)
    for _ in range(4):
        p = ThreeNJParams(rng.randint(0, 2),
                          tuple(rng.randint(-1, 1) for _ in range(4)),
                          tuple(rng.randint(-1, 1) for _ in range(2)),
                          tuple(rng.randint(-1, 1) for _ in range(2)))
        res = verify_multivariate_BE(p, ctx05, a_form=False)
        assert res.s_form_residual < 1e-7


def test_multivariate_pentagon_k3(ctx05):
    pol = TruncationPolicy(bilateral_window=(-12, 14), adaptive=False)
    p = ThreeNJParams(1, (0, 1, 0, -1, 0), (0, 1, 0), (1, 0, 0))
    res = verify_multivariate_BE(p, ctx05, pol, a_form=False)
    assert res.s_form_residual < 1e-6


def test_multivariate_pentagon_coefficient_form_mismatch(ctx05):
    # the stated coefficient form does not reproduce the chain reference;
    # the result object reports the disagreement instead of asserting it away
    p = ThreeNJParams(1, (0, 1, 1, -1), (-1, 1), (1, 0))
    res = verify_multivariate_BE(p, ctx05, a_form=True)
    assert res.s_form_residual < 1e-7
    assert res.a_form_residual > 1e-3
    assert not res.forms_agree


def test_multivariate_pentagon_cross_check(ctx05):
    rng = random.Random(41)
    for _ in range(3):
        p = ThreeNJParams(rng.randint(0, 2),
                          tuple(rng.randint(-1, 1) for _ in range(4)),
                          tuple(rng.randint(-1, 1) for _ in range(2)),
                          tuple(rng.randint(-1, 1) for _ in range(2)))
        chain, pent, gap = multivariate_be_cross_check(p, ctx05)
        assert chain < 1e-8 and pent < 1e-8 and gap < 1e-12


def test_chain_composition_rotation_bookkeeping(ctx05):
    # the rotated leaf vectors are cyclic shifts; k+2 single shifts close up
    n = (3, -1, 2)
    shift = lambda v: (v[-1],) + v[:-1]
    out = n
    for _ in range(len(n)):
        out = shift(out)
    assert out == n


def test_chain_composition_single_variable_fails_with_backcoupling(ctx05):
    # the k = 1 composition is the stated three-factor re-bracketing loop,
    # which does not close; the residual is honest and large
    pol = TruncationPolicy(bilateral_window=(-16, 18), adaptive=False)
    res = verify_S_composition(1, (0, 1, -1), (1,), (0,), ctx05, pol)
    assert res.value > 1e-3


def test_multi_cg_zero_convention(ctx05):
    assert multi_cg(2, (-1,), (0, 1, 0), ctx05) == 0.0
    assert multi_cg(1, (0, 5), (0, 1, 0, -4), ctx05) == 0.0


def test_multi_cg_matches_coupled_vector_coefficients(ctx05):
    # chain products are the coupled-vector coefficients at matching labels
    fock = TruncatedFock(40)
    x, p, r = 2, 1, 0
    v = coupled_vector("1(23)", x, p, r, fock, ctx05)
    for (n, m, k), coeff in list(v.coeffs.items())[:40]:
        got = multi_cg(x, (n + p,), (n, m, k), ctx05)
        assert abs(got - coeff) < 1e-12


def test_cg_expansion(ctx05):
    pol = TruncationPolicy(bilateral_window=(-10, 14), adaptive=False)
    for (x, r1, n) in [(2, 1, (0, 1, 1)), (3, 2, (1, 0, 1)), (2, 0, (0, 0, 2))]:
        assert cg_expansion_residual(x, (r1,), n, ctx05, pol) < 1e-7


# The mpf products the exact chains replaced, kept as their oracles: each
# recoupling weight (-q)^e J_order(q^{2e}; q^2) formed on mpf at the working
# precision plus five digits, and the weights (or the J values) multiplied
# one by one at the working precision plus ten.

def _old_weight(order, e, ctx):
    with ctx.workdps(5):
        return (-ctx.q) ** e * qbessel_lattice(order, e, ctx.base_squared())


@at_working_precision
def _old_chain(labels, ctx):
    val = mp.mpf(1)
    for order, e in labels:
        val *= _old_weight(order, e, ctx)
    return val


@at_working_precision
def _old_multi_qbessel(p, ctx):
    val = mp.mpf(1)
    for order, expo in _factor_labels(p.nu, p.x, p.lam):
        val *= qbessel_lattice(order, expo, ctx)
    return val


def _vec(size):
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size).map(tuple)


@st.composite
def _chain_labels(draw):
    k = draw(st.integers(1, 3))
    return draw(st.integers(0, 2)), draw(_vec(k + 2)), draw(_vec(k)), draw(_vec(k))


def _assert_relative(new, old, ctx):
    assert abs(new - old) <= mp.mpf(10) ** -(ctx.working_precision + 3) * abs(old)


@settings(max_examples=60, deadline=None)
@given(labels=_chain_labels(), q=st.sampled_from(sorted(CTXS)))
def test_exact_chains_match_the_mpf_products(labels, q):
    # one exact product rounded once, against k weights rounded and multiplied
    x, n, r, s = labels
    ctx = CTXS[q]
    p = ThreeNJParams(x, n, r, s)
    _assert_relative(threenj_R(p, ctx), _old_chain(_R_labels(x, n, r, s), ctx), ctx)
    _assert_relative(threenj_S(p, ctx), _old_chain(_S_labels(x, n, r, s), ctx), ctx)
    mb = MultiBesselParams(n, r, s)
    _assert_relative(multi_qbessel(mb, ctx), _old_multi_qbessel(mb, ctx), ctx)


@pytest.mark.parametrize("q", sorted(CTXS))
def test_yang_baxter_kernel_matches_the_mpf_kernel(q):
    # K(d) = (-q)^d J_nu(q^{2d}; q^2) rounded once to a float, within one ulp
    # of the mpf product rounded to a float
    ctx = CTXS[q]
    for nu in range(-3, 4):
        kernel = _yb_sector_kernel(nu, range(-8, 9), ctx)
        for d, got in kernel.items():
            with ctx.workdps(10):
                old = float((-ctx.q) ** d * qbessel_lattice(nu, d, ctx.base_squared()))
            assert abs(got - old) <= math.ulp(old)
