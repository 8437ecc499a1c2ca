"""The fixed-point series kernel (``qcore._phi_fixed``) against the mpf loops
it replaced (``series_oracles``): the general ``rphis`` on terminating and
open series, the Askey-Wilson merged sum, and the J series bit for bit, on
integers end to end, on the lattice and off it."""

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import mpf_pow_int, to_fixed

from qcoupling import AWParams, QContext, TruncationPolicy, aw_poly, qbessel, rphis
from qcoupling import qcore, qfunctions
from qcoupling.errors import NonConvergent
from series_oracles import mpf_aw_poly, mpf_lattice_series, mpf_rphis, mpf_series, phi11_units


def _against_oracle(upper, lower, ctx, z, dps, extra=0):
    """(kernel result, oracle result, oracle's largest term): the kernel at
    ``dps`` digits, the mpf loop at ``extra`` more."""
    with mp.workdps(dps):
        got = rphis(upper, lower, ctx, z)
    with mp.workdps(dps + extra):
        want, largest = mpf_rphis(upper, lower, ctx, z)
    return got, want, largest


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.1, 0.9), n=st.integers(0, 12), x=st.integers(0, 12),
       a=st.floats(0.05, 0.95), alt=st.booleans())
@example(q=0.16347574854494246, n=10, x=11, a=0.5, alt=True)
def test_terminating_series_match_the_mpf_loop(q, n, x, a, alt):
    # the two Wall forms: 2phi1(q^-n, 0; aq; q, q^{x+1}) and the 2phi0
    # (q^-n, q^-x; -; q, q^x / a), whose term factor is [(-1)^k q^{k(k-1)/2}]^-1;
    # both end exactly at k = min(n, x) or k = n.  The example divides by
    # q^k down to 1e-8 and has z = 2e-9: held in the kernel's plain unit,
    # those would cost 17 digits of the largest term
    ctx = QContext(q, 30)
    with ctx.workdps(10):
        qq, a = ctx.q, mp.mpf(a)
        if alt:
            args = [qq ** -n, qq ** -x], [], qq ** x / a
        else:
            args = [qq ** -n, 0], [a * qq], qq ** (x + 1)
    # the guard of wall_poly_alt, which covers either form's cancellation
    dps = 50 + int(mp.ceil(n * max(n, x) * mp.log(1 / ctx.q, 10)))
    got, want, largest = _against_oracle(*args[:2], ctx, args[2], dps, 20)
    assert got.est_error == 0 and got.converged
    assert got.terms_used == want.terms_used
    with mp.workdps(dps + 20):
        assert abs(got.value - want.value) <= mp.mpf(10) ** -dps * largest


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.1, 0.95), nu=st.integers(0, 8), x=st.floats(0.01, 20),
       t=st.floats(-0.95, 0.95), wp=st.sampled_from([20, 30, 50]))
def test_open_series_match_the_mpf_loop(q, nu, x, t, wp):
    # the generating function's 1phi1(t; q^{nu+1}; q, qx), both sums at the
    # same precision, so the stop rule (three terms below min(tail_tol,
    # largest 10^-(dps-5))) is the same: the same terms, and the same value
    # and estimate to the mpf loop's rounding of its largest term (the
    # kernel holds the threshold in its absolute unit)
    ctx = QContext(q, wp)
    with ctx.workdps(10):
        qq = ctx.q
        upper, lower, z = [mp.mpf(t)], [qq ** (nu + 1)], qq * mp.mpf(x)
    dps = wp + 15
    got, want, largest = _against_oracle(upper, lower, ctx, z, dps)
    assert got.terms_used == want.terms_used and got.converged == want.converged
    with mp.workdps(dps + 20):
        assert abs(got.value - want.value) <= mp.mpf(10) ** (3 - dps) * largest
        assert abs(got.est_error - want.est_error) <= mp.mpf(10) ** -dps * largest / (1 - ctx.q)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(["0.3", "0.5"]), n=st.integers(0, 20),
       params=st.tuples(*[st.floats(0.05, 0.7)] * 4), x=st.floats(0.4, 2.0),
       collide=st.integers(0, 3), wp=st.sampled_from([30, 45]))
@example(q="0.3", n=14, params=(0.3, 0.45, 0.2, 0.15), x=0.8, collide=0, wp=30)
@example(q="0.3", n=20, params=(0.3, 0.45, 0.2, 0.15), x=0.8, collide=0, wp=30)
@example(q="0.5", n=6, params=(0.3, 0.3, 0.5, 0.2), x=0.9, collide=1, wp=30)
@example(q="0.5", n=5, params=(1.0, 1 - 1e-10, 1 - 1e-10, 1 - 1e-10), x=1.0, collide=0, wp=30)
def test_askey_wilson_sum_matches_the_mpf_loop(q, n, params, x, collide, wp):
    # the merged sum's term 0 is (ab, ac, ad; q)_n; collide > 0 sets a = 2^j
    # and c = 2^-j, so ac = 1 and term 0 is exactly 0, and the fixed-point
    # sum must still keep the working precision.  In the last example
    # a = x = 1 empties every later term and term 0 is about 3e-32: every
    # term is far below the kernel's absolute unit of 1
    a, b, c, d = params
    if collide:
        a, c = 2.0 ** collide, 2.0 ** -collide
    p = AWParams(n, x, a, b, c, d)
    ctx = QContext(q, wp)
    with mp.workdps(wp + 60):
        try:
            want = mpf_aw_poly(p, QContext(q, wp + 50))
        except NonConvergent:
            # a polynomial that is exactly 0 (ac = 1 and ax = 1 at degree 1)
            # cancels every digit, and both sums flag it
            with pytest.raises(NonConvergent):
                aw_poly(p, ctx)
            return
    got = aw_poly(p, ctx)
    with mp.workdps(wp + 60):
        assert abs(got - want) <= mp.mpf(10) ** -wp * abs(want)


def test_askey_wilson_sum_is_one_kernel_pass_at_generic_parameters(monkeypatch):
    # at degree 6 nothing cancels past the first guard: one fixed-point sum
    from qcoupling import askey_wilson

    calls = []
    kernel = askey_wilson._phi_fixed

    def counted(*args, **kwargs):
        calls.append(kwargs.get("fold"))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(askey_wilson, "_phi_fixed", counted)
    aw_poly(AWParams(6, 0.8, 0.3, 0.45, 0.2, 0.15), QContext("0.5", 30))
    assert calls == [True]


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.05, 0.97), wp=st.sampled_from([20, 30, 50]), nu=st.integers(0, 40),
       x=st.floats(0, 20, exclude_min=True))
def test_j_series_is_bit_identical_to_the_integer_1phi1_loop(q, wp, nu, x):
    # off the lattice the integer series, with its exact z and x^{nu/2} and
    # its one rounding, against the mpf round loop on the integer 1phi1 loop
    # it replaced: every J value keeps every bit; the lattice series is
    # checked against its own oracle below
    ctx = QContext(q, wp)
    with ctx.workdps(10):
        x = mp.mpf(x)
    assert qbessel(nu, x, ctx)._mpf_ == mpf_series(nu, x, ctx)._mpf_


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.05, 0.97), wp=st.sampled_from([20, 30, 50]),
       nu=st.integers(0, 40), y=st.integers(0, 60))
def test_lattice_j_series_is_bit_identical_to_the_mpf_series(q, wp, nu, y):
    # the integer lattice series against the mpf one it replaced: its sharper
    # powers, prefactor and single rounding change no bit of these values
    ctx = QContext(q, wp)
    assert qfunctions._series(nu, y, ctx, None)._mpf_ == mpf_lattice_series(nu, y, ctx)._mpf_


@pytest.mark.parametrize("qs", ["0.3", "0.5", "0.7"])
def test_lattice_j_series_keeps_every_canonical_pair_of_the_campaign_bases(qs):
    # the canonical pairs n <= m <= 40 at the campaign bases q and q^2
    # (0.09, 0.25, 0.49, formed as the recoupling weights form them)
    for ctx in (QContext(qs), QContext(qs).base_squared()):
        for n in range(41):
            for m in range(n, 41):
                got = qfunctions._series(n, m, ctx, None)
                assert got._mpf_ == mpf_lattice_series(n, m, ctx)._mpf_, (ctx.q, n, m)


def test_lattice_j_series_near_one_is_at_least_as_close_as_the_mpf_series():
    # at q = 0.98 and working precision 15 the mpf series' error, up to
    # 2e-19, passes the final rounding at 20 digits: where the two differ,
    # the integer series must be the closer to the mpmath reference
    # J_n(q^m) = q^{nm/2} / (q;q)_n * 1phi1(0; q^{n+1}; q, q^{m+1})
    ctx = QContext(0.98, 15)
    q = ctx.q
    differ = 0
    for n in range(41):
        for m in range(n, 41):
            got = qfunctions._series(n, m, ctx, None)
            old = mpf_lattice_series(n, m, ctx)
            if got._mpf_ == old._mpf_:
                continue
            differ += 1
            with mp.workdps(250):
                ref = q ** (mp.mpf(n * m) / 2) / mp.qp(q, q, n) \
                    * mp.qhyper([0], [q ** (n + 1)], q, q ** (m + 1))
                assert abs(got - ref) <= abs(old - ref), (n, m)
    assert differ


def test_a_cold_canonical_miss_makes_no_mpf_arithmetic(monkeypatch):
    # a J table miss at a canonical pair calls qbessel once and forms the
    # value on integers, from an empty unit table: no mpf operator and no
    # precision context runs before the one final rounding
    ctx = QContext("0.3")
    assert ctx.q_key  # printed once per context, before the spies
    monkeypatch.setattr(qfunctions, "_J_CACHE", {})
    monkeypatch.setattr(qcore, "_UNITS", {})
    calls, ops = [], []
    qbessel_ = qfunctions.qbessel
    monkeypatch.setattr(qfunctions, "qbessel", lambda *a, **k: calls.append(a) or qbessel_(*a, **k))
    with pytest.MonkeyPatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__pos__",
                     "__abs__"):
            patch.setattr(type(ctx.q), name, lambda *a, name=name: ops.append(name))
        for name in ("workdps", "workprec"):
            patch.setattr(mp, name, lambda *a, name=name: ops.append(name))
        got = qfunctions.qbessel_lattice(3, 7, ctx)
    assert len(calls) == 1 and ops == []
    assert got._mpf_ == mpf_lattice_series(3, 7, ctx)._mpf_


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.05, 0.97), dps=st.integers(20, 120), nu=st.integers(0, 40),
       z=st.floats(1e-12, 40), tail_tol=st.sampled_from([1e-25, 1e-16, 1e-40]))
def test_j_1phi1_case_is_the_integer_loop(q, dps, nu, z, tail_tol):
    # below the mpf rounding of a J value: the kernel's integers themselves,
    # the sum and largest term in units of 2^-prec
    ctx = QContext(q, 20)
    policy = TruncationPolicy(tail_tol=tail_tol)
    with mp.workdps(dps):
        z = mp.mpf(z)
        prec = qcore.series_prec()
        b = mpf_pow_int(ctx.q._mpf_, nu + 1, prec)
        total, largest, _, _ = qcore._phi_fixed([0], [to_fixed(b, prec)], to_fixed(z._mpf_, prec),
                                                to_fixed(ctx.q._mpf_, prec), prec, policy)
        want = phi11_units(nu, z, ctx, policy)
        assert (total, largest) == want[:2]
