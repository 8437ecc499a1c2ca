import random

import mpmath as mp
import pytest

from qcoupling import (AWParams, LimitSchedule, MultiAWParams, QContext, aw_poly, limit_check,
                       multi_aw, qpoch_finite, qpoch_infinite)
from qcoupling.askey_wilson import _limit_target
from qcoupling.errors import DomainError
from series_oracles import mpf_aw_poly


def test_aw_degree_zero(ctx05):
    p = AWParams(0, 0.8, 0.3, 0.45, 0.2, 0.15)
    assert aw_poly(p, ctx05) == 1


def test_aw_against_split_form(ctx05):
    # independent oracle: prefactor times the balanced terminating series,
    # summed directly (generic parameters, no collisions)
    q = ctx05.q
    rng = random.Random(2)
    for n in range(1, 7):
        a, b, c, d = (mp.mpf(rng.uniform(0.1, 0.6)) for _ in range(4))
        x = mp.mpf(rng.uniform(0.5, 1.5))
        big = a * b * c * d * q ** (n - 1)
        series = mp.mpf(0)
        term = mp.mpf(1)
        for k in range(n + 1):
            series += term
            num = (1 - q ** (k - n)) * (1 - big * q ** k) * (1 - a * x * q ** k) \
                * (1 - a / x * q ** k)
            den = (1 - a * b * q ** k) * (1 - a * c * q ** k) * (1 - a * d * q ** k) \
                * (1 - q ** (k + 1))
            term = term * num / den * q
        split = qpoch_finite(a * b, ctx05, n) * qpoch_finite(a * c, ctx05, n) \
            * qpoch_finite(a * d, ctx05, n) / a ** n * series
        merged = aw_poly(AWParams(n, x, a, b, c, d), ctx05)
        assert abs(merged - split) <= 1e-12 * max(abs(split), mp.mpf("1e-30"))


def test_aw_parameter_symmetry(ctx05):
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(0, 5)
        a, b, c, d = (rng.uniform(0.05, 0.7) for _ in range(4))
        x = rng.uniform(0.4, 2.0)
        v1 = aw_poly(AWParams(n, x, a, b, c, d), ctx05)
        v2 = aw_poly(AWParams(n, x, b, a, c, d), ctx05)
        assert abs(v1 - v2) <= 1e-10 * max(abs(v1), mp.mpf("1e-30"))


def test_aw_point_inversion(ctx05):
    for n in (1, 3, 6):
        v1 = aw_poly(AWParams(n, 0.8, 0.3, 0.45, 0.2, 0.15), ctx05)
        v2 = aw_poly(AWParams(n, 1 / mp.mpf("0.8"), 0.3, 0.45, 0.2, 0.15), ctx05)
        assert abs(v1 - v2) <= 1e-12 * abs(v1)


def test_aw_symmetry_guard_follows_cancellation():
    # at degree 14 and q = 0.3 the merged sum cancels to about 50 digits, more
    # than a fixed 15-digit guard over working precision 30 holds
    from qcoupling import eval_single

    for n in (14, 20):
        result = eval_single("aw-symmetry", {"n": n}, 0.3)
        assert result.passed and result.residual < 1e-25


def test_aw_and_wall_alt_keep_the_working_precision_at_low_ambient_precision():
    # both used to round their value to the caller's mp.dps: at the default 15
    # digits the result was a 53-bit float, off by 1.4e-17 and 7.1e-17
    from qcoupling import WallParams, wall_poly, wall_poly_alt

    ctx = QContext("0.5", 40)
    p = AWParams(6, "0.8", "0.3", "0.45", "0.2", "0.15")
    w = WallParams(5, 3, "0.5")
    with mp.workdps(15):
        aw, alt = aw_poly(p, ctx), wall_poly_alt(w, ctx)
    with mp.workdps(80):
        want_aw = mpf_aw_poly(p, QContext("0.5", 70))
        want_wall = wall_poly(w, QContext("0.5", 70))
        assert abs(aw - want_aw) <= mp.mpf(10) ** -40 * abs(want_aw)
        assert abs(alt - want_wall) <= mp.mpf(10) ** -40 * abs(want_wall)


def test_aw_collision_is_finite(ctx05):
    # ac = 1 makes the split form 0 x inf; the merged sum stays finite
    a, c = mp.mpf(2), mp.mpf("0.5")
    v = aw_poly(AWParams(2, 0.9, a, 0.3, c, 0.2), ctx05)
    assert mp.isfinite(v)


def test_multi_aw_single_variable_reduction(ctx05):
    alpha = tuple(mp.mpf(v) for v in ("0.4", "0.3", "0.5", "0.7"))
    p = MultiAWParams((3,), (mp.mpf("0.9"),), alpha)
    got = multi_aw(p, ctx05)
    expect = aw_poly(AWParams(3, "0.9", alpha[1], alpha[1] / alpha[0] ** 2,
                              alpha[2] / alpha[1] * alpha[3],
                              alpha[2] / alpha[1] / alpha[3]), ctx05)
    assert abs(got - expect) < 1e-20


def test_multi_aw_zero_degrees(ctx05):
    alpha = tuple(mp.mpf(v) for v in ("0.4", "0.3", "0.5", "0.6", "0.7"))
    p = MultiAWParams((0, 0), (mp.mpf("0.9"), mp.mpf("1.1")), alpha)
    assert multi_aw(p, ctx05) == 1


def test_multi_aw_factorwise(ctx05):
    alpha = tuple(mp.mpf(v) for v in ("0.4", "0.3", "0.5", "0.6", "0.7"))
    xs = (mp.mpf("0.9"), mp.mpf("1.1"))
    p = MultiAWParams((1, 1), xs, alpha)
    f1 = aw_poly(AWParams(1, xs[0], alpha[1], alpha[1] / alpha[0] ** 2,
                          alpha[2] / alpha[1] * xs[1], alpha[2] / alpha[1] / xs[1]), ctx05)
    f2 = aw_poly(AWParams(1, xs[1], alpha[2] * ctx05.q, alpha[2] / alpha[0] ** 2 * ctx05.q,
                          alpha[3] / alpha[2] * alpha[4], alpha[3] / alpha[2] / alpha[4]), ctx05)
    assert abs(multi_aw(p, ctx05) - f1 * f2) < 1e-20


def test_limit_schedule_validation():
    with pytest.raises(DomainError):
        LimitSchedule((3, 2), (0,), (0, 0, 0), (0,))
    with pytest.raises(DomainError):
        LimitSchedule((1, 2), (0, 0), (0, 0, 0), (0, 0))


def test_limit_schedule_lambda_vector():
    s = LimitSchedule((1, 2), (1, -1), (2, 0, 0, 0), (0, 0))
    assert s.lambda_vector() == (1, 2)


def test_limit_target_prefactor_at_zero_labels(ctx05):
    # with every label zero the sign-power prefactor collapses and the target
    # is (q;q)_inf times the single q-Bessel factor
    from qcoupling import MultiBesselParams, multi_qbessel

    s = LimitSchedule((1,), (0,), (0, 0, 0), (0,))
    tgt = _limit_target(s, ctx05)
    expect = qpoch_infinite(ctx05.q, ctx05).value \
        * multi_qbessel(MultiBesselParams((0, 0, 0), (0,), (0,)), ctx05)
    assert abs(tgt - expect) < 1e-25


def test_limit_check_convergence_single_variable(ctx05):
    pts = limit_check(LimitSchedule(tuple(range(3, 9)), (0,), (0, 3, 1), (0,)), ctx05)
    errs = [p.rel_error for p in pts if not p.skipped]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_limit_check_trend_all_zero_labels(ctx05):
    # errors fall monotonically here too, though this slowly converging
    # instance is still above 1e-2 at the last scheduled point
    pts = limit_check(LimitSchedule(tuple(range(3, 9)), (0,), (0, 0, 0), (0,)), ctx05)
    errs = [p.rel_error for p in pts if not p.skipped]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_limit_check_m_vs_m_plus_two(ctx05):
    pts = limit_check(LimitSchedule((3, 5, 7), (0,), (0, 2, 1), (0,)), ctx05)
    errs = [p.rel_error for p in pts]
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_limit_check_domain_guard(ctx05):
    with pytest.raises(DomainError):
        # factor order nu_1 - x_2 - Lambda_0 = -1 leaves the domain
        limit_check(LimitSchedule((3, 4), (0,), (2, 1, 0), (0,)), ctx05)


def test_limit_check_skip_and_report(ctx05):
    # early m where the normalizer Pochhammer vanishes is skipped, not fatal
    pts = limit_check(LimitSchedule((1, 2, 6), (1,), (1, 3, 0), (1,)), ctx05)
    assert any(p.skipped for p in pts)
    assert any(not p.skipped for p in pts)
