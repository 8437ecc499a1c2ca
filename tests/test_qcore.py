from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import (QContext, TruncationPolicy, bilateral_sum, coupling, qcore,
                       multi_orthogonality_residual, qbessel_lattice, qfunctions, qpoch_finite,
                       qpoch_infinite, representation, rphis, verifier)
from qcoupling.errors import DomainError, NonConvergent, PoleInLowerParameter
from qcoupling.qcore import mantissa


def test_qcontext_validation():
    with pytest.raises(DomainError):
        QContext(1.0)
    with pytest.raises(DomainError):
        QContext(0.0)
    with pytest.raises(DomainError):
        QContext(0.5, working_precision=10)
    ctx = QContext(0.5)
    assert ctx.base_squared().q == mp.mpf(0.25)


def test_qcontext_reads_q_at_working_precision():
    # a string q is read at the working precision, not the caller's 15 digits,
    # and the squared base is exact
    with mp.workdps(15):
        ctx = QContext("0.3", 50)
        squared = QContext(0.3).base_squared()
    with mp.workdps(80):
        assert abs(ctx.q - mp.mpf("0.3")) <= mp.mpf("1e-50") * ctx.q
        assert squared.q == mp.mpf(0.3) ** 2


def test_base_squared_is_built_once():
    ctx = QContext("0.3", 40)
    squared = ctx.base_squared()
    assert squared is ctx.base_squared()
    with mp.workdps(50):
        fresh = QContext(ctx.q ** 2, 40)
    assert squared.q == fresh.q and squared == fresh


def test_qcontext_memos_are_invisible():
    # the q key and the squared base are kept on the instance, outside the
    # fields that equality, hashing and repr read
    used = QContext("0.3", 40)
    used.base_squared().base_squared()
    assert used.q_key and used.base_squared().q_key
    fresh = QContext("0.3", 40)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert {used: 1}[fresh] == 1


def test_q_key_separates_bases_and_ignores_ambient_precision():
    with mp.workdps(45):
        near = [mp.mpf("0.5"), mp.mpf("0.5") + mp.mpf("1e-20"), mp.mpf("0.5") + mp.mpf("1e-40")]
    keys = set()
    for q in near:
        with mp.workdps(15):
            low = QContext(q).q_key
        with mp.workdps(80):
            assert QContext(q).q_key == low
        keys.add(low)
    assert len(keys) == 3


with mp.workdps(45):
    _NEAR_BASES = (QContext(mp.mpf("0.5")), QContext(mp.mpf("0.5") + mp.mpf("1e-20")))
_PRECISIONS = (QContext("0.5", 30), QContext("0.5", 50))
_LEVELS = SimpleNamespace(memo={})  # the memo handed to the orthogonality residual

# (holder, table attribute, evaluation) of every user of qcore.cached
_CACHE_USERS = {
    "j": (qfunctions, "_J_CACHE", lambda ctx: qbessel_lattice(1, -5, ctx)),
    "cg-column": (representation, "_CG_COLUMNS",
                  lambda ctx: representation._cg_column(2, 1, ctx)),
    "yang-baxter-kernel": (coupling, "_YB_KERNELS",
                           lambda ctx: coupling._yb_sector_kernel(1, range(-4, 5), ctx)),
    "yang-baxter-operator": (coupling, "_YB_OPS", lambda ctx: coupling._yb_operator(
        0, 1, (-4, 4), ctx).toarray().tolist()),
    "yang-baxter-lift": (coupling, "_YB_LIFTS", lambda ctx: coupling._yb_lift(
        0, 1, (-4, 4), (0, 2), ctx).toarray().tolist()),
    "oracle-vector": (representation, "_ORACLE_VECTORS", lambda ctx: representation.sixj_oracle(
        1, 0, 0, 1, 0, representation.TruncatedFock(60), ctx)),
    "orthogonality-level": (_LEVELS, "memo", lambda ctx: multi_orthogonality_residual(
        (0, 1, 0), (1,), (1,), ctx, memo=_LEVELS.memo).value),
    "campaign-orthogonality-level": (verifier, "_ORTHOGONALITY_LEVELS",
                                     lambda ctx: verifier._eval_multi_orthogonality(
                                         (0, 1, 0), (1,), (1,), ctx, None).value),
    "q-power": (qcore, "_POWERS", lambda ctx: [qcore.qpower(k, ctx) for k in (-3, 1, 4)]),
    "weight": (coupling, "_WEIGHTS",
               lambda ctx: [coupling.weight_pair(1, e, ctx) for e in (-2, 3)]),
}


def _empty_caches(monkeypatch):
    for holder, name, _ in _CACHE_USERS.values():
        monkeypatch.setattr(holder, name, {})


@pytest.mark.parametrize("ctxs", [_NEAR_BASES, _PRECISIONS], ids=["q", "precision"])
@pytest.mark.parametrize("user", list(_CACHE_USERS))
def test_cached_tables_key_on_exact_q_and_precision(monkeypatch, user, ctxs):
    # two bases that print alike at 15 digits, or one base at precisions 30
    # and 50: each gets its own entries, equal to a fresh evaluation
    holder, name, evaluate = _CACHE_USERS[user]
    _empty_caches(monkeypatch)
    with mp.workdps(15):
        shared = [evaluate(ctxs[0])]
        per_context = len(getattr(holder, name))
        shared.append(evaluate(ctxs[1]))
    assert per_context > 0 and len(getattr(holder, name)) == 2 * per_context
    fresh = []
    for ctx in ctxs:
        _empty_caches(monkeypatch)
        with mp.workdps(15):
            fresh.append(evaluate(ctx))
    assert shared == fresh


@pytest.mark.parametrize("k", [-7, -2, 0, 1, 6, 41])
def test_qpower_is_a_power_of_the_square_root(ctx03, k):
    # q^{k/2} at the working precision plus ten digits, odd k included
    m, e = qcore.qpower(k, ctx03)
    with mp.workdps(80):
        exact = mp.sqrt(ctx03.q) ** k
        assert abs(mp.ldexp(m, e) - exact) <= exact * mp.mpf(10) ** -(ctx03.working_precision + 9)


def test_truncation_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(bilateral_window=(5, -5))
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)


@pytest.mark.parametrize("ratio", [1, 2, -0.5, float("nan")])
def test_truncation_policy_rejects_tail_ratio_outside_unit_interval(ratio):
    # the geometric tail extrapolation 1 + r / (1 - r) is finite and positive
    # only for 0 <= r < 1: r = 2 reported est_error -3.5 on a converged sum
    with pytest.raises(DomainError):
        TruncationPolicy(tail_ratio=ratio)


@pytest.mark.parametrize("kwargs", [{"bilateral_window": (0.5, 3)}, {"bilateral_window": (-3, "3")},
                                    {"max_terms": 2.5}, {"adaptive": "no"}, {"adaptive": 1}],
                         ids=["window-float", "window-str", "max-terms-float", "adaptive-str",
                              "adaptive-int"])
def test_truncation_policy_rejects_non_integer_bounds_and_non_bool_adaptive(kwargs):
    # a float window bound failed every case with TypeError, and adaptive="no"
    # ran adaptive because a non-empty string is truthy
    with pytest.raises(DomainError):
        TruncationPolicy(**kwargs)


def test_truncation_policy_keeps_integer_bounds():
    pol = TruncationPolicy(max_terms=600, bilateral_window=[-3, 3], adaptive=False)
    assert pol.bilateral_window == (-3, 3) and pol.max_terms == 600
    hash(pol)  # a window given as a list is kept as a tuple


@pytest.mark.parametrize("ratio", [0, 0.5, 0.99])
def test_truncation_policy_keeps_tail_ratio_inside_unit_interval(ratio, ctx05):
    pol = TruncationPolicy(tail_ratio=ratio, bilateral_window=(-3, 3), adaptive=False)
    res = bilateral_sum(lambda p: mantissa(mp.mpf(0.5) ** abs(p)), pol, ctx05)
    assert res.est_error > 0


def test_qpoch_finite_values(ctx05):
    assert qpoch_finite(0.7, ctx05, 0) == 1
    assert qpoch_finite(0.5, ctx05, 2) == mp.mpf("0.375")
    assert qpoch_finite(1, ctx05, 3) == 0
    with pytest.raises(DomainError):
        qpoch_finite(0.5, ctx05, -1)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-2, 2, allow_nan=False), n=st.integers(0, 30))
def test_qpoch_recurrence(a, n):
    ctx = QContext(0.5)
    lhs = qpoch_finite(a, ctx, n + 1)
    rhs = qpoch_finite(a, ctx, n) * (1 - mp.mpf(a) * ctx.q ** n)
    assert abs(lhs - rhs) <= 1e-20 * max(1, abs(lhs))


def test_qpoch_infinite_trivial(ctx05):
    assert qpoch_infinite(0, ctx05).value == 1
    assert qpoch_infinite(1, ctx05).value == 0


def test_qpoch_infinite_against_brute_product(ctx05):
    # independent oracle: plain running product to extreme depth
    brute = mp.mpf(1)
    for k in range(500):
        brute *= 1 - mp.mpf("0.5") * mp.mpf("0.5") ** k
    res = qpoch_infinite(0.5, ctx05)
    assert res.converged
    assert abs(res.value - brute) < 1e-24


def test_qpoch_infinite_reaches_working_precision():
    # the product runs until its factors are 1 to the working precision, not
    # only to the policy's absolute tail tolerance, and multiplies at that
    # precision under any ambient precision of the caller
    ctx = QContext("0.5", 40)
    for dps in (15, 45):
        with mp.workdps(dps):
            got = qpoch_infinite(ctx.q, ctx).value
        with mp.workdps(60):
            ref = mp.qp(ctx.q, ctx.q)
            assert abs(got - ref) <= mp.mpf("1e-40") * ref


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.9, 0.9), n=st.integers(1, 10))
def test_qpoch_infinite_splitting(a, n):
    ctx = QContext(0.5)
    whole = qpoch_infinite(a, ctx)
    split = qpoch_finite(a, ctx, n) * qpoch_infinite(mp.mpf(a) * ctx.q ** n, ctx).value
    assert abs(whole.value - split) <= 2 * whole.est_error + 1e-24


def test_rphis_trivial_cases(ctx05):
    assert rphis([0], [0.3], ctx05, 0).value == 1
    # upper parameter q^0 = 1 terminates at k = 0
    res = rphis([1, 0], [0.3], ctx05, 0.7)
    assert res.value == 1 and res.est_error == 0


def test_rphis_against_brute_sum(ctx05):
    # independent oracle: 200-term direct summation of the defining series
    q = ctx05.q
    nu, x = 1, mp.mpf("0.25")
    brute = mp.mpf(0)
    for k in range(200):
        t = (-1) ** k * mp.power(q, mp.mpf(k) * (k - 1) / 2) * (q * x) ** k
        t /= qpoch_finite(q ** (nu + 1), ctx05, k) * qpoch_finite(q, ctx05, k)
        brute += t
    res = rphis([0], [q ** (nu + 1)], ctx05, q * x)
    assert abs(res.value - brute) < 1e-25


def test_rphis_terminating_equals_finite_sum(ctx05):
    q = ctx05.q
    n, b, z = 4, mp.mpf("0.3"), mp.mpf("0.6")
    # explicit n-term sum computed independently (2phi1 with upper q^-n, 0)
    brute = mp.mpf(0)
    for k in range(n + 1):
        t = qpoch_finite(q ** (-n), ctx05, k) * z ** k
        t /= qpoch_finite(b, ctx05, k) * qpoch_finite(q, ctx05, k)
        brute += t
    res = rphis([q ** (-n), 0], [b], ctx05, z)
    assert res.est_error == 0
    assert abs(res.value - brute) < 1e-25


def test_rphis_pole_detection(ctx05):
    with pytest.raises(PoleInLowerParameter):
        rphis([0], [ctx05.q ** -2], ctx05, 0.5)


def test_rphis_nonconvergent(ctx05):
    # r = s+1 carries no quadratic damping factor, so |z| > 1 diverges
    with pytest.raises(NonConvergent):
        rphis([0.5, 0.3], [0.2], ctx05, 1.5, TruncationPolicy(max_terms=50))


def test_bilateral_sum_zero(ctx05):
    res = bilateral_sum(lambda p: mantissa(mp.mpf(0)), None, ctx05)
    assert res.value == 0 and res.est_error == 0 and res.converged


def test_bilateral_sum_geometric(ctx05):
    res = bilateral_sum(lambda p: mantissa(ctx05.q ** abs(p)), None, ctx05)
    assert abs(res.value - 3) < 1e-12
    assert res.converged


def test_bilateral_sum_one_sided_consistency(ctx05):
    one_sided = bilateral_sum(lambda p: mantissa(ctx05.q ** p if p >= 0 else mp.mpf(0)),
                              None, ctx05)
    assert abs(one_sided.value - 2) < 1e-12


def test_bilateral_sum_window_enlargement(ctx05):
    pol1 = TruncationPolicy(bilateral_window=(-30, 40))
    pol2 = TruncationPolicy(bilateral_window=(-40, 50))
    f = lambda p: mantissa(ctx05.q ** abs(p))
    a, b = bilateral_sum(f, pol1, ctx05), bilateral_sum(f, pol2, ctx05)
    assert abs(a.value - b.value) < 2 * pol1.tail_tol


def test_bilateral_sum_nonconvergent(ctx05):
    with pytest.raises(NonConvergent):
        bilateral_sum(lambda p: mantissa(mp.mpf(1)), TruncationPolicy(max_terms=50), ctx05)


@pytest.mark.parametrize("module", ["qcore", "qfunctions", "representation", "coupling",
                                    "multivariate", "askey_wilson", "verifier"])
def test_module_exports_resolve(module):
    import importlib

    mod = importlib.import_module(f"qcoupling.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
