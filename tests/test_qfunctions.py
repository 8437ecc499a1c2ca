import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import (QContext, TruncationPolicy, WallParams, eval_single, genfun_check,
                       qbessel, qbessel_lattice, qpoch_finite, qpoch_infinite,
                       wall_genfun_check, wall_orthonormal_run, wall_poly, wall_poly_alt)
from qcoupling import qfunctions
from qcoupling.qcore import cached
from qcoupling.errors import DomainError, NonConvergent
from series_oracles import mpf_rphis


def test_wall_degree_zero(ctx05):
    for x in (0, 2, 5):
        assert wall_poly(WallParams(0, x, 0.5), ctx05) == 1


def test_wall_at_origin_closed_value(ctx05):
    # p_n(1; a; q) = (-a)^n q^{n(n+1)/2} / (aq;q)_n  (the 2phi0 form collapses
    # to its k=0 term); verified here by direct finite summation of the 2phi1
    q = ctx05.q
    a = mp.mpf("0.5")
    for n in (1, 2, 4):
        brute = mp.mpf(0)
        for k in range(n + 1):
            t = qpoch_finite(q ** (-n), ctx05, k) * q ** k
            t /= qpoch_finite(a * q, ctx05, k) * qpoch_finite(q, ctx05, k)
            brute += t
        closed = (-a) ** n * q ** (mp.mpf(n) * (n + 1) / 2) / qpoch_finite(a * q, ctx05, n)
        assert abs(brute - closed) < 1e-25
        assert abs(wall_poly(WallParams(n, 0, a), ctx05) - closed) < 1e-25


def test_wall_two_term_instance(ctx05):
    # n=1, x=1: 1 + (1-q^{-1}) q^2 / ((1-aq)(1-q)) computed by hand
    q, a = ctx05.q, mp.mpf("0.5")
    expect = 1 + (1 - 1 / q) * q ** 2 / ((1 - a * q) * (1 - q))
    got = wall_poly(WallParams(1, 1, a), ctx05)
    assert abs(got - expect) < 1e-25
    assert abs(wall_poly_alt(WallParams(1, 1, a), ctx05) - expect) < 1e-20


@pytest.mark.parametrize("qs", ["0.3", "0.5", "0.7"])
def test_wall_closed_form_consistency(qs):
    ctx = QContext(qs)
    for a in (mp.mpf("0.3"), mp.mpf("0.5"), mp.mpf("1.0")):
        for n in range(0, 9, 2):
            for x in range(0, 9, 2):
                v1 = wall_poly(WallParams(n, x, a), ctx)
                v2 = wall_poly_alt(WallParams(n, x, a), ctx)
                assert abs(v1 - v2) <= 1e-12 * max(abs(v1), mp.mpf("1e-30"))


def test_wall_poly_keeps_the_working_precision_at_small_x():
    # at x = 0 the terms cancel past the degree-sized first guard: at n = 8
    # the value is 7.4e-22 against a largest term of 7.8e14, and that guard
    # left it right only to 1.6e-30 (1e-20 at n = 10) at working precision 30
    for n in (8, 10):
        p = WallParams(n, 0, 0.5)
        ref = wall_poly(p, QContext(0.3, 120))
        got = wall_poly(p, QContext(0.3, 30))
        with mp.workdps(130):
            assert abs(got - ref) <= abs(ref) * mp.mpf("1e-32")


def _wall_bar_prefactor(p, ctx):
    q = ctx.q
    a = mp.mpf(p.a)
    if not a < 1 / q:
        raise DomainError("orthonormal Wall needs 0 < a < 1/q")
    if not a > 0:
        raise DomainError("orthonormal Wall needs a > 0")
    rad = (a * q) ** (p.x - p.n) * qpoch_infinite(a * q, ctx).value \
        * qpoch_finite(a * q, ctx, p.n) / (qpoch_finite(q, ctx, p.n) * qpoch_finite(q, ctx, p.x))
    return (-1) ** (p.n + p.x) * mp.sqrt(rad)


def wall_orthonormal(p, ctx):
    """The orthonormal Wall value as the prefactor times the 2phi1 ``wall_poly``,
    on mpf: the oracle of ``wall_orthonormal_run``."""
    # the 2phi1 alternates with terms up to ~q^{-n^2/2}; scale guard digits accordingly
    guard = int(mp.ceil(p.n * p.n / 2 * mp.log(1 / ctx.q, 10))) + 10
    with ctx.workdps(guard):
        val = _wall_bar_prefactor(p, ctx) * wall_poly(p, ctx)
    return +val


def test_wall_orthonormal_base_value(ctx05):
    got = wall_orthonormal(WallParams(0, 0, 1), ctx05)
    expect = mp.sqrt(qpoch_infinite(ctx05.q, ctx05).value)
    assert abs(got - expect) < 1e-25


def test_wall_orthonormal_domain(ctx05):
    with pytest.raises(DomainError):
        wall_orthonormal(WallParams(1, 1, 2.5), ctx05)  # a >= 1/q


def test_wall_orthonormal_dual_orthogonality(ctx05):
    # sum over degrees at fixed lattice points: delta_{xy}
    a = mp.mpf("0.5")
    runs = {x: wall_orthonormal_run(x, a, ctx05, 80) for x in (0, 1, 3)}
    for (x, y, want) in [(0, 0, 1.0), (1, 3, 0.0), (3, 3, 1.0)]:
        s = sum(u * v for u, v in zip(runs[x], runs[y]))
        assert abs(s - want) < 1e-10


def test_wall_orthonormal_primal_orthogonality(ctx05):
    # sum over lattice points at fixed degrees: delta_{nm}
    a = mp.mpf("0.5")
    for (n, m, want) in [(1, 0, 0.0), (0, 0, 1.0), (2, 2, 1.0)]:
        s = mp.fsum(wall_orthonormal(WallParams(n, x, a), ctx05)
                    * wall_orthonormal(WallParams(m, x, a), ctx05) for x in range(0, 120))
        assert abs(s - want) < 1e-10


def test_wall_orthonormal_run_matches_direct(ctx05):
    for (x, a) in [(0, mp.mpf("0.5")), (3, mp.mpf("0.25")), (6, ctx05.q ** 4)]:
        run = wall_orthonormal_run(x, a, ctx05, 14)
        for n in range(14):
            direct = wall_orthonormal(WallParams(n, x, a), ctx05)
            assert abs(run[n] - float(direct)) < 1e-12


def _mpf_wall_run(x, a, ctx, nmax, extra):
    """The mpf recurrence ``wall_orthonormal_run`` replaced, at the working
    precision plus ``extra`` digits, with its stop rule.  It reads a at that
    precision (the replaced code read it at the caller's)."""
    q = ctx.q
    with ctx.workdps(extra):
        a = mp.mpf(a)
        y = q ** x
        p0 = (-1) ** x * mp.sqrt((a * q) ** x * qpoch_infinite(a * q, ctx).value
                                 / qpoch_finite(q, ctx, x))
        vals, pm1, bm1, vmax = [p0], mp.mpf(0), mp.mpf(0), abs(p0)
        for n in range(nmax - 1):
            bn = q ** n * mp.sqrt(a * q * (1 - q ** (n + 1)) * (1 - a * q ** (n + 1)))
            dn = q ** n * (1 - a * q ** (n + 1)) + a * q ** n * (1 - q ** n)
            pn1 = ((y - dn) * vals[n] - bm1 * pm1) / bn
            recent = max(abs(v) for v in vals[-3:])
            if vmax > mp.mpf("0.01") and (abs(pn1) < mp.mpf(1e-28)
                                          or (abs(pn1) > recent and recent < mp.mpf("1e-12"))):
                break
            pm1, bm1 = vals[n], bn
            vals.append(pn1)
            vmax = max(vmax, abs(pn1))
    return [float(v) for v in vals] + [0.0] * (nmax - len(vals))


# (q, working precision, x range, s range): the Clebsch-Gordan columns the
# matrix-model and chain-campaign benchmark workloads build (q = 0.3 and
# 0.5, nmax 70), then q = 0.7 and a wider working precision
_WALL_GRID = [("0.3", 30, range(13), range(12)), ("0.5", 30, range(15), range(14)),
              ("0.7", 30, range(0, 15, 2), range(0, 14, 3)),
              ("0.5", 50, range(0, 15, 2), range(0, 14, 3))]


def _wall_columns():
    for qs, wp, xs, ss in _WALL_GRID:
        ctx2 = QContext(qs, wp).base_squared()
        for x in xs:
            for s in ss:
                with ctx2.workdps(10):
                    a = ctx2.q ** s
                yield ctx2, x, a, wall_orthonormal_run(x, a, ctx2, 70)


def test_wall_run_matches_a_wide_precision_recurrence():
    # the integer kernel against the mpf recurrence 170 digits above the
    # working precision: the same support (no noise entries in the tail;
    # the mpf recurrence 25 digits above left 368, up to 8.2e-15, in 260 of
    # these 446 columns) and the same floats to 1e-16
    for ctx2, x, a, col in _wall_columns():
        ref = _mpf_wall_run(x, a, ctx2, 70, 170)
        assert [v != 0.0 for v in col] == [v != 0.0 for v in ref], (ctx2.q, x, a)
        assert max(abs(u - v) for u, v in zip(col, ref)) <= 1e-16


def test_wall_run_matches_the_mpf_recurrence_it_replaced():
    # at the replaced recurrence's own precision every entry above 1e-12
    # agrees to 1e-14; below that its tail carries rounding noise
    for ctx2, x, a, col in _wall_columns():
        old = _mpf_wall_run(x, a, ctx2, 70, 25)
        for u, v in zip(col, old):
            if abs(v) > 1e-12:
                assert abs(u - v) <= 1e-14


def test_wall_run_ignores_ambient_precision():
    ctx2 = QContext("0.3").base_squared()
    a = ctx2.q ** 3
    with mp.workdps(15):
        low = wall_orthonormal_run(4, a, ctx2, 70)
    with mp.workdps(80):
        assert wall_orthonormal_run(4, a, ctx2, 70) == low


def test_qbessel_at_zero(ctx05):
    assert qbessel(0, 0, ctx05) == 1
    for nu in (1, 2, 5):
        assert qbessel(nu, 0, ctx05) == 0


def test_qbessel_against_brute_series(ctx05):
    # independent oracle: direct 200-term summation at high precision
    q = ctx05.q
    for (nu, y) in [(0, 0), (2, 1), (1, -3), (3, 2)]:
        x = q ** y
        with mp.workdps(80):
            brute = mp.mpf(0)
            for k in range(200):
                t = (-1) ** k * mp.power(q, mp.mpf(k) * (k - 1) / 2) * (q * x) ** k
                t /= qpoch_finite(q ** (nu + 1), ctx05, k) * qpoch_finite(q, ctx05, k)
                brute += t
            brute *= x ** (mp.mpf(nu) / 2) * qpoch_infinite(q ** (nu + 1), ctx05).value \
                / qpoch_infinite(q, ctx05).value
        assert abs(qbessel_lattice(nu, y, ctx05) - brute) < 1e-24


def test_qbessel_negative_order_reflection(ctx05):
    lhs = qbessel(-2, 0.25, ctx05)
    rhs = (-1) ** 2 * ctx05.q * qbessel(2, 0.25 * ctx05.q ** 2, ctx05)
    assert abs(lhs - rhs) < 1e-25


def test_qbessel_reflection_involution(ctx05):
    # inverting the negative-order rewrite returns the original value; the
    # negative-order evaluation itself applies the rewrite once internally
    for (n, y) in [(1, 0), (3, 2), (2, -2)]:
        orig = qbessel_lattice(n, y, ctx05)
        reflected = (-1) ** n * ctx05.q ** (-mp.mpf(n) / 2) * qbessel_lattice(-n, y - n, ctx05)
        assert abs(orig - reflected) <= 1e-12 * abs(orig)


def test_qbessel_negative_order_ignores_ambient_precision():
    # the reflection prefactor is applied at the working precision, so the
    # value is the same whichever ambient precision the first caller had
    ctx = QContext("0.3")
    values = []
    for dps in (15, 60):
        qfunctions._J_CACHE.clear()
        with mp.workdps(dps):
            values.append(qbessel_lattice(-2, -15, ctx))
    qfunctions._J_CACHE.clear()
    assert values[0] == values[1]


def test_qbessel_off_lattice_ignores_ambient_precision(ctx05):
    # an off-lattice argument is read at the working precision: a string x
    # gives the same value whichever ambient precision the caller had
    for nu in (1, -2):
        values = []
        for dps in (15, 45):
            with mp.workdps(dps):
                values.append(qbessel(nu, "0.3", ctx05))
        assert values[0] == values[1]


def test_qbessel_series_rounds_that_never_agree_raise(ctx05, monkeypatch):
    # a deep off-lattice argument re-widens the series until two rounds agree;
    # when none do, the value is flagged instead of returned
    calls = []
    kernel = qfunctions._phi_fixed

    def drifting(*args, **kwargs):
        calls.append(1)
        total, largest, thr, terms = kernel(*args, **kwargs)
        return total * len(calls), largest * len(calls), thr, terms

    monkeypatch.setattr(qfunctions, "_phi_fixed", drifting)
    with pytest.raises(NonConvergent):
        qbessel(1, 7, ctx05)
    assert len(calls) == 8


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_qbessel_non_finite_argument_is_a_domain_error(ctx05, monkeypatch, x):
    # refused before any series (a call to the series, swapped out here,
    # would raise TypeError): nan used to run eight rounds into
    # NonConvergent, inf to fail converting to an integer; a genfun case
    # reports the same DomainError
    monkeypatch.setattr(qfunctions, "_series", None)
    with pytest.raises(DomainError, match="finite"):
        qbessel(1, x, ctx05)
    result = eval_single("genfun", {"nu": 1, "x": x, "t": 0.25}, 0.5)
    assert not result.passed and result.error.startswith("DomainError: qbessel needs a finite x")


def test_qbessel_off_lattice_near_one_is_within_its_rounding():
    # at q = 0.98 and working precision 15 the values are rounded at 20
    # digits; a 1phi1 summed only 20 bits past the round's precision was off
    # by 1.05e-19 at J_9(q^12).  Reference: x^{n/2} / (q;q)_n *
    # 1phi1(0; q^{n+1}; q, q x) from mpmath's qhyper and qp
    ctx = QContext(0.98, 15)
    q = ctx.q

    def error(n, x, dps):
        got = qbessel(n, x, ctx)
        with mp.workdps(dps):
            ref = x ** (mp.mpf(n) / 2) / mp.qp(q, q, n) \
                * mp.qhyper([0], [q ** (n + 1)], q, q * x)
            return abs(got - ref) / abs(ref)

    with mp.workdps(60):
        x = q ** 12
    assert error(9, x, 300) <= 1e-21
    for n in range(0, 41, 3):
        for m in range(0, 41, 3):
            with mp.workdps(60):
                x = q ** m
            # 100 digits give the same errors as 300 here, in half the time
            assert error(n, x, 100) <= 1e-19, (n, m)


def test_qbessel_series_max_terms_raise(ctx05):
    # at x = 1 the terms stay near 1 for several steps, so a three-term cap is hit
    with pytest.raises(NonConvergent):
        qbessel(0, 1, ctx05, TruncationPolicy(max_terms=3))
    assert qbessel(0, 1, ctx05, TruncationPolicy(max_terms=30)) != 0


def _largest_phi11_term(nu, z, ctx):
    """Largest term magnitude of 1phi1(0; q^{nu+1}; q, z).

    The term ratio -q^k z / ((1 - q^{k+1}) (1 - q^{nu+1+k})) falls in
    magnitude with k, so the terms peak once and the walk stops when they
    are below the current precision of that peak.
    """
    q = ctx.q
    term = top = mp.mpf(1)
    k = 0
    while abs(term) >= top * mp.eps:
        term *= -q ** k * z / ((1 - q ** (k + 1)) * (1 - q ** (nu + 1 + k)))
        top = max(top, abs(term))
        k += 1
    return top


def _mpf_rphis_j(nu, x, ctx):
    """J_nu(x) for nu >= 0 from the mpf series loop (``series_oracles.mpf_rphis``)
    and ``qpoch_finite``, at a precision that covers the series' cancellation:
    the reference for the fixed-point kernel."""
    q = ctx.q
    with ctx.workdps(10):
        x = mp.mpf(x)
        y = mp.log(x) / mp.log(q)
    extra = 30 + int(mp.ceil(max(-y, 0) ** 2 * mp.log(1 / q, 10)))
    while True:
        with ctx.workdps(extra):
            series, _ = mpf_rphis([mp.mpf(0)], [q ** (nu + 1)], ctx, q * x)
            lost = mp.log10(_largest_phi11_term(nu, q * x, ctx) / abs(series.value))
            if lost < extra - 20:
                return x ** (mp.mpf(nu) / 2) / qpoch_finite(q, ctx, nu) * series.value
        extra = int(lost) + 40


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.05, 0.97), wp=st.sampled_from([20, 30, 50, 80]),
       n=st.integers(0, 60), m=st.integers(0, 60),
       x=st.one_of(st.none(), st.floats(0, 20, exclude_min=True)))
def test_qbessel_kernel_matches_rphis(q, wp, n, m, x):
    # the fixed-point kernel against the mpf series loop: a canonical lattice
    # pair 0 <= n <= m, or an off-lattice argument x in (0, 20]
    ctx = QContext(q, wp)
    n, m = min(n, m), max(n, m)
    if x is None:
        got = qfunctions._series(n, m, ctx, None)
        with ctx.workdps(10):
            x = ctx.q ** m
    else:
        got = qbessel(n, x, ctx)
    want = _mpf_rphis_j(n, x, ctx)
    with mp.workdps(wp + 20):
        assert abs(got - want) <= mp.mpf(10) ** (-wp) * abs(want)


def _series_oracle(nu, y, ctx):
    """J_nu(q^y) from the series alone, negative orders by the reflection."""
    n = abs(nu)
    if nu >= 0:
        return qfunctions._series(n, y, ctx, None)
    with mp.workdps(ctx.working_precision + 20):
        return (-1) ** n * mp.sqrt(ctx.q) ** n * qfunctions._series(n, y + n, ctx, None)


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(-5, 5), y=st.integers(-20, -1), q=st.floats(0.2, 0.9),
       wp=st.sampled_from([20, 30, 50]))
def test_qbessel_swap_path_matches_series(nu, y, q, wp):
    # a negative argument reaches the series only at its orbit's canonical
    # pair; the oracle sums the series at the original y < 0 itself
    ctx = QContext(q, wp)
    got = qbessel_lattice(nu, y, ctx)
    want = _series_oracle(nu, y, ctx)
    with mp.workdps(wp + 20):
        assert abs(got - want) <= mp.mpf(10) ** (-wp) * abs(want)


@pytest.mark.parametrize("qs", ["0.3", "0.95"])
def test_qbessel_series_swap_symmetry(qs):
    # J_n(q^m) = J_m(q^n): the Euler expansion of the 1phi1 is a double sum
    # symmetric in (n, m); both sides straight from the series
    ctx = QContext(qs)
    tol = mp.mpf(10) ** (2 - ctx.working_precision)
    for n in range(13):
        for m in range(n + 1, 13):
            a = qfunctions._series(n, m, ctx, None)
            b = qfunctions._series(m, n, ctx, None)
            assert abs(a - b) <= tol * abs(a)


@pytest.mark.parametrize("qs", ["0.3", "0.95"])
def test_qbessel_lattice_hahn_exton_equation(qs):
    # q^{nu/2} (J(y+1) + J(y-1)) = (1 + q^nu - q^y) J(y) at y < 0 and for
    # negative orders: a sign or exponent slip in the orbit map breaks it
    ctx = QContext(qs)
    q = ctx.q
    tol = mp.mpf(10) ** (2 - ctx.working_precision)
    for nu in (-5, -2, -1, 0, 3):
        for y in range(-15, 0):
            up, mid, down = (qbessel_lattice(nu, y + d, ctx) for d in (1, 0, -1))
            with ctx.workdps(10):
                up, down = mp.sqrt(q) ** nu * up, mp.sqrt(q) ** nu * down
                rhs = (1 + q ** nu - q ** y) * mid
                assert abs(up + down - rhs) <= tol * max(abs(up), abs(down), abs(rhs))


def test_qbessel_lattice_sums_each_orbit_once(monkeypatch):
    # a count guard: J_n(q^m) = J_m(q^n), so the 121 lattice values over
    # n, m in 0..10 need only the 66 series of the pairs n <= m
    calls = []
    series = qfunctions._series
    monkeypatch.setattr(qfunctions, "_series",
                        lambda *a: calls.append(a[:2]) or series(*a))
    ctx = QContext("0.5")
    qfunctions._J_CACHE.clear()
    for n in range(11):
        for m in range(11):
            qbessel_lattice(n, m, ctx)
    qfunctions._J_CACHE.clear()
    assert len(calls) == 66
    assert all(0 <= nu <= y for nu, y in calls)


def test_qbessel_lattice_fill_order_does_not_matter():
    # every value is its orbit's canonical series value times a factor fixed
    # by (nu, y), so a column filled upward is bit for bit the column filled
    # downward
    columns = []
    for ys in (range(-20, 0), range(-1, -21, -1)):
        qfunctions._J_CACHE.clear()
        columns.append({(nu, qs, y): qbessel_lattice(nu, y, QContext(qs))
                        for qs in ("0.3", "0.5") for nu in (0, 3, -2) for y in ys})
    qfunctions._J_CACHE.clear()
    assert columns[0] == columns[1]


def test_qbessel_lattice_keys_on_exact_q():
    # two bases that agree to 20 digits print alike at the default 15 digits;
    # each must get its own table entry, equal to a fresh evaluation
    with mp.workdps(45):
        ctxs = [QContext(mp.mpf("0.5")), QContext(mp.mpf("0.5") + mp.mpf("1e-20"))]
    qfunctions._J_CACHE.clear()
    with mp.workdps(15):
        shared = [qbessel_lattice(1, -5, ctx) for ctx in ctxs]
    entries = [k for k in qfunctions._J_CACHE if k[:2] == (1, -5)]
    fresh = []
    for ctx in ctxs:
        qfunctions._J_CACHE.clear()
        with mp.workdps(15):
            fresh.append(qbessel_lattice(1, -5, ctx))
    qfunctions._J_CACHE.clear()
    assert len(entries) == 2
    assert shared == fresh and shared[0] != shared[1]


class _CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_qbessel_lattice_warm_lookup_is_one_get_of_the_cached_key(monkeypatch):
    # a count guard: a warm value costs one dict get, and the key written out
    # inline is the one qcore.cached builds, so cached reads the stored value
    ctx = QContext("0.5")
    table = _CountingDict()
    monkeypatch.setattr(qfunctions, "_J_CACHE", table)
    want = qbessel_lattice(1, -5, ctx)
    assert cached(table, ctx, (1, -5), lambda: None) is want
    table.lookups = 0
    assert qbessel_lattice(1, -5, ctx) is want
    assert table.lookups == 1


def test_qbessel_lattice_one_entry_per_ambient_precision():
    ctx = QContext("0.3")
    qfunctions._J_CACHE.clear()
    values = []
    for dps in (15, 60):
        with mp.workdps(dps):
            values.append(qbessel_lattice(0, -3, ctx))
    entries = [k for k in qfunctions._J_CACHE if k[:2] == (0, -3)]
    qfunctions._J_CACHE.clear()
    assert len(entries) == 1 and values[0] == values[1]


def test_qbessel_lattice_labels_are_integers(monkeypatch):
    # 0.5 used to be summed as J_0(q^2) and cached under the order 0.5; numpy
    # integers used to raise TypeError from mpf and are now read as the ints
    # they hold, the entry stored under int labels
    ctx = QContext("0.5")
    monkeypatch.setattr(qfunctions, "_J_CACHE", {})
    with pytest.raises(DomainError):
        qbessel_lattice(0.5, 2, ctx)
    with pytest.raises(DomainError):
        qbessel_lattice(0, 2.5, ctx)
    assert not qfunctions._J_CACHE
    got = qbessel_lattice(np.int32(0), np.int64(43), ctx)
    assert all(type(nu) is int and type(y) is int for nu, y, *_ in qfunctions._J_CACHE)
    assert qbessel_lattice(0, 43, ctx) is got
    monkeypatch.setattr(qfunctions, "_J_CACHE", {})
    assert qbessel_lattice(0, 43, ctx) == got


def test_qbessel_order_is_an_integer(ctx05):
    # the order 1.5 used to be truncated to 1, returning J_1
    with pytest.raises(DomainError):
        qbessel(1.5, "0.3", ctx05)
    assert qbessel(np.int64(1), "0.3", ctx05) == qbessel(1, "0.3", ctx05)


def test_qbessel_high_order_prefactor():
    # (q^{nu+1}; q)_inf / (q; q)_inf is 1 / (q; q)_nu exactly; at nu = 90 the
    # numerator is 1 to 27 digits, so a product cut at an absolute tolerance
    # leaves a relative error at that tolerance
    ctx = QContext("0.5")
    got = qbessel_lattice(90, 0, ctx)
    with mp.workdps(120):
        q = ctx.q
        ref = mp.qp(q ** 91, q) / mp.qp(q, q) * mp.qhyper([0], [q ** 91], q, q)
        assert abs(got - ref) <= mp.mpf("1e-30") * abs(ref)


@pytest.mark.parametrize("qs", ["0.95", "0.97"])
def test_qbessel_series_cancellation_near_one(qs):
    # near q = 1 the y >= 0 series terms grow like 1/(q;q)_k^2 before they
    # decay, so its guard follows the cancellation; y = -1 maps to the
    # series at J_1(q^1), which needs that guard too
    ctx = QContext(qs)
    q = ctx.q
    for y in (0, -1):
        got = qbessel_lattice(0, y, ctx)
        with mp.workdps(120):
            ref = mp.qhyper([0], [q], q, q ** (y + 1))  # J_0(x) = 1phi1(0; q; q, qx)
            assert abs(got - ref) <= mp.mpf("1e-30") * abs(ref)


def test_qbessel_domain(ctx05):
    with pytest.raises(DomainError):
        qbessel(1, -0.5, ctx05)


@pytest.mark.parametrize("qs", ["0.3", "0.5", "0.7"])
def test_qhankel_orthogonality_spots(qs):
    from qcoupling import bilateral_sum
    from qcoupling.qcore import mantissa

    ctx = QContext(qs)
    q = ctx.q
    for (nu, m, n) in [(0, 0, 0), (2, 1, -1), (-2, -3, 2), (3, 3, 3)]:
        res = bilateral_sum(lambda x: mantissa(qbessel_lattice(nu, x + m, ctx)
                                               * qbessel_lattice(nu, x + n, ctx) * q ** x),
                            TruncationPolicy(tail_tol=1e-16, max_terms=500), ctx)
        target = q ** (-n) if m == n else mp.mpf(0)
        assert abs(res.value - target) < 1e-10


def test_genfun_residuals(ctx05):
    assert genfun_check(1, 0.5, 0, ctx05).value < 1e-20
    assert genfun_check(1, 0.5, 0.25, ctx05).value < 1e-10
    assert genfun_check(0, 0, 0.5, ctx05).value < 1e-20
    with pytest.raises(DomainError):
        genfun_check(1, 0.5, 1.0, ctx05)


def test_genfun_checks_report_the_estimates_their_sums_reached(ctx05):
    # the LHS tail and the 1phi1 (or Wall polynomial) estimates, not the
    # policy's tail_tol with converged=True
    loose, default = TruncationPolicy(tail_tol=1e-8), TruncationPolicy()
    cases = [(genfun_check, (1, 0.5, 0.25)), (wall_genfun_check, (2, 3, 0.5))]
    for check, args in cases:
        ests = []
        for pol in (loose, default):
            res = check(*args, ctx05, pol)
            assert res.est_error != pol.tail_tol
            assert res.value <= res.est_error
            assert res.converged == (res.est_error <= pol.tail_tol)
            ests.append(res.est_error)
        # the looser tolerance stops earlier, with a larger estimate
        assert ests[0] > ests[1] > 0


def test_genfun_lhs_stops_on_the_bilateral_threshold(ctx05):
    # the LHS stops on three terms below tail_tol / 30, as bilateral_sum's
    # boundary does, so the estimate lands under tail_tol; stopping below
    # tail_tol itself reported est 3.3e-25 and converged=False here
    for res in (genfun_check(1, 0.5, 0.25, ctx05), wall_genfun_check(2, 3, 0.5, ctx05)):
        assert res.converged and res.est_error <= TruncationPolicy().tail_tol


def test_wall_genfun_residuals():
    ctx05 = QContext("0.5")
    ctx03 = QContext("0.3")
    # n=0 reduces to the generating relation at t = q^{nu+1}
    assert wall_genfun_check(0, 1, 0.5, ctx05).value < 1e-10
    assert wall_genfun_check(1, 2, 0.25, ctx05).value < 1e-10
    assert wall_genfun_check(2, 0, 0.5, ctx03).value < 1e-10


def test_wall_genfun_rejects_a_pole_in_the_wall_sum():
    ctx05 = QContext("0.5")
    # x q = q^-m with m < n puts the pole of the Wall sum's lower parameter
    # inside the sum; this failed with PoleInLowerParameter at x = 2
    for x in (2.0, 4.0):
        with pytest.raises(DomainError, match=f"x = {x}"):
            wall_genfun_check(2, 1, x, ctx05)
    # at m = n (x = 8) the sum ends before the pole
    assert wall_genfun_check(2, 1, 8.0, ctx05).value < 1e-25
