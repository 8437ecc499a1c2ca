"""One-variable special functions on the q-lattice.

Wall polynomials (plain, and orthonormalized columns in the degree), the
third Jackson q-Bessel function for every integer order, and the
generating-function residual checks that tie the two families together.
Every series here is ``qcore.rphis`` or, for q-Bessel, the 1phi1 case of
its fixed-point kernel; the orthonormal Wall columns are a recurrence.  The
q-Bessel series, ``_series``, is one integer computation from its units
(``qcore.q_units``) to its one rounding, on the lattice and off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest, to_fixed

from .errors import DomainError, NonConvergent
from .qcore import (QContext, SeriesResult, TruncationPolicy, _as_qpower, _phi_fixed, _rphis,
                    _sqrt_pair, exact_product, integer_label, lost_digits, mantissa, q_units,
                    qpoch_finite, qpoch_infinite, qpower, rounded, rphis, tail_estimate,
                    tail_threshold)

__all__ = [
    "WallParams",
    "wall_poly",
    "wall_poly_alt",
    "wall_orthonormal_run",
    "qbessel",
    "qbessel_lattice",
    "genfun_check",
    "wall_genfun_check",
]


@dataclass(frozen=True)
class WallParams:
    """Degree n, lattice exponent x (evaluation point q^x), parameter a."""

    n: int
    x: int
    a: object

    def __post_init__(self):
        if self.n < 0 or self.x < 0:
            raise DomainError("WallParams needs n >= 0 and x >= 0")


def wall_poly(p: WallParams, ctx: QContext) -> mp.mpf:
    """Wall polynomial p_n(q^x; a; q), terminating 2phi1 form.

    Terms alternate up to ~q^{-n(n+1)/2+...}, so the first guard is that
    many digits plus 15.  At small x the terms cancel further: the digits
    lost, the largest term against the total, are counted as in
    ``askey_wilson.aw_poly``, and past the guard the sum is redone with a
    guard of those digits plus 15.
    """
    q, n = ctx.q, p.n
    guard = int(mp.ceil(mp.mpf(n) * (n + 1) / 2 * mp.log(1 / q, 10))) + 15
    for _ in range(6):
        with ctx.workdps(guard):
            r, largest = _rphis([q ** (-n), mp.mpf(0)], [mp.mpf(p.a) * q], ctx,
                                q ** (p.x + 1), None)
            lost = lost_digits(largest, r.value)
        if lost <= guard:
            with ctx.workdps(5):
                return +r.value
        guard = lost + 15
    raise NonConvergent(f"Wall sum of degree {n} lost more than {guard} digits")


def wall_poly_alt(p: WallParams, ctx: QContext) -> mp.mpf:
    """Cross-check form: the 2phi0 rewrite with the (-a)^n prefactor."""
    q = ctx.q
    a = mp.mpf(p.a)
    # terms up to min(n, x) survive; cancellation grows with n*x, so guard digits scale with it
    guard = int(mp.ceil(p.n * min(p.n, p.x) * mp.log(1 / q, 10))) + 10
    with ctx.workdps(guard):
        pre = (-a) ** p.n * mp.power(q, mp.mpf(p.n) * (p.n + 1) / 2) / qpoch_finite(a * q, ctx, p.n)
        r = rphis([q ** (-p.n), q ** (-p.x)], [], ctx, q ** p.x / a)
        out = pre * r.value
    with mp.workdps(max(ctx.working_precision + 5, mp.mp.dps)):
        return +out


def wall_orthonormal_run(x: int, a, ctx: QContext, nmax: int) -> list:
    """Orthonormal Wall values for degrees 0..nmax-1 at fixed (x, a).

    Three-term recurrence in the degree,
    b_n p_{n+1} = (q^x - d_n) p_n - b_{n-1} p_{n-1}, started from
    p_0 = (-1)^x sqrt((aq)^x (aq;q)_inf / (q;q)_x) and run on Python
    integers in units of 2^-P.  q and a are converted once, a read at the
    working precision plus 25 digits whatever the caller's precision; q^x,
    (aq)^x, (aq;q)_inf, (q;q)_x, d_n and b_n (through ``math.isqrt``) are
    formed on integers in those units, and each step costs one floor
    division.  P is the bits of that precision plus 64, plus x times the
    larger of log2(1/(aq)) / 2 and log2(1/q), rounded up: p_0 is about
    (aq)^{x/2}, as small as 1e-58 on the benchmark's columns, and near its
    peak at degree x the column divides by b_n ~ q^x, so both keep their
    full relative precision.  q^x must carry the same units: the recurrence is
    stable only while the wanted (recessive) solution dominates, and a q^x
    rounded off the spectrum grows along the dominant one, as it did when
    q^x was an mpf of 186 bits.

    The true values are bounded by 1.  Stopping engages only past a peak
    of 0.01 (the column has unit l2 norm): a value below 1e-28 ends the
    column, and so does a rebound above the largest of the last three
    values once they are below 1e-12, the dominant solution surfacing.
    The short window keeps isolated near-zeros of the polynomial from
    passing for that.  The rest of the column is 0.0; each value is the
    float nearest its integer.
    """
    q = ctx.q
    with ctx.workdps(25):
        a = mp.mpf(a)
        if not (0 < a < 1 / q):
            raise DomainError("orthonormal Wall needs 0 < a < 1/q")
        # headroom per unit of x: log2(1/(aq)) / 2 or log2(1/q), rounded up
        head = max((2 - mp.mag(a * q)) // 2, 1 - mp.mag(q))
        prec = mp.mp.prec + 64 + x * head
    one = 1 << prec
    floor_, deep, peak = one // 10 ** 28, one // 10 ** 12, one // 100
    qf, af = to_fixed(q._mpf_, prec), to_fixed(a._mpf_, prec)
    aq = af * qf >> prec
    y = _fixed_pow(qf, x, prec)
    poch = one  # (aq;q)_inf / (q;q)_x
    t = aq
    while t:
        poch = poch * (one - t) >> prec
        t = t * qf >> prec
    t = one
    for _ in range(x):
        t = t * qf >> prec
        poch = (poch << prec) // (one - t)
    p0 = math.isqrt(_fixed_pow(af * qf, x, 2 * prec) * poch >> prec)
    vals = [-p0 if x % 2 else p0]
    pm1 = bm1 = 0
    vmax = p0
    qn, aqn1 = one, aq  # q^n, a q^{n+1}
    for n in range(nmax - 1):
        qn1 = qn * qf >> prec
        bn = qn * math.isqrt(aq * (one - qn1) * (one - aqn1) >> prec) >> prec
        dn = (qn * (one - aqn1) + (af * qn >> prec) * (one - qn)) >> prec
        pn1 = ((y - dn) * vals[n] - bm1 * pm1) // bn
        size = abs(pn1)
        recent = max(map(abs, vals[-3:]))
        if vmax > peak and (size < floor_ or (size > recent and recent < deep)):
            break
        pm1 = vals[n]
        vals.append(pn1)
        bm1 = bn
        vmax = max(vmax, size)
        qn, aqn1 = qn1, aqn1 * qf >> prec
    out = [v / one for v in vals]
    out.extend([0.0] * (nmax - len(out)))
    return out


def _fixed_pow(v: int, x: int, prec: int) -> int:
    """v^x for v >= 0 in units of 2^-prec, exact and then floored to those units."""
    return (v ** x << prec) >> (prec * x)


_J_CACHE: dict = {}


def _canonical(nu: int, y: int):
    """(n, m, e) with J_nu(q^y) = (-q^{1/2})^e J_n(q^m) and 0 <= n <= m.

    The reflection J_{-k}(q^y) = (-1)^k q^{k/2} J_k(q^{y+k}) clears a
    negative order.  The Euler expansion of the 1phi1 is a double sum
    symmetric in (nu, y), so J_nu(q^y) = J_y(q^nu); with the reflection
    that clears a negative argument, J_nu(q^y) = (-1)^|y| q^{|y|/2}
    J_|y|(q^{nu+|y|}), and then puts the smaller index first.
    """
    e = 0
    if nu < 0:
        e, nu, y = -nu, -nu, y - nu
    if y < 0:
        e, nu, y = e - y, -y, nu - y
    return min(nu, y), max(nu, y), e


def qbessel_lattice(nu: int, y: int, ctx: QContext) -> mp.mpf:
    """J_nu(q^y; q) on the lattice, cached by (nu, y, ctx.q_key, working precision).

    That is the key ``qcore.cached`` builds from (nu, y), written out here
    so a warm lookup costs one tuple and one dict get.  The base enters it
    as the decimal ``QContext.q_key``, so the value is the one for this
    exact q whatever the caller's mp.dps.  A miss
    maps (nu, y) to its orbit's canonical pair 0 <= n <= m (``_canonical``),
    reads or sums J_n(q^m) through this same table, and multiplies it
    exactly by the factor (-q^{1/2})^e (``_reflect``).  So only
    canonical pairs reach the series, each once per (q, precision) through
    one ``qbessel`` call, and always at an argument q^m <= 1, never in the
    deep cancellation of a large argument.  That series (``_series``)
    runs on integers and rounds once, making no mpf arithmetic on the way.
    The miss also reads nu and y through
    ``qcore.integer_label``, so a numpy integer is stored under its int and
    a label such as 0.5 or True raises DomainError.  The warm path checks
    nothing, so a label equal to a stored one still finds its entry, since
    the keys compare equal: 2.0 finds the entry for 2, and True the entry for 1.
    """
    key = (nu, y, ctx.q_key, ctx.working_precision)
    hit = _J_CACHE.get(key)
    if hit is not None:
        return hit
    nu, y = integer_label(nu, "order"), integer_label(y, "lattice label")
    key = (nu, y, ctx.q_key, ctx.working_precision)
    n, m, e = _canonical(nu, y)
    if (n, m) == (nu, y):
        val = qbessel(n, None, ctx, _lattice_y=m)
    else:
        val = qbessel_lattice(n, m, ctx)
        if e:
            val = _reflect(val, e, ctx)
    _J_CACHE[key] = val
    return val


def _reflect(val: mp.mpf, e: int, ctx: QContext) -> mp.mpf:
    """(-q^{1/2})^e val: the exact product of val and ``qcore.qpower``,
    rounded once."""
    m, k = qpower(e, ctx)
    return rounded(exact_product((-m if e & 1 else m, k), mantissa(val)), ctx)


def qbessel(nu, x, ctx: QContext, policy: Optional[TruncationPolicy] = None,
            _lattice_y: Optional[int] = None) -> mp.mpf:
    """Third Jackson q-Bessel function J_nu(x; q), integer order, finite x >= 0.

    The value is the series of ``_series``.  A negative order goes through
    the reflection J_{-n}(x) = (-1)^n q^{n/2} J_n(x q^n) once, with x q^n
    formed at the working precision plus ten digits, the prefactor
    multiplied exactly (``_reflect``) and the value rounded, like every
    other, to the working precision plus five digits.  ``_lattice_y`` gives
    the argument as q^y instead of x; ``qbessel_lattice`` passes only
    canonical pairs 0 <= nu <= y there.  The order is read through
    ``qcore.integer_label``: 1.5 or True raises DomainError, and so does an
    x that is negative, nan or infinite.
    """
    nu = integer_label(nu, "order")
    if _lattice_y is not None:
        return _series(nu, _lattice_y, ctx, policy)
    q = ctx.q
    # the argument is read at the working precision, never the caller's
    with ctx.workdps(10):
        x = mp.mpf(x)
    if not mp.isfinite(x) or x < 0:
        raise DomainError(f"qbessel needs a finite x >= 0, got x = {x}")
    if x == 0:
        return mp.mpf(1) if nu == 0 else mp.mpf(0)
    if nu < 0:
        n = -nu
        with ctx.workdps(10):
            xn = x * q ** n
        return _reflect(qbessel(n, xn, ctx, policy), n, ctx)
    return _series(nu, x, ctx, policy)


_POLICY = TruncationPolicy()
_LOG10_2 = math.log10(2)


def _series(nu: int, arg, ctx: QContext, policy: Optional[TruncationPolicy]) -> mp.mpf:
    """J_nu(x) = x^{nu/2} / (q;q)_nu * 1phi1(0; q^{nu+1}; q, q x), nu >= 0, on integers.

    arg is the lattice label y (an int, x = q^y) or the argument x (an mpf
    > 0).  A round at dps digits sums the 1phi1 in ``qcore._phi_fixed`` in
    units of 2^-bits, bits those of dps plus 40: 20 more than
    ``series_prec``, since near q = 1 the floored powers in the factors
    1 - q^k compound along the terms (at q = 0.98 and working precision 15,
    20 bits left errors of 2e-19, past the final rounding).  q^{nu+1} and
    (q;q)_nu come from the base's ``qcore.q_units`` at those bits.  On the
    lattice so do z = q^{y+1} (a power of 2 divided by the exact power of
    q's mantissa when y + 1 < 0) and q^{nu y/2}; off it z is the exact
    product of the mantissas of q and x cut to the units, and x^{nu/2} is
    exact for even nu and, for odd nu, the square root of the exact x^nu
    kept to bits + 32 bits (``qcore._sqrt_pair``).  The prefactor times the
    sum over (q;q)_nu is one quotient (``_quotient``), rounded once to the
    working precision plus five digits, the precision of every J value; no
    mpf is made before that rounding.

    Term 0 is 1, so the sum's absolute error is no larger, relative to its
    largest term, than mpf rounding would leave.  For large arguments (y =
    log_q x < 0) the terms grow to about q^{-(y+1)^2/2} before the quadratic
    factor takes over, so guard digits of that size are added and
    re-widened until two rounds agree (``_settled``).  For y >= 0 the terms
    still grow like 1/(q;q)_k^2 when q is near 1, so a sum that cancels more
    digits than its guard spares, read from the bit lengths of the largest
    term and the sum, is re-summed with a guard sized to that cancellation.
    NonConvergent if eight rounds never settle.
    """
    policy = policy or _POLICY
    wp = ctx.working_precision
    out = dps_to_prec(wp + 5)
    man, exp = mantissa(ctx.q)
    log_q = math.log10(man) + exp * _LOG10_2
    lattice = isinstance(arg, int)
    if lattice:
        y, large = arg, arg < 0
    else:
        xm, xe = mantissa(arg)
        y, large = (math.log10(xm) + xe * _LOG10_2) / log_q, arg > 1
    guard = 10
    if large:
        a = abs(y)
        guard += math.ceil(((1 + a) ** 2 / 2 + a * nu / 2) * -log_q)
    prev = None
    for _ in range(8):
        dps = wp + guard
        bits = dps_to_prec(dps) + 40  # ``series_prec`` at dps digits, plus 20
        if lattice:
            units = q_units(ctx, bits, max(nu, y) + 1)
            z = units.powers[y + 1] if y >= 0 else \
                (1 << bits - units.exp * (-y - 1)) // units.man ** (-y - 1)
            hm, he = units.half_power(abs(nu * y))
        else:
            units = q_units(ctx, bits, nu + 1)
            shift = xe + exp + bits
            z = xm * man << shift if shift >= 0 else xm * man >> -shift
            hm, he = _sqrt_pair(xm ** nu, xe * nu, bits + 32) if nu & 1 else \
                (xm ** (nu // 2), xe * (nu // 2))
        total, largest, _, _ = _phi_fixed((0,), (units.powers[nu + 1],), z, units.powers[1], bits,
                                          policy, dps=dps)
        pm, pe = units.pochs[nu]
        if lattice and large:  # q^{nu y/2} = 1 / q^{-nu y/2} divides
            val = _quotient(total, pm * hm, -he - pe - bits, out)
        else:
            val = _quotient(total * hm, pm, he - pe - bits, out)
        if not large:
            lost = math.ceil((largest.bit_length() - abs(total).bit_length() + 1) * _LOG10_2) \
                if total else dps
            if lost <= guard - 5:
                break
            guard = lost + 10
        else:
            if prev is not None and _settled(val, prev, wp):
                break
            prev = val
            guard = guard * 3 // 2 + 30
    else:
        raise NonConvergent(f"J_{nu} series: eight precision rounds never settled")
    return mp.make_mpf(from_man_exp(*val, out, round_nearest))


def _quotient(num: int, den: int, e: int, prec: int) -> Tuple[int, int]:
    """(num / den) 2^e, den > 0, as a pair (m, k) that rounds at prec bits
    as the exact quotient does: m holds at least prec + 2 bits of it, its
    last bit set when the division leaves a remainder."""
    if not num:
        return 0, 0
    shift = max(prec + 3 + den.bit_length() - abs(num).bit_length(), 0)
    quo, rem = divmod(abs(num) << shift, den)
    quo |= rem != 0
    return (-quo if num < 0 else quo), e - shift


def _settled(val: Tuple[int, int], prev: Tuple[int, int], wp: int) -> bool:
    """|val - prev| <= 10^-wp max(|val|, 10^(-6 wp)) for pairs (m, e),
    compared exactly: ``_series``'s agreement test of two rounds."""
    (vm, ve), (pm, pe) = val, prev
    low = min(ve, pe)
    diff = abs((vm << ve - low) - (pm << pe - low)) * 10 ** (7 * wp)  # times 2^low
    for m, e in ((abs(vm) * 10 ** (6 * wp), ve), (1, 0)):
        top = min(low, e)
        if diff << low - top <= m << e - top:
            return True
    return False


def _shifted_j_sum(nu: int, x, z, ctx: QContext, policy: TruncationPolicy,
                   name: str) -> SeriesResult:
    """sum_m q^{-nu m/2} J_nu(x q^m) z^m/(q;q)_m, truncated.

    Stops after three consecutive terms below ``tail_threshold`` (tail_tol
    / 30, as ``bilateral_sum``'s boundary terms); the estimate is
    ``tail_estimate`` of those three terms' magnitudes.
    """
    q = ctx.q
    tol = tail_threshold(policy)
    total = mp.mpf(0)
    coef = mp.mpf(1)  # z^m / (q;q)_m
    m = 0
    small = 0
    last = []  # magnitudes of the terms below tol
    while True:
        term = q ** (-mp.mpf(nu) * m / 2) * qbessel(nu, x * q ** m, ctx, policy) * coef
        total += term
        coef *= z / (1 - q ** (m + 1))
        m += 1
        if abs(term) < tol:
            small += 1
            last.append(abs(term))
            if small >= 3:
                est, converged = tail_estimate(mp.fsum(last[-3:]), policy)
                return SeriesResult(total, est, m, converged)
        else:
            small = 0
        if m > policy.max_terms:
            raise NonConvergent(f"{name} LHS did not settle")


def genfun_check(nu: int, x, t, ctx: QContext,
                 policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the q-Bessel generating relation at (nu, x, t), |t| < 1.

    LHS: sum_m q^{-nu m/2} J_nu(x q^m) t^m/(q;q)_m; RHS: the 1phi1 with
    numerator parameter t.  Both sides are truncated independently; the
    estimate adds the LHS tail estimate and the 1phi1's, times its
    prefactor, and ``converged`` holds when both sums converged.  The
    relation needs nu >= 0: below that the 1phi1's lower parameter q^{nu+1}
    is q^0 or a negative power of q, and (q^{nu+1}; q)_m vanishes.
    """
    if nu < 0:
        raise DomainError(f"generating relation needs nu >= 0, got nu = {nu}: the lower "
                          f"parameter q^(nu+1) would make (q^(nu+1); q)_m vanish")
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(15):
        x, t = mp.mpf(x), mp.mpf(t)
    if not abs(t) < 1:
        raise DomainError("generating relation needs |t| < 1")
    with ctx.workdps(15):
        lhs = _shifted_j_sum(nu, x, t, ctx, policy, "genfun_check")
        pref = x ** (mp.mpf(nu) / 2) * qpoch_infinite(q ** (nu + 1), ctx).value \
            / (qpoch_infinite(q, ctx).value * qpoch_infinite(t, ctx).value)
        phi = rphis([t], [q ** (nu + 1)], ctx, q * x, policy)
        resid = abs(lhs.value - pref * phi.value)
        est = lhs.est_error + abs(pref) * phi.est_error
    return SeriesResult(+resid, +est, lhs.terms_used, lhs.converged and phi.converged)


def wall_genfun_check(n: int, nu: int, x, ctx: QContext,
                      policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the Wall-polynomial specialization of the generating relation.

    The generating relation at order nu-n and t = q^{nu+1}; the estimate
    and ``converged`` combine the LHS's and the Wall polynomial's (which
    terminates, with estimate 0) as in ``genfun_check``.  An x with
    x q = q^-m, 0 <= m < n, puts a pole in the Wall sum's lower parameter and
    raises DomainError; at m >= n the sum ends before the pole.
    """
    if n < 0:
        raise DomainError("wall_genfun_check needs n >= 0")
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(15):
        x = mp.mpf(x)
        m = _as_qpower(x * q, ctx, n - 1)
        if m is not None:
            raise DomainError(f"Wall generating relation needs x q != q^-m for 0 <= m < n = {n}, "
                              f"got x = {x}: the lower parameter x q = q^-{m} is hit by the sum")
        lhs = _shifted_j_sum(nu - n, x, q ** (nu + 1), ctx, policy, "wall_genfun_check")
        pref = x ** (mp.mpf(nu - n) / 2) * qpoch_infinite(q * x, ctx).value \
            / qpoch_infinite(q, ctx).value
        wall = rphis([q ** (-n), mp.mpf(0)], [x * q], ctx, q ** (nu + 1), policy)
        resid = abs(lhs.value - pref * wall.value)
        est = lhs.est_error + abs(pref) * wall.est_error
    return SeriesResult(+resid, +est, lhs.terms_used, lhs.converged and wall.converged)
