"""One-variable special functions on the q-lattice.

Wall polynomials (plain, and orthonormalized columns in the degree), the
third Jackson q-Bessel function for every integer order, and the
generating-function residual checks that tie the two families together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
from mpmath.libmp import mpf_pow_int, to_fixed

from .errors import DomainError, NonConvergent, PoleInLowerParameter
from .qcore import (QContext, SeriesResult, TruncationPolicy, exact_product, mantissa, qpoch_finite,
                    qpoch_infinite, qpower, rounded, rphis, tail_estimate, tail_threshold)

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

    Terms alternate up to ~q^{-n(n+1)/2+...}, so guard digits scale with the
    degree for full relative accuracy of small values.
    """
    q = ctx.q
    guard = int(mp.ceil(mp.mpf(p.n) * (p.n + 1) / 2 * mp.log(1 / q, 10))) + 15
    with ctx.workdps(guard):
        r = rphis([q ** (-p.n), mp.mpf(0)], [mp.mpf(p.a) * q], ctx, q ** (p.x + 1))
    with ctx.workdps(5):
        return +r.value


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
    canonical pairs reach the series, each once per (q, precision), and
    always at an argument q^m <= 1, never in the deep cancellation of a
    large argument.
    """
    key = (nu, y, ctx.q_key, ctx.working_precision)
    hit = _J_CACHE.get(key)
    if hit is not None:
        return hit
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
    """Third Jackson q-Bessel function J_nu(x; q), integer order, x >= 0.

    The value is the series of ``_series``.  A negative order goes through
    the reflection J_{-n}(x) = (-1)^n q^{n/2} J_n(x q^n) once, with the
    prefactor multiplied exactly (``_reflect``) and the value rounded, like
    every other, to the working precision plus five digits.  ``_lattice_y``
    gives the argument as q^y instead of x; ``qbessel_lattice`` passes only
    canonical pairs 0 <= nu <= y there.
    """
    nu = int(nu)
    if _lattice_y is not None:
        return _series(nu, None, _lattice_y, ctx, policy)
    q = ctx.q
    # the argument is read at the working precision, never the caller's
    with ctx.workdps(10):
        x = mp.mpf(x)
    if x < 0:
        raise DomainError("qbessel needs x >= 0")
    if x == 0:
        return mp.mpf(1) if nu == 0 else mp.mpf(0)
    if nu < 0:
        n = -nu
        with ctx.workdps(10):
            xn = x * q ** n
        return _reflect(qbessel(n, xn, ctx, policy), n, ctx)
    return _series(nu, x, None, ctx, policy)


_LOG10_2 = math.log10(2)


def _series(nu: int, x, lattice_y: Optional[int], ctx: QContext,
            policy: Optional[TruncationPolicy]) -> mp.mpf:
    """J_nu(x) = x^{nu/2} / (q;q)_nu * 1phi1(0; q^{nu+1}; q, q x), nu >= 0.

    x is q^lattice_y when lattice_y is given.  The 1phi1 and (q;q)_nu come
    from ``_phi11_fixed``, which sums in integer fixed point; only x^{nu/2}
    and the final products are mpf operations.  For large arguments (y < 0)
    the terms grow to about q^{-(y+1)^2/2} before the quadratic factor takes
    over, so guard digits of that size are added and re-widened until two
    evaluations agree.  For y >= 0 the terms still grow like 1/(q;q)_k^2
    when q is near 1, so a sum that cancels more digits than its guard
    spares is re-summed with a guard sized to that cancellation.
    NonConvergent if eight rounds never settle.
    """
    q = ctx.q
    policy = policy or TruncationPolicy()
    with ctx.workdps(10):
        y = mp.mpf(lattice_y) if lattice_y is not None else mp.log(x) / mp.log(q)
    guard = 10
    if y < 0:
        # alternating-series cancellation: terms peak near q^{-(y+1)^2/2} and
        # the value itself decays like a q-power quadratic in y
        guard += int(mp.ceil(((abs(y) + 1) ** 2 / 2 + abs(y) * abs(nu) / 2)
                             * mp.log(1 / q, 10)))
    prev = None
    for _ in range(8):
        with ctx.workdps(guard):
            # the lattice argument is re-raised at full precision each round;
            # a low-precision argument would poison the cancellation
            xw = q ** lattice_y if lattice_y is not None else x
            total, max_term, poch = _phi11_fixed(nu, q * xw, ctx, policy)
            val = xw ** (mp.mpf(nu) / 2) / poch * total
            if y >= 0:
                # 2^(mag-1) <= |v| < 2^mag, so this bounds log10(max_term / |total|)
                # from above, by less than one digit
                lost = math.ceil((mp.mag(max_term) - mp.mag(total) + 1) * _LOG10_2) \
                    if total else mp.mp.dps
                if lost <= guard - 5:
                    break
                wider = lost + 10
            else:
                if prev is not None:
                    tol = mp.mpf(10) ** (-ctx.working_precision) \
                        * max(abs(val), mp.mpf(10) ** (-6 * ctx.working_precision))
                    if abs(val - prev) <= tol:
                        break
                wider = int(guard * 3 // 2) + 30
        prev = val
        guard = wider
    else:
        raise NonConvergent(f"J_{nu} series: eight precision rounds never settled")
    with ctx.workdps(5):
        return +val


def _phi11_fixed(nu: int, z, ctx: QContext, policy: TruncationPolicy):
    """(1phi1(0; q^{nu+1}; q, z), its largest term, (q;q)_nu) as mpf values.

    The sum runs on Python integers scaled by 2^prec, prec being the current
    mpmath precision plus 20 bits, with the running powers q^k, q^{nu+1+k}
    and z q^k, so each term costs a few integer products and one division.
    The error is absolute, about one unit of 2^-prec per operation carried
    along the terms; since term 0 is 1, the largest term is at least 1 and
    that error is no larger, relative to it, than mpf rounding would leave.
    (q;q)_nu shares the factors 1 - q^{k+1} of the denominators; it is kept
    as a mantissa of prec bits and a binary exponent, so its relative
    accuracy does not drop as the product shrinks.

    The stop rule is ``rphis``'s: three consecutive terms below
    min(tail_tol, max_term 10^-(dps-5)), NonConvergent past max_terms, and
    PoleInLowerParameter for a zero denominator.
    """
    prec = mp.mp.prec + 20
    one = 1 << prec
    q = to_fixed(ctx.q._mpf_, prec)
    bqk = to_fixed(mpf_pow_int(ctx.q._mpf_, nu + 1, prec), prec)  # q^{nu+1+k}
    zqk = to_fixed(mp.mpf(z)._mpf_, prec)                          # z q^k
    # at least one unit, so terms that underflow to zero count as small
    tol = max(to_fixed(mp.mpf(policy.tail_tol)._mpf_, prec), 1)
    eps = to_fixed((mp.mpf(10) ** (5 - mp.mp.dps))._mpf_, prec)
    qk = total = term = max_term = one
    thr = min(tol, eps)
    pman, pexp = 1, 0  # (q;q)_k = pman 2^pexp
    k = small = 0
    while True:
        qk1 = (qk * q) >> prec
        den = (one - qk1) * (one - bqk)
        if den == 0:
            raise PoleInLowerParameter("zero denominator during summation")
        if k < nu:
            pman, pexp = _times(pman, pexp, one - qk1, prec)
        term = -((term * zqk) << prec) // den
        total += term
        k += 1
        qk = qk1
        bqk = (bqk * q) >> prec
        zqk = (zqk * q) >> prec
        size = abs(term)
        if size > max_term:
            max_term = size
            thr = min(tol, (max_term * eps) >> prec)
        if size < thr:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        if k > policy.max_terms:
            raise NonConvergent("1phi1 series exhausted max_terms")
    for _ in range(k, nu):
        qk = (qk * q) >> prec
        pman, pexp = _times(pman, pexp, one - qk, prec)
    return mp.mpf((total, -prec)), mp.mpf((max_term, -prec)), mp.mpf((pman, pexp))


def _times(man: int, exp: int, factor: int, prec: int):
    """man 2^exp times the fixed-point factor 2^-prec, cut back to prec bits."""
    man *= factor
    shift = max(man.bit_length() - prec, 0)
    return man >> shift, exp - prec + shift


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
    terminates, with estimate 0) as in ``genfun_check``.
    """
    if n < 0:
        raise DomainError("wall_genfun_check needs n >= 0")
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(15):
        x = mp.mpf(x)
        lhs = _shifted_j_sum(nu - n, x, q ** (nu + 1), ctx, policy, "wall_genfun_check")
        pref = x ** (mp.mpf(nu - n) / 2) * qpoch_infinite(q * x, ctx).value \
            / qpoch_infinite(q, ctx).value
        wall = rphis([q ** (-n), mp.mpf(0)], [x * q], ctx, q ** (nu + 1), policy)
        resid = abs(lhs.value - pref * wall.value)
        est = lhs.est_error + abs(pref) * wall.est_error
    return SeriesResult(+resid, +est, lhs.terms_used, lhs.converged and wall.converged)
