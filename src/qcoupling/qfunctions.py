"""One-variable special functions on the q-lattice.

Wall polynomials (plain and orthonormalized), the third Jackson q-Bessel
function for every integer order, and the generating-function residual
checks that tie the two families together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import DomainError, NonConvergent
from .qcore import QContext, SeriesResult, TruncationPolicy, qpoch_finite, qpoch_infinite, rphis

__all__ = [
    "WallParams",
    "wall_poly",
    "wall_poly_alt",
    "wall_orthonormal",
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


def _wall_bar_prefactor(p: WallParams, ctx: QContext) -> mp.mpf:
    q = ctx.q
    a = mp.mpf(p.a)
    if not a < 1 / q:
        raise DomainError("orthonormal Wall needs 0 < a < 1/q")
    if not a > 0:
        raise DomainError("orthonormal Wall needs a > 0")
    rad = (a * q) ** (p.x - p.n) * qpoch_infinite(a * q, ctx).value \
        * qpoch_finite(a * q, ctx, p.n) / (qpoch_finite(q, ctx, p.n) * qpoch_finite(q, ctx, p.x))
    return (-1) ** (p.n + p.x) * mp.sqrt(rad)


def wall_orthonormal(p: WallParams, ctx: QContext) -> mp.mpf:
    """Orthonormalized Wall function: sum over x or over n of products gives deltas."""
    # the 2phi1 alternates with terms up to ~q^{-n^2/2}; scale guard digits accordingly
    guard = int(mp.ceil(p.n * p.n / 2 * mp.log(1 / ctx.q, 10))) + 10
    with ctx.workdps(guard):
        val = _wall_bar_prefactor(p, ctx) * wall_poly(p, ctx)
    return +val


def wall_orthonormal_run(x: int, a, ctx: QContext, nmax: int,
                         floor: float = 1e-28) -> list:
    """Orthonormal Wall values for degrees 0..nmax-1 at fixed (x, a).

    Three-term recurrence in the degree.  Forward recurrence is stable only
    while the wanted (recessive) solution dominates; since the true values
    are bounded by 1, a rebound after the decay has passed 1e-12 marks
    contamination by the dominant solution and the tail is zeroed, as is
    everything below ``floor``.
    """
    q = ctx.q
    a = mp.mpf(a)
    if not (0 < a < 1 / q):
        raise DomainError("orthonormal Wall needs 0 < a < 1/q")
    with ctx.workdps(25):
        y = q ** x
        p0 = (-1) ** x * mp.sqrt((a * q) ** x * qpoch_infinite(a * q, ctx).value
                                 / qpoch_finite(q, ctx, x))
        vals = [p0]
        pm1 = mp.mpf(0)
        bm1 = mp.mpf(0)
        floor_ = mp.mpf(floor)
        deep = mp.mpf("1e-12")
        vmax = abs(p0)
        for n in range(nmax - 1):
            bn = q ** n * mp.sqrt(a * q * (1 - q ** (n + 1)) * (1 - a * q ** (n + 1)))
            dn = q ** n * (1 - a * q ** (n + 1)) + a * q ** n * (1 - q ** n)
            pn1 = ((y - dn) * vals[n] - bm1 * pm1) / bn
            # deep-x columns start tiny and climb to an O(0.1) peak (the
            # column has unit l2 norm); stopping rules engage only past it.
            # The rebound test uses a short window max so isolated near-zeros
            # of the polynomial do not masquerade as contamination.
            recent = max(abs(v) for v in vals[-3:])
            if vmax > mp.mpf("0.01") and (abs(pn1) < floor_
                                          or (abs(pn1) > recent and recent < deep)):
                break
            pm1 = vals[n]
            vals.append(pn1)
            bm1 = bn
            if abs(pn1) > vmax:
                vmax = abs(pn1)
    out = [float(v) for v in vals]
    out.extend([0.0] * (nmax - len(out)))
    return out


_J_CACHE: dict = {}


def qbessel_lattice(nu: int, y: int, ctx: QContext) -> mp.mpf:
    """J_nu(q^y; q) on the lattice, cached by (nu, y, ctx.q_key, working precision).

    The base enters the key as the decimal ``QContext.q_key``, so the
    value is the one for this exact q whatever the caller's mp.dps.
    Arguments y >= 0 are summed by the series, y < 0 by the Hahn-Exton
    recurrence (see ``qbessel``).
    """
    key = (nu, y, ctx.q_key, ctx.working_precision)
    hit = _J_CACHE.get(key)
    if hit is not None:
        return hit
    val = qbessel(nu, None, ctx, _lattice_y=y)
    _J_CACHE[key] = val
    return val


def qbessel(nu, x, ctx: QContext, policy: Optional[TruncationPolicy] = None,
            _lattice_y: Optional[int] = None) -> mp.mpf:
    """Third Jackson q-Bessel function J_nu(x; q), integer order, x >= 0.

    Negative orders route through the reflection J_{-n}(x) = (-1)^n q^{n/2}
    J_n(x q^n) exactly once, rounded like every other value to the working
    precision plus five digits.  A lattice argument q^y with y < 0 is
    computed by the checked recurrence of ``_hahn_exton``; every other
    argument, and a lattice value the recurrence cannot confirm, by the
    series.
    """
    nu = int(nu)
    q = ctx.q
    if _lattice_y is None:
        # the argument is read at the working precision, never the caller's
        with ctx.workdps(10):
            x = mp.mpf(x)
        if x < 0:
            raise DomainError("qbessel needs x >= 0")
        if x == 0:
            return mp.mpf(1) if nu == 0 else mp.mpf(0)
    if nu < 0:
        n = -nu
        if _lattice_y is not None:
            val = qbessel(n, None, ctx, policy, _lattice_y=_lattice_y + n)
        else:
            with ctx.workdps(10):
                xn = x * q ** n
            val = qbessel(n, xn, ctx, policy)
        # the prefactor is applied at the working precision, never the caller's
        with ctx.workdps(10):
            val *= (-1) ** n * mp.sqrt(q) ** n
        with ctx.workdps(5):
            return +val
    if _lattice_y is not None and _lattice_y < 0:
        val = _hahn_exton(nu, _lattice_y, ctx)
        if val is not None:
            return val
    return _series(nu, x, _lattice_y, ctx, policy)


def _series(nu: int, x, lattice_y: Optional[int], ctx: QContext,
            policy: Optional[TruncationPolicy]) -> mp.mpf:
    """J_nu(x) = x^{nu/2} / (q;q)_nu * 1phi1(0; q^{nu+1}; q, q x), nu >= 0.

    x is q^lattice_y when lattice_y is given.  For large arguments (y < 0)
    the terms grow to about q^{-(y+1)^2/2} before the quadratic factor takes
    over, so guard digits of that size are added and re-widened until two
    evaluations agree.  For y >= 0 the terms still grow like 1/(q;q)_k^2
    when q is near 1, so a sum that cancels more digits than its guard
    spares is re-summed with a guard sized to that cancellation.
    NonConvergent if eight rounds never settle.
    """
    q = ctx.q
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
            series = rphis([mp.mpf(0)], [q ** (nu + 1)], ctx, q * xw, policy)
            # (q^{nu+1}; q)_inf / (q; q)_inf is exactly 1 / (q; q)_nu
            val = xw ** (mp.mpf(nu) / 2) / qpoch_finite(q, ctx, nu) * series.value
            if y >= 0:
                lost = int(mp.ceil(mp.log10(series.max_term / abs(series.value)))) \
                    if series.value else mp.mp.dps
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


def _start_depth(nu: int, y: int, q: float, digits: int) -> int:
    """Steps below y after which a start's share of the dominated solution is 10^-digits.

    Where |c_k| > 2 for c_k = (1 + q^nu - q^k) q^{-nu/2}, one upward step
    of the recurrence shrinks that share by lambda_k^2, lambda_k being the
    larger root of t^2 - c_k t + 1; where |c_k| <= 2 both solutions
    oscillate and the share does not shrink.
    """
    lq = math.log10(q)
    k = y
    while digits > 0:
        k -= 1
        if k * lq < 300:  # q^k still a float
            v = abs(1 + q ** nu - q ** k)
            lc = math.log10(v) if v > 0 else -math.inf
        else:
            lc = k * lq
        lc -= nu / 2 * lq
        if lc > math.log10(2):
            digits -= 2 * (lc + math.log10((1 + math.sqrt(1 - 4 * 10 ** (-2 * lc))) / 2))
    return y - k


def _hahn_exton(nu: int, y: int, ctx: QContext) -> Optional[mp.mpf]:
    """J_nu(q^y) for nu >= 0 and y < 0 from the Hahn-Exton q-difference equation.

    On the lattice, q^{nu/2} (J(k+1) + J(k-1)) = (1 + q^nu - q^k) J(k), and
    J is its recessive solution as k -> -inf (Koornwinder-Swarttouw), so
    recurring upward is stable: started from (0, 1) at k = y - depth, the
    other solution's share dies out on the way up.  J_nu(q^y) is then
    f(y) / f(0) times the series value J_nu(q^0).  Every value recurs from
    its own start, so it depends on (nu, y, q, precision) alone.  Two
    depths must agree to 10^-(wp+3) relative; the depth doubles while they
    do not, and after three doublings None hands the value to the series.
    """
    one = qbessel_lattice(nu, 0, ctx)
    depth = _start_depth(nu, y, float(ctx.q), ctx.working_precision + 10)
    with ctx.workdps(15):
        q = ctx.q
        diag = 1 + q ** nu
        scale = mp.sqrt(q) ** nu
        tol = mp.mpf(10) ** (-ctx.working_precision - 3)

        def ratio(d):
            prev, cur = mp.mpf(0), mp.mpf(1)
            qk = q ** (y - d)
            at_y = cur
            for k in range(y - d, 0):
                if k == y:
                    at_y = cur
                prev, cur = cur, (diag - qk) * cur / scale - prev
                qk *= q
            return at_y / cur

        shallow = ratio(depth)
        for _ in range(3):
            depth *= 2
            deep = ratio(depth)
            if abs(deep - shallow) <= tol * abs(deep):
                val = deep * one
                break
            shallow = deep
        else:
            return None
    with ctx.workdps(5):
        return +val


def _shifted_j_sum(nu: int, x, z, ctx: QContext, policy: TruncationPolicy, name: str):
    """(sum_m q^{-nu m/2} J_nu(x q^m) z^m/(q;q)_m, terms used), truncated.

    Stops after three consecutive terms below the policy's tail tolerance.
    """
    q = ctx.q
    tol = mp.mpf(policy.tail_tol)
    total = mp.mpf(0)
    coef = mp.mpf(1)  # z^m / (q;q)_m
    m = 0
    small = 0
    while True:
        term = q ** (-mp.mpf(nu) * m / 2) * qbessel(nu, x * q ** m, ctx, policy) * coef
        total += term
        coef *= z / (1 - q ** (m + 1))
        m += 1
        if abs(term) < tol:
            small += 1
            if small >= 3:
                return total, m
        else:
            small = 0
        if m > policy.max_terms:
            raise NonConvergent(f"{name} LHS did not settle")


def genfun_check(nu: int, x, t, ctx: QContext,
                 policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the q-Bessel generating relation at (nu, x, t), |t| < 1.

    LHS: sum_m q^{-nu m/2} J_nu(x q^m) t^m/(q;q)_m; RHS: the 1phi1 with
    numerator parameter t.  Both sides are truncated independently.
    """
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(15):
        x, t = mp.mpf(x), mp.mpf(t)
    if not abs(t) < 1:
        raise DomainError("generating relation needs |t| < 1")
    with ctx.workdps(15):
        lhs, m = _shifted_j_sum(nu, x, t, ctx, policy, "genfun_check")
        rhs = x ** (mp.mpf(nu) / 2) * qpoch_infinite(q ** (nu + 1), ctx).value \
            / (qpoch_infinite(q, ctx).value * qpoch_infinite(t, ctx).value) \
            * rphis([t], [q ** (nu + 1)], ctx, q * x, policy).value
        resid = abs(lhs - rhs)
    return SeriesResult(+resid, mp.mpf(policy.tail_tol), m, True)


def wall_genfun_check(n: int, nu: int, x, ctx: QContext,
                      policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the Wall-polynomial specialization of the generating relation.

    The generating relation at order nu-n and t = q^{nu+1}.
    """
    if n < 0:
        raise DomainError("wall_genfun_check needs n >= 0")
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(15):
        x = mp.mpf(x)
        lhs, m = _shifted_j_sum(nu - n, x, q ** (nu + 1), ctx, policy, "wall_genfun_check")
        wall = rphis([q ** (-n), mp.mpf(0)], [x * q], ctx, q ** (nu + 1), policy).value
        rhs = x ** (mp.mpf(nu - n) / 2) * qpoch_infinite(q * x, ctx).value \
            / qpoch_infinite(q, ctx).value * wall
        resid = abs(lhs - rhs)
    return SeriesResult(+resid, mp.mpf(policy.tail_tol), m, True)
