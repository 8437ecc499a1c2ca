"""The mpf series loops that ``qcore._phi_fixed`` replaced, kept as oracles.

``mpf_rphis`` is the mpf r_phi_s loop that ``qcore.rphis`` ran, returning
its largest term as well; ``mpf_aw_poly`` the mpf Askey-Wilson merged sum
with its guard-digit rounds; ``phi11_fixed`` (``phi11_units`` for its integers)
the integer 1phi1 loop that summed the J series before it became the
kernel's 1phi1 case; ``mpf_lattice_series`` the lattice J series on that
loop with its mpf powers, prefactor and quotient, and ``mpf_series`` the
off-lattice J series on it with its mpf round loop, which the integer
``qfunctions._series`` replaced.
"""

import mpmath as mp
from mpmath.libmp import mpf_pow_int, to_fixed

from qcoupling.errors import NonConvergent, PoleInLowerParameter
from qcoupling.qcore import SeriesResult, TruncationPolicy, _as_qpower, lost_digits, qpoch_finite


def mpf_rphis(upper, lower, ctx, z, policy=None):
    """(SeriesResult, largest term magnitude) of r_phi_s(upper; lower; q, z),
    summed on mpf at the ambient precision."""
    policy = policy or TruncationPolicy()
    q = ctx.q
    z = mp.mpf(z)
    upper = [mp.mpf(a) for a in upper]
    lower = [mp.mpf(b) for b in lower]
    extra_power = 1 + len(lower) - len(upper)

    nterm = None
    for a in upper:
        n = _as_qpower(a, ctx, policy.max_terms)
        if n is not None:
            nterm = n if nterm is None else min(nterm, n)
    for b in lower:
        m = _as_qpower(b, ctx, policy.max_terms)
        if m is not None and (nterm is None or m < nterm):
            raise PoleInLowerParameter(f"lower parameter q^-{m} hit by the series")

    total = mp.mpf(0)
    term = mp.mpf(1)
    max_term = mp.mpf(1)
    tol = mp.mpf(policy.tail_tol)
    eps = mp.mpf(10) ** (-(mp.mp.dps - 5))
    thr = min(tol, max_term * eps)
    k = 0
    small = 0
    while True:
        total += term
        if nterm is not None and k == nterm:
            return SeriesResult(total, mp.mpf(0), k + 1, True), max_term
        qk = q ** k
        num = mp.mpf(1)
        for a in upper:
            num *= 1 - a * qk
        den = 1 - q ** (k + 1)
        for b in lower:
            den *= 1 - b * qk
        if den == 0:
            raise PoleInLowerParameter("zero denominator during summation")
        term = term * num / den * z
        if extra_power:
            term *= (-qk) ** extra_power
        k += 1
        if abs(term) > max_term:
            max_term = abs(term)
            thr = min(tol, max_term * eps)
        if nterm is None:
            if abs(term) < thr:
                small += 1
                if small >= 3:
                    total += term
                    est = 2 * thr / (1 - q)
                    return SeriesResult(total, est, k + 1, bool(est <= tol)), max_term
            else:
                small = 0
            if k > policy.max_terms:
                raise NonConvergent("rphis exhausted max_terms")


def mpf_aw_poly(p, ctx):
    """Askey-Wilson p_n(x; a,b,c,d | q) from the mpf merged sum, re-summed
    with a guard of the digits lost plus 15 until the guard holds them."""
    guard = 15
    for _ in range(6):
        with ctx.workdps(guard):
            out, lost = _aw_merged_sum(p, ctx)
        if lost <= guard:
            return +out
        guard = lost + 15
    raise NonConvergent(f"Askey-Wilson sum of degree {p.n} lost more than {guard} digits")


def _aw_merged_sum(p, ctx):
    q = ctx.q
    n = p.n
    x = mp.convert(p.x)
    a, b, c, d = (mp.convert(v) for v in (p.a, p.b, p.c, p.d))
    B = a * b * c * d * q ** (n - 1)
    total = mp.mpf(0)
    largest = mp.mpf(0)
    num = mp.mpf(1)  # (q^{-n}, B, ax, a/x; q)_k q^k / (q;q)_k
    for k in range(n + 1):
        tail = qpoch_finite(a * b * q ** k, ctx, n - k) \
            * qpoch_finite(a * c * q ** k, ctx, n - k) \
            * qpoch_finite(a * d * q ** k, ctx, n - k)
        term = num * tail
        total += term
        largest = max(largest, abs(term))
        num *= (1 - q ** (k - n)) * (1 - B * q ** k) * (1 - a * x * q ** k) \
            * (1 - a / x * q ** k) * q / (1 - q ** (k + 1))
    if total == 0:
        lost = mp.mp.dps
    else:
        lost = max(0, int(mp.ceil(mp.log10(largest / abs(total)))))
    return total / a ** n, lost


def phi11_fixed(nu, z, ctx, policy):
    """(1phi1(0; q^{nu+1}; q, z), its largest term, (q;q)_nu) as mpf values,
    summed on integers in units of 2^-(mpmath precision + 20)."""
    prec = mp.mp.prec + 20
    total, max_term, pman, pexp = phi11_units(nu, z, ctx, policy)
    return mp.mpf((total, -prec)), mp.mpf((max_term, -prec)), mp.mpf((pman, pexp))


def phi11_units(nu, z, ctx, policy):
    """The integers behind ``phi11_fixed``: the sum and largest term in units
    of 2^-prec, and (q;q)_nu as a mantissa and a binary exponent."""
    prec = mp.mp.prec + 20
    one = 1 << prec
    q = to_fixed(ctx.q._mpf_, prec)
    bqk = to_fixed(mpf_pow_int(ctx.q._mpf_, nu + 1, prec), prec)  # q^{nu+1+k}
    zqk = to_fixed(mp.mpf(z)._mpf_, prec)                          # z q^k
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
    return total, max_term, pman, pexp


def _times(man, exp, factor, prec):
    man *= factor
    shift = max(man.bit_length() - prec, 0)
    return man >> shift, exp - prec + shift


def mpf_lattice_series(nu, y, ctx, policy=None):
    """J_nu(q^y), nu >= 0, as ``qfunctions._series`` summed it on the lattice:
    q^y re-raised at each round's precision, the 1phi1 and (q;q)_nu from
    ``phi11_fixed`` as mpf values, and x^{nu/2} / (q;q)_nu * 1phi1 formed in
    mpf, with the same guard rounds and stop rules."""
    q = ctx.q
    policy = policy or TruncationPolicy()
    with ctx.workdps(10):
        y_ = mp.mpf(y)
    guard = 10
    if y_ < 0:
        guard += int(mp.ceil(((abs(y_) + 1) ** 2 / 2 + abs(y_) * abs(nu) / 2)
                             * mp.log(1 / q, 10)))
    prev = None
    for _ in range(8):
        with ctx.workdps(guard):
            xw = q ** y
            total, largest, poch = phi11_fixed(nu, q * xw, ctx, policy)
            val = xw ** (mp.mpf(nu) / 2) / poch * total
            if y_ >= 0:
                lost = lost_digits(largest, total)
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


def mpf_series(nu, x, ctx, policy=None):
    """J_nu(x), nu >= 0 and x > 0 an mpf, as ``qfunctions._series`` summed it
    off the lattice: the 1phi1 and (q;q)_nu from ``phi11_fixed`` at each
    round's precision, x^{nu/2} / (q;q)_nu * 1phi1 formed in mpf, with the
    same guard rounds and stop rules."""
    policy = policy or TruncationPolicy()
    q = ctx.q
    with ctx.workdps(10):
        y = mp.log(x) / mp.log(q)
    guard = 10
    if y < 0:
        # alternating-series cancellation: terms peak near q^{-(y+1)^2/2} and
        # the value itself decays like a q-power quadratic in y
        guard += int(mp.ceil(((abs(y) + 1) ** 2 / 2 + abs(y) * abs(nu) / 2)
                             * mp.log(1 / q, 10)))
    prev = None
    for _ in range(8):
        with ctx.workdps(guard):
            total, largest, poch = phi11_fixed(nu, q * x, ctx, policy)
            val = x ** (mp.mpf(nu) / 2) / poch * total
            if y >= 0:
                lost = lost_digits(largest, total)
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
