"""Independent recomputation of lattice q-Bessel values with mpmath alone.

J_nu(x; q) = x^{nu/2} (q^{nu+1}; q)_inf / (q; q)_inf * 1phi1(0; q^{nu+1}; q, q x)
(Jackson's third q-Bessel function, Koornwinder-Swarttouw normalization),
built from mpmath's own ``qp`` and ``qhyper``; negative orders go through the
reflection J_{-n}(q^y) = (-1)^n q^{n/2} J_n(q^{y+n}).  Nothing here imports
qcoupling.

For y < 0 the series terms peak near q^{-(y+1)^2/2} while the value decays
about as fast, so the working precision is 200 digits plus twice that
cancellation depth.  The value is computed at that precision and again with
60 more digits, and the two must agree before the program is compared.
"""

from __future__ import annotations

import mpmath as mp

TOLERANCE = mp.mpf("1e-25")


def _digits(nu: int, y: int, q) -> int:
    if y >= 0:
        return 200
    depth = ((abs(y) + 1) ** 2 / 2 + abs(y) * abs(nu) / 2) * float(mp.log10(1 / q))
    return 200 + 2 * int(depth + 1)


def reference(nu: int, y: int, q, dps: int) -> mp.mpf:
    with mp.workdps(dps):
        q = mp.mpf(q)
        pre = mp.mpf(1)
        if nu < 0:
            n = -nu
            pre = (-1) ** n * mp.sqrt(q) ** n
            nu, y = n, y + n
        x = q ** y
        series = mp.qhyper([0], [q ** (nu + 1)], q, q * x)
        return pre * x ** (mp.mpf(nu) / 2) * mp.qp(q ** (nu + 1), q) / mp.qp(q, q) * series


def recheck(nu: int, y: int, base, value: str) -> tuple:
    """(relative difference, reference self-agreement) for one program value.

    ``base`` is the exact base as an mpf at high precision; ``value`` is the
    program's J value as a decimal string.
    """
    dps = _digits(nu, y, base)
    ref = reference(nu, y, base, dps)
    ref2 = reference(nu, y, base, dps + 60)
    with mp.workdps(dps):
        scale = abs(ref2) if ref2 != 0 else mp.mpf(1)
        self_gap = abs(ref - ref2) / scale
        rel = abs(mp.mpf(value) - ref2) / scale
    return rel, self_gap
