"""Askey-Wilson polynomials and their lattice limit to multivariate q-Bessel.

The one-variable polynomial is evaluated through a prefactor-merged
terminating sum, which stays finite where the conventional split into
prefactor times balanced series hits a removable 0 x infinity collision.
The sum is a terminating 4phi3 of the fixed-point series kernel, with the
prefactor's Pochhammer symbols folded in as backward running tails.
The d-variable coupled product follows the chained-parameter convention.

The limit schedule drives degrees, parameters and arguments to the lattice
regime along m -> infinity; with the normalizer below, the normalized values
converge to the prefactored multivariate q-Bessel function at rate O(q^m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import DomainError, NonConvergent, PoleInLowerParameter
from .qcore import (QContext, _phi_fixed, at_working_precision, lost_digits, qpoch_finite,
                    qpoch_infinite, series_prec)
from .multivariate import MultiBesselParams, _bessel_walk, multi_qbessel

__all__ = [
    "AWParams",
    "MultiAWParams",
    "LimitSchedule",
    "aw_poly",
    "multi_aw",
    "limit_check",
]


@dataclass(frozen=True)
class AWParams:
    """Degree n, symmetric evaluation point x (entering as x + 1/x), a,b,c,d."""

    n: int
    x: object
    a: object
    b: object
    c: object
    d: object

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("AWParams needs n >= 0")
        if mp.mpf(self.x) == 0:
            raise DomainError("evaluation point must be nonzero")


@dataclass(frozen=True)
class MultiAWParams:
    """Degree vector n, point vector x, chained parameter vector alpha.

    len(alpha) = d + 3; the trailing alpha is the implicit x_{d+1}.
    """

    n: Tuple[int, ...]
    x: Tuple
    alpha: Tuple

    def __post_init__(self):
        d = len(self.n)
        if d < 1 or len(self.x) != d or len(self.alpha) != d + 3:
            raise DomainError("need len(n) = len(x) = d and len(alpha) = d+3")


def aw_poly(p: AWParams, ctx: QContext) -> mp.mpf:
    """Askey-Wilson polynomial p_n(x; a,b,c,d | q).

    (ab,ac,ad;q)_n a^{-n} 4phi3(q^{-n}, abcdq^{n-1}, ax, a/x; ab, ac, ad; q, q),
    the Pochhammer tails folded into each term (``qcore._phi_fixed`` with
    ``fold``), so collisions like ac = 1 stay finite.  The sum's error is
    absolute and term 0 may vanish, so digits lost count against the largest
    term or 1; past the guard (first 15) it is re-summed with a guard of
    those digits plus 15.  The value is rounded to the working precision
    plus five digits, or to the caller's precision when that is higher.
    """
    if mp.mpf(p.a) == 0:
        raise PoleInLowerParameter("parameter a must be nonzero")
    q, n = ctx.q, p.n
    guard = 15
    for _ in range(6):
        with ctx.workdps(guard):
            # mpf parameters enter as given, whatever precision they carry
            x, a, b, c, d = (mp.convert(v) for v in (p.x, p.a, p.b, p.c, p.d))
            prec = series_prec()
            qu = to_fixed(q._mpf_, prec)
            total, largest, _, _ = _phi_fixed(
                [to_fixed(v._mpf_, prec) for v in (q ** -n, a * b * c * d * q ** (n - 1), a * x,
                                                   a / x)],
                [to_fixed(v._mpf_, prec) for v in (a * b, a * c, a * d)],
                qu, qu, prec, None, nterm=n, fold=True)
            total = mp.mpf((total, -prec))
            lost = lost_digits(max(mp.mpf((largest, -prec)), 1), total)
            out = total / a ** n
        if lost <= guard:
            with mp.workdps(max(ctx.working_precision + 5, mp.mp.dps)):
                return +out
        guard = lost + 15
    raise NonConvergent(f"Askey-Wilson sum of degree {n} lost more than {guard} digits")


def _chain_factors(p: MultiAWParams, ctx: QContext):
    """Per-variable AWParams of the coupled product."""
    d = len(p.n)
    alpha = [mp.mpf(v) for v in p.alpha]
    xs = [mp.mpf(v) for v in p.x] + [alpha[d + 2]]
    N = [0]
    for nj in p.n:
        N.append(N[-1] + nj)
    q = ctx.q
    out = []
    for j in range(1, d + 1):
        out.append(AWParams(
            n=p.n[j - 1],
            x=xs[j - 1],
            a=alpha[j] * q ** N[j - 1],
            b=alpha[j] / alpha[0] ** 2 * q ** N[j - 1],
            c=alpha[j + 1] / alpha[j] * xs[j],
            d=alpha[j + 1] / alpha[j] / xs[j],
        ))
    return out


@at_working_precision
def multi_aw(p: MultiAWParams, ctx: QContext) -> mp.mpf:
    """Coupled d-variable Askey-Wilson product."""
    val = mp.mpf(1)
    for fp in _chain_factors(p, ctx):
        val *= aw_poly(fp, ctx)
    return val


@dataclass(frozen=True)
class LimitSchedule:
    """Degree offsets m at which the lattice limit is probed.

    target fixes (nu, x, lam-as-Lambda-source): the probed family converges
    to the prefactored multivariate q-Bessel at Lambda_j = nu_0 - sum(lam_k,
    k <= j).  Factor orders nu_j - x_{j+1} - Lambda_{j-1} must be >= 0 for
    the schedule to stay inside the series' convergence domain.
    """

    m_values: Tuple[int, ...]
    lam: Tuple[int, ...]
    nu: Tuple[int, ...]
    x: Tuple[int, ...]

    def __post_init__(self):
        if list(self.m_values) != sorted(set(self.m_values)):
            raise DomainError("m_values must be strictly increasing")
        d = len(self.lam)
        if len(self.x) != d or len(self.nu) != d + 2:
            raise DomainError("need len(lam) = len(x) = d and len(nu) = d+2")

    @property
    def d(self) -> int:
        return len(self.lam)

    def lambda_vector(self) -> Tuple[int, ...]:
        return tuple(self.nu[0] - sum(self.lam[:j]) for j in range(1, self.d + 1))


@dataclass(frozen=True)
class LimitPoint:
    m: int
    rel_error: float
    ratio: float          # empirical lhs/target, fitted-constant diagnostic
    skipped: bool = False
    reason: str = ""


def _limit_pieces(s: LimitSchedule, ctx: QContext, m: int):
    """Substituted multivariate AW parameters and the exact normalizer at m."""
    q = ctx.q
    d = s.d
    nu = s.nu
    alpha = [q ** (-m)]
    for j in range(1, d + 2):
        alpha.append(q ** (mp.mpf(nu[j - 1] + 1) / 2 - (j - 1) * m))
    alpha.append(q ** (mp.mpf(nu[d] + 1) / 2 - nu[0] - nu[d + 1] + m))
    xm = tuple(q ** (mp.mpf(nu[j - 1] + 1) / 2 - nu[0] - s.x[j - 1] + m)
               for j in range(1, d + 1))
    nvec = tuple(s.lam[j] + m for j in range(d))
    if any(nj < 0 for nj in nvec):
        raise DomainError(f"degree lam+m negative at m={m}")
    params = MultiAWParams(nvec, xm, tuple(alpha))
    # normalizer: product over factors of a^{-n} (ad; q)_n
    C = mp.mpf(1)
    for fp in _chain_factors(params, ctx):
        poch = qpoch_finite(mp.mpf(fp.a) * mp.mpf(fp.d), ctx, fp.n)
        if poch == 0:
            raise PoleInLowerParameter(f"normalizer vanishes at m={m}")
        C *= mp.mpf(fp.a) ** (-fp.n) * poch
    return params, C


def _limit_target(s: LimitSchedule, ctx: QContext) -> mp.mpf:
    """Prefactored multivariate q-Bessel value the schedule converges to."""
    p = MultiBesselParams(s.nu, s.x, s.lambda_vector())
    tgt = qpoch_infinite(ctx.q, ctx).value ** s.d * multi_qbessel(p, ctx)
    for f in _bessel_walk(p.nu, p.x, p.lam):
        tgt *= ctx.q ** (-mp.mpf(f.label) * f.order / 2)
    return tgt


def limit_check(s: LimitSchedule, ctx: QContext) -> List[LimitPoint]:
    """Relative error of the normalized chain product against its lattice limit.

    At each scheduled m the limit pieces (the substituted parameters) and
    the normalizer C, and the quotient by C, are formed at the working
    precision plus 30 + g m digits, g = ceil(16 log2(1/q)): C cancels
    q^{-m^2}-scale growth.  ``multi_aw`` runs at the working precision plus
    10 digits, and each ``aw_poly`` in it widens its guard by the
    digits its sum loses, not by m.  Points where the normalizer
    degenerates are skipped and reported, not silently dropped.
    """
    for j, f in enumerate(_bessel_walk(s.nu, s.x, s.lambda_vector()), 1):
        if f.order < 0:
            raise DomainError(
                f"schedule leaves the convergence domain: factor order {f.order} < 0 at j={j}")
    out: List[LimitPoint] = []
    guard_per_m = int(mp.ceil(16 * mp.log(1 / ctx.q, 10) / mp.log(2, 10)))
    with ctx.workdps(30):
        target = _limit_target(s, ctx)
    for m in s.m_values:
        try:
            with ctx.workdps(30 + guard_per_m * m):
                params, C = _limit_pieces(s, ctx, m)
                val = multi_aw(params, ctx) / C
                rel = float(abs(val - target) / abs(target))
                ratio = float(val / target)
            out.append(LimitPoint(m, rel, ratio))
        except (PoleInLowerParameter, DomainError) as exc:
            out.append(LimitPoint(m, float("nan"), float("nan"), True, str(exc)))
    return out
