"""Askey-Wilson polynomials and their lattice limit to multivariate q-Bessel.

The one-variable polynomial is evaluated through a prefactor-merged
terminating sum, which stays finite where the conventional split into
prefactor times balanced series hits a removable 0 x infinity collision.
The d-variable coupled product follows the chained-parameter convention.

The limit schedule drives degrees, parameters and arguments to the lattice
regime along m -> infinity; with the normalizer below, the normalized values
converge to the prefactored multivariate q-Bessel function at rate O(q^m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import mpmath as mp

from .errors import DomainError, NonConvergent, PoleInLowerParameter
from .qcore import at_working_precision, QContext, qpoch_finite, qpoch_infinite
from .multivariate import MultiBesselParams, multi_qbessel

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

    Equals (ab,ac,ad;q)_n a^{-n} times the terminating balanced series; the
    merged sum below is that product with the Pochhammer tails folded into
    each term, so parameter collisions like ac = 1 stay finite.  Genuine
    poles (a lower-parameter q-power crossing inside the series in the split
    form) do not occur in the merged form.
    """
    if mp.mpf(p.a) == 0:
        raise PoleInLowerParameter("parameter a must be nonzero")
    guard = 15
    for _ in range(6):
        with ctx.workdps(guard):
            out, lost = _aw_merged_sum(p, ctx)
        if lost <= guard:
            return +out
        # the terms cancelled to more digits than the guard held: re-sum with
        # a guard sized to that cancellation (a total that was pure roundoff
        # understates it, hence the loop)
        guard = lost + 15
    raise NonConvergent(f"Askey-Wilson sum of degree {p.n} lost more than {guard} digits")


def _aw_merged_sum(p: AWParams, ctx: QContext):
    """(the merged sum over a^n, digits lost to cancellation) at the active precision.

    The lost digits are log10 of the largest term over |total|; a total that
    cancels to zero counts as every digit lost.
    """
    q = ctx.q
    n = p.n
    # mpf parameters enter as given, whatever precision they carry
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
    q = ctx.q
    d = s.d
    nu = s.nu
    Lam = (nu[0],) + s.lambda_vector()
    x_full = tuple(s.x) + (nu[d + 1],)
    tgt = qpoch_infinite(q, ctx).value ** d \
        * multi_qbessel(MultiBesselParams(nu, s.x, s.lambda_vector()), ctx)
    for j in range(1, d + 1):
        order = nu[j] - x_full[j] - Lam[j - 1]
        expo = s.x[j - 1] - x_full[j] + Lam[j] - Lam[j - 1]
        tgt *= q ** (-mp.mpf(expo) * order / 2)
    return tgt


def limit_check(s: LimitSchedule, ctx: QContext) -> List[LimitPoint]:
    """Relative error of the normalized chain product against its lattice limit.

    Each scheduled m is evaluated at precision scaled with m (the normalizer
    cancels q^{-m^2}-scale growth only after exact-looking cancellation).
    Points where the normalizer degenerates are skipped and reported, not
    silently dropped.
    """
    d = s.d
    Lam = (s.nu[0],) + s.lambda_vector()
    x_full = tuple(s.x) + (s.nu[d + 1],)
    for j in range(1, d + 1):
        if s.nu[j] - x_full[j] - Lam[j - 1] < 0:
            raise DomainError(
                "schedule leaves the convergence domain: factor order "
                f"{s.nu[j] - x_full[j] - Lam[j - 1]} < 0 at j={j}")
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
