"""Foundational q-arithmetic.

q-Pochhammer symbols, basic hypergeometric series in the Gasper-Rahman
convention, and deterministic truncated summation over the natural numbers
and over all integers, with tail-error estimates.

All series evaluation runs on mpmath reals at the precision carried by the
QContext; every public value is an ``mpmath.mpf``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import repr_dps

from .errors import DomainError, NonConvergent, PoleInLowerParameter

__all__ = [
    "QContext",
    "TruncationPolicy",
    "SeriesResult",
    "qpoch_finite",
    "qpoch_infinite",
    "rphis",
    "bilateral_sum",
    "bilateral_window",
    "tail_estimate",
    "tail_threshold",
    "at_working_precision",
]


def at_working_precision(fn):
    """Run fn under the working precision of its QContext argument.

    Sums and products would otherwise accumulate at whatever ambient mpmath
    precision the caller happens to have.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctx = None
        for a in list(args) + list(kwargs.values()):
            if isinstance(a, QContext):
                ctx = a
                break
        if ctx is None:
            return fn(*args, **kwargs)
        with ctx.workdps(10):
            return fn(*args, **kwargs)
    return wrapper


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q in (0,1) plus the working precision.

    q may be given as float, str or mpf; it is normalized to an mpf at
    construction.  A string is read at the working precision plus ten guard
    digits, never the caller's; an mpf is kept as given.
    working_precision is in decimal digits (>= 15).

    Two derived values, ``q_key`` and the base-q^2 context of
    ``base_squared``, are computed on first use and kept on the instance.
    They are not fields, so equality, hashing and repr see only q and the
    precision.
    """

    q: object
    working_precision: int = 30

    def __post_init__(self):
        if self.working_precision < 15:
            raise DomainError("working_precision must be at least 15 digits")
        qv = self.q
        if not isinstance(qv, mp.mpf):
            with self.workdps(10):
                qv = mp.mpf(qv)
        if not (0 < qv < 1):
            raise DomainError(f"q must lie strictly in (0,1), got {qv}")
        object.__setattr__(self, "q", qv)

    def workdps(self, extra: int = 0):
        """mpmath context manager pinning the working precision."""
        return mp.workdps(self.working_precision + extra)

    @functools.cached_property
    def q_key(self) -> str:
        """Decimal key of the exact base, for the module caches.

        q is printed with the working precision plus twelve digits, or two
        more than its own mantissa needs to be read back (``repr_dps``),
        whichever is more, so distinct bases print apart and the caller's
        mp.dps never enters.  Caches key on (q_key, working_precision).
        """
        bits = self.q._mpf_[3]
        with mp.workdps(max(self.working_precision + 12, repr_dps(bits) + 2)):
            return str(self.q)

    @functools.cached_property
    def _squared(self) -> "QContext":
        with self.workdps(10):
            q2 = self.q ** 2
        return QContext(q2, self.working_precision)

    def base_squared(self) -> "QContext":
        """Context for the same computation carried out in base q^2.

        q^2 is formed at the working precision plus ten digits, once per
        context; every call returns the same instance.
        """
        return self._squared


@dataclass(frozen=True)
class TruncationPolicy:
    """Window and tail rules for truncated sums.

    bilateral_window fixes [lo, hi] for sums over the integers; when
    adaptive is set the window is extended until three consecutive boundary
    terms fall below tail_tol on each side (or max_terms is hit).
    """

    max_terms: int = 4000
    tail_tol: float = 1e-25
    bilateral_window: tuple[int, int] = (-30, 40)
    adaptive: bool = True
    tail_ratio: float = 0.5  # geometric extrapolation ratio for tail bounds

    def __post_init__(self):
        lo, hi = self.bilateral_window
        if lo > hi:
            raise DomainError("bilateral window needs lo <= hi")
        if self.max_terms <= 0 or self.tail_tol <= 0:
            raise DomainError("max_terms and tail_tol must be positive")


@dataclass(frozen=True)
class SeriesResult:
    """A numeric value with an estimated truncation error.

    max_term is the largest term magnitude of a series (rphis sets it), so
    max_term / |value| measures the sum's cancellation.
    """

    value: mp.mpf
    est_error: mp.mpf
    terms_used: int
    converged: bool
    max_term: Optional[mp.mpf] = None

    def __float__(self):
        return float(self.value)


def qpoch_finite(a, ctx: QContext, n: int) -> mp.mpf:
    """(a; q)_n = prod_{k<n} (1 - a q^k); the empty product is 1."""
    if n < 0:
        raise DomainError("qpoch_finite needs n >= 0")
    a = mp.mpf(a)
    q = ctx.q
    r = mp.mpf(1)
    aqk = a
    for _ in range(n):
        r *= 1 - aqk
        aqk *= q
    return r


def qpoch_infinite(a, ctx: QContext, policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """(a; q)_infty, truncated once |a| q^k drops below the tail tolerance
    and below 10^-(working_precision+5).

    The tail bound uses log(prod (1-aq^k)) ~ -sum aq^k, so the first-order
    relative error after stopping at k is |a| q^k / (1-q), doubled to stay
    conservative.  The product runs at the working precision plus ten
    digits, or at the caller's precision when that is higher.
    """
    if mp.mp.dps < ctx.working_precision + 10:
        with ctx.workdps(10):
            return qpoch_infinite(a, ctx, policy)
    policy = policy or TruncationPolicy()
    a = mp.mpf(a)
    q = ctx.q
    tol = mp.mpf(policy.tail_tol)
    stop = min(tol, mp.mpf(10) ** (-ctx.working_precision - 5))
    r = mp.mpf(1)
    aqk = a
    k = 0
    while abs(aqk) >= stop:
        r *= 1 - aqk
        aqk *= q
        k += 1
        if k > policy.max_terms:
            raise NonConvergent("qpoch_infinite exhausted max_terms")
    est = 2 * abs(r) * abs(aqk) / (1 - q)
    return SeriesResult(r, est, k, bool(est <= tol))


def _as_qpower(a, ctx: QContext, limit: int) -> Optional[int]:
    """Return n >= 0 if a == q^{-n} to working accuracy, else None."""
    a = mp.mpf(a)
    if a < 1:
        return None
    n = int(mp.nint(-mp.log(a) / mp.log(ctx.q)))
    if 0 <= n <= limit and abs(a - ctx.q ** (-n)) <= abs(a) * mp.mpf(10) ** (-ctx.working_precision + 6):
        return n
    return None


def rphis(upper: Sequence, lower: Sequence, ctx: QContext, z,
          policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Basic hypergeometric series r_phi_s(upper; lower; q, z).

    Gasper-Rahman convention: the k-th term carries
    [(-1)^k q^{k(k-1)/2}]^{1+s-r}.  An upper parameter q^{-n} terminates the
    sum at k = n exactly (est_error 0); a lower parameter q^{-m} reached by
    the summation raises PoleInLowerParameter.
    """
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

    # cancellation-aware cutoff: the discarded tail must sit below the
    # roundoff floor of the summation itself, which is set by the largest
    # term at the active precision, not by an absolute tolerance
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
            return SeriesResult(total, mp.mpf(0), k + 1, True, max_term)
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
                    return SeriesResult(total, est, k + 1, bool(est <= tol), max_term)
            else:
                small = 0
            if k > policy.max_terms:
                raise NonConvergent("rphis exhausted max_terms")


def bilateral_window(term: Callable[[int], object], policy: TruncationPolicy,
                     below: Callable[[object, mp.mpf], bool]):
    """The window and stop rule of ``bilateral_sum``, for terms of any kind.

    term(p) is evaluated on the policy's window; in adaptive mode each side
    then grows until its three boundary terms are below tail_tol / 30, the
    threshold that lands the doubled 6-term estimate of ``tail_estimate``
    under tail_tol.  below(v, bnd) says whether |v| < bnd for the mpf bnd.
    Returns (vals, lo, hi, edge): every term evaluated by index, the window
    reached, and the indices of the boundary terms (three per side, shared
    when the window is narrower than six).
    """
    lo, hi = policy.bilateral_window
    bnd = tail_threshold(policy)

    vals = {p: term(p) for p in range(lo, hi + 1)}

    def side_ok(ps):
        return all(below(vals[p], bnd) for p in ps)

    if policy.adaptive:
        while not side_ok(range(lo, min(lo + 3, hi + 1))):
            lo -= 1
            vals[lo] = term(lo)
            if len(vals) > policy.max_terms:
                raise NonConvergent("bilateral_sum: left tail did not settle")
        while not side_ok(range(max(hi - 2, lo), hi + 1)):
            hi += 1
            vals[hi] = term(hi)
            if len(vals) > policy.max_terms:
                raise NonConvergent("bilateral_sum: right tail did not settle")
    edge = list(range(lo, min(lo + 3, hi + 1))) + list(range(max(hi - 2, lo), hi + 1))
    return vals, lo, hi, edge


def tail_threshold(policy: TruncationPolicy) -> mp.mpf:
    """tail_tol / 30, below which a boundary term counts as small: six such
    terms keep the doubled estimate of ``tail_estimate`` under tail_tol."""
    return mp.mpf(policy.tail_tol) / 30


def tail_estimate(boundary: mp.mpf, policy: TruncationPolicy):
    """(estimate, converged) of a truncated sum from the exact sum of its
    boundary magnitudes.

    The sum is doubled and extrapolated geometrically with the policy's
    tail_ratio; the sum converged when that is at most tail_tol.
    """
    ratio = mp.mpf(policy.tail_ratio)
    est = 2 * boundary * (1 + ratio / (1 - ratio))
    return est, bool(est <= mp.mpf(policy.tail_tol))


def _abs_below(v, bnd) -> bool:
    return abs(v) < bnd


def bilateral_sum(term: Callable[[int], mp.mpf],
                  policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Deterministic sum of term(p) over an integer window.

    Summation is in ascending index order for bit-reproducibility.  In
    adaptive mode the window grows until three consecutive boundary terms
    are below tail_tol on each side (``bilateral_window``).  The error
    estimate is the last three boundary magnitudes per side with a doubled
    geometric extrapolation (``tail_estimate``).  Terms are used as
    returned: an mpf at the current precision, a float or an int.
    """
    policy = policy or TruncationPolicy()
    vals, lo, hi, edge = bilateral_window(term, policy, _abs_below)
    total = mp.mpf(0)
    for p in range(lo, hi + 1):
        total += vals[p]
    est, converged = tail_estimate(mp.fsum(abs(vals[p]) for p in edge), policy)
    return SeriesResult(total, est, len(vals), converged)
