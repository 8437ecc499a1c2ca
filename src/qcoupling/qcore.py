"""Foundational q-arithmetic.

q-Pochhammer symbols, basic hypergeometric series in the Gasper-Rahman
convention, and the one engine for truncated sums over all integers,
``bilateral_sum``, with its tail-error estimate.

Every value is carried at the precision of its QContext and every public
value is an ``mpmath.mpf``.  The q-Pochhammer symbols run on mpmath reals;
every basic hypergeometric series (``rphis``, the J series, the Askey-Wilson
sum) on integers in one fixed-point loop, ``_phi_fixed``.  ``bilateral_sum``
adds its terms on Python integers: a term
is an exact pair (m, e) for m 2^e (``mantissa`` turns an mpf into one), and
a window's terms are added in units lying ``_level_bits`` (the working
precision in bits plus 64) below its largest term.  Powers of q^{1/2} come
as such pairs from one process table (``qpower``), each formed once per
exponent, base and precision.  A product of such pairs that is not a sum
becomes an mpf in one place, ``rounded``, at the precision of every J value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, repr_dps, round_nearest, to_fixed

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
    "cached",
    "mantissa",
    "exact_product",
    "rounded",
    "qpower",
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
        mp.dps never enters.  Every process cache keys on (q_key,
        working_precision), as ``cached`` does.
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
    tail_ratio, the ratio of the geometric tail extrapolation, lies in [0, 1).
    Window bounds and max_terms are integers (not bools), adaptive a bool.
    """

    max_terms: int = 4000
    tail_tol: float = 1e-25
    bilateral_window: tuple[int, int] = (-30, 40)
    adaptive: bool = True
    tail_ratio: float = 0.5  # geometric extrapolation ratio for tail bounds

    def __post_init__(self):
        try:
            lo, hi = self.bilateral_window
            if bool in (type(lo), type(hi), type(self.max_terms)):
                raise TypeError
            lo, hi = operator.index(lo), operator.index(hi)
            operator.index(self.max_terms)
        except (TypeError, ValueError):
            raise DomainError(f"window bounds and max_terms must be integers, got "
                              f"{self.bilateral_window!r} and {self.max_terms!r}") from None
        if not isinstance(self.adaptive, bool):
            raise DomainError(f"adaptive must be true or false, got {self.adaptive!r}")
        object.__setattr__(self, "bilateral_window", (lo, hi))
        if lo > hi:
            raise DomainError("bilateral window needs lo <= hi")
        if self.max_terms <= 0 or self.tail_tol <= 0:
            raise DomainError("max_terms and tail_tol must be positive")
        if not 0 <= self.tail_ratio < 1:
            raise DomainError(f"tail_ratio must lie in [0, 1), got {self.tail_ratio}")


def integer_label(value, name: str) -> int:
    """An order or lattice label as an int, through ``operator.index``.

    A numpy integer is read as the integer it holds; anything else, such as
    1.7 or "2", raises DomainError, so a label is never silently truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def cached(table: dict, ctx: QContext, labels: tuple, compute: Callable[[], object]):
    """table's value at labels for the base and precision of ctx.

    The key is labels + (ctx.q_key, ctx.working_precision), so no entry
    serves another q or precision; compute() fills it on the first call.
    """
    key = labels + (ctx.q_key, ctx.working_precision)
    hit = table.get(key)
    if hit is None:
        hit = table[key] = compute()
    return hit


@dataclass(frozen=True)
class SeriesResult:
    """A numeric value with an estimated truncation error."""

    value: mp.mpf
    est_error: mp.mpf
    terms_used: int
    converged: bool

    def __float__(self):
        return float(self.value)

    def residual(self, target) -> "SeriesResult":
        """|value - target|, with this sum's estimate, terms and ``converged``."""
        return SeriesResult(abs(self.value - target), self.est_error, self.terms_used,
                            self.converged)


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
    """Return n >= 0 if the mpf a == q^{-n} to working accuracy, else None."""
    if a < 1:
        return None
    n = int(mp.nint(-mp.log(a) / mp.log(ctx.q)))
    if 0 <= n <= limit and abs(a - ctx.q ** (-n)) <= abs(a) * mp.mpf(10) ** (-ctx.working_precision + 6):
        return n
    return None


def rphis(upper: Sequence, lower: Sequence, ctx: QContext, z,
          policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Basic hypergeometric series r_phi_s(upper; lower; q, z), by ``_phi_fixed``.

    Gasper-Rahman convention: the k-th term carries
    [(-1)^k q^{k(k-1)/2}]^{1+s-r}.  An upper parameter q^{-n} terminates the
    sum at k = n exactly (est_error 0); a lower parameter q^{-m} reached by
    the summation raises PoleInLowerParameter.  An open sum's estimate is
    2 thr / (1 - q), thr its last stop threshold.
    """
    return _rphis(upper, lower, ctx, z, policy)[0]


def _rphis(upper: Sequence, lower: Sequence, ctx: QContext, z,
           policy: Optional[TruncationPolicy]) -> Tuple[SeriesResult, mp.mpf]:
    """``rphis`` and the largest term of its sum."""
    policy = policy or TruncationPolicy()
    upper = [mp.mpf(a) for a in upper]
    lower = [mp.mpf(b) for b in lower]
    z = mp.mpf(z)
    ends = [_as_qpower(a, ctx, policy.max_terms) for a in upper]
    nterm = min((n for n in ends if n is not None), default=None)
    for b in lower:
        m = _as_qpower(b, ctx, policy.max_terms)
        if m is not None and (nterm is None or m < nterm):
            raise PoleInLowerParameter(f"lower parameter q^-{m} hit by the series")

    # z below 1, and for r > s + 1 the divisors q^k of a terminating sum, keep
    # their relative precision: the unit drops by the bits they fall below 1
    prec = series_prec() + (max(0, -mp.mag(z)) if z else 0)
    if len(upper) > len(lower) + 1 and nterm:
        prec += (len(upper) - len(lower) - 1) * nterm * (1 - mp.mag(ctx.q))
    total, largest, thr, terms = _phi_fixed(upper, lower, z, ctx, prec, policy, nterm)
    est = 2 * mp.mpf((thr, -prec)) / (1 - ctx.q)  # 0 for a terminating sum
    return (SeriesResult(mp.mpf((total, -prec)), est, terms, bool(est <= policy.tail_tol)),
            mp.mpf((largest, -prec)))


def series_prec() -> int:
    """The bits of ``_phi_fixed``'s unit: the mpmath precision plus 20."""
    return mp.mp.prec + 20


def lost_digits(largest: mp.mpf, total: mp.mpf) -> int:
    """log10(largest / |total|) from the binary exponents (2^(mag-1) <= |v| <
    2^mag), rounded up by under one digit; all mpmath digits for a total of 0."""
    if not total:
        return mp.mp.dps
    return math.ceil((mp.mag(largest) - mp.mag(total) + 1) * math.log10(2))


@functools.lru_cache(maxsize=256)
def _stop_units(tail_tol: float, dps: int, work_prec: int, prec: int) -> Tuple[int, int]:
    """tail_tol, at least one unit so that terms underflowing to 0 count as
    small, and 10^(5-dps) formed at work_prec bits, in units of 2^-prec."""
    with mp.workprec(work_prec):
        return (max(to_fixed(mp.mpf(tail_tol)._mpf_, prec), 1),
                to_fixed((mp.mpf(10) ** (5 - dps))._mpf_, prec))


def _phi_fixed(upper: Sequence[mp.mpf], lower: Sequence[mp.mpf], z: mp.mpf, ctx: QContext,
               prec: int, policy: Optional[TruncationPolicy], nterm: Optional[int] = None,
               fold: bool = False):
    """The one series loop: r_phi_s(upper; lower; q, z) on Python integers.

    The mpf arguments are cut to units of 2^-prec (prec >= ``series_prec()``),
    which also hold the running q^k, a q^k, b q^k and z q^{ek}, e = 1 + s - r
    counting every parameter (e < 0 divides by q^{-ek}).  Zero parameters drop
    out; a term costs a few integer products and one floor division.  The sum
    ends at k = nterm if given, else after three terms below thr =
    min(tail_tol, largest 10^-(dps-5)).  fold returns a terminating sum times
    (b_1..b_s; q)_nterm, each (b; q)_k folded into the tail (b q^k; q)_{nterm-k}:
    finite where (b; q)_nterm vanishes.  Returns the sum, its largest term and
    the last thr (0 when terminating) in units of 2^-prec, and the term count.
    """
    one = 1 << prec
    q = to_fixed(ctx.q._mpf_, prec)
    z = to_fixed(z._mpf_, prec)
    extra = 1 + len(lower) - len(upper)
    ups = [to_fixed(a._mpf_, prec) for a in upper if a]
    lows = [to_fixed(b._mpf_, prec) for b in lower if b]
    tails = None
    if fold:  # tails[k] = (b q^k; q)_{nterm-k}, a backward running product
        runs = [lows]
        while len(runs) < nterm:
            runs.append([b * q >> prec for b in runs[-1]])
        tails = [one]
        for bs in reversed(runs[:nterm]):
            tails.append(math.prod(one - b for b in bs) * tails[-1] >> prec * len(bs))
        tails.reverse()
        lows = []
    lift = (len(lows) - len(ups) - min(extra, 0)) * prec
    up, down, neg = max(lift, 0), max(-lift, 0), extra & 1
    # q^e in units; for e = 1 that is q itself, as in the J loop this replaced
    qe = q ** extra >> prec * (extra - 1) if extra > 0 else 0
    qk = term = one
    total = one if tails is None else tails[0]
    largest = abs(total)
    tol, eps = _stop_units(policy.tail_tol, mp.mp.dps, mp.mp.prec, prec) if nterm is None \
        else (0, 0)
    thr = min(tol, eps)
    k = small = 0
    while k != nterm:
        qk1 = qk * q >> prec
        num = term * z
        if ups:  # the J series has none, and it runs this loop most
            for i, a in enumerate(ups):
                num *= one - a
                ups[i] = a * q >> prec
        den = one - qk1
        for i, b in enumerate(lows):
            den *= one - b
            lows[i] = b * q >> prec
        if extra < 0:
            den *= qk ** -extra
        if den == 0:
            raise PoleInLowerParameter("zero denominator during summation")
        if neg:
            num = -num
        term = (num << up) // (den << down)
        k += 1
        qk = qk1
        if qe:
            z = z * qe >> prec
        w = term if tails is None else term * tails[k] >> prec
        total += w
        size = abs(w)
        if size > largest:
            largest = size
            thr = min(tol, largest * eps >> prec)
        if nterm is None:
            if size < thr:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            if k > policy.max_terms:
                raise NonConvergent("r_phi_s series exhausted max_terms")
    return total, largest, thr, k + 1


def mantissa(v: mp.mpf) -> Tuple[int, int]:
    """(m, e) with v = m 2^e exactly."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


def exact_product(*pairs: Tuple[int, int]) -> Tuple[int, int]:
    """The exact product of (m, e) pairs, as one pair."""
    m, e = 1, 0
    for fm, fe in pairs:
        m *= fm
        e += fe
    return m, e


def rounded(v: Tuple[int, int], ctx: QContext) -> mp.mpf:
    """The exact pair v = (m, e) rounded to nearest at the working precision
    plus five digits, the precision every J value has."""
    m, e = v
    return mp.make_mpf(from_man_exp(m, e, dps_to_prec(ctx.working_precision + 5), round_nearest))


def _exact(m: int, e: int) -> mp.mpf:
    """The mpf m 2^e, unrounded."""
    return mp.make_mpf(from_man_exp(m, e))


_POWERS: dict = {}


def qpower(k: int, ctx: QContext) -> Tuple[int, int]:
    """q^{k/2} as an exact (m, e) pair.

    Formed as q ** (k/2) at the working precision plus ten digits (an
    integer power for even k, an integer power of sqrt(q) for odd k) once
    per exponent, base and precision, in a process table keyed as
    ``cached`` keys, with the key written out.
    """
    key = (k, ctx.q_key, ctx.working_precision)
    hit = _POWERS.get(key)
    if hit is None:
        with ctx.workdps(10):
            hit = _POWERS[key] = mantissa(ctx.q ** (mp.mpf(k) / 2))
    return hit


def _level_bits(ctx: QContext) -> int:
    """Bits a window's sum keeps below its largest term."""
    return math.ceil(ctx.working_precision * math.log2(10)) + 64


def _below(v: Tuple[int, int], bnd: mp.mpf) -> bool:
    """|m 2^e| < bnd for v = (m, e), compared exactly."""
    m, e = v
    if not m:
        return True
    m = abs(m)
    _, bm, be, bbits = bnd._mpf_
    top, btop = e + m.bit_length(), be + bbits
    if top != btop:
        return top < btop
    return m << (e - be) < bm if e >= be else m < bm << (be - e)


def _fixed_sum(terms, bits: int) -> mp.mpf:
    """Sum of the (m, e) terms, in order, on integers in units of 2^scale,
    ``bits`` below the largest term's leading bit; each term is cut to that
    unit (floored), so the error is below one unit per term."""
    tops = [e + abs(m).bit_length() for m, e in terms if m]
    if not tops:
        return mp.mpf(0)
    scale = max(tops) - bits
    total = 0
    for m, e in terms:
        total += m << (e - scale) if e >= scale else m >> (scale - e)
    return _exact(total, scale)


def bilateral_window(term: Callable[[int], Tuple[int, int]], policy: TruncationPolicy):
    """The window and stop rule of ``bilateral_sum``.

    term(p) is evaluated on the policy's window; in adaptive mode each side
    then grows until its three boundary terms are below tail_tol / 30, the
    threshold that lands the doubled 6-term estimate of ``tail_estimate``
    under tail_tol, compared exactly.
    Returns (vals, lo, hi, edge): every term evaluated by index, the window
    reached, and the indices of the boundary terms (three per side, shared
    when the window is narrower than six).
    """
    lo, hi = policy.bilateral_window
    bnd = tail_threshold(policy)

    vals = {p: term(p) for p in range(lo, hi + 1)}

    def side_ok(ps):
        return all(_below(vals[p], bnd) for p in ps)

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


def bilateral_sum(term: Callable[[int], Tuple[int, int]], policy: Optional[TruncationPolicy],
                  ctx: QContext) -> SeriesResult:
    """Deterministic sum of term(p) over an integer window, on integers.

    term(p) returns an exact pair (m, e) for m 2^e; (0, 0) is zero.  In
    adaptive mode the window grows until three consecutive boundary terms
    are below tail_tol / 30 on each side (``bilateral_window``).  The terms
    are added on integers in units lying ``_level_bits(ctx)`` (the working
    precision in bits plus 64) below the largest term, so the value is right
    to about (terms used) 2^-_level_bits times that term whatever the
    magnitudes; it is returned as the exact mpf of that integer sum.  The
    error estimate is the exact sum of the boundary magnitudes, three per
    side, with a doubled geometric extrapolation (``tail_estimate``).
    """
    policy = policy or TruncationPolicy()
    vals, lo, hi, edge = bilateral_window(term, policy)
    boundary = [vals[p] for p in edge]
    low = min(e for _, e in boundary)
    est, converged = tail_estimate(_exact(sum(abs(m) << (e - low) for m, e in boundary), low),
                                   policy)
    value = _fixed_sum([vals[p] for p in range(lo, hi + 1)], _level_bits(ctx))
    return SeriesResult(value, est, len(vals), converged)
