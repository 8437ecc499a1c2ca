"""Multivariate q-Bessel functions and tree recoupling coefficients.

The d-variable q-Bessel function is a coupled product of base-q factors;
the (k+2)-fold tree recoupling coefficients factor into products of
three-factor recoupling weights and are, up to a sign-power prefactor, the
same multivariate q-Bessel functions in base q^2.

Every nested lattice sum runs through ``_nested_vector_sum``: one
bilateral level per coordinate, innermost-first, each level one call of
the library's single summation engine ``qcore.bilateral_sum``, and
optionally an ``inner`` nested sum multiplied into each nonzero term.  The
raw box sum has individually astronomical terms that cancel, while each
inner level collapses to a near-delta.  The engine returns a SeriesResult whose
estimate, term count and ``converged`` flag cover every level the value
rests on.

The levels sum on Python integers.  A term is an exact pair (m, e) for
m 2^e, the integer product of factors read from the process tables:
recoupling weights (-q)^e J_order(q^{2e}; q^2) along a chain
(``coupling.weight_pair``, at the labels of ``_R_labels`` and
``_S_labels``), lattice J values (``coupling._J``, at the labels of
``_factor_labels``) and powers of q (``qcore.qpower``); an evaluation
keeps no memo of its own.  Each level
adds its terms at a scale 2^-P chosen from its own largest term, so it
keeps the working precision plus 64 bits relative to that term whatever
the magnitudes.  The values that are not sums, ``threenj_R``,
``threenj_S`` and ``multi_qbessel``, are exact products along the same label
walks, rounded once by ``qcore.rounded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

from .errors import DomainError
from .qcore import (_exact, at_working_precision, cached, QContext, SeriesResult,
                    TruncationPolicy, bilateral_sum, exact_product, integer_label, mantissa,
                    qpower, rounded)
from .coupling import _J, _minus_q_power, verify_biedenharn_elliott, weight_pair
from .representation import cg_coefficient

__all__ = [
    "hat",
    "drop_first",
    "MultiBesselParams",
    "ThreeNJParams",
    "multi_qbessel",
    "multi_orthogonality_residual",
    "threenj_R",
    "threenj_S",
    "threenj_corollary_gap",
    "verify_multivariate_BE",
    "multi_be_stated_form_residual",
    "multivariate_be_cross_check",
    "verify_S_composition",
    "multi_cg",
    "cg_expansion_residual",
]


def hat(v: Sequence[int]) -> Tuple[int, ...]:
    """Reversal accessor for label vectors."""
    return tuple(reversed(tuple(v)))


def drop_first(v: Sequence[int]) -> Tuple[int, ...]:
    """Drop the first component of a label vector."""
    return tuple(v)[1:]


def _label_vector(values, name: str) -> Tuple[int, ...]:
    return tuple(integer_label(v, name) for v in values)


@dataclass(frozen=True)
class MultiBesselParams:
    """Order vector nu (length d+2) and lattice vectors x, lam (length d).

    Boundary conventions lam_0 = nu_0 and x_{d+1} = nu_{d+1} are applied
    internally, never stored.  Every label is read through
    ``qcore.integer_label``: a numpy integer is kept as an int, 1.7 or True
    raises DomainError.
    """

    nu: Tuple[int, ...]
    x: Tuple[int, ...]
    lam: Tuple[int, ...]

    def __post_init__(self):
        d = len(self.x)
        if d < 1 or len(self.lam) != d or len(self.nu) != d + 2:
            raise DomainError("need len(x) = len(lam) = d >= 1 and len(nu) = d+2")
        for name in ("nu", "x", "lam"):
            object.__setattr__(self, name, _label_vector(getattr(self, name), name))

    @property
    def d(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ThreeNJParams:
    """Root label x, leaf labels n (length k+2), chain labels r, s (length k).

    Conventions s_0 = n_1 and r_{k+1} = n_{k+2} are applied internally.
    Labels are read as in ``MultiBesselParams``.
    """

    x: int
    n: Tuple[int, ...]
    r: Tuple[int, ...]
    s: Tuple[int, ...]

    def __post_init__(self):
        k = len(self.r)
        if k < 1 or len(self.s) != k or len(self.n) != k + 2:
            raise DomainError("need len(r) = len(s) = k >= 1 and len(n) = k+2")
        object.__setattr__(self, "x", integer_label(self.x, "x"))
        for name in ("n", "r", "s"):
            object.__setattr__(self, name, _label_vector(getattr(self, name), name))

    @property
    def k(self) -> int:
        return len(self.r)


def _factor_labels(nu, x, lam):
    """Per-factor (order, argument-exponent) pairs with boundary conventions."""
    d = len(x)
    lam_full = (nu[0],) + tuple(lam)
    x_full = tuple(x) + (nu[d + 1],)
    out = []
    for j in range(1, d + 1):
        order = nu[j] - x_full[j] - lam_full[j - 1]
        expo = x_full[j - 1] - x_full[j] + lam_full[j] - lam_full[j - 1]
        out.append((order, expo))
    return out


def _R_labels(x: int, n, r, s) -> List[Tuple[int, int]]:
    """(order, e) of each weight of the right-comb chain, j = 1..k.

    R^{x, s_{j-1}, n_{j+1}, r_{j+1}}_{r_j, s_j} with s_0 = n_1 and
    r_{k+1} = n_{k+2}; the weight R^{x,n1,n2,n3}_{p1,p2} has order
    x-n1+n2-n3 and e = p1+p2-n1-n3 (``coupling.recoupling_R``).
    """
    k = len(r)
    s_prev, out = n[0], []
    for j in range(k):
        r_next = r[j + 1] if j + 1 < k else n[k + 1]
        out.append((x - s_prev + n[j + 1] - r_next, r[j] + s[j] - s_prev - r_next))
        s_prev = s[j]
    return out


def _S_labels(x: int, n, r, s) -> List[Tuple[int, int]]:
    """(order, e) of each weight of the left-hanging chain, j = 1..k.

    R^{s_{j+1}, n_1, r_{j-1}, n_{j+2}}_{r_j, s_j} with s_{k+1} = x and
    r_0 = n_2.
    """
    k = len(r)
    r_prev, out = n[1], []
    for j in range(k):
        s_next = s[j + 1] if j + 1 < k else x
        out.append((s_next - n[0] + r_prev - n[j + 2], r[j] + s[j] - n[0] - n[j + 2]))
        r_prev = r[j]
    return out


def _weight_product(labels, ctx: QContext) -> Tuple[int, int]:
    """The exact product of the weights ``weight_pair`` at (order, e) labels."""
    return exact_product(*[weight_pair(order, e, ctx) for order, e in labels])


def _J_product(labels, ctx: QContext) -> Tuple[int, int]:
    """The exact product of the J values ``coupling._J`` at (order, y) labels."""
    return exact_product(*[_J(order, y, ctx) for order, y in labels])


def multi_qbessel(p: MultiBesselParams, ctx: QContext) -> mp.mpf:
    """Coupled product of q-Bessel factors J_{nu_j - x_{j+1} - lam_{j-1}}(...),
    exact and rounded once."""
    return rounded(_J_product(_factor_labels(p.nu, p.x, p.lam), ctx), ctx)


# the orthogonality's level sums, shared by every call of the process: per
# level labels, the sums at each x_{j+1} (``multi_orthogonality_residual``)
_ORTHOGONALITY_LEVELS: dict = {}


@at_working_precision
def multi_orthogonality_residual(nu: Sequence[int], lam: Sequence[int], lam2: Sequence[int],
                                 ctx: QContext,
                                 policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the d-fold lattice orthogonality of multivariate q-Bessel.

    sum_x J_nu(x,lam) J_nu(x,lam2) q^{x_1} = delta_{lam,lam2}
    q^{nu_{d+1}+nu_0-lam_d}, the nested sum evaluated innermost-first
    (x_1 innermost): level j sums over x_j, and level j-1 at x_j is its
    ``inner``.  Each level's sums are kept per x_{j+1} in the process table
    ``_ORTHOGONALITY_LEVELS``, read through ``qcore.cached`` under the
    policy and the level's labels, so grid sweeps reuse inner levels across
    label pairs.  Like every table, it lives as long as the process.

    ``est_error`` is the truncation estimate of the nested sum: the sum of
    the estimates of every level sum the total rests on, a stored level
    counted once per use.  ``terms_used`` counts their terms the same way,
    and ``converged`` is False as soon as one of those sums did not
    converge.  None of the three depends on what the table holds.

    Each term reads its J factors (``coupling._J``) and q^{x_1}
    (``qcore.qpower``) from the process tables.
    """
    policy = policy or TruncationPolicy()
    nu = _label_vector(nu, "nu")
    lam = _label_vector(lam, "lam")
    lamp = _label_vector(lam2, "lam2")
    d = len(lam)
    if len(lamp) != d or len(nu) != d + 2:
        raise DomainError("label lengths inconsistent")
    lam_full = (nu[0],) + lam
    lamp_full = (nu[0],) + lamp

    def level(j):
        # (x_{j+1},) -> sum over x_j of factor_j(lam) * factor_j(lam2) * (q^{x_1} or level j-1)
        table = cached(_ORTHOGONALITY_LEVELS, ctx,
                       (policy, nu, lam_full[:j + 1], lamp_full[:j + 1]), dict)
        inner = level(j - 1) if j > 1 else None
        # factor_j = J_{nu_j - x_{j+1} - lam_{j-1}}(q^{x_j - x_{j+1} + lam_j - lam_{j-1}})
        order, order_p = nu[j] - lam_full[j - 1], nu[j] - lamp_full[j - 1]
        shift, shift_p = lam_full[j] - lam_full[j - 1], lamp_full[j] - lamp_full[j - 1]

        def at(tv):
            hit = table.get(tv)
            if hit is None:
                xj1 = tv[0]

                def term(xv):
                    xj = xv[0]
                    am, ae = _J(order - xj1, xj - xj1 + shift, ctx)
                    bm, be = _J(order_p - xj1, xj - xj1 + shift_p, ctx)
                    if inner is not None:
                        return am * bm, ae + be
                    qm, qe = qpower(2 * xj, ctx)
                    return am * bm * qm, ae + be + qe

                hit = table[tv] = _nested_vector_sum(term, 1, policy, ctx, inner)
            return hit

        return at

    total = level(d)((nu[d + 1],))
    exponent = nu[d + 1] + nu[0] - lam[d - 1]
    target = _exact(*qpower(2 * exponent, ctx)) if lam == lamp else mp.mpf(0)
    return total.residual(target)


def threenj_R(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """Chain product of recoupling weights along the right-comb tree.

    prod_{j=1..k} R^{x, s_{j-1}, n_{j+1}, r_{j+1}}_{r_j, s_j} with s_0 = n_1
    and r_{k+1} = n_{k+2}: the exact product of the weights' ``weight_pair``,
    rounded once, so a k = 1 chain is ``recoupling_R``.
    """
    return rounded(_weight_product(_R_labels(p.x, p.n, p.r, p.s), ctx), ctx)


def threenj_S(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """Chain product for the left-hanging coupling scheme.

    prod_{j=1..k} R^{s_{j+1}, n_1, r_{j-1}, n_{j+2}}_{r_j, s_j} with
    s_{k+1} = x and r_0 = n_2, exact and rounded once as in ``threenj_R``.
    Lacks the reversal self-duality of threenj_R.
    """
    return rounded(_weight_product(_S_labels(p.x, p.n, p.r, p.s), ctx), ctx)


@at_working_precision
def threenj_corollary_gap(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """|threenj_R - (-q)^{r_1+s_k-n_1-n_{k+2}} J_nu(r,s; q^2)|.

    The bridge between the chain product and the multivariate q-Bessel value
    with order vector (n_1, x+n_2, ..., x+n_{k+1}, n_{k+2}).
    """
    k = p.k
    nu_vec = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    pref = _minus_q_power(p.r[0] + p.s[k - 1] - p.n[0] - p.n[k + 1], ctx)
    jval = _J_product(_factor_labels(nu_vec, p.r, p.s), ctx.base_squared())
    return abs(threenj_R(p, ctx) - rounded(exact_product(pref, jval), ctx))


@at_working_precision
def verify_multivariate_BE(p: ThreeNJParams, ctx: QContext,
                           policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the multivariate pentagon expansion, chain form.

    R^{x,n}_{r,s} = sum_{t in Z^{k-1}} S^{x,n}_{(t,r_1),s} R^{r_1,n'}_{r',t}:
    the nested sum's SeriesResult, its value the gap to ``threenj_R``.  The
    printed q-Bessel coefficient form is ``multi_be_stated_form_residual``.
    """
    policy = policy or TruncationPolicy()
    if p.k < 2:
        raise DomainError("multivariate pentagon needs k >= 2")
    nprime, rprime = drop_first(p.n), drop_first(p.r)

    def term(tvec):
        # S^{x,n}_{(t,r_1),s} R^{r_1,n'}_{r',t}
        return _weight_product(_S_labels(p.x, p.n, tvec + (p.r[0],), p.s)
                               + _R_labels(p.r[0], nprime, rprime, tvec), ctx)

    return _nested_vector_sum(term, p.k - 1, policy, ctx).residual(threenj_R(p, ctx))


@at_working_precision
def multi_be_stated_form_residual(p: ThreeNJParams, ctx: QContext,
                                  policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the pentagon expansion's stated q-Bessel coefficient form.

    The printed sign-power exponent, with t_0 = n_2, t_k = r_1 and
    s_{k+1} = x.  The form does not reproduce the chain form of
    ``verify_multivariate_BE``; the residual is faithful and O(1).
    """
    policy = policy or TruncationPolicy()
    if p.k < 2:
        raise DomainError("multivariate pentagon needs k >= 2")
    k = p.k
    nu_out = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    nu_in = (p.n[1],) + tuple(p.r[0] + p.n[j] for j in range(2, k + 1)) + (p.n[k + 1],)
    lhs = multi_qbessel(MultiBesselParams(nu_out, p.r, p.s), ctx)
    rprime = drop_first(p.r)
    s_ext = p.s + (p.x,)

    def term(tvec):
        # (-q^{1/2})^expo prod_j J(...) times J_{nu_in}(r', t)
        t_full = (p.n[1],) + tvec + (p.r[0],)
        expo = sum(tvec) + sum(p.s) - sum(p.n) - (k - 2) * p.n[0] - p.s[k - 1] + p.r[1]
        labels = [(s_ext[j] - p.n[0] + t_full[j - 1] + p.n[j + 1],
                   s_ext[j - 1] + t_full[j] - p.n[0] - p.n[j + 1]) for j in range(1, k + 1)]
        m, e = _J_product(labels + _factor_labels(nu_in, rprime, tvec), ctx)
        am, ae = qpower(expo, ctx)
        return (-m if expo & 1 else m) * am, e + ae

    return _nested_vector_sum(term, k - 1, policy, ctx).residual(lhs)


def _nested_vector_sum(term, dim: int, policy: TruncationPolicy, ctx: QContext,
                       inner=None) -> SeriesResult:
    """Sum term(tvec) over tvec in Z^dim, one bilateral level per coordinate.

    term(tvec) returns an exact pair (m, e) for m 2^e; (0, 0) is zero.  The
    first coordinate is innermost.  When ``inner`` is given, each nonzero
    term is multiplied by ``inner(tvec).value``, where ``inner`` returns the
    SeriesResult of a further nested sum; its mpf value enters as its
    integer mantissa and exponent.

    Each level is one ``qcore.bilateral_sum`` over its exact terms: its
    window, stop rule and estimate are that engine's, and it adds the terms
    on integers at a scale set by its own largest term, so no mpf arithmetic
    is done per term.

    Each level combines its own bilateral sum with every inner result it
    used (its coordinate sub-sums, or the ``inner`` results): the estimates
    and the term counts add, and ``converged`` is the AND of them all.  The
    estimates add unweighted, so the per-term path stays one multiplication;
    this takes the weights an inner result is multiplied by to be at most of
    order one.  They are q-Bessel products (orthogonality) and S chain
    coefficients (S-composition); none exceeds 1 in modulus on criterion
    5's grids, nor on the k = 2 S-composition instance the tests run.
    """
    used = []  # inner SeriesResults, one per index that used one
    if dim > 1:
        def level(t):
            sub = _nested_vector_sum(lambda rest: term(rest + (t,)), dim - 1, policy, ctx,
                                     None if inner is None else lambda rest: inner(rest + (t,)))
            used.append(sub)
            return mantissa(sub.value)
    elif inner is None:
        def level(t):
            return term((t,))
    else:
        def level(t):
            tvec = (t,)
            m, e = term(tvec)
            if not m:
                return m, e
            r = inner(tvec)
            used.append(r)
            im, ie = mantissa(r.value)
            return m * im, e + ie

    own = bilateral_sum(level, policy, ctx)
    if not used:
        return own
    return SeriesResult(own.value, own.est_error + _rounded_sum([r.est_error for r in used]),
                        own.terms_used + sum(r.terms_used for r in used),
                        own.converged and all(r.converged for r in used))


def _rounded_sum(values) -> mp.mpf:
    """Sum of the mpf values, exact on their mantissas (in units of the
    lowest exponent so far) and rounded once to the current precision, as
    ``mp.fsum`` rounds it."""
    total, low = 0, None
    for v in values:
        sign, m, e, _ = v._mpf_
        if not m:
            continue
        if sign:
            m = -m
        if low is None:
            total, low = m, e
        elif e >= low:
            total += m << (e - low)
        else:
            total, low = (total << (low - e)) + m, e
    if low is None:
        return mp.mpf(0)
    return mp.make_mpf(from_man_exp(total, low, mp.mp.prec, round_nearest))


@at_working_precision
def multivariate_be_cross_check(p: ThreeNJParams, ctx: QContext,
                                policy: Optional[TruncationPolicy] = None):
    """k = 2 consistency with the one-variable pentagon identity.

    The k = 2 chain expansion and the three-factor pentagon are the same
    statement; this maps the chain labels onto the pentagon's q-Bessel form
    (in the squared base) and returns (chain residual, mapped pentagon
    residual, translation gap of the left-hand sides).
    """
    policy = policy or TruncationPolicy()
    if p.k != 2:
        raise DomainError("cross check is a k = 2 statement")
    n1, n2, n3, n4 = p.n
    r1, r2 = p.r
    s1, s2 = p.s
    x = p.x
    res_chain = verify_multivariate_BE(p, ctx, policy).value
    # pentagon labels: the chain factors are R^{x,n1,n2,r2}_{r1,s1} R^{x,s1,n3,n4}_{r2,s2}
    P, Q, R = r1 - n1, r2 - s1, n4 - s2
    nu, mu1, mu2 = x - n1, n2 - r2, n1 - s1 + n3 - n4
    ctx2 = ctx.base_squared()
    res_pent = verify_biedenharn_elliott(P, Q, R, nu, mu1, mu2, ctx2, policy).value
    # translation: tree-weight LHS = (-q)^(e1+e2) * pentagon LHS in base q^2, exactly
    lhs_chain = threenj_R(p, ctx)
    e = (r1 + s1 - n1 - r2) + (r2 + s2 - s1 - n4)
    lhs_pent = exact_product(_minus_q_power(e, ctx), _J(nu + mu1, P - Q, ctx2),
                             _J(nu + mu2, Q - R, ctx2))
    gap = abs(lhs_chain - rounded(lhs_pent, ctx))
    return res_chain, res_pent, gap


@at_working_precision
def verify_S_composition(x: int, n: Sequence[int], r: Sequence[int], s: Sequence[int],
                         ctx: QContext,
                         policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the stated chain composition of S coefficients.

    S^{x,n}_{s,r} = sum over k intermediate vectors of
    prod_{j=1..k+1} S^{x,n_j}_{s_{j-1}, s_j}, with s_0 = r, s_{k+1} = s and
    n_j the cyclic rotations of n.  The k = 1 case is the backcoupling
    identity and fails with it; the residual is faithful.

    The sum over s_l is level l, and level l+1 at s_l is its ``inner``.
    ``est_error`` adds the truncation estimates of every level sum the
    right-hand side rests on, ``terms_used`` their terms, and ``converged``
    is False as soon as one of them did not converge (on a fixed window too
    narrow for the chain, say).
    """
    policy = policy or TruncationPolicy()
    n = _label_vector(n, "n")
    r = _label_vector(r, "r")
    s = _label_vector(s, "s")
    k = len(r)
    if len(s) != k or len(n) != k + 2:
        raise DomainError("label lengths inconsistent")

    def rotation(j):
        # n_j = (n_{k+3-j}, ..., n_{k+2}, n_1, ..., n_{k+2-j}), 1-based labels
        return tuple(n[(k + 2 - j + i) % (k + 2)] for i in range(k + 2))

    lhs = threenj_S(ThreeNJParams(x, n, s, r), ctx)

    def level(l, prev):
        # sum over s_l of S^{x,n_l}_{s_{l-1},s_l} times level l+1 at s_l; level k
        # ends the chain with S^{x,n_{k+1}}_{s_k,s} in its term
        rot, last = rotation(l), rotation(k + 1)

        def term(tvec):
            labels = _S_labels(x, rot, prev, tvec)
            if l == k:
                labels += _S_labels(x, last, tvec, s)
            return _weight_product(labels, ctx)

        return _nested_vector_sum(term, k, policy, ctx,
                                  None if l == k else lambda tvec: level(l + 1, tvec))

    rhs = level(1, r)
    return rhs.residual(lhs)


def multi_cg(x: int, r: Sequence[int], n: Sequence[int], ctx: QContext) -> float:
    """Chain product of Clebsch-Gordan coefficients along the right comb.

    prod_{j=1..k+1} C_{r_{j-1}, n_j, r_j} with r_0 = x and r_{k+1} = n_{k+2};
    zero as soon as any factor's negative-index convention fires.
    """
    x = integer_label(x, "x")
    r = _label_vector(r, "r")
    n = _label_vector(n, "n")
    k = len(r)
    if len(n) != k + 2:
        raise DomainError("need len(n) = len(r) + 2")
    r_full = (x,) + r + (n[k + 1],)
    val = 1.0
    for j in range(1, k + 2):
        val *= cg_coefficient(r_full[j - 1], n[j - 1], r_full[j], ctx)
        if val == 0.0:
            return 0.0
    return val


@at_working_precision
def cg_expansion_residual(x: int, r: Sequence[int], n: Sequence[int], ctx: QContext,
                          policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of C_{x,r,n} = sum_s R^{x,n}_{r,s} C_{x, hat s, hat n}, with
    the nested sum's estimate, terms and ``converged``."""
    policy = policy or TruncationPolicy()
    r = _label_vector(r, "r")
    n = _label_vector(n, "n")
    k = len(r)
    lhs = mp.mpf(multi_cg(x, r, n, ctx))

    def term(svec):
        c = multi_cg(x, hat(svec), hat(n), ctx)
        if c == 0.0:
            return 0, 0
        m, e = _weight_product(_R_labels(x, n, r, svec), ctx)
        num, den = c.as_integer_ratio()  # den = 2^(bit_length - 1)
        return m * num, e + 1 - den.bit_length()

    return _nested_vector_sum(term, k, policy, ctx).residual(lhs)
