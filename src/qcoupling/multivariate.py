"""Multivariate q-Bessel functions and tree recoupling coefficients.

The d-variable q-Bessel function is a coupled product of base-q factors;
the (k+2)-fold tree recoupling coefficients factor into products of
three-factor recoupling weights and are, up to a sign-power prefactor, the
same multivariate q-Bessel functions in base q^2.

Each chain is walked once, emitting the factors of a ``coupling.SumSpec``:
``_bessel_walk`` (the J factors of the multivariate q-Bessel function),
``_R_walk`` and ``_S_walk`` (the weights of the right-comb and the
left-hanging chain).  At integer labels a walk is a product, rounded once;
with forms in the coordinates of Z^d among its labels, a nested lattice sum.
Only cg-expansion keeps a term closure: its Clebsch-Gordan factor is a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

import mpmath as mp

from .errors import DomainError
from .qcore import (_exact, at_working_precision, cached, QContext, SeriesResult,
                    TruncationPolicy, integer_label, qpower)
from .coupling import (Factor, SumSpec, _nested_vector_sum, _spec_term, lattice_sum, variables,
                       verify_biedenharn_elliott)
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
    "s_lemma_residual",
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


def _bessel_walk(nu, x, lam, base: int = 1) -> Tuple[Factor, ...]:
    """The J factors of the multivariate q-Bessel function, j = 1..d:
    J_{nu_j - x_{j+1} - lam_{j-1}}(q^{x_j - x_{j+1} + lam_j - lam_{j-1}}) of
    base q^base, with lam_0 = nu_0 and x_{d+1} = nu_{d+1}."""
    d = len(x)
    lam_full = (nu[0],) + tuple(lam)
    x_full = tuple(x) + (nu[d + 1],)
    return tuple(Factor("J", nu[j] - x_full[j] - lam_full[j - 1],
                        lam_full[j] - lam_full[j - 1] - x_full[j] + x_full[j - 1], base)
                 for j in range(1, d + 1))


def _R_walk(x, n, r, s) -> Tuple[Factor, ...]:
    """The weights of the right-comb chain, j = 1..k.

    R^{x, s_{j-1}, n_{j+1}, r_{j+1}}_{r_j, s_j} with s_0 = n_1 and
    r_{k+1} = n_{k+2}; the weight R^{x,n1,n2,n3}_{p1,p2} has order
    x-n1+n2-n3 and e = p1+p2-n1-n3 (``coupling.recoupling_R``).
    """
    s_full, r_full = (n[0],) + tuple(s), tuple(r) + (n[len(r) + 1],)
    return tuple(Factor("weight", x - s_full[j] + n[j + 1] - r_full[j + 1],
                        r[j] + s[j] - s_full[j] - r_full[j + 1]) for j in range(len(r)))


def _S_walk(x, n, r, s) -> Tuple[Factor, ...]:
    """The weights of the left-hanging chain, j = 1..k.

    R^{s_{j+1}, n_1, r_{j-1}, n_{j+2}}_{r_j, s_j} with s_{k+1} = x and
    r_0 = n_2.
    """
    r_full, s_full = (n[1],) + tuple(r), tuple(s) + (x,)
    return tuple(Factor("weight", s_full[j + 1] - n[0] + r_full[j] - n[j + 2],
                        r[j] + s[j] - n[0] - n[j + 2]) for j in range(len(r)))


def multi_qbessel(p: MultiBesselParams, ctx: QContext) -> mp.mpf:
    """Coupled product of the q-Bessel factors of ``_bessel_walk``, rounded once."""
    return lattice_sum(SumSpec(0, _bessel_walk(p.nu, p.x, p.lam)), ctx)


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

    ``est_error``, ``terms_used`` and ``converged`` cover every level sum the
    total rests on, a stored level counted once per use, so none of the
    three depends on what the table holds.

    Level j's term is factor j of ``_bessel_walk`` at lam and at lam2, the
    one-factor walk at orders (lam_{j-1}, nu_j, x_{j+1}), x_j summed, times
    q^{x_1} at level 1.
    """
    policy = policy or TruncationPolicy()
    nu = _label_vector(nu, "nu")
    lam = _label_vector(lam, "lam")
    lamp = _label_vector(lam2, "lam2")
    d = len(lam)
    if len(lamp) != d or len(nu) != d + 2:
        raise DomainError("label lengths inconsistent")
    lam_full, lamp_full = (nu[0],) + lam, (nu[0],) + lamp
    tables = {j: cached(_ORTHOGONALITY_LEVELS, ctx, (policy, nu, lam_full[:j + 1], lamp_full[:j + 1]),
                        dict) for j in range(1, d + 1)}
    (xj,) = variables(1)
    q_x1 = 2 * xj

    def level(j, xj1):
        # x_{j+1} -> sum over x_j of factor_j(lam) * factor_j(lam2) * (q^{x_1} or level j-1)
        hit = tables[j].get(xj1)
        if hit is None:
            spec = SumSpec(1, _bessel_walk((lam_full[j - 1], nu[j], xj1), (xj,), lam_full[j:j + 1])
                           + _bessel_walk((lamp_full[j - 1], nu[j], xj1), (xj,), lamp_full[j:j + 1]),
                           half=q_x1 if j == 1 else 0)
            hit = tables[j][xj1] = _nested_vector_sum(_spec_term(spec, ctx), 1, policy, ctx,
                                                      None if j == 1 else partial(level, j - 1))
        return hit

    total = level(d, nu[d + 1])
    exponent = nu[d + 1] + nu[0] - lam[d - 1]
    target = _exact(*qpower(2 * exponent, ctx)) if lam == lamp else mp.mpf(0)
    return total.residual(target)


def threenj_R(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """Chain product of recoupling weights along the right-comb tree: the
    weights of ``_R_walk``, exact and rounded once, so a k = 1 chain is
    ``recoupling_R``."""
    return lattice_sum(SumSpec(0, _R_walk(p.x, p.n, p.r, p.s)), ctx)


def threenj_S(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """Chain product for the left-hanging coupling scheme: the weights of
    ``_S_walk``, exact and rounded once.  Lacks the reversal self-duality of
    threenj_R."""
    return lattice_sum(SumSpec(0, _S_walk(p.x, p.n, p.r, p.s)), ctx)


@at_working_precision
def threenj_corollary_gap(p: ThreeNJParams, ctx: QContext) -> mp.mpf:
    """|threenj_R - (-q)^{r_1+s_k-n_1-n_{k+2}} J_nu(r,s; q^2)|.

    The bridge between the chain product and the multivariate q-Bessel value
    with order vector (n_1, x+n_2, ..., x+n_{k+1}, n_{k+2}).
    """
    k = p.k
    nu_vec = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    e = p.r[0] + p.s[k - 1] - p.n[0] - p.n[k + 1]
    bessel = SumSpec(0, _bessel_walk(nu_vec, p.r, p.s, base=2), half=2 * e, sign=e)
    return abs(threenj_R(p, ctx) - lattice_sum(bessel, ctx))


@at_working_precision
def verify_multivariate_BE(p: ThreeNJParams, ctx: QContext,
                           policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the multivariate pentagon expansion, chain form.

    R^{x,n}_{r,s} = sum_{t in Z^{k-1}} S^{x,n}_{(t,r_1),s} R^{r_1,n'}_{r',t}:
    the nested sum's SeriesResult, its value the gap to ``threenj_R``.  The
    printed q-Bessel coefficient form is ``multi_be_stated_form_residual``.
    """
    if p.k < 2:
        raise DomainError("multivariate pentagon needs k >= 2")
    t = variables(p.k - 1)
    spec = SumSpec(p.k - 1, _S_walk(p.x, p.n, t + (p.r[0],), p.s)
                   + _R_walk(p.r[0], drop_first(p.n), drop_first(p.r), t))
    return lattice_sum(spec, ctx, policy).residual(threenj_R(p, ctx))


@at_working_precision
def multi_be_stated_form_residual(p: ThreeNJParams, ctx: QContext,
                                  policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the pentagon expansion's stated q-Bessel coefficient form.

    The printed sign-power exponent, with t_0 = n_2, t_k = r_1 and
    s_{k+1} = x.  The form does not reproduce the chain form of
    ``verify_multivariate_BE``; the residual is faithful and O(1).
    """
    if p.k < 2:
        raise DomainError("multivariate pentagon needs k >= 2")
    k = p.k
    nu_out = (p.n[0],) + tuple(p.x + p.n[j] for j in range(1, k + 1)) + (p.n[k + 1],)
    nu_in = (p.n[1],) + tuple(p.r[0] + p.n[j] for j in range(2, k + 1)) + (p.n[k + 1],)
    lhs = multi_qbessel(MultiBesselParams(nu_out, p.r, p.s), ctx)
    # (-q^{1/2})^expo prod_j J(...) times J_{nu_in}(r', t)
    t = variables(k - 1)
    t_full = (p.n[1],) + t + (p.r[0],)
    s_ext = p.s + (p.x,)
    expo = sum(t) + sum(p.s) - sum(p.n) - (k - 2) * p.n[0] - p.s[k - 1] + p.r[1]
    stated = tuple(Factor("J", s_ext[j] - p.n[0] + t_full[j - 1] + p.n[j + 1],
                          s_ext[j - 1] + t_full[j] - p.n[0] - p.n[j + 1]) for j in range(1, k + 1))
    spec = SumSpec(k - 1, stated + _bessel_walk(nu_in, drop_first(p.r), t), half=expo, sign=expo)
    return lattice_sum(spec, ctx, policy).residual(lhs)


@at_working_precision
def s_lemma_residual(x: int, n: Sequence[int], s: Sequence[int], s2: Sequence[int],
                     ctx: QContext, policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the unitarity of the left-hanging chain coefficients,
    sum_{r in Z^k} S^{x,n}_{r,s} S^{x,n}_{r,s2} = delta_{s,s2}: the sum's
    SeriesResult.  DomainError unless len(n) = len(s) + 2 = len(s2) + 2."""
    p = ThreeNJParams(x, n, s, s2)
    r = variables(p.k)
    spec = SumSpec(p.k, _S_walk(p.x, p.n, r, p.r) + _S_walk(p.x, p.n, r, p.s))
    return lattice_sum(spec, ctx, policy).residual(1 if p.r == p.s else 0)


@at_working_precision
def multivariate_be_cross_check(p: ThreeNJParams, ctx: QContext,
                                policy: Optional[TruncationPolicy] = None):
    """k = 2 consistency with the one-variable pentagon identity.

    The k = 2 chain expansion and the three-factor pentagon are the same
    statement; this maps the chain labels onto the pentagon's q-Bessel form
    (in the squared base) and returns (chain residual, mapped pentagon
    residual, translation gap of the left-hand sides).
    """
    if p.k != 2:
        raise DomainError("cross check is a k = 2 statement")
    (n1, n2, n3, n4), (r1, r2), (s1, s2), x = p.n, p.r, p.s, p.x
    res_chain = verify_multivariate_BE(p, ctx, policy).value
    # pentagon labels: the chain factors are R^{x,n1,n2,r2}_{r1,s1} R^{x,s1,n3,n4}_{r2,s2}
    P, Q, R = r1 - n1, r2 - s1, n4 - s2
    nu, mu1, mu2 = x - n1, n2 - r2, n1 - s1 + n3 - n4
    res_pent = verify_biedenharn_elliott(P, Q, R, nu, mu1, mu2, ctx.base_squared(), policy).value
    # translation: tree-weight LHS = (-q)^(e1+e2) * pentagon LHS in base q^2, exactly
    e = (r1 + s1 - n1 - r2) + (r2 + s2 - s1 - n4)
    lhs_pent = SumSpec(0, (Factor("J", nu + mu1, P - Q, 2), Factor("J", nu + mu2, Q - R, 2)),
                       half=2 * e, sign=e)
    return res_chain, res_pent, abs(threenj_R(p, ctx) - lattice_sum(lhs_pent, ctx))


@at_working_precision
def verify_S_composition(x: int, n: Sequence[int], r: Sequence[int], s: Sequence[int],
                         ctx: QContext,
                         policy: Optional[TruncationPolicy] = None) -> SeriesResult:
    """Residual of the stated chain composition of S coefficients.

    S^{x,n}_{s,r} = sum over k intermediate vectors of
    prod_{j=1..k+1} S^{x,n_j}_{s_{j-1}, s_j}, with s_0 = r, s_{k+1} = s and
    n_j the cyclic rotations of n.  The k = 1 case is the backcoupling
    identity and fails with it; the residual is faithful.

    The sum over s_l is level l, and level l+1 at s_l is its ``inner``; the
    SeriesResult covers every level sum the right side rests on, so it did
    not converge on a fixed window too narrow for the chain, say.
    """
    p = ThreeNJParams(x, n, s, r)  # DomainError unless len(n) = len(r) + 2 = len(s) + 2
    x, n, s, r, k = p.x, p.n, p.r, p.s, p.k

    def rotation(j):
        # n_j = (n_{k+3-j}, ..., n_{k+2}, n_1, ..., n_{k+2-j}), 1-based labels
        return tuple(n[(k + 2 - j + i) % (k + 2)] for i in range(k + 2))

    def level(l, prev):
        # sum over s_l of S^{x,n_l}_{s_{l-1},s_l} times level l+1 at s_l; level k
        # ends the chain with S^{x,n_{k+1}}_{s_k,s} in its term
        t = variables(k)
        walk = _S_walk(x, rotation(l), prev, t)
        if l == k:
            walk += _S_walk(x, rotation(k + 1), t, s)
        return _nested_vector_sum(_spec_term(SumSpec(k, walk), ctx), k, policy, ctx,
                                  None if l == k else lambda *tvec: level(l + 1, tvec))

    return level(1, r).residual(threenj_S(p, ctx))


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
    x = integer_label(x, "x")
    r = _label_vector(r, "r")
    n = _label_vector(n, "n")
    k = len(r)
    lhs = mp.mpf(multi_cg(x, r, n, ctx))
    weights = _spec_term(SumSpec(k, _R_walk(x, n, r, variables(k))), ctx)

    def term(*svec):
        c = multi_cg(x, hat(svec), hat(n), ctx)
        if c == 0.0:
            return 0, 0
        m, e = weights(*svec)
        num, den = c.as_integer_ratio()  # den = 2^(bit_length - 1)
        return m * num, e + 1 - den.bit_length()

    return _nested_vector_sum(term, k, policy, ctx).residual(lhs)
