"""Truncated matrix model of the deformed SU(2) function algebra.

Generator matrices on a truncated Fock space, tensor-product actions through
the coproduct, the coupled eigenvectors of the positivized diagonal generator,
the associated Clebsch-Gordan coefficients, and the inner-product oracle for
recoupling (6j) coefficients.

Generator matrices are float64 numpy arrays and three-fold actions are scipy
sparse Kronecker products of them; coupled vectors are sparse dicts keyed by
basis multi-indices.  Coefficient accuracy is ~1e-12, far inside the
1e-8 oracle tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from scipy import sparse

from .errors import DomainError, InsufficientTruncation
from .qcore import QContext
from .qfunctions import wall_orthonormal_run

__all__ = [
    "TruncatedFock",
    "CoupledVector",
    "pi0_matrix",
    "check_defining_relations",
    "cg_coefficient",
    "CGTable",
    "coupled_vector",
    "sixj_oracle",
    "coproduct_terms",
    "threefold_terms",
    "threefold_operator",
]


@dataclass(frozen=True)
class TruncatedFock:
    """Basis e_0 .. e_{dim-1} of the truncated representation space."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError("TruncatedFock needs dim >= 2")


# coproduct of each generator as a list of (left, right) factor tags
_COPRODUCT = {
    "alpha": [("alpha", "alpha"), ("beta", "gamma")],
    "beta": [("alpha", "beta"), ("beta", "delta")],
    "gamma": [("gamma", "alpha"), ("delta", "gamma")],
    "delta": [("delta", "delta"), ("gamma", "beta")],
}


def pi0_matrix(tag: str, fock: TruncatedFock, ctx: QContext) -> np.ndarray:
    """Matrix of a generator in the standard representation (phase label 0).

    alpha lowers with weight sqrt(1-q^{2n}), delta raises with
    sqrt(1-q^{2n+2}) (dropped at the cut), beta and gamma are diagonal with
    entries -q^{n+1} and q^n.
    """
    N = fock.dim
    q = float(ctx.q)
    m = np.zeros((N, N))
    if tag == "alpha":
        for n in range(1, N):
            m[n - 1, n] = math.sqrt(1 - q ** (2 * n))
    elif tag == "delta":
        for n in range(N - 1):
            m[n + 1, n] = math.sqrt(1 - q ** (2 * n + 2))
    elif tag == "beta":
        for n in range(N):
            m[n, n] = -q ** (n + 1)
    elif tag == "gamma":
        for n in range(N):
            m[n, n] = q ** n
    else:
        raise DomainError(f"unknown generator tag {tag!r}")
    return m


def check_defining_relations(fock: TruncatedFock, ctx: QContext) -> float:
    """Max interior residual of the six algebra relations as matrices.

    Interior means rows/columns 0..dim-2: the boundary row of the raising
    relation is a truncation artifact, not algebra content.
    """
    if fock.dim < 4:
        raise DomainError("relation check needs dim >= 4")
    q = float(ctx.q)
    g = {t: pi0_matrix(t, fock, ctx) for t in ("alpha", "beta", "gamma", "delta")}
    al, be, ga, de = g["alpha"], g["beta"], g["gamma"], g["delta"]
    I = np.eye(fock.dim)
    rels = [
        al @ be - q * be @ al,
        al @ ga - q * ga @ al,
        be @ de - q * de @ be,
        ga @ de - q * de @ ga,
        be @ ga - ga @ be,
        al @ de - q * be @ ga - I,
        de @ al - be @ ga / q - I,
    ]
    cut = fock.dim - 1
    return max(float(np.abs(r[:cut, :cut]).max()) for r in rels)


class CGTable:
    """Cached Clebsch-Gordan coefficients for one (q, working precision, nmax).

    C(x, m, n) is an orthonormal Wall value in base q^2 with degree
    min(m, n), parameter q^{2|n-m|} and argument q^{2x}; it vanishes for any
    negative index.  Columns are recurrence runs shared across lookups, each
    kept without its trailing zeros, so a column's length is its support and
    C is 0.0 past it.  Degrees at or past nmax return 0.0 without building a
    column.
    """

    def __init__(self, ctx: QContext, nmax: int = 70):
        self.ctx2 = ctx.base_squared()
        self.nmax = nmax
        self._cols: Dict[Tuple[int, int], list] = {}

    def column(self, x: int, s: int) -> list:
        key = (x, s)
        col = self._cols.get(key)
        if col is None:
            # a = q^{2s} at the working precision plus ten digits, never the caller's
            with self.ctx2.workdps(10):
                a = self.ctx2.q ** s
            col = wall_orthonormal_run(x, a, self.ctx2, self.nmax)
            while col and col[-1] == 0.0:
                col.pop()
            self._cols[key] = col
        return col

    def C(self, x: int, m: int, n: int) -> float:
        deg = min(m, n)
        if x < 0 or deg < 0 or deg >= self.nmax:
            return 0.0
        col = self.column(x, abs(n - m))
        return col[deg] if deg < len(col) else 0.0


_CG_TABLES: Dict[Tuple[str, int, int], CGTable] = {}


def _cg_table(ctx: QContext, nmax: int = 70) -> CGTable:
    key = (ctx.q_key, ctx.working_precision, nmax)
    tbl = _CG_TABLES.get(key)
    if tbl is None:
        tbl = CGTable(ctx, nmax)
        _CG_TABLES[key] = tbl
    return tbl


def cg_coefficient(x: int, m: int, n: int, ctx: QContext) -> float:
    """Clebsch-Gordan coefficient C_{x,m,n}; zero on any negative index.

    Symmetric in (m, n).  The branch with degree min(m, n) is the one under
    which the coupled-pair family is orthonormal in both index groups.
    """
    return _cg_table(ctx).C(x, m, n)


@dataclass(frozen=True)
class CoupledVector:
    """Sparse eigenvector of the coupled positivized diagonal generator."""

    scheme: str
    x: int
    p: int
    r: int  # unused for two-fold schemes
    coeffs: dict = field(repr=False)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs.values()))

    def inner(self, other: "CoupledVector") -> float:
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        return sum(c * b[k] for k, c in a.items() if k in b)

    def dense(self, fock: TruncatedFock) -> np.ndarray:
        """Coefficients as a flat array over the row-major basis multi-index."""
        shape = (fock.dim,) * (2 if self.scheme in ("12", "21") else 3)
        out = np.zeros(shape)
        for key, c in self.coeffs.items():
            out[key] = c
        return out.ravel()


def coupled_vector(scheme: str, x: int, p: int, r: int,
                   fock: TruncatedFock, ctx: QContext) -> CoupledVector:
    """Eigenvector of the coupled gamma*gamma-adjoint operator, eigenvalue q^{2x}.

    Schemes: "12" and "21" on two factors (r ignored), "1(23)" and "(12)3"
    on three.  Conventions: any negative basis index contributes nothing.
    """
    if x < 0:
        raise DomainError("coupled_vector needs x >= 0")
    N = fock.dim
    cg = _cg_table(ctx, max(70, N + 10))

    def run(x, shift, limit):
        # (i, i + shift, C(x, i, i + shift)) with a nonzero coefficient, i
        # ascending, over degrees min(i, i + shift) below limit and inside
        # the column's support; a limit <= 0 builds no column.  x >= 0 and
        # every degree lies inside the column, so C's guards never apply and
        # the column is read directly
        if limit <= 0:
            return
        lo = max(0, -shift)
        col = cg.column(x, abs(shift))
        for deg in range(min(len(col), limit)):
            c = col[deg]
            if c != 0.0:
                yield deg + lo, deg + lo + shift, c

    v: dict = {}
    # each limit keeps both indices of a pair inside 0..N-1, or only the one
    # the loop runs over when the other is free to leave the truncation
    if scheme in ("12", "21"):
        pp = p if scheme == "12" else -p
        for m, n, c in run(x, pp, N - abs(pp)):
            v[(m, n)] = c
    elif scheme == "1(23)":
        for n, _, c1 in run(x, p, N - max(0, -p)):
            inner_p = x - n - r
            for m, k, c2 in run(n + p, inner_p, N - abs(inner_p)):
                v[(n, m, k)] = c1 * c2
    elif scheme == "(12)3":
        for _, k, c1 in run(x, p, N - max(0, p)):
            inner_p = r - x + k
            for n, m, c2 in run(k - p, inner_p, N - abs(inner_p)):
                v[(n, m, k)] = c1 * c2
    else:
        raise DomainError(f"unknown scheme {scheme!r}")
    return CoupledVector(scheme, x, p, r, v)


def coproduct_terms(tag: str):
    """Coproduct of a generator as (left-tag, right-tag) summands."""
    return list(_COPRODUCT[tag])


def threefold_terms(tag: str):
    """(1 x coproduct)(coproduct) of a generator as triples of tags."""
    out = []
    for left, right in _COPRODUCT[tag]:
        for midl, midr in _COPRODUCT[right]:
            out.append((left, midl, midr))
    return out


def threefold_operator(tag: str, fock: TruncatedFock, ctx: QContext) -> sparse.csr_matrix:
    """Three-fold coupled action of a generator as a sparse matrix.

    Sum over the (1 x coproduct)(coproduct) terms of Kronecker products of
    the single-factor matrices, acting on the flattened basis index
    (i * dim + j) * dim + k.  The action is multiplicative, so the coupled
    gamma*gamma-adjoint operator whose eigenvectors ``coupled_vector``
    returns is -q^{-1} T(gamma) T(beta).
    """
    mats = {t: sparse.csr_matrix(pi0_matrix(t, fock, ctx)) for t in _COPRODUCT}
    return sum(sparse.kron(mats[a], sparse.kron(mats[b], mats[c]), format="csr")
               for a, b, c in threefold_terms(tag))


def sixj_oracle(x: int, p1: int, r1: int, p2: int, r2: int,
                fock: TruncatedFock, ctx: QContext) -> float:
    """Recoupling coefficient as a truncated inner product of coupled vectors.

    This is the representation-side oracle against which the closed form is
    validated; it never touches the q-Bessel series path.  Both coupled
    vectors must keep a norm of at least 1 - 1e-8 inside the truncation.
    """
    norm_floor = 1 - 1e-8
    if x < 0:
        raise DomainError("sixj_oracle needs x >= 0")
    u = coupled_vector("1(23)", x, p1, r1, fock, ctx)
    v = coupled_vector("(12)3", x, p2, r2, fock, ctx)
    nu_, nv = u.norm(), v.norm()
    if nu_ < norm_floor or nv < norm_floor:
        raise InsufficientTruncation(
            f"coupled-vector norms {nu_:.2e}, {nv:.2e} below {norm_floor}; increase dim")
    return u.inner(v)
