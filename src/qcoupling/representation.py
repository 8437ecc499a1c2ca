"""Truncated representation of the deformed SU(2) function algebra.

The generators as band maps on a truncated Fock space, their three-fold
action through the coproduct, the coupled eigenvectors of the positivized
diagonal generator, the associated Clebsch-Gordan coefficients, and the
inner-product oracle for recoupling (6j) coefficients.

Each generator moves a basis index by at most one (``generator_band``), so
no action is built as a matrix: ``threefold_action`` maps the entries of a
sparse dict keyed by basis multi-indices, at a cost proportional to the
vector's support, and ``check_defining_relations`` reads the relations off
the bands.  Everything runs on Python floats and dicts; coefficient
accuracy is ~1e-12, far inside the 1e-8 oracle tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import DomainError, InsufficientTruncation
from .qcore import cached, integer_label, integer_labels, QContext
from .qfunctions import wall_orthonormal_run

__all__ = [
    "TruncatedFock",
    "CoupledVector",
    "generator_band",
    "check_defining_relations",
    "cg_coefficient",
    "coupled_vector",
    "sixj_oracle",
    "coproduct_terms",
    "threefold_terms",
    "threefold_action",
]


@dataclass(frozen=True)
class TruncatedFock:
    """Basis e_0 .. e_{dim-1} of the truncated representation space."""

    dim: int

    def __post_init__(self):
        # integer_labels' fast path for one label: an int is kept as it is
        if type(self.dim) is not int:
            object.__setattr__(self, "dim", integer_label(self.dim, "dim"))
        if self.dim < 2:
            raise DomainError("TruncatedFock needs dim >= 2")


# coproduct of each generator as a list of (left, right) factor tags
_COPRODUCT = {
    "alpha": [("alpha", "alpha"), ("beta", "gamma")],
    "beta": [("alpha", "beta"), ("beta", "delta")],
    "gamma": [("gamma", "alpha"), ("delta", "gamma")],
    "delta": [("delta", "delta"), ("gamma", "beta")],
}


def generator_band(tag: str, fock: TruncatedFock, ctx: QContext) -> Tuple[int, List[float]]:
    """A generator in the standard representation (phase label 0) as a band
    map (shift, weights): e_n -> weights[n] e_{n + shift}.

    alpha lowers with weight sqrt(1-q^{2n}), delta raises with
    sqrt(1-q^{2n+2}) (dropped at the cut), beta and gamma are diagonal with
    entries -q^{n+1} and q^n.  A weight is 0.0 where the image leaves the
    truncation: at n = 0 for alpha, at n = dim - 1 for delta.
    """
    N = fock.dim
    q = float(ctx.q)
    if tag == "alpha":
        return -1, [0.0] + [math.sqrt(1 - q ** (2 * n)) for n in range(1, N)]
    if tag == "delta":
        return 1, [math.sqrt(1 - q ** (2 * n + 2)) for n in range(N - 1)] + [0.0]
    if tag == "beta":
        return 0, [-q ** (n + 1) for n in range(N)]
    if tag == "gamma":
        return 0, [q ** n for n in range(N)]
    raise DomainError(f"unknown generator tag {tag!r}")


def check_defining_relations(fock: TruncatedFock, ctx: QContext) -> float:
    """Max interior residual of the seven algebra relations.

    Interior means rows/columns 0..dim-2: the boundary row of the raising
    relation is a truncation artifact, not algebra content.  Each relation
    shifts a basis index by one amount in all its terms, so its column n
    holds one entry, in row n - 1, n + 1 or n; it is formed in the order of
    the matrix expression (al be - q be al, ..., de al - be ga / q - 1).
    """
    if fock.dim < 4:
        raise DomainError("relation check needs dim >= 4")
    q = float(ctx.q)
    a, b, g, d = (generator_band(t, fock, ctx)[1] for t in ("alpha", "beta", "gamma", "delta"))
    cut = fock.dim - 1
    lowering, raising, diagonal = range(1, cut), range(cut - 1), range(cut)
    rels = [
        [a[n] * b[n] - q * b[n - 1] * a[n] for n in lowering],
        [a[n] * g[n] - q * g[n - 1] * a[n] for n in lowering],
        [b[n + 1] * d[n] - q * d[n] * b[n] for n in raising],
        [g[n + 1] * d[n] - q * d[n] * g[n] for n in raising],
        [b[n] * g[n] - g[n] * b[n] for n in diagonal],
        [a[n + 1] * d[n] - q * b[n] * g[n] - 1 for n in diagonal],
        [(d[n - 1] * a[n] if n else 0.0) - b[n] * g[n] / q - 1 for n in diagonal],
    ]
    return max(abs(v) for r in rels for v in r)


_CG_COLUMNS: Dict[tuple, list] = {}
_CG_NMAX = 70  # degrees of a column read by cg_coefficient


def _cg_column(x: int, s: int, ctx: QContext, nmax: int = _CG_NMAX) -> list:
    """C(x, d, d + s) over the degrees d < nmax, without its trailing zeros.

    An orthonormal Wall run in base q^2 with parameter q^{2s} and argument
    q^{2x}, built once per (x, s, nmax) and context.  Its length is its
    support: C is 0.0 past it.
    """
    def build():
        ctx2 = ctx.base_squared()
        # a = q^{2s} at the working precision plus ten digits, never the caller's
        with ctx2.workdps(10):
            a = ctx2.q ** s
        col = wall_orthonormal_run(x, a, ctx2, nmax)
        while col and col[-1] == 0.0:
            col.pop()
        return col

    return cached(_CG_COLUMNS, ctx, (x, s, nmax), build)


def cg_coefficient(x: int, m: int, n: int, ctx: QContext) -> float:
    """Clebsch-Gordan coefficient C_{x,m,n}; zero on any negative index.

    An orthonormal Wall value in base q^2 with degree min(m, n), parameter
    q^{2|n-m|} and argument q^{2x}, read from its column (``_cg_column``).
    Symmetric in (m, n).  The branch with degree min(m, n) is the one under
    which the coupled-pair family is orthonormal in both index groups.
    Degrees at or past _CG_NMAX return 0.0 without building a column.
    """
    deg = min(m, n)
    if x < 0 or deg < 0 or deg >= _CG_NMAX:
        return 0.0
    col = _cg_column(x, abs(n - m), ctx)
    return col[deg] if deg < len(col) else 0.0


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


def coupled_vector(scheme: str, x: int, p: int, r: int,
                   fock: TruncatedFock, ctx: QContext) -> CoupledVector:
    """Eigenvector of the coupled gamma*gamma-adjoint operator, eigenvalue q^{2x}.

    Schemes: "12" and "21" on two factors (r ignored), "1(23)" and "(12)3"
    on three.  Conventions: any negative basis index contributes nothing.
    The labels are read through ``qcore.integer_labels``: 0.5 or True
    raises DomainError.
    """
    x, p, r = integer_labels("x p r", x, p, r)
    if x < 0:
        raise DomainError("coupled_vector needs x >= 0")
    N = fock.dim
    nmax = max(_CG_NMAX, N + 10)

    def run(x, shift, limit):
        # (i, i + shift, C(x, i, i + shift)) with a nonzero coefficient, i
        # ascending, over degrees min(i, i + shift) below limit and inside
        # the column's support; a limit <= 0 builds no column.  x >= 0 and
        # every degree lies inside the column, so cg_coefficient's guards
        # never apply and the column is read directly
        if limit <= 0:
            return
        lo = max(0, -shift)
        col = _cg_column(x, abs(shift), ctx, nmax)
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


def threefold_action(tag: str, vector: dict, fock: TruncatedFock,
                     ctx: QContext) -> dict:
    """Three-fold coupled action of a generator on a dict vector.

    ``vector`` maps basis triples (i, j, k) to coefficients, as
    ``CoupledVector.coeffs`` does; the result is a dict of the same kind.
    Each (1 x coproduct)(coproduct) term (a, b, c) sends e_i x e_j x e_k to
    the product of the three factors' ``generator_band`` weights times
    e_{i'} x e_{j'} x e_{k'}; a term whose weight is 0.0 adds nothing.  The
    action is multiplicative, so the coupled gamma*gamma-adjoint operator
    whose eigenvectors ``coupled_vector`` returns is -q^{-1} T(gamma) T(beta),
    applied as two actions.
    """
    bands = {t: generator_band(t, fock, ctx) for t in _COPRODUCT}
    out: dict = {}
    for ta, tb, tc in threefold_terms(tag):
        (sa, wa), (sb, wb), (sc, wc) = bands[ta], bands[tb], bands[tc]
        for (i, j, k), c in vector.items():
            w = wa[i] * (wb[j] * wc[k]) * c
            if w != 0.0:
                key = (i + sa, j + sb, k + sc)
                out[key] = out.get(key, 0.0) + w
    return out


_ORACLE_VECTORS: Dict[tuple, tuple] = {}


def _oracle_vector(scheme: str, x: int, p: int, r: int, fock: TruncatedFock,
                   ctx: QContext) -> tuple:
    """(coefficients, norm) of a three-fold ``coupled_vector``, built once per
    (scheme, x, p, r, dim) and context.

    The basis index (a, b, c) becomes the flat key (a*dim + b)*dim + c, in
    the vector's own order.  A dict of int keys and float values is never
    tracked by the garbage collector, so the table adds no work to a
    collection.  Tuple keys are tracked: a table of the tuple-keyed dicts
    set off a full collection of about 20 ms in every benchmark round.
    """
    def build():
        v = coupled_vector(scheme, x, p, r, fock, ctx)
        N = fock.dim
        return {(a * N + b) * N + c: val for (a, b, c), val in v.coeffs.items()}, v.norm()

    return cached(_ORACLE_VECTORS, ctx, (scheme, x, p, r, fock.dim), build)


def sixj_oracle(x: int, p1: int, r1: int, p2: int, r2: int,
                fock: TruncatedFock, ctx: QContext) -> float:
    """Recoupling coefficient as a truncated inner product of coupled vectors.

    This is the representation-side oracle against which the closed form is
    validated; it never touches the q-Bessel series path.  Both coupled
    vectors must keep a norm of at least 1 - 1e-8 inside the truncation;
    otherwise ``InsufficientTruncation`` names each norm's shortfall 1 - norm.

    The "1(23)" vector at (x, p1, r1) and the "(12)3" vector at (x, p2, r2)
    are read from ``_oracle_vector``, so a grid builds each once.  The value
    is ``CoupledVector.inner`` of the two, summed in the same order.  The
    labels are read as ``coupled_vector`` reads them.
    """
    norm_floor = 1 - 1e-8
    x, p1, r1, p2, r2 = integer_labels("x p1 r1 p2 r2", x, p1, r1, p2, r2)
    if x < 0:
        raise DomainError("sixj_oracle needs x >= 0")
    a, na = _oracle_vector("1(23)", x, p1, r1, fock, ctx)
    b, nb = _oracle_vector("(12)3", x, p2, r2, fock, ctx)
    if na < norm_floor or nb < norm_floor:
        raise InsufficientTruncation(
            f"coupled-vector norms fall short of 1 by {1 - na:.2e} and {1 - nb:.2e}; "
            f"the oracle allows {1 - norm_floor:.0e}; increase dim")
    if len(a) > len(b):
        a, b = b, a
    return sum(c * b[k] for k, c in a.items() if k in b)
