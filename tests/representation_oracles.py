"""The generators as numpy matrices and the three-fold action as a scipy
sparse Kronecker operator, which the band maps of ``representation``
replaced.

``pi0_matrix`` builds a generator's matrix with the weights of
``generator_band``; ``threefold_operator`` sums the Kronecker products of
those matrices over ``threefold_terms``, acting on the flattened basis index
(i * dim + j) * dim + k; ``dense`` flattens a coupled vector onto that index;
and ``matrix_defining_relations`` forms the seven relations as matrix
products.  They are the reference of ``tests/test_representation.py`` and
criterion 10: ``threefold_action`` must match the operator to 1e-15 and the
band ``check_defining_relations`` the matrix relations to 1e-16.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from qcoupling.errors import DomainError
from qcoupling.representation import _COPRODUCT, threefold_terms


def pi0_matrix(tag, fock, ctx) -> np.ndarray:
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


def matrix_defining_relations(fock, ctx) -> float:
    """Max interior residual of the seven algebra relations as matrices.

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


def dense(vector, fock) -> np.ndarray:
    """Coefficients as a flat array over the row-major basis multi-index."""
    shape = (fock.dim,) * (2 if vector.scheme in ("12", "21") else 3)
    out = np.zeros(shape)
    for key, c in vector.coeffs.items():
        out[key] = c
    return out.ravel()


def threefold_operator(tag, fock, ctx) -> sparse.csr_matrix:
    """Three-fold coupled action of a generator as a sparse matrix.

    Sum over the (1 x coproduct)(coproduct) terms of Kronecker products of
    the single-factor matrices, acting on the flattened basis index
    (i * dim + j) * dim + k.
    """
    mats = {t: sparse.csr_matrix(pi0_matrix(t, fock, ctx)) for t in _COPRODUCT}
    return sum(sparse.kron(mats[a], sparse.kron(mats[b], mats[c]), format="csr")
               for a, b, c in threefold_terms(tag))
