"""The truncated Yang-Baxter operator as scipy.sparse matrices, which the
sector sums of ``coupling.yang_baxter_residual`` replaced.

The pair operator is built as a CSR matrix, lifted onto the legs of the
three-fold space with ``sparse.kron`` (legs 0 and 2 through the swap of the
last two legs), and the triple products are sparse matrix products.  The
oracles read the same float kernels (``coupling._yb_sector_kernel``) and
are the reference of ``tests/test_coupling.py``: the residual must equal
``residual`` bit for bit, in both modes, and the unitarity defect must match
``unitarity_defect`` to rounding over the same complete columns.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from qcoupling.coupling import _YB_MARGIN, _YB_NORM_TOL, _yb_sector_kernel


def pair_operator(u, v, window, ctx):
    """e_{t1} x e_{t2} -> sum_y K_{u+v-s}(y-t2) e_{s-y} x e_y, s = t1+t2, as
    an n^2 x n^2 CSR matrix over the window; zero kernel values are not stored."""
    lo, hi = window
    pts = list(range(lo, hi + 1))
    npts = len(pts)
    idx = {t: i for i, t in enumerate(pts)}
    rows, cols, vals = [], [], []
    offs = range(lo - hi, hi - lo + 1)
    for t1 in pts:
        for t2 in pts:
            s = t1 + t2
            ker = _yb_sector_kernel(u + v - s, offs, ctx)
            col = idx[t1] * npts + idx[t2]
            for y in pts:
                k = s - y
                if lo <= k <= hi:
                    c = ker[y - t2]
                    if c != 0.0:
                        rows.append(idx[k] * npts + idx[y])
                        cols.append(col)
                        vals.append(c)
    n = npts * npts
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def lift(u, v, window, legs, ctx):
    """``pair_operator(u, v, window)`` on the given legs of the three-fold space."""
    R = pair_operator(u, v, window, ctx)
    n = window[1] - window[0] + 1
    I = sparse.identity(n, format="csr")
    if legs == (0, 1):
        return sparse.kron(R, I, format="csr")
    if legs == (1, 2):
        return sparse.kron(I, R, format="csr")
    # legs (0, 2): conjugate by the swap of the last two legs, which sends
    # column (a * n + b) * n + c to row (a * n + c) * n + b
    perm_rows = np.arange(n ** 3).reshape(n, n, n).transpose(0, 2, 1).ravel()
    P = sparse.csr_matrix((np.ones(n ** 3), (perm_rows, np.arange(n ** 3))),
                          shape=(n ** 3, n ** 3))
    return P.T @ sparse.kron(R, I, format="csr") @ P


def residual(u, v, w, window, ctx, probe=None):
    """Max interior entry of R12 R13 R23 - R23 R13 R12, from sparse products.

    The interior is one boolean mask over the flattened n^3 index.  The full
    products restrict their left factor to the interior rows before
    multiplying; the probes are matrix-vector products on basis vectors.
    """
    lo, hi = window
    npts = hi - lo + 1
    L12 = lift(u, w, window, (0, 1), ctx)
    L13 = lift(v, w, window, (0, 2), ctx)
    L23 = lift(u, v, window, (1, 2), ctx)

    inside = (np.arange(npts) >= _YB_MARGIN) & (np.arange(npts) < npts - _YB_MARGIN)
    interior = (inside[:, None, None] & inside[None, :, None] & inside[None, None, :]).ravel()

    if probe is not None:
        defect = 0.0
        for tpl in probe:
            pos = [t - lo for t in tpl]
            e = np.zeros(npts ** 3)
            e[(pos[0] * npts + pos[1]) * npts + pos[2]] = 1.0
            left = L12 @ (L13 @ (L23 @ e))
            right = L23 @ (L13 @ (L12 @ e))
            defect = max(defect, np.abs(left - right)[interior].max())
        return float(defect)

    rows = np.flatnonzero(interior)
    D = (L12[rows] @ L13 @ L23 - L23[rows] @ L13 @ L12).tocoo()
    return float(np.abs(D.data[interior[D.col]]).max(initial=0.0))


def unitarity_defect(u, v, window, ctx):
    """(max |G - I| of the sparse Gram matrix over the complete columns, the
    number of complete columns)."""
    R = pair_operator(u, v, window, ctx)
    norms = np.sqrt(np.asarray(R.multiply(R).sum(axis=0)).ravel())
    complete = np.where(np.abs(norms - 1.0) <= _YB_NORM_TOL)[0]
    sub = R[:, complete]
    G = (sub.T @ sub).toarray() - np.eye(len(complete))
    return float(np.abs(G).max()), len(complete)
