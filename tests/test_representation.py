import functools
import math
import random

import mpmath as mp
import numpy as np
import pytest

from qcoupling import (CGTable, QContext, TruncatedFock, cg_coefficient,
                       check_defining_relations, coupled_vector, pi0_matrix, qpoch_infinite,
                       sixj_oracle, wall_orthonormal_run)
from qcoupling.errors import DomainError, InsufficientTruncation
from qcoupling.representation import (_cg_table, coproduct_terms, threefold_operator,
                                     threefold_terms)


def test_fock_validation():
    with pytest.raises(DomainError):
        TruncatedFock(1)


def test_pi0_matrices(ctx05):
    fock = TruncatedFock(3)
    g = pi0_matrix("gamma", fock, ctx05)
    assert np.allclose(np.diag(g), [1.0, 0.5, 0.25])
    a = pi0_matrix("alpha", fock, ctx05)
    assert np.all(a[:, 0] == 0)  # lowering annihilates the vacuum
    d = pi0_matrix("delta", fock, ctx05)
    assert np.all(d[:, 2] == 0)  # raising drops at the cut
    with pytest.raises(DomainError):
        pi0_matrix("sigma", fock, ctx05)


def test_defining_relations_interior(ctx05):
    assert check_defining_relations(TruncatedFock(10), ctx05) < 1e-13
    fock = TruncatedFock(8)
    be = pi0_matrix("beta", fock, ctx05)
    ga = pi0_matrix("gamma", fock, ctx05)
    assert np.abs(be @ ga - ga @ be).max() == 0.0


def test_coassociativity_of_threefold_terms():
    # (1 x coproduct)(coproduct) and (coproduct x 1)(coproduct) must agree
    for tag in ("alpha", "beta", "gamma", "delta"):
        right = sorted(threefold_terms(tag))
        left = sorted((l1, l2, r)
                      for l, r in coproduct_terms(tag)
                      for l1, l2 in coproduct_terms(l))
        assert right == left


def test_cg_zero_conventions(ctx05):
    assert cg_coefficient(2, -1, 3, ctx05) == 0.0
    assert cg_coefficient(-1, 0, 0, ctx05) == 0.0
    assert cg_coefficient(0, 2, -4, ctx05) == 0.0


def test_cg_base_value(ctx05):
    got = cg_coefficient(0, 0, 0, ctx05)
    expect = mp.sqrt(qpoch_infinite(ctx05.q ** 2, ctx05.base_squared()).value)
    assert abs(got - float(expect)) < 1e-13


def test_cg_symmetry(ctx05):
    rng = random.Random(11)
    for _ in range(200):
        x = rng.randint(0, 12)
        m = rng.randint(0, 20)
        n = rng.randint(0, 20)
        assert abs(cg_coefficient(x, m, n, ctx05) - cg_coefficient(x, n, m, ctx05)) <= 1e-14


def _pair_ggstar(fock, ctx):
    """Two-fold coupled action of the positivized diagonal element."""
    q = float(ctx.q)
    g = {t: pi0_matrix(t, fock, ctx) for t in ("alpha", "beta", "gamma", "delta")}
    return -(1 / q) * (np.kron(g["gamma"] @ g["beta"], g["alpha"] @ g["delta"])
                       + np.kron(g["gamma"] @ g["alpha"], g["alpha"] @ g["beta"])
                       + np.kron(g["delta"] @ g["beta"], g["gamma"] @ g["delta"])
                       + np.kron(g["delta"] @ g["alpha"], g["gamma"] @ g["beta"]))


def test_pair_vectors_eigen_and_norm(ctx05):
    N = 40
    fock = TruncatedFock(N)
    op = _pair_ggstar(fock, ctx05)
    q = float(ctx05.q)
    for x in range(0, 5):
        for p in range(-4, 5):
            vec = coupled_vector("12", x, p, 0, fock, ctx05).dense(fock)
            resid = np.abs((op @ vec - q ** (2 * x) * vec).reshape(N, N)[:N - 1, :N - 1]).max()
            assert resid < 1e-10
    v00 = coupled_vector("12", 0, 0, 0, TruncatedFock(60), ctx05)
    assert abs(v00.norm() - 1) < 1e-10


def test_pair_gram_identity(ctx05):
    fock = TruncatedFock(60)
    fam = [coupled_vector("12", x, p, 0, fock, ctx05)
           for x in range(4) for p in range(-3, 4)]
    G = np.array([[a.inner(b) for b in fam] for a in fam])
    assert np.abs(G - np.eye(len(fam))).max() < 1e-8


def test_swapped_pair_scheme(ctx05):
    fock = TruncatedFock(30)
    a = coupled_vector("21", 2, 1, 0, fock, ctx05)
    b = coupled_vector("12", 2, -1, 0, fock, ctx05)
    assert a.coeffs == b.coeffs


def _interior_gap(applied, target, weight, fock):
    """Max |applied - weight * target| over basis triples below the cut."""
    N = fock.dim
    gap = (applied - weight * target).reshape(N, N, N)
    return np.abs(gap[:N - 1, :N - 1, :N - 1]).max()


def test_threefold_eigen_residual(ctx05):
    fock = TruncatedFock(60)
    lam = float(ctx05.q) ** 2
    ggstar = -(threefold_operator("gamma", fock, ctx05)
               @ threefold_operator("beta", fock, ctx05)) / float(ctx05.q)
    for scheme in ("1(23)", "(12)3"):
        v = coupled_vector(scheme, 1, 1, 0, fock, ctx05).dense(fock)
        assert _interior_gap(ggstar @ v, v, lam, fock) < 1e-8


def test_threefold_generator_actions(ctx05):
    # lowering, raising and the two diagonal actions on the coupled labels
    fock = TruncatedFock(50)
    q = float(ctx05.q)
    x, p, r = 2, 1, -1
    v = coupled_vector("1(23)", x, p, r, fock, ctx05).dense(fock)

    def compare(tag, target_labels, weight):
        target = coupled_vector("1(23)", *target_labels, fock, ctx05).dense(fock)
        return _interior_gap(threefold_operator(tag, fock, ctx05) @ v, target, weight, fock)

    assert compare("alpha", (x - 1, p, r), math.sqrt(1 - q ** (2 * x))) < 1e-8
    assert compare("delta", (x + 1, p, r), math.sqrt(1 - q ** (2 * x + 2))) < 1e-8
    assert compare("beta", (x, p + 1, r), -q ** (x + 1)) < 1e-8
    assert compare("gamma", (x, p - 1, r), q ** x) < 1e-8


def test_oracle_structural_zero(ctx05):
    fock = TruncatedFock(60)
    assert sixj_oracle(1, 0, 1, 0, 2, fock, ctx05) == 0.0


def test_oracle_matches_qbessel_value(ctx05):
    from qcoupling import qbessel

    fock = TruncatedFock(60)
    got = sixj_oracle(1, 0, 0, 0, 0, fock, ctx05)
    expect = qbessel(0, 1, ctx05.base_squared())
    assert abs(got - float(expect)) < 1e-8


def test_oracle_total_label_independence(ctx05):
    fock = TruncatedFock(60)
    a = sixj_oracle(1, 1, -1, 0, -1, fock, ctx05)
    b = sixj_oracle(2, 1, -1, 0, -1, fock, ctx05)
    assert abs(a - b) < 1e-8


def test_oracle_truncation_guard(ctx05):
    with pytest.raises(InsufficientTruncation):
        sixj_oracle(2, 3, 3, 3, 3, TruncatedFock(6), ctx05)


def test_cg_tables_keyed_by_precision():
    low, high = QContext("0.5", 30), QContext("0.5", 50)
    assert _cg_table(low) is _cg_table(QContext("0.5", 30))
    assert _cg_table(low) is not _cg_table(high)
    assert _cg_table(high).ctx2.working_precision == 50


def test_cg_columns_ignore_ambient_precision():
    # a = q^{2s} is formed at the table's own precision: the caller's mp.dps
    # used to enter it, and 205 of these values differed between 15 and 60
    tables = []
    for dps in (15, 60):
        with mp.workdps(dps):
            tbl = CGTable(QContext("0.3"))
            tables.append([tbl.column(x, s) for x in range(8) for s in range(6)])
    assert tables[0] == tables[1]

@functools.lru_cache(maxsize=None)
def _padded_cg(q, nmax=70):
    """C(x, m, n) read from full-length Wall columns, zero tails included."""
    ctx2 = QContext(q).base_squared()
    cols = {}

    def C(x, m, n):
        deg = min(m, n)
        if x < 0 or deg < 0 or deg >= nmax:
            return 0.0
        key = (x, abs(n - m))
        if key not in cols:
            cols[key] = wall_orthonormal_run(x, ctx2.q ** key[1], ctx2, nmax)
        return cols[key][deg]

    return C


def _coupled_coeffs_full_grid(scheme, x, p, r, N, C):
    """Coefficients of coupled_vector by the full-grid loops it replaced."""
    v = {}
    if scheme in ("12", "21"):
        pp = p if scheme == "12" else -p
        for m in range(N):
            n = m + pp
            if 0 <= n < N:
                c = C(x, m, n)
                if c != 0.0:
                    v[(m, n)] = c
    elif scheme == "1(23)":
        for n in range(N):
            c1 = C(x, n, n + p)
            if c1 == 0.0:
                continue
            inner_p = x - n - r
            for m in range(N):
                k = m + inner_p
                if 0 <= k < N:
                    c2 = C(n + p, m, k)
                    if c2 != 0.0:
                        v[(n, m, k)] = c1 * c2
    else:
        for k in range(N):
            c1 = C(x, k - p, k)
            if c1 == 0.0:
                continue
            inner_p = r - x + k
            for n in range(N):
                m = n + inner_p
                if 0 <= m < N:
                    c2 = C(k - p, n, m)
                    if c2 != 0.0:
                        v[(n, m, k)] = c1 * c2
    return list(v.items())


@pytest.mark.parametrize("q", ["0.3", "0.5", "0.8"])
@pytest.mark.parametrize("dim", [20, 60])
def test_coupled_vector_matches_full_grid_loops(q, dim):
    # only the support of each Clebsch-Gordan column is visited, yet the
    # coefficients, and the order they are inserted in, are the full grid's
    ctx = QContext(q)
    fock = TruncatedFock(dim)
    C = _padded_cg(q)
    for scheme in ("12", "21", "1(23)", "(12)3"):
        for x in range(4):
            for p in range(-5, 6):
                for r in range(-2, 3) if scheme in ("1(23)", "(12)3") else (0,):
                    got = list(coupled_vector(scheme, x, p, r, fock, ctx).coeffs.items())
                    assert got == _coupled_coeffs_full_grid(scheme, x, p, r, dim, C)


def test_coupled_vector_visits_only_the_support(monkeypatch, ctx05):
    # a count guard, not a timing: the full-grid loops made 773 lookups here
    fock = TruncatedFock(60)
    coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    calls = []
    lookup = CGTable.C
    monkeypatch.setattr(CGTable, "C", lambda self, *a: calls.append(a) or lookup(self, *a))
    v = coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    assert len(v.coeffs) > 100
    assert len(calls) <= 300


def test_coupled_vector_reads_each_column_once(monkeypatch, ctx05):
    # a count guard: one column lookup for the outer run and one per inner
    # run (one per outer index n); looking the column up again for every
    # entry made 219 here
    fock = TruncatedFock(60)
    coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    calls = []
    column = CGTable.column
    monkeypatch.setattr(CGTable, "column", lambda self, *a: calls.append(a) or column(self, *a))
    v = coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    assert len(calls) <= 1 + len({key[0] for key in v.coeffs})


def test_cg_columns_kept_without_trailing_zeros(ctx05):
    tbl = _cg_table(ctx05)
    col = tbl.column(1, 0)
    assert 0 < len(col) < tbl.nmax and col[-1] != 0.0
    assert tbl.C(1, len(col), len(col)) == 0.0
    assert tbl.C(1, tbl.nmax, tbl.nmax) == 0.0
