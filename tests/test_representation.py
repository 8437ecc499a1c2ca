import dataclasses
import functools
import itertools
import math
import random
import re

import mpmath as mp
import numpy as np
import pytest

from qcoupling import (QContext, TruncatedFock, cg_coefficient, check_defining_relations,
                       coupled_vector, generator_band, qpoch_infinite, sixj_oracle,
                       wall_orthonormal_run)
from qcoupling.errors import DomainError, InsufficientTruncation
from qcoupling import representation
from qcoupling.representation import (_cg_column, coproduct_terms, threefold_action,
                                     threefold_terms)

from representation_oracles import (dense, matrix_defining_relations, pi0_matrix,
                                    threefold_operator)


def test_fock_validation():
    with pytest.raises(DomainError):
        TruncatedFock(1)


@pytest.mark.parametrize("dim", [2.5, True, "10", 10.0])
def test_fock_refuses_a_non_integer_dim(dim):
    with pytest.raises(DomainError, match="dim must be an integer"):
        TruncatedFock(dim)


def test_fock_reads_a_numpy_dim_as_an_int():
    fock = TruncatedFock(np.int64(12))
    assert type(fock.dim) is int and fock == TruncatedFock(12)


@pytest.mark.parametrize("call", [
    lambda fock, ctx: sixj_oracle(True, 0, 0, 0, 0, fock, ctx),
    lambda fock, ctx: sixj_oracle(1.5, 0, 0, 0, 0, fock, ctx),
    lambda fock, ctx: sixj_oracle(1, 0, 0.5, 0, 0, fock, ctx),
    lambda fock, ctx: sixj_oracle(1, 0, 0, 0, False, fock, ctx),
    lambda fock, ctx: coupled_vector("12", 1, 0.5, 0, fock, ctx),
    lambda fock, ctx: coupled_vector("1(23)", 1.0, 0, 0, fock, ctx),
    lambda fock, ctx: coupled_vector("(12)3", 1, 0, True, fock, ctx),
], ids=["oracle-x-true", "oracle-x-1.5", "oracle-r1-0.5", "oracle-r2-false",
        "pair-p-0.5", "triple-x-1.0", "triple-r-true"])
def test_representation_refuses_a_non_integer_label(call, ctx05):
    # True used to be read as 1 (sixj_oracle at x = True gave the x = 1
    # value), 0.5 built a vector keyed at half-integer indices, and 1.5
    # raised TypeError from inside the Clebsch-Gordan column
    with pytest.raises(DomainError, match="must be an integer"):
        call(TruncatedFock(20), ctx05)


def test_representation_reads_numpy_labels_as_ints(ctx05):
    fock = TruncatedFock(60)
    labels = (1, 1, -1, 0, -1)
    as_numpy = [np.int64(v) for v in labels]
    assert sixj_oracle(*as_numpy, fock, ctx05) == sixj_oracle(*labels, fock, ctx05)
    v = coupled_vector("1(23)", *as_numpy[:3], fock, ctx05)
    assert v == coupled_vector("1(23)", *labels[:3], fock, ctx05)
    assert all(type(i) is int for key in v.coeffs for i in key)


def test_generator_bands(ctx05):
    fock = TruncatedFock(3)
    assert generator_band("gamma", fock, ctx05) == (0, [1.0, 0.5, 0.25])
    assert generator_band("beta", fock, ctx05) == (0, [-0.5, -0.25, -0.125])
    shift, a = generator_band("alpha", fock, ctx05)
    assert shift == -1 and a[0] == 0.0  # lowering annihilates the vacuum
    shift, d = generator_band("delta", fock, ctx05)
    assert shift == 1 and d[2] == 0.0  # raising drops at the cut
    with pytest.raises(DomainError):
        generator_band("sigma", fock, ctx05)


@pytest.mark.parametrize("dim", [4, 5, 10, 30])
@pytest.mark.parametrize("tag", ["alpha", "beta", "gamma", "delta"])
def test_generator_bands_are_the_oracle_matrices(tag, dim, ctx05):
    fock = TruncatedFock(dim)
    shift, w = generator_band(tag, fock, ctx05)
    m = np.zeros((dim, dim))
    for n in range(dim):
        if w[n] != 0.0:
            m[n + shift, n] = w[n]
    assert np.array_equal(m, pi0_matrix(tag, fock, ctx05))


def test_defining_relations_interior(ctx05):
    assert check_defining_relations(TruncatedFock(10), ctx05) < 1e-13
    fock = TruncatedFock(8)
    be = pi0_matrix("beta", fock, ctx05)
    ga = pi0_matrix("gamma", fock, ctx05)
    assert np.abs(be @ ga - ga @ be).max() == 0.0
    with pytest.raises(DomainError):
        check_defining_relations(TruncatedFock(3), ctx05)


@pytest.mark.parametrize("q", ["0.3", "0.5", "0.7", "0.95"])
@pytest.mark.parametrize("dim", [4, 10, 40])
def test_defining_relations_match_the_matrix_relations(q, dim):
    ctx = QContext(q)
    fock = TruncatedFock(dim)
    band = check_defining_relations(fock, ctx)
    assert abs(band - matrix_defining_relations(fock, ctx)) <= 1e-16


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
            vec = dense(coupled_vector("12", x, p, 0, fock, ctx05), fock)
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
    """Max |applied - weight * target| over basis triples below the cut, for
    two dict vectors keyed by basis triples."""
    cut = fock.dim - 1
    return max((abs(applied.get(k, 0.0) - weight * target.get(k, 0.0))
                for k in applied.keys() | target.keys() if max(k) < cut), default=0.0)


def _ggstar(vector, fock, ctx):
    """-q^{-1} T(gamma) T(beta) applied to a dict vector by band actions."""
    tb = threefold_action("beta", vector, fock, ctx)
    return {k: -c / float(ctx.q) for k, c in threefold_action("gamma", tb, fock, ctx).items()}


def test_threefold_eigen_residual(ctx05):
    fock = TruncatedFock(60)
    lam = float(ctx05.q) ** 2
    for scheme in ("1(23)", "(12)3"):
        v = coupled_vector(scheme, 1, 1, 0, fock, ctx05).coeffs
        assert _interior_gap(_ggstar(v, fock, ctx05), v, lam, fock) < 1e-8


def test_threefold_generator_actions(ctx05):
    # lowering, raising and the two diagonal actions on the coupled labels
    fock = TruncatedFock(50)
    q = float(ctx05.q)
    x, p, r = 2, 1, -1
    v = coupled_vector("1(23)", x, p, r, fock, ctx05).coeffs

    def compare(tag, target_labels, weight):
        target = coupled_vector("1(23)", *target_labels, fock, ctx05).coeffs
        return _interior_gap(threefold_action(tag, v, fock, ctx05), target, weight, fock)

    assert compare("alpha", (x - 1, p, r), math.sqrt(1 - q ** (2 * x))) < 1e-8
    assert compare("delta", (x + 1, p, r), math.sqrt(1 - q ** (2 * x + 2))) < 1e-8
    assert compare("beta", (x, p + 1, r), -q ** (x + 1)) < 1e-8
    assert compare("gamma", (x, p - 1, r), q ** x) < 1e-8


# criterion 10's coupled vectors
_CRITERION_10 = [(scheme, x, p, r) for scheme in ("1(23)", "(12)3")
                 for x, p, r in [(0, 0, 0), (1, 1, 0), (2, -1, 1)]]


@pytest.mark.parametrize("q", ["0.3", "0.5", "0.7"])
def test_threefold_action_matches_the_sparse_operator(q):
    # the band action, and two band actions in a row, against the sparse
    # Kronecker operators and their product on criterion 10's vectors
    ctx = QContext(q)
    fock = TruncatedFock(60)
    ops = {t: threefold_operator(t, fock, ctx) for t in ("alpha", "beta", "gamma", "delta")}
    gb = ops["gamma"] @ ops["beta"]
    worst = 0.0
    for labels in _CRITERION_10:
        v = coupled_vector(*labels, fock, ctx)
        flat = dense(v, fock)
        for tag, op in ops.items():
            got = dense(dataclasses.replace(v, coeffs=threefold_action(tag, v.coeffs, fock, ctx)),
                        fock)
            worst = max(worst, float(np.abs(got - op @ flat).max()))
        tb = threefold_action("beta", v.coeffs, fock, ctx)
        got = dense(dataclasses.replace(v, coeffs=threefold_action("gamma", tb, fock, ctx)), fock)
        worst = max(worst, float(np.abs(got - gb @ flat).max()))
    assert worst <= 1e-15


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


def test_oracle_truncation_message_names_the_shortfall(ctx05):
    # at dim 5 both norms are 0.99992357: printed with :.2e they read 1.00e+00
    with pytest.raises(InsufficientTruncation) as err:
        sixj_oracle(0, 0, 0, 0, 0, TruncatedFock(5), ctx05)
    shortfalls = [float(v) for v in re.findall(r"by ([0-9.e+-]+) and ([0-9.e+-]+);",
                                                str(err.value))[0]]
    assert max(shortfalls) > 1e-8
    assert abs(shortfalls[0] - 7.64e-05) < 1e-7


_ORACLE_GRID = list(itertools.product(range(3), range(-3, 4), (0, 1), range(-3, 4)))


def _oracle_by_vectors(x, p1, r1, p2, dim, ctx):
    fock = TruncatedFock(dim)
    return coupled_vector("1(23)", x, p1, r1, fock, ctx).inner(
        coupled_vector("(12)3", x, p2, 0, fock, ctx))


def test_oracle_vector_cache_matches_fresh_coupled_vectors(monkeypatch):
    # cold, warm, and with q and dim changing every case: dim 12 keeps every
    # norm inside the floor but changes some values against dim 60, so a
    # vector served to another q or dim shows
    ctxs = (QContext("0.3"), QContext("0.5"))
    expect = {(i, dim, labels): _oracle_by_vectors(*labels, dim, ctxs[i])
              for i in (0, 1) for dim in (60, 12) for labels in _ORACLE_GRID}
    assert any(expect[(i, 60, labels)] != expect[(i, 12, labels)]
               for i in (0, 1) for labels in _ORACLE_GRID)
    monkeypatch.setattr(representation, "_ORACLE_VECTORS", {})
    for _ in ("cold", "warm"):
        for i in (0, 1):
            for labels in _ORACLE_GRID:
                x, p1, r1, p2 = labels
                assert sixj_oracle(x, p1, r1, p2, 0, TruncatedFock(60), ctxs[i]) \
                    == expect[(i, 60, labels)]
    for n, labels in enumerate(_ORACLE_GRID * 2):
        i, dim = n % 2, (60, 12)[n // 2 % 2]
        x, p1, r1, p2 = labels
        assert sixj_oracle(x, p1, r1, p2, 0, TruncatedFock(dim), ctxs[i]) \
            == expect[(i, dim, labels)]


def test_oracle_builds_each_coupled_vector_once(monkeypatch, ctx05):
    built = []

    def counting(*args):
        built.append(args[:4])
        return coupled_vector(*args)

    monkeypatch.setattr(representation, "_ORACLE_VECTORS", {})
    monkeypatch.setattr(representation, "coupled_vector", counting)
    fock = TruncatedFock(60)
    sixj_oracle(1, 2, 0, -1, 0, fock, ctx05)
    assert built == [("1(23)", 1, 2, 0), ("(12)3", 1, -1, 0)]
    sixj_oracle(1, 2, 0, 3, 0, fock, ctx05)
    assert built[2:] == [("(12)3", 1, 3, 0)]


def test_cg_columns_ignore_ambient_precision(monkeypatch):
    # a = q^{2s} is formed at the context's own precision: the caller's mp.dps
    # used to enter it, and 205 of these values differed between 15 and 60
    tables = []
    for dps in (15, 60):
        monkeypatch.setattr(representation, "_CG_COLUMNS", {})
        with mp.workdps(dps):
            ctx = QContext("0.3")
            tables.append([_cg_column(x, s, ctx) for x in range(8) for s in range(6)])
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


class _CountedColumn(list):
    """A Clebsch-Gordan column that records each entry read and length probe."""

    def __init__(self, col, accesses):
        super().__init__(col)
        self.accesses = accesses

    def __getitem__(self, i):
        self.accesses.append(i)
        return super().__getitem__(i)

    def __len__(self):
        self.accesses.append(None)
        return super().__len__()


def test_coupled_vector_visits_only_the_support(monkeypatch, ctx05):
    # a count guard, not a timing: every access to a column that
    # coupled_vector makes, an entry read or a length probe.  Walking each
    # column's support makes 171 here (159 reads); loops over the full
    # index grid probe a column at every grid point and made 833
    fock = TruncatedFock(60)
    coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    accesses = []
    monkeypatch.setattr(representation, "_cg_column",
                        lambda *a: _CountedColumn(_cg_column(*a), accesses))
    v = coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    assert len(v.coeffs) > 100
    assert 0 < len(accesses) <= 300


def test_coupled_vector_reads_each_column_once(monkeypatch, ctx05):
    # a count guard: one column lookup for the outer run and one per inner
    # run (one per outer index n); looking the column up again for every
    # entry made 219 here
    fock = TruncatedFock(60)
    coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    calls = []
    monkeypatch.setattr(representation, "_cg_column",
                        lambda *a: calls.append(a) or _cg_column(*a))
    v = coupled_vector("1(23)", 1, 0, 0, fock, ctx05)
    assert len(calls) <= 1 + len({key[0] for key in v.coeffs})


def test_cg_columns_kept_without_trailing_zeros(ctx05):
    nmax = representation._CG_NMAX
    col = _cg_column(1, 0, ctx05)
    assert 0 < len(col) < nmax and col[-1] != 0.0
    assert cg_coefficient(1, len(col), len(col), ctx05) == 0.0
    assert cg_coefficient(1, nmax, nmax, ctx05) == 0.0
