import itertools
import random

import mpmath as mp
import numpy as np
import pytest

from qcoupling import (MultiBesselParams, QContext, ThreeNJParams, TruncatedFock,
                       TruncationPolicy, bilateral_sum, coupling, cg_contraction_residual,
                       multi_cg, qbessel, qbessel_lattice, qfunctions,
                       qhankel_factorization_residual,
                       qhankel_transform, recoupling_R, sixj_closed, sixj_oracle,
                       verify_backcoupling, verify_biedenharn_elliott, verify_hexagon,
                       yang_baxter_residual, yang_baxter_unitarity_defect)
from qcoupling.coupling import backcoupling_forms_gap, hexagon_j_form_residual
from qcoupling.qcore import at_working_precision, cached, exact_product, mantissa, qpower, rounded
from qcoupling.errors import DomainError, InsufficientWindow

import yang_baxter_oracles as yb_oracles


def test_sixj_closed_delta_structure(ctx05):
    assert sixj_closed(2, 1, -1, 0, ctx05) == 0
    got = sixj_closed(3, 0, 3, 0, ctx05)
    expect = qbessel_lattice(0, 0, ctx05.base_squared())
    assert abs(got - expect) == 0


def test_sixj_closed_vs_oracle_spots(ctx05, ctx03):
    fock = TruncatedFock(60)
    rng = random.Random(3)
    for ctx in (ctx05, ctx03):
        for _ in range(6):
            x = rng.randint(0, 2)
            p1, p2 = rng.randint(-3, 3), rng.randint(-3, 3)
            r = rng.randint(-3, 3)
            o = sixj_oracle(x, p1, r, p2, r, fock, ctx)
            c = sixj_closed(p1, r, p2, r, ctx)
            assert abs(o - float(c)) < 1e-8


def test_weight_pair_is_one_table_entry_per_label_pair(monkeypatch):
    # the weight table's key is the one qcore.cached builds; its entry is the
    # exact product of (-q)^e and the base-q^2 J pair, whose labels are read
    # as qbessel_lattice reads them: a numpy integer is stored under its int,
    # a cold float label raises DomainError, a warm one finds the int's entry
    ctx = QContext("0.5")
    monkeypatch.setattr(coupling, "_WEIGHTS", {})
    with pytest.raises(DomainError):
        coupling.weight_pair(1, 3.0, ctx)
    assert not coupling._WEIGHTS
    got = coupling.weight_pair(np.int64(1), np.int32(3), ctx)
    m, k = qpower(6, ctx)
    assert got == exact_product((-m, k), mantissa(qbessel_lattice(1, 3, ctx.base_squared())))
    assert all(type(o) is int and type(e) is int for o, e, *_ in coupling._WEIGHTS)
    assert cached(coupling._WEIGHTS, ctx, (1, 3), lambda: None) is got
    assert coupling.weight_pair(1, 3.0, ctx) is got


def test_a_bool_is_not_a_label_of_any_table(monkeypatch):
    # a cold True was read as 1: qbessel_lattice(True, 2, ctx) returned
    # J_1(q^2) and weight_pair(True, False, ctx) the (1, 0) weight.  The warm
    # path checks nothing, so once the entry for 1 exists True finds it, as
    # 2.0 finds 2
    ctx = QContext("0.5")
    monkeypatch.setattr(qfunctions, "_J_CACHE", {})
    monkeypatch.setattr(coupling, "_WEIGHTS", {})
    for call in (lambda: qbessel_lattice(True, 2, ctx), lambda: qbessel_lattice(1, False, ctx),
                 lambda: coupling.weight_pair(True, False, ctx),
                 lambda: qbessel(True, "0.3", ctx),
                 lambda: MultiBesselParams((0, True, 0), (1,), (0,)),
                 lambda: ThreeNJParams(True, (0, 1, 0), (1,), (0,)),
                 lambda: multi_cg(0, (False,), (0, 1, 0), ctx)):
        with pytest.raises(DomainError, match="must be an integer, got (True|False)"):
            call()
    assert not qfunctions._J_CACHE and not coupling._WEIGHTS
    one = qbessel_lattice(1, 2, ctx)
    assert qbessel_lattice(True, 2, ctx) is one
    weight = coupling.weight_pair(1, 0, ctx)
    assert coupling.weight_pair(True, False, ctx) is weight


def test_one_variable_residuals_refuse_a_bool_label(ctx05):
    # each residual did arithmetic on its labels before any table read them, so
    # True + 0 became the int 1: verify_hexagon(True, 0, ...) returned 0.0,
    # verify_backcoupling 0.80 and verify_biedenharn_elliott 6.7e-29.  The
    # tables are warm at the labels 1 and 0 here, and True is still refused
    for residual, arity in ((verify_backcoupling, 6), (backcoupling_forms_gap, 6),
                            (verify_biedenharn_elliott, 6), (verify_hexagon, 9),
                            (hexagon_j_form_residual, 9)):
        residual(1, *[0] * (arity - 1), ctx05)
        with pytest.raises(DomainError, match="must be an integer, got True"):
            residual(True, *[0] * (arity - 1), ctx05)


@pytest.mark.parametrize("call", [
    lambda ctx: recoupling_R(True, 0, 0, 0, 0, 0, ctx),
    lambda ctx: sixj_closed(True, 0, 0, 0, ctx),
    lambda ctx: cg_contraction_residual(True, 0, 0, 0, 0, ctx),
    lambda ctx: qhankel_factorization_residual(True, 0, 0, 0, {0: mp.mpf(1)}, ctx),
    lambda ctx: yang_baxter_residual(True, 0, 0, (-4, 4), ctx),
    lambda ctx: yang_baxter_residual(0, 0, 0, (-4, 4.0), ctx),
    lambda ctx: yang_baxter_residual(0, 0, 0, (-4, 4), ctx, probe=[(0, 0, 0.0)]),
    lambda ctx: yang_baxter_unitarity_defect(True, 0, (-10, 10), ctx),
    lambda ctx: yang_baxter_unitarity_defect(0, 0, (-10.0, 10), ctx),
], ids=["recoupling-R", "sixj-closed", "cg-contraction", "qhankel-factorization",
        "yang-baxter", "yang-baxter-window", "yang-baxter-probe", "unitarity",
        "unitarity-window"])
def test_closed_forms_and_operator_residuals_refuse_a_non_integer_label(ctx05, call):
    # each read True as 1 or 4.0 as 4 through its own arithmetic: at q = 0.5
    # recoupling_R(True, 0, ...) returned 0.891 and yang_baxter_residual(True,
    # 0, 0, (-4, 4)) 0.362
    with pytest.raises(DomainError, match="must be an integer"):
        call(ctx05)


def test_sixj_translation_invariance(ctx05):
    for k in range(-3, 4):
        a = sixj_closed(1 + k, 2, -1 + k, 2, ctx05)
        b = sixj_closed(1, 2, -1, 2, ctx05)
        assert a == b  # identical label differences, identical evaluation


def test_sixj_duality(ctx05):
    for (p1, p2, r) in [(2, -1, 1), (0, 3, -2), (-2, -3, 0)]:
        a = sixj_closed(p1, r, p2, r, ctx05)
        b = sixj_closed(-p2, r, -p1, r, ctx05)
        assert abs(a - b) < 1e-12


def test_sixj_orthogonality(ctx05):
    pol = TruncationPolicy(tail_tol=1e-20)
    for (p2, p3, r) in [(0, 0, 1), (1, -1, 1), (2, 2, -2)]:
        s = bilateral_sum(lambda p1: mantissa(sixj_closed(p1, r, p2, r, ctx05)
                                              * sixj_closed(p1, r, p3, r, ctx05)), pol, ctx05)
        assert abs(s.value - (1 if p2 == p3 else 0)) < 1e-8


def test_recoupling_weight_reduces_to_sixj(ctx05):
    x, n1, n2, n3 = 2, 1, 0, -1
    for (p1, p2) in [(0, 0), (2, -1), (-1, 3)]:
        r = x - n1 + n2 - n3
        tree = recoupling_R(x, n1, n2, n3, n1 + p1, n3 - p2, ctx05)
        assert abs(tree - sixj_closed(p1, r, p2, r, ctx05)) < 1e-25


def test_recoupling_weight_label_shift(ctx05):
    base = recoupling_R(1, 0, 0, 0, 0, 0, ctx05)
    for k in range(-2, 3):
        shifted = recoupling_R(1 + k, k, k, k, k, k, ctx05)
        assert abs(shifted - base) < 1e-25


def test_recoupling_weight_value(ctx05):
    got = recoupling_R(1, 0, 0, 0, 0, 0, ctx05)
    expect = qbessel_lattice(1, 0, ctx05.base_squared())
    assert abs(got - expect) == 0


def test_backcoupling_residual_is_faithful(ctx05):
    # the operation reports |LHS - RHS| with both sides computed here
    x, n1, n2, n3, p1, p2 = 1, 1, 0, -1, 1, -1
    res = verify_backcoupling(x, n1, n2, n3, p1, p2, ctx05)
    q = ctx05.q
    r123, r132, r312 = x - n1 + n2 - n3, x - n1 + n3 - n2, x - n3 + n1 - n2
    lhs = qbessel_lattice(r123, p1 + p2, ctx05)
    rhs = mp.fsum(qbessel_lattice(r132, p + p1, ctx05)
                  * qbessel_lattice(r312, p + p2, ctx05) * q ** p for p in range(-34, 44))
    assert abs(res.value - abs(lhs - rhs)) < 1e-10


def test_backcoupling_rhs_delta_specialization(ctx05):
    # with equal inner orders and matching shifts the sum is the lattice
    # orthogonality relation and evaluates to the delta value q^{-p}
    q = ctx05.q
    nu, p = 1, 1
    rhs = bilateral_sum(lambda s: mantissa(qbessel_lattice(nu, s + p, ctx05)
                                           * qbessel_lattice(nu, s + p, ctx05) * q ** s),
                        None, ctx05)
    assert abs(rhs.value - q ** (-p)) < 1e-10


def test_backcoupling_identity_fails_as_stated(ctx05):
    # the stated identity does not close; test_backcoupling_shift_scaling shows why
    res = verify_backcoupling(1, 1, 0, -1, 1, -1, ctx05)
    assert res.value > 1e-2


def test_backcoupling_shift_scaling(ctx05):
    # shifting the summation index gives RHS(p1+1, p2+1) = q^{-1} RHS(p1, p2);
    # the LHS J_{r123}(q^{p1+p2}) does not scale so, hence the identity cannot close
    q = ctx05.q
    x, n1, n2, n3, p1, p2 = 1, 1, 0, -1, 1, -1
    r123, r132, r312 = x - n1 + n2 - n3, x - n1 + n3 - n2, x - n3 + n1 - n2

    def rhs(a, b):
        return bilateral_sum(lambda p: mantissa(qbessel_lattice(r132, p + a, ctx05)
                                                * qbessel_lattice(r312, p + b, ctx05) * q ** p),
                             None, ctx05).value

    assert abs(rhs(p1 + 1, p2 + 1) - rhs(p1, p2) / q) < 1e-20
    lhs_ratio = qbessel_lattice(r123, p1 + p2 + 2, ctx05) / qbessel_lattice(r123, p1 + p2, ctx05)
    assert abs(lhs_ratio - 1 / q) > 0.1


def test_backcoupling_forms_translate_identically(ctx05):
    # weight form and q-Bessel form are the same statement: their residuals
    # agree through the sign-power translation factor even though both are large
    gap = backcoupling_forms_gap(1, 1, 0, -1, 2, 0, ctx05)
    assert gap < 1e-10


@pytest.mark.parametrize("labels", [(0, 0, 0, 0, 0, 0), (1, 0, -1, 1, 0, 1), (2, 1, 0, -1, 1, 0)])
def test_biedenharn_elliott(ctx05, labels):
    res = verify_biedenharn_elliott(*labels, ctx05)
    assert res.value < 1e-10


def test_biedenharn_elliott_random_sweep(ctx05):
    rng = random.Random(17)
    worst = 0.0
    for _ in range(12):
        labels = [rng.randint(-2, 2) for _ in range(6)]
        res = verify_biedenharn_elliott(*labels, ctx05)
        worst = max(worst, float(res.value))
    assert worst < 1e-8


def test_hexagon_symmetric_fixed_point(ctx05):
    # swap-invariant labels make both sides coincide termwise
    res = verify_hexagon(1, 1, 0, 0, 1, 0, 0, 1, 1, ctx05)
    assert res.value < 1e-10
    res0 = verify_hexagon(0, 0, 0, 0, 0, 0, 0, 0, 0, ctx05)
    assert res0.value < 1e-10


def test_hexagon_identity_fails_as_stated(ctx05):
    res = verify_hexagon(1, 1, 0, 0, -1, 0, 1, 0, 1, ctx05)
    assert res.value > 1e-2


def test_hexagon_j_form_reconstruction(ctx05):
    # the printed q-Bessel form reproduces the weight form on each side
    gap_l, gap_r = hexagon_j_form_residual(1, 1, 0, 0, -1, 0, 1, 0, 1, ctx05)
    assert gap_l < 1e-8 and gap_r < 1e-8


def test_yang_baxter_unitarity(ctx05):
    for (u, v) in [(0, 0), (1, 0), (-1, 1)]:
        assert yang_baxter_unitarity_defect(u, v, (-10, 10), ctx05) < 1e-6


def test_yang_baxter_triple_fails_as_stated(ctx05):
    probe = [(0, 0, 0), (1, -1, 0), (0, 1, -1)]
    d = yang_baxter_residual(1, 0, -1, (-10, 10), ctx05, probe=probe)
    assert d > 1e-2


def test_yang_baxter_window_guard(ctx05):
    with pytest.raises(InsufficientWindow):
        yang_baxter_residual(0, 0, 0, (-3, 3), ctx05)
    with pytest.raises(InsufficientWindow):
        yang_baxter_residual(0, 0, 0, (-10, 10), ctx05, probe=[(0, 0, 40)])


def test_yang_baxter_sector_sums_match_the_sparse_products():
    # the sector sums multiply and add in the order of scipy's CSR products, so
    # every defect is the same double as the sparse products', in both modes
    probe = list(itertools.product((-1, 0, 1), repeat=3))
    for q in ("0.3", "0.5"):
        ctx = QContext(q)
        for window, grid in (((-4, 4), list(itertools.product((-1, 0, 1), repeat=3))),
                             ((-5, 6), [(0, 0, 0), (1, 0, -1)]),
                             ((-6, 6), [(0, 0, 0), (1, 0, -1)])):
            for uvw in grid:
                got = yang_baxter_residual(*uvw, window, ctx)
                assert got == yb_oracles.residual(*uvw, window, ctx) and got > 0.1
                assert yang_baxter_residual(*uvw, window, ctx, probe=probe) \
                    == yb_oracles.residual(*uvw, window, ctx, probe=probe)
        for uvw in ((1, 0, -1), (0, 1, 0), (-1, -1, 1)):
            assert yang_baxter_residual(*uvw, (-10, 10), ctx, probe=probe) \
                == yb_oracles.residual(*uvw, (-10, 10), ctx, probe=probe)


def test_yang_baxter_unitarity_matches_the_sparse_gram():
    # the per-sector Gram blocks keep the sparse Gram's complete columns and
    # differ from its entries only in the order of each dot product's terms
    for q in ("0.3", "0.5"):
        ctx = QContext(q)
        for u, v in ((0, 0), (1, 0), (-1, -1)):
            for window in ((-6, 6), (-10, 10)):
                want, complete = yb_oracles.unitarity_defect(u, v, window, ctx)
                got = yang_baxter_unitarity_defect(u, v, window, ctx)
                assert abs(got - want) <= 1e-15
                sectors = coupling._yb_complete_columns(u, v, window, ctx)
                assert sum(map(len, sectors.values())) == complete > 0


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_yang_baxter_kernel_cache_matches_empty_tables(monkeypatch, order):
    # windows (-5, 6) and (-6, 6) at q = 0.3 and 0.5 in one process: each
    # residual read through the cached kernels equals its value from an empty table
    cases = [(QContext(q), window, uvw) for q in ("0.3", "0.5")
             for window in ((-5, 6), (-6, 6)) for uvw in ((0, 0, 0), (1, 0, -1), (1, 1, 1))]
    if order == "reversed":
        cases.reverse()
    monkeypatch.setattr(coupling, "_YB_KERNELS", {})
    shared = [yang_baxter_residual(*uvw, window, ctx) for ctx, window, uvw in cases]
    # one set of kernels per base and window, each over that window's offsets
    assert {key[1:] for key in coupling._YB_KERNELS} == {
        (lo - hi, hi - lo, ctx.q_key, ctx.working_precision)
        for ctx, (lo, hi), _ in cases}
    fresh = []
    for ctx, window, uvw in cases:
        monkeypatch.setattr(coupling, "_YB_KERNELS", {})
        fresh.append(yang_baxter_residual(*uvw, window, ctx))
    assert shared == fresh


def test_qhankel_transform_delta_property(ctx05):
    q = ctx05.q
    nu, m = 1, 2
    f = {x: qbessel_lattice(nu, x + m, ctx05) for x in range(-30, 40)}
    out = qhankel_transform(f, nu, ctx05, out_window=(-4, 4))
    for n, val in out.items():
        want = q ** (-n) if n == m else mp.mpf(0)
        assert abs(val - want) < 1e-9


def test_qhankel_transform_zero(ctx05):
    out = qhankel_transform({0: mp.mpf(0), 1: mp.mpf(0)}, 2, ctx05, out_window=(-2, 2))
    assert all(v == 0 for v in out.values())


@at_working_precision
def _old_qhankel_transform(f, nu, ctx, out_window):
    """The mpf transform ``qhankel_transform`` replaced, with each output's
    largest term: mp.fsum of f(q^x) J_nu(q^{x+n}) q^x over the support of f."""
    q = ctx.q
    out = {}
    for n in range(out_window[0], out_window[1] + 1):
        terms = [mp.mpf(val) * qbessel_lattice(nu, xx + n, ctx) * q ** xx
                 for xx, val in sorted(f.items())]
        out[n] = mp.fsum(terms), max(abs(t) for t in terms)
    return out


@pytest.mark.parametrize("qs", ["0.3", "0.5", "0.7"])
def test_qhankel_transform_matches_the_mpf_transform(qs):
    # each output agrees with the mpf sum to 10^-wp times its largest term
    ctx = QContext(qs)
    gauss = {x: rounded(qpower(x * x, ctx), ctx) for x in range(-20, 25)}
    sparse_f = {-3: mp.mpf(-2), 0: mp.mpf("0.25"), 4: mp.mpf(7)}
    for f, nu in ((gauss, 1), (gauss, -2), (sparse_f, 0)):
        got = qhankel_transform(f, nu, ctx, out_window=(-8, 8))
        for n, (want, scale) in _old_qhankel_transform(f, nu, ctx, (-8, 8)).items():
            assert abs(got[n] - want) <= mp.mpf(10) ** -ctx.working_precision * scale


def test_qhankel_factorization_fails_as_stated(ctx05):
    q = ctx05.q
    f = {x: q ** (mp.mpf(x * x) / 2) for x in range(-20, 25)}
    resid = qhankel_factorization_residual(1, 0, 1, -1, f, ctx05)
    assert resid > 1e-2


def test_cg_contraction(ctx05):
    for (x, n, m, k, p1) in [(2, 1, 0, 1, 0), (3, 0, 1, 2, 1), (2, 2, 1, 0, -1)]:
        assert cg_contraction_residual(x, n, m, k, p1, ctx05) < 1e-8


def test_cg_contraction_cutoff_convention(ctx05):
    # terms beyond the structural cutoff vanish through the zero convention
    from qcoupling import cg_coefficient

    x, n, m, k = 2, 1, 0, 1
    for p2 in range(k + 1, k + 6):
        assert cg_coefficient(x, k - p2, k, ctx05) == 0.0
