"""Acceptance criteria, one test per criterion (split where sub-results differ).

Each test prints one [PASS]/[FAIL] line.  Three sub-criteria concern stated
identities that are numerically false: criterion 3 backcoupling, criterion 3
hexagon, and the criterion 4 triple product.  Their tests assert the
non-closure: the worst residual over the seeded instances is O(1), every sum
behind it converged, and recomputing the worst instance on a wider window
(and, for the sums, at higher working precision) reproduces it, so the
residual belongs to the stated identity and not to the truncation.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import random
import re
import time

import mpmath as mp
import pytest

import qcoupling as qc
from qcoupling import (CampaignPlan, LimitSchedule, QContext, ThreeNJParams, TruncatedFock,
                       TruncationPolicy, bilateral_sum, check_defining_relations,
                       coupled_vector, limit_check, multi_orthogonality_residual,
                       multi_qbessel, multivariate_be_cross_check, qbessel_lattice,
                       run_campaign, sixj_closed, threenj_R, threenj_corollary_gap,
                       verify_backcoupling, verify_biedenharn_elliott, verify_hexagon,
                       verify_multivariate_BE, yang_baxter_residual,
                       yang_baxter_unitarity_defect)
from qcoupling.multivariate import MultiBesselParams, hat
from qcoupling.qcore import mantissa
from qcoupling.representation import threefold_action


def _crit(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for qs in ("0.3", "0.5"):
        ctx = QContext(qs)
        fock = TruncatedFock(60)
        vecs = {}
        for scheme in ("1(23)", "(12)3"):
            for x in range(3):
                for p in range(-3, 4):
                    for r in range(-3, 4):
                        vecs[(scheme, x, p, r)] = coupled_vector(scheme, x, p, r, fock, ctx)
        for x in range(3):
            for p1, r1, p2, r2 in itertools.product(range(-3, 4), repeat=4):
                oracle = vecs[("1(23)", x, p1, r1)].inner(vecs[("(12)3", x, p2, r2)])
                closed = float(sixj_closed(p1, r1, p2, r2, ctx))
                worst = max(worst, abs(oracle - closed))
    dt = time.time() - t0
    _crit("criterion 1: closed form vs inner-product oracle",
          worst < 1e-8 and dt < 120, f"max|diff|={worst:.2e}, {dt:.0f}s")


def test_criterion_2_lattice_orthogonality():
    worst = 0.0
    pol = TruncationPolicy(tail_tol=1e-16, max_terms=600)
    for qs in ("0.3", "0.5", "0.7"):
        ctx = QContext(qs)
        q = ctx.q
        for nu in range(-2, 4):
            for m in range(-3, 4):
                for n in range(-3, 4):
                    s = bilateral_sum(lambda x: mantissa(qbessel_lattice(nu, x + m, ctx)
                                                         * qbessel_lattice(nu, x + n, ctx)
                                                         * q ** x), pol, ctx)
                    target = q ** (-n) if m == n else mp.mpf(0)
                    worst = max(worst, float(abs(s.value - target)))
    _crit("criterion 2: q-Bessel lattice orthogonality", worst < 1e-8,
          f"max residual={worst:.2e}")


def _random_labels(rng, count, span=2):
    return [rng.randint(-span, span) for _ in range(count)]


def test_criterion_3_biedenharn_elliott():
    ctx = QContext("0.5")
    rng = random.Random(101)
    worst = 0.0
    t0 = time.time()
    for _ in range(100):
        res = verify_biedenharn_elliott(*_random_labels(rng, 6), ctx)
        worst = max(worst, float(res.value))
    _crit("criterion 3a: pentagon identity, 100 random instances",
          worst < 1e-8, f"max residual={worst:.2e}, {time.time()-t0:.0f}s")


def _assert_sums_do_not_close(name, evaluate, instances):
    """Assert a faithful O(1) residual for a stated identity built from bilateral sums."""
    t0 = time.time()
    ctx = QContext("0.5")
    results = [(evaluate(*labels, ctx), labels) for labels in instances]
    worst, worst_labels = max(results, key=lambda rl: rl[0].value)
    max_est = max(float(r.est_error) for r, _ in results)
    converged = all(r.converged for r, _ in results)
    recheck = evaluate(*worst_labels, QContext("0.5", working_precision=50),
                       TruncationPolicy(bilateral_window=(-45, 55)))
    gap = float(abs(recheck.value - worst.value))
    ok = (converged and recheck.converged and max_est < 1e-12
          and worst.value > 0.1 and gap < 1e-12)
    _crit(name, ok, f"faithful O(1) residual: max residual={float(worst.value):.2e} "
          f"at {worst_labels}, max est_error={max_est:.1e}, converged={converged}, "
          f"wider-window recheck gap={gap:.1e}, {time.time()-t0:.0f}s")


def test_criterion_3_backcoupling_fails():
    # stated identity does not close: assert the residual is O(1) and faithful
    rng = random.Random(102)
    instances = [(rng.randint(0, 2), *_random_labels(rng, 5)) for _ in range(100)]
    _assert_sums_do_not_close("criterion 3b: stated backcoupling identity does not close",
                              verify_backcoupling, instances)


def test_criterion_3_hexagon_fails():
    # stated identity does not close: assert the residual is O(1) and faithful
    rng = random.Random(103)
    instances = [(rng.randint(0, 2), *_random_labels(rng, 8, span=1)) for _ in range(100)]
    _assert_sums_do_not_close("criterion 3c: stated hexagon identity does not close",
                              verify_hexagon, instances)


def test_criterion_4_unitarity():
    ctx = QContext("0.5")
    worst = 0.0
    for u, v in itertools.product((-1, 0, 1), repeat=2):
        worst = max(worst, yang_baxter_unitarity_defect(u, v, (-10, 10), ctx))
    _crit("criterion 4a: truncated operator unitarity", worst < 1e-6,
          f"max defect={worst:.2e}")


def test_criterion_4_triple_product_fails():
    # stated operator equation does not hold: assert the interior defect is
    # O(1) and unchanged on a wider window, so it is not a truncation effect
    ctx = QContext("0.5")
    probe = [t for t in itertools.product((-1, 0, 1), repeat=3)]
    t0 = time.time()
    worst, worst_uvw = max((yang_baxter_residual(u, v, w, (-10, 10), ctx, probe=probe), (u, v, w))
                           for u, v, w in itertools.product((-1, 0, 1), repeat=3))
    recheck = yang_baxter_residual(*worst_uvw, (-13, 13), ctx, probe=probe)
    gap = abs(recheck - worst)
    _crit("criterion 4b: stated triple-product operator equation does not hold",
          worst > 0.1 and gap < 1e-12,
          f"faithful O(1) defect: max interior defect={worst:.2e} at (u, v, w)={worst_uvw}, "
          f"window (-13, 13) recheck gap={gap:.1e}, {time.time()-t0:.0f}s")


def test_criterion_5_multivariate_orthogonality(monkeypatch):
    # the grid fills the process's level table from empty, and its d = 3
    # levels, tens of MB, go with the test
    monkeypatch.setattr(qc.multivariate, "_ORTHOGONALITY_LEVELS", {})
    ctx = QContext("0.5")
    t0 = time.time()
    pol = TruncationPolicy(tail_tol=1e-16)
    worst2 = 0.0
    nu2 = (0, 1, 0, 1)
    lams2 = list(itertools.product(range(-2, 3), repeat=2))
    for lam in lams2:
        for lamp in lams2:
            r = multi_orthogonality_residual(nu2, lam, lamp, ctx, pol)
            worst2 = max(worst2, float(r.value))
    ok2 = worst2 < 1e-7
    worst3 = 0.0
    nu3 = (0, 1, 0, 1, 0)
    lams3 = list(itertools.product(range(-2, 3), repeat=3))
    for lam in lams3:
        for lamp in lams3:
            r = multi_orthogonality_residual(nu3, lam, lamp, ctx, pol)
            worst3 = max(worst3, float(r.value))
    ok3 = worst3 < 1e-6
    _crit("criterion 5: multivariate lattice orthogonality", ok2 and ok3,
          f"d=2 max={worst2:.2e}, d=3 max={worst3:.2e}, {time.time()-t0:.0f}s")


def test_criterion_6_dualities():
    ctx = QContext("0.5")
    rng = random.Random(61)
    worst = 0.0
    for _ in range(50):
        d = rng.choice([1, 2, 3, 4])
        nu = tuple(_random_labels(rng, d + 2, 3))
        x = tuple(_random_labels(rng, d, 3))
        lam = tuple(_random_labels(rng, d, 3))
        a = multi_qbessel(MultiBesselParams(nu, x, lam), ctx)
        b = multi_qbessel(MultiBesselParams(hat(nu), hat(lam), hat(x)), ctx)
        worst = max(worst, float(abs(a - b)))
    for _ in range(50):
        k = rng.choice([1, 2, 3])
        p = ThreeNJParams(rng.randint(0, 3), tuple(_random_labels(rng, k + 2)),
                          tuple(_random_labels(rng, k)), tuple(_random_labels(rng, k)))
        a = threenj_R(p, ctx)
        b = threenj_R(ThreeNJParams(p.x, hat(p.n), hat(p.s), hat(p.r)), ctx)
        worst = max(worst, float(abs(a - b)))
    _crit("criterion 6: self-duality and chain duality", worst < 1e-12,
          f"max gap={worst:.2e}")


def test_criterion_7_corollary_bridge():
    ctx = QContext("0.5")
    rng = random.Random(71)
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(50):
            p = ThreeNJParams(rng.randint(0, 2), tuple(_random_labels(rng, k + 2)),
                              tuple(_random_labels(rng, k)), tuple(_random_labels(rng, k)))
            worst = max(worst, float(threenj_corollary_gap(p, ctx)))
    _crit("criterion 7: chain product equals prefactored multivariate q-Bessel",
          worst < 1e-10, f"max gap={worst:.2e}")


def test_criterion_8_multivariate_pentagon():
    ctx = QContext("0.5")
    rng = random.Random(81)
    t0 = time.time()
    worst2 = 0.0
    for _ in range(6):
        p = ThreeNJParams(rng.randint(0, 2), tuple(_random_labels(rng, 4, 1)),
                          tuple(_random_labels(rng, 2, 1)), tuple(_random_labels(rng, 2, 1)))
        worst2 = max(worst2, float(verify_multivariate_BE(p, ctx).value))
    pol3 = TruncationPolicy(bilateral_window=(-12, 14), adaptive=False)
    p3 = ThreeNJParams(1, (0, 1, 0, -1, 0), (0, 1, 0), (1, 0, 0))
    res3 = float(verify_multivariate_BE(p3, ctx, pol3).value)
    worst_cross = 0.0
    for _ in range(4):
        p = ThreeNJParams(rng.randint(0, 2), tuple(_random_labels(rng, 4, 1)),
                          tuple(_random_labels(rng, 2, 1)), tuple(_random_labels(rng, 2, 1)))
        chain, pent, gap = multivariate_be_cross_check(p, ctx)
        worst_cross = max(worst_cross, float(chain), float(pent), float(gap))
    ok = worst2 < 1e-7 and res3 < 1e-6 and worst_cross < 1e-8
    _crit("criterion 8: multivariate pentagon expansion",
          ok, f"k=2 max={worst2:.2e}, k=3={res3:.2e}, cross={worst_cross:.2e}, {time.time()-t0:.0f}s")


def test_criterion_9_lattice_limit():
    ctx = QContext("0.5")
    checks = []
    for sched in (LimitSchedule(tuple(range(3, 9)), (0,), (0, 3, 1), (0,)),
                  LimitSchedule(tuple(range(3, 9)), (0, 1), (0, 2, 2, 0), (-1, 0))):
        pts = [p for p in limit_check(sched, ctx) if not p.skipped]
        errs = [p.rel_error for p in pts]
        monotone = all(b < a for a, b in zip(errs, errs[1:]))
        checks.append((monotone, errs[-1]))
    ok = all(m and e < 1e-2 for m, e in checks)
    _crit("criterion 9: coupled-polynomial lattice limit", ok,
          "; ".join(f"monotone={m}, err(m=8)={e:.2e}" for m, e in checks))


def test_criterion_10_truncated_model():
    ctx = QContext("0.5")
    rel = check_defining_relations(TruncatedFock(10), ctx)
    fock = TruncatedFock(60)
    cut = fock.dim - 1
    worst = 0.0
    for scheme in ("1(23)", "(12)3"):
        for (x, p, r) in [(0, 0, 0), (1, 1, 0), (2, -1, 1)]:
            v = coupled_vector(scheme, x, p, r, fock, ctx).coeffs
            ggstar = threefold_action("gamma", threefold_action("beta", v, fock, ctx), fock, ctx)
            ev = float(ctx.q) ** (2 * x)
            gap = (abs(-ggstar.get(k, 0.0) / float(ctx.q) - ev * v.get(k, 0.0))
                   for k in ggstar.keys() | v.keys() if max(k) < cut)
            worst = max(worst, *gap)
    _crit("criterion 10: truncated model fidelity", rel < 1e-13 and worst < 1e-8,
          f"relations={rel:.2e}, eigen={worst:.2e}")


def test_criterion_11_determinism():
    plan = CampaignPlan.from_dict({
        "identity": "hankel-orthogonality",
        "grid": {"nu": {"lo": -1, "hi": 1}, "m": [0, 1], "n": [0, 1]},
        "q": [0.5, 0.3],
        "tolerance": 1e-8,
    })
    strip = lambda lines: [re.sub(r'"wall_time": [0-9.e+-]+', '"wall_time": 0', ln)
                           for ln in lines]
    a, sa = run_campaign([plan])
    b, sb = run_campaign([plan])
    same = strip([r.to_json() for r in a]) == strip([r.to_json() for r in b]) and sa == sb
    _crit("criterion 11: campaign determinism", same,
          f"{sa['total']} cases, passed={sa['passed']}")
