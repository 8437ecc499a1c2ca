"""Campaign engine: sweep identities over parameter grids and report residuals.

A plan is one JSON document naming identities, per-label parameter grids, a
q list, a tolerance and truncation-policy overrides.  Each grid point yields
one CaseResult; reports are JSON lines (one case per line) followed by a
summary object.  Exit semantics: 0 all-pass, 1 any-fail, 2 invalid plan.

Evaluation errors are recorded as failed cases, never abort a campaign.
Cases are emitted in deterministic grid order regardless of execution order.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import mpmath as mp

from . import askey_wilson, coupling, multivariate, qcore, qfunctions, representation
from .errors import DomainError, PlanInvalid, QCouplingError
from .qcore import QContext, TruncationPolicy

__all__ = ["IDENTITIES", "CampaignPlan", "CaseResult", "eval_single", "run_campaign",
           "identity_descriptions"]


def _int(v) -> int:
    """An integer label: an int, an integral float or an integer string.

    Anything else raises ValueError, so a label such as nu = 1.7 is never
    silently truncated to 1: inside a case it becomes a failed case.
    """
    if isinstance(v, str):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"integer label expected, got {v!r}") from None


def _ints(v) -> tuple:
    if isinstance(v, (list, tuple)):
        return tuple(_int(x) for x in v)
    return (_int(v),)


def _eval_qpoch_recurrence(p, ctx, policy):
    a, n = mp.mpf(p["a"]), _int(p["n"])
    lhs = qcore.qpoch_finite(a, ctx, n + 1)
    rhs = qcore.qpoch_finite(a, ctx, n) * (1 - a * ctx.q ** n)
    return abs(lhs - rhs)


def _eval_wall_consistency(p, ctx, policy):
    wp = qfunctions.WallParams(_int(p["n"]), _int(p["x"]), p.get("a", 0.5))
    v1 = qfunctions.wall_poly(wp, ctx)
    v2 = qfunctions.wall_poly_alt(wp, ctx)
    scale = max(abs(v1), mp.mpf(1e-300))
    return abs(v1 - v2) / scale


def _eval_hankel(p, ctx, policy):
    nu, m, n = _int(p["nu"]), _int(p["m"]), _int(p["n"])
    q = ctx.q
    s = qcore.bilateral_sum(
        lambda x: qfunctions.qbessel_lattice(nu, x + m, ctx)
        * qfunctions.qbessel_lattice(nu, x + n, ctx) * q ** x, policy)
    target = q ** (-n) if m == n else mp.mpf(0)
    return abs(s.value - target)


def _eval_genfun(p, ctx, policy):
    return qfunctions.genfun_check(_int(p["nu"]), p["x"], p["t"], ctx, policy).value


def _eval_wall_genfun(p, ctx, policy):
    return qfunctions.wall_genfun_check(_int(p["n"]), _int(p["nu"]), p["x"], ctx, policy).value


def _eval_sixj_oracle(p, ctx, policy):
    fock = representation.TruncatedFock(_int(p.get("dim", 60)))
    oracle = representation.sixj_oracle(_int(p["x"]), _int(p["p1"]), _int(p["r1"]),
                                        _int(p["p2"]), _int(p["r2"]), fock, ctx)
    closed = coupling.sixj_closed(_int(p["p1"]), _int(p["r1"]), _int(p["p2"]), _int(p["r2"]),
                                  ctx)
    return abs(mp.mpf(oracle) - closed)


def _eval_sixj_orthogonality(p, ctx, policy):
    r, p2, p3 = _int(p["r"]), _int(p["p2"]), _int(p["p3"])
    s = qcore.bilateral_sum(
        lambda p1: coupling.sixj_closed(p1, r, p2, r, ctx)
        * coupling.sixj_closed(p1, r, p3, r, ctx), policy)
    return abs(s.value - (1 if p2 == p3 else 0))


def _eval_backcoupling(p, ctx, policy):
    return coupling.verify_backcoupling(_int(p["x"]), _int(p["n1"]), _int(p["n2"]),
                                        _int(p["n3"]), _int(p["p1"]), _int(p["p2"]),
                                        ctx, policy).value


def _eval_be(p, ctx, policy):
    return coupling.verify_biedenharn_elliott(_int(p["P"]), _int(p["Q"]), _int(p["R"]),
                                              _int(p["nu"]), _int(p["mu1"]), _int(p["mu2"]),
                                              ctx, policy).value


def _eval_hexagon(p, ctx, policy):
    return coupling.verify_hexagon(_int(p["x"]), _int(p["n1"]), _int(p["n2"]),
                                   _int(p["n3"]), _int(p["n4"]), _int(p["p1"]),
                                   _int(p["p2"]), _int(p["p3"]), _int(p["p4"]),
                                   ctx, policy).value


def _eval_yang_baxter(p, ctx, policy):
    window = (_int(p.get("lo", -10)), _int(p.get("hi", 10)))
    return mp.mpf(coupling.yang_baxter_residual(_int(p["u"]), _int(p["v"]), _int(p["w"]),
                                                window, ctx))


def _eval_qhankel_factorization(p, ctx, policy):
    q = ctx.q
    f = {xx: q ** (mp.mpf(xx * xx) / 2) for xx in range(-20, 25)}
    return coupling.qhankel_factorization_residual(_int(p["x"]), _int(p["n1"]), _int(p["n2"]),
                                                   _int(p["n3"]), f, ctx, policy)


def _eval_multi_orthogonality(p, ctx, policy):
    return multivariate.multi_orthogonality_residual(_ints(p["nu"]), _ints(p["lam"]),
                                                     _ints(p["lam2"]), ctx, policy).value


def _eval_multi_duality(p, ctx, policy):
    nu, x, lam = _ints(p["nu"]), _ints(p["x"]), _ints(p["lam"])
    a = multivariate.multi_qbessel(multivariate.MultiBesselParams(nu, x, lam), ctx)
    b = multivariate.multi_qbessel(
        multivariate.MultiBesselParams(multivariate.hat(nu), multivariate.hat(lam),
                                       multivariate.hat(x)), ctx)
    return abs(a - b)


def _eval_threenj_product(p, ctx, policy):
    params = multivariate.ThreeNJParams(_int(p["x"]), _ints(p["n"]), _ints(p["r"]), _ints(p["s"]))
    k1 = _int(p.get("k1", 1))
    k = params.k
    if not 1 <= k1 < k:
        raise PlanInvalid("threenj-product needs 1 <= k1 < k")
    whole = multivariate.threenj_R(params, ctx)
    n, r, s = params.n, params.r, params.s
    left = multivariate.ThreeNJParams(params.x, n[:k1 + 1] + (r[k1],), r[:k1], s[:k1])
    right = multivariate.ThreeNJParams(params.x, (s[k1 - 1],) + n[k1 + 1:], r[k1:], s[k1:])
    split = multivariate.threenj_R(left, ctx) * multivariate.threenj_R(right, ctx)
    return abs(whole - split)


def _eval_threenj_corollary(p, ctx, policy):
    params = multivariate.ThreeNJParams(_int(p["x"]), _ints(p["n"]), _ints(p["r"]), _ints(p["s"]))
    return multivariate.threenj_corollary_gap(params, ctx)


def _eval_s_lemma(p, ctx, policy):
    # chain coefficients are a unitary change of basis: sum_r S_{r,s} S_{r,s'} = delta
    x, n = _int(p["x"]), _ints(p["n"])
    s1, s2 = _ints(p["s"]), _ints(p["s2"])
    k = len(s1)
    target = mp.mpf(1) if s1 == s2 else mp.mpf(0)

    def term(rvec):
        a = multivariate.threenj_S(multivariate.ThreeNJParams(x, n, tuple(rvec), s1), ctx)
        b = multivariate.threenj_S(multivariate.ThreeNJParams(x, n, tuple(rvec), s2), ctx)
        return a * b

    total = multivariate._nested_vector_sum(term, k, policy)
    return abs(total - target)


def _eval_multi_be(p, ctx, policy):
    params = multivariate.ThreeNJParams(_int(p["x"]), _ints(p["n"]), _ints(p["r"]), _ints(p["s"]))
    return multivariate.verify_multivariate_BE(params, ctx, policy, a_form=False).s_form_residual


def _eval_s_composition(p, ctx, policy):
    return multivariate.verify_S_composition(_int(p["x"]), _ints(p["n"]), _ints(p["r"]),
                                             _ints(p["s"]), ctx, policy).value


def _eval_cg_expansion(p, ctx, policy):
    return multivariate.cg_expansion_residual(_int(p["x"]), _ints(p["r"]), _ints(p["n"]),
                                              ctx, policy)


def _eval_aw_symmetry(p, ctx, policy):
    base = askey_wilson.AWParams(_int(p["n"]), p.get("x", 0.8), p.get("a", 0.3),
                                 p.get("b", 0.45), p.get("c", 0.2), p.get("d", 0.15))
    v = askey_wilson.aw_poly(base, ctx)
    swapped = askey_wilson.AWParams(base.n, base.x, base.b, base.a, base.c, base.d)
    inverted = askey_wilson.AWParams(base.n, 1 / mp.mpf(base.x), base.a, base.b, base.c, base.d)
    scale = max(abs(v), mp.mpf(1e-300))
    return max(abs(v - askey_wilson.aw_poly(swapped, ctx)),
               abs(v - askey_wilson.aw_poly(inverted, ctx))) / scale


def _eval_aw_limit(p, ctx, policy):
    sched = askey_wilson.LimitSchedule(
        m_values=tuple(range(_int(p.get("m_min", 3)), _int(p.get("m_max", 8)) + 1)),
        lam=_ints(p["lam"]), nu=_ints(p["nu"]), x=_ints(p["x"]))
    points = [pt for pt in askey_wilson.limit_check(sched, ctx) if not pt.skipped]
    if not points:
        raise QCouplingError("all schedule points skipped")
    monotone = all(points[i + 1].rel_error < points[i].rel_error
                   for i in range(len(points) - 1))
    final = points[-1].rel_error
    # non-monotone schedules count as non-converged: surface via a large residual
    return mp.mpf(final if monotone else 1.0)


@dataclass(frozen=True)
class Identity:
    name: str
    description: str
    evaluator: Callable
    required: tuple


IDENTITIES: Dict[str, Identity] = {i.name: i for i in [
    Identity("qpoch-recurrence", "finite q-shifted factorial one-step recurrence",
             _eval_qpoch_recurrence, ("a", "n")),
    Identity("wall-consistency", "terminating series vs transformed closed form of the Wall polynomial",
             _eval_wall_consistency, ("n", "x")),
    Identity("hankel-orthogonality", "lattice orthogonality of the q-Bessel kernel, delta value q^-n",
             _eval_hankel, ("nu", "m", "n")),
    Identity("genfun", "q-Bessel generating relation across lattice shifts",
             _eval_genfun, ("nu", "x", "t")),
    Identity("wall-genfun", "Wall-polynomial specialization of the generating relation",
             _eval_wall_genfun, ("n", "nu", "x")),
    Identity("sixj-oracle", "closed-form recoupling coefficient vs truncated inner-product oracle",
             _eval_sixj_oracle, ("x", "p1", "r1", "p2", "r2")),
    Identity("sixj-orthogonality", "row orthogonality of the recoupling coefficients",
             _eval_sixj_orthogonality, ("r", "p2", "p3")),
    Identity("backcoupling", "three-factor re-bracketing loop (stated form; known not to close)",
             _eval_backcoupling, ("x", "n1", "n2", "n3", "p1", "p2")),
    Identity("biedenharn-elliott", "pentagon product formula for q-Bessel functions",
             _eval_be, ("P", "Q", "R", "nu", "mu1", "mu2")),
    Identity("hexagon", "six-term coupling identity (stated form; known not to close)",
             _eval_hexagon, ("x", "n1", "n2", "n3", "n4", "p1", "p2", "p3", "p4")),
    Identity("yang-baxter", "triple-product equation for the recoupling-weight operator (stated form)",
             _eval_yang_baxter, ("u", "v", "w")),
    Identity("qhankel-factorization", "composition factorization of the lattice Hankel transform (stated form)",
             _eval_qhankel_factorization, ("x", "n1", "n2", "n3")),
    Identity("multi-orthogonality", "nested lattice orthogonality of multivariate q-Bessel",
             _eval_multi_orthogonality, ("nu", "lam", "lam2")),
    Identity("multi-duality", "label-reversal self-duality of multivariate q-Bessel",
             _eval_multi_duality, ("nu", "x", "lam")),
    Identity("threenj-product", "chain factorization of tree recoupling coefficients",
             _eval_threenj_product, ("x", "n", "r", "s")),
    Identity("threenj-corollary", "tree recoupling chain equals prefactored multivariate q-Bessel",
             _eval_threenj_corollary, ("x", "n", "r", "s")),
    Identity("s-lemma", "unitarity of the left-hanging chain coefficients",
             _eval_s_lemma, ("x", "n", "s", "s2")),
    Identity("multi-be", "multivariate pentagon expansion, chain reference form",
             _eval_multi_be, ("x", "n", "r", "s")),
    Identity("s-composition", "iterated chain-transition composition (stated form; known not to close)",
             _eval_s_composition, ("x", "n", "r", "s")),
    Identity("cg-expansion", "chain Clebsch-Gordan product expanded over reversed chains",
             _eval_cg_expansion, ("x", "r", "n")),
    Identity("aw-symmetry", "parameter-swap and point-inversion invariance of Askey-Wilson values",
             _eval_aw_symmetry, ("n",)),
    Identity("aw-limit", "lattice limit of coupled Askey-Wilson products to multivariate q-Bessel",
             _eval_aw_limit, ("lam", "nu", "x")),
]}


def identity_descriptions() -> List[tuple]:
    return [(name, IDENTITIES[name].description) for name in sorted(IDENTITIES)]


@dataclass(frozen=True)
class CaseResult:
    identity: str
    params: dict
    q: float
    residual: float
    est_error: float
    passed: bool
    wall_time: float
    error: str = ""

    def to_json(self) -> str:
        body = {
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "q": self.q,
            "residual": self.residual,
            "est_error": self.est_error,
            "pass": self.passed,
            "wall_time": round(self.wall_time, 6),
        }
        if self.error:
            body["error"] = self.error
        return json.dumps(body, sort_keys=True)


@dataclass(frozen=True)
class CampaignPlan:
    identity: str
    grid: dict
    q_values: tuple
    tolerance: float
    precision: int = 30
    policy: TruncationPolicy = TruncationPolicy()

    @staticmethod
    def from_dict(doc: dict) -> "CampaignPlan":
        try:
            ident = doc["identity"]
            grid = doc.get("grid", {})
            qs = tuple(doc.get("q", [0.5]))
            tol = float(doc.get("tolerance", 1e-8))
            precision = _int(doc.get("precision", 30))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanInvalid(f"malformed plan entry: {exc}")
        if ident not in IDENTITIES:
            raise PlanInvalid(f"unknown identity id {ident!r}")
        for qv in qs:
            _context(qv, precision)
        if not isinstance(grid, dict):
            raise PlanInvalid("grid must be an object of label -> values")
        return CampaignPlan(ident, grid, qs, tol, precision, _policy_from(doc.get("policy")))

    def expand(self) -> List[dict]:
        """Deterministic grid expansion: sorted labels, row-major order."""
        labels = sorted(self.grid)
        axes = []
        for lab in labels:
            spec = self.grid[lab]
            if isinstance(spec, dict) and "lo" in spec and "hi" in spec:
                try:
                    axes.append(list(range(_int(spec["lo"]), _int(spec["hi"]) + 1)))
                except (TypeError, ValueError) as exc:
                    raise PlanInvalid(f"{lab}: bad lo/hi range: {exc}")
            elif isinstance(spec, list):
                axes.append(spec)
            else:
                axes.append([spec])
        cases = []
        for combo in itertools.product(*axes):
            cases.append(dict(zip(labels, combo)))
        if not cases or not self.grid:
            raise PlanInvalid("empty parameter grid")
        missing = [k for k in IDENTITIES[self.identity].required if k not in cases[0]]
        if missing:
            raise PlanInvalid(f"{self.identity}: grid missing labels {missing}")
        return cases


def _policy_from(doc: Optional[dict]) -> TruncationPolicy:
    """Truncation policy of a plan's ``policy`` object; PlanInvalid if malformed."""
    if not doc:
        return TruncationPolicy()
    if not isinstance(doc, dict):
        raise PlanInvalid("policy must be an object")
    kwargs = {}
    for key in ("max_terms", "tail_tol", "adaptive", "tail_ratio"):
        if key in doc:
            kwargs[key] = doc[key]
    try:
        if "window" in doc:
            kwargs["bilateral_window"] = tuple(doc["window"])
        return TruncationPolicy(**kwargs)
    except (DomainError, TypeError, ValueError) as exc:
        raise PlanInvalid(f"malformed policy: {exc}")


def _context(q, precision: int) -> QContext:
    try:
        return QContext(q, precision)
    except (DomainError, TypeError, ValueError) as exc:
        raise PlanInvalid(f"invalid q {q!r} or precision {precision!r}: {exc}")


def eval_single(identity: str, params: dict, q, tolerance: float = 1e-8,
                precision: int = 30, policy: Optional[TruncationPolicy] = None) -> CaseResult:
    """Evaluate one identity instance; evaluation errors become failed cases.

    An unknown identity, a missing label or an invalid q or precision raises
    PlanInvalid instead: the instance cannot be set up at all.  A label value
    that fails its cast is an evaluation error.
    """
    if identity not in IDENTITIES:
        raise PlanInvalid(f"unknown identity id {identity!r}")
    missing = [k for k in IDENTITIES[identity].required if k not in params]
    if missing:
        raise PlanInvalid(f"{identity}: missing labels {missing}")
    policy = policy or TruncationPolicy()
    ctx = _context(q, precision)
    t0 = time.perf_counter()
    try:
        with ctx.workdps(10):
            residual = IDENTITIES[identity].evaluator(params, ctx, policy)
        residual = float(abs(residual))
        err = ""
    except (QCouplingError, ArithmeticError, TypeError, ValueError) as exc:
        residual = float("inf")
        err = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    passed = residual <= tolerance and not err
    return CaseResult(identity, params, float(q), residual,
                      float(policy.tail_tol), passed, dt, err)


def _run_case(args):
    return eval_single(*args)


def run_campaign(plans: Sequence[CampaignPlan], jobs: int = 1):
    """Run every grid point of every plan; returns (results, summary).

    Results keep deterministic grid order whatever the execution order.
    """
    tasks = []
    for plan in plans:
        for qv in plan.q_values:
            for params in plan.expand():
                tasks.append((plan.identity, params, qv, plan.tolerance,
                              plan.precision, plan.policy))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_case, tasks, chunksize=4))
    else:
        results = [_run_case(t) for t in tasks]

    breakdown: Dict[str, dict] = {}
    for r in results:
        slot = breakdown.setdefault(r.identity, {"cases": 0, "failed": 0, "max_residual": 0.0})
        slot["cases"] += 1
        slot["failed"] += 0 if r.passed else 1
        if r.residual == r.residual and r.residual != float("inf"):  # not nan/inf
            slot["max_residual"] = max(slot["max_residual"], r.residual)
    summary = {
        "total": len(results),
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "max_residual": max((s["max_residual"] for s in breakdown.values()), default=0.0),
        "identity_breakdown": {k: breakdown[k] for k in sorted(breakdown)},
    }
    return results, summary
