"""Campaign engine: sweep identities over parameter grids and report residuals.

A plan is one JSON document naming identities, per-label parameter grids, a
q list, a tolerance and truncation-policy overrides.  Each grid point yields
one CaseResult; reports are JSON lines (one case per line) followed by a
summary object.  Exit semantics: 0 all-pass, 1 any-fail, 2 invalid plan.

Evaluation errors are recorded as failed cases, never abort a campaign.
Cases are emitted in deterministic grid order regardless of execution order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import mpmath as mp

from . import askey_wilson, coupling, multivariate, qcore, qfunctions, representation
from .errors import DomainError, PlanInvalid, QCouplingError
from .qcore import QContext, TruncationPolicy

__all__ = ["IDENTITIES", "Identity", "Label", "CampaignPlan", "CaseResult", "eval_single",
           "run_campaign", "identity_descriptions"]


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


def _finite(value, name: str) -> float:
    """A tolerance or policy number of a plan or the command line as a float;
    PlanInvalid unless it is a finite number >= 0 (a bool is not 0 or 1)."""
    try:
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not 0 <= out < math.inf:
        raise PlanInvalid(f"{name} must be a finite number >= 0, got {value!r}")
    return out


def _ints(v) -> tuple:
    if isinstance(v, (list, tuple)):
        return tuple(_int(x) for x in v)
    return (_int(v),)


def _eval_qpoch_recurrence(a, n, ctx, policy):
    lhs = qcore.qpoch_finite(a, ctx, n + 1)
    rhs = qcore.qpoch_finite(a, ctx, n) * (1 - a * ctx.q ** n)
    return abs(lhs - rhs)


def _eval_wall_consistency(n, x, a, ctx, policy):
    wp = qfunctions.WallParams(n, x, a)
    v1 = qfunctions.wall_poly(wp, ctx)
    v2 = qfunctions.wall_poly_alt(wp, ctx)
    scale = max(abs(v1), mp.mpf(1e-300))
    return abs(v1 - v2) / scale


def _eval_hankel(nu, m, n, ctx, policy):
    def term(x):
        return qcore.exact_product(coupling._J(nu, x + m, ctx), coupling._J(nu, x + n, ctx),
                                   qcore.qpower(2 * x, ctx))

    s = qcore.bilateral_sum(term, policy, ctx)
    target = ctx.q ** (-n) if m == n else mp.mpf(0)
    return s.residual(target)


def _eval_sixj_oracle(x, p1, r1, p2, r2, dim, ctx, policy):
    oracle = representation.sixj_oracle(x, p1, r1, p2, r2, representation.TruncatedFock(dim), ctx)
    return abs(mp.mpf(oracle) - coupling.sixj_closed(p1, r1, p2, r2, ctx))


def _eval_sixj_orthogonality(r, p2, p3, ctx, policy):
    # sixj_closed(p1, r, p, r) is the recoupling weight at order r and e = p1 - p
    weight = coupling.weight_pair
    s = qcore.bilateral_sum(lambda p1: qcore.exact_product(
        weight(r, p1 - p2, ctx), weight(r, p1 - p3, ctx)), policy, ctx)
    return s.residual(1 if p2 == p3 else 0)


def _eval_yang_baxter(u, v, w, lo, hi, ctx, policy):
    return coupling.yang_baxter_residual(u, v, w, (lo, hi), ctx)


def _eval_qhankel_factorization(x, n1, n2, n3, ctx, policy):
    f = {xx: qcore.rounded(qcore.qpower(xx * xx, ctx), ctx) for xx in range(-20, 25)}
    return coupling.qhankel_factorization_residual(x, n1, n2, n3, f, ctx, policy)


# the orthogonality's level sums, shared by every case of the process; their
# keys carry the base, the working precision and the policy
_ORTHOGONALITY_LEVELS: dict = {}


def _eval_multi_orthogonality(nu, lam, lam2, ctx, policy):
    return multivariate.multi_orthogonality_residual(nu, lam, lam2, ctx, policy,
                                                     memo=_ORTHOGONALITY_LEVELS)


def _eval_multi_duality(nu, x, lam, ctx, policy):
    hat = multivariate.hat
    a = multivariate.multi_qbessel(multivariate.MultiBesselParams(nu, x, lam), ctx)
    b = multivariate.multi_qbessel(multivariate.MultiBesselParams(hat(nu), hat(lam), hat(x)), ctx)
    return abs(a - b)


def _check_threenj_split(r, k1, **_):
    if not 1 <= k1 < len(r):
        raise PlanInvalid("threenj-product needs 1 <= k1 < k")


def _eval_threenj_product(x, n, r, s, k1, ctx, policy):
    whole = multivariate.threenj_R(multivariate.ThreeNJParams(x, n, r, s), ctx)
    left = multivariate.ThreeNJParams(x, n[:k1 + 1] + (r[k1],), r[:k1], s[:k1])
    right = multivariate.ThreeNJParams(x, (s[k1 - 1],) + n[k1 + 1:], r[k1:], s[k1:])
    split = multivariate.threenj_R(left, ctx) * multivariate.threenj_R(right, ctx)
    return abs(whole - split)


def _eval_threenj_corollary(x, n, r, s, ctx, policy):
    return multivariate.threenj_corollary_gap(multivariate.ThreeNJParams(x, n, r, s), ctx)


def _eval_s_lemma(x, n, s, s2, ctx, policy):
    # chain coefficients are a unitary change of basis: sum_r S_{r,s} S_{r,s'} = delta
    multivariate.ThreeNJParams(x, n, s, s2)  # DomainError unless len(n) = len(s) + 2 = len(s2) + 2

    def term(rvec):
        labels = multivariate._S_labels(x, n, rvec, s) + multivariate._S_labels(x, n, rvec, s2)
        return qcore.exact_product(*[coupling.weight_pair(o, e, ctx) for o, e in labels])

    return multivariate._nested_vector_sum(term, len(s), policy, ctx).residual(
        1 if s == s2 else 0)


def _eval_multi_be(x, n, r, s, ctx, policy):
    params = multivariate.ThreeNJParams(x, n, r, s)
    return multivariate.verify_multivariate_BE(params, ctx, policy, a_form=False).s_form_residual


def _eval_aw_symmetry(n, x, a, b, c, d, ctx, policy):
    base = askey_wilson.AWParams(n, x, a, b, c, d)
    v = askey_wilson.aw_poly(base, ctx)
    swapped = askey_wilson.AWParams(n, x, b, a, c, d)
    inverted = askey_wilson.AWParams(n, 1 / x, a, b, c, d)
    scale = max(abs(v), mp.mpf(1e-300))
    return max(abs(v - askey_wilson.aw_poly(swapped, ctx)),
               abs(v - askey_wilson.aw_poly(inverted, ctx))) / scale


def _eval_aw_limit(lam, nu, x, m_min, m_max, ctx, policy):
    sched = askey_wilson.LimitSchedule(tuple(range(m_min, m_max + 1)), lam, nu, x)
    points = [pt for pt in askey_wilson.limit_check(sched, ctx) if not pt.skipped]
    if not points:
        raise QCouplingError("all schedule points skipped")
    monotone = all(points[i + 1].rel_error < points[i].rel_error
                   for i in range(len(points) - 1))
    # non-monotone schedules count as non-converged: surface via a large residual
    return points[-1].rel_error if monotone else 1.0


def _library(module, name: str) -> Callable:
    """Evaluator calling ``module.name``, looked up at each call so that a
    rebinding of the module attribute is seen; its signature is the function's."""
    @functools.wraps(getattr(module, name))
    def evaluator(**kwargs):
        return getattr(module, name)(**kwargs)
    return evaluator


class Label(NamedTuple):
    """How one label is read: the cast of its value, and its default (None: required)."""

    cast: Callable
    default: object = None


INT, INTS, REAL = Label(_int), Label(_ints), Label(mp.mpf)


def _labels(ints: str = "", vectors: str = "", reals: str = "", **optional) -> Dict[str, Label]:
    """Labels of one identity: required integer, integer-vector and real labels
    (space-separated names), and optional ones, real if their default is a float
    and integer otherwise.  An integer vector reads a scalar as a 1-vector; a
    real is an mpf read at the working precision plus ten digits."""
    out = {}
    for kind, names in ((INT, ints), (INTS, vectors), (REAL, reals)):
        out.update(dict.fromkeys(names.split(), kind))
    for name, default in optional.items():
        out[name] = Label((REAL if isinstance(default, float) else INT).cast, default)
    return out


@dataclass(frozen=True)
class Identity:
    """An identity, and the labels its evaluator takes as keywords besides ctx
    and policy.  The evaluator returns the residual as an mpf, a float or a
    SeriesResult, whose ``est_error`` the case reports.  ``check``, if given,
    takes the cast labels and raises PlanInvalid for values that name no
    instance.  ``arrays`` marks an evaluator that runs on numpy and
    scipy.sparse, which the package does not import: plan validation and
    ``eval_single`` load them (``load``) before any case's clock starts."""

    name: str
    description: str
    evaluator: Callable
    labels: Dict[str, Label]
    check: Optional[Callable] = None
    arrays: bool = False

    def load(self) -> None:
        """Import the array stack if the evaluator needs it."""
        if self.arrays:
            import numpy  # noqa: F401
            import scipy.sparse  # noqa: F401

    def check_labels(self, given) -> None:
        """PlanInvalid unless ``given`` has every required label and only declared ones."""
        missing = [k for k, lab in self.labels.items() if lab.default is None and k not in given]
        if missing:
            raise PlanInvalid(f"{self.name}: missing labels {missing}")
        unknown = [k for k in given if k not in self.labels]
        if unknown:
            raise PlanInvalid(f"{self.name}: unknown labels {unknown}")

    def cast(self, params) -> dict:
        """Every label cast as declared, a left-out optional one from its default."""
        return {k: lab.cast(params[k] if k in params else lab.default)
                for k, lab in self.labels.items()}

    def check_case(self, params) -> None:
        """``check_labels``, then ``check`` on the cast labels.  A label that
        fails its cast is left to the evaluation, where it is a failed case."""
        self.check_labels(params)
        if self.check is None:
            return
        try:
            labels = self.cast(params)
        except (TypeError, ValueError):
            return
        self.check(**labels)


IDENTITIES: Dict[str, Identity] = {i.name: i for i in [
    Identity("qpoch-recurrence", "finite q-shifted factorial one-step recurrence",
             _eval_qpoch_recurrence, _labels("n", reals="a")),
    Identity("wall-consistency", "terminating series vs transformed closed form of the Wall polynomial",
             _eval_wall_consistency, _labels("n x", a=0.5)),
    Identity("hankel-orthogonality", "lattice orthogonality of the q-Bessel kernel, delta value q^-n",
             _eval_hankel, _labels("nu m n")),
    Identity("genfun", "q-Bessel generating relation across lattice shifts",
             _library(qfunctions, "genfun_check"), _labels("nu", reals="x t")),
    Identity("wall-genfun", "Wall-polynomial specialization of the generating relation",
             _library(qfunctions, "wall_genfun_check"), _labels("n nu", reals="x")),
    Identity("sixj-oracle", "closed-form recoupling coefficient vs truncated inner-product oracle",
             _eval_sixj_oracle, _labels("x p1 r1 p2 r2", dim=60)),
    Identity("sixj-orthogonality", "row orthogonality of the recoupling coefficients",
             _eval_sixj_orthogonality, _labels("r p2 p3")),
    Identity("backcoupling", "three-factor re-bracketing loop (stated form; known not to close)",
             _library(coupling, "verify_backcoupling"), _labels("x n1 n2 n3 p1 p2")),
    Identity("biedenharn-elliott", "pentagon product formula for q-Bessel functions",
             _library(coupling, "verify_biedenharn_elliott"), _labels("P Q R nu mu1 mu2")),
    Identity("hexagon", "six-term coupling identity (stated form; known not to close)",
             _library(coupling, "verify_hexagon"), _labels("x n1 n2 n3 n4 p1 p2 p3 p4")),
    Identity("yang-baxter", "triple-product equation for the recoupling-weight operator (stated form)",
             _eval_yang_baxter, _labels("u v w", lo=-10, hi=10), arrays=True),
    Identity("qhankel-factorization", "composition factorization of the lattice Hankel transform (stated form)",
             _eval_qhankel_factorization, _labels("x n1 n2 n3")),
    Identity("multi-orthogonality", "nested lattice orthogonality of multivariate q-Bessel",
             _eval_multi_orthogonality, _labels(vectors="nu lam lam2")),
    Identity("multi-duality", "label-reversal self-duality of multivariate q-Bessel",
             _eval_multi_duality, _labels(vectors="nu x lam")),
    Identity("threenj-product", "chain factorization of tree recoupling coefficients",
             _eval_threenj_product, _labels("x", vectors="n r s", k1=1), _check_threenj_split),
    Identity("threenj-corollary", "tree recoupling chain equals prefactored multivariate q-Bessel",
             _eval_threenj_corollary, _labels("x", vectors="n r s")),
    Identity("s-lemma", "unitarity of the left-hanging chain coefficients",
             _eval_s_lemma, _labels("x", vectors="n s s2")),
    Identity("multi-be", "multivariate pentagon expansion, chain reference form",
             _eval_multi_be, _labels("x", vectors="n r s")),
    Identity("s-composition", "iterated chain-transition composition (stated form; known not to close)",
             _library(multivariate, "verify_S_composition"), _labels("x", vectors="n r s")),
    Identity("cg-expansion", "chain Clebsch-Gordan product expanded over reversed chains",
             _library(multivariate, "cg_expansion_residual"), _labels("x", vectors="r n")),
    Identity("aw-symmetry", "parameter-swap and point-inversion invariance of Askey-Wilson values",
             _eval_aw_symmetry, _labels("n", x=0.8, a=0.3, b=0.45, c=0.2, d=0.15)),
    Identity("aw-limit", "lattice limit of coupled Askey-Wilson products to multivariate q-Bessel",
             _eval_aw_limit, _labels(vectors="lam nu x", m_min=3, m_max=8)),
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
            precision = _int(doc.get("precision", 30))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanInvalid(f"malformed plan entry: {exc}")
        unknown = set(doc) - {"identity", "grid", "q", "tolerance", "precision", "policy"}
        if unknown:
            raise PlanInvalid(f"unknown plan keys {sorted(unknown, key=str)}")
        tol = _finite(doc.get("tolerance", 1e-8), "tolerance")
        if not isinstance(ident, str) or ident not in IDENTITIES:
            raise PlanInvalid(f"unknown identity id {ident!r}")
        IDENTITIES[ident].load()
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
        cases = [dict(zip(labels, combo)) for combo in itertools.product(*axes)]
        if not cases or not self.grid:
            raise PlanInvalid("empty parameter grid")
        for case in cases:
            IDENTITIES[self.identity].check_case(case)
        return cases


def _policy_from(doc: Optional[dict]) -> TruncationPolicy:
    """Truncation policy of a plan's ``policy`` object; PlanInvalid if malformed."""
    if doc is None:
        return TruncationPolicy()
    if not isinstance(doc, dict):
        raise PlanInvalid("policy must be an object")
    unknown = set(doc) - {"max_terms", "tail_tol", "adaptive", "tail_ratio", "window"}
    if unknown:
        raise PlanInvalid(f"unknown policy keys {sorted(unknown, key=str)}")
    kwargs = {k: doc[k] for k in ("max_terms", "adaptive") if k in doc}
    kwargs.update({k: _finite(doc[k], k) for k in ("tail_tol", "tail_ratio") if k in doc})
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

    An unknown identity, a missing or undeclared label, labels the
    identity's ``check`` rejects, or an invalid q or precision raises
    PlanInvalid instead, as does a tolerance ``_finite`` rejects: the
    instance cannot be set up at all.  Each label
    is cast as ``IDENTITIES[identity].labels`` declares, a left-out optional
    one from its default; a failed cast is an evaluation error.  The report
    echoes ``params`` as given.  ``est_error`` is the truncation estimate
    of an evaluator that returns a SeriesResult, and the policy's tail_tol
    for any other evaluator or a failed case.  An identity that needs the
    array stack loads it before the case's clock starts.
    """
    if not isinstance(identity, str) or identity not in IDENTITIES:
        raise PlanInvalid(f"unknown identity id {identity!r}")
    ident = IDENTITIES[identity]
    ident.check_case(params)
    tolerance = _finite(tolerance, "tolerance")
    policy = policy or TruncationPolicy()
    ctx = _context(q, precision)
    ident.load()
    t0 = time.perf_counter()
    est = float(policy.tail_tol)
    try:
        with ctx.workdps(10):
            result = ident.evaluator(**ident.cast(params), ctx=ctx, policy=policy)
        residual = abs(float(result))
        if isinstance(result, qcore.SeriesResult):
            est = float(result.est_error)
        err = ""
    except (QCouplingError, ArithmeticError, TypeError, ValueError) as exc:
        residual = float("inf")
        err = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    passed = residual <= tolerance and not err
    return CaseResult(identity, params, float(q), residual, est, passed, dt, err)


def _run_case(args):
    return eval_single(*args)


def _run_block(block):
    # _run_case is read from the module at each call, so a rebinding of it
    # (as span tracing does) is seen in the worker
    return [_run_case(t) for t in block]


def _blocks(keys: Sequence, jobs: int) -> List[List[int]]:
    """Task indices dealt into at most ``jobs`` blocks, one block per process.

    The indices that share a key, which names the process tables their
    cases fill, stay in one block unless there are more of them than the
    even share ceil(len(keys) / jobs); such a group is cut into pieces of
    that share.  Pieces go largest first to the block with the fewest
    cases, so no block is empty.
    """
    share = -(-len(keys) // jobs)
    groups: Dict[object, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    pieces = [g[i:i + share] for g in groups.values() for i in range(0, len(g), share)]
    pieces.sort(key=len, reverse=True)
    blocks: List[List[int]] = [[] for _ in range(min(jobs, len(pieces)))]
    for piece in pieces:
        min(blocks, key=len).extend(piece)
    return blocks


def run_campaign(plans: Sequence[CampaignPlan], jobs: int = 1):
    """Run every grid point of every plan; returns (results, summary).

    With ``jobs`` > 1 the cases that share a base and a working precision,
    and so the J table, the powers of q and the weight tables, run in one
    process (see ``_blocks``): at most ``jobs`` processes, this one among
    them.  The pool forks one worker per block after the first before this
    process runs the first block, so no worker inherits that block's table
    entries; a plan dealt into one block starts no pool.  Results keep deterministic
    grid order whatever the execution order.  A ``jobs`` below 1 raises
    PlanInvalid.
    """
    if jobs < 1:
        raise PlanInvalid(f"jobs must be at least 1, got {jobs}")
    tasks, keys = [], []
    for plan in plans:
        cases = plan.expand()
        for qv in plan.q_values:
            key = (_context(qv, plan.precision).q_key, plan.precision)
            for params in cases:
                tasks.append((plan.identity, params, qv, plan.tolerance,
                              plan.precision, plan.policy))
                keys.append(key)
    if jobs > 1 and tasks:
        blocks = _blocks(keys, jobs)
        work = [[tasks[i] for i in block] for block in blocks]
        if len(work) == 1:
            done = [_run_block(work[0])]
        else:
            with ProcessPoolExecutor(max_workers=len(work) - 1) as pool:
                rest = pool.map(_run_block, work[1:])  # submits, and so forks, every worker
                done = [_run_block(work[0]), *rest]
        results = [None] * len(tasks)
        for block, block_results in zip(blocks, done):
            for i, result in zip(block, block_results):
                results[i] = result
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
