"""Span tracing around the calls from one qcoupling layer into the next.

Used only by traced rounds (``--trace 1``); untraced rounds never import it.
``install`` replaces every module-level binding of the traced functions in
the ``qcoupling`` modules (``coupling.qbessel_lattice`` as well as
``qfunctions.qbessel_lattice``) and each identity's evaluator with a wrapper
that opens a span.  A span is (name, start, end, parent); while open it sits
on a stack, and when it closes its duration and self time (duration minus the
durations of its direct child spans) are folded into per-name totals.  The
inner layers close tens of thousands of spans per round, so the spans are
reduced as they close and only the totals are written out.

Pool workers get the same wrappers (inherited under fork, installed by the
initializer otherwise); each worker writes its totals to a file when it exits.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from multiprocessing import util as mp_util

# (module, function) of every traced call; the span is named "module.function"
TARGETS = [
    ("qcore", "rphis"), ("qcore", "qpoch_infinite"), ("qcore", "bilateral_sum"),
    ("qfunctions", "qbessel_lattice"), ("qfunctions", "qbessel"),
    ("qfunctions", "wall_orthonormal_run"),
    ("representation", "coupled_vector"), ("representation", "sixj_oracle"),
    ("coupling", "sixj_closed"), ("coupling", "recoupling_R"),
    ("coupling", "verify_biedenharn_elliott"), ("coupling", "verify_backcoupling"),
    ("coupling", "verify_hexagon"), ("coupling", "qhankel_factorization_residual"),
    ("coupling", "yang_baxter_residual"),
    ("multivariate", "threenj_S"), ("multivariate", "threenj_R"),
    ("multivariate", "_nested_vector_sum"), ("multivariate", "multi_qbessel"),
    ("multivariate", "verify_multivariate_BE"), ("multivariate", "threenj_corollary_gap"),
    ("multivariate", "cg_expansion_residual"), ("multivariate", "verify_S_composition"),
    ("multivariate", "multi_orthogonality_residual"),
    ("askey_wilson", "aw_poly"), ("askey_wilson", "limit_check"),
    ("verifier", "eval_single"), ("verifier", "_run_case"), ("verifier", "run_campaign"),
]
MODULES = ["qcore", "qfunctions", "representation", "coupling", "multivariate",
           "askey_wilson", "verifier"]
EVALUATOR = "verifier.evaluator"
NESTED = "multivariate._nested_vector_sum"


class Tracer:
    """Open-span stack and per-name totals of one process."""

    def __init__(self):
        self.stack = []          # open spans: [name, start, child_time, reached_series]
        self.totals = {}         # name -> [calls, total_s, self_s]
        self.nested_self = 0.0   # self time of bilateral sums driven by nested sums
        self.nested_depth = 0
        self.bilateral_terms = 0
        self.j_keys = []         # lattice J lookups that reached the series
        self.born = time.perf_counter()

    def open(self, name):
        if name == "qfunctions.qbessel" and self.stack \
                and self.stack[-1][0] == "qfunctions.qbessel_lattice":
            self.stack[-1][3] = True
        if name == NESTED:
            self.nested_depth += 1
        self.stack.append([name, time.perf_counter(), 0.0, False])

    def close(self):
        name, start, child, reached = self.stack.pop()
        dur = time.perf_counter() - start
        own = dur - child
        slot = self.totals.setdefault(name, [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += dur
        slot[2] += own
        if self.stack:
            self.stack[-1][2] += dur
        if name == NESTED:
            self.nested_depth -= 1
        elif name == "qcore.bilateral_sum" and self.nested_depth:
            self.nested_self += own
        return reached

    def snapshot(self):
        return {"totals": self.totals, "nested_self": self.nested_self,
                "bilateral_terms": self.bilateral_terms, "j_keys": self.j_keys,
                "lifetime": time.perf_counter() - self.born}


TRACER = Tracer()


def _wrap(name, fn):
    @functools.wraps(fn)
    def span(*args, **kwargs):
        TRACER.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.close()
    return span


def _wrap_bilateral(name, fn):
    @functools.wraps(fn)
    def span(*args, **kwargs):
        TRACER.open(name)
        try:
            out = fn(*args, **kwargs)
            TRACER.bilateral_terms += out.terms_used
            return out
        finally:
            TRACER.close()
    return span


def _wrap_lattice(name, fn):
    @functools.wraps(fn)
    def span(nu, y, ctx):
        TRACER.open(name)
        try:
            return fn(nu, y, ctx)
        finally:
            if TRACER.close():
                man, exp = ctx.q.man_exp
                TRACER.j_keys.append(f"{nu},{y},{man},{exp},{ctx.working_precision}")
    return span


_SPECIAL = {"qcore.bilateral_sum": _wrap_bilateral,
            "qfunctions.qbessel_lattice": _wrap_lattice}


def install():
    """Wrap every traced function at each name a qcoupling module binds it to."""
    verifier = importlib.import_module("qcoupling.verifier")
    if getattr(verifier, "_perfbench_traced", False):
        return
    mods = [importlib.import_module(f"qcoupling.{m}") for m in MODULES]
    mods.append(importlib.import_module("qcoupling"))
    for mod_name, fn_name in TARGETS:
        name = f"{mod_name}.{fn_name}"
        orig = getattr(importlib.import_module(f"qcoupling.{mod_name}"), fn_name)
        wrapped = _SPECIAL.get(name, _wrap)(name, orig)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
    for key, ident in list(verifier.IDENTITIES.items()):
        verifier.IDENTITIES[key] = dataclasses.replace(
            ident, evaluator=_wrap(EVALUATOR, ident.evaluator))
    pool_cls = verifier.ProcessPoolExecutor
    verifier.ProcessPoolExecutor = functools.partial(
        pool_cls, initializer=_worker_start, initargs=(os.environ["PERFBENCH_TRACE_DIR"],))
    verifier._perfbench_traced = True


def _worker_start(out_dir):
    global TRACER
    install()
    TRACER = Tracer()  # drop what a forked worker inherited from its parent
    path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
    mp_util.Finalize(None, _dump, args=(path,), exitpriority=100)


def _dump(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(TRACER.snapshot(), fh)
