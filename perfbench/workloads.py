"""Campaign plans of the benchmark workloads.

Each workload is a list of plan documents in the format ``qcoupling verify``
reads, plus the number of worker processes.  The plans and their order are
fixed: the order decides which cases pay for cold J evaluations and, with
two workers, which J values both workers evaluate, so a seed that shuffled
it moved the per-case times and the two-worker CPU time by 15-150% between
seeds.  The seed instead draws the J values that are recomputed
independently (see ``round.py`` and ``jcheck.py``).
"""

from __future__ import annotations

import copy

# Identities whose stated form is known not to close: a case is right when
# its residual is finite and above this floor (tier-1 asserts the same for
# the triple product).
FALSE_AS_STATED = {"yang-baxter": 0.1}

# tail_tol / max_terms of the acceptance suite's lattice-orthogonality test
_ACCEPTANCE_POLICY = {"tail_tol": 1e-16, "max_terms": 600}
# fixed windows keep nested sums over Z^k at a bounded, seed-free size
_CHAIN_POLICY = {"window": [-10, 12], "adaptive": False}


def _r(lo, hi):
    return list(range(lo, hi + 1))


_BESSEL = [
    {"identity": "hankel-orthogonality",
     "grid": {"nu": [1], "m": _r(-2, 2), "n": _r(-2, 2)},
     "q": [0.3, 0.5, 0.7], "tolerance": 1e-8, "policy": _ACCEPTANCE_POLICY},
    {"identity": "biedenharn-elliott",
     "grid": {"P": [0, 1], "Q": [0], "R": [-1, 0], "nu": [0], "mu1": [0], "mu2": [0]},
     "q": [0.5], "tolerance": 1e-8},
    {"identity": "sixj-orthogonality",
     "grid": {"r": [0], "p2": _r(-1, 1), "p3": _r(-1, 1)},
     "q": [0.5], "tolerance": 1e-8},
]

_MATRIX = [
    {"identity": "sixj-oracle",
     "grid": {"x": _r(0, 2), "p1": _r(-3, 3), "r1": [0, 1], "p2": _r(-3, 3), "r2": [0],
              "dim": [60]},
     "q": [0.3, 0.5], "tolerance": 1e-8},
    {"identity": "yang-baxter",
     "grid": {"u": _r(-1, 1), "v": _r(-1, 1), "w": _r(-1, 1), "lo": [-4], "hi": [4]},
     "q": [0.5], "tolerance": 1e-8},
]

_CHAIN = [
    {"identity": "s-lemma",
     "grid": {"x": [1], "n": [[0, 1, 0, -1]], "s": [[0, 0], [1, 0], [0, 1]],
              "s2": [[0, 0], [1, 0], [0, 1]]},
     "q": [0.5], "tolerance": 1e-8, "policy": _CHAIN_POLICY},
    {"identity": "multi-be",
     "grid": {"x": [0, 1], "n": [[0, 1, 0, -1]], "r": [[0, 1], [1, 0]], "s": [[1, 0], [0, 0]]},
     "q": [0.5], "tolerance": 1e-7, "policy": _CHAIN_POLICY},
    # criterion 8's k = 3 instance
    {"identity": "multi-be",
     "grid": {"x": [1], "n": [[0, 1, 0, -1, 0]], "r": [[0, 1, 0]], "s": [[1, 0, 0]]},
     "q": [0.5], "tolerance": 1e-7, "policy": _CHAIN_POLICY},
    {"identity": "cg-expansion",
     "grid": {"x": _r(0, 2), "r": [[0, 1], [1, 0]], "n": [[0, 1, 0, 1]]},
     "q": [0.5], "tolerance": 1e-8, "policy": _CHAIN_POLICY},
    {"identity": "threenj-product",
     "grid": {"x": _r(0, 2), "n": [[0, 1, 0, -1, 1]], "r": [[0, 1, 0], [1, 0, -1]],
              "s": [[1, 0, 0], [0, -1, 1]]},
     "q": [0.5], "tolerance": 1e-12},
    {"identity": "threenj-corollary",
     "grid": {"x": _r(0, 2), "n": [[0, 1, 0, -1], [1, -1, 0, 1]], "r": [[0, 1], [1, 0]],
              "s": [[1, 0], [0, -1]]},
     "q": [0.5], "tolerance": 1e-10},
    {"identity": "multi-duality",
     "grid": {"nu": [[0, 1, 0, 1], [1, -1, 2, 0]], "x": [[1, 0], [0, -1], [2, 1]],
              "lam": [[0, -1], [1, 1]]},
     "q": [0.5], "tolerance": 1e-12},
    # the two schedules of acceptance criterion 9
    {"identity": "aw-limit",
     "grid": {"lam": [[0]], "nu": [[0, 3, 1]], "x": [[0]]},
     "q": [0.5], "tolerance": 1e-2},
    {"identity": "aw-limit",
     "grid": {"lam": [[0, 1]], "nu": [[0, 2, 2, 0]], "x": [[-1, 0]]},
     "q": [0.5], "tolerance": 1e-2},
    # degrees at which the fixed guard digits of aw_poly still suffice
    {"identity": "aw-symmetry",
     "grid": {"n": [2, 4, 6, 8, 10]},
     "q": [0.3, 0.5], "tolerance": 1e-8},
]

# name -> (plans, worker processes, seconds per round on the reference host)
WORKLOADS = {
    "bessel-campaign": (_BESSEL, 1, 4.6),
    "bessel-campaign-jobs2": (_BESSEL, 2, 4.7),
    "matrix-model": (_MATRIX, 1, 4.8),
    "chain-campaign": (_CHAIN, 1, 3.6),
}


def build(name: str, seconds: float):
    """(plan documents, jobs, rounds) of a workload for a run of about ``seconds``.

    The number of rounds is fixed by the run length and the round's length on
    the reference host (README), not by the clock, so every run of every
    commit repeats the same work.
    """
    plans, jobs, round_s = WORKLOADS[name]
    return copy.deepcopy(plans), jobs, max(3, round(seconds / round_s))
