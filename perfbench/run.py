"""Campaign benchmark for qcoupling: cold-cache residuals per second.

    python3 perfbench/run.py --workload bessel-campaign --seed 1 --seconds 20 --trace 0

Run from the root of a qcoupling checkout.  Each round runs the workload's
whole campaign in a fresh interpreter (``round.py``) through
``verifier.run_campaign``, as ``qcoupling verify`` does, so the J table starts
empty every time.  A run repeats the campaign for a fixed number of rounds,
about ``--seconds`` of work on the reference host (``workloads.py``); each
metric is the median over the rounds, and the per-case times are pooled.  Every case of
every round is checked against its expected verdict, a seeded sample of the
J table is recomputed with mpmath alone (``jcheck.py``), every round's report
must equal the first one's, and a multi-process workload's report must equal
a one-process run of the same plan.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count cases, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).

``--reference`` prints the digest of the one-process report of the plan
instead, the report a multi-process run is compared with.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import mpmath as mp

import jcheck
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
J_SAMPLE = 6
DEADLINE_S = 170  # a run must end within 180 s


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_round(root, plans, jobs, seed, trace, j_sample, deadline):
    """Run one campaign in a fresh interpreter; (spawn time, round output)."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=out_dir)
    spec = {"src": os.path.join(root, "src"), "plans": plans, "jobs": jobs,
            "trace": trace, "trace_dir": trace_dir, "j_sample": j_sample, "seed": seed}
    try:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "round.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(json.dumps(spec),
                                              timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _fail(f"the run did not end within {DEADLINE_S} s")
        if proc.returncode != 0:
            _fail(f"round exited with {proc.returncode}:\n{stderr[-3000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["workers"] = []
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                out["workers"].append(json.load(fh))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return t_spawn, out


def expected_cases(plans):
    """(identity, params, q, tolerance) in the order run_campaign reports them."""
    out = []
    for doc in plans:
        axes = sorted(doc["grid"])
        combos = [{}]
        for axis in axes:
            combos = [dict(c, **{axis: v}) for c in combos for v in doc["grid"][axis]]
        for qv in doc["q"]:
            for params in combos:
                out.append((doc["identity"], params, float(qv), doc["tolerance"]))
    return out


def verdict_failures(cases, expected):
    """(cases that raised, cases out of order or on the wrong side of their verdict, notes)."""
    if len(cases) != len(expected):
        return 0, len(expected), [f"{len(cases)} cases reported, {len(expected)} expected"]
    raised, wrong, notes = 0, 0, []
    for case, (ident, params, qv, tol) in zip(cases, expected):
        res = case["residual"]
        if case["error"]:
            raised += 1
        elif (case["identity"], case["params"], case["q"]) != (ident, params, qv):
            wrong += 1
        elif ident in workloads.FALSE_AS_STATED:
            wrong += not (math.isfinite(res) and res > workloads.FALSE_AS_STATED[ident])
        else:
            wrong += not res <= tol
        if raised + wrong > len(notes) and len(notes) < 5:
            notes.append(f"{case['identity']} {case['params']} q={case['q']}: "
                         f"residual {res} {case['error']}")
    return raised, wrong, notes


def check_j_sample(sample, plans):
    """Recompute each sampled J value with mpmath; return the failures."""
    bases = []
    with mp.workdps(60):
        for qv in sorted({float(q) for doc in plans for q in doc["q"]}):
            for power in (1, 2):
                bases.append(mp.mpf(qv) ** power)
    bad = []
    for entry in sample:
        with mp.workdps(60):
            stored = mp.mpf(entry["q"])
            base = min(bases, key=lambda b: abs(b - stored))
            if abs(base - stored) > mp.mpf("1e-14") * base:
                bad.append(f"J base {entry['q']} is no plan q or q^2")
                continue
        rel, self_gap = jcheck.recheck(entry["nu"], entry["y"], base, entry["value"])
        if self_gap > mp.mpf("1e-40") or rel > jcheck.TOLERANCE:
            bad.append(f"J_{entry['nu']}(q^{entry['y']}) at base {entry['q']}: "
                       f"relative difference {mp.nstr(rel, 3)}, reference gap {mp.nstr(self_gap, 3)}")
    return bad


def digest(report):
    return hashlib.sha256("\n".join(report).encode()).hexdigest()


def tail(values):
    """Highest percentile with at least ten values beyond it: the 11th largest."""
    return sorted(values, reverse=True)[10]


def end_to_end(rounds):
    """Medians over the rounds; the case times are pooled over all rounds."""
    walls = [c["wall_time"] for _, r in rounds for c in r["cases"]]
    per = [{"cases_per_s": len(r["cases"]) / r["wall_s"],
            "cpu_s": r["cpu_s"],
            "peak_rss_mb": r["peak_rss_kb"] / 1024,
            "setup_s": r["t_ready"] - t_spawn} for t_spawn, r in rounds]
    values = {k: statistics.median(p[k] for p in per) for k in per[0]}
    values["case_p50_ms"] = statistics.median(walls) * 1e3
    values["case_tail_ms"] = tail(walls) * 1e3
    units = {"cases_per_s": "1/s", "cpu_s": "s", "case_p50_ms": "ms", "case_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def per_layer(r):
    """Per-layer numbers of one traced round, its pool workers included."""
    procs = [r["trace"]] + r["workers"]
    totals = {}
    for p in procs:
        for name, (calls, total, own) in p["totals"].items():
            slot = totals.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += own

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    lookups = calls("qfunctions.qbessel_lattice")
    keys = [k for p in procs for k in p["j_keys"]]
    if r["workers"]:
        busy = sum(p["totals"].get("verifier._run_case", [0, 0.0])[1] for p in r["workers"])
        idle = sum(p["lifetime"] for p in r["workers"]) - busy
    else:
        busy = total_s("verifier._run_case")
        idle = total_s("verifier.run_campaign") - busy
    m = {
        "qcore.rphis.calls": calls("qcore.rphis"),
        "qcore.rphis.self_s": self_s("qcore.rphis"),
        "qcore.qpoch_infinite.calls": calls("qcore.qpoch_infinite"),
        "qcore.qpoch_infinite.self_s": self_s("qcore.qpoch_infinite"),
        "qcore.bilateral_sum.calls": calls("qcore.bilateral_sum"),
        "qcore.bilateral_sum.terms": sum(p["bilateral_terms"] for p in procs),
        "qcore.bilateral_sum.self_s": self_s("qcore.bilateral_sum"),
        "qfunctions.j_lookups": lookups,
        "qfunctions.j_evals": len(keys),
        "qfunctions.j_hit_ratio": 1 - len(keys) / lookups if lookups else 0.0,
        "qfunctions.qbessel.self_s": self_s("qfunctions.qbessel"),
        "qfunctions.wall_orthonormal_run.calls": calls("qfunctions.wall_orthonormal_run"),
        "qfunctions.wall_orthonormal_run.self_s": self_s("qfunctions.wall_orthonormal_run"),
        "representation.coupled_vector.calls": calls("representation.coupled_vector"),
        "representation.coupled_vector.self_s": self_s("representation.coupled_vector"),
        "representation.sixj_oracle.self_s": self_s("representation.sixj_oracle"),
        "coupling.recoupling_R.calls": calls("coupling.recoupling_R"),
        "coupling.sixj_closed.calls": calls("coupling.sixj_closed"),
        "coupling.yang_baxter_residual.self_s": self_s("coupling.yang_baxter_residual"),
        "coupling.evaluators.self_s": sum(
            v[2] for k, v in totals.items()
            if k.startswith("coupling.") and k != "coupling.yang_baxter_residual"),
        "multivariate.threenj_S.calls": calls("multivariate.threenj_S"),
        "multivariate.threenj_R.calls": calls("multivariate.threenj_R"),
        "multivariate.nested_sum.self_s": self_s("multivariate._nested_vector_sum")
        + sum(p["nested_self"] for p in procs),
        "askey_wilson.aw_poly.calls": calls("askey_wilson.aw_poly"),
        "askey_wilson.aw_poly.self_s": self_s("askey_wilson.aw_poly"),
        "verifier.eval_single.calls": calls("verifier.eval_single"),
        "verifier.case_overhead_s": self_s("verifier.eval_single"),
        "verifier.worker_busy_s": busy,
        "verifier.worker_idle_s": idle,
        "verifier.j_evals_distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "setup.import_s": r["import_s"],
        "setup.plan_s": r["plan_s"],
    }
    return m


def layer_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="print the digest of the one-process report and exit")
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcoupling", "verifier.py")):
        _fail(f"no qcoupling sources under {root}/src; run from the root of a checkout")
    plans, jobs, n_rounds = workloads.build(args.workload, args.seconds)
    expected = expected_cases(plans)
    problems, mismatches = [], []

    reference = None
    j_source = None
    if jobs > 1 or args.reference:
        _, ref = run_round(root, plans, 1, args.seed, False, J_SAMPLE, deadline)
        raised, wrong, notes = verdict_failures(ref["cases"], expected)
        if raised or wrong:
            _fail("one-process reference run has wrong verdicts: " + "; ".join(notes))
        reference, j_source = ref["report"], ref
        if args.reference:
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "cases": len(ref["cases"]), "digest": digest(reference)}))
            return

    rounds = []
    start = time.monotonic()
    while len(rounds) < n_rounds:
        rounds.append(run_round(root, plans, jobs, args.seed, bool(args.trace),
                                J_SAMPLE if j_source is None and not rounds else 0, deadline))
        print(f"perfbench: {args.workload} round {len(rounds)}/{n_rounds} done at "
              f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    j_source = j_source or rounds[0][1]

    attempted = failed = wrong = 0
    first = reference or rounds[0][1]["report"]
    for _, r in rounds:
        n_raised, n_wrong, notes = verdict_failures(r["cases"], expected)
        attempted += len(expected)
        failed += n_raised + n_wrong
        wrong += n_wrong
        problems += notes
        if r["report"] != first:
            a, b = next((a, b) for a, b in zip(r["report"] + [""], first + [""]) if a != b)
            mismatches.append(f"report differs from the {'one-process' if reference else 'first'}"
                              f" report: {a[:300]} != {b[:300]}")
    j_bad = check_j_sample(j_source["j_sample"], plans) if j_source["j_sample"] \
        else ["no J values to recheck"]
    # a case that raised counts as failed; a wrong value makes the run incorrect
    correct = wrong == 0 and not mismatches and not j_bad
    problems += mismatches + j_bad

    if args.trace:
        layers = [per_layer(r) for _, r in rounds]
        units = layer_units()
        metrics = {k: {"value": statistics.median(m[k] for m in layers), "unit": units[k]}
                   for k in units}
        traced = end_to_end(rounds)
        out_dir = os.path.join(HERE, "out")
        with open(os.path.join(out_dir, f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": layers,
                       "median": {k: v["value"] for k, v in metrics.items()},
                       "traced_end_to_end": {k: v["value"] for k, v in traced.items()}},
                      fh, indent=1, sort_keys=True)
    else:
        metrics = end_to_end(rounds)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
