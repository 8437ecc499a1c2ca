"""One benchmark round: a whole campaign in this fresh interpreter.

Run by ``run.py`` with a JSON spec on standard input; prints one JSON object.
Like ``qcoupling verify`` it imports the package, validates and expands the
plans, and calls ``verifier.run_campaign``, so the J table starts empty.

Spec keys: ``src`` (directory holding the ``qcoupling`` package), ``plans``,
``jobs``, ``trace`` (bool), ``trace_dir``, ``j_sample`` (how many J table
entries to hand back for the independent recheck) and ``seed``.
"""

import time

T_ENTER = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

_WALL_TIME = re.compile(r', "wall_time": [^,}]+')


def _children_peak_kb(stop, peaks):
    """Poll the peak RSS (VmHWM) of this process's children until stopped."""
    me = os.getpid()
    while True:
        pids = set()
        for tid in os.listdir(f"/proc/{me}/task"):
            try:
                with open(f"/proc/{me}/task/{tid}/children") as fh:
                    pids.update(int(p) for p in fh.read().split())
            except OSError:
                pass
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peaks[pid] = max(peaks.get(pid, 0), int(line.split()[1]))
            except OSError:
                pass
        if stop.wait(0.02):
            return


def _printing_dps(mp, text):
    """The precision at which mpmath prints the number ``text`` back as ``text``."""
    for dps in range(15, 200):
        with mp.workdps(dps):
            if str(mp.mpf(text)) == text:
                return dps
    raise SystemExit(f"cannot rebuild the J table base {text}")


def _j_sample(qfunctions, QContext, mp, count, seed, tail_tol):
    """Seeded sample of J table entries, read back through qbessel_lattice.

    A table key is (nu, y, str(q), precision), with str(q) printed at the
    precision the caller had; the base is rebuilt at the precision that
    prints it back identically, so the lookup returns the stored value.

    Orders with q^(|nu|+1) below the default tail tolerance are left out:
    qpoch_infinite cuts (q^(nu+1); q)_inf and (q; q)_inf where the factors
    reach that absolute tolerance, so for those orders the numerator is
    empty while the denominator is cut, and J carries a relative error near
    the tolerance itself (1e-25 at q = 0.5, nu = 90), at the level of the
    recheck's own bound.
    """
    keys = [k for k in sorted(qfunctions._J_CACHE, key=repr)
            if mp.mpf(k[2]) ** (abs(k[0]) + 1) >= tail_tol]
    out = []
    for nu, y, qs, wp in random.Random(seed).sample(keys, min(count, len(keys))):
        with mp.workdps(_printing_dps(mp, qs)):
            ctx = QContext(mp.mpf(qs), wp)
            val = qfunctions.qbessel_lattice(nu, y, ctx)
        out.append({"nu": nu, "y": y, "q": qs, "wp": wp,
                    "value": mp.nstr(val, wp + 5, strip_zeros=False)})
    return out


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import qcoupling
    from qcoupling import qfunctions, verifier
    from qcoupling.qcore import QContext, TruncationPolicy
    import mpmath as mp
    t_import = time.monotonic()
    if not os.path.abspath(qcoupling.__file__).startswith(os.path.abspath(spec["src"])):
        raise SystemExit(f"imported qcoupling from {qcoupling.__file__}, not from {spec['src']}")
    if spec["trace"]:
        os.environ["PERFBENCH_TRACE_DIR"] = spec["trace_dir"]
        import tracer
        tracer.install()
    # the cli's verify path: validate every plan and its grid up front
    plans = [verifier.CampaignPlan.from_dict(doc) for doc in spec["plans"]]
    for plan in plans:
        plan.expand()
    t_ready = time.monotonic()

    stop, peaks = threading.Event(), {}
    poller = threading.Thread(target=_children_peak_kb, args=(stop, peaks))
    if spec["jobs"] > 1:
        poller.start()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    rc0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    results, summary = verifier.run_campaign(plans, jobs=spec["jobs"])
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    rc1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if poller.is_alive():
        stop.set()
        poller.join()
    cpu = (ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
           + rc1.ru_utime + rc1.ru_stime - rc0.ru_utime - rc0.ru_stime)

    out = {
        "t_ready": t_ready,
        "import_s": t_import - T_ENTER, "plan_s": t_ready - t_import,
        "wall_s": wall, "cpu_s": cpu,
        "peak_rss_kb": ru1.ru_maxrss + sum(peaks.values()),
        "cases": [{"identity": r.identity, "params": r.params, "q": r.q,
                   "residual": r.residual, "error": r.error, "wall_time": r.wall_time}
                  for r in results],
        "report": [_WALL_TIME.sub("", r.to_json()) for r in results]
        + [json.dumps({"summary": summary}, sort_keys=True)],
    }
    if spec["trace"]:
        out["trace"] = tracer.TRACER.snapshot()
    out["j_sample"] = _j_sample(qfunctions, QContext, mp, spec["j_sample"], spec["seed"],
                                TruncationPolicy().tail_tol)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
