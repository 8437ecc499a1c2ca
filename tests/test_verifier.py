import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import (CampaignPlan, QContext, TruncationPolicy, coupling, eval_single,
                       genfun_check, multi_orthogonality_residual, run_campaign, verifier)
from qcoupling.cli import main as cli_main
from qcoupling.errors import DomainError, PlanInvalid
from qcoupling.verifier import IDENTITIES, identity_descriptions


def test_identity_registry_complete():
    expected = {
        "qpoch-recurrence", "wall-consistency", "hankel-orthogonality", "genfun",
        "wall-genfun", "sixj-oracle", "sixj-orthogonality", "backcoupling",
        "biedenharn-elliott", "hexagon", "yang-baxter", "qhankel-factorization",
        "multi-orthogonality", "multi-duality", "threenj-product", "threenj-corollary",
        "s-lemma", "multi-be", "s-composition", "cg-expansion", "aw-symmetry", "aw-limit",
    }
    assert set(IDENTITIES) == expected
    assert all(desc for _, desc in identity_descriptions())


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_labels_match_evaluator(name):
    # the label table and the evaluator's keywords agree: a label declared but
    # not accepted, or accepted but not declared, fails here, not in a plan
    ident = IDENTITIES[name]
    sig = inspect.signature(ident.evaluator)
    sig.bind(ctx=QContext(0.5), policy=TruncationPolicy(), **dict.fromkeys(ident.labels, 0))
    assert set(sig.parameters) == set(ident.labels) | {"ctx", "policy"}


def test_library_evaluators_call_the_module_attribute(monkeypatch):
    # a forwarding entry looks the library function up at each call, so a
    # rebinding of the module attribute (as span tracing does) is seen
    seen = []
    monkeypatch.setattr(coupling, "verify_backcoupling",
                        lambda **kw: seen.append(kw) or 0.25)
    params = dict(x=1, n1=1.0, n2="0", n3=-1, p1=1, p2=-1)
    res = eval_single("backcoupling", params, 0.5, tolerance=1.0)
    assert res.passed and res.residual == 0.25
    assert seen[0]["n1"] == 1 and seen[0]["n2"] == 0 and isinstance(seen[0]["n2"], int)
    assert res.params == params


def test_eval_single_pass():
    res = eval_single("hankel-orthogonality", {"nu": 0, "m": 0, "n": 0}, 0.5, tolerance=1e-8)
    assert res.passed and res.residual < 1e-8


def test_eval_single_genfun_negative_order_is_a_domain_error():
    # the 1phi1's lower parameter q^(nu+1) is q^0 at nu = -1: a domain error
    # that says why, not a pole raised from inside the series
    for nu in (-1, -3):
        res = eval_single("genfun", {"nu": nu, "x": 0.5, "t": 0.25}, 0.5)
        assert not res.passed and res.residual == float("inf")
        assert res.error.startswith("DomainError: generating relation needs nu >= 0")
    assert eval_single("genfun", {"nu": 0, "x": 0.5, "t": 0.25}, 0.5, tolerance=1e-10).passed


def test_genfun_negative_order_directly_and_through_the_cli(capsys, ctx05):
    # the relation itself raises; the CLI reports a failed case, exit 1,
    # whose error names the domain, not a traceback
    with pytest.raises(DomainError, match="generating relation needs nu >= 0"):
        genfun_check(-1, 0.5, 0.25, ctx05)
    rc = cli_main(["eval", "genfun", "--param", "nu=-1", "--param", "x=0.5",
                   "--param", "t=0.25"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["pass"] is False
    assert doc["error"].startswith("DomainError: generating relation needs nu >= 0")


def test_eval_single_reports_the_evaluators_estimate(ctx05):
    # a SeriesResult's est_error is reported, not the policy's tail_tol
    loose = TruncationPolicy(tail_tol=1e-8)
    res = eval_single("genfun", {"nu": 1, "x": 0.5, "t": 0.25}, 0.5, tolerance=1e-6, policy=loose)
    direct = genfun_check(1, 0.5, 0.25, ctx05, loose)
    assert res.passed and res.est_error == float(direct.est_error) != loose.tail_tol
    # s-lemma returns its engine's result: on a narrow fixed window the
    # estimate is large, and the verdict still reads only the residual
    narrow = TruncationPolicy(bilateral_window=(-4, 4), adaptive=False)
    labels = {"x": 1, "n": [0, 1, 0, -1], "s": [1, 0], "s2": [1, 0]}
    res = eval_single("s-lemma", labels, 0.5, tolerance=1.0, policy=narrow)
    assert res.passed and res.est_error > narrow.tail_tol
    # the lattice orthogonality on a fixed window: its residual is the cut-off
    # tail q^60, and the reported estimate covers it
    window = TruncationPolicy(bilateral_window=(-60, 60))
    res = eval_single("hankel-orthogonality", {"nu": 0, "m": 0, "n": 0}, 0.5, policy=window)
    assert res.passed and res.residual <= res.est_error != window.tail_tol
    # an evaluator returning an mpf still reports tail_tol
    res = eval_single("qpoch-recurrence", {"a": 0.5, "n": 3}, 0.5)
    assert res.passed and res.est_error == TruncationPolicy().tail_tol


def test_eval_single_unknown_identity():
    with pytest.raises(PlanInvalid):
        eval_single("no-such-identity", {}, 0.5)


def test_eval_single_hexagon_zero_labels():
    params = dict(x=0, n1=0, n2=0, n3=0, n4=0, p1=0, p2=0, p3=0, p4=0)
    res = eval_single("hexagon", params, 0.5, tolerance=1e-8)
    assert res.passed


def test_eval_single_records_errors_as_failures():
    res = eval_single("sixj-oracle", {"x": 2, "p1": 3, "r1": 3, "p2": 3, "r2": 3, "dim": 6}, 0.5)
    assert not res.passed and "InsufficientTruncation" in res.error


def test_plan_validation():
    with pytest.raises(PlanInvalid):
        CampaignPlan.from_dict({"identity": "unknown", "grid": {"a": [1]}})
    with pytest.raises(PlanInvalid):
        CampaignPlan.from_dict({"identity": "genfun", "grid": {"nu": [0]}, "q": [1.5]})
    plan = CampaignPlan.from_dict({"identity": "genfun", "grid": {}})
    with pytest.raises(PlanInvalid):
        plan.expand()
    missing = CampaignPlan.from_dict({"identity": "genfun", "grid": {"nu": [0]}})
    with pytest.raises(PlanInvalid):
        missing.expand()
    # the truncation policy is built, and so checked, with the plan
    plan = CampaignPlan.from_dict({"identity": "genfun", "grid": {"nu": [0]},
                                   "policy": {"tail_tol": 1e-16, "window": [-5, 5]}})
    assert plan.policy == TruncationPolicy(tail_tol=1e-16, bilateral_window=(-5, 5))
    for bad in ({"window": [5, 1]}, {"tail_tol": "small"}, {"window": 3}, [1, 2]):
        with pytest.raises(PlanInvalid):
            CampaignPlan.from_dict({"identity": "genfun", "grid": {"nu": [0]}, "policy": bad})


def test_plan_grid_expansion_order():
    plan = CampaignPlan.from_dict({
        "identity": "qpoch-recurrence",
        "grid": {"n": {"lo": 0, "hi": 1}, "a": [0.25, 0.5]},
    })
    cases = plan.expand()
    assert cases == [{"a": 0.25, "n": 0}, {"a": 0.25, "n": 1},
                     {"a": 0.5, "n": 0}, {"a": 0.5, "n": 1}]


def _small_plan(tolerance=1e-8):
    return CampaignPlan.from_dict({
        "identity": "hankel-orthogonality",
        "grid": {"nu": {"lo": 0, "hi": 1}, "m": [0, 1], "n": [0]},
        "q": [0.5],
        "tolerance": tolerance,
    })


def test_campaign_all_pass_and_summary():
    results, summary = run_campaign([_small_plan()])
    assert summary["total"] == 4 and summary["failed"] == 0
    assert summary["identity_breakdown"]["hankel-orthogonality"]["cases"] == 4


def test_campaign_zero_tolerance_fails():
    results, summary = run_campaign([_small_plan(tolerance=0.0)])
    assert summary["failed"] == summary["total"] > 0


def _strip_timing(lines):
    return [re.sub(r'"wall_time": [0-9.e+-]+', '"wall_time": 0', ln) for ln in lines]


def test_campaign_determinism():
    a, sa = run_campaign([_small_plan()])
    b, sb = run_campaign([_small_plan()])
    assert _strip_timing([r.to_json() for r in a]) == _strip_timing([r.to_json() for r in b])
    assert sa == sb


def _report(results, summary):
    return _strip_timing([r.to_json() for r in results]), summary


def test_campaign_jobs_do_not_change_the_report():
    # bases no other test uses, so the workers fill their tables cold; they
    # fork before this process runs its own block, so they inherit none of it
    mixed = [CampaignPlan.from_dict({"identity": "hankel-orthogonality",
                                     "grid": {"nu": [0], "m": [-1, 0, 1], "n": [0]},
                                     "q": ["0.37", "0.61"]}),
             CampaignPlan.from_dict({"identity": "sixj-orthogonality",
                                     "grid": {"r": [0], "p2": [-1, 0, 1], "p3": [0]},
                                     "q": ["0.37"]})]
    single = [CampaignPlan.from_dict({"identity": "hankel-orthogonality",
                                      "grid": {"nu": [1], "m": [0], "n": [0]}, "q": ["0.61"]})]
    for plans, total in ((mixed, 9), (single, 1)):
        pooled = _report(*run_campaign(plans, jobs=2))
        assert pooled == _report(*run_campaign(plans, jobs=1))
        assert pooled[1]["total"] == total and pooled[1]["failed"] == 0


class _InProcessPool:
    """Stands in for the process pool, mapping in this process; keeps the
    blocks of tasks it is given."""

    def __init__(self):
        self.given = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        self.given.extend(blocks)
        return map(fn, blocks)


def _qpoch_plans():
    """Three cases at one base, and the same three at two bases."""
    grid = {"n": {"lo": 0, "hi": 2}, "a": [0.25]}
    return ([CampaignPlan.from_dict({"identity": "qpoch-recurrence", "grid": grid})],
            [CampaignPlan.from_dict({"identity": "qpoch-recurrence", "grid": grid,
                                     "q": [0.3, 0.5]})])


def test_campaign_starts_no_more_workers_than_blocks(monkeypatch):
    # no real process starts, whatever jobs asks for; this process runs the
    # first block, so the pool gets one worker fewer than there are blocks
    started = []
    monkeypatch.setattr(verifier, "ProcessPoolExecutor",
                        lambda max_workers: started.append(max_workers) or _InProcessPool())
    three, two_bases = _qpoch_plans()
    for plans, jobs, workers in ((three, 64, 2), (three, 2, 1), (two_bases, 64, 5),
                                 (two_bases, 2, 1)):
        assert _report(*run_campaign(plans, jobs=jobs)) == _report(*run_campaign(plans))
        assert started[-1] == workers
    assert run_campaign([], jobs=4) == run_campaign([]) and len(started) == 4


def test_campaign_keeps_the_first_block_out_of_the_pool(monkeypatch):
    pools, dealt, ran = [], [], []
    monkeypatch.setattr(verifier, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(_InProcessPool()) or pools[-1])
    deal, run = verifier._blocks, verifier._run_block
    monkeypatch.setattr(verifier, "_blocks",
                        lambda keys, jobs: dealt.append(deal(keys, jobs)) or dealt[-1])
    monkeypatch.setattr(verifier, "_run_block", lambda block: ran.append(block) or run(block))
    # the one-case plan of test_campaign_jobs_do_not_change_the_report: one
    # block, so no pool starts and this process runs the case
    single = [CampaignPlan.from_dict({"identity": "hankel-orthogonality",
                                      "grid": {"nu": [1], "m": [0], "n": [0]}, "q": ["0.61"]})]
    assert _report(*run_campaign(single, jobs=2)) == _report(*run_campaign(single))
    assert pools == [] and len(dealt) == 1 and len(ran) == 1
    three, two_bases = _qpoch_plans()
    for plans, jobs in ((three, 64), (three, 2), (two_bases, 64), (two_bases, 2)):
        ran.clear()
        assert _report(*run_campaign(plans, jobs=jobs)) == _report(*run_campaign(plans))
        blocks, given = dealt[-1], pools[-1].given
        assert [len(b) for b in given] == [len(b) for b in blocks[1:]]
        mine = [b for b in ran if b not in given]
        assert len(mine) == 1 and len(mine[0]) == len(blocks[0])
        assert not any(task in block for task in mine[0] for block in given)


def test_campaign_blocks_keep_groups_together():
    # a: 3 cases, b: 2, c: 1 at jobs 2, so the share is 3 and no group is cut
    assert verifier._blocks(list("aaabbc"), 2) == [[0, 1, 2], [3, 4, 5]]
    # one group of 5 at jobs 2 is cut into pieces of the share, 3 and 2
    assert verifier._blocks(list("aaaaa"), 2) == [[0, 1, 2], [3, 4]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=40), st.integers(1, 8))
def test_campaign_blocks_partition_the_tasks(keys, jobs):
    blocks = verifier._blocks(keys, jobs)
    assert sorted(i for block in blocks for i in block) == list(range(len(keys)))
    assert len(blocks) <= jobs and all(blocks)
    share = -(-len(keys) // jobs)
    where = {i: b for b, block in enumerate(blocks) for i in block}
    for key in set(keys):
        group = [i for i, k in enumerate(keys) if k == key]
        if len(group) <= share:
            assert len({where[i] for i in group}) == 1


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "hankel-orthogonality" in out and "aw-limit" in out


def test_cli_eval_exit_codes(capsys):
    rc = cli_main(["eval", "hankel-orthogonality", "--param", "nu=0",
                   "--param", "m=0", "--param", "n=0", "--q", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    rc = cli_main(["eval", "hankel-orthogonality", "--param", "nu=0",
                   "--param", "m=0", "--param", "n=0", "--tol", "0"])
    assert rc == 1
    assert cli_main(["eval", "not-an-identity"]) == 2


def test_cli_eval_window_as_separate_argument(capsys):
    # "--window -3:3" is read like "--window=-3:3", not as an unknown option
    base = ["eval", "hankel-orthogonality", "--param", "nu=0", "--param", "m=0",
            "--param", "n=0"]
    reports = []
    for window in (["--window", "-3:3"], ["--window=-3:3"]):
        assert cli_main(base + window) == 1  # the narrow window misses the tails
        reports.append(json.loads(capsys.readouterr().out))
    reports[0].pop("wall_time"), reports[1].pop("wall_time")
    assert reports[0] == reports[1]
    assert reports[0]["residual"] > 0.01


def test_cli_verify_roundtrip(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "identity": "hankel-orthogonality",
        "grid": {"nu": [0, 1], "m": [0], "n": [0]},
        "q": [0.5],
        "tolerance": 1e-8,
    }))
    out_file = tmp_path / "report.jsonl"
    rc = cli_main(["verify", str(plan_file), "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 3  # two cases + summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["passed"] == 2
    # vector-valued params through a plan
    plan_file.write_text(json.dumps({
        "identity": "multi-duality",
        "grid": {"nu": [[0, 1, 0]], "x": [[1]], "lam": [[-1]]},
        "q": [0.5],
        "tolerance": 1e-12,
    }))
    assert cli_main(["verify", str(plan_file)]) == 0
    capsys.readouterr()


def test_cli_verify_invalid_plan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["verify", str(bad)]) == 2
    bad.write_text(json.dumps({"identity": "hankel-orthogonality", "grid": {}}))
    assert cli_main(["verify", str(bad)]) == 2


def test_cli_verify_failing_plan_exit_one(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "identity": "backcoupling",
        "grid": {"x": [1], "n1": [1], "n2": [0], "n3": [-1], "p1": [1], "p2": [-1]},
        "q": [0.5],
        "tolerance": 1e-8,
    }))
    assert cli_main(["verify", str(plan_file)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv_or_plan, expected", [
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "q": ["abc"]}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"window": [5, 1]}}, 2),
    (["eval", "hankel-orthogonality", "--param", "nu=1", "--param", "m=0"], 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": ["x"], "m": [0], "n": [0]}}, 1),
    (["eval", "hankel-orthogonality", "--param", "nu=0", "--param", "m=0", "--param", "n=0",
      "--param", "zz=3"], 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0],
                                                   "nuu": [5]}}, 2),
    (["eval", "threenj-product", "--param", "x=0", "--param", "n=0,1,0,-1,1",
      "--param", "r=0,1,0", "--param", "s=1,0,0", "--param", "k1=5"], 2),
    ({"identity": "threenj-product", "grid": {"x": [0], "n": [[0, 1, 0, -1, 1]],
                                              "r": [[0, 1, 0]], "s": [[1, 0, 0]], "k1": [1, 5]}}, 2),
    ({"identity": "threenj-product", "grid": {"x": [0], "n": [[0, 1, 0, -1, 1]],
                                              "r": [[0, 1, 0]], "s": [[1, 0, 0]], "k1": ["a"]}}, 1),
    # a tail ratio of 2 gave a negative est_error, and 1 a ZeroDivisionError per case
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_ratio": 2}}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_ratio": 1}}, 2),
    # an identity that is not a string raised TypeError (unhashable) out of the CLI
    ({"identity": ["a"], "grid": {"nu": [0], "m": [0], "n": [0]}}, 2),
    # a float window bound failed every case with TypeError; a float max_terms was taken
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"window": [0.5, 3]}}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"max_terms": 2.5}}, 2),
    # "no" is a non-empty string, so it ran adaptive
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"adaptive": "no"}}, 2),
    # a job count below 1 ran the plan serially and exited 0
    (({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]}},
      "--jobs", "0"), 2),
    (({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]}},
      "--jobs", "-3"), 2),
    # a misspelt plan or policy key was dropped, and the run used the default
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "tolerence": 1e-40}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_tool": 1e-40}}, 2),
    ({"plans": [{"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]}}],
      "tolerance": 1e-40}, 2),
    # a NaN or negative tolerance failed every case, and true was read as 1.0
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "tolerance": float("nan")}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "tolerance": True}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "tolerance": -1}, 2),
    # a tail_tol of NaN, infinity (1e400 reads as inf) or true ran, and passed
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_tol": float("nan")}}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_tol": float("inf")}}, 2),
    ('{"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]}, '
     '"policy": {"tail_tol": 1e400}}', 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"tail_tol": True}}, 2),
    # true was read as 1: one term, and a failed case
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"max_terms": True}}, 2),
    ({"identity": "hankel-orthogonality", "grid": {"nu": [0], "m": [0], "n": [0]},
      "policy": {"window": [True, 3]}}, 2),
    (["eval", "hankel-orthogonality", "--param", "nu=0", "--param", "m=0", "--param", "n=0",
      "--tol", "nan"], 2),
    (["eval", "hankel-orthogonality", "--param", "nu=0", "--param", "m=0", "--param", "n=0",
      "--tol", "inf"], 2),
], ids=["q-not-a-number", "policy-window-reversed", "eval-missing-label", "label-not-int",
        "eval-unknown-label", "grid-unknown-label", "eval-split-out-of-range",
        "grid-split-out-of-range", "split-not-int", "policy-tail-ratio-2",
        "policy-tail-ratio-1", "identity-not-a-string", "policy-window-float",
        "policy-max-terms-float", "policy-adaptive-string", "jobs-zero", "jobs-negative",
        "plan-unknown-key", "policy-unknown-key", "document-unknown-key", "tolerance-nan",
        "tolerance-bool", "tolerance-negative", "policy-tail-tol-nan",
        "policy-tail-tol-infinity", "policy-tail-tol-overflow", "policy-tail-tol-bool",
        "policy-max-terms-bool", "policy-window-bool", "eval-tol-nan", "eval-tol-inf"])
def test_cli_malformed_input_exit_codes(argv_or_plan, expected, tmp_path, capsys):
    # malformed plans and labels end in an exit code and a one-line message,
    # never a traceback; a label that fails its cast is a failed case.  A plan
    # (a dict, or the JSON text of one) is verified, with the options that
    # follow it in a tuple
    if isinstance(argv_or_plan, (dict, str)):
        argv_or_plan = (argv_or_plan,)
    if isinstance(argv_or_plan, tuple):
        plan, *options = argv_or_plan
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv_or_plan = ["verify", str(plan_file), *options]
    assert cli_main(argv_or_plan) == expected
    captured = capsys.readouterr()
    if expected == 2:
        assert captured.err.startswith("plan invalid:") and captured.err.count("\n") == 1
        assert captured.out == ""  # no case ran
    else:
        report = [json.loads(line) for line in captured.out.strip().split("\n")]
        assert "ValueError" in report[0]["error"]
        assert report[-1]["summary"]["failed"] == 1


def test_eval_single_rejects_an_identity_that_is_not_a_string():
    with pytest.raises(PlanInvalid):
        eval_single(["a"], {}, 0.5)


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_cli_out_into_a_missing_directory_exits_two(command, tmp_path, capsys):
    # the report's write failed with a FileNotFoundError traceback and exit 1
    out = tmp_path / "missing" / "report.jsonl"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"identity": "hankel-orthogonality",
                                "grid": {"nu": [0], "m": [0], "n": [0]}}))
    argv = {"verify": ["verify", str(plan)],
            "eval": ["eval", "hankel-orthogonality", "--param", "nu=0", "--param", "m=0",
                     "--param", "n=0"]}[command]
    assert cli_main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report:") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_cli_eval_bad_vector_is_failed_case(capsys):
    # a vector that does not parse as integers reaches the label cast as the
    # raw string and fails the case, like a bad scalar
    rc = cli_main(["eval", "s-lemma", "--param", "x=1", "--param", "n=0,1,a",
                   "--param", "s=0", "--param", "s2=0"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and "ValueError" in doc["error"]
    assert doc["params"]["n"] == "0,1,a"


def test_integer_labels_are_not_truncated(capsys):
    # nu = 1.7 used to run as nu = 1 and pass, with 1.7 in the reported params
    rc = cli_main(["eval", "hankel-orthogonality", "--param", "nu=1.7",
                   "--param", "m=0", "--param", "n=0"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and "ValueError" in doc["error"]
    res = eval_single("sixj-oracle", {"x": 0, "p1": 0.9, "r1": 0, "p2": 0, "r2": 0}, 0.5)
    assert not res.passed and "ValueError" in res.error
    res = eval_single("multi-duality", {"nu": [0, 1.5, 0], "x": [1], "lam": [-1]}, 0.5)
    assert not res.passed and "ValueError" in res.error
    # a grid range or a precision that is not an integer makes the plan invalid
    for doc in ({"grid": {"nu": {"lo": 0.5, "hi": 1}, "m": [0], "n": [0]}},
                {"grid": {"nu": [0], "m": [0], "n": [0]}, "precision": 30.5}):
        with pytest.raises(PlanInvalid):
            CampaignPlan.from_dict({"identity": "hankel-orthogonality", **doc}).expand()
    # integral floats and integer strings are still integers
    for nu in (1, 1.0, "1"):
        res = eval_single("hankel-orthogonality", {"nu": nu, "m": 0, "n": 0}, 0.5)
        assert res.passed, res


def test_campaign_orthogonality_levels_match_fresh_memos(monkeypatch):
    # every multi-orthogonality case of a process reads one level table; a d = 2
    # grid at two bases and two policies, interleaved, gives the fresh-memo
    # residual, est_error, terms_used and converged
    monkeypatch.setattr(verifier, "_ORTHOGONALITY_LEVELS", {})
    nu = (0, 1, 0, 1)
    policies = (TruncationPolicy(), TruncationPolicy(bilateral_window=(-4, 4), adaptive=False))
    cases = [(lam, lam2, QContext(q), pol) for lam in ((0, 0), (1, -1)) for lam2 in ((0, 0), (0, 1))
             for q in ("0.3", "0.5") for pol in policies]
    for lam, lam2, ctx, pol in cases:
        got = verifier._eval_multi_orthogonality(nu, lam, lam2, ctx, pol)
        assert got == multi_orthogonality_residual(nu, lam, lam2, ctx, pol)
    assert verifier._ORTHOGONALITY_LEVELS


ROOT = Path(__file__).resolve().parent.parent
# the array modules a fresh interpreter has loaded, as its last line of output
_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('numpy', 'scipy'))))")


def _fresh_interpreter(code: str, cwd) -> list:
    """The array modules loaded after ``code`` runs in a new interpreter
    that imports qcoupling from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{_LOADED}"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import qcoupling",
    "from qcoupling import cli\nassert cli.main(['list']) == 0",
    "from qcoupling import cli\n"
    f"assert cli.main(['verify', {str(ROOT / 'demos' / 'plan_example.json')!r}, "
    "'--out', 'report.jsonl']) == 0",
], ids=["import", "list", "verify-demo-plan"])
def test_fresh_interpreter_loads_no_array_stack(code, tmp_path):
    # only the truncated matrix model runs on numpy and scipy; the package,
    # the listing and a campaign without yang-baxter cases never import them
    assert _fresh_interpreter(code, tmp_path) == []


# the clock of eval_single records, at each reading, whether scipy.sparse is loaded
_CLOCK = """import time, types
from qcoupling import verifier
loaded_at_clock = []
def clock():
    loaded_at_clock.append('scipy.sparse' in sys.modules)
    return time.perf_counter()
verifier.time = types.SimpleNamespace(perf_counter=clock)
"""
_YB = {"u": 0, "v": 0, "w": 0, "lo": -4, "hi": 4}


@pytest.mark.parametrize("code", [
    "plan = verifier.CampaignPlan.from_dict("
    f"{{'identity': 'yang-baxter', 'grid': {_YB!r}, 'q': [0.5]}})\n"
    "assert 'scipy.sparse' in sys.modules\n"
    "results, _ = verifier.run_campaign([plan])\n"
    "assert results[0].residual > 0.1 and loaded_at_clock == [True, True]",
    f"res = verifier.eval_single('yang-baxter', {_YB!r}, 0.5)\n"
    "assert res.residual > 0.1 and loaded_at_clock == [True, True]",
], ids=["validated-plan", "eval-single"])
def test_yang_baxter_loads_the_array_stack_before_its_clock(code, tmp_path):
    # a yang-baxter campaign or eval pays for the numpy and scipy import
    # before any case's wall_time starts, never inside its first case
    loaded = _fresh_interpreter(_CLOCK + code, tmp_path)
    assert "scipy.sparse" in loaded and "numpy" in loaded
