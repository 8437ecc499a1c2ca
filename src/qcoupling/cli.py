"""Command-line front end for the verification campaigns."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PlanInvalid
from .qcore import TruncationPolicy
from .verifier import CampaignPlan, _policy_from, eval_single, identity_descriptions, run_campaign


def _parse_param(text: str):
    """k=v with v an int, float, or comma-separated int vector, else the raw string."""
    key, _, raw = text.partition("=")
    if not _:
        raise PlanInvalid(f"--param needs key=value, got {text!r}")
    if "," in raw:
        try:
            return key, [int(v) for v in raw.split(",")]
        except ValueError:
            return key, raw
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _policy_from_args(args) -> TruncationPolicy:
    doc = {}
    if args.max_terms is not None:
        doc["max_terms"] = args.max_terms
    if args.window is not None:
        lo, _, hi = args.window.partition(":")
        try:
            doc["window"] = (int(lo), int(hi))
        except ValueError:
            raise PlanInvalid(f"--window needs lo:hi integers, got {args.window!r}")
        doc["adaptive"] = False
    return _policy_from(doc)


def _attach_window(argv: list) -> list:
    """Rewrite ``--window lo:hi`` as ``--window=lo:hi``.

    argparse takes a separate value starting with '-', such as -3:3, for an
    option and rejects it; attached with '=' it is read as the value.
    """
    out = []
    args = iter(argv)
    for arg in args:
        if arg == "--window":
            value = next(args, None)
            if value is not None:
                arg = f"--window={value}"
        out.append(arg)
    return out


def _plan_entries(doc) -> list:
    """Plan objects of a document: one object, a list, or {"plans": [...]}."""
    if isinstance(doc, dict) and "plans" in doc and len(doc) > 1:
        raise PlanInvalid(f"unknown document keys {sorted(set(doc) - {'plans'}, key=str)}")
    entries = doc.get("plans", [doc]) if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise PlanInvalid("a plan document is an object, a list, or {\"plans\": [...]}")
    return entries


def _emit(lines: list, out_path) -> int:
    """Write the report lines to ``out_path``, or to stdout without one; 2,
    after a one-line message, when they cannot be written, else 0."""
    text = "\n".join(lines) + "\n"
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcoupling",
                                     description="q-special-function identity verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a JSON campaign plan")
    p_verify.add_argument("plan", help="path to the plan file")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate one identity instance")
    p_eval.add_argument("identity")
    p_eval.add_argument("--param", action="append", default=[],
                        help="k=v, repeatable; vectors as comma-separated ints")
    p_eval.add_argument("--q", type=float, default=0.5)
    p_eval.add_argument("--tol", type=float, default=1e-8)
    p_eval.add_argument("--precision", type=int, default=30)
    p_eval.add_argument("--max-terms", type=int, default=None)
    p_eval.add_argument("--window", default=None, help="lo:hi fixed bilateral window")
    p_eval.add_argument("--out", default=None)

    p_list = sub.add_parser("list", help="enumerate identity ids")

    args = parser.parse_args(_attach_window(sys.argv[1:] if argv is None else list(argv)))

    if args.command == "list":
        for name, desc in identity_descriptions():
            print(f"{name:24s} {desc}")
        return 0

    if args.command == "eval":
        try:
            params = dict(_parse_param(t) for t in args.param)
            result = eval_single(args.identity, params, args.q, args.tol,
                                 args.precision, _policy_from_args(args))
        except PlanInvalid as exc:
            print(f"plan invalid: {exc}", file=sys.stderr)
            return 2
        return _emit([result.to_json()], args.out) or (0 if result.passed else 1)

    # verify
    try:
        with open(args.plan, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"plan invalid: {exc}", file=sys.stderr)
        return 2
    try:
        plans = [CampaignPlan.from_dict(e) for e in _plan_entries(doc)]
        for plan in plans:
            plan.expand()  # validate grids up front
        results, summary = run_campaign(plans, jobs=args.jobs)
    except PlanInvalid as exc:
        print(f"plan invalid: {exc}", file=sys.stderr)
        return 2
    lines = [r.to_json() for r in results] + [json.dumps({"summary": summary}, sort_keys=True)]
    return _emit(lines, args.out) or (0 if summary["failed"] == 0 else 1)


if __name__ == "__main__":
    sys.exit(main())
