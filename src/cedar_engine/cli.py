"""Command-line surface.

Exit codes are a scriptability contract:
  0  success / ALLOW / valid / equivalent
  1  DENY / invalid / differs
  2  usage or input error
  3  internal or solver error
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .ast import CedarError
from .authorizer import PolicySet, Verdict, authorize, pof, rof, slice_policies
from .entities import EMPTY_STORE, EntityStore, load_entities, load_request, merge_action_hierarchy, store_to_json, value_to_json
from .evaluator import EvalError, evaluate
from .parser import ParseError, parse_expr, parse_policies, parse_schema
from .smt_backend import SolverConfig, SolverFailure, SolverUnavailable
from .symcc import AnalysisError, analyze_equivalence
from .validator import Schema, validate
from .ast import render_value

EXIT_OK = 0
EXIT_DENY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from None


def _load_policies(path: str) -> PolicySet:
    return PolicySet.from_policies(parse_policies(_read(path), path))


def _load_schema(path: str) -> Schema:
    return parse_schema(_read(path), path)


def _load_store(path: Optional[str]) -> EntityStore:
    if path is None:
        return EMPTY_STORE
    return load_entities(_read(path))


# ---------------------------------------------------------------------------
# authorize
# ---------------------------------------------------------------------------


def cmd_authorize(args) -> int:
    policies = _load_policies(args.policies)
    store = _load_store(args.entities)
    request = load_request(_read(args.request))
    if args.schema:
        store = merge_action_hierarchy(store, _load_schema(args.schema))
    decision = authorize(policies, store, request, use_slicing=not args.no_slicing)
    errors = [
        {"policy": pid, "kind": err.kind.value, "detail": err.detail}
        for pid, err in decision.errors
    ]
    if args.json:
        doc = {
            "decision": decision.verdict.value,
            "determining": sorted(decision.determining),
            "errors": errors,
        }
        print(json.dumps(doc))
    else:
        print(decision.verdict.value)
        print("determining:", ", ".join(sorted(decision.determining)) or "(none)")
        for item in errors:
            print(f"error: {item['policy']}: {item['kind']}: {item['detail']}")
    return EXIT_OK if decision.verdict is Verdict.ALLOW else EXIT_DENY


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    policies = _load_policies(args.policies)
    schema = _load_schema(args.schema)
    report = validate(policies.all_policies(), schema)
    errors = [
        {
            "policy": r.policy_id,
            "action": str(r.env.action),
            "principal_type": r.env.principal_type,
            "resource_type": r.env.resource_type,
            "kind": r.error_kind.value,
            "detail": r.error_detail,
        }
        for r in report.errors()
    ]
    warnings = [{"policy": pid, "kind": kind} for pid, kind in report.warnings]
    if args.json:
        print(json.dumps({"valid": report.valid, "errors": errors, "warnings": warnings}))
    else:
        print("valid" if report.valid else "invalid")
        for e in errors:
            print(
                f"error: {e['policy']}: in environment <{e['principal_type']}, "
                f"{e['action']}, {e['resource_type']}>: {e['kind']}: {e['detail']}"
            )
        for w in warnings:
            print(f"warning: {w['policy']}: {w['kind']}")
    return EXIT_OK if report.valid else EXIT_DENY


# ---------------------------------------------------------------------------
# analyze equivalence
# ---------------------------------------------------------------------------


def _counterexample_doc(cex) -> dict:
    return {
        "request": {
            "principal": {"type": cex.request.principal.entity_type, "id": cex.request.principal.entity_id},
            "action": {"type": cex.request.action.entity_type, "id": cex.request.action.entity_id},
            "resource": {"type": cex.request.resource.entity_type, "id": cex.request.resource.entity_id},
            "context": value_to_json(cex.request.context),
        },
        "entities": store_to_json(cex.store),
        "decisions": {
            "old": cex.decision_a.verdict.value,
            "new": cex.decision_b.verdict.value,
        },
    }


def cmd_analyze(args) -> int:
    old = _load_policies(args.old)
    new = _load_policies(args.new)
    schema = _load_schema(args.schema)
    for name, pset in (("old", old), ("new", new)):
        report = validate(pset.all_policies(), schema)
        if not report.valid:
            bad = report.errors()[0]
            print(
                f"{name} policy set does not validate: {bad.policy_id}: "
                f"{bad.error_kind.value}: {bad.error_detail}",
                file=sys.stderr,
            )
            return EXIT_INPUT
    if args.solver:
        config = SolverConfig.for_executable(args.solver, args.timeout_ms)
    else:
        config = SolverConfig.default(args.timeout_ms)
    verdicts = analyze_equivalence(old, new, schema, config=config, emit_dir=args.emit_smt)
    verdicts.sort(key=lambda v: (str(v.env.action), v.env.principal_type, v.env.resource_type))
    rows = []
    for v in verdicts:
        row = {
            "action": str(v.env.action),
            "principal_type": v.env.principal_type,
            "resource_type": v.env.resource_type,
            "verdict": v.status,
        }
        if v.detail:
            row["detail"] = v.detail
        if v.counterexample is not None:
            row["counterexample"] = _counterexample_doc(v.counterexample)
        rows.append(row)
    any_differs = any(v.status == "differs" for v in verdicts)
    solver_trouble = any(v.status in ("unknown", "timeout") for v in verdicts)
    overall = "differs" if any_differs else ("unknown" if solver_trouble else "equivalent")
    if args.json:
        print(json.dumps({"verdict": overall, "environments": rows}))
    else:
        for row in rows:
            line = f"{row['action']} <{row['principal_type']}, {row['resource_type']}>: {row['verdict']}"
            if "detail" in row:
                line += f" ({row['detail']})"
            print(line)
            if "counterexample" in row:
                cex = row["counterexample"]
                req = cex["request"]
                print(
                    f"  counterexample request: principal={req['principal']['type']}::\"{req['principal']['id']}\""
                    f" action={req['action']['type']}::\"{req['action']['id']}\""
                    f" resource={req['resource']['type']}::\"{req['resource']['id']}\""
                    f" context={json.dumps(req['context'])}"
                )
                for ent in cex["entities"]:
                    uid = ent["uid"]
                    parents = ", ".join(f"{p['type']}::\"{p['id']}\"" for p in ent["parents"])
                    print(
                        f"  entity {uid['type']}::\"{uid['id']}\" attrs={json.dumps(ent['attrs'])}"
                        f" ancestors=[{parents}]"
                    )
                print(
                    f"  concrete decisions: old={cex['decisions']['old']} new={cex['decisions']['new']}"
                )
        print(f"overall: {overall}")
    if solver_trouble:
        return EXIT_INTERNAL
    return EXIT_DENY if any_differs else EXIT_OK


# ---------------------------------------------------------------------------
# evaluate / slice
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    expr = parse_expr(args.expr)
    store = _load_store(args.entities)
    if args.request:
        request = load_request(_read(args.request))
    else:
        from .ast import EVar, subexpressions

        used = {s.name for s in subexpressions(expr) if isinstance(s, EVar)}
        if used:
            raise _InputError(
                f"expression references {sorted(used)} but no --request was given"
            )
        from .ast import EntityRef, vrecord
        from .entities import Request

        request = Request(
            EntityRef("Unspecified", ""), EntityRef("Action", ""), EntityRef("Unspecified", ""), vrecord({})
        )
    try:
        value = evaluate(expr, store, request)
    except EvalError as err:
        print(f"error: {err.kind.value}: {err.detail} (in {err.trace})")
        return EXIT_OK
    print(render_value(value))
    return EXIT_OK


def cmd_slice(args) -> int:
    policies = _load_policies(args.policies)
    store = _load_store(args.entities)
    request = load_request(_read(args.request))
    selected = slice_policies(policies.index, store, request)

    def key_text(k) -> str:
        return str(k) if not isinstance(k, str) else k

    for pid in sorted(selected):
        p = policies.by_id(pid)
        print(f"{pid}: key=<{key_text(pof(p))}, {key_text(rof(p))}>")
    print(f"selected {len(selected)} of {len(policies.closed_policies)} policies")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedar-engine",
        description="Authorization policy engine: evaluate, authorize, validate, and analyze policy sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("authorize", help="decide one request against a policy set")
    p.add_argument("--policies", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--request", required=True)
    p.add_argument("--schema", help="schema supplying action-group ancestry")
    p.add_argument("--no-slicing", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_authorize)

    p = sub.add_parser("validate", help="typecheck policies against a schema")
    p.add_argument("--policies", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="SMT-backed policy-set analyses")
    analyses = p.add_subparsers(dest="analysis", required=True)
    eq = analyses.add_parser("equivalence", help="per-environment policy-set equivalence")
    eq.add_argument("--old", required=True)
    eq.add_argument("--new", required=True)
    eq.add_argument("--schema", required=True)
    eq.add_argument("--solver", help="solver executable (overrides SOLVER_BIN)")
    eq.add_argument("--timeout-ms", type=int, default=60000)
    eq.add_argument("--emit-smt", metavar="DIR", help="dump each environment's script")
    eq.add_argument("--json", action="store_true")
    eq.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("evaluate", help="evaluate one expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--entities")
    p.add_argument("--request")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("slice", help="show the policy slice for a request")
    p.add_argument("--policies", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--request", required=True)
    p.set_defaults(fn=cmd_slice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print(err.render(), file=sys.stderr)
        return EXIT_INPUT
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverUnavailable, SolverFailure, AnalysisError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except CedarError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        # Anything else is a bug; report it on one line rather than let Python
        # exit with status 1, which a script would read as DENY.
        detail = " ".join(str(err).split())
        print(f"error: internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
