"""The bundled solver's lazy hierarchy well-formedness.

`analyze_equivalence` first hands the bundled solver (not phi) alone, and
adds only the wf instances a model violates when that model does not
re-verify.  These tests check the verdicts against brute force, the
instances the loop adds against `wf_from_footprint`, the round bound, the
shared time budget, and that emitted scripts and other solvers still get
the full grounding.
"""

import os
import random
import time

import pytest

from cedar_engine import smt_backend, symcc
from cedar_engine.ast import (
    ANY,
    CondKind,
    EAnd,
    EBinop,
    ELit,
    ENot,
    EOr,
    Effect,
    Policy,
    ScopeEq,
    ScopeIn,
    VEntity,
)
from cedar_engine.authorizer import PolicySet, authorize
from cedar_engine.entities import HierarchyCycle, merge_action_hierarchy
from cedar_engine.parser import parse_policies, parse_schema
from cedar_engine.smt_backend import SolverConfig, SolverOutcome, print_script
from cedar_engine.symcc import (
    AnalysisError,
    allowed_term,
    analyze_equivalence,
    encode_types,
    wf_from_footprint,
)
from cedar_engine.terms import mk_eq, mk_not
from cedar_engine.testkit import enumerate_conforming
from cedar_engine.validator import environments, validate

from conftest import FIXTURES
from test_acceptance import _A0, _A1, _ANALYSIS_SCHEMA, _ATOMS, _EDIT, _G0, _G1, _U0, _VIEW, _atom_values


class Solves:
    """Wraps `smt_backend.run_solver`: records the assertions of each solve
    the bundled path makes, and can slow each one down."""

    def __init__(self, monkeypatch, delay: float = 0.0):
        self.calls: list = []  # the assertion terms of each solve, in order
        self.delay = delay
        self._run = smt_backend.run_solver
        monkeypatch.setattr(smt_backend, "run_solver", self)

    def __call__(self, config, script):
        if not isinstance(script, str):
            self.calls.append([cmd[1] for cmd in script if cmd[0] == "assert"])
        if self.delay:
            budget = config.timeout_ms / 1000.0
            # A solver that honours its deadline: one that needs longer
            # than its budget stops at the budget.
            time.sleep(min(self.delay, budget))
            if budget < self.delay:
                return SolverOutcome("timeout", detail=f"exceeded {config.timeout_ms} ms")
        return self._run(config, script)

    def per_environment(self, set_a, set_b, schema) -> list:
        """For each environment that reached the solver: (environment,
        assertions of each of its solves, the full wf grounding).  A solve
        belongs to the environment whose (not phi) it ends with."""
        out = []
        for env in environments(schema):
            senv = encode_types(schema, env)
            footprint: dict = {}
            goal = mk_not(mk_eq(allowed_term(set_a, senv, footprint), allowed_term(set_b, senv, footprint)))
            solves = [c for c in self.calls if c[-1] is goal]
            if solves:
                out.append((env, solves, wf_from_footprint(footprint, senv)))
        return out


def _reverifies(verdict, set_a, set_b, schema) -> bool:
    cex = verdict.counterexample
    store = merge_action_hierarchy(cex.store, schema)
    a = authorize(set_a, store, cex.request, use_slicing=False).verdict
    b = authorize(set_b, store, cex.request, use_slicing=False).verdict
    return a != b and (a, b) == (cex.decision_a.verdict, cex.decision_b.verdict)


# -- the property: criterion 6c's generator, with more hierarchy atoms --------

_EXTRA_ATOMS = (
    EBinop("in", ELit(VEntity(_U0)), ELit(VEntity(_G0))),
    EBinop("in", ELit(VEntity(_U0)), ELit(VEntity(_G1))),
    EBinop("in", ELit(VEntity(_G1)), ELit(VEntity(_G0))),
)
_LAZY_ATOMS = _ATOMS + _EXTRA_ATOMS


def _lazy_atom_values(store, request):
    def member(ref, target):
        return target == ref or target in store.ancestors_of(ref)

    return _atom_values(store, request) + (member(_U0, _G0), member(_U0, _G1), member(_G1, _G0))


def _gen_condition(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _LAZY_ATOMS[rng.randrange(len(_LAZY_ATOMS))]
    k = rng.randrange(3)
    if k == 0:
        return ENot(_gen_condition(rng, depth - 1))
    ctor = EAnd if k == 1 else EOr
    return ctor(_gen_condition(rng, depth - 1), _gen_condition(rng, depth - 1))


def _gen_set(rng, tag):
    """Criterion 6c's policy sets, drawing conditions from the wider atom table."""
    policies = []
    for i in range(rng.randint(1, 3)):
        conditions = tuple(
            (rng.choice((CondKind.WHEN, CondKind.UNLESS)), _gen_condition(rng, 2))
            for _ in range(rng.randint(0, 2))
        )
        policies.append(
            Policy(
                id=f"{tag}{i}",
                effect=rng.choice((Effect.PERMIT, Effect.FORBID)),
                principal=rng.choice((ANY, ScopeIn(_G0), ScopeIn(_G1), ScopeEq(_U0))),
                action=rng.choice((ANY, ScopeEq(_VIEW), ScopeEq(_EDIT))),
                resource=rng.choice((ANY, ScopeEq(_A0), ScopeEq(_A1))),
                conditions=conditions,
            )
        )
    return PolicySet.from_policies(policies)


def test_lazy_grounding_matches_brute_force(gen_seed, monkeypatch):
    schema = parse_schema(_ANALYSIS_SCHEMA)
    ids = {"App": ["0", "1", "2"], "Group": ["0", "1"], "User": ["0", "1"]}
    universe = {}
    for store, request in enumerate_conforming(schema, 2, ids=ids):
        key = (request.action.entity_id, _lazy_atom_values(store, request))
        universe.setdefault(key, (store, request))
    solves = Solves(monkeypatch)
    config = SolverConfig.bundled()
    rng = random.Random(0x1A27 + gen_seed)
    pairs = 200
    non_verdicts = refinements = 0
    mismatches, unverified, strays = [], [], []
    for pair in range(pairs):
        set_a, set_b = _gen_set(rng, "a"), _gen_set(rng, "b")
        assert validate(set_a.closed_policies, schema).valid and validate(set_b.closed_policies, schema).valid
        brute = {"view": False, "edit": False}
        for (action_id, _), (store, request) in universe.items():
            da = authorize(set_a, store, request, use_slicing=False)
            db = authorize(set_b, store, request, use_slicing=False)
            brute[action_id] |= da.verdict != db.verdict
        solves.calls.clear()
        for v in analyze_equivalence(set_a, set_b, schema, config=config):
            if v.status in ("unknown", "timeout"):
                non_verdicts += 1
                continue
            want = "differs" if brute[v.env.action.entity_id] else "equivalent"
            if v.status != want:
                mismatches.append((pair, v.env.describe(), v.status, want))
            elif v.status == "differs" and not _reverifies(v, set_a, set_b, schema):
                unverified.append((pair, v.env.describe()))
        for env, calls, full in solves.per_environment(set_a, set_b, schema):
            grounding = set(full)
            refinements += sum(1 for c in calls if len(c) > 1)
            strays.extend((pair, env.describe()) for c in calls for t in c[:-1] if t not in grounding)
    assert not mismatches, f"verdict mismatches: {mismatches[:5]}"
    assert not unverified, f"counterexamples that do not re-verify: {unverified[:5]}"
    assert not strays, f"added instances outside wf_from_footprint: {strays[:5]}"
    assert refinements >= 1, "no pair needed a refinement round"
    assert non_verdicts <= 0.05 * pairs * 2, f"{non_verdicts} unknown/timeout results"


# -- pinned cases -----------------------------------------------------------

# Criterion 6c's 30th pair: in <User, Action::"view", App>, the relaxed
# models put the principal in Group 0 and Group 0 in Group 1 without the
# principal in Group 1, which the closed store then decides alike.
_REFINING_OLD = """
permit(principal in Group::"0", action, resource == App::"0");
forbid(principal in Group::"1", action, resource)
unless { !!(principal == User::"0") }
when { Group::"0" in Group::"1" };
"""
_REFINING_NEW = """
permit(principal, action == Action::"view", resource)
unless { principal in Group::"0" && (Group::"0" in Group::"1" && (if context has opt then context.opt else false)) };
permit(principal in Group::"1", action == Action::"edit", resource == App::"1")
unless { !(if context has opt then context.opt else false) || principal == User::"0" && resource == App::"0" };
permit(principal, action == Action::"edit", resource == App::"0")
unless { !(if context has opt then context.opt else false) }
unless { !(Group::"0" in Group::"1") && action == Action::"view" };
"""

# `principal in resource && resource in principal` means `principal ==
# resource` only in an acyclic hierarchy; without wf, the solver's only
# models are cycles.
_CYCLE_SCHEMA = "entity G in [G]; action a appliesTo { principal: [G], resource: [G] };"
_CYCLE_OLD = "permit(principal, action, resource) when { principal in resource && resource in principal };"
_CYCLE_NEW = "permit(principal, action, resource) when { principal == resource };"


def _sets(old, new):
    return PolicySet.from_policies(parse_policies(old)), PolicySet.from_policies(parse_policies(new))


def test_a_model_that_fails_reverification_is_refined_then_decided(monkeypatch):
    schema = parse_schema(_ANALYSIS_SCHEMA)
    set_a, set_b = _sets(_REFINING_OLD, _REFINING_NEW)
    solves = Solves(monkeypatch)
    verdicts = analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled())
    assert [v.status for v in verdicts] == ["differs", "differs"]
    assert all(_reverifies(v, set_a, set_b, schema) for v in verdicts)
    (view, view_calls, full), (_, edit_calls, _) = solves.per_environment(set_a, set_b, schema)
    assert view.action == _VIEW and len(edit_calls) == 1
    assert len(view_calls) >= 2 and len(view_calls[0]) == 1, "the first solve is (not phi) alone"
    learnt = view_calls[-1][:-1]
    assert learnt and set(learnt) <= set(full) and len(learnt) < len(full)


def test_a_cyclic_model_is_refined_instead_of_raising(monkeypatch):
    schema = parse_schema(_CYCLE_SCHEMA)
    set_a, set_b = _sets(_CYCLE_OLD, _CYCLE_NEW)
    cycles = []
    reconstruct = symcc.reconstruct_counterexample

    def recording(*args):
        try:
            return reconstruct(*args)
        except HierarchyCycle as err:
            cycles.append(err)
            raise

    monkeypatch.setattr(symcc, "reconstruct_counterexample", recording)
    solves = Solves(monkeypatch)
    (verdict,) = analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled())
    assert verdict.status == "equivalent"
    assert cycles, "the relaxed model was expected to be cyclic"
    assert len(solves.calls) == len(cycles) + 1


def test_a_model_without_violations_is_still_a_fault(monkeypatch):
    monkeypatch.setattr(symcc, "_violated_wf", lambda model, senv, footprint: [])
    set_a, set_b = _sets(_REFINING_OLD, _REFINING_NEW)
    with pytest.raises(AnalysisError, match="failed concrete re-verification"):
        analyze_equivalence(set_a, set_b, parse_schema(_ANALYSIS_SCHEMA), config=SolverConfig.bundled())
    set_a, set_b = _sets(_CYCLE_OLD, _CYCLE_NEW)
    with pytest.raises(HierarchyCycle):
        analyze_equivalence(set_a, set_b, parse_schema(_CYCLE_SCHEMA), config=SolverConfig.bundled())


def test_past_the_round_bound_the_full_grounding_is_asserted(monkeypatch):
    # The cycle case needs two refinement rounds; with one allowed, the
    # third solve asserts every instance.
    monkeypatch.setattr(symcc, "_REFINEMENT_ROUNDS", 1)
    schema = parse_schema(_CYCLE_SCHEMA)
    set_a, set_b = _sets(_CYCLE_OLD, _CYCLE_NEW)
    solves = Solves(monkeypatch)
    (verdict,) = analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled())
    assert verdict.status == "equivalent"
    ((_, (first, refined, fallback), full),) = solves.per_environment(set_a, set_b, schema)
    assert len(first) == 1 and 0 < len(refined[:-1]) < len(full)
    assert set(refined[:-1]) <= set(full) and fallback[:-1] == full


def test_refinement_rounds_share_one_timeout(monkeypatch):
    # Each solve takes 0.2 s of a 0.3 s budget: the first leaves too little
    # for the second.  With a fresh budget per round, all three solves this
    # case needs would finish and decide it.
    schema = parse_schema(_CYCLE_SCHEMA)
    set_a, set_b = _sets(_CYCLE_OLD, _CYCLE_NEW)
    solves = Solves(monkeypatch, delay=0.2)
    start = time.monotonic()
    (verdict,) = analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled(timeout_ms=300))
    elapsed = time.monotonic() - start
    assert (verdict.status, verdict.detail) == ("timeout", "exceeded 300 ms")
    assert len(solves.calls) == 2
    assert elapsed < 0.3 + 0.25, f"{elapsed:.2f} s for a 0.3 s budget"


def test_emitted_scripts_and_other_solvers_get_the_full_grounding(monkeypatch, tmp_path):
    schema = parse_schema(_CYCLE_SCHEMA)
    set_a, set_b = _sets(_CYCLE_OLD, _CYCLE_NEW)
    senv = encode_types(schema, environments(schema)[0])
    footprint: dict = {}
    phi = mk_eq(allowed_term(set_a, senv, footprint), allowed_term(set_b, senv, footprint))
    full_script = print_script(senv, wf_from_footprint(footprint, senv) + [mk_not(phi)])
    texts = []
    monkeypatch.setattr(smt_backend, "run_solver", lambda config, script: texts.append(script) or SolverOutcome("unsat"))
    (verdict,) = analyze_equivalence(set_a, set_b, schema, config=SolverConfig(("some-smt-solver",)))
    assert verdict.status == "equivalent" and texts == [full_script]
    monkeypatch.undo()
    analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled(), emit_dir=str(tmp_path))
    (emitted,) = os.listdir(tmp_path)
    assert (tmp_path / emitted).read_text(encoding="utf-8") == full_script


# -- scaling: the tinytodo set plus N GetList permits, against the same set
# plus one forbid ---------------------------------------------------------


def _scaling_pair(total: int):
    with open(os.path.join(FIXTURES, "tinytodo", "policies.cedar"), encoding="utf-8") as fh:
        base = fh.read()
    old = base + "".join(
        f'permit(principal in Team::"t{k}", action == Action::"GetList", resource) '
        f'when {{ principal in resource.readers || resource.owner in Team::"o{k}" }};\n'
        for k in range(total - 5)
    )
    new = old + 'forbid(principal, action == Action::"GetList", resource) when { resource.owner in Team::"o0" };\n'
    return _sets(old, new)


@pytest.mark.parametrize("total", [25, 45])
def test_the_scaling_pair_is_decided(total):
    with open(os.path.join(FIXTURES, "tinytodo", "tinytodo.cedarschema"), encoding="utf-8") as fh:
        schema = parse_schema(fh.read())
    set_a, set_b = _scaling_pair(total)
    assert len(set_a.closed_policies) == total
    verdicts = analyze_equivalence(set_a, set_b, schema, config=SolverConfig.bundled())
    statuses = {v.env.action.entity_id: v.status for v in verdicts}
    assert statuses.pop("GetList") == "differs"
    assert set(statuses.values()) <= {"equivalent"}
    (get_list,) = [v for v in verdicts if v.status == "differs"]
    assert _reverifies(get_list, set_a, set_b, schema)
