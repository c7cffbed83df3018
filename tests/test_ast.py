"""Desugaring, linking, and the core value/expression invariants."""

import pytest

from cedar_engine.ast import (
    EBinop,
    ESlot,
    EVar,
    EntityRef,
    LikePattern,
    Policy,
    ScopeEq,
    ScopeIn,
    UnboundSlot,
    UnknownSlot,
    link,
    toexp,
    vrecord,
    vset,
    VBool,
    VLong,
)
from cedar_engine.authorizer import pof, rof
from cedar_engine.entities import Request, build_store
from cedar_engine.evaluator import EvalError, evaluate
from cedar_engine.parser import parse_policies, render_expr
from cedar_engine.testkit import GenConfig, gen_policies


def desugar(src: str) -> str:
    (policy,) = parse_policies(src)
    return render_expr(toexp(policy))


def test_desugar_reader_editor_policy():
    src = """
    permit(principal, action == Action::"GetList", resource)
    when { principal in resource.readers || principal in resource.editors };
    """
    assert desugar(src) == (
        'true && (action == Action::"GetList" && '
        "(true && (principal in resource.readers || principal in resource.editors)))"
    )


def test_desugar_unconstrained_policy():
    assert desugar("permit(principal, action, resource);") == "true && (true && true)"


def test_desugar_negates_unless():
    src = """
    permit(
        principal,
        action in [Action::"CreateList", Action::"GetOwnedLists"],
        resource == Application::"TinyTodo")
    unless { principal in Team::"interns" };
    """
    # Derived by hand: scope conjuncts first, the unless condition negated and
    # trailing, everything right-nested.
    assert desugar(src) == (
        'true && (action in [Action::"CreateList", Action::"GetOwnedLists"] && '
        '(resource == Application::"TinyTodo" && !(principal in Team::"interns")))'
    )


def test_desugared_slots_are_refused_where_evaluated():
    (template,) = parse_policies('permit(principal in ?principal, action, resource);')
    expr = toexp(template)
    # The slot survives desugaring; only evaluating it fails.
    assert expr.left == EBinop("in", EVar("principal"), ESlot("?principal"))
    user = EntityRef("User", "alice")
    request = Request(user, EntityRef("Action", "view"), EntityRef("Doc", "d"))
    with pytest.raises(EvalError, match=r"unfilled template slot \?principal"):
        evaluate(expr, build_store([(user, vrecord({}), set())]), request)


def test_desugar_is_pure():
    for seed in range(50):
        for p in gen_policies(GenConfig(seed)):
            assert toexp(p) == toexp(p)


def test_desugared_corpus_policies_contain_no_slots(tinytodo_policies):
    from cedar_engine.ast import ESlot, subexpressions

    for p in tinytodo_policies:
        e = toexp(p)
        assert not any(isinstance(s, ESlot) for s in subexpressions(e))


def test_link_gdrive_read_template():
    (template,) = parse_policies(
        'permit(principal in ?principal, action == Action::"readDocument", resource in ?resource);'
    )
    linked = link(
        template,
        {"?principal": EntityRef("User", "u"), "?resource": EntityRef("Document", "d")},
        link_id="grant0",
    )
    assert linked.principal == ScopeIn(EntityRef("User", "u"))
    assert linked.resource == ScopeIn(EntityRef("Document", "d"))
    assert linked.id == "grant0"
    assert not linked.slots()


def test_link_identity_on_slotless_template():
    (policy,) = parse_policies("permit(principal, action, resource);")
    assert link(policy, {}) == policy


def test_link_write_template_slice_keys():
    (template,) = parse_policies(
        'permit(principal in ?principal, action in Action::"writeRepository", resource == ?resource);'
    )
    linked = link(
        template,
        {"?principal": EntityRef("Team", "t"), "?resource": EntityRef("Repository", "r")},
        link_id="l",
    )
    # Index key derived from the scope constraints of the linked policy.
    assert pof(linked) == EntityRef("Team", "t")
    assert rof(linked) == EntityRef("Repository", "r")


def test_link_errors():
    (template,) = parse_policies('permit(principal in ?principal, action, resource);')
    with pytest.raises(UnboundSlot):
        link(template, {})
    with pytest.raises(UnknownSlot):
        link(
            template,
            {"?principal": EntityRef("User", "u"), "?resource": EntityRef("User", "u")},
        )


def test_link_commutes_with_desugaring():
    (template,) = parse_policies(
        'permit(principal in ?principal, action, resource == ?resource) when { 1 < 2 };'
    )
    bindings = {"?principal": EntityRef("Team", "a"), "?resource": EntityRef("Doc", "b")}
    linked = link(template, bindings, link_id="x")
    manual = Policy(
        id="x",
        effect=template.effect,
        principal=ScopeIn(EntityRef("Team", "a")),
        action=template.action,
        resource=ScopeEq(EntityRef("Doc", "b")),
        conditions=template.conditions,
        annotations=(("id", "x"),),
    )
    assert toexp(linked) == toexp(manual)


def test_set_values_are_extensional():
    a = vset([VLong(1), VLong(2), VLong(1)])
    b = vset([VLong(2), VLong(1)])
    assert a == b
    assert VBool(True) != VLong(1)  # bools never collapse into longs
    assert vset([VBool(True)]) != vset([VLong(1)])


def test_record_values_sorted_and_unique():
    r = vrecord({"b": VLong(1), "a": VLong(2)})
    assert r.keys() == ("a", "b")
    assert r.get("b") == VLong(1)


def test_like_pattern_escape_round_trip():
    pat = LikePattern.from_source("a\\*b*c")
    assert pat.parts == ("a*b", None, "c")
    assert pat.to_source() == "a\\*b*c"
    assert pat.matches("a*bXXc")
    assert not pat.matches("aXb_c")
    assert LikePattern.from_source("*").matches("")
    assert LikePattern.from_source("").matches("")
    assert not LikePattern.from_source("").matches("x")


def test_entity_ref_caches_the_tuple_hash():
    refs = [EntityRef("User", "alice"), EntityRef("A::B", ""), EntityRef("Team", 'q"\n*')]
    for ref in refs:
        assert hash(ref) == hash((ref.entity_type, ref.entity_id))
        assert ref == EntityRef(ref.entity_type, ref.entity_id) and ref == ref
        assert ref != (ref.entity_type, ref.entity_id)
        assert (ref.entity_type, ref.entity_id) != ref
    assert EntityRef("User", "a") != EntityRef("Team", "a") != EntityRef("Team", "b")
    assert repr(refs[0]) == "EntityRef(entity_type='User', entity_id='alice')"


def test_entity_ref_is_frozen_and_slotted():
    import dataclasses

    ref = EntityRef("User", "alice")
    assert not hasattr(ref, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.entity_id = "bob"
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        ref.extra = 1
    moved = dataclasses.replace(ref, entity_id="bob")
    assert moved == EntityRef("User", "bob") and hash(moved) == hash(("User", "bob"))


def test_entity_ref_pickle_and_deepcopy_round_trip():
    import copy
    import os
    import pickle
    import subprocess
    import sys

    ref = EntityRef("User", "alice")
    for twin in (pickle.loads(pickle.dumps(ref)), copy.deepcopy(ref), copy.copy(ref)):
        assert twin == ref and hash(twin) == hash(ref)
    # Another process hashes strings differently: the ref must hash there as
    # its fields do, not as it did here.
    payload = pickle.dumps({ref: 1})
    check = (
        "import pickle, sys; d = pickle.loads(sys.stdin.buffer.read()); (r,) = d;"
        "assert hash(r) == hash((r.entity_type, r.entity_id)) and d[r] == 1"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run([sys.executable, "-c", check], input=payload, env=env, timeout=60)
    assert done.returncode == 0
