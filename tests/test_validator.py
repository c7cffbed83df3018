"""The typing judgment, request environments, and whole-set validation."""

import os
import subprocess
import sys

import pytest

from cedar_engine.ast import (
    EMPTY_RECORD,
    EntityRef,
    BOOL,
    FALSE_T,
    LONG,
    TRUE_T,
    TEntity,
    TFalse,
    TSet,
    TTrue,
    TBool,
    toexp,
    trecord,
    STRING,
)
from cedar_engine.parser import parse_expr, parse_policies, parse_schema
from cedar_engine.validator import (
    CAPS_NONE,
    CAPS_TOP,
    Caps,
    PolicyTypeError,
    TypeErrorKind,
    _Checker,
    environments,
    is_subtype,
    join,
    matching_actions,
    typecheck,
    validate,
)

from conftest import action_forms, read_fixture


def env_for(schema, action_id, ptype=None, rtype=None):
    for env in environments(schema):
        if env.action.entity_id != action_id:
            continue
        if ptype and env.principal_type != ptype:
            continue
        if rtype and env.resource_type != rtype:
            continue
        return env
    raise AssertionError(f"no environment for {action_id}")


def check(src, env, schema):
    return typecheck(parse_expr(src), env, schema)


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def test_fig_schema_environments(fig_schema):
    envs = environments(fig_schema)
    get_list = [e for e in envs if e.action.entity_id == "GetList"]
    assert len(get_list) == 1
    env = get_list[0]
    assert (env.principal_type, env.resource_type) == ("User", "List")
    assert env.context_type == EMPTY_RECORD


def test_empty_applies_to_product():
    schema = parse_schema("entity A;\naction lonely;")
    assert environments(schema) == []


def test_github_environment_count():
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    # Five declared actions, one principal type and one resource type each.
    assert len(environments(schema)) == 5


# ---------------------------------------------------------------------------
# typecheck
# ---------------------------------------------------------------------------


def test_dead_branch_pruned_under_mismatched_action(fig_schema, tinytodo_policies):
    policy3 = tinytodo_policies[3]
    env = env_for(fig_schema, "CreateList")
    expr = toexp(policy3)
    # resource.readers would not typecheck for Application, but the False
    # action guard prunes it.
    t, _ = typecheck(expr, env, fig_schema)
    assert isinstance(t, TFalse)


def test_action_variable_types_as_its_substituted_form(fig_schema):
    # `action` denotes the environment's action: each form types as the same
    # text with that action's literal written in its place.
    env = env_for(fig_schema, "GetList")
    for src, literal, want in (
        ('action == Action::"GetList"', 'Action::"GetList" == Action::"GetList"', TTrue),
        ('action == Action::"CreateList"', 'Action::"GetList" == Action::"CreateList"', TFalse),
        (
            'action in [Action::"CreateList", Action::"GetList"]',
            'Action::"GetList" in [Action::"CreateList", Action::"GetList"]',
            TTrue,
        ),
    ):
        got = check(src, env, fig_schema)
        assert got == check(literal, env, fig_schema)
        assert isinstance(got[0], want)
    # Inside compared operands and capability keys too: `action` and its
    # literal are the same expression to the identity rule of `==` and to
    # `has` guards.
    schema = parse_schema(ACTION_ATTRS_SCHEMA)
    env = env_for(schema, "view")
    for src, literal, want in (
        ('[action] == [Action::"view"]', '[Action::"view"] == [Action::"view"]', TTrue),
        ('{a: action} == {a: Action::"view"}', '{a: Action::"view"} == {a: Action::"view"}', TTrue),
        ('action.n == Action::"view".n', 'Action::"view".n == Action::"view".n', TTrue),
        ('Action::"view" has s && action.s == ""', 'Action::"view" has s && Action::"view".s == ""', TBool),
        ('action has s && Action::"view".s == ""', 'Action::"view" has s && Action::"view".s == ""', TBool),
        (
            'if [action] == [Action::"view"] then true else 1 + "a"',
            'if [Action::"view"] == [Action::"view"] then true else 1 + "a"',
            TTrue,
        ),
    ):
        got = check(src, env, schema)
        assert got == check(literal, env, schema), src
        assert isinstance(got[0], want), src


ACTION_ATTRS_SCHEMA = """
entity User;
entity Doc;
entity Action { n: Long, s?: String };
action view appliesTo { principal: [User], resource: [Doc] };
"""


def test_action_forms_type_as_singletons_that_agree_with_action_in(action_group_schema):
    schema = action_group_schema
    assert schema.action_in(EntityRef("Action", "view"), EntityRef("Action", "All"))  # through Read
    for env in environments(schema):
        for src, want in action_forms(schema, env):
            t, _ = check(src, env, schema)
            assert isinstance(t, TTrue if want else TFalse), (env.describe(), src)


def test_true_conjunction_is_true_singleton(fig_schema):
    env = env_for(fig_schema, "GetList")
    t, caps = check("true && true", env, fig_schema)
    assert isinstance(t, TTrue)
    assert caps == CAPS_NONE


def test_membership_types_bool(fig_schema):
    env = env_for(fig_schema, "GetList")
    t, _ = check("principal in resource.readers", env, fig_schema)
    assert isinstance(t, TBool)


def test_optional_attribute_branches():
    schema = parse_schema(
        """
        entity App;
        entity User { score?: Long };
        action go appliesTo { principal: [User], resource: [App] };
        """
    )
    env = env_for(schema, "go")
    # Long and False have no common supertype.
    with pytest.raises(PolicyTypeError):
        check("if principal has score then principal.score else false", env, schema)
    # With a Long else-branch the conditional types Long (derived by hand:
    # the has-guard supplies the capability for the projection).
    t, _ = check("if principal has score then principal.score else 0", env, schema)
    assert t == LONG


def test_capability_required_without_guard():
    schema = parse_schema(
        """
        entity App { score?: Long };
        entity User { score?: Long };
        action go appliesTo { principal: [User], resource: [App] };
        """
    )
    env = env_for(schema, "go")
    with pytest.raises(PolicyTypeError) as err:
        check("principal.score == 1", env, schema)
    assert err.value.kind is TypeErrorKind.CAPABILITY_REQUIRED
    # A has-guard on a different expression proves the wrong capability.
    with pytest.raises(PolicyTypeError) as err:
        check("if resource has score then principal.score == 1 else false", env, schema)
    assert err.value.kind is TypeErrorKind.CAPABILITY_REQUIRED


def test_capability_flows_through_conjunction():
    schema = parse_schema(
        """
        entity App;
        entity User { score?: Long };
        action go appliesTo { principal: [User], resource: [App] };
        """
    )
    env = env_for(schema, "go")
    t, _ = check("principal has score && principal.score == 1", env, schema)
    assert t == BOOL
    # ...but not through disjunction.
    with pytest.raises(PolicyTypeError):
        check("principal has score || principal.score == 1", env, schema)


def test_capability_monotonicity(fig_schema):
    schema = parse_schema(
        """
        entity App;
        entity User { score?: Long, nick?: String };
        action go appliesTo { principal: [User], resource: [App] };
        """
    )
    env = env_for(schema, "go")
    exprs = [
        "principal has score && principal.score == 1",
        "if principal has nick then principal.nick like \"a*\" else false",
        "principal in App::\"a\"",
    ]
    bigger = Caps(False, frozenset({(parse_expr("principal"), "score"), (parse_expr("principal"), "nick")}))
    for src in exprs:
        t1, _ = check(src, env, schema)
        t2, _ = _Checker(env, schema).check(parse_expr(src), bigger)
        assert t1 == t2  # enlarging the capability never breaks a check


def test_has_singletons(fig_schema):
    env = env_for(fig_schema, "GetList")
    t, _ = check("resource has owner", env, fig_schema)
    assert isinstance(t, TTrue)
    t, _ = check("resource has missing", env, fig_schema)
    assert isinstance(t, TFalse)


def test_is_singletons(fig_schema):
    env = env_for(fig_schema, "GetList")
    t, _ = check("resource is List", env, fig_schema)
    assert isinstance(t, TTrue)
    t, _ = check("resource is Application", env, fig_schema)
    assert isinstance(t, TFalse)


def test_equality_rules(fig_schema):
    env = env_for(fig_schema, "GetList")
    t, _ = check("resource.readers == resource.readers", env, fig_schema)
    assert isinstance(t, TTrue)  # syntactic identity
    t, _ = check("principal == resource", env, fig_schema)
    assert isinstance(t, TFalse)  # distinct entity types
    t, _ = check('Team::"a" == Team::"b"', env, fig_schema)
    assert isinstance(t, TFalse)  # same type, different ids
    t, _ = check("resource.readers == resource.editors", env, fig_schema)
    assert isinstance(t, TBool)
    with pytest.raises(PolicyTypeError) as err:
        check("principal == 1", env, fig_schema)
    assert err.value.kind is TypeErrorKind.NOT_COMPARABLE


def test_in_false_when_type_not_allowed_ancestor(fig_schema):
    env = env_for(fig_schema, "GetList")
    # List can only sit below Application, so Team membership is surely false.
    t, _ = check('resource in Team::"t"', env, fig_schema)
    assert isinstance(t, TFalse)
    t, _ = check('resource in Application::"app"', env, fig_schema)
    assert isinstance(t, TBool)
    # Same-type membership stays Bool even when the type is not its own
    # allowed ancestor: the reflexive case can still make it true.
    t, _ = check('resource in List::"other"', env, fig_schema)
    assert isinstance(t, TBool)


def test_action_group_membership_resolves_statically():
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    env = env_for(schema, "readRepository")
    t, _ = check('action in Action::"administrateRepository"', env, schema)
    assert isinstance(t, TTrue)
    env2 = env_for(schema, "admin")
    t, _ = check('action in Action::"administrateRepository"', env2, schema)
    assert isinstance(t, TFalse)


def test_empty_set_literal_rejected(fig_schema):
    env = env_for(fig_schema, "GetList")
    with pytest.raises(PolicyTypeError) as err:
        check("[] == []", env, fig_schema)
    assert err.value.kind is TypeErrorKind.EMPTY_SET_LITERAL


def test_heterogeneous_set_rejected(fig_schema):
    env = env_for(fig_schema, "GetList")
    with pytest.raises(PolicyTypeError) as err:
        check('[1, "a"] == [1]', env, fig_schema)
    assert err.value.kind is TypeErrorKind.HETEROGENEOUS_SET


def test_unknown_entity_type(fig_schema):
    env = env_for(fig_schema, "GetList")
    with pytest.raises(PolicyTypeError) as err:
        check('Ghost::"g".attr == 1', env, fig_schema)
    assert err.value.kind is TypeErrorKind.UNKNOWN_ENTITY_TYPE


# ---------------------------------------------------------------------------
# subtyping and joins
# ---------------------------------------------------------------------------


def test_subtyping_partial_order():
    types = [
        BOOL,
        TRUE_T,
        FALSE_T,
        LONG,
        STRING,
        TEntity("A"),
        TEntity("B"),
        TSet(TRUE_T),
        TSet(BOOL),
        trecord({"a": (True, LONG)}),
        trecord({"a": (False, LONG)}),
        trecord({"a": (True, TRUE_T)}),
        trecord({"b": (True, LONG)}),
    ]
    for t in types:
        assert is_subtype(t, t)
    for a in types:
        for b in types:
            for c in types:
                if is_subtype(a, b) and is_subtype(b, c):
                    assert is_subtype(a, c)
            if is_subtype(a, b) and is_subtype(b, a):
                assert a == b  # antisymmetry


def test_depth_but_not_width_subtyping():
    assert is_subtype(TSet(TRUE_T), TSet(BOOL))
    assert is_subtype(trecord({"a": (True, TRUE_T)}), trecord({"a": (True, BOOL)}))
    assert is_subtype(trecord({"a": (True, LONG)}), trecord({"a": (False, LONG)}))
    # no width subtyping: extra attributes do not vanish
    assert not is_subtype(trecord({"a": (True, LONG), "b": (True, LONG)}), trecord({"a": (True, LONG)}))
    # no entity subtyping
    assert not is_subtype(TEntity("A"), TEntity("B"))


def test_join_produces_least_supertype():
    assert join(TRUE_T, FALSE_T) == BOOL
    assert join(TSet(TRUE_T), TSet(FALSE_T)) == TSet(BOOL)
    assert join(trecord({"a": (True, LONG)}), trecord({"a": (False, LONG)})) == trecord(
        {"a": (False, LONG)}
    )
    assert join(LONG, STRING) is None
    assert join(TEntity("A"), TEntity("B")) is None


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_overview_policies_validate(tinytodo_policies, tinytodo_schema):
    report = validate(tinytodo_policies, tinytodo_schema)
    assert report.valid
    assert report.warnings == ()


def test_non_boolean_condition_invalid(fig_schema):
    policies = parse_policies("permit(principal, action, resource) when { 1 };")
    report = validate(policies, fig_schema)
    assert not report.valid
    kinds = {r.error_kind for r in report.errors()}
    assert kinds == {TypeErrorKind.NON_BOOLEAN_GUARD}


TAGS_SCHEMA = """
entity User { tags: Set<Long> };
action view appliesTo { principal: [User], resource: [User] };
"""


@pytest.mark.parametrize(
    "condition,kind,detail",
    [
        ("1.foo", TypeErrorKind.NOT_COMPARABLE, "attribute test on Long"),
        ("1 is User", TypeErrorKind.NOT_COMPARABLE, "is test on Long"),
        ('1 like "a"', TypeErrorKind.NOT_COMPARABLE, "like on Long"),
        ('-"a" == 1', TypeErrorKind.NOT_COMPARABLE, "negation of String"),
        ('"a" * 2 == 1', TypeErrorKind.NOT_COMPARABLE, "multiplication of String"),
        ('"a" + 1 == 1', TypeErrorKind.NOT_COMPARABLE, "+ on String and Long"),
        ('"a" < 1', TypeErrorKind.NOT_COMPARABLE, "< on String and Long"),
        ("1.contains(1)", TypeErrorKind.NOT_COMPARABLE, "contains on Long"),
        ('principal.tags.contains("a")', TypeErrorKind.NOT_COMPARABLE, "contains of String in Set<Long>"),
        ('principal.tags.containsAll(["a"])', TypeErrorKind.NOT_COMPARABLE, "containsAll on Set<Long> and Set<String>"),
        ("principal.tags.containsAny(1)", TypeErrorKind.NOT_COMPARABLE, "containsAny on Set<Long> and Long"),
        ('1 in User::"x"', TypeErrorKind.NOT_COMPARABLE, "in with left operand Long"),
        ("action in 1", TypeErrorKind.NOT_COMPARABLE, "in with right operand Long"),
        ("principal in 1", TypeErrorKind.NOT_COMPARABLE, "in with right operand Long"),
        ('Ghost::"x" in User::"y"', TypeErrorKind.UNKNOWN_ENTITY_TYPE, "entity type Ghost is not declared"),
        (
            "(if principal.tags.contains(1) then {a: 1} else {b: 1}) == {a: 1}",
            TypeErrorKind.NOT_COMPARABLE,
            "branches have incompatible types {a: Long} and {b: Long}",
        ),
        (
            '(if principal.tags.contains(1) then {a: 1} else {a: "x"}) == {a: 1}',
            TypeErrorKind.NOT_COMPARABLE,
            "branches have incompatible types {a: Long} and {a: String}",
        ),
    ],
)
def test_ill_typed_condition_is_rejected(condition, kind, detail):
    policies = parse_policies(f"permit(principal, action, resource) when {{ {condition} }};")
    report = validate(policies, parse_schema(TAGS_SCHEMA))
    assert [(r.error_kind, r.error_detail) for r in report.errors()] == [(kind, detail)]


def test_gdrive_fixture_validates():
    policies = parse_policies(read_fixture("gdrive", "policies.cedar"))
    schema = parse_schema(read_fixture("gdrive", "gdrive.cedarschema"))
    assert validate(policies, schema).valid


def test_templates_validate_with_slot_typing():
    for app, schema_name in (("gdrive", "gdrive-templates"), ("github", "github-templates")):
        policies = parse_policies(read_fixture(app, "templates", "policies.cedar"))
        schema = parse_schema(read_fixture(app, "templates", f"{schema_name}.cedarschema"))
        assert validate(policies, schema).valid


def test_unmatched_action_is_warning_not_error(fig_schema):
    policies = parse_policies('permit(principal, action == Action::"Unknown", resource);')
    report = validate(policies, fig_schema)
    assert report.valid
    assert ("policy0", "AlwaysFalse") in report.warnings


def test_always_true_and_always_false_warnings(fig_schema):
    policies = parse_policies(
        """
        permit(principal, action, resource);
        permit(principal, action, resource) when { false };
        """
    )
    report = validate(policies, fig_schema)
    assert ("policy0", "AlwaysTrue") in report.warnings
    assert ("policy1", "AlwaysFalse") in report.warnings


def test_matching_actions_for_scopes(tinytodo_schema, tinytodo_policies):
    assert [a.entity_id for a in matching_actions(tinytodo_schema, tinytodo_policies[0].action)] == [
        "CreateList",
        "GetOwnedLists",
    ]
    assert len(matching_actions(tinytodo_schema, tinytodo_policies[1].action)) == 9


def test_error_reports_carry_environment(fig_schema):
    policies = parse_policies(
        'permit(principal, action, resource) when { resource.readers == resource.readers && resource.owner == principal };'
    )
    report = validate(policies, fig_schema)
    assert not report.valid
    failing = [r for r in report.errors()]
    # Fails only in the Application environment; passes for List.
    assert all(r.env.resource_type == "Application" for r in failing)
    assert any(r.ok and r.env.resource_type == "List" for r in report.results)


def test_singleton_soundness_on_small_enumeration(fig_schema):
    """True-typed conditions evaluate true (and False false) on conforming input."""
    from cedar_engine.evaluator import evaluate
    from cedar_engine.testkit import enumerate_conforming
    from cedar_engine.ast import VBool

    env = env_for(fig_schema, "GetList")
    samples = [
        ("resource is List", True),
        ("resource is Team", False),
        ("resource has owner", True),
        ("resource has missing", False),
        ('action == Action::"GetList"', True),
        ('resource in Team::"0"', False),
    ]
    count = 0
    for store, request in enumerate_conforming(fig_schema, 1):
        if request.action.entity_id != "GetList":
            continue
        count += 1
        for src, expected in samples:
            expr = parse_expr(src)
            t, _ = typecheck(expr, env, fig_schema)
            assert isinstance(t, (TTrue if expected else TFalse))
            assert evaluate(expr, store, request) == VBool(expected)
    assert count > 0


# The menus of `testkit.gen_expr`: its entity types, attributes and actions.
GEN_EXPR_SCHEMA = """
entity E2;
entity E1 in [E2] { n: Long, b?: Bool, owner?: E0 };
entity E0 in [E1, E2] { n: Long, s: String, b?: Bool, owner: E1, members?: Set<E0> };
action a2;
action a0, a1 in [a2]
    appliesTo { principal: [E0, E1], resource: [E0, E2], context: { n: Long, b?: Bool } };
"""


def test_connectives_type_as_their_if_form(gen_seed):
    # `!`, `&&` and `||` have rules of their own; each must give the type and
    # capabilities, or raise the error, of the conditional it means, on
    # ill-typed operands too, and whatever capabilities are in force.
    import random
    from collections import Counter

    from cedar_engine.ast import EAnd, ENot, EOr, subexpressions
    from cedar_engine.testkit import GenConfig, gen_conforming, gen_expr, gen_typed_bool_expr

    from conftest import if_form
    from test_acceptance import _FIDELITY_SCHEMA

    seen = Counter()

    def outcome(checker, e, caps):
        try:
            return ("ok",) + checker.check(e, caps)
        except PolicyTypeError as err:
            return ("error", err.kind, err.detail, err.at)

    def compare(expr, env, schema):
        checker = _Checker(env, schema)
        for sub in subexpressions(expr):
            if isinstance(sub, (ENot, EAnd, EOr)):
                for caps in (CAPS_NONE, CAPS_TOP):
                    direct = outcome(checker, sub, caps)
                    assert direct == outcome(checker, if_form(sub), caps), (env, sub)
                    seen[type(sub).__name__, direct[0]] += 1

    schema = parse_schema(GEN_EXPR_SCHEMA)
    envs = environments(schema)
    refs = [EntityRef(t, f"e{i}") for t in ("E0", "E1", "E2") for i in range(2)]
    refs += [EntityRef("Action", f"a{i}") for i in range(3)]
    rng = random.Random(gen_seed ^ 0xC0EC)
    for _ in range(1_500):
        compare(gen_expr(rng, rng.randint(1, 4), refs), rng.choice(envs), schema)

    schema = parse_schema(_FIDELITY_SCHEMA)
    envs = environments(schema)
    for seed in range(gen_seed * 1_000_000, gen_seed * 1_000_000 + 1_500):
        store, request = gen_conforming(GenConfig(seed, max_entities=3), schema)
        env = next(e for e in envs if e.action == request.action)
        rng = random.Random(seed ^ 0xF1DE)
        expr = gen_typed_bool_expr(rng, env, schema, store, depth=rng.randint(1, 3))
        if expr is not None:
            compare(expr, env, schema)
    for name in ("ENot", "EAnd", "EOr"):
        assert seen[name, "ok"] >= 100 and seen[name, "error"] >= 100, seen


def test_the_unknown_parent_reported_is_the_same_under_every_hash_seed():
    # An entity type's parents are a set, whose order follows the string
    # hash seed: the first unknown one is found in sorted order instead.
    check = (
        "from cedar_engine.parser import ParseError, parse_schema\n"
        "try:\n    parse_schema('entity User in [Team, Org, Group];')\n"
        "except ParseError as err:\n    print(err.message)\n"
    )
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=60)
        messages.add(done.stdout)
    assert messages == {"unknown entity type Group in parents of entity User\n"}
