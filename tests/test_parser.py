"""Concrete syntax: policies, schemas, rendering, and diagnostics."""

import random

import pytest

from cedar_engine.ast import (
    EBinop,
    EIf,
    ELit,
    EMul,
    EntityRef,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    VLong,
    I64_MAX,
    I64_MIN,
)
from cedar_engine.authorizer import PolicySet, Verdict, authorize
from cedar_engine.entities import Request
from cedar_engine.parser import (
    MAX_NESTING,
    ParseError,
    parse_expr,
    parse_policies,
    parse_schema,
    render_expr,
    render_policies,
    render_policy,
)
from cedar_engine.testkit import GenConfig, gen_policies
from cedar_engine.validator import validate

from conftest import FIG_SCHEMA, read_fixture


def test_overview_policy_file_parses(tinytodo_policies):
    assert len(tinytodo_policies) == 5
    assert [p.effect.value for p in tinytodo_policies] == [
        "permit",
        "permit",
        "permit",
        "permit",
        "forbid",
    ]
    assert [p.id for p in tinytodo_policies] == [f"policy{i}" for i in range(5)]


def test_empty_document():
    assert parse_policies("") == []
    assert parse_policies("// just a comment\n") == []


def test_github_policy_file_action_constraints():
    policies = parse_policies(read_fixture("github", "policies.cedar"))
    assert len(policies) == 8
    # Counted by hand from the policy listing: two == constraints, six
    # action-group constraints.
    eq = [p for p in policies if isinstance(p.action, ScopeEq)]
    grp = [p for p in policies if isinstance(p.action, ScopeIn)]
    assert len(eq) == 2
    assert len(grp) == 6


def test_action_in_set_constraint(tinytodo_policies):
    p0 = tinytodo_policies[0]
    assert p0.action == ScopeInSet(
        (EntityRef("Action", "CreateList"), EntityRef("Action", "GetOwnedLists"))
    )


def test_fig_schema():
    schema = parse_schema(FIG_SCHEMA)
    assert sorted(schema.entity_types) == ["Application", "List", "Team", "User"]
    assert schema.entity_types["List"].parents == frozenset({"Application"})
    get_list = schema.actions[EntityRef("Action", "GetList")]
    assert get_list.principal_types == ("User",)
    assert get_list.resource_types == ("List",)


def test_minimal_entity_declaration():
    schema = parse_schema("entity A;")
    decl = schema.entity_types["A"]
    assert decl.attrs.attrs == ()
    assert decl.parents == frozenset()


def test_github_action_group_closure():
    schema = parse_schema(read_fixture("github", "github.cedarschema"))
    read = EntityRef("Action", "readRepository")
    # Hand-computed transitive closure of the action-parent edges.
    assert schema.action_ancestors(read) == frozenset(
        {
            EntityRef("Action", "triageRepository"),
            EntityRef("Action", "writeRepository"),
            EntityRef("Action", "maintainRepository"),
            EntityRef("Action", "administrateRepository"),
        }
    )
    # The referenced-but-undeclared group exists with no environments.
    group = schema.actions[EntityRef("Action", "administrateRepository")]
    assert group.principal_types == ()


def test_schema_duplicate_and_unknown_diagnostics():
    with pytest.raises(ParseError):
        parse_schema("entity A; entity A;")
    with pytest.raises(ParseError):
        parse_schema("entity A in [Nope];")
    with pytest.raises(ParseError):
        parse_schema(
            'action a in [b] appliesTo { principal: [A], resource: [A] };\n'
            'action b in [a];\n'
            "entity A;"
        )


def test_schema_optional_attributes_and_context():
    schema = parse_schema(
        """
        entity App;
        entity User { nick?: String };
        action go appliesTo { principal: [User], resource: [App], context: { n: Long, f?: Bool } };
        """
    )
    user = schema.entity_types["User"]
    assert not user.attrs.attr("nick").required
    ctx = schema.actions[EntityRef("Action", "go")].context
    assert ctx.attr("n").required and not ctx.attr("f").required


def test_render_owner_policy(tinytodo_policies):
    text = render_policy(tinytodo_policies[1])
    assert "resource is List &&" in text


def test_render_slotless_round_trip():
    src = 'permit(principal in Team::"t", action, resource) when { principal has x };'
    (p,) = parse_policies(src)
    assert parse_policies(render_policy(p)) == [p]


def test_generator_round_trip_document():
    for seed in range(300):
        policies = gen_policies(GenConfig(seed))
        text = render_policies(policies)
        assert parse_policies(text) == policies


def test_precedence_golden():
    e = parse_expr("1 + 2 * 3 < 4 && principal has x || !false")
    assert render_expr(e) == "1 + 2 * 3 < 4 && principal has x || !false"
    # || binds weakest, then &&, then comparison, then additive, then unary.
    assert render_expr(parse_expr("(1 + 2) * 3")) == "3 * (1 + 2)"
    assert render_expr(parse_expr("!(true && false)")) == "!(true && false)"
    assert render_expr(parse_expr("a0 :: \"x\" == A::\"y\"".replace(" :: ", "::"))) == 'a0::"x" == A::"y"'


def test_if_then_else_expression():
    e = parse_expr("if 1 < 2 then 3 else 4")
    assert isinstance(e, EIf)
    assert render_expr(e) == "if 1 < 2 then 3 else 4"
    (p,) = parse_policies("permit(principal, action, resource) when { if true then false else true };")
    assert parse_policies(render_policy(p)) == [p]


def test_multiplication_literal_factor():
    assert parse_expr("2 * principal.n") == EMul(2, parse_expr("principal.n"))
    assert parse_expr("principal.n * 3") == EMul(3, parse_expr("principal.n"))
    assert parse_expr("2 * 3 * 4") == EMul(4, EMul(2, ELit(VLong(3))))
    with pytest.raises(ParseError):
        parse_expr("principal.n * resource.n")


def test_int_literal_bounds():
    assert parse_expr(str(I64_MAX)) == ELit(VLong(I64_MAX))
    assert parse_expr(str(I64_MIN)) == ELit(VLong(I64_MIN))
    with pytest.raises(ParseError):
        parse_expr(str(I64_MAX + 1))
    with pytest.raises(ParseError):
        parse_expr("-" + str(2**63 + 1))


def test_contains_method_calls():
    e = parse_expr("principal.ownedDocuments.contains(resource)")
    assert isinstance(e, EBinop) and e.op == "contains"
    assert render_expr(e) == "principal.ownedDocuments.contains(resource)"
    for op in ("containsAny", "containsAll"):
        e = parse_expr(f"principal.a.{op}(resource.b)")
        assert isinstance(e, EBinop) and e.op == op


def test_extension_calls_rejected():
    with pytest.raises(ParseError) as err:
        parse_expr('context.addr.isInRange(principal.net)')
    assert "extension" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr('ip("1.2.3.4") == ip("1.2.3.4")')


def test_string_escapes():
    e = parse_expr('"a\\nb\\t\\"q\\"\\u{48}"')
    assert e == ELit(__import__("cedar_engine.ast", fromlist=["VString"]).VString('a\nb\t"q"H'))
    # Renders back to something that reparses equal.
    assert parse_expr(render_expr(e)) == e


def test_annotations_round_trip():
    src = '@id("mine")\n@note("hello world")\npermit(principal, action, resource);'
    (p,) = parse_policies(src)
    assert p.id == "mine"
    assert p.annotation("note") == "hello world"
    assert parse_policies(render_policy(p)) == [p]


def test_diagnostic_format():
    try:
        parse_policies("permit(principal action, resource);", filename="demo.cedar")
        assert False, "expected a diagnostic"
    except ParseError as err:
        rendered = err.render()
        assert rendered.startswith("demo.cedar:1:18: error:")
        assert "permit(principal action" in rendered


def test_slots_only_in_scope():
    with pytest.raises(ParseError):
        parse_policies("permit(principal, action == ?principal, resource);")
    with pytest.raises(ParseError):
        parse_policies("permit(principal in ?resource, action, resource);")


def test_appendix_schema_texts_parse():
    for parts in (
        ("tinytodo", "tinytodo.cedarschema"),
        ("gdrive", "gdrive.cedarschema"),
        ("github", "github.cedarschema"),
        ("gdrive", "templates", "gdrive-templates.cedarschema"),
        ("github", "templates", "github-templates.cedarschema"),
    ):
        parse_schema(read_fixture(*parts))


def test_parse_never_crashes_on_junk():
    rng = random.Random(42)
    for _ in range(2000):
        n = rng.randint(0, 60)
        junk = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(n))
        try:
            parse_policies(junk)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# The nesting bound: any depth is a diagnostic with a span, never a stack
# overflow, and the deepest accepted input still authorizes, validates and
# renders.
# ---------------------------------------------------------------------------

DEEP_SHAPES = {
    "parentheses": lambda n: "(" * n + "true" + ")" * n,
    "not": lambda n: "!" * n + "true",
    "and": lambda n: " && ".join(["true"] * n),
    "plus": lambda n: " + ".join(["1"] * n) + " == 0",
    "sets": lambda n: "[" * n + "]" * n + " == []",
    "if": lambda n: "if true then " * n + "true" + " else false" * n,
}


def _condition(shape: str, n: int) -> str:
    return "permit(principal, action, resource) when { " + DEEP_SHAPES[shape](n) + " };"


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_nesting_beyond_the_bound_is_a_parse_error(shape):
    # The lexer's cost grows with the square of the input's length, so the
    # wordier shapes stop at 10^3.
    for n in (10**2, 10**3) + ((10**4,) if shape in ("parentheses", "not", "and", "plus") else ()):
        for parse, text in ((parse_policies, _condition(shape, n)), (parse_expr, DEEP_SHAPES[shape](n))):
            with pytest.raises(ParseError) as err:
                parse(text)
            (diag,) = err.value.diagnostics
            assert f"nests deeper than {MAX_NESTING} levels" in diag.message
            assert diag.span.line == 1 and diag.span.column > 0


def test_nested_schema_types_are_bounded():
    with pytest.raises(ParseError, match="type nests deeper"):
        parse_schema("entity A { x: " + "Set<" * 1000 + "Long" + ">" * 1000 + " };")
    with pytest.raises(ParseError, match="type nests deeper"):
        parse_schema("entity A " + "{ x: " * 1000 + "Long" + " }" * 1000 + ";")
    parse_schema("entity A { x: " + "Set<" * (MAX_NESTING - 1) + "Long" + ">" * (MAX_NESTING - 1) + " };")


def test_many_conditions_count_toward_the_bound():
    head = "permit(principal, action, resource)"
    parse_policies(head + " when { true }" * (MAX_NESTING - 4) + ";")
    with pytest.raises(ParseError, match="nests deeper"):
        parse_policies(head + " when { true }" * 1000 + ";")
    with pytest.raises(ParseError, match="nests deeper"):
        parse_policies(head + " unless { false }" * (MAX_NESTING - 4) + ";")


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deepest_accepted_policy_authorizes_validates_and_renders(shape, tinytodo_store, tinytodo_schema):
    deepest = None
    for n in range(1, MAX_NESTING + 2):
        try:
            deepest = parse_policies(_condition(shape, n))
        except ParseError:
            break
    assert MAX_NESTING // 2 < n <= MAX_NESTING + 1 and deepest is not None
    (policy,) = deepest
    assert parse_policies(render_policies(deepest)) == deepest
    request = Request(EntityRef("User", "aaron"), EntityRef("Action", "GetList"), EntityRef("List", "0"))
    decision = authorize(PolicySet.from_policies(deepest), tinytodo_store, request)
    false = shape in ("plus", "sets") or (shape == "not" and (n - 1) % 2)
    expect = Verdict.DENY if false else Verdict.ALLOW
    assert (decision.verdict, decision.errors) == (expect, ())
    report = validate(deepest, tinytodo_schema)
    assert report.results
    (cond,) = [c for _, c in policy.conditions]
    assert parse_expr(render_expr(cond)) == cond


def test_every_node_has_a_token_of_its_own():
    # The depth check skips its walk for expressions of few tokens, which is
    # sound only while no expression tree has more nodes than tokens.
    from cedar_engine.ast import subexpressions
    from cedar_engine.parser import _Lexer

    exprs = [
        parse_expr(src)
        for src in ('-(-5)', 'x::"y" * 2', '{a: [?principal, A::B::"c"]}["a"]', '[1].contains(-2)', "3 * 4")
    ]
    for seed in range(300):
        exprs += [cond for p in gen_policies(GenConfig(seed, max_depth=4)) for _, cond in p.conditions]
    kinds = set()
    for e in exprs:
        nodes = list(subexpressions(e))
        kinds |= {type(n) for n in nodes}
        tokens = _Lexer(render_expr(e)).tokens()[:-1]  # without the end-of-input token
        assert len(nodes) <= len(tokens)
    assert len(kinds) == 16
