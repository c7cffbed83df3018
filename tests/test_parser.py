"""Concrete syntax: policies, schemas, rendering, and diagnostics."""

import random

import pytest

from cedar_engine.ast import (
    EBinop,
    EIf,
    ELit,
    EMul,
    ERecord,
    ESet,
    EntityRef,
    ScopeEq,
    ScopeIn,
    ScopeInSet,
    TRecord,
    TSet,
    VLong,
    I64_MAX,
    LONG,
    STRING,
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


@pytest.mark.parametrize(
    "src,desugared",
    [
        ("context.n > 3", "!(context.n <= 3)"),
        ("context.n >= 3", "!(context.n < 3)"),
        ("principal != resource.owner", "!(principal == resource.owner)"),
        # Same precedence as the other relations, left-associative, operands
        # kept in source order.
        ("1 + 2 > 3 && 4 >= 5 - 1", "!(1 + 2 <= 3) && !(4 < 5 - 1)"),
        ("1 > 2 > 3", "!(!(1 <= 2) <= 3)"),
        ("1 != 2 == false", "!(1 == 2) == false"),
        ("!(1 > 2)", "!!(1 <= 2)"),
    ],
)
def test_derived_relations_parse_as_negations(src, desugared):
    e = parse_expr(src)
    assert e == parse_expr(desugared)
    assert render_expr(e) == desugared
    text = f"permit(principal, action, resource) when {{ {src} }};"
    (p,) = parse_policies(text)
    assert parse_policies(render_policy(p)) == [p]


def test_derived_relation_tokens():
    # `!=` and `>=` are one token each, `> =` and `! =` are not them, and
    # `>>` stays two tokens, so nested schema types still close.
    assert parse_expr("1 >= 2") != parse_expr("1 > 2")
    for src in ("1 > = 2", "1 ! = 2", "1 >> 2", "1 =! 2"):
        with pytest.raises(ParseError):
            parse_expr(src)
    schema = parse_schema("entity A { x: Set<Set<Long>>, y: Set<Set<Set<String>>>};")
    assert schema.entity_types["A"].attrs.attr("x").type == TSet(TSet(LONG))
    assert schema.entity_types["A"].attrs.attr("y").type == TSet(TSet(TSet(STRING)))


def test_if_then_else_expression():
    e = parse_expr("if 1 < 2 then 3 else 4")
    assert isinstance(e, EIf)
    assert render_expr(e) == "if 1 < 2 then 3 else 4"
    (p,) = parse_policies("permit(principal, action, resource) when { if true then false else true };")
    assert parse_policies(render_policy(p)) == [p]


@pytest.mark.parametrize(
    "src",
    [
        "1 + if true then 1 else 2",
        "!if true then false else true",
        "principal == if true then principal else principal",
    ],
)
def test_if_is_an_operand_only_in_parentheses(src):
    # Cedar's grammar allows `if` only at the Expr level.
    with pytest.raises(ParseError) as err:
        parse_expr(src)
    diag = err.value
    assert (diag.span.line, diag.span.column) == (1, src.index("if") + 1)
    parenthesised = src.replace("if", "(if", 1) + ")"
    e = parse_expr(parenthesised)
    assert parse_expr(render_expr(e)) == e


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


@pytest.mark.parametrize(
    "parse,text,line",
    [
        (parse_policies, "permit(principal action, resource);", 1),
        (parse_policies, 'permit(principal,\n action == Action::"\\q", resource);', 2),
        (parse_schema, "entity A { x: };", 1),
        (parse_schema, "entity A in [B];", 1),
        (parse_expr, "1 +", 1),
    ],
)
def test_error_text_names_the_given_file(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text, "given.name")
    assert str(err.value) == err.value.render()
    assert str(err.value).startswith(f"given.name:{line}:{err.value.span.column}: error: {err.value.message}")


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"])
def test_only_a_newline_ends_the_quoted_line(brk):
    src = f"// a{brk}b\npermit(principal action, resource);"
    with pytest.raises(ParseError) as err:
        parse_policies(src)
    head, quoted, caret = err.value.render().split("\n")
    assert head.startswith("<input>:2:18: error:")
    assert quoted == "  permit(principal action, resource);"
    assert caret == "  " + " " * 17 + "^"


def test_a_crlf_line_is_quoted_without_its_carriage_return():
    with pytest.raises(ParseError) as err:
        parse_policies("permit(principal, action, resource);\r\nforbid(principal action, resource);\r\n")
    assert err.value.render().split("\n")[1:] == ["  forbid(principal action, resource);", "  " + " " * 17 + "^"]


def test_the_caret_copies_the_tabs_before_the_error():
    with pytest.raises(ParseError) as spaced:
        parse_policies("permit( principal action, resource);")
    with pytest.raises(ParseError) as err:
        parse_policies("permit(\tprincipal action, resource);")
    assert (err.value.message, err.value.span) == (spaced.value.message, spaced.value.span)
    head, quoted, caret = err.value.render().split("\n")
    assert head == str(spaced.value).split("\n")[0]
    assert caret == "  " + " " * 7 + "\t" + " " * 10 + "^"
    for tabsize in (2, 4, 8):
        assert caret.expandtabs(tabsize).index("^") == quoted.expandtabs(tabsize).index("action")


@pytest.mark.parametrize("wide", ["数据", "\U0001F600", "ｅ"])
def test_the_caret_takes_two_columns_under_a_wide_character(wide):
    # CJK, an emoji and a fullwidth letter each take two terminal columns.
    src = f'permit(principal, action, resource) when {{ "{wide}" == @ }};'
    with pytest.raises(ParseError) as err:
        parse_policies(src)
    with pytest.raises(ParseError) as narrow:
        parse_policies(src.replace(wide, "a" * len(wide)))
    assert (err.value.message, err.value.span.column) == (narrow.value.message, narrow.value.span.column)
    head, quoted, caret = err.value.render().split("\n")
    assert quoted == "  " + src
    assert caret == "  " + " " * (src.index("@") + len(wide)) + "^"
    assert narrow.value.render().split("\n")[2] == "  " + " " * src.index("@") + "^"


@pytest.mark.parametrize("control", ["\r", "\x1b", "\x0b", "\x00"])
def test_a_control_character_is_quoted_as_one_visible_column(control):
    # On a terminal a lone carriage return would send the quoted line back
    # to its start, far from the caret.
    src = f'permit(principal, action, resource) when {{ "a{control}b" == @ }};'
    with pytest.raises(ParseError) as err:
        parse_policies(src)
    head, quoted, caret = err.value.render().split("\n")
    assert quoted == "  " + src.replace(control, chr(0x2400 + ord(control)))
    assert caret == "  " + " " * src.index("@") + "^"


@pytest.mark.parametrize(
    "parse,text,head",
    [
        (parse_policies, "permit(principal, action, resource)\n", "<input>:2:1: error: expected ';' after policy, found 'end of input'"),
        (parse_policies, "permit(principal, action, resource)\r\n", "<input>:2:1: error: expected ';' after policy, found 'end of input'"),
        (parse_schema, "entity A {\n", "<input>:2:1: error: expected an attribute name"),
        (parse_expr, "", "<input>:1:1: error: unexpected token 'end of input'"),
    ],
)
def test_an_error_after_a_final_newline_quotes_no_line(parse, text, head):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.render() == head


def test_slots_only_in_scope():
    for src, column in (
        ("permit(principal, action == ?principal, resource);", 29),
        ("permit(principal in ?resource, action, resource);", 21),
        ("permit(principal == ?principal, action, resource) when { ?principal == principal };", 58),
        ("permit(principal, action, resource) unless { [resource] == [?resource] };", 61),
    ):
        with pytest.raises(ParseError) as err:
            parse_policies(src)
        assert err.value.render().startswith(f"<input>:1:{column}: error:"), src


def test_an_unknown_slot_is_an_error_in_the_scope_and_in_an_expression():
    for parse, src, message, start in (
        (parse_policies, "permit(principal == ?foo, action, resource);", "unknown slot ?foo", 20),
        (parse_policies, "permit(principal, action, resource in ?bar);", "unknown slot ?bar", 38),
        (parse_expr, "?foo == principal", "unknown slot ?foo", 0),
        # In a condition no slot may appear, known or not.
        (parse_policies, "permit(principal, action, resource) when { ?foo };",
         "slot ?foo in a when condition: slots may appear only in the scope", 43),
    ):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert (err.value.message, err.value.start, err.value.end) == (message, start, start + 4), src


# Each bracketed list, with `^` where a comma may follow its last item.
COMMA_LISTS = {
    "scope-set": (parse_policies, 'permit(principal, action in [Action::"a", Action::"b"^], resource);'),
    "set-literal": (parse_expr, "[1, [2^]^]"),
    "record-literal": (parse_expr, '{a: 1, "b c": {d: 2^}^}'),
    "entity-parents": (parse_schema, "entity A in [B, C^]; entity B in [C^]; entity C;"),
    "applies-to-types": (parse_schema, "entity A, B; action a appliesTo {principal: [A, B^], resource: [A^]};"),
    "record-type": (parse_schema, 'entity A {a: Long, "b c"?: {d: String^}^};'),
    "action-parents": (parse_schema, 'action a in [b, "c d"^]; action b in [c^]; action "c d", c;'),
    "applies-to": (parse_schema, "entity A; action a appliesTo {principal: A, resource: A, context: {}^};"),
}


@pytest.mark.parametrize("parse,text", COMMA_LISTS.values(), ids=COMMA_LISTS.keys())
def test_a_comma_may_follow_the_last_item_of_a_list(parse, text):
    assert parse(text.replace("^", ",")) == parse(text.replace("^", ""))


# Lists that need an item, given none: each reports the item it expected.
EMPTY_LISTS = {
    "scope-set": (parse_policies, "permit(principal, action in [], resource);", "expected a name, found ']'", 29),
    "entity-parents": (parse_schema, "entity A in [];", "expected a name, found ']'", 13),
    "applies-to-types": (parse_schema, "entity A; action a appliesTo {principal: A, resource: []};",
                         "expected a name, found ']'", 55),
    "action-parents": (parse_schema, "action a in [];", "expected an action name", 13),
    "applies-to": (parse_schema, "action a appliesTo {};", "expected 'principal', 'resource' or 'context', found '}'",
                   20),
}


@pytest.mark.parametrize("parse,text,message,start", EMPTY_LISTS.values(), ids=EMPTY_LISTS.keys())
def test_a_list_that_needs_an_item_rejects_empty_brackets(parse, text, message, start):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.start, err.value.end) == (message, start, start + 1)


def test_empty_sets_and_records_parse():
    assert parse_expr("[]") == ESet(())
    assert parse_expr("{}") == ERecord(())
    assert parse_schema("entity A {};").entity_types["A"].attrs == TRecord(())


def test_a_duplicate_attribute_is_reported_at_its_name():
    for parse, src, message in (
        (parse_expr, '{a: 1, "a": 2}', "duplicate record attribute 'a'"),
        (parse_schema, 'entity A {a: Long, "a"?: String};', "duplicate attribute 'a'"),
    ):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert (err.value.message, src[err.value.start : err.value.end]) == (message, '"a"')


@pytest.mark.parametrize(
    "text,message,start,end",
    [
        ("entity A, B, A;", "duplicate declaration of entity type A", 13, 14),
        ("entity A; entity B, A;", "duplicate declaration of entity type A", 20, 21),
        ("action a; action a;", 'duplicate declaration of action Action::"a"', 17, 18),
        ('action "a b", c, "a b";', 'duplicate declaration of action Action::"a b"', 17, 22),
        ("entity A in B;", "unknown entity type B in parents of entity A", 12, 13),
        ("entity N::A in [N::A, M::B];", "unknown entity type M::B in parents of entity N::A", 22, 26),
        ("entity A; entity B { x: Set<{ y: C }> };", "unknown entity type C in attributes of entity B", 33, 34),
        ("entity A; action a appliesTo { principal: [A, Q], resource: A };",
         'unknown entity type Q in appliesTo of Action::"a"', 46, 47),
        ("entity A; action a appliesTo { principal: A, resource: A, context: { u: Z } };",
         'unknown entity type Z in context of Action::"a"', 72, 73),
        ("action a in [b]; action b in [a];", 'cyclic action-group membership at Action::"a"', 30, 31),
    ],
)
def test_a_schema_error_is_reported_at_the_name_at_fault(text, message, start, end):
    with pytest.raises(ParseError) as err:
        parse_schema(text)
    assert (err.value.message, err.value.start, err.value.end) == (message, start, end)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_policies, 'permit(principal in [User::"a"], action, resource);',
         "principal constraint cannot use a set of entities"),
        (parse_expr, "context[1]", "expected end of input, found '['"),  # only a string projects
        (parse_expr, "has", "reserved word 'has' cannot start an expression"),
        (parse_schema, "action a; action a;", 'duplicate declaration of action Action::"a"'),
        (parse_schema, "action a appliesTo {context: Long};", "context type must be a record"),
        (parse_schema, "action a appliesTo {owner: Long};", "unknown appliesTo field 'owner'"),
    ],
)
def test_scope_expression_and_declaration_errors(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == message


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
    for n in (10**2, 10**3, 10**4):
        for parse, text in ((parse_policies, _condition(shape, n)), (parse_expr, DEEP_SHAPES[shape](n))):
            with pytest.raises(ParseError) as err:
                parse(text)
            diag = err.value
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
