"""The shared s-expression reader."""

import pytest

from cedar_engine.sexpr import MAX_DEPTH, SexprError, read_sexprs


def test_read_sexprs():
    text = '(define-fun x () String "say ""hi""") ; a comment ( "\n12 (1_0 0x1 2b ²) |)| |1| (|a b| a|b) ""'
    assert read_sexprs(text) == [
        ("define-fun", "x", (), "String", ("string", 'say "hi"')),
        12,
        (10, "0x1", "2b", "²"),
        ")",
        "1",
        ("a b", "a|b"),
        ("string", ""),
    ]
    assert read_sexprs("") == read_sexprs(" ; only a comment") == []
    for bad, message in (
        ("(a))", "unbalanced parenthesis"),
        ("((a)", "unterminated s-expression"),
        ('(a "b)', "unterminated string"),
        ('"x""', "unterminated string"),
        ("(|a)", "unterminated quoted symbol"),
    ):
        with pytest.raises(SexprError, match=f"^{message}$"):
            read_sexprs(bad)


def test_nesting_is_bounded():
    # Hashing or comparing a compound recurses in C: a million levels
    # would overflow the C stack of a consumer, so the reader stops at
    # MAX_DEPTH.
    def nested(depth):
        return "(f " * depth + "x" + ")" * depth

    (tree,) = read_sexprs(nested(MAX_DEPTH))
    for _ in range(MAX_DEPTH - 1):
        tree = tree[1]
    assert tree == ("f", "x")
    for depth in (MAX_DEPTH + 1, 10**6):
        with pytest.raises(SexprError, match="^s-expression nested too deeply$"):
            read_sexprs(nested(depth))


def test_let_reads_as_its_expansion():
    (bound,) = read_sexprs("(let ((a (f x)) (b 2)) (let ((c (g a b))) (and c (f x) a)))")
    assert bound == read_sexprs("(and (g (f x) 2) (f x) (f x))")[0]
    assert bound[1][1] is bound[3]  # (f x), bound: one object wherever `a` occurs
    # A binding sees the enclosing scope; an inner name shadows an outer one.
    assert read_sexprs("(let ((x 1)) (let ((x (h x))) x))") == [("h", 1)]
    assert read_sexprs('(let ((s "x")) (= s "x"))') == [("=", ("string", "x"), ("string", "x"))]
    with pytest.raises(SexprError, match="^malformed let binding$"):
        read_sexprs("(let ((a)) a)")
