"""The shared s-expression reader."""

import pytest

from cedar_engine.sexpr import SexprError, read_sexprs


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
