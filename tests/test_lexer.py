"""The Cedar lexer: token spans, diagnostics, and linear running time.

The oracle for every span is the prefix formula: the line is one more than
the newlines before the token, the column counts characters from the last
of them, and the byte offsets are UTF-8 lengths of the source up to the
token's start and end.
"""

import glob
import os
import re
import time

import pytest

from cedar_engine.parser import ParseError, SourceSpan, _Lexer, render_policies, span_at
from cedar_engine.testkit import GenConfig, gen_policies

from conftest import FIXTURES

# What may stand between two tokens: whitespace and `//` comments.
_GAP = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")


def prefix_span(source: str, start: int, end: int) -> SourceSpan:
    prefix = source[:start]
    line = prefix.count("\n") + 1
    col = start - (prefix.rfind("\n") + 1) + 1
    byte_start = len(prefix.encode("utf-8"))
    return SourceSpan(byte_start, byte_start + len(source[start:end].encode("utf-8")), line, col)


def assert_spans(source: str) -> int:
    tokens = _Lexer(source).tokens()
    pos = 0
    for tok in tokens:
        start = _GAP.match(source, pos).end()
        end = start + len(tok.text)
        assert source[start:end] == tok.text
        assert (tok.start, tok.end) == (start, end), (tok, source[max(0, start - 20) : end])
        assert span_at(source, tok.start, tok.end) == prefix_span(source, start, end), tok
        pos = end
    assert tokens[-1].kind == "eof" and pos == len(source)
    return len(tokens)


NON_ASCII = (
    '// é, € and 😀 in a comment\n'
    '@id("é€😀")\n'
    'permit(principal == User::"😀😀", action, resource)\r\n'
    'when { resource.name == "caf\\u{e9} \\u{1F600}" && // trailing é\n'
    '  context.note like "€*\\*😀" };\n'
    '\n'
    '// 😀\n'
    'forbid(principal, action, resource) unless { "\\"é\\"\\n" == "x" };'
)


def test_every_token_span_matches_the_prefix_formula():
    sources = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.cedar*"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        sources += [text, "// é€😀\n" + text.replace("\n", "\n// 😀 é\n", 3)]
    sources += [render_policies(gen_policies(GenConfig(seed, max_depth=4))) for seed in range(200)]
    sources += [NON_ASCII, NON_ASCII.replace("\n", "\n// 😀 é\n")]
    assert sum(assert_spans(source) for source in sources) > 10_000


# (source, message, start, end): the error's span as character offsets.
ERROR_SITES = [
    ('when {\n "é€" == $ }', "unexpected character '$'", 16, 17),
    ('"é"\n😀', "unexpected character '😀'", 4, 5),
    ('x /y', "unexpected character '/'", 2, 3),
    ('permit(principal)\n  when { "é€😀 never closed', "unterminated string literal", 27, 44),
    ('"ok"\n"😀\\', "unterminated escape", 5, 8),
    ('"€\\uX"', "expected { after \\u", 4, 5),
    ('// é\n"€\\u', "expected { after \\u", 9, 10),
    ('"\\u{}"', "malformed \\u{...} escape", 4, 4),
    ('"😀\\u{1234567}"', "malformed \\u{...} escape", 5, 12),
    ('"é" "\\u{12', "malformed \\u{...} escape", 8, 10),
    ('"\\u{zz}"', "invalid unicode escape", 4, 6),
    ('"\\u{110000}"', "invalid unicode escape", 4, 10),
    ('"\\u{4"}"', "invalid unicode escape", 4, 6),
    ('\n\n"é\\q"', "unknown escape \\q", 5, 6),
]


@pytest.mark.parametrize("source,message,start,end", ERROR_SITES)
def test_lexer_error_message_and_span(source, message, start, end):
    with pytest.raises(ParseError) as err:
        _Lexer(source).tokens()
    diag = err.value
    assert diag.message == message
    assert diag.span == prefix_span(source, start, min(end, len(source)))


def test_escape_at_end_of_input_has_an_empty_span():
    with pytest.raises(ParseError) as err:
        _Lexer('"\\u').tokens()
    assert err.value.span == SourceSpan(3, 3, 1, 4)


def test_a_lone_surrogate_is_lexed_and_located():
    # Only an error works out byte offsets; a surrogate counts three bytes.
    assert _Lexer('"\ud800"').tokens()[0].value == "\ud800"
    with pytest.raises(ParseError) as err:
        _Lexer('"\ud800" $').tokens()
    assert err.value.span == SourceSpan(6, 7, 1, 5)


def _lex_seconds(source: str) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _Lexer(source).tokens()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("unit", ['principal.n == "é" &&\n', 'principal.n == 1 && // c\n'])
def test_lexing_time_is_linear(unit):
    def policy(k: int) -> str:
        return "permit(principal, action, resource) when { " + unit * k + "true };"

    small, large = policy(500), policy(16 * 500)
    assert len(large) > 15 * len(small)
    assert _lex_seconds(large) < 40 * _lex_seconds(small)
