"""The regex scanner gives the token stream of the character-loop scanner
it replaced: same kinds, texts and positions, and the same
``ParseError`` message and offset where the text does not scan.

The character loop is kept here, and only here, as the reference.  The
corpus is every string literal in ``tests/test_parser.py`` (the paper's
four Section 4.1 queries among them), a seeded sample of texts shaped
like tcqbench's standing queries, and generated texts over an alphabet
that puts comments, decrements, quotes, fractions and stray characters
next to each other.
"""

import ast
import pathlib
import random

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.query.lexer import KEYWORDS, OPERATORS, Token, tokenize


def reference_tokenize(text):
    """The character-at-a-time scanner, as ``(kind, text, position)``."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":
            if tokens and tokens[-1][0] == "ident":
                tokens.append(("op", "--", i))
                i += 2
                continue
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'" or ch == '"':
            end = text.find(ch, i + 1)
            if end == -1:
                raise ParseError("unterminated string literal", i, text)
            tokens.append(("string", text[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or
                             (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    if j + 1 < n and not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word.lower() in KEYWORDS else "ident"
            tokens.append((kind, word.lower() if kind == "keyword"
                           else word, i))
            i = j
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(("op", op, i))
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    tokens.append(("eof", "", n))
    return tokens


def scanned(scan, text):
    """The token triples, or the error's message and offset."""
    try:
        return [tuple(token) for token in scan(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def assert_same_scan(text):
    assert scanned(tokenize, text) == scanned(reference_tokenize, text)


def parser_test_texts():
    source = pathlib.Path(__file__).with_name("test_parser.py").read_text()
    return sorted({node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)})


def tcqbench_shaped_texts(seed=1, count=400):
    """Texts shaped like tcqbench's standing queries: price bands with a
    volume floor, symbol equalities, volume bands, one-sided prices and
    the windowed join / aggregate with their for-loops."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        a = rng.randrange(0, 970)
        u = rng.random()
        if u < 0.6:
            texts.append(f"SELECT * FROM trades WHERE price > {a} AND "
                         f"price < {a + rng.randrange(5, 30)} AND "
                         f"vol > {rng.randrange(0, 50)}")
        elif u < 0.8:
            texts.append(f"SELECT * FROM trades WHERE sym = "
                         f"'S{rng.randrange(100):02d}' AND price > {a}")
        elif u < 0.9:
            texts.append(f"SELECT * FROM trades WHERE vol > {a % 96} AND "
                         f"vol < {a % 96 + 3}")
        elif u < 0.95:
            texts.append(f"SELECT * FROM trades WHERE price > {a}")
        else:
            width, hop = rng.randrange(100, 2000), rng.randrange(1, 100)
            texts.append(
                "SELECT trades.seq, quotes.seq FROM trades, quotes "
                "WHERE trades.sym = quotes.sym AND trades.price > quotes.bid "
                f"for (t = {width}; t <= {a * 40}; t += {hop}) {{ "
                f"WindowIs(trades, t - {width - 1}, t); "
                f"WindowIs(quotes, t - {width - 1}, t); }}")
            texts.append(
                "SELECT AVG(price), COUNT(*) FROM trades "
                f"for (t = {width}; t <= {a * 40}; t += {hop}) {{ "
                f"WindowIs(trades, t - {width - 1}, t); }}")
    return texts


def test_parser_corpus_scans_identically():
    texts = parser_test_texts()
    assert any("WindowIs(c1, t - 4, t)" in text for text in texts)
    for text in texts:
        assert_same_scan(text)


def test_tcqbench_shaped_texts_scan_identically():
    for text in tcqbench_shaped_texts():
        assert_same_scan(text)


def test_edge_cases_scan_identically():
    for text in ["", "  \n\t", "1.", "1.x", "1.5.6", "1..2", ".5.6", "x.5",
                 "t--", "t---x", "t----y", "select -- c\nx", "-- only",
                 "a--\n--b\nc", "t--\n5", "'", "\"a'", "'a\nb' c",
                 "x @ y", "x > 5", "é > ß", "_a1 >= 2",
                 "a<>b!=c==d<=e>=f", "--'unterminated in a comment",
                 "t -- x", "t--'open"]:
        assert_same_scan(text)


_ALPHABET = st.sampled_from(
    ["a", "t", "x1", "_", "SELECT", "from", "WindowIs", "0", "7", "42",
     ".", "-", "--", "+", "=", "<", ">", "!", "*", "/", "(", ")", "{", "}",
     ",", ";", "'", '"', " ", "\n", "\t", "@", "#", "é", " "])


@settings(max_examples=300, deadline=None)
@given(st.lists(_ALPHABET, max_size=30).map("".join))
def test_generated_texts_scan_identically(text):
    assert_same_scan(text)


def test_tokens_are_values():
    token = tokenize("x")[0]
    assert token == Token("ident", "x", 0) and token.is_op("x") is False
    assert hash(token) == hash(Token("ident", "x", 0))
    assert not hasattr(token, "__dict__")
