"""Tokenizer for the TelegraphCQ query subset.

Covers the paper's examples verbatim: SELECT / FROM / WHERE with
comparisons, AND/OR/NOT, aliases, aggregate calls, and the for-loop
window clause::

    for (t = ST; t < ST + 50; t += 5) {
        WindowIs(ClosingStockPrices, t - 4, t);
    }

The scanner is one compiled alternation: ``findall`` hands back every
token's groups in one call.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "select", "from", "where", "as", "and", "or", "not", "for",
    "windowis", "group", "by", "distinct", "order", "asc", "desc",
}

#: Multi-character operators, longest first so the scanner is greedy.
OPERATORS = ["<=", ">=", "==", "!=", "<>", "++", "--", "+=", "-=",
             "<", ">", "=", "+", "-", "*", "/", "(", ")", "{", "}",
             ",", ";", "."]

#: Whitespace, then one token, one group per kind.  A number is digits
#: with at most one fraction (``.5`` too); its dot is not taken when a
#: non-digit follows (``c1.price`` is qualified access).  ``other`` is a
#: character no token starts with; the empty alternative is the end.
_TOKEN = re.compile(r"""(\s*)(?:
      (\d+(?:\.(?:\d+|\Z))?|\.\d+)
    | ([^\W\d]\w*)
    | (--[^\n]*\n?)
    | ({})
    | ('[^']*'|"[^"]*")
    | (.)
    | \Z)""".format("|".join(map(re.escape, OPERATORS))),
    re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str          # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'eof'
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op


#: ``_new(Token, (kind, text, position))`` is ``Token(kind, text,
#: position)`` without the Python-level ``__new__`` call.
_new = tuple.__new__


def tokenize(text: str) -> List[Token]:
    """Scan the query text into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    pos = scan = 0
    while True:
        for space, number, word, comment, op, string, other in \
                _TOKEN.findall(text, scan):
            start = pos + len(space)
            if word:
                pos = start + len(word)
                lowered = word.lower()
                if lowered in KEYWORDS:
                    append(_new(Token, ("keyword", lowered, start)))
                else:
                    append(_new(Token, ("ident", word, start)))
            elif op:
                pos = start + len(op)
                append(_new(Token, ("op", op, start)))
            elif number:
                pos = start + len(number)
                append(_new(Token, ("number", number, start)))
            elif comment:
                # '--' after an identifier is the decrement operator (a
                # for-loop header): emit it and scan again behind it.
                if tokens and tokens[-1].kind == "ident":
                    append(_new(Token, ("op", "--", start)))
                    pos = scan = start + 2
                    break
                pos = start + len(comment)
            elif string:
                pos = start + len(string)
                append(_new(Token, ("string", string[1:-1], start)))
            elif other == "'" or other == '"':
                raise ParseError("unterminated string literal", start, text)
            elif other:
                raise ParseError(f"unexpected character {other!r}", start,
                                 text)
        else:
            break
    append(_new(Token, ("eof", "", len(text))))
    return tokens
