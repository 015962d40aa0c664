"""Tokenizer for the SQL subset."""

from __future__ import annotations

import re

from repro.errors import SqlParseError

#: Token kinds.
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"
PARAM = "PARAM"
EOF = "EOF"

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "ORDER", "BY", "AS",
    "CREATE", "TABLE", "PRIMARY", "KEY", "INDEX", "ON",
    "INSERT", "INTO", "VALUES",
    "DELETE", "UPDATE", "SET", "NULL", "ASC", "DESC",
    "ANALYZE",
}

#: Symbols of two characters (tried first) and of one.
_SYMBOLS_2 = frozenset(("<=", ">=", "<>", "!="))
_SYMBOLS_1 = frozenset("=<>(),.*")

#: The rest of a name after its first character (``str.isalnum`` or
#: ``_``, which is what ``\w`` matches).
_NAME_TAIL = re.compile(r"\w*")
#: An exponent: ``e`` or ``E``, an optional sign, digits.
_EXPONENT = re.compile(r"[eE][+-]?\d+")
#: The slot number of a ``?N`` parameter.
_SLOT = re.compile(r"\d+")


class Token:
    __slots__ = ("kind", "text", "value", "pos")

    def __init__(self, kind, text, value=None, pos=0):
        self.kind = kind
        self.text = text
        self.value = value if value is not None else text
        self.pos = pos

    def __repr__(self):
        return "Token({}, {!r})".format(self.kind, self.text)


def tokenize(sql):
    """Tokenize ``sql`` into a list of :class:`Token` ending with EOF.

    Names and keywords, the commonest tokens, are tried first.  A number
    may carry a sign and an exponent (``-1.5e-05``, the way Python
    prints small and large floats); ``?N`` is the parameter of slot
    ``N``.
    """
    tokens = []
    append = tokens.append
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isalpha() or ch == "_":
            j = _NAME_TAIL.match(sql, i + 1).end()
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(KEYWORD, upper, pos=i))
            else:
                append(Token(IDENT, word, pos=i))
            i = j
            continue
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SqlParseError("unterminated string literal", sql, i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            append(Token(STRING, sql[i : j + 1], "".join(parts), i))
            i = j + 1
            continue
        # Decimal digits only: ``int`` and ``float`` reject the other
        # characters ``isdigit`` accepts (``²``).
        if ch.isdecimal() or (
            ch in "+-" and i + 1 < n and sql[i + 1].isdecimal()
        ):
            j = i + 1
            is_float = False
            while j < n and (sql[j].isdecimal() or sql[j] == "."):
                if sql[j] == ".":
                    # Guard against "a.b" qualified names: a dot not
                    # followed by a digit ends the number, and so does
                    # a second dot.
                    if is_float or j + 1 >= n or not sql[j + 1].isdecimal():
                        break
                    is_float = True
                j += 1
            exponent = _EXPONENT.match(sql, j)
            if exponent is not None:
                j = exponent.end()
                is_float = True
            text = sql[i:j]
            value = float(text) if is_float else int(text)
            append(Token(NUMBER, text, value, i))
            i = j
            continue
        if sql[i : i + 2] in _SYMBOLS_2:
            append(Token(SYMBOL, sql[i : i + 2], pos=i))
            i += 2
            continue
        if ch in _SYMBOLS_1:
            append(Token(SYMBOL, ch, pos=i))
            i += 1
            continue
        if ch == "?":
            slot = _SLOT.match(sql, i + 1)
            if slot is not None:
                j = slot.end()
                append(Token(PARAM, sql[i:j], int(sql[i + 1 : j]), i))
                i = j
                continue
        raise SqlParseError("unexpected character {!r}".format(ch), sql, i)
    append(Token(EOF, "", pos=n))
    return tokens
