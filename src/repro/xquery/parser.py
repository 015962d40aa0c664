"""Scanner-based recursive-descent parser for the XQuery subset.

Implements the Fig. 4 grammar with the small pragmatic extensions the
paper's own examples use:

* WHERE operands may be literals (``$O/order/value < 500`` in Q3) even
  though the figure's grammar shows paths on both sides;
* path steps may end in ``data()`` (Q1);
* ``%`` starts a comment running to the end of the line (Fig. 3 is
  annotated this way);
* ``document(...)`` and ``source(...)`` are interchangeable (Q1 uses
  both spellings), and the argument may carry a ``&`` prefix.

Keywords are recognised case-insensitively.

:func:`lex_query` is the parser's lexer: it turns a text into the shape
key the plan cache compiles once and the literals bound into it, with
the scanner's own comment, white-space, name and number rules.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right

from repro.errors import XQueryParseError
from repro.xmltree.paths import Path, Step, DATA_STEP, WILDCARD
from repro.xquery import ast

_RELOPS = ("<=", ">=", "!=", "<>", "=", "<", ">")

#: The lexical rules, each written once: the scanner reads with them and
#: :func:`lex_query` tokenizes with them.
_SPACE = re.compile(r"\s*")
_NAME_CHARS = r"\w-"
_NAME = re.compile("[{}]+".format(_NAME_CHARS))
_NUMBER = re.compile(r"[+-]?\d*(?:\.\d*)?")
_NUMBER_START = re.compile(r"[+\d-]")

#: Nesting bound for elements/sub-queries.  The grammar is recursive, so
#: without a bound adversarial input (``"<a>" * 10000``) overflows the
#: Python stack with a raw RecursionError instead of a parse error.
_MAX_DEPTH = 100


class _Scanner:
    def __init__(self, text):
        self.text = _strip_comments(text)
        self.pos = 0
        self.depth = 0
        # Line-start offsets for O(log n) position -> (line, column);
        # _strip_comments preserves line structure, so offsets into the
        # stripped text map 1:1 onto the user's source lines.
        starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                starts.append(i + 1)
        self._line_starts = starts

    def line_col(self, pos=None):
        """1-based (line, column) of ``pos`` (default: current)."""
        if pos is None:
            pos = self.pos
        line = bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    def mark(self):
        """The offset of the next token (whitespace skipped)."""
        self.skip_ws()
        return self.pos

    def span_from(self, start):
        """A :class:`Span` covering ``start`` .. current position."""
        line, column = self.line_col(start)
        end_line, end_column = self.line_col(self.pos)
        return ast.Span(line, column, end_line, end_column)

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error(
                "query nesting exceeds {} levels".format(_MAX_DEPTH)
            )

    def leave(self):
        self.depth -= 1

    # -- primitives -------------------------------------------------------------

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def eof(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_char(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def error(self, message):
        context = self.text[max(0, self.pos - 20) : self.pos + 20]
        line, column = self.line_col()
        return XQueryParseError(
            "{} at line {}, column {} (near {!r})".format(
                message, line, column, context
            ),
            self.text,
            self.pos,
        )

    # -- token helpers ------------------------------------------------------------

    def at_keyword(self, word):
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos : end].upper() != word:
            return False
        if end < len(self.text) and (
            self.text[end].isalnum() or self.text[end] == "_"
        ):
            return False
        return True

    def accept_keyword(self, word):
        if self.at_keyword(word):
            self.pos += len(word)
            return True
        return False

    def expect_keyword(self, word):
        if not self.accept_keyword(word):
            raise self.error("expected {}".format(word))

    def accept_text(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect_text(self, token):
        if not self.accept_text(token):
            raise self.error("expected {!r}".format(token))

    def parse_name(self):
        self.skip_ws()
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected a name")
        self.pos = match.end()
        return match.group()

    def parse_variable(self):
        self.skip_ws()
        if self.peek_char() != "$":
            raise self.error("expected a variable")
        self.pos += 1
        return "$" + self.parse_name()

    def accept_variable(self):
        if self.peek_char() == "$":
            return self.parse_variable()
        return None


def _strip_comments(text):
    lines = []
    for line in text.splitlines():
        cut = line.find("%")
        lines.append(line if cut < 0 else line[:cut])
    return "\n".join(lines)


# -- the lexer ------------------------------------------------------------------------

#: How a literal lifted out of a shape key reads in it.
HOLE = "?"

#: One token after optional white space.  Every run the scanner reads
#: without skipping white space is one token (group 1): ``data()``, a
#: string, a word (a name, a number, or both glued: ``5a``, ``AND-5``,
#: ``1.2.3``), ``</`` and the two-character relops.  Group 2 is a
#: character the parser never reads outside a string.
_TOKEN = re.compile(
    r"{}(?:(data\(\)|\"[^\"]*\"|'[^']*'|[+.{}]+|</|{}|[$,()&/*{{}}])|(\S))"
    .format(_SPACE.pattern, _NAME_CHARS, "|".join(_RELOPS))
)

#: The tokens a condition operand follows: the relops and every
#: spelling of ``WHERE`` and ``AND`` (keywords ignore case).
_OPENERS = frozenset(_RELOPS) | frozenset(
    "".join(spelling)
    for word in ("WHERE", "AND")
    for spelling in itertools.product(*zip(word, word.lower()))
)


def lex_query(text):
    """``(shape key, literals)`` of a query text, or ``None`` when the
    text holds a character no query may hold outside a string.

    The key is the text's token sequence, one space between tokens
    whatever white space or comments stood there, with a :data:`HOLE`
    for each string or number in a condition-operand position: after
    ``WHERE``, ``AND`` or a relational operator, but not the label of
    ``<5>``.  ``literals`` are the values of those holes, converted as
    the parser converts them.  Texts with one key differ only in white
    space between tokens and in the spelling of literals; a text whose
    parse has other literals (``= 7AND`` reads the word ``7AND``) keeps
    them in its key, which :func:`same_literals` tells.
    """
    lexed = _lex(_strip_comments(text).rstrip())
    if lexed is None:
        return None
    pieces, literals = lexed
    return " ".join(pieces), tuple(literals)


def _lex(text):
    """``(key pieces, literal values)`` of a comment-free text without
    trailing white space (so that every position starts a token and
    the scan is linear): one piece per token, :data:`HOLE` for a lifted
    literal."""
    pieces = []
    literals = []
    operand = False
    for token, other in _TOKEN.findall(text):
        if other:
            return None
        if operand:
            value = _literal_value(token)
            if value is not None:
                pieces.append(HOLE)
                literals.append(value)
                label = token
                operand = False
                continue
        elif token == ">" and pieces[-2:] == ["<", HOLE]:  # ``<5>``
            pieces[-1] = label
            literals.pop()
        pieces.append(token)
        operand = token in _OPENERS
    return pieces, literals


def _literal_value(token):
    """The value of a string or number token, as the parser reads it;
    ``None`` for any other token."""
    if token[0] in "\"'":
        return token[1:-1]
    if _NUMBER_START.match(token) and _NUMBER.fullmatch(token):
        return _number_value(token)
    return None


def literal_spans(text):
    """The :class:`ast.Span` of each literal :func:`lex_query` lifts
    from ``text``, as the parser spans it."""
    scanner = _Scanner(text)
    text = scanner.text.rstrip()
    pieces, __ = _lex(text)
    return [
        ast.Span(*scanner.line_col(match.start(1)),
                 *scanner.line_col(match.end(1)))
        for match, piece in zip(_TOKEN.finditer(text), pieces)
        if piece == HOLE
    ]


def same_literals(query, literals, spans=None):
    """Whether the parsed ``query`` holds exactly ``literals`` (the
    values :func:`lex_query` lifted), in order, type and value, and at
    ``spans`` (:func:`literal_spans`) when they are given."""
    found = list(_iter_literals(query))
    return [(type(f.value), repr(f.value)) for f in found] == [
        (type(value), repr(value)) for value in literals
    ] and (spans is None or [f.span for f in found] == list(spans))


def _iter_literals(item):
    """The WHERE literals under ``item``, nested queries included, in
    text order."""
    if isinstance(item, ast.QueryExpr):
        for condition in item.conditions:
            for operand in (condition.left, condition.right):
                if isinstance(operand, ast.Literal):
                    yield operand
        yield from _iter_literals(item.ret)
    elif isinstance(item, ast.ElemExpr):
        for content in item.contents:
            yield from _iter_literals(content)


def parse_xquery(text):
    """Parse query ``text`` into a :class:`repro.xquery.ast.QueryExpr`."""
    scanner = _Scanner(text)
    query = _parse_query(scanner)
    if not scanner.eof():
        raise scanner.error("trailing input after RETURN clause")
    return query


def _parse_query(scanner):
    scanner.enter()
    start = scanner.mark()
    try:
        scanner.expect_keyword("FOR")
        bindings = [_parse_for_binding(scanner)]
        while True:
            scanner.accept_text(",")
            if scanner.peek_char() == "$":
                bindings.append(_parse_for_binding(scanner))
            else:
                break
        conditions = []
        if scanner.accept_keyword("WHERE"):
            conditions.append(_parse_condition(scanner))
            while scanner.accept_keyword("AND"):
                conditions.append(_parse_condition(scanner))
        scanner.expect_keyword("RETURN")
        ret = _parse_element(scanner)
        return ast.QueryExpr(
            bindings, conditions, ret, span=scanner.span_from(start)
        )
    finally:
        scanner.leave()


def _parse_for_binding(scanner):
    start = scanner.mark()
    var = scanner.parse_variable()
    scanner.expect_keyword("IN")
    operand = _parse_path_operand(scanner)
    if not isinstance(operand, ast.PathOperand):
        raise scanner.error("FOR needs a path expression")
    return ast.ForBinding(var, operand, span=scanner.span_from(start))


def _parse_path_operand(scanner):
    """A rooted path: document(...)/..., source(...)/..., or $V/..."""
    start = scanner.mark()
    if scanner.at_keyword("DOCUMENT") or scanner.at_keyword("SOURCE"):
        name = scanner.parse_name()  # 'document' or 'source'
        del name
        scanner.expect_text("(")
        scanner.skip_ws()
        scanner.accept_text("&")
        doc_id = scanner.parse_name()
        scanner.expect_text(")")
        root = ast.DocRoot(doc_id)
    else:
        var = scanner.accept_variable()
        if var is None:
            return None
        root = ast.VarRoot(var)
    steps = []
    while scanner.accept_text("/"):
        scanner.skip_ws()
        if scanner.text.startswith("data()", scanner.pos):
            scanner.pos += len("data()")
            steps.append(DATA_STEP)
            break
        if scanner.accept_text("*"):
            steps.append(WILDCARD)
            continue
        steps.append(Step(Step.LABEL, scanner.parse_name()))
    if isinstance(root, ast.DocRoot) and not steps:
        raise scanner.error("document(...) must be followed by a path")
    return ast.PathOperand(root, Path(steps), span=scanner.span_from(start))


def _parse_condition(scanner):
    start = scanner.mark()
    left = _parse_condition_operand(scanner)
    scanner.skip_ws()
    op = None
    for candidate in _RELOPS:
        if scanner.text.startswith(candidate, scanner.pos):
            op = candidate
            scanner.pos += len(candidate)
            break
    if op is None:
        raise scanner.error("expected a comparison operator")
    right = _parse_condition_operand(scanner)
    return ast.Comparison(
        left, op, right, span=scanner.span_from(start)
    )


def _parse_condition_operand(scanner):
    ch = scanner.peek_char()
    start = scanner.mark()
    if ch == '"' or ch == "'":
        quote = ch
        scanner.pos += 1
        end = scanner.text.find(quote, scanner.pos)
        if end < 0:
            raise scanner.error("unterminated string literal")
        value = scanner.text[scanner.pos : end]
        scanner.pos = end + 1
        return ast.Literal(value, span=scanner.span_from(start))
    if _NUMBER_START.match(ch):
        value = _parse_number(scanner)
        return ast.Literal(value, span=scanner.span_from(start))
    operand = _parse_path_operand(scanner)
    if operand is None:
        raise scanner.error("expected a path or literal")
    return operand


def _parse_number(scanner):
    scanner.skip_ws()
    match = _NUMBER.match(scanner.text, scanner.pos)
    scanner.pos = match.end()
    value = _number_value(match.group())
    if value is None:
        raise scanner.error("expected a number")
    return value


def _number_value(literal):
    """The value a number literal's text spells: an ``int``, or a
    ``float`` when it has a dot; ``None`` for the empty text, ``+``,
    ``-``, ``.``, ``+.`` and ``-.``."""
    try:
        return float(literal) if "." in literal else int(literal)
    except ValueError:
        return None


def _parse_element(scanner):
    """``Element := <L> ElementList </L> OptGroupBy | Variable``."""
    start = scanner.mark()
    var = scanner.accept_variable()
    if var is not None:
        return ast.VarRef(var, span=scanner.span_from(start))
    scanner.enter()
    try:
        return _parse_tagged_element(scanner)
    finally:
        scanner.leave()


def _parse_tagged_element(scanner):
    start = scanner.mark()
    scanner.expect_text("<")
    label = scanner.parse_name()
    scanner.expect_text(">")
    contents = []
    while True:
        scanner.skip_ws()
        if scanner.text.startswith("</", scanner.pos):
            break
        if scanner.eof():
            raise scanner.error("unterminated element <{}>".format(label))
        contents.append(_parse_content(scanner))
    scanner.expect_text("</")
    closing = scanner.parse_name()
    scanner.expect_text(">")
    if closing != label:
        raise scanner.error(
            "mismatched tags <{}> ... </{}>".format(label, closing)
        )
    group_by = _parse_group_by(scanner)
    return ast.ElemExpr(
        label, contents, group_by, span=scanner.span_from(start)
    )


def _parse_content(scanner):
    """ElementList entry: a nested element, a nested query, or a variable."""
    if scanner.at_keyword("FOR"):
        return _parse_query(scanner)
    element = _parse_element(scanner)
    return element


def _parse_group_by(scanner):
    if not scanner.accept_text("{"):
        return ()
    variables = [scanner.parse_variable()]
    while scanner.accept_text(","):
        variables.append(scanner.parse_variable())
    scanner.expect_text("}")
    return tuple(variables)
