"""The lexer agrees with the parser.

:func:`~repro.xquery.parser.lex_query` keys a query text for the plan
cache without a parse, so two things must hold for every text:

* its literals are the parse's, in order, type, value and span;
* texts with one key parse to ASTs that are equal up to literal values
  and spans, so a plan compiled for one binds every other.

The texts are the lattice differential's queries and views with drawn
literals and drawn layouts.  The named cases are texts on which a naive
lexer and the parser part ways; a caching mediator must answer each
sequence of them exactly as ``cache=False`` does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import Instrument, Mediator
from repro.errors import MixError
from repro.xmltree import serialize
from repro.xquery import ast
from repro.xquery.parser import (
    HOLE,
    lex_query,
    literal_spans,
    parse_xquery,
    same_literals,
)

from tests.conftest import MIX_SEED, make_paper_wrapper
from tests.test_lattice import SHAPES, VIEWS, literals

#: Every lattice text: each shape's query and refinements, and the views.
CORPUS = sorted({
    text.format(**literals(0))
    for shape in SHAPES
    for text in (shape.text, shape.root_q, shape.node_q)
    if text is not None
} | set(VIEWS))

#: Between two tokens: white space, line breaks and ``%`` comments.
LAYOUTS = [" ", "   ", "\n", "\n\t  ", " % a comment\n", "%\n",
           "\n% a comment line\n    "]

#: Tokens that may touch their neighbour with no white space between.
_PUNCTUATION = set("$,()&/*{}")


def tokens(text):
    """The key pieces of ``text``: its tokens, :data:`HOLE` for each
    lifted literal (the corpus holds no other string with a space)."""
    key, __ = lex_query(text)
    assert '"' not in key and "'" not in key
    return key.split(" ")


signs = st.sampled_from(["", "+", "-"])
ints = st.builds("{}{}".format, signs, st.integers(0, 10 ** 6))
floats = st.builds(
    "{}{}.{}".format, signs, st.sampled_from(["", "0", "5", "42"]),
    st.sampled_from(["", "5", "25", "125"]),
).filter(  # ``.5``, ``+.`` and ``-.`` are no numbers to the parser
    lambda spelling: spelling[0] != "." and any(map(str.isdigit, spelling))
)
strings = st.sampled_from(['"', "'"]).flatmap(lambda quote: st.builds(
    lambda body: quote + body + quote,
    st.text(alphabet=" abXY09_-<>=$/" + ("'" if quote == '"' else '"'),
            max_size=8),
))
spellings = st.one_of(ints, floats, strings)


@st.composite
def layouts(draw, pieces):
    """A text of ``pieces``: drawn literals in the holes, drawn layout
    between the tokens.  Returns ``(text, literal spellings)``."""
    out = [draw(st.sampled_from(["", "\n", "  % lead\n"]))]
    spelled = []
    for index, piece in enumerate(pieces):
        if piece == HOLE:
            piece = draw(spellings)
            spelled.append(piece)
        out.append(piece)
        if index + 1 < len(pieces):
            follower = pieces[index + 1]
            glued = HOLE not in (piece, follower) and (
                piece in _PUNCTUATION or follower in _PUNCTUATION
            )
            out.append(draw(st.sampled_from(LAYOUTS + [""] * glued)))
    out.append(draw(st.sampled_from(["", " ", "\n", " % tail"])))
    return "".join(out), spelled


def spelled_value(spelling):
    if spelling[0] in "\"'":
        return spelling[1:-1]
    return float(spelling) if "." in spelling else int(spelling)


def skeleton(item):
    """``item`` with every span dropped and every literal blanked."""
    if isinstance(item, ast.Literal):
        return ast.Literal
    if isinstance(item, (list, tuple)):
        return tuple(skeleton(part) for part in item)
    if type(item).__module__ != ast.__name__:
        return item  # names, operators, paths
    return (type(item),) + tuple(
        skeleton(getattr(item, slot))
        for slot in type(item).__slots__ if slot != "span"
    )


@seed(MIX_SEED)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), template=st.sampled_from(CORPUS))
def test_the_lexers_literals_are_the_parses(data, template):
    pieces = tokens(template)
    text, spelled = data.draw(layouts(pieces))
    key, lexed = lex_query(text)
    assert key == " ".join(pieces)
    assert [(type(value), repr(value)) for value in lexed] == [
        (type(value), repr(value))
        for value in map(spelled_value, spelled)
    ]
    parsed = parse_xquery(text)
    assert same_literals(parsed, lexed, literal_spans(text)), text


@seed(MIX_SEED)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), template=st.sampled_from(CORPUS))
def test_texts_of_one_key_parse_alike(data, template):
    pieces = tokens(template)
    first, __ = data.draw(layouts(pieces))
    second, __ = data.draw(layouts(pieces))
    assert lex_query(first)[0] == lex_query(second)[0]
    assert skeleton(parse_xquery(first)) == skeleton(parse_xquery(second))


# -- where a naive lexer and the parser part ways ------------------------------------------

_ORDERS = "FOR $O IN document(root2)/order WHERE {} RETURN {}"

#: Named cases: each a sequence of texts, run twice in a row.
NAMED = {
    # A label that starts like a number is a name, ``<5>`` a label.
    "<5a>": [_ORDERS.format("$O/value/data() > " + value, ret)
             for value in ("100", "200")
             for ret in ("<5a> $O </5a>", "<5> $O </5>", "<6> $O </6>")],
    # A number after ``/`` is a path step, not a literal.
    "/123": [_ORDERS.format("$O/123/data() = " + value, "$O")
             for value in ("5", "6")]
    + [_ORDERS.format("$O/value/data() > 2000 AND $O/123 = 5", "$O")],
    # ``7AND`` is one word to the lexer, ``7`` and ``AND`` to the parser.
    "7AND": [_ORDERS.format("$O/value/data() > {}AND $O/orid/data() < {}"
                            .format(low, high), "$O")
             for low, high in ((7, 30000), (8, 30000), (7, 200), (2400, 1))]
    + [_ORDERS.format("$O/value/data() > 7 AND $O/orid/data() < 30000",
                      "$O")],
    # A sign apart from its digits is no number.
    "- 5": [_ORDERS.format("$O/value/data() > " + value, "$O")
            for value in ("-5", "- 5", "-6", "- 6")],
    "data ()": [_ORDERS.format("$O/value/" + step + " > 150", "$O")
                for step in ("data()", "data ()", "data( )")],
    "< =": [_ORDERS.format("$O/value/data() " + op + " 2400", "$O")
            for op in ("<=", "< =", "<", "=")],
    "1.2.3": [_ORDERS.format("$O/value/data() > " + value, "$O")
              for value in ("1.2", "1.2.3", "1.3", "1.2. 3")],
    "+": [_ORDERS.format("$O/value/data() > " + value, "$O")
          for value in ("+5", "+", "+ 5", "+6", "+.5", "+.")],
}


def answer(mediator, text):
    """What a client gets for ``text``: the answer, or the error."""
    try:
        return serialize(mediator.query(text).to_tree())
    except MixError as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("case", sorted(NAMED))
def test_named_cases_answer_as_without_the_cache(case):
    cached = Mediator(stats=Instrument(), cache=True)
    cold = Mediator(stats=Instrument())
    for mediator in (cached, cold):
        mediator.add_source(make_paper_wrapper())
    for text in NAMED[case] * 2:
        assert answer(cached, text) == answer(cold, text), text


def test_only_a_glued_keyword_parts_the_lexer_from_the_parse():
    """Where the lexer's literals differ from the parse's, the text is
    compiled for its own values; the check on a miss is what tells."""
    differs = []
    for texts in NAMED.values():
        for text in texts:
            __, lexed = lex_query(text)
            try:
                query = parse_xquery(text)
            except MixError:
                continue
            if not same_literals(query, lexed, literal_spans(text)):
                differs.append(text)
    assert differs == [
        _ORDERS.format("$O/value/data() > {}AND $O/orid/data() < {}"
                       .format(low, high), "$O")
        for low, high in ((7, 30000), (8, 30000), (7, 200), (2400, 1))
    ]


def test_a_literal_the_parse_holds_elsewhere_does_not_check():
    """Equal values are not enough: the parse must read each literal
    from the token the lexer lifted, so a lexer that lifts the wrong
    token of a text is caught on the miss."""
    text = _ORDERS.format("$O/value/data() > 5 AND $O/orid/data() < 5",
                          "$O")
    query = parse_xquery(text)
    __, lexed = lex_query(text)
    spans = literal_spans(text)
    assert same_literals(query, lexed, spans)
    assert not same_literals(query, lexed, spans[::-1])


def test_a_text_with_a_character_no_query_holds_has_no_key():
    assert lex_query('FOR $O IN document(root2)/order WHERE $O/v = 5 '
                     'RETURN $O ;') is None
    assert lex_query('FOR $O IN document(root2)/order WHERE $O/v = "5 '
                     'RETURN $O') is None
    assert lex_query("FOR $O IN document(d)/o WHERE $O/v = \"a;b\" "
                     "RETURN $O")[0].count(HOLE) == 1


def test_trailing_white_space_is_scanned_once():
    key, literals = lex_query("FOR" + " " * 200000)
    assert (key, literals) == ("FOR", ())
    assert literal_spans("FOR $O = 5" + " " * 200000) == [
        ast.Span(1, 10, 1, 11)
    ]
