"""Cache keys and validity fingerprints.

A cache in this stack is only allowed to be *exactly* right: every key
binds the question together with a fingerprint of everything the answer
depends on, and every fingerprint is version-based — never time-based.
Keys are taken from the token structure of the question, never from a
whitespace-collapsed text: two spaces inside a string literal are data.

* the XQuery side is :mod:`repro.cache.shapes` (the query's token
  sequence with its literals lifted out, by
  :func:`~repro.xquery.parser.lex_query`, + those literals);
* :func:`normalize_sql` — layout-insensitive identity of a pushed SQL
  statement;
* :func:`catalog_shape` — which documents and SQL servers the mediator
  can see (a new ``add_source`` changes the plans a query may compile
  to);
* :func:`data_fingerprint` — the write-versions of every registered
  source, or ``None`` when any source cannot version its data (an
  unversioned source makes result reuse unsound, so callers skip the
  navigation memo entirely in that case);
* :func:`failure_epoch` — the source trouble an instrument has counted
  (any movement may have left a truncated or degraded prefix in a tree
  forced since).
"""

from __future__ import annotations

import re

from repro import stats as statnames

#: The pieces of a statement that white space separates, as the SQL
#: tokenizer sees them: a string literal (one piece, spaces and all), a
#: ``--`` comment, a run of anything else, a stray quote.
_SQL_PIECE = re.compile(
    r"'(?:[^']|'')*'|--[^\n]*|(?:[^\s'-]|-(?!-))+|\S"
)


def normalize_sql(sql):
    """An identity for a SQL statement that ignores layout — white
    space between tokens, comments — and nothing else: two statements
    with one key tokenize alike."""
    sql = str(sql)
    if "'" not in sql and "--" not in sql:
        return " ".join(sql.split())
    return " ".join(
        piece for piece in _SQL_PIECE.findall(sql)
        if not piece.startswith("--")
    )


def catalog_shape(catalog):
    """What the catalog exports: the part of a plan key owned by it."""
    return tuple(catalog.document_ids())


def data_fingerprint(catalog):
    """Combined write-version of every source, or ``None``.

    ``None`` means at least one source cannot report a data version;
    result-level caches must then treat every entry as unverifiable and
    recompute.
    """
    versions = []
    for source in catalog.sources():
        version = source.data_version()
        if version is None:
            return None
        versions.append(version)
    return tuple(versions)


def failure_epoch(obs):
    """Cumulative source trouble counted on the instrument ``obs``
    (``0`` without one): failures, timeouts and degraded results.

    Any movement between producing an answer and reusing it may have
    left a lazily truncated or degraded prefix inside its tree, so a
    reuse stamped with another epoch is refused (conservative, never
    stale).
    """
    if obs is None:
        return 0
    return (
        obs.get(statnames.SOURCE_FAILURES)
        + obs.get(statnames.SOURCE_TIMEOUTS)
        + obs.get(statnames.DEGRADED_RESULTS)
    )
