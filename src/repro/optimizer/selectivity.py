"""Selectivity estimation over :mod:`repro.optimizer.statistics`.

Covers exactly the predicate forms the SQL executor evaluates: equality
(``col = const``), ranges (``col < const`` &c.), inequality, and
composite conjunctions (independence assumption — selectivities
multiply).  With fresh statistics the estimates come from NDV and the
equi-width histograms; without them (never analyzed, or stale after
DML) the classic System-R defaults apply.  Estimates are *estimates*:
they only ever steer plan choices, never results.
"""

from __future__ import annotations

from repro.optimizer.statistics import fresh_statistics

#: Defaults used when no (fresh) statistics describe a column.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.9
#: Default NDV fraction when a column was never analyzed.
DEFAULT_NDV_FRACTION = 0.1

_RANGE_OPS = ("<", "<=", ">", ">=")


def default_selectivity(op):
    """The statistics-free default for one comparison operator."""
    if op == "=":
        return DEFAULT_EQ_SELECTIVITY
    if op == "!=":
        return DEFAULT_NEQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def predicate_selectivity(table, column, op, literal):
    """Estimated fraction of ``table`` rows passing ``column op literal``.

    Uses fresh statistics when available; falls back to
    :func:`default_selectivity`.  NULLs never pass any comparison, so
    every estimate is scaled by the column's non-NULL fraction.
    """
    stats = fresh_statistics(table)
    col = stats.column(column) if stats is not None else None
    if col is None or stats.row_count == 0:
        return default_selectivity(op)
    non_null = 1.0 - col.null_fraction
    if col.ndv == 0:
        return 0.0
    if op == "=":
        if not _within_range(col, literal):
            return _epsilon(stats)
        return non_null / col.ndv
    if op == "!=":
        return non_null * (1.0 - 1.0 / col.ndv)
    if op in _RANGE_OPS:
        return non_null * _range_fraction(stats, col, op, literal)
    return default_selectivity(op)


def _within_range(col, literal):
    try:
        return col.min <= literal <= col.max
    except TypeError:
        # Cross-type comparison (e.g. string stats, numeric literal):
        # equality across types is always false in this SQL subset.
        return False


def _epsilon(stats):
    """A near-zero selectivity for provably-out-of-range probes."""
    return 1.0 / (2.0 * max(stats.row_count, 1))


def _range_fraction(stats, col, op, literal):
    histogram = col.histogram
    if histogram is not None and isinstance(literal, (int, float)):
        below = histogram.fraction_below(literal)
        # ``<=`` / ``>`` need the mass *at* the literal too; approximate
        # one value's worth by 1/NDV of the non-NULL mass.
        at_value = (1.0 / col.ndv) if _within_range(col, literal) else 0.0
        if op == "<":
            return below
        if op == "<=":
            return min(1.0, below + at_value)
        if op == ">":
            return max(0.0, 1.0 - below - at_value)
        return max(0.0, 1.0 - below)
    # No histogram (non-numeric column) or a literal it cannot place:
    # interpolate on the min/max span when the ordering is comparable,
    # else default.
    try:
        if literal < col.min:
            below = 0.0
        elif literal > col.max or col.max == col.min:
            below = 1.0
        else:
            below = _span_fraction(col, literal)
    except TypeError:
        return DEFAULT_RANGE_SELECTIVITY
    if op in ("<", "<="):
        return below
    return 1.0 - below


def _span_fraction(col, literal):
    if isinstance(literal, (int, float)):
        return (literal - col.min) / (col.max - col.min)
    return DEFAULT_RANGE_SELECTIVITY


def conjunction_selectivity(selectivities):
    """Independence assumption: a conjunction's factors multiply."""
    product = 1.0
    for s in selectivities:
        product *= s
    return product


def column_ndv(table, column):
    """Estimated NDV of a column: fresh statistics, else a fixed
    fraction of the live row count (never below 1)."""
    stats = fresh_statistics(table)
    col = stats.column(column) if stats is not None else None
    if col is not None:
        return max(1.0, float(col.ndv))
    return max(1.0, len(table) * DEFAULT_NDV_FRACTION)


def equijoin_selectivity(left_table, left_column, right_table, right_column):
    """The textbook ``1 / max(ndv_left, ndv_right)`` estimate."""
    return 1.0 / max(
        column_ndv(left_table, left_column),
        column_ndv(right_table, right_column),
    )
