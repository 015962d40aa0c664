"""Column types of the relational substrate.

Three scalar types suffice for the paper's workloads: INTEGER, REAL, and
TEXT.  Each type validates and coerces Python values on insert so that
the executor can compare column values without per-row type dispatch.
"""

from __future__ import annotations

from repro.errors import TypeMismatchError

#: Each comparison operator mirrored, for moving a literal from the left
#: operand to the right (``5 < x`` is ``x > 5``).
FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ColumnType:
    """A scalar column type with validation and coercion."""

    def __init__(self, name, python_types, coerce):
        self.name = name
        self._python_types = python_types
        self._coerce = coerce

    def accept(self, value):
        """Coerce ``value`` to this type, raising on mismatch.

        ``None`` is accepted by every type (SQL NULL).
        """
        if value is None:
            return None
        if isinstance(value, self._python_types) and not isinstance(value, bool):
            return self._coerce(value)
        try:
            return self._coerce(value)
        except (TypeError, ValueError):
            raise TypeMismatchError(
                "value {!r} is not a {}".format(value, self.name)
            )

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, ColumnType) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def _coerce_int(value):
    if isinstance(value, float) and not value.is_integer():
        raise TypeMismatchError("{!r} is not an integer".format(value))
    if isinstance(value, str):
        return int(value.strip())
    return int(value)


def _coerce_real(value):
    if isinstance(value, str):
        return float(value.strip())
    return float(value)


def sort_key(value):
    """A total order over NULLs, numbers, and strings (NULLs first).

    ``ORDER BY``, the shard merge and the tables' key order all sort by
    it, which is what lets key order stand in for a sort.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


INTEGER = ColumnType("INTEGER", (int,), _coerce_int)
REAL = ColumnType("REAL", (int, float), _coerce_real)
TEXT = ColumnType("TEXT", (str,), str)

#: Type names the SQL DDL parser recognises (with common aliases).
TYPE_NAMES = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "REAL": REAL,
    "FLOAT": REAL,
    "DOUBLE": REAL,
    "TEXT": TEXT,
    "VARCHAR": TEXT,
    "STRING": TEXT,
    "CHAR": TEXT,
}
