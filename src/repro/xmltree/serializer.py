"""Serialization of labeled ordered trees back to XML text.

The inverse of :mod:`repro.xmltree.parser` modulo oid assignment and
numeric coercion: ``parse_xml(serialize(t))`` is structurally equal to
``t`` for every attribute-free tree whose leaf values round-trip through
their text form.
"""

from __future__ import annotations

from repro.xmltree.tree import Node, held_children


def _escape(text):
    if not isinstance(text, str):
        return str(text)  # a number holds no markup character
    if "&" in text or "<" in text or ">" in text:
        return (
            text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;")
        )
    return text


def serialize(node, indent=None, show_oids=False):
    """Render ``node`` as XML text.

    Args:
        node: the tree root.
        indent: pretty-print with this many spaces per level (``None``
            emits a compact single line).
        show_oids: when true, emit each node's oid as an XML comment,
            which is useful when inspecting skolem ids in query results.
    """
    parts = []
    _render(node, parts, indent, 0, show_oids)
    joiner = "\n" if indent is not None else ""
    return joiner.join(parts)


def _render(node, parts, indent, depth, show_oids):
    if indent is None and not show_oids:
        _render_compact(node, parts)
        return
    pad = " " * (indent * depth) if indent is not None else ""
    oid_note = "<!--{}-->".format(node.oid) if show_oids else ""
    if node.is_leaf:
        parts.append(pad + _escape(node.label) + oid_note)
        return
    tag = str(node.label)
    only_leaf_children = all(c.is_leaf for c in node.children)
    if only_leaf_children:
        content = "".join(_escape(c.label) for c in node.children)
        parts.append(
            "{}<{}>{}</{}>{}".format(pad, tag, content, tag, oid_note)
        )
        return
    parts.append("{}<{}>{}".format(pad, tag, oid_note))
    for child in node.children:
        _render(child, parts, indent, depth + 1, show_oids)
    parts.append("{}</{}>".format(pad, tag))


def _render_compact(node, parts):
    """The single-line rendering.  Without padding or oid notes a
    leaf-only element's text is its children's rendered one after the
    other, so no child is asked whether it is a leaf before its turn:
    each subtree is forced as it is rendered, in document order, and
    read as held (:func:`~repro.xmltree.tree.held_children`), so an
    unread tuple object or constructed element is rendered unbuilt."""
    if not node.fully_materialized:
        node.materialize()
    children = held_children(node)
    if not children:
        parts.append(_escape(node.label))
        return
    tag = str(node.label)
    parts.append("<" + tag + ">")
    for child in children:
        if child.__class__ is tuple:  # a field, as its row pair
            name, value = child
            parts.append("<%s>%s</%s>" % (name, _escape(value), name))
        else:
            _render_compact(child, parts)
    parts.append("</" + tag + ">")


def to_python(node):
    """A plain-Python rendering used by tests: leaves become their value,
    elements become ``(label, [children...])`` pairs."""
    if node.is_leaf:
        return node.label
    return (node.label, [to_python(c) for c in node.children])


def from_python(data, oids=None):
    """Inverse of :func:`to_python` (surrogate oids are generated)."""
    from repro.xmltree.tree import OidGenerator, leaf, elem

    gen = oids or OidGenerator("p")
    if isinstance(data, tuple):
        label, children = data
        return Node(
            gen.fresh(), label, [from_python(c, gen) for c in children]
        )
    return Node(gen.fresh(), data)
