"""The JSON layout of the CLI's reports.

``dumps`` reproduces ``json.dumps(value, indent=2, sort_keys=True)`` byte
for byte at a fraction of its cost.  It has a module of its own because
the CLI module is compiled on every start when no bytecode is cached, and
a larger module raises the peak memory of that compile.
"""

from __future__ import annotations

import json

_escape = json.encoder.encode_basestring_ascii
_compact = json.JSONEncoder(separators=(",", ":")).encode  # indent None: the C encoder
_LEAF = {
    str: _escape,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
_BATCH = 64  # values per column step, which bounds the text held at once


def dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` that call runs the pure-Python encoder.  This lays out
    a column at a time instead: the values that sit at one indent in the
    same place of their parents (the edge lists of every term, their
    coefficients, ...) are laid out together, ``_BATCH`` at a time.

    - A column of str, int, bool and None leaves is encoded with the
      C-level helpers, one call per leaf.
    - A column of dicts with the same keys is laid out key by key, each
      key's values as one column, then joined with one ``%`` template.
    - A column of lists is first tried as a batch of lists of scalar lists
      (edge lists): one compact C-encoder call for the batch, a few
      ``str.replace`` passes to the indent-2 layout, and a split per list.
      The batch is taken only if its text has no ``"``, ``{`` or ``[]`` and
      no bracket is left once the separators are removed, which proves
      every list has that shape.  Otherwise the column falls back to the
      generic walk: the items of its lists become the next column, so the
      result is exact for any value.
    - Anything else is laid out on its own.  A value the column layout
      cannot take (a dict with a key that is not a str, a leaf of another
      type) is ``json.dumps(v, indent=2, sort_keys=True)`` re-indented,
      which is exact because JSON text holds no raw newline.

    A value nested too deeply for the column layout is laid out node by
    node from an explicit stack instead, so its depth is not bounded by
    the recursion limit (the trace of a long run of pair reductions is a
    chain of dicts a thousand deep).  Where a value the column layout
    cannot take is itself too deep for ``json.dumps``, that exception
    propagates.
    """
    try:
        return _column([value], indent)[0]
    except RecursionError:
        return _walk(value, indent)


def _walk(value, indent: str) -> str:
    """The layout of value at indent, one node at a time from a stack of
    (value, indent) and (text, None) entries."""
    out = []
    todo = [(value, indent)]
    while todo:
        v, ind = todo.pop()
        if ind is None:
            out.append(v)
        elif type(v) in _LEAF:
            out.append(_LEAF[type(v)](v))
        elif not (isinstance(v, (list, tuple)) or isinstance(v, dict) and all(isinstance(k, str) for k in v)):
            out.append(_json(v, ind))
        elif not v:
            out.append("{}" if isinstance(v, dict) else "[]")
        else:
            inner = ind + "  "
            if isinstance(v, dict):
                keys = sorted(v)
                opener, closer, heads, items = "{", "}", [_escape(k) + ": " for k in keys], [v[k] for k in keys]
            else:
                opener, closer, heads, items = "[", "]", [""] * len(v), v
            # pushed last to first
            todo.append(("\n" + ind + closer, None))
            for i in range(len(items) - 1, 0, -1):
                todo += (items[i], inner), (",\n" + inner + heads[i], None)
            todo += (items[0], inner), (opener + "\n" + inner + heads[0], None)
    return "".join(out)


def _json(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indent."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _column(values: list, indent: str) -> list[str]:
    """The layout of each of values at indent."""
    if len(values) > _BATCH:
        return [text for k in range(0, len(values), _BATCH) for text in _column(values[k:k + _BATCH], indent)]
    if set(map(type, values)) <= _LEAF.keys():
        return [_LEAF[type(v)](v) for v in values]
    if all(isinstance(v, (list, tuple)) for v in values):
        return _lists(values, indent)
    if all(isinstance(v, dict) for v in values):
        keys = values[0].keys()
        if all(v.keys() == keys for v in values) and all(isinstance(k, str) for k in keys):
            return _dicts(values, sorted(keys), indent)
    return [_one(v, indent) for v in values]


def _one(value, indent: str) -> str:
    """The layout of a value that shares no column."""
    if isinstance(value, (list, tuple)) or isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return _column([value], indent)[0]
    if type(value) in _LEAF:
        return _LEAF[type(value)](value)
    return _json(value, indent)  # a leaf of another type, or a dict with a key that is not a str


def _dicts(values: list, keys: list, indent: str) -> list[str]:
    """The layout of dicts that all have the sorted keys."""
    if not keys:
        return ["{}"] * len(values)
    inner = indent + "  "
    columns = [_column([v[k] for v in values], inner) for k in keys]
    template = (",\n" + inner).join(_escape(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{\n" + inner + template + "\n" + indent + "}"
    return [template % row for row in zip(*columns)]


def _lists(values: list, indent: str) -> list[str]:
    """The layout of lists and tuples."""
    row = values[0][0] if values[0] else None
    if isinstance(row, (list, tuple)) and row and not isinstance(row[0], (str, dict, list, tuple)):
        out = _edge_lists(values, indent)
        if out is not None:
            return out
    inner = indent + "  "
    sep = ",\n" + inner
    items = _column([x for v in values for x in v], inner)
    out, end = [], 0
    for v in values:
        start, end = end, end + len(v)
        out.append("[\n" + inner + sep.join(items[start:end]) + "\n" + indent + "]" if v else "[]")
    return out


def _edge_lists(values: list, indent: str) -> list[str] | None:
    """The layout of lists that are all non-empty lists of non-empty scalar
    lists, such as edge lists, from one compact C encoding; None if any
    list has another shape."""
    try:
        text = _compact(values)
    except (TypeError, ValueError):
        return None
    if not (text.startswith("[[[") and text.endswith("]]]")) or '"' in text or "{" in text or "[]" in text:
        return None
    # Two lists meet at "]],[[", two rows of a list at "],[".  With the
    # first marked, only the second may hold a bracket.
    body = text[3:-3].replace("]],[[", "|")
    rows = body.count("],[")
    if body.count("[") != rows or body.count("]") != rows:
        return None
    inner, leaf = indent + "  ", indent + "    "
    body = body.replace(",", ",\n" + leaf).replace("],\n" + leaf + "[", "\n" + inner + "],\n" + inner + "[\n" + leaf)
    head, tail = "[\n" + inner + "[\n" + leaf, "\n" + inner + "]\n" + indent + "]"
    return (head + body.replace("|", tail + "|" + head) + tail).split("|")
