"""The JSON layout of the CLI's reports.

``pieces`` lays out ``json.dumps(value, indent=2, sort_keys=True)`` byte
for byte, at a fraction of its cost, as a list of text pieces, and
``dumps`` joins them.  A report's long lists are laid out ``_BATCH`` items
to a piece, so no nesting level above them copies the whole text: the CLI
writes the pieces one after another.  It has a module of its own because
the CLI module is compiled on every start when no bytecode is cached, and
a larger module raises the peak memory of that compile.
"""

from __future__ import annotations

import json
from itertools import chain

_escape = json.encoder.encode_basestring_ascii
_LEAF = {
    str: _escape,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
_BATCH = 64  # values per column step and items per piece, which bounds the text held at once
_ROWS: dict[str, dict[tuple, str]] = {}  # indent -> {row of ints: its text}, emptied as pieces returns


def dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte: the
    join of ``pieces(value, indent)``."""
    return "".join(pieces(value, indent))


def pieces(value, indent: str = "") -> list[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` as a
    list of pieces, in order.

    A value that holds a list longer than ``_BATCH``, looking through
    dicts and one-item lists only, is laid out top-down: each of those
    containers' heads, separators and tails is a piece, each long list
    gives one piece per ``_BATCH`` items, and every other value in them is
    one piece.  Any other value is one piece.  So the text is held once,
    where joining it level by level would copy it once per level.

    Each piece comes from the column layout: the values that sit at one
    indent in the same place of their parents (the edge lists of every
    term, their coefficients, ...) are laid out together, ``_BATCH`` at a
    time.

    - A column of str, int, bool and None leaves is encoded with the
      C-level helpers, one call per leaf.
    - A column of dicts with the same keys is laid out key by key, each
      key's values as one column, then joined with one ``%`` template.
    - A column of tuples whose rows are all non-empty tuples of exact
      ints (the library's edge tuples) is laid out row by row, each
      distinct row's text made once per indent and kept in ``_ROWS`` until
      the call returns: a report holds few distinct edges, each many
      times.  Any other column of lists and tuples takes the generic
      walk: the items of its lists become the next column, so the result
      is exact for any value.
    - Anything else is laid out on its own.  A value the column layout
      cannot take (a dict with a key that is not a str, a leaf of another
      type) is ``json.dumps(v, indent=2, sort_keys=True)`` re-indented,
      which is exact because JSON text holds no raw newline.

    A value nested too deeply for this layout is laid out node by node
    from an explicit stack instead, as one piece, so its depth is not
    bounded by the recursion limit (the trace of a long run of pair
    reductions is a chain of dicts a thousand deep).  Where a value the
    column layout cannot take is itself too deep for ``json.dumps``, that
    exception propagates.
    """
    try:
        out = _split(value, indent)
        return [_one(value, indent)] if out is None else out
    except RecursionError:
        return [_walk(value, indent)]
    finally:
        _ROWS.clear()


def _split(value, indent: str) -> list[str] | None:
    """The pieces of a value that holds a list longer than _BATCH, looking
    through dicts with str keys and one-item lists; None for any other
    value."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if len(value) > _BATCH:
            out = ["[\n" + inner]
            for k in range(0, len(value), _BATCH):
                if k:
                    out.append(",\n" + inner)
                out.append((",\n" + inner).join(_column(value[k:k + _BATCH], inner)))
            return out + ["\n" + indent + "]"]
        out = _split(value[0], inner) if len(value) == 1 else None
        return None if out is None else ["[\n" + inner, *out, "\n" + indent + "]"]
    if not (isinstance(value, dict) and all(isinstance(k, str) for k in value)):
        return None
    keys = sorted(value)
    parts = [_split(value[k], inner) for k in keys]
    if all(part is None for part in parts):
        return None
    out = []
    for i, (k, part) in enumerate(zip(keys, parts)):
        out.append(("{\n" if i == 0 else ",\n") + inner + _escape(k) + ": ")
        out += [_one(value[k], inner)] if part is None else part
    return out + ["\n" + indent + "}"]


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
    """The layout of lists and tuples.

    Each list's text is one join: its head and tail are folded into its
    first and last item, and the lists are taken last to first, so the
    item texts a list consumed are dropped as soon as its text is made."""
    out = _rows(values, indent)
    if out is not None:
        return out
    inner = indent + "  "
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    items = _column([x for v in values for x in v], inner)
    out = []
    for v in reversed(values):
        if not v:
            out.append("[]")
            continue
        start = len(items) - len(v)
        items[start] = head + items[start]
        items[-1] += tail
        out.append(sep.join(items[start:]))
        del items[start:]
    out.reverse()
    return out


def _rows(values: list, indent: str) -> list[str] | None:
    """The layout of tuples whose rows are all non-empty tuples of ints,
    such as edge tuples, each row's text taken from _ROWS; None if any
    value has another shape.  The type checks are exact, so a row holding
    True is never taken for one holding 1, which compares equal."""
    if {*map(type, values)} != {tuple}:
        return None
    rows = [*chain.from_iterable(values)]
    if {*map(type, rows)} != {tuple} or not all(rows) or {*map(type, chain.from_iterable(rows))} != {int}:
        return None
    inner, leaf = indent + "  ", indent + "    "
    cache = _ROWS.setdefault(inner, {})
    for r in {*rows} - cache.keys():
        cache[r] = "[\n" + leaf + (",\n" + leaf).join(map(int.__repr__, r)) + "\n" + inner + "]"
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    return [head + sep.join(map(cache.__getitem__, v)) + tail if v else "[]" for v in values]
