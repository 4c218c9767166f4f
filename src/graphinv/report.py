"""The JSON layout of the CLI's reports.

``pieces`` lays out ``json.dumps(value, indent=2, sort_keys=True)`` byte
for byte, at a fraction of its cost, as a list of text pieces, and
``dumps`` joins them.  A report value may hold the library's ``Graph``,
``GraphCombination`` and ``GraphPolynomial`` objects, each laid out as its
``graph_to_json``, ``combination_to_json`` or ``polynomial_to_json`` value
would be, straight from the object.  A report's long lists are laid out
``_BATCH`` items to a piece, so no nesting level above them copies the
whole text: the CLI writes the pieces one after another.  It has a module
of its own because the CLI module is compiled on every start when no
bytecode is cached, and a larger module raises the peak memory of that
compile.
"""

from __future__ import annotations

import json
from itertools import accumulate

from .graphs import Graph
from .relations import GraphPolynomial
from .straightening import GraphCombination

_escape = json.encoder.encode_basestring_ascii
_LEAF = {
    str: _escape,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
_BATCH = 64  # values per column step and items per piece, which bounds the text held at once


def dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte: the
    join of ``pieces(value, indent)``."""
    return "".join(pieces(value, indent))


def pieces(value, indent: str = "") -> list[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` as a
    list of pieces, in order, where a library object stands for its JSON
    value (``graph_to_json``, ``combination_to_json``,
    ``polynomial_to_json``).

    A value that holds a list longer than ``_BATCH``, looking through
    dicts, one-item lists and library objects only (a graph's edges, a
    combination's or a polynomial's terms), is laid out top-down: each of
    those containers' heads, separators and tails is a piece, each long
    list gives one piece per ``_BATCH`` items, and every other value in
    them is one piece.  Any other value is one piece.  So the text is held
    once, where joining it level by level would copy it once per level.

    Each piece comes from the column layout: the values that sit at one
    indent in the same place of their parents (the relations of a family,
    their degrees, ...) are laid out together, ``_BATCH`` at a time.

    - A column of str, int, bool and None leaves is encoded with the
      C-level helpers, one call per leaf.
    - A column of dicts with the same keys is laid out key by key, each
      key's values as one column, then joined with one ``%`` template.
    - A column of library objects of one type is laid out with one ``%``
      template per type, and one per term, the terms of the whole column
      at once.  Each distinct (tail, head) pair's text is made once per
      indent, and from a graph's second use on its edge list's text is
      kept too, keyed by the graph (whose hash is cached): a family's
      matchings recur in many terms, while a list of distinct graphs
      keeps no second copy of its text.  What is kept is dropped when the
      call returns.  A degree's text is made once for each run of
      combinations that share the degree tuple, as a family's do.
    - Any other column of lists and tuples is laid out item by item: the
      items of its lists become the next column, so the result is exact
      for any value.
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
    memo: dict = {}  # (kind, indent) -> {graph or pair: its text}, for this call only
    try:
        out = _split(value, indent, memo)
        return [_one(value, indent, memo)] if out is None else out
    except RecursionError:
        return [_walk(value, indent)]


def _split(value, indent: str, memo: dict) -> list[str] | None:
    """The pieces of a value that holds a list longer than _BATCH, looking
    through dicts with str keys, one-item lists and library objects; None
    for any other value."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if len(value) > _BATCH:
            return _batches(value, indent, _column, memo)
        out = _split(value[0], inner, memo) if len(value) == 1 else None
        return None if out is None else ["[\n" + inner, *out, "\n" + indent + "]"]
    if type(value) in _OBJECTS:
        items = value.edges if type(value) is Graph else value.terms
        if len(items) <= _BATCH:
            return None
        frames, layout = _OBJECTS[type(value)]
        (head, tail), = frames([value], indent, memo)
        out = _batches(items if type(value) is Graph else [*items.items()], inner, layout, memo)
        out[0] = head + out[0]
        out[-1] += tail
        return out
    if not (isinstance(value, dict) and all(isinstance(k, str) for k in value)):
        return None
    keys = sorted(value)
    parts = [_split(value[k], inner, memo) for k in keys]
    if all(part is None for part in parts):
        return None
    out = []
    for i, (k, part) in enumerate(zip(keys, parts)):
        out.append(("{\n" if i == 0 else ",\n") + inner + _escape(k) + ": ")
        out += [_one(value[k], inner, memo)] if part is None else part
    return out + ["\n" + indent + "}"]


def _batches(items, indent: str, layout, memo: dict) -> list[str]:
    """The pieces of the list of items at indent, one per _BATCH items,
    each laid out by layout(batch, indent + "  ", memo)."""
    inner = indent + "  "
    out = ["[\n" + inner]
    for k in range(0, len(items), _BATCH):
        if k:
            out.append(",\n" + inner)
        out.append((",\n" + inner).join(layout(items[k:k + _BATCH], inner, memo)))
    return out + ["\n" + indent + "]"]


def _walk(value, indent: str) -> str:
    """The layout of value at indent, one node at a time from a stack of
    (value, indent) and (text, None) entries."""
    memo: dict = {}
    out = []
    todo = [(value, indent)]
    while todo:
        v, ind = todo.pop()
        if ind is None:
            out.append(v)
        elif type(v) in _LEAF:
            out.append(_LEAF[type(v)](v))
        elif not (isinstance(v, (list, tuple)) or isinstance(v, dict) and all(isinstance(k, str) for k in v)):
            out.append(_one(v, ind, memo))  # a library object, whose depth is bounded, or json.dumps
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


def _column(values: list, indent: str, memo: dict) -> list[str]:
    """The layout of each of values at indent."""
    if len(values) > _BATCH:
        return [text for k in range(0, len(values), _BATCH) for text in _column(values[k:k + _BATCH], indent, memo)]
    types = {*map(type, values)}
    if types <= _LEAF.keys():
        return [_LEAF[type(v)](v) for v in values]
    if len(types) == 1 and types <= _OBJECTS.keys():
        return _objects(values, indent, memo)
    if all(isinstance(v, (list, tuple)) for v in values):
        return _lists(values, indent, memo)
    if all(isinstance(v, dict) for v in values):
        keys = values[0].keys()
        if all(v.keys() == keys for v in values) and all(isinstance(k, str) for k in keys):
            return _dicts(values, sorted(keys), indent, memo)
    return [_one(v, indent, memo) for v in values]


def _one(value, indent: str, memo: dict) -> str:
    """The layout of a value that shares no column."""
    if isinstance(value, (list, tuple)) or isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return _column([value], indent, memo)[0]
    if type(value) in _LEAF:
        return _LEAF[type(value)](value)
    if type(value) in _OBJECTS:
        return _objects([value], indent, memo)[0]
    return _json(value, indent)  # a leaf of another type, or a dict with a key that is not a str


def _dicts(values: list, keys: list, indent: str, memo: dict) -> list[str]:
    """The layout of dicts that all have the sorted keys."""
    if not keys:
        return ["{}"] * len(values)
    inner = indent + "  "
    columns = [_column([v[k] for v in values], inner, memo) for k in keys]
    template = (",\n" + inner).join(_escape(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{\n" + inner + template + "\n" + indent + "}"
    return [template % row for row in zip(*columns)]


def _lists(values: list, indent: str, memo: dict) -> list[str]:
    """The layout of lists and tuples.

    Each list's text is one join: its head and tail are folded into its
    first and last item, and the lists are taken last to first, so the
    item texts a list consumed are dropped as soon as its text is made."""
    inner = indent + "  "
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    items = _column([x for v in values for x in v], inner, memo)
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


# The library objects.  Each is laid out as a head, the JSON list of its
# items (a graph's edges, a combination's or a polynomial's terms) and a
# tail; the list sits at the object's indent plus two.


def _objects(values: list, indent: str, memo: dict) -> list[str]:
    """The layout of library objects of one type."""
    frames, layout = _OBJECTS[type(values[0])]
    inner = indent + "  "
    if type(values[0]) is Graph:
        lists = _edges(values, inner, memo)
    else:
        # the terms of all values as one column, then each value's share
        texts = layout([t for v in values for t in v.terms.items()], inner + "  ", memo)
        lists = _runs(texts, [len(v.terms) for v in values], inner)
    return ["%s%s%s" % (head, text, tail) for (head, tail), text in zip(frames(values, indent, memo), lists)]


def _list(texts: list[str], indent: str) -> str:
    """The list of the item texts at indent."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _runs(texts: list[str], counts: list[int], indent: str) -> list[str]:
    """The lists at indent of consecutive runs of the item texts, the i-th
    of counts[i] items."""
    ends = [*accumulate(counts)]
    return [_list(texts[start:end], indent) for start, end in zip([0, *ends], ends)]


def _graph_frames(values: list, indent: str, memo: dict) -> list[tuple[str, str]]:
    """{"edges": ..., "n": n}; a graph's constructor makes n and its
    endpoints exact ints."""
    inner = indent + "  "
    head, tail = "{\n" + inner + '"edges": ', ",\n" + inner + '"n": %d\n' + indent + "}"
    return [(head, tail % g.n) for g in values]


def _combination_frames(values: list, indent: str, memo: dict) -> list[tuple[str, str]]:
    """{"degree": ..., "n": n, "terms": ...}"""
    inner = indent + "  "
    head = "{\n" + inner + '"degree": %s,\n' + inner + '"n": %s,\n' + inner + '"terms": '
    tail = "\n" + indent + "}"
    last, degree = None, "null"
    out = []
    for c in values:
        if c.degree is not last:  # a family shares one degree tuple
            last, degree = c.degree, "null" if c.degree is None else _one(list(c.degree), inner, memo)
        out.append((head % (degree, _one(c.n, inner, memo)), tail))
    return out


def _polynomial_frames(values: list, indent: str, memo: dict) -> list[tuple[str, str]]:
    """{"n": n, "terms": ...}"""
    inner = indent + "  "
    head, tail = "{\n" + inner + '"n": %s,\n' + inner + '"terms": ', "\n" + indent + "}"
    return [(head % _one(p.n, inner, memo), tail) for p in values]


def _pairs(edges, indent: str, memo: dict) -> list[str]:
    """The (tail, head) pairs at indent, each distinct pair's text made
    once per indent: a graph's endpoints are exact ints, so equal pairs
    have one text."""
    cache = memo.setdefault(("pairs", indent), {})
    try:
        return [*map(cache.__getitem__, edges)]
    except KeyError:
        inner = indent + "  "
        pair = "[\n" + inner + "%d,\n" + inner + "%d\n" + indent + "]"
        cache.update({e: pair % e for e in edges if e not in cache})
        return [*map(cache.__getitem__, edges)]


def _combination_terms(terms: list, indent: str, memo: dict) -> list[str]:
    """The (graph, coefficient) terms at indent: {"coeff": str, "edges": ...}.
    A coefficient is an int or a Fraction, whose str needs no escape."""
    inner = indent + "  "
    term = "{\n" + inner + '"coeff": "%s",\n' + inner + '"edges": %s\n' + indent + "}"
    return [term % x for x in zip([c for _, c in terms], _edges([g for g, _ in terms], inner, memo))]


def _polynomial_terms(terms: list, indent: str, memo: dict) -> list[str]:
    """The (monomial, coefficient) terms at indent: {"coeff": str,
    "monomial": [graph, ...]}."""
    inner = indent + "  "
    term = "{\n" + inner + '"coeff": "%s",\n' + inner + '"monomial": %s\n' + indent + "}"
    factors = [f for mono, _ in terms for f in mono]
    monomials = _runs(_objects(factors, inner + "  ", memo) if factors else [], [len(m) for m, _ in terms], inner)
    return [term % x for x in zip([c for _, c in terms], monomials)]


def _edges(graphs: list, indent: str, memo: dict) -> list[str]:
    """The text of each graph's edge list at indent.  A graph's text is
    kept from its second use on; equal graphs may list their edges in
    different orders, so a kept text is used only for the same edges."""
    cache = memo.setdefault(("edges", indent), {})  # graph -> None once seen, then (edges, text)
    out = []
    for g in graphs:
        e = g.edges
        hit = cache.get(g, False)
        if hit and hit[0] == e:
            out.append(hit[1])
            continue
        text = _list(_pairs(e, indent + "  ", memo), indent)
        cache[g] = None if hit is False else (e, text)
        out.append(text)
    return out


# type -> (the heads and tails of a column of them, the layout of their items)
_OBJECTS = {
    Graph: (_graph_frames, _pairs),
    GraphCombination: (_combination_frames, _combination_terms),
    GraphPolynomial: (_polynomial_frames, _polynomial_terms),
}
