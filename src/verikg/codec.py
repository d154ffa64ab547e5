"""One JSON document form for every dataclass record, and the two text
forms of run bytes.

`to_doc` stores each dataclass field under its own name, an Enum by its
value, a tuple as a list and a nested record as a dict. A class with a
`TAG` class attribute (an expression node) becomes the list
`[TAG, *fields]`; one with a `KIND` class attribute (an always-block
statement) becomes a dict that also holds `"kind": KIND`.

`from_doc(tp, doc)` reads that form back, driven by the resolved field
types: a union member is picked by its `TAG` or `KIND`. A key may be
absent only where the field's default is None, and a scalar must have its
field's type (an int may stand for a float). A malformed document raises;
it never loads as a partial record.

`canonical_json` is the compact form (sorted keys, no spaces, non-ASCII
kept) that run ids, graph attributes and `graph.html` are built from.
`pretty_json` is the form run documents and transcripts are written in:
exactly `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=ascii)`.

The module imports nothing from `verikg`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from enum import Enum
from json.encoder import encode_basestring, encode_basestring_ascii


def to_doc(x):
    """The document form of `x`: a record, an Enum, a list, tuple or dict
    of them, or a JSON scalar."""
    t = type(x)
    if t in _SCALARS:
        return x
    return (_ENCODERS.get(t) or _encoder(t))(x)


# Containers and records test for these inline: a call per scalar would
# cost more than all the rest of the encoding.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_ENCODERS: dict = {}


def _encoder(t: type):
    if issubclass(t, Enum):
        def enc(x):
            return x.value
    elif t is list or t is tuple:
        def enc(x):
            return [v if type(v) in _SCALARS else to_doc(v) for v in x]
    elif t is dict:
        def enc(x):
            return {k: v if type(v) in _SCALARS else to_doc(v) for k, v in x.items()}
    elif dataclasses.is_dataclass(t):
        names = [f.name for f in dataclasses.fields(t)]
        tag, kind = getattr(t, "TAG", None), getattr(t, "KIND", None)
        if tag is not None:
            def enc(x):
                values = [getattr(x, n) for n in names]
                return [tag, *[v if type(v) in _SCALARS else to_doc(v) for v in values]]
        else:
            head = {} if kind is None else {"kind": kind}

            def enc(x):
                doc = head.copy()
                for n in names:
                    v = getattr(x, n)
                    doc[n] = v if type(v) in _SCALARS else to_doc(v)
                return doc
    else:
        raise TypeError(f"no document form for {t.__name__}")
    _ENCODERS[t] = enc
    return enc


def from_doc(tp, doc):
    """The value of type `tp` (a record class, an Enum, or a list, tuple,
    dict or union of them) that `doc` is the document form of."""
    return _decoder(tp, None)(doc)


def _checked(*allowed: type):
    def dec(doc):
        if not isinstance(doc, allowed):
            raise TypeError(f"expected {allowed[0].__name__}, got {type(doc).__name__}")
        return doc
    return dec


_DECODERS: dict = {str: _checked(str), int: _checked(int), bool: _checked(bool),
                   float: _checked(float, int), dict: _checked(dict)}


def _resolve(tp, module: str | None):
    """`tp`, a string evaluated in `module`, the module of the record whose
    field it types. Under `from __future__ import annotations` a quoted
    annotation is a string that evaluates to a string."""
    while isinstance(tp, str):
        tp = eval(tp, vars(sys.modules[module]))
    return tp


def _decoder(tp, module: str | None):
    tp = _resolve(tp, module)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    # a generic may hold names that only `module` resolves
    key = tp if origin is None else (tp, module)
    known = _DECODERS.get(key)
    if known is not None:
        return known
    if origin is None and issubclass(tp, Enum):
        dec = tp
    elif origin is None and dataclasses.is_dataclass(tp):
        return _record_decoder(tp)
    elif origin is list:
        item = _decoder(args[0], module)
        dec = lambda doc: [item(v) for v in doc]  # noqa: E731
    elif origin is tuple and args[-1] is Ellipsis:
        item = _decoder(args[0], module)
        dec = lambda doc: tuple(item(v) for v in doc)  # noqa: E731
    elif origin is tuple:
        items = [_decoder(a, module) for a in args]

        def dec(doc):
            if len(doc) != len(items):
                raise ValueError(f"expected {len(items)} items, got {len(doc)}")
            return tuple(d(v) for d, v in zip(items, doc))
    elif origin is dict:
        value = _decoder(args[1], module)
        dec = lambda doc: {k: value(v) for k, v in doc.items()}  # noqa: E731
    elif origin is typing.Union or origin is types.UnionType:
        members = [_resolve(a, module) for a in args if a is not type(None)]
        dec = _decoder(members[0], module) if len(members) == 1 else _pick_decoder(members)
        if type(None) in args:
            inner = dec
            dec = lambda doc: None if doc is None else inner(doc)  # noqa: E731
    else:
        raise TypeError(f"no document form for {tp!r}")
    _DECODERS[key] = dec
    return dec


def _pick_decoder(members: list):
    """Decode by the member whose `TAG` heads the document (a list) or whose
    `KIND` is its "kind"."""
    by_mark = {getattr(m, "TAG", None) or getattr(m, "KIND", None): _decoder(m, None)
               for m in members}

    def dec(doc):
        mark = doc[0] if isinstance(doc, list) else doc["kind"]
        if mark is None or mark not in by_mark:
            raise ValueError(f"unknown tag or kind {mark!r}")
        return by_mark[mark](doc)
    return dec


def _record_decoder(cls: type):
    spec: list = []  # (name, decoder, may be absent), filled below
    if hasattr(cls, "TAG"):
        def dec(doc):
            if len(doc) != len(spec) + 1:
                raise ValueError(f"{doc[0]!r} takes {len(spec)} fields, got {len(doc) - 1}")
            return cls(*[d(v) for (_n, d, _o), v in zip(spec, doc[1:])])
    else:
        def dec(doc):
            kwargs = {}
            for name, d, optional in spec:
                if name in doc:
                    kwargs[name] = d(doc[name])
                elif not optional:
                    raise ValueError(f"missing key {name!r}")
            return cls(**kwargs)
    _DECODERS[cls] = dec  # before the fields: a statement nests statements
    spec += [(f.name, _decoder(f.type, cls.__module__), f.default is None)
             for f in dataclasses.fields(cls)]
    return dec


class Record:
    """A dataclass mixin: `to_doc` and `from_doc` over this module."""

    def to_doc(self):
        return to_doc(self)

    @classmethod
    def from_doc(cls, doc):
        return from_doc(cls, doc)


# -- run bytes ------------------------------------------------------------------

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False).encode


_INF = float("inf")
_BOOL_TEXT = {True: "true", False: "false"}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _null_text(_x) -> str:
    return "null"


def _key_text(k) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_text(k)
    if k is None:
        return "null"
    if k is True or k is False:
        return _BOOL_TEXT[k]
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _pretty_writer(ascii: bool):
    """`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=ascii)`,
    written piece by piece: every string goes through the C quoting
    function and every number through its type's repr, and the pieces are
    joined once. (Before Python 3.13, `json.dumps` with an indent runs the
    pure-Python encoder; one writer on every Python keeps the bytes from
    depending on which encoder ran.)"""
    quote = encode_basestring_ascii if ascii else encode_basestring
    # exact types only: a subclass takes the isinstance tests in `scalar`
    text_of = {str: quote, int: int.__repr__, float: _float_text,
               bool: _BOOL_TEXT.__getitem__, type(None): _null_text}

    def scalar(x) -> str:
        text = text_of.get(type(x))
        if text is not None:
            return text(x)
        if isinstance(x, str):
            return quote(x)
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, float):
            return _float_text(x)
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")

    def put(x, nl: str, append) -> None:
        """Append `x`, whose closing bracket goes after `nl`."""
        if isinstance(x, dict):
            if not x:
                append("{}")
                return
            inner = nl + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in sorted(x.items()):
                key = quote(k if type(k) is str else _key_text(k))
                text = text_of.get(type(v))
                if text is not None:
                    append(f"{sep}{key}: {text(v)}")
                else:
                    append(f"{sep}{key}: ")
                    put(v, inner, append)
                sep = comma
            append(nl + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                append("[]")
                return
            inner = nl + "  "
            sep, comma = "[" + inner, "," + inner
            for v in x:
                text = text_of.get(type(v))
                if text is not None:
                    append(sep + text(v))
                else:
                    append(sep)
                    put(v, inner, append)
                sep = comma
            append(nl + "]")
        else:
            append(scalar(x))

    def write(doc) -> str:
        out: list[str] = []
        put(doc, "\n", out.append)
        return "".join(out)
    return write


_WRITERS = {ascii: _pretty_writer(ascii) for ascii in (False, True)}


def pretty_json(doc, ascii: bool = False) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=ascii)`."""
    return _WRITERS[ascii](doc)
