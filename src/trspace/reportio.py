"""Canonical JSON for blocks, approximations and reports.

Reports must be byte-identical across reruns with the same seeds, so
everything here sorts keys, avoids wall-clock values and serializes
containers in the documented order.
"""

from __future__ import annotations

import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import ParameterError
from .model import Approx, Block, Config, SpaceModel, instance_to_json


def is_int_list(value) -> bool:
    """A JSON list of integers (booleans are not integers here)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def block_to_json(block: Block) -> dict:
    return {"atoms": list(block.atoms), "source": list(block.source)}


def block_from_json(payload: dict) -> Block:
    source = payload.get("source") if isinstance(payload, dict) else None
    if not (is_int_list(source) and len(source) == 2 and is_int_list(payload.get("atoms"))):
        raise ParameterError("a block is an object with an atoms list and a two-entry source")
    return Block(source=tuple(source), atoms=tuple(payload["atoms"]))


def approx_to_json(s: Approx) -> dict:
    return {"blocks": [block_to_json(b) for b in s.blocks]}


def approx_from_json(payload: dict) -> Approx:
    if not (isinstance(payload, dict) and isinstance(payload.get("blocks"), list)):
        raise ParameterError("an approximation is an object with a blocks list")
    return Approx(tuple(block_from_json(b) for b in payload["blocks"]))


def config_to_json(config: Config) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(Config)}


_STR, _STR_OR_INT = frozenset((str,)), frozenset((str, int))


def _str_keys(d: dict) -> dict:
    """d keyed by str(key), d itself when every key is a str. A ValueError
    if two keys would become one, and then a TypeError for a key that is
    not a str or an int (a bool is neither), as its str() is no stable
    name."""
    if _STR.issuperset(map(type, d)):
        return d
    keyed = {str(k): v for k, v in d.items()}
    if len(keyed) != len(d):
        raise ValueError("two keys of one dict have the same str(), so one would be lost")
    for k in d:
        if type(k) not in _STR_OR_INT:
            raise TypeError(f"a {type(k).__name__} key has no canonical JSON form")
    return keyed


def to_jsonable(obj):
    """Recursively rewrite engine objects into JSON-safe structures, +inf
    as "inf"; any other type is a TypeError rather than text of unstable
    order."""
    if isinstance(obj, Block):
        return block_to_json(obj)
    if isinstance(obj, Approx):
        return approx_to_json(obj)
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in _str_keys(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"{type(obj).__name__} has no canonical JSON form")


def canonical_json(obj) -> str:
    """json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    and a newline, written in one pass with no copy. -inf and NaN have no
    JSON form, so they raise ValueError."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj, nl: str, out) -> None:
    """Append obj's text to out; nl is the newline and indent of its line."""
    if isinstance(obj, str):
        out(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        out("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != math.inf and not math.isfinite(obj):
            raise ValueError(f"{obj!r} has no JSON form")
        out('"inf"' if obj == math.inf else float.__repr__(obj))
    elif isinstance(obj, Block):
        out(_block_text(obj, nl))
    elif isinstance(obj, Approx):
        inner, item = nl + "  ", nl + "    "
        blocks = ("," + item).join([_block_text(b, item) for b in obj.blocks])
        out("{" + inner + '"blocks": ' + ("[" + item + blocks + inner + "]" if obj.blocks else "[]") + nl + "}")
    elif isinstance(obj, dict):
        keyed = _str_keys(obj)
        inner, sep = nl + "  ", "{"
        for key in sorted(keyed):
            out(sep + inner + _encode_str(key) + ": ")
            _write(keyed[key], inner, out)
            sep = ","
        out(nl + "}" if keyed else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = nl + "  ", "["
        for value in obj:
            out(sep + inner)
            _write(value, inner, out)
            sep = ","
        out(nl + "]" if obj else "[]")
    else:
        raise TypeError(f"{type(obj).__name__} has no canonical JSON form")


def _int_list(values: tuple[int, ...], nl: str) -> str:
    """A nonempty tuple of ints as the list branch writes it."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + nl + "]"


def _block_text(block: Block, nl: str) -> str:
    """block_to_json(block) as the dict branch writes it, with no copy:
    its two keys in sorted order, each a nonempty tuple of ints."""
    inner = nl + "  "
    return (
        "{" + inner + '"atoms": ' + _int_list(block.atoms, inner) + ","
        + inner + '"source": ' + _int_list(block.source, inner) + nl + "}"
    )


def report_envelope(model: SpaceModel, body: dict, config: Config) -> dict:
    return {
        "instance": instance_to_json(model), "instance_tag": model.instance_tag(),
        "config": config_to_json(config), **body,
    }
