"""Canonical JSON for blocks, approximations and reports.

Reports must be byte-identical across reruns with the same seeds, so
everything here sorts keys, avoids wall-clock values and serializes
containers in the documented order.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

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
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"{type(obj).__name__} has no canonical JSON form")


def canonical_json(obj) -> str:
    # -inf and NaN have no JSON form, so they raise ValueError.
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_envelope(model: SpaceModel, body: dict, config: Config) -> dict:
    return {
        "instance": instance_to_json(model), "instance_tag": model.instance_tag(),
        "config": config_to_json(config), **body,
    }
