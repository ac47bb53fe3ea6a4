"""Canonical wire encoding for gateway <-> cloud messages.

Payloads are JSON objects extended with tagged ``bytes`` values (hex) and
tagged tuples, so that ciphertext blobs and PRF labels survive a real
network hop unchanged.  Both the in-process transport (which measures
message sizes for the network performance metrics) and the TCP transport
(which actually frames them onto a socket) use this codec.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import TransportError

#: Single-key dicts that tag a non-JSON value.  A plain dict whose only
#: key is one of these is escaped under ``__d__`` so it never decodes as
#: the tagged type.
_TAGS = frozenset({"__b__", "__t__", "__s__", "__d__"})


def _to_wire(obj: Any) -> Any:
    if isinstance(obj, (bytes, bytearray)):
        return {"__b__": bytes(obj).hex()}
    if isinstance(obj, tuple):
        return {"__t__": [_to_wire(v) for v in obj]}
    if isinstance(obj, set):
        return {"__s__": sorted(_to_wire(v) for v in obj)}  # type: ignore[type-var]
    if isinstance(obj, dict):
        encoded = {str(k): _to_wire(v) for k, v in obj.items()}
        if len(encoded) == 1 and not _TAGS.isdisjoint(encoded):
            return {"__d__": encoded}
        return encoded
    if isinstance(obj, list):
        return [_to_wire(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TransportError(
        f"value of type {type(obj).__name__} is not wire-encodable"
    )


def _from_wire(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {"__b__"}:
            return bytes.fromhex(obj["__b__"])
        if set(obj) == {"__t__"}:
            return tuple(_from_wire(v) for v in obj["__t__"])
        if set(obj) == {"__s__"}:
            return {_from_wire(v) for v in obj["__s__"]}
        if set(obj) == {"__d__"}:
            obj = obj["__d__"]
        return {k: _from_wire(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_wire(v) for v in obj]
    return obj


def encode(payload: Any) -> bytes:
    """Serialize a payload to canonical wire bytes."""
    try:
        return json.dumps(
            _to_wire(payload), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"cannot encode payload: {exc}") from exc


def decode(data: bytes) -> Any:
    try:
        return _from_wire(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"cannot decode payload: {exc}") from exc


def wire_size(payload: Any) -> int:
    """Size in bytes of a payload on the wire (network metric input)."""
    return len(encode(payload))
