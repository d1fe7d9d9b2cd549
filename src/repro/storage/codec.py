"""Shared value codec for every durable artifact.

Checkpoints, WAL snapshots, and the append-ahead log all serialize the
same things: row value tuples and aggregate accumulator state.  Keeping
one codec means the three artifacts cannot drift on value encoding — a
checkpoint written today restores from the same byte-level conventions a
WAL snapshot replays tomorrow.

The encoding is JSON-compatible: tuples are tagged (JSON has no tuple
type, and accumulators rely on tuple/list distinction), and any value
outside the JSON scalar set is rejected up front rather than silently
coerced.
"""

from __future__ import annotations

from typing import Any

from ..errors import ChronicleError


class CodecError(ChronicleError):
    """A value cannot be encoded for, or decoded from, durable storage."""


def encode_value(value: Any) -> Any:
    """JSON-encode a cell/accumulator value, tagging tuples."""
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


_CONTAINERS = (dict, list)


def decode_value(value: Any) -> Any:
    # Scalars are returned in place rather than through a recursive call:
    # recovery decodes every item of a snapshot chain.
    if isinstance(value, list):
        return [decode_value(v) if isinstance(v, _CONTAINERS) else v for v in value]
    if isinstance(value, dict):
        if len(value) == 1 and "__tuple__" in value:
            return tuple(
                [
                    decode_value(v) if isinstance(v, _CONTAINERS) else v
                    for v in value["__tuple__"]
                ]
            )
        raise CodecError(f"unexpected object in durable payload: {value!r}")
    return value
